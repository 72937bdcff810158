#!/usr/bin/env python3
"""A fixed pure-Python workload that gauges the machine's current speed.

    python3 perfbench/refloop.py

It imports nothing from glaisher, so no change to the program moves its
time; only the machine does.  The runner spawns it after every op and
scales its timings by the reference's median (see `Gauge` in run.py).
The work is of the kinds the program does: big-integer partition DPs, one
of them over a long table as in a density census, and coefficient updates
in Z[x]/(x^m - 1).  It prints one checksum line.
"""

from __future__ import annotations

PARTITION_N = 1100
BOUNDED_K, BOUNDED_N = 16, 60000
CYCLIC_M, CYCLIC_N = 7, 260


def partition_count(n: int, k_max: int | None = None) -> int:
    """Partitions of n, into parts at most k_max when it is given."""
    p = [1] + [0] * n
    for k in range(1, (k_max or n) + 1):
        for i in range(k, n + 1):
            p[i] += p[i - k]
    return p[n]


def cyclic_product(m: int, n: int) -> list[int]:
    """Coefficient of q^n in prod_k (1 + x q^k), with x^m = 1."""
    a = [[0] * m for _ in range(n + 1)]
    a[0][0] = 1
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            src, dst = a[i - k], a[i]
            for r in range(m):
                c = src[r]
                if c:
                    dst[(r + 1) % m] += c
    return a[n]


def checksum() -> str:
    return " ".join(map(str, [partition_count(PARTITION_N) % 1000003,
                              partition_count(BOUNDED_N, BOUNDED_K) % 1000003,
                              *cyclic_product(CYCLIC_M, CYCLIC_N)]))


if __name__ == "__main__":
    print(checksum())
