"""Combinatorial counters for the five partition families.

Everything here counts by dynamic programming over parts, plus a literal
brute-force enumerator used as an independent oracle.  This module never
touches the series machinery: agreement between these counts and the
generating-function expansions is one of the package's core cross-checks,
so the two sides must stay independent.

Family conventions at n = 0: the bounded-multiplicity family (A) and the
no-multiple family (B) count the empty partition (1); the largest-part
families (Bj) count nothing (0, no largest part exists); C counts 1 by
definition; D counts 1 (the block of m zero parts).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

FAMILIES = ("A", "B", "Bj", "C", "D")

BRUTE_FORCE_LIMIT = 40


@dataclass(frozen=True)
class FamilySpec:
    """Selects one counting family at a fixed modulus m (and branch j for Bj)."""

    family: str
    m: int
    j: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected {FAMILIES}")
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if self.family == "Bj":
            if self.j is None:
                raise ValueError("family Bj requires j")
            if not 1 <= self.j <= self.m - 1:
                raise ValueError(f"j must lie in [1, {self.m - 1}]")
        elif self.j is not None:
            raise ValueError(f"family {self.family} takes no j")


@dataclass(frozen=True)
class CountTable:
    """Exact counts for one family, indexed 0..n_max."""

    spec: FamilySpec
    counts: tuple[int, ...]

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1


# ---------------------------------------------------------------------------
# table builders (each returns a plain list of ints indexed 0..n_max)
# ---------------------------------------------------------------------------


def _mult_choice_update(dp: list[int], k: int, m: int) -> list[int]:
    """One DP step: allow part k with multiplicity choice 0..m-1.

    ndp[t] = dp[t] + dp[t-k] + ... + dp[t-(m-1)k] is kept as a sliding
    window, ndp[t] = dp[t] + ndp[t-k] - dp[t-mk], so each step is O(n)."""
    n_max = len(dp) - 1
    mk = m * k
    ndp = list(dp)
    for t in range(k, min(mk, n_max + 1)):
        ndp[t] += ndp[t - k]
    for t in range(mk, n_max + 1):
        ndp[t] += ndp[t - k] - dp[t - mk]
    return ndp


def _build_bounded_mult(m: int, min_part: int, max_part: int | None,
                        n_max: int) -> list[int]:
    if min_part < 1:
        raise ValueError("min_part must be >= 1")
    dp = [0] * (n_max + 1)
    dp[0] = 1
    top = n_max if max_part is None else min(max_part, n_max)
    for k in range(min_part, top + 1):
        dp = _mult_choice_update(dp, k, m)
    return dp


def _build_B(m: int, n_max: int) -> list[int]:
    dp = [0] * (n_max + 1)
    dp[0] = 1
    for k in range(1, n_max + 1):
        if k % m == 0:
            continue
        for t in range(k, n_max + 1):
            dp[t] += dp[t - k]
    return dp


def _build_Bj(m: int, n_max: int) -> list[list[int]]:
    """All m-1 largest-part-residue tables in one ascending sweep."""
    dp = [0] * (n_max + 1)
    dp[0] = 1
    tabs = [[0] * (n_max + 1) for _ in range(m - 1)]
    for largest in range(1, n_max + 1):
        if largest % m == 0:
            continue
        for t in range(largest, n_max + 1):
            dp[t] += dp[t - largest]
        tab = tabs[largest % m - 1]
        for t in range(n_max - largest + 1):
            tab[largest + t] += dp[t]
    return tabs


def _build_C(m: int, n_max: int) -> list[int]:
    """Largest part a multiple of m (say m*j), parts <= j repeating < m times,
    parts in (j, m*j] unrestricted (extra copies of m*j allowed)."""
    dp = [0] * (n_max + 1)
    dp[0] = 1
    out = [0] * (n_max + 1)
    out[0] = 1
    for j in range(1, n_max // m + 1):
        # newly reachable parts (m*(j-1), m*j], unrestricted multiplicity
        for k in range(m * (j - 1) + 1, m * j + 1):
            for t in range(k, n_max + 1):
                dp[t] += dp[t - k]
        # part j leaves the unrestricted zone: cap its multiplicity at m-1
        cap = m * j
        for t in range(n_max, cap - 1, -1):
            dp[t] -= dp[t - cap]
        # one mandatory copy of the largest part m*j
        for t in range(n_max - m * j + 1):
            out[m * j + t] += dp[t]
    return out


def _build_D(m: int, n_max: int) -> list[int]:
    """Smallest part s occurring exactly m times (s = 0 allowed), every other
    part above s repeating < m times."""
    dp = [0] * (n_max + 1)
    dp[0] = 1
    out = [0] * (n_max + 1)
    for p in range(n_max, 0, -1):
        dp = _mult_choice_update(dp, p, m)
        s = p - 1
        if m * s <= n_max:
            base = m * s
            for t in range(n_max - base + 1):
                out[base + t] += dp[t]
    if not out[0]:  # n_max < m still counts the m zeros at n = 0
        out[0] = 1
    return out


_cache: dict = {}
_cache_lock = threading.Lock()


def _table(key, n: int, build):
    """The cached table for key = (family, m, *args), holding at least 0..n,
    built as build(m, *args, size).  Checks m and n for every counter.
    Tables are rebuilt larger on demand (with doubling, so ascending-n call
    patterns stay amortized) and are safe to read concurrently once
    returned."""
    m = key[1]
    if m < 2:
        raise ValueError("m must be >= 2")
    if n < 0:
        raise ValueError("n must be non-negative")
    with _cache_lock:
        size, entry = _cache.get(key, (-1, None))
        if size < n:
            target = max(n, 2 * size, 64)
            entry = build(*key[1:], target)
            _cache[key] = (target, entry)
        return entry


# ---------------------------------------------------------------------------
# public counters
# ---------------------------------------------------------------------------


def count_bounded_mult(m: int, n: int, min_part: int = 1,
                       max_part: int | None = None) -> int:
    """Partitions of n into parts in [min_part, max_part] (max_part None =
    unbounded), each repeating fewer than m times."""
    return _table(("bm", m, min_part, max_part), n, _build_bounded_mult)[n]


def count_A(m: int, n: int) -> int:
    """Partitions of n whose parts repeat fewer than m times."""
    return count_bounded_mult(m, n, 1, None)


def count_B(m: int, n: int) -> int:
    """Partitions of n with no part divisible by m."""
    return _table(("B", m), n, _build_B)[n]


def count_Bj(m: int, j: int, n: int) -> int:
    """Partitions of n with no part divisible by m and largest part
    congruent to j mod m; 0 at n = 0 (the empty partition has no largest
    part)."""
    if m >= 2 and not 1 <= j <= m - 1:  # _table reports a bad m first
        raise ValueError(f"j must lie in [1, {m - 1}]")
    return _table(("Bj", m), n, _build_Bj)[j - 1][n]


def count_C(m: int, n: int) -> int:
    """Partitions of n whose largest part is a multiple of m, say m*j, with
    every part <= j repeating fewer than m times; 1 at n = 0 by definition."""
    return _table(("C", m), n, _build_C)[n]


def count_D(m: int, n: int) -> int:
    """Partitions of n into non-negative parts whose smallest part occurs
    exactly m times while every other part repeats fewer than m times."""
    return _table(("D", m), n, _build_D)[n]


def count_table(spec: FamilySpec, n_max: int) -> CountTable:
    """The full count vector 0..n_max for one family, read through its
    count_* function (looked up by name, so a rebound one is the one
    called)."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    count = globals()["count_" + spec.family]
    head = (spec.m,) if spec.j is None else (spec.m, spec.j)
    count(*head, n_max)  # build the table once at full size; the walk only reads it
    return CountTable(spec, tuple(count(*head, n) for n in range(n_max + 1)))


# ---------------------------------------------------------------------------
# brute force (independent oracle; shares nothing with the DP above)
# ---------------------------------------------------------------------------


def _each_partition(n: int, visit) -> None:
    """Call visit(parts) for every partition of n, parts descending.  The list
    is reused between calls; visitors must not keep a reference."""
    parts: list[int] = []

    def rec(rem: int, cap: int):
        if rem == 0:
            visit(parts)
            return
        top = cap if cap < rem else rem
        for first in range(top, 0, -1):
            parts.append(first)
            rec(rem - first, first)
            parts.pop()

    rec(n, n)


def _runs_below_cap(parts: list[int], m: int, value_bound: int | None) -> bool:
    """True when every run of equal parts (restricted to values <=
    value_bound when given) is shorter than m."""
    run_val = None
    run_len = 0
    for p in parts:
        if value_bound is not None and p > value_bound:
            continue
        if p == run_val:
            run_len += 1
            if run_len >= m:
                return False
        else:
            run_val = p
            run_len = 1
            if run_len >= m:
                return False
    return True


def brute_force_count(spec: FamilySpec, n: int) -> int:
    """Count by generating every partition explicitly and applying the family
    definition verbatim.  Guarded to n <= 40."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force refused for n = {n} > {BRUTE_FORCE_LIMIT}"
        )
    m = spec.m
    hits = 0

    if spec.family == "A":
        def visit(parts):
            nonlocal hits
            if _runs_below_cap(parts, m, None):
                hits += 1
        _each_partition(n, visit)
        return hits

    if spec.family == "B":
        def visit(parts):
            nonlocal hits
            if all(p % m for p in parts):
                hits += 1
        _each_partition(n, visit)
        return hits

    if spec.family == "Bj":
        if n == 0:
            return 0
        def visit(parts):
            nonlocal hits
            if parts[0] % m == spec.j and all(p % m for p in parts):
                hits += 1
        _each_partition(n, visit)
        return hits

    if spec.family == "C":
        if n == 0:
            return 1
        def visit(parts):
            nonlocal hits
            if parts[0] % m == 0 and _runs_below_cap(parts, m, parts[0] // m):
                hits += 1
        _each_partition(n, visit)
        return hits

    # family D: choose the smallest part s >= 0 (occurring exactly m times),
    # then everything else must exceed s and repeat < m times
    total = 0
    for s in range(n // m + 1):
        rest = n - m * s
        hits = 0

        def visit(parts):
            nonlocal hits
            if (not parts or parts[-1] > s) and _runs_below_cap(parts, m, None):
                hits += 1

        _each_partition(rest, visit)
        total += hits
    return total
