"""Seeded inputs for the four benchmark workloads.

Each CLI workload is a *deck*: one round of ops in a fixed kind order, with
sizes drawn from the seed within 1% of a fixed centre.  A run replays whole
rounds until its time is up, so every run of a workload does the same mix
of work, and only the inputs change with the seed.

The api-session workload is a *stream* of Python API calls that one
long-lived process runs in order.

`size` scales every input size; the benchmark's self-tests use it to get
tiny versions of the same ops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("cyclotomic", "counting", "density", "api-session")

# density scans and large expansions sit above the CLI's default ceiling
DENSITY_CEILING = "100000"


@dataclass
class Op:
    """One `glaisher` CLI invocation and what its checks need to know."""

    kind: str  # count | expand | verify | density
    args: tuple[str, ...]
    params: dict = field(default_factory=dict)
    env: dict = field(default_factory=dict)
    expect_fail: dict | None = None  # the first_failure a verify must report

    @property
    def key(self) -> str:
        return " ".join(self.args)


def _size(rng: random.Random, center: int, size: float) -> int:
    """A size within 1% of `center` (scaled): each seed gets its own inputs
    while the work of a round hardly moves with the seed."""
    return max(2, round(center * size * (0.99 + 0.02 * rng.random())))


def _verify(theorem: str, m: int | None, flag: str, n: int) -> Op:
    args = ["verify", "--theorem", theorem]
    if m is not None:
        args += ["--m", str(m)]
    args += [flag, str(n), "--format", "json"]
    return Op("verify", tuple(args),
              {"theorem": theorem, "m": m if m is not None else 3, "n": n})


def _expand(m: int, precision: int, route: str, env=None) -> Op:
    args = ("expand", "--series", "epsilon", "--route", route, "--m", str(m),
            "--precision", str(precision), "--format", "json")
    return Op("expand", args, {"m": m, "precision": precision, "route": route},
              dict(env or {}))


def _count(family: str, m: int, j: int | None, n: int) -> Op:
    args = ["count", "--family", family, "--m", str(m)]
    if j is not None:
        args += ["--j", str(j)]
    args += ["--n-max", str(n), "--format", "json"]
    return Op("count", tuple(args), {"family": family, "m": m, "j": j, "n": n})


def cyclotomic_deck(seed: int, size: float = 1.0) -> list[Op]:
    """Z[zeta_m] arithmetic in the `definition` route, plus the paper's
    m = 4 finding, which must keep failing.  The four sizes are set so the
    ops take about the same time, which keeps the median op steady."""
    rng = random.Random(f"cyclotomic/{seed}")
    m4 = _verify("T1.4", 4, "--n-max", max(3, round(300 * size)))
    m4.expect_fail = {"n": 2, "lhs": "triangular E(2)=-3",
                      "rhs": "identity m*C(2)-D(2)=-2"}
    return [
        _verify("T1.4", 3, "--n-max", _size(rng, 500, size)),
        _expand(5, _size(rng, 310, size), "definition"),
        _verify("T1.5", None, "--precision", _size(rng, 515, size)),
        _expand(7, _size(rng, 230, size), "definition"),
        m4,
    ]


def counting_deck(seed: int, size: float = 1.0) -> list[Op]:
    """DP counts with large decimal output, and the count-level theorems.

    Counts use n in (1024, 2048]: the ascending count walk rebuilds each
    table by doubling up to 2048 cells, so their work barely depends on n.
    Each count has a fixed m, so that the m in {2, 3, 5, 7} all appear and
    a round's work does not move with the seed.  The deck holds an odd
    number of ops, so the median latency is that of one op's own samples
    and never the midpoint of a gap between two ops; the short checks are
    sized up (E1.4 at m = 5, C1.10 at precision 2200) so the ops near the
    median take about the same time."""
    rng = random.Random(f"counting/{seed}")

    def count(family, m):
        j = rng.randint(1, m - 1) if family == "Bj" else None
        return _count(family, m, j, _size(rng, 1800, size))

    def check(theorem, m=3, center=1250):
        flag = "--precision" if theorem == "C1.10" else "--n-max"
        return _verify(theorem, m, flag, _size(rng, center, size))

    return [count("A", 3), check("T1.2"), count("C", 7), check("E1.4", 5),
            count("D", 5), check("T1.3"), count("Bj", 7), check("T1.6", None),
            count("A", 5), check("C1.10", center=2200), count("D", 2),
            check("T1.8", center=1000), count("C", 2)]


def density_deck(seed: int, size: float = 1.0) -> list[Op]:
    """Integer-only routes at large x: the census and the two routes whose
    cost grows like x^1.5 (triangular) or stays tiny (qbinomial).  x shrinks
    as m grows so each census takes about the same time."""
    rng = random.Random(f"density/{seed}")
    env = {"GLAISHER_CEILING": DENSITY_CEILING}
    deck = []
    for m in range(3, 9):
        x = _size(rng, max(21000, round(40000 * (3 / m) ** 0.73, -3)), size)
        deck.append(Op("density", ("density", "--m", str(m), "--x", str(x),
                                   "--format", "json"), {"m": m, "x": x}, dict(env)))
    precision = _size(rng, 40000, size)
    # triangular first: the qbinomial op is checked against its output
    deck.insert(2, _expand(3, precision, "triangular", env))
    deck.insert(5, _expand(3, precision, "qbinomial", env))
    return deck


DECKS = {
    "cyclotomic": cyclotomic_deck,
    "counting": counting_deck,
    "density": density_deck,
}

API_FAMILIES = ("A", "B", "Bj", "C", "D")
API_MS = (2, 3, 4, 5, 6, 7)


API_CALLS = 20000


def api_stream(seed: int, size: float = 1.0) -> list[list]:
    """A random-order stream of count_*(m, n) calls and a few verify calls.

    n is skewed small (exponential, mean 40, capped at 250), so most calls
    read a warm table.  Each (family, m) table also gets three large
    requests, ascending, at random places; their sizes sit within 1 % of
    600 so that the build work of a session hardly moves with
    the seed.
    """
    rng = random.Random(f"api-session/{seed}")
    calls = max(50, round(API_CALLS * size))
    keys = [(f, m) for f in API_FAMILIES for m in API_MS]
    small_cap = max(4, round(250 * size))

    def call(family, m, n):
        if family == "Bj":
            return ["count_Bj", m, rng.randint(1, m - 1), n]
        return [f"count_{family}", m, n]

    stream = []
    for _ in range(calls):
        family, m = rng.choice(keys)
        stream.append(call(family, m, min(int(rng.expovariate(1 / 40)), small_cap)))
    inserts = []
    for family, m in keys:
        top = _size(rng, 600, size)
        where = sorted(rng.random() for _ in range(3))
        inserts += [(w, call(family, m, round(top * frac)))
                    for w, frac in zip(where, (0.4, 0.7, 1.0))]
    for i in range(max(1, calls // 1000)):
        theorem = ("T1.2", "E1.4", "T1.3")[i % 3]
        inserts.append((rng.random(), ["verify", theorem, API_MS[i % len(API_MS)],
                                       _size(rng, 200, size)]))
    # insert from the back so earlier positions stay valid
    for w, c in sorted(inserts, key=lambda x: -x[0]):
        stream.insert(round(w * len(stream)), c)
    return stream
