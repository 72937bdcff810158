"""Candidate readings of families C and D, tried against T1.4's identity
m*C(n) = D(n) + E(n).

The paper's abstract calls the general case "an example of an almost
partition identity": in the sense of Andrews and Newman ("Almost partition
identities", PNAS 2019), an identity between partition counts that holds
for almost every n.  Under the
package's readings of C and D it holds at every n != 1 for m = 2 and at
every n for m = 3, but fails almost always for m >= 4
(`test_gap_at_m_at_least_4_lies_in_m_C_minus_D_not_in_E`).  So each
plausible other reading is written here as one predicate over the
oracle's enumerator, next to the package's own, and the first n at which
each pair of readings breaks the identity is pinned, so that the record of
what was tried cannot rot.  E comes from the `triangular` route.  n = 1 is
skipped, as T1.4 skips it.

No pair closes the gap at m = 4 or m = 5: each first fails at n = 2, or
at n = 0 under the s >= 1 reading of D, which has D(0) = 0 and so fails
at n = 0 for every m.  Only the package's pair keeps the identity at
m = 2 and m = 3.
"""

import pytest

from glaisher.genfun import epsilon
from glaisher.partitions import (FamilySpec, _partitions, _runs_below,
                                 brute_force_count)

N_MAX = 24


def _c_package(p, m):
    # largest part m*j, parts <= j repeating fewer than m times; the empty
    # partition counts by definition
    return not p or p[0] % m == 0 and _runs_below(
        [k for k in p if k <= p[0] // m], m)


# Each predicate takes a partition p of n (parts descending) and m.
C_READINGS = {
    "package": _c_package,
    # ... and the largest part m*j occurs once
    "largest-once": lambda p, m: _c_package(p, m) and _runs_below(p[:2], 2),
    # ... and the parts in (j, m*j) are distinct
    "middle-distinct": lambda p, m: _c_package(p, m) and _runs_below(
        [k for k in p if p[0] // m < k < p[0]], 2),
}


def _d_package(p, m):
    # smallest part s >= 0 occurring exactly m times, every other part
    # repeating fewer than m times: with s = 0 (m zero parts) every part
    # repeats fewer than m times
    return _runs_below(p, m) or (p.count(p[-1]) == m
                                 and _runs_below(p[:-m], m))


D_READINGS = {
    "package": _d_package,
    # the smallest part occurs exactly m - 1 times, every part fewer than m
    "smallest-m-1": lambda p, m: _runs_below(p, m) and (
        not p or p.count(p[-1]) == m - 1),
    # s >= 1 only: no block of zero parts
    "s-at-least-1": lambda p, m: bool(p) and _d_package(p, m)
    and not _runs_below(p, m),
}


def _counts(reading, m):
    return [sum(1 for p in _partitions(n) if reading(p, m))
            for n in range(N_MAX + 1)]


@pytest.mark.parametrize("m", range(2, 6))
def test_package_readings_are_the_oracles(m):
    for family, reading in (("C", _c_package), ("D", _d_package)):
        assert _counts(reading, m) == [
            brute_force_count(FamilySpec(family, m), n)
            for n in range(N_MAX + 1)], family


# The first n != 1 where m*C(n) - D(n) != E(n), or None up to N_MAX: one row
# per C reading, one column per D reading, in the dicts' order.
_FIRST_MISMATCH = {
    2: ((None, 2, 0), (4, 2, 0), (10, 2, 0)),
    3: ((None, 2, 0), (6, 2, 0), (7, 2, 0)),
    4: ((2, 2, 0), (2, 2, 0), (2, 2, 0)),
    5: ((2, 2, 0), (2, 2, 0), (2, 2, 0)),
}


@pytest.mark.parametrize("m", sorted(_FIRST_MISMATCH))
def test_first_mismatch_of_each_pair_of_readings(m):
    E = epsilon(m, N_MAX, "triangular").coeffs
    C = [_counts(reading, m) for reading in C_READINGS.values()]
    D = [_counts(reading, m) for reading in D_READINGS.values()]
    got = tuple(tuple(next((n for n in range(N_MAX + 1) if n != 1
                            and m * c[n] - d[n] != E[n]), None)
                      for d in D) for c in C)
    assert got == _FIRST_MISMATCH[m]
