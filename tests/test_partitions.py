"""DP counters vs the literal brute-force enumerator and the generating
functions, plus the small identities that tie the families together."""

import math
import random
import sys
import threading
from bisect import bisect_right
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glaisher import partitions
from glaisher.genfun import gf_C, gf_D, gf_regular
from glaisher.partitions import (
    BRUTE_FORCE_LIMIT,
    FamilySpec,
    brute_force_count,
    count_A,
    count_B,
    count_Bj,
    count_C,
    count_D,
    count_bounded_mult,
    count_table,
)


def test_bounded_mult_examples():
    assert count_bounded_mult(3, 4) == 4   # 4, 3+1, 2+2, 2+1+1
    assert count_bounded_mult(2, 5) == 3   # distinct parts: 5, 4+1, 3+2
    assert count_bounded_mult(4, 0) == 1


def test_count_A_examples():
    assert count_A(3, 4) == 4
    assert count_A(2, 5) == 3
    assert count_A(5, 3) == 3


def test_count_B_examples():
    assert count_B(3, 4) == 4
    assert count_B(2, 5) == 3
    assert count_B(3, 5) == 5


def test_count_Bj_examples():
    assert count_Bj(3, 1, 4) == 2   # {4}, {1,1,1,1}
    assert count_Bj(3, 2, 4) == 2   # {2,2}, {2,1,1}
    assert count_Bj(3, 2, 5) == 3   # {5}, {2,2,1}, {2,1,1,1}


def test_count_C_examples():
    assert count_C(3, 5) == 2   # {3,2}, {3,1,1}
    assert count_C(3, 6) == 3   # {3,3}, {3,2,1}, {6}
    assert count_C(3, 4) == 1   # {3,1}


def test_count_D_examples():
    assert count_D(3, 3) == 3
    assert count_D(3, 4) == 4
    assert count_D(3, 5) == 6


def test_conventions_at_zero():
    for m in range(2, 7):
        assert count_A(m, 0) == 1
        assert count_B(m, 0) == 1
        assert count_C(m, 0) == 1
        assert count_D(m, 0) == 1
        for j in range(1, m):
            assert count_Bj(m, j, 0) == 0


def test_argument_validation():
    for fn in (count_A, count_B, count_C, count_D):
        with pytest.raises(ValueError):
            fn(1, 5)
        with pytest.raises(ValueError):
            fn(3, -1)
    with pytest.raises(ValueError):
        count_Bj(3, 0, 5)
    with pytest.raises(ValueError):
        count_Bj(3, 3, 5)
    with pytest.raises(ValueError, match="requires j"):
        count_Bj(3, None, 5)
    with pytest.raises(ValueError, match="m must be >= 2"):
        count_Bj(1, 1, 5)  # a bad m is reported before a bad j


def test_family_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("Bj", 3)          # missing j
    with pytest.raises(ValueError):
        FamilySpec("Bj", 3, 3)       # j out of range
    with pytest.raises(ValueError):
        FamilySpec("A", 3, 1)        # j not allowed
    with pytest.raises(ValueError):
        FamilySpec("E", 3)
    with pytest.raises(ValueError):
        FamilySpec("A", 1)


def test_count_table():
    table = count_table(FamilySpec("C", 3), 6)
    assert table.counts == (1, 0, 0, 1, 1, 2, 3)
    assert table.n_max == 6
    table = count_table(FamilySpec("Bj", 3, 2), 5)
    assert table.counts == (0, 0, 1, 1, 2, 3)


def test_count_table_builds_its_table_once(monkeypatch):
    from glaisher import partitions

    real, sizes = partitions._build_C, []

    def build(m, n_max):
        sizes.append(n_max)
        return real(m, n_max)

    monkeypatch.setattr(partitions, "_cache", {})
    monkeypatch.setattr(partitions, "_build_C", build)
    table = count_table(FamilySpec("C", 2), 300)
    assert sizes == [300]
    assert table.counts == tuple(real(2, 300))


@pytest.mark.parametrize("spec", [FamilySpec("A", 3), FamilySpec("Bj", 5, 2),
                                  FamilySpec("D", 2)],
                         ids=["A-3", "Bj-5-2", "D-2"])
def test_count_table_calls_its_counter_once(spec, monkeypatch):
    # one call at n_max through the counter found by name (so a rebound
    # one still builds the table), then a slice of the cached table
    real, calls = getattr(partitions, "count_" + spec.family), []

    def count(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(partitions, "_cache", {})
    monkeypatch.setattr(partitions, "count_" + spec.family, count)
    table = count_table(spec, 150)
    head = (spec.m,) if spec.j is None else (spec.m, spec.j)
    assert calls == [(*head, 150)]
    assert table.counts == tuple(real(*head, n) for n in range(151))


@st.composite
def _spec_and_sizes(draw):
    m = draw(st.integers(2, 7))
    family = draw(st.sampled_from(("A", "B", "Bj", "C", "D")))
    j = draw(st.integers(1, m - 1)) if family == "Bj" else None
    n, extra = draw(st.integers(0, 40)), draw(st.integers(0, 200))
    return FamilySpec(family, m, j), n, extra


_COUNT = {
    "A": lambda sp, n: count_A(sp.m, n),
    "B": lambda sp, n: count_B(sp.m, n),
    "Bj": lambda sp, n: count_Bj(sp.m, sp.j, n),
    "C": lambda sp, n: count_C(sp.m, n),
    "D": lambda sp, n: count_D(sp.m, n),
}


@settings(deadline=None, database=None)
@given(_spec_and_sizes())
def test_count_does_not_depend_on_its_table_size(case):
    # the checkers build each table at the largest n they read, then read
    # every smaller n from it
    spec, n, extra = case
    count = _COUNT[spec.family]
    with patch.object(partitions, "_cache", {}):
        count(spec, n + extra)
        assert count(spec, n) == brute_force_count(spec, n)


def test_brute_force_examples():
    assert brute_force_count(FamilySpec("A", 3), 4) == 4
    assert brute_force_count(FamilySpec("C", 3), 6) == 3
    assert brute_force_count(FamilySpec("B", 2), 0) == 1


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_count(FamilySpec("A", 2), BRUTE_FORCE_LIMIT + 1)


def _all_specs(m):
    specs = [FamilySpec(f, m) for f in ("A", "B", "C", "D")]
    specs += [FamilySpec("Bj", m, j) for j in range(1, m)]
    return specs


@pytest.mark.parametrize("m", [2, 3])
def test_brute_force_agrees_with_dp(m):
    for n in range(21):
        for sp in _all_specs(m):
            assert brute_force_count(sp, n) == _COUNT[sp.family](sp, n), (sp, n)


def test_bounded_and_regular_counts_agree():
    # the classical equal-count theorem at small scale
    for m in range(2, 7):
        for n in range(61):
            assert count_A(m, n) == count_B(m, n), (m, n)


def test_largest_part_residues_decompose_regular_counts():
    for m in range(2, 6):
        for n in range(1, 61):
            assert sum(count_Bj(m, j, n) for j in range(1, m)) == count_B(m, n)


def test_top_residue_matches_shifted_C():
    for m in range(2, 6):
        for n in range(61):
            assert count_Bj(m, m - 1, n) == count_C(m, n + 1), (m, n)


def test_Bj_at_large_m_builds_only_the_residues_up_to_n(monkeypatch):
    # at m = 10^6 each part up to 30 is its own residue, and a residue
    # above the table's size is the residue of no part it counts
    monkeypatch.setattr(partitions, "_cache", {})
    m = 10 ** 6
    for j in range(1, 31):
        assert count_Bj(m, j, 30) == brute_force_count(FamilySpec("Bj", m, j),
                                                       30), j
    assert count_Bj(m, 31, 30) == 0
    assert count_Bj(m, 999_999, 30) == 0
    size, tables = partitions._cache[("Bj", m)]
    assert len(tables) <= size + 1


def test_D_dominates_A():
    for m in range(2, 6):
        for n in range(1, 41):
            assert count_D(m, n) >= count_A(m, n)


def test_counts_nonnegative_and_growing_cache():
    # exercise the memo growth path: small request then a larger one
    assert count_C(5, 3) == 0
    assert count_C(5, 60) >= 0
    assert all(count_D(4, n) >= 0 for n in range(50))


def test_table_builds_run_outside_the_cache_lock(monkeypatch):
    # a C build parked on an event must not stop a B lookup
    started, release = threading.Event(), threading.Event()
    real, waited = partitions._build_C, []

    def slow_build(m, n_max):
        started.set()
        waited.append(release.wait(timeout=10))
        return real(m, n_max)

    monkeypatch.setattr(partitions, "_cache", {})
    monkeypatch.setattr(partitions, "_build_C", slow_build)
    got = []
    worker = threading.Thread(target=lambda: got.append(count_C(3, 50)))
    worker.start()
    try:
        assert started.wait(timeout=10)
        assert count_B(3, 50) == partitions._build_B(3, 50)[50]
        assert not waited, "count_B waited for the C build"
    finally:
        release.set()
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert waited == [True] and got == [real(3, 64)[50]]
    assert partitions._cache[("C", 3)][0] == 64


def test_concurrent_builds_keep_the_larger_table(monkeypatch):
    # a smaller build that finishes last must not replace a larger table
    real = partitions._build_D
    monkeypatch.setattr(partitions, "_cache", {})
    larger = (500, real(3, 500))

    def build_then_race(m, n_max):
        partitions._cache[("D", m)] = larger  # another thread's store
        return real(m, n_max)

    monkeypatch.setattr(partitions, "_build_D", build_then_race)
    assert count_D(3, 10) == larger[1][10]
    assert partitions._cache[("D", 3)] is larger


def test_concurrent_builds_and_reads_stay_exact(monkeypatch):
    # more threads than cores race builds of one table at mixed sizes; with
    # a short switch interval a lost or shrunken store would show as a
    # wrong count or a table smaller than some request
    monkeypatch.setattr(partitions, "_cache", {})
    reference = partitions._build_C(3, 700)
    sizes = [[(37 * t + 101 * k) % 700 for k in range(12)] for t in range(12)]
    wrong = []

    def worker(ns):
        try:
            for n in ns:
                if count_C(3, n) != reference[n]:
                    wrong.append(n)
        except Exception as exc:  # a thread's exception would not fail the test
            wrong.append(exc)

    threads = [threading.Thread(target=worker, args=(ns,)) for ns in sizes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    size, table = partitions._cache[("C", 3)]
    assert size >= max(map(max, sizes)) and table[:701] == reference


def test_concurrent_reads_are_consistent():
    from concurrent.futures import ThreadPoolExecutor

    expected = [count_D(3, n) for n in range(150)]
    def worker(_):
        return [count_D(3, n) for n in range(150)]
    with ThreadPoolExecutor(max_workers=8) as pool:
        for got in pool.map(worker, range(16)):
            assert got == expected


# ---------------------------------------------------------------------------
# packed tables vs the generating functions
# ---------------------------------------------------------------------------


_BUILDERS = {
    "A": partitions._build_bounded_mult,
    "B": partitions._build_B,
    "Bj": partitions._build_Bj,
    "C": partitions._build_C,
    "D": partitions._build_D,
}


def _series(m, n):
    """A, B, C and D to q^n by their generating functions, which share no
    code with the DP."""
    return {"A": gf_regular(m, "A_product", n).coeffs,
            "B": gf_regular(m, "B_product", n).coeffs,
            "C": gf_C(m, n).coeffs, "D": gf_D(m, n).coeffs}


def _assert_builders_match(m, n, series, families=tuple(_BUILDERS)):
    """Each packed table 0..n equals its series, given to q^(n + 1) or
    beyond; Bj has no series of its own, so its residues must sum to B and
    its top residue m - 1 must be C shifted by one."""
    for family in families:
        built = _BUILDERS[family](m, n)
        if family != "Bj":
            assert built == list(series[family][:n + 1]), (family, m, n)
            continue
        # Bj builds residues 1..min(m - 1, n) only (at least residue 1): a
        # larger residue is the residue of no part up to n
        assert len(built) == max(1, min(m - 1, n)), (m, n)
        assert [sum(cells) for cells in zip(*built)][1:] == \
            list(series["B"][1:n + 1]), (m, n)
        if m - 1 <= n:
            assert built[-1] == list(series["C"][1:n + 2]), (m, n)


# n_max // 3 and n_max // 2 take every residue here, so the last part a
# builder steps and the first part of its large-part step or window move
# (D's cut at m = 3 is n_max // 3 + 1; Bj and C step parts up to n_max / 2)
_NEAR_THIRDS_AND_HALVES = sorted({
    n for t in (40, 200)
    for n in (*range(3 * t - 1, 3 * t + 3), *range(2 * t - 1, 2 * t + 2))})

# every r the rule yields up to the default ceiling
_RULE_RS = sorted({partitions._ratio(n) for n in range(5001)})


def _near_cuts(r):
    """n = r*t - 1, r*t and r*t + 1 amid the sizes where the rule picks r:
    n_max // r moves from t - 1 to t there, so the last part A, B and D step
    one at a time and the first part of their power-sum step move."""
    sizes = [n for n in range(5001) if partitions._ratio(n) == r]
    t = (sizes[0] + sizes[-1]) // (2 * r)
    return (r * t - 1, r * t, r * t + 1)


# m below r, where the power sums' coefficient 1 - m bites, and above it
_CUT_MS = (2, 3, 4, 5, 11)


@pytest.mark.parametrize("m", range(2, 10))
def test_packed_builders_match_series(m):
    sizes = sorted({*range(81), *_NEAR_THIRDS_AND_HALVES, 150, 513, 1000})
    series = _series(m, sizes[-1] + 1)
    for n in sizes:
        _assert_builders_match(m, n, series)


@pytest.mark.parametrize("m", [20, 60, 200])
def test_packed_builders_match_series_at_large_m(m):
    sizes = (*_NEAR_THIRDS_AND_HALVES, 600)
    series = _series(m, max(sizes) + 1)
    for n in sizes:
        _assert_builders_match(m, n, series)


@pytest.mark.parametrize("r", [r for r in _RULE_RS if r <= 6])
@pytest.mark.parametrize("m", _CUT_MS)
def test_packed_builders_match_series_around_n_over_r(m, r):
    # the sizes where the rule picks r stay below 1100 up to r = 6
    sizes = _near_cuts(r)
    series = _series(m, sizes[-1])
    for n in sizes:
        assert partitions._ratio(n) == r
        _assert_builders_match(m, n, series, ("A", "B", "D"))


def _power_sum_cases():
    """(r, n, m) on each side of n // r for every r above 6 the rule
    yields, with m taking each of _CUT_MS in turn."""
    sizes = [(r, n) for r in _RULE_RS if r > 6 for n in _near_cuts(r)[:2]]
    return [(r, n, _CUT_MS[i % len(_CUT_MS)])
            for i, (r, n) in enumerate(sizes)]


@pytest.mark.parametrize("r,n,m", _power_sum_cases())
def test_power_sum_step_matches_stepping_every_part(r, n, m, monkeypatch):
    # with r = 1 a builder steps every part one at a time (each step is
    # pinned against the series above) and its power-sum step is empty
    assert partitions._ratio(n) == r
    built = {f: _BUILDERS[f](m, n) for f in ("A", "B", "D")}
    monkeypatch.setattr(partitions, "_ratio", lambda n_max: 1)
    for family, table in built.items():
        assert table == _BUILDERS[family](m, n), (family, m, n)


@pytest.mark.parametrize("m", [2, 3, 7, 20, 200])
def test_builders_step_no_part_above_a_third_or_a_half(m, monkeypatch):
    # A and B add every part above n // r in the power-sum step, and D every
    # part above both n // (m + 1) + 1 and n // r; Bj and C add the parts
    # above n/2 without stepping them
    stepped = []
    real = partitions._allow_part

    def allow_part(x, k, *rest):
        stepped[-1].add(k)
        return real(x, k, *rest)

    monkeypatch.setattr(partitions, "_allow_part", allow_part)
    for n in (600, 1800):
        r = partitions._ratio(n)
        tops = {"A": n // r, "B": n // r, "D": max(n // (m + 1) + 1, n // r)}
        for family, packed in _BUILDERS.items():
            stepped.append(set())
            packed(m, n)
            top = tops.get(family, n // 2)
            assert stepped[-1] and max(stepped[-1]) <= top, (family, m, n)


# m*low <= n where D's single-cell window adds some blocks, above it where
# it adds none, and the sizes either side of 600
_D_WINDOW_SIZES = (*range(260), 599, 600, 601)


@pytest.mark.parametrize("m", [*range(2, 31), 60, 200])
def test_D_adds_the_blocks_above_n_over_m_plus_one_as_one_window(m):
    # from s = n // (m + 1) + 1 on, block s reads only F_s's cell 0
    reference = gf_D(m, _D_WINDOW_SIZES[-1]).coeffs
    for n in _D_WINDOW_SIZES:
        assert partitions._build_D(m, n) == list(reference[:n + 1]), (m, n)


@pytest.mark.parametrize("m", range(2, 8))
def test_D_block_window_matches_stepping_every_block(m, monkeypatch):
    # with r = 1, low = n: D steps every part and adds every block one at
    # a time, its window and power-sum step both empty
    n = 1800
    built = partitions._build_D(m, n)
    assert m * (n // (m + 1) + 1) <= n
    monkeypatch.setattr(partitions, "_ratio", lambda n_max: 1)
    assert built == partitions._build_D(m, n)


@pytest.mark.parametrize("m", [2, 3, 7, 20])
@pytest.mark.parametrize("spec", ["A", "B", "Bj", "C", "D"])
def test_every_family_table_is_keyed_family_m_and_built_from_m_and_size(
        spec, m, monkeypatch):
    # the cache key is (family, m) for every family (Bj keeps its m - 1
    # tables under one key), and the builder is called as build(m, size)
    builder = {"A": "_build_bounded_mult", "B": "_build_B", "Bj": "_build_Bj",
               "C": "_build_C", "D": "_build_D"}[spec]
    real, calls = getattr(partitions, builder), []

    def build(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(partitions, "_cache", {})
    monkeypatch.setattr(partitions, builder, build)
    family = FamilySpec(spec, m, 1 if spec == "Bj" else None)
    counts = count_table(family, 100).counts
    table = real(m, 100)
    assert counts == tuple(table[0] if spec == "Bj" else table)
    assert counts[:21] == tuple(brute_force_count(family, n)
                                for n in range(21))
    assert list(partitions._cache) == [(spec, m)]
    assert calls == [(m, 100)]


@pytest.mark.parametrize("m", [2, 3, 7, 20])
def test_Bj_and_C_step_on_a_live_window_that_never_grows(m, monkeypatch):
    # from largest part L (Bj) or block j (C) on, x holds only its cells up
    # to n - L or n - m*j, the bound each step is given
    steps = []
    real = partitions._allow_part

    def allow_part(x, k, mult, w, n_max):
        steps[-1].append((k, n_max))
        assert x.bit_length() <= w * (n_max + 1), (k, n_max)
        return real(x, k, mult, w, n_max)

    monkeypatch.setattr(partitions, "_allow_part", allow_part)
    n = 600
    for build in (partitions._build_Bj, partitions._build_C):
        steps.append([])
        build(m, n)
        live = [bound for _, bound in steps[-1]]
        assert live and live == sorted(live, reverse=True), build
        assert all(k + bound <= n for k, bound in steps[-1]), build
    # Bj's bound is n - L exactly
    assert all(k + bound == n for k, bound in steps[0])


@settings(deadline=None, database=None)
@given(st.sampled_from(sorted(_BUILDERS)), st.integers(2, 70),
       st.integers(0, 400))
def test_packed_builder_matches_series(family, m, n):
    _assert_builders_match(m, n, _series(m, n + 1), (family,))


def _mult_choice_update_direct(dp, k, m):
    """ndp[t] = sum of dp[t - c*k] over c = 0..m-1, summed term by term."""
    ndp = [0] * len(dp)
    for t in range(len(dp)):
        acc = 0
        c = 0
        ck = 0
        while c < m and ck <= t:
            acc += dp[t - ck]
            c += 1
            ck += k
        ndp[t] = acc
    return ndp


def test_sliding_window_update_matches_direct_sum():
    # the packed step on cells below 2^(w-1)/m, so every sum fits a slot
    rng = random.Random(21)
    bounded = set()
    for _ in range(400):
        m = rng.randint(2, 70)
        n = rng.randint(0, 80)
        k = rng.randint(1, 90)
        w = partitions._slot_bits(n)
        dp = [rng.randrange(2 ** (w - 1) // m) for _ in range(n + 1)]
        x = sum(cell << w * (n - t) for t, cell in enumerate(dp))
        got = partitions._unpack(partitions._allow_part(x, k, m, w, n), w, n)
        assert got == _mult_choice_update_direct(dp, k, m), (m, n, k)
        bounded.add(m <= n // k)
    assert bounded == {True, False}  # powering over m, and doubling alone


def test_window_matches_direct_sum():
    # z times 1 + q^d + ... + q^((c-1)d) on cells below 2^(w-2); at most
    # four copies land in a cell (c <= 4, or d above n/3), so every sum fits
    # a slot
    rng = random.Random(18)
    for _ in range(400):
        n = rng.randint(0, 80)
        c = rng.randint(1, 40)
        d = rng.randint(1, 90) if c <= 4 else rng.randint(n // 3 + 1, 90)
        w = partitions._slot_bits(n)
        dp = [rng.randrange(2 ** (w - 2)) for _ in range(n + 1)]
        z = sum(cell << w * (n - t) for t, cell in enumerate(dp))
        got = partitions._unpack(partitions._window(z, w * d, c), w, n)
        direct = [sum(dp[t - i * d] for i in range(c) if i * d <= t)
                  for t in range(n + 1)]
        assert got == direct, (n, d, c)


def test_power_sum_step_matches_stepping_each_part():
    # random cells below 2^8, parts above n / r' (stride 1, or 2 as for B at
    # m = 2), every kind of multiplicity bound, and stride-m skips; the slot
    # has 16 bits over `_slot_bits(n)`, which at these n holds the step's
    # count bound fit * p(n) for every fit drawn (at most 11), so it holds
    # 2^8 * (n + 1) times that bound
    rng = random.Random(22)
    fits = set()
    for _ in range(300):
        n = rng.randint(0, 90)
        start = n // rng.randint(2, 12) + 1
        parts = range(start, n + 1, rng.choice([1, 1, 2]))
        m = rng.choice([None, 2, 3, 4, 5, 7, 11])
        skip = range(0)
        if m is None and parts.step == 1 and rng.random() < 0.5:
            d = rng.randint(2, 5)
            skip = range(start + -start % d, n + 1, d)
        w = partitions._slot_bits(n) + 16
        dp = [rng.randrange(256) for _ in range(n + 1)]
        x = sum(cell << w * (n - t) for t, cell in enumerate(dp))
        got = partitions._unpack(
            partitions._allow_large_parts(x, parts, m, w, n, skip), w, n)
        for k in parts:
            if k not in skip:
                dp = _mult_choice_update_direct(dp, k, m or n + 1)
        assert got == dp, (n, parts, m, skip)
        fits.add(n // start)
    assert max(fits) >= 10


def test_ratio_rounds_the_cube_root_of_a_quarter_of_n():
    for n in range(5001):
        assert partitions._ratio(n) == max(3, round((n / 4) ** (1 / 3))), n
    assert [partitions._ratio(n) for n in (171, 172, 1800, 5000)] == \
        [3, 4, 8, 11]


def _partition_numbers(n_max):
    """p(0..n_max) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n_max
    for n in range(1, n_max + 1):
        total, i = 0, 1
        while True:
            g1 = i * (3 * i - 1) // 2
            if g1 > n:
                break
            sign = 1 if i % 2 else -1
            total += sign * p[n - g1]
            g2 = i * (3 * i + 1) // 2
            if g2 <= n:
                total += sign * p[n - g2]
            i += 1
        p[n] = total
    return p


def test_slot_width_holds_every_count_up_to_the_ceiling():
    p = _partition_numbers(5000)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15] and p[100] == 190569292
    for n, pn in enumerate(p):
        # every table: cells up to (r - 1) * p(n), r - 1 the most parts of
        # the power-sum step that fit in n; Bj and C: p(n) and a spare bit
        w = partitions._slot_bits(n)
        assert w % 8 == 0, n
        assert w >= ((partitions._ratio(n) - 1) * pn).bit_length(), n
        assert w >= (2 * pn).bit_length(), n
    # past the ceiling, where p(n) is not computed, the slot holds r - 1
    # times p(n) < exp(pi*sqrt(2n/3)) / n^(3/4) (Pribitkin, n >= 1) below
    # 2^(w - 1).  That bound grows with n, and w and r never fall, so the
    # last n of each run of equal (w, r) is the tightest n of the run.
    ns = range(1, 10**6 + 1)
    n = 1
    while n <= ns[-1]:
        w, r = partitions._slot_bits(n), partitions._ratio(n)
        n = min(bisect_right(ns, w, key=partitions._slot_bits),
                bisect_right(ns, r, key=partitions._ratio))
        assert partitions._slot_bits(n) == w and partitions._ratio(n) == r
        bits = (math.log2(r - 1) + math.pi * math.sqrt(2 * n / 3) / math.log(2)
                - 0.75 * math.log2(n))
        assert bits < w - 1, n
        n += 1


def test_cache_keeps_at_most_64_tables(monkeypatch):
    monkeypatch.setattr(partitions, "_cache", {})
    for m in range(2, 67):
        count_bounded_mult(m, 30)
    keys = list(partitions._cache)
    assert len(keys) == 64
    assert ("A", 2) not in partitions._cache
    assert keys[0] == ("A", 3) and keys[-1] == ("A", 66)
    # the evicted table is rebuilt exactly, and its store evicts the next
    assert count_bounded_mult(2, 40) == \
        brute_force_count(FamilySpec("A", 2), 40)
    assert len(partitions._cache) == 64
    assert ("A", 3) not in partitions._cache
    assert list(partitions._cache)[-1] == ("A", 2)


def test_partitions_yields_every_partition_once():
    p = _partition_numbers(BRUTE_FORCE_LIMIT)
    for n in range(BRUTE_FORCE_LIMIT + 1):
        seen = set()
        for parts in partitions._partitions(n):
            assert sum(parts) == n
            assert parts == sorted(parts, reverse=True) and 0 not in parts
            seen.add(tuple(parts))
        assert len(seen) == p[n], n


@pytest.mark.parametrize("m", [3, 7])
def test_brute_force_agrees_with_dp_at_its_limit(m):
    for sp in _all_specs(m):
        assert brute_force_count(sp, BRUTE_FORCE_LIMIT) == \
            count_table(sp, BRUTE_FORCE_LIMIT).counts[-1], sp
