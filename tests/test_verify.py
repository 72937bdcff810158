"""The identity checkers: pass verdicts where the identities hold, honest
fail verdicts with witnesses where they do not, and the density census."""

import random
from fractions import Fraction

import pytest

from glaisher import genfun, kernels, partitions
from glaisher.series import Series
from glaisher.verify import (
    THEOREMS,
    DensityStats,
    IdentityReport,
    density_report,
    verify,
)


@pytest.mark.parametrize("m", range(2, 5))
def test_T12_passes(m):
    report = verify("T1.2", m, n_max=80)
    assert report.passed
    assert report.first_failure is None
    assert report.range == (0, 80)
    assert report.routes == ["counts", "products"]


@pytest.mark.parametrize("m", range(2, 7))
def test_E14_passes(m):
    report = verify("E1.4", m, n_max=300)
    assert report.passed
    assert "n=0" in report.notes


@pytest.mark.parametrize("m", range(2, 5))
def test_T13_passes(m):
    assert verify("T1.3", m, n_max=80).passed


def test_T13_cli_documented_case():
    assert verify("T1.3", 4, n_max=150).passed


@pytest.mark.parametrize("theorem", ["E1.4", "T1.3"])
def test_Bj_checks_pass_at_large_m(theorem):
    # the Bj work is bounded by n_max, not by m
    assert verify(theorem, 10 ** 6, n_max=40).passed


def test_T14_m2_passes_with_n1_note():
    report = verify("T1.4", 2, n_max=80)
    assert report.passed
    assert "n=1" in report.notes
    assert "m*C(1)=0" in report.notes["n=1"]


def test_T14_m3_passes_all_routes():
    report = verify("T1.4", 3, n_max=80)
    assert report.passed
    assert "closed3" in report.routes


@pytest.mark.parametrize("m", [4, 5])
def test_T14_m_at_least_4_fails_at_n2(m):
    # the raw difference m*C - D genuinely departs from the correction
    # series here; the checker must say so rather than paper over it
    report = verify("T1.4", m, n_max=60)
    assert not report.passed
    n, lhs, rhs = report.first_failure
    assert n == 2
    assert "identity" in rhs


def test_T15_passes():
    report = verify("T1.5", m=3, precision=120)
    assert report.passed
    assert report.routes == ["definition", "closed3"]


def test_T15_rejects_other_m():
    with pytest.raises(ValueError):
        verify("T1.5", m=4, precision=50)


def test_T16_passes():
    report = verify("T1.6", m=3, n_max=300)
    assert report.passed
    assert "excluded" in report.notes


def test_T16_rejects_other_m():
    with pytest.raises(ValueError):
        verify("T1.6", m=2, n_max=50)


@pytest.mark.parametrize("m", [2, 3])
def test_T18_passes_small_m(m):
    assert verify("T1.8", m, n_max=60).passed


def test_T18_m4_fails_at_n1():
    report = verify("T1.8", 4, n_max=60)
    assert not report.passed
    assert report.first_failure[0] == 1


@pytest.mark.parametrize("m,gap", [(4, -1), (5, -2)])
def test_T18_at_m4_and_m5_fails_where_T14_does(m, gap):
    # the chain's step through m*C(n) = D(n) + E(n) meets D(2) + E(2) = gap,
    # which m does not divide
    report = verify("T1.8", m, n_max=40)
    assert report.first_failure == (
        1, "chain value 1", f"(D(2)+E(2))={gap} not divisible by {m}")


# each count-level checker builds every table it reads once, at the largest
# n it reads; 150 is above the cache's 64-cell floor and its 128 doubling
_N = 150
_BUILDERS = {"A": "_build_bounded_mult", "B": "_build_B", "Bj": "_build_Bj",
             "C": "_build_C", "D": "_build_D"}


@pytest.mark.parametrize("theorem,m,tops", [
    pytest.param("T1.2", 2, {"A": _N, "B": _N}, id="T1.2-m2"),
    pytest.param("T1.2", 3, {"A": _N, "B": _N}, id="T1.2-m3"),
    pytest.param("E1.4", 2, {"Bj": _N, "B": _N}, id="E1.4-m2"),
    pytest.param("E1.4", 3, {"Bj": _N, "B": _N}, id="E1.4-m3"),
    pytest.param("T1.3", 2, {"Bj": _N, "C": _N + 1}, id="T1.3-m2"),
    pytest.param("T1.3", 3, {"Bj": _N, "C": _N + 1}, id="T1.3-m3"),
    pytest.param("T1.4", 2, {"C": _N, "D": _N}, id="T1.4-m2"),
    pytest.param("T1.4", 3, {"C": _N, "D": _N}, id="T1.4-m3"),
    pytest.param("T1.6", 3, {"C": _N, "D": _N}, id="T1.6-m3"),
    pytest.param("T1.8", 2, {"A": _N, "B": _N, "C": _N + 1, "D": _N + 1},
                 id="T1.8-m2"),
    pytest.param("T1.8", 3, {"A": _N, "B": _N, "Bj": _N, "C": _N + 1,
                             "D": _N + 1}, id="T1.8-m3"),
])
def test_count_checkers_build_each_table_once(monkeypatch, theorem, m, tops):
    sizes = _record_builds(monkeypatch)
    assert verify(theorem, m, n_max=_N).passed
    assert sizes == {family: [top] for family, top in tops.items()}


def _record_builds(monkeypatch) -> dict:
    """Empty the table cache and record, per family, the size of each build."""
    sizes = {}
    for family, name in _BUILDERS.items():
        def build(*args, _real=getattr(partitions, name), _family=family):
            sizes.setdefault(_family, []).append(args[-1])
            return _real(*args)
        monkeypatch.setattr(partitions, name, build)
    monkeypatch.setattr(partitions, "_cache", {})
    return sizes


@pytest.mark.parametrize("m", [4, 5])
def test_T14_reads_counts_only_as_far_as_its_walk(monkeypatch, m):
    # the walk stops at n = 2, so C and D are built once at the cache's
    # 64-cell floor, not at n_max
    sizes = _record_builds(monkeypatch)
    report = verify("T1.4", m, n_max=_N)
    assert report.first_failure[0] == 2
    assert "m*C(1)=" in report.notes["n=1"]
    assert sizes == {"C": [64], "D": [64]}


@pytest.mark.parametrize("m,n_max,top", [(4, _N, 2), (5, _N, 2), (4, 1, 1),
                                         (4, 0, 0), (3, _N, _N)])
def test_T14_expands_definition_only_as_far_as_its_walk(monkeypatch, m, n_max,
                                                        top):
    # the other routes find where the walk stops (n = 2 at m >= 4), first
    # on a 64-term prefix and to n_max only when that prefix agrees (m = 3);
    # the cyclotomic route is expanded only as far as the walk, and at
    # least to n = 1
    real, asked = genfun.epsilon, {}

    def expand(m, precision, route):
        asked.setdefault(route, []).append(precision)
        return real(m, precision, route)
    monkeypatch.setattr(genfun, "epsilon", expand)
    report = verify("T1.4", m, n_max=n_max)
    assert asked.pop("definition") == [top]
    cheap = [64, n_max] if m == 3 else [min(n_max, 64)]
    assert all(v == cheap for v in asked.values())
    assert report.passed == (m == 3 or n_max < 2)


def test_T14_at_m4_expands_no_route_past_its_probe(monkeypatch):
    # the routes part at n = 2, inside the 64-term prefix, so nothing is
    # expanded to n_max, and the report is the one the full walk gives
    real, asked = genfun.epsilon, []

    def expand(m, precision, route):
        asked.append(precision)
        return real(m, precision, route)
    monkeypatch.setattr(genfun, "epsilon", expand)
    report = verify("T1.4", 4, n_max=3000)
    assert asked and max(asked) <= 64
    assert (report.theorem, report.m, report.range, report.status,
            report.first_failure, report.routes, report.notes) == (
        "T1.4", 4, (0, 3000), "fail",
        (2, "triangular E(2)=-3", "identity m*C(2)-D(2)=-2"),
        ["definition", "triangular", "qbinomial", "identity"],
        {"n=1": "m*C(1)=0 vs D(1)+E(1)=-1; reported, not asserted"})


def test_T19_documented_case():
    assert verify("T1.9", 2, n_sum=1, precision=50).passed


def _T19_grid(m):
    """The precisions N of T1.9's grid at m: around m, and past the
    blocks m*n_sum - 1 of every n_sum (at m = 60, around N = 60)."""
    if m == 60:
        return [0, 1, 5, 40, 58, 59, 60, 61]
    rng = random.Random(40 + m)
    return sorted({0, 1, m - 1, m, m + 1, 60, rng.randint(0, 400),
                   rng.randint(0, 400)})


@pytest.mark.parametrize("m", [*range(2, 10), 12, 30, 60])
def test_T19_grid(m):
    # the Horner sum stops at q^(m n_sum - 1) and the product divides by
    # (1 - q^k) only up to min(m n_sum, N), so neither loop grows with m
    rng = random.Random(60 + m)
    for precision in _T19_grid(m):
        for n_sum in (1, 2, 3, 4, 5, 6, 7, rng.randint(1, 60)):
            report = verify("T1.9", m, n_sum=n_sum, precision=precision)
            assert report.passed, (precision, n_sum, report.first_failure)


def test_T19_requires_n_sum():
    with pytest.raises(ValueError):
        verify("T1.9", 3, precision=50)


@pytest.mark.parametrize("m", range(2, 5))
def test_C110_passes(m):
    assert verify("C1.10", m, precision=100).passed


@pytest.mark.parametrize("m", range(2, 6))
def test_C110_catches_a_faulty_division(monkeypatch, m):
    """The sum divides by (1 - q^k) once per part size; the product side
    must not divide the same way, or the fault would cancel."""
    real = kernels.div_one_minus_uqk

    def faulty(coeffs, u, k):
        real(coeffs, u, k)
        if k == m + 1 and len(coeffs) > 30:
            coeffs[30] += 1
    monkeypatch.setattr(kernels, "div_one_minus_uqk", faulty)
    report = verify("C1.10", m, precision=60)
    assert report.status == "fail"
    assert report.first_failure[0] == 30


def test_verify_validation():
    with pytest.raises(ValueError):
        verify("T9.9", 3, n_max=10)
    with pytest.raises(ValueError):
        verify("T1.2", 3)  # no range
    with pytest.raises(ValueError):
        verify("T1.2", 1, n_max=10)
    assert len(THEOREMS) == 9


@pytest.mark.parametrize("args,kwargs,message", [
    (("T9.9", 3), {"n_max": 10}, f"unknown theorem 'T9.9', expected {THEOREMS}"),
    (("T1.5", 4), {"precision": 10}, "T1.5 is specific to m = 3"),
    (("T1.6", 4), {"n_max": 10}, "T1.6 is specific to m = 3"),
    (("T1.2", 1), {"n_max": 10}, "m must be >= 2"),
    (("T1.2", None), {"n_max": 10}, "m must be >= 2"),
    (("T1.2", 3), {}, "n_max is required for this check"),
    (("T1.4", 3), {}, "n_max is required for this check"),
    (("T1.2", 3), {"precision": 10}, "n_max is required for this check"),
    (("C1.10", 3), {"n_max": 10}, "precision is required for this check"),
    (("T1.5",), {}, "precision is required for this check"),
    (("T1.2", 3), {"n_max": -1}, "n_max must be non-negative"),
    (("C1.10", 3), {"precision": -1}, "precision must be non-negative"),
    (("T1.9", 3), {}, "precision is required for this check"),
    (("T1.9", 3), {"precision": 10},
     "T1.9 requires a positive block count (N_sum)"),
    (("T1.9", 3), {"precision": 10, "n_sum": 0},
     "T1.9 requires a positive block count (N_sum)"),
], ids=["unknown", "T1.5-m4", "T1.6-m4", "m1", "m-None", "T1.2-no-range",
        "T1.4-no-range", "T1.2-precision-only", "C1.10-no-precision",
        "T1.5-no-range", "negative-n_max", "negative-precision",
        "T1.9-precision-first", "T1.9-no-n_sum", "T1.9-n_sum-0"])
def test_verify_usage_messages(args, kwargs, message):
    # the checks run in this order, each with this text, which the CLI
    # prints after "error: " and exits 2
    with pytest.raises(ValueError) as exc:
        verify(*args, **kwargs)
    assert str(exc.value) == message


def test_density_m2():
    stats = density_report(2, 1000)
    assert stats.nonzero_count == 1
    assert stats.N_x == 999
    assert stats.ratio == Fraction(999, 1000)
    assert stats.bound_satisfied


def test_density_m3_x1000():
    # independent recount: the nonzero spots below 1000 are n = 0 plus every
    # k(k+1)/2 + 1 <= 999
    expected = 1
    k = 0
    while k * (k + 1) // 2 + 1 <= 999:
        expected += 1
        k += 1
    assert expected == 46
    stats = density_report(3, 1000)
    assert stats.nonzero_count == expected
    assert stats.N_x + stats.nonzero_count == stats.x
    assert stats.ratio == Fraction(954, 1000)


@pytest.mark.parametrize("m,x", [(2, 500), (3, 700), (4, 900), (5, 800)])
def test_density_partitions_the_range(m, x):
    stats = density_report(m, x)
    assert stats.N_x + stats.nonzero_count == x
    assert stats.nonzero_count <= stats.window_bound
    assert stats.p_support >= 1


@pytest.mark.parametrize("m,zeros,holds", [(2, 299, set(range(2, 300))),
                                            (3, 275, None), (4, 252, {9, 21}),
                                            (5, 209, set())])
def test_census_counts_zeros_of_E_not_where_the_count_identity_holds(
        m, zeros, holds):
    # N_x counts the n < x with E(n) = 0 (the series side); the n with
    # m*C(n) = D(n) (the count side) are the same n only where T1.4 passes:
    # at m = 3 everywhere, at m = 2 off n = 1, and at m >= 4 almost nowhere
    x = 300
    vanish = set(range(x)) - {n for n, _ in genfun.triangular_stream(m, x)}
    C, D = (partitions.count_table(partitions.FamilySpec(f, m), x - 1).counts
            for f in "CD")
    assert density_report(m, x).N_x == len(vanish) == zeros
    assert {n for n in range(x) if m * C[n] == D[n]} == (
        vanish if holds is None else holds)


@pytest.mark.parametrize("m,count_holds,e_zeros,gap_zeros", [
    (4, {9, 21}, 1875, {0, 9, 21, 23}), (5, set(), 1754, {0, 9}),
    (6, set(), 1696, {0, 12}), (7, set(), 1469, {0}), (8, set(), 1326, {0})])
def test_gap_at_m_at_least_4_lies_in_m_C_minus_D_not_in_E(
        m, count_holds, e_zeros, gap_zeros):
    # up to n = 2000, E vanishes at most n, as an almost partition identity
    # needs, but m*C(n) = D(n) almost nowhere, so no choice of E closes the
    # gap G = m*C - D - E; G is zero at no n from 24 on, and smaller than
    # C(n) from n = 19 on
    n_max = 2000
    C, D = (partitions.count_table(partitions.FamilySpec(f, m),
                                   n_max).counts for f in "CD")
    E = [0] * (n_max + 1)
    for n, c in genfun.triangular_stream(m, n_max + 1):
        E[n] = c
    gap = [m * C[n] - D[n] - E[n] for n in range(n_max + 1)]
    assert {n for n in range(n_max + 1) if m * C[n] == D[n]} == count_holds
    assert E.count(0) == e_zeros
    assert {n for n, g in enumerate(gap) if g == 0} == gap_zeros
    assert all(abs(gap[n]) < C[n] for n in range(19, n_max + 1))


def _assert_record(record, cls, fields):
    """A report is a namedtuple of its fields: it cannot be assigned to,
    equals any record of the same field values, and shows each field in
    order as field=value."""
    assert type(record) is cls and record._fields == fields
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.m = 7
    assert record == cls(*record) == cls(**record._asdict())
    assert record != record._replace(m=record.m + 1)
    assert repr(record) == "%s(%s)" % (cls.__name__, ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, record)))


# one small run of each checker, and the m = 4 failures of T1.4 and T1.8
_REPORT_RUNS = [("T1.2", 3, {"n_max": 40}), ("E1.4", 3, {"n_max": 40}),
                ("T1.3", 3, {"n_max": 40}), ("T1.4", 3, {"n_max": 40}),
                ("T1.4", 4, {"n_max": 40}), ("T1.5", 3, {"precision": 40}),
                ("T1.6", 3, {"n_max": 40}), ("T1.8", 2, {"n_max": 40}),
                ("T1.8", 4, {"n_max": 40}),
                ("T1.9", 2, {"n_sum": 2, "precision": 40}),
                ("C1.10", 3, {"precision": 40})]


@pytest.mark.parametrize("theorem,m,kwargs", _REPORT_RUNS,
                         ids=[f"{t}-m{m}" for t, m, _ in _REPORT_RUNS])
def test_identity_report_is_an_immutable_record(theorem, m, kwargs):
    report = verify(theorem, m, **kwargs)
    _assert_record(report, IdentityReport,
                   ("theorem", "m", "range", "status", "first_failure",
                    "elapsed_ms", "routes", "notes"))
    assert report.theorem == theorem and report.m == m
    assert report.passed is (report.status == "pass")
    assert report.passed is (report.first_failure is None)


@pytest.mark.parametrize("m", range(2, 6))
def test_density_stats_is_an_immutable_record(m):
    stats = density_report(m, 300)
    _assert_record(stats, DensityStats,
                   ("m", "x", "nonzero_count", "N_x", "window_bound",
                    "bound_satisfied", "p_support"))
    assert stats.ratio == Fraction(stats.N_x, 300)


@pytest.mark.parametrize("x,nonzero", [(10 ** 6, 1415), (10 ** 7, 4473)])
def test_density_m3_paper_scale_sits_one_below_its_bound(x, nonzero):
    stats = density_report(3, x)
    assert stats.nonzero_count == nonzero
    assert stats.window_bound == nonzero + 1
    assert stats.bound_satisfied


def test_density_validation():
    with pytest.raises(ValueError, match="m must be >= 2"):
        density_report(1, 100)
    with pytest.raises(ValueError, match="x must be >= 1"):
        density_report(3, 0)


def test_density_bound_violation_is_reported(monkeypatch):
    # a census with every coefficient nonzero breaks any window bound
    monkeypatch.setattr(genfun, "triangular_stream", lambda m, x:
                        ((n, 1) for n in range(x)))
    stats = density_report(3, 1000)
    assert not stats.bound_satisfied
    assert stats.nonzero_count == 1000
    assert stats.N_x == 0
    assert stats.window_bound == 46


# Each checker, fed one wrong input, reports that input's first mismatch in
# exact words.  A DP table entry is changed through a wrapped builder, a
# series in `genfun`, where each checker reads it when it runs.

def _bump_table(monkeypatch, builder, n, delta=1, j=None):
    real = getattr(partitions, builder)

    def build(*args):
        out = real(*args)
        (out if j is None else out[j - 1])[n] += delta
        return out
    monkeypatch.setattr(partitions, builder, build)
    monkeypatch.setattr(partitions, "_cache", {})


def _bump_series(monkeypatch, name, n, only=None):
    real = getattr(genfun, name)

    def expand(*args):
        s = real(*args)
        if only is not None and only not in args:
            return s
        coeffs = list(s.coeffs)
        coeffs[n] += 1
        return Series(coeffs)
    monkeypatch.setattr(genfun, name, expand)


@pytest.mark.parametrize("bump,args,kwargs,first", [
    pytest.param(lambda mp: _bump_table(mp, "_build_B", 7), ("T1.2", 3),
                 {"n_max": 40}, (7, "A(7)=9", "B(7)=10"), id="T1.2-counts"),
    pytest.param(lambda mp: _bump_series(mp, "gf_regular", 11, "B_product"),
                 ("T1.2", 3), {"n_max": 40},
                 (11, "[q^11] A_product=27", "[q^11] B_product=28"),
                 id="T1.2-products"),
    pytest.param(lambda mp: (_bump_table(mp, "_build_bounded_mult", 7),
                             _bump_table(mp, "_build_B", 7)),
                 ("T1.2", 3), {"n_max": 40},
                 (7, "A(7)=10", "[q^7] A_product=9"),
                 id="T1.2-counts-alike"),
    pytest.param(lambda mp: _bump_table(mp, "_build_B", 5), ("E1.4", 4),
                 {"n_max": 40}, (5, "sum_j Bj(5)=6", "B(5)=7"), id="E1.4-B"),
    pytest.param(lambda mp: _bump_table(mp, "_build_Bj", 6, j=2), ("E1.4", 4),
                 {"n_max": 40}, (6, "sum_j Bj(6)=10", "B(6)=9"), id="E1.4-Bj"),
    pytest.param(lambda mp: _bump_table(mp, "_build_C", 9), ("T1.3", 3),
                 {"n_max": 40}, (8, "B^(2)(8)=7", "C(9)=8"), id="T1.3"),
    pytest.param(lambda mp: _bump_table(mp, "_build_D", 10), ("T1.4", 3),
                 {"n_max": 40}, (10, "m*C(10)=27", "D(10)+E(10)=28"),
                 id="T1.4-counts"),
    pytest.param(lambda mp: _bump_series(mp, "epsilon", 6, "qbinomial"),
                 ("T1.4", 3), {"n_max": 40},
                 (6, "triangular E(6)=0", "qbinomial E(6)=1"), id="T1.4-route"),
    pytest.param(lambda mp: _bump_series(mp, "epsilon", 1, "definition"),
                 ("T1.4", 3), {"n_max": 40},
                 (1, "definition/triangular/qbinomial at n=1",
                  "{'definition': 0, 'triangular': -1, 'qbinomial': -1}"),
                 id="T1.4-n1"),
    pytest.param(lambda mp: None, ("T1.4", 4), {"n_max": 40},
                 (2, "triangular E(2)=-3", "identity m*C(2)-D(2)=-2"),
                 id="T1.4-m4-unperturbed"),
    pytest.param(lambda mp: _bump_series(mp, "epsilon", 13, "closed3"),
                 ("T1.5",), {"precision": 40},
                 (13, "definition E_3(13)=0", "closed form E_3(13)=1"),
                 id="T1.5"),
    pytest.param(lambda mp: _bump_table(mp, "_build_D", 5), ("T1.6",),
                 {"n_max": 40}, (5, "3*C(5)=6", "D(5)=7"), id="T1.6"),
    pytest.param(lambda mp: _bump_table(mp, "_build_D", 7), ("T1.6",),
                 {"n_max": 40},
                 (7, "3*C(7)=12", "D(7)=12 (expected inequality)"),
                 id="T1.6-excluded"),
    pytest.param(lambda mp: _bump_table(mp, "_build_bounded_mult", 4),
                 ("T1.8", 3), {"n_max": 40}, (4, "A(4)=5", "B(4)=4"),
                 id="T1.8-A"),
    pytest.param(lambda mp: _bump_table(mp, "_build_C", 6), ("T1.8", 3),
                 {"n_max": 40},
                 (5, "B(5)=5", "sum_k<m-1 Bj(5) + C(6)=6"), id="T1.8-C"),
    pytest.param(lambda mp: _bump_table(mp, "_build_D", 6), ("T1.8", 3),
                 {"n_max": 40},
                 (5, "chain value 5", "(D(6)+E(6))=10 not divisible by 3"),
                 id="T1.8-divisibility"),
    pytest.param(lambda mp: _bump_table(mp, "_build_D", 6, 3), ("T1.8", 3),
                 {"n_max": 40}, (5, "... + C(6)=5", "... + (D+E)/3=6"),
                 id="T1.8-quotient"),
    pytest.param(lambda mp: _bump_series(mp, "gf_Bj_lhs", 9), ("T1.9", 3),
                 {"n_sum": 2, "precision": 40},
                 (9, "[q^9] lhs=14", "[q^9] rhs=13"), id="T1.9"),
    pytest.param(lambda mp: _bump_series(mp, "gf_regular", 12), ("C1.10", 3),
                 {"precision": 40},
                 (12, "[q^12] sum=36", "[q^12] product=37"), id="C1.10"),
])
def test_checker_reports_the_first_wrong_input(monkeypatch, bump, args, kwargs,
                                               first):
    bump(monkeypatch)
    report = verify(*args, **kwargs)
    assert report.status == "fail"
    assert report.first_failure == first
