"""The identity checkers: pass verdicts where the identities hold, honest
fail verdicts with witnesses where they do not, and the density census."""

import sys
from fractions import Fraction

import pytest

from glaisher import partitions
from glaisher.series import Series, Z
from glaisher.verify import THEOREMS, density_report, verify


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


def test_T19_documented_case():
    assert verify("T1.9", 2, n_sum=1, precision=50).passed


@pytest.mark.parametrize("m", range(2, 5))
@pytest.mark.parametrize("n_sum", [1, 2, 5])
def test_T19_grid(m, n_sum):
    assert verify("T1.9", m, n_sum=n_sum, precision=60).passed


def test_T19_requires_n_sum():
    with pytest.raises(ValueError):
        verify("T1.9", 3, precision=50)


@pytest.mark.parametrize("m", range(2, 5))
def test_C110_passes(m):
    assert verify("C1.10", m, precision=100).passed


def test_verify_validation():
    with pytest.raises(ValueError):
        verify("T9.9", 3, n_max=10)
    with pytest.raises(ValueError):
        verify("T1.2", 3)  # no range
    with pytest.raises(ValueError):
        verify("T1.2", 1, n_max=10)
    assert len(THEOREMS) == 9


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


def test_density_validation():
    with pytest.raises(ValueError):
        density_report(1, 100)
    with pytest.raises(ValueError):
        density_report(3, 0)


def test_density_bound_violation_is_reported(monkeypatch):
    # a census with every coefficient nonzero breaks any window bound
    module = sys.modules["glaisher.verify"]
    monkeypatch.setattr(module, "epsilon", lambda m, precision, route:
                        Series(Z, [1] * (precision + 1)))
    stats = density_report(3, 1000)
    assert not stats.bound_satisfied
    assert stats.nonzero_count == 1000
    assert stats.N_x == 0
    assert stats.window_bound == 46


# Each checker, fed one wrong input, reports that input's first mismatch in
# exact words.  A DP table entry is changed through a wrapped builder, a
# series through the name `verify` imports it under.

def _bump_table(monkeypatch, builder, n, delta=1, j=None):
    real = getattr(partitions, builder)

    def build(*args):
        out = real(*args)
        (out if j is None else out[j - 1])[n] += delta
        return out
    monkeypatch.setattr(partitions, builder, build)
    monkeypatch.setattr(partitions, "_cache", {})


def _bump_series(monkeypatch, name, n, only=None):
    module = sys.modules["glaisher.verify"]
    real = getattr(module, name)

    def expand(*args):
        s = real(*args)
        if only is not None and only not in args:
            return s
        coeffs = list(s.coeffs)
        coeffs[n] += 1
        return Series(Z, coeffs)
    monkeypatch.setattr(module, name, expand)


@pytest.mark.parametrize("bump,args,kwargs,first", [
    pytest.param(lambda mp: _bump_table(mp, "_build_B", 7), ("T1.2", 3),
                 {"n_max": 40}, (7, "A(7)=9", "B(7)=10"), id="T1.2-counts"),
    pytest.param(lambda mp: _bump_series(mp, "gf_regular", 11, "B_product"),
                 ("T1.2", 3), {"n_max": 40},
                 (11, "[q^11] A_product=27", "[q^11] B_product=28"),
                 id="T1.2-products"),
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
