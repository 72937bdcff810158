"""Machine verification of the partition identities, with typed reports.

Each checker evaluates both sides of one identity by independent paths
(combinatorial DP counts on one side, series expansions on the other, and
multiple correction-series routes against each other) and reports the first
mismatch it finds.  A fail status is a finding, not an error: the CLI maps
it to exit code 1.

The m*C = D + correction identity is checked on n = 0 and n >= 2; both
sides at n = 1 are evaluated and attached to the report notes instead of
deciding the status, since the n = 1 behaviour differs across m and is
worth seeing rather than asserting blindly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from . import kernels
from .genfun import epsilon, gf_Bj_lhs, gf_C, gf_D, gf_regular, p_polynomial
from .partitions import FamilySpec, count_table
from .series import PochSpec, Series, Z, pochhammer

THEOREMS = ("T1.2", "E1.4", "T1.3", "T1.4", "T1.5", "T1.6", "T1.8", "T1.9", "C1.10")


@dataclass
class IdentityReport:
    """Machine-readable verdict of one identity check over a range."""

    theorem: str
    m: int
    range: tuple[int, int]
    status: str  # "pass" | "fail"
    first_failure: tuple[int, str, str] | None
    elapsed_ms: int
    routes: list[str]
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class DensityStats:
    """Zero/nonzero census of the correction series below x, with the
    window sparsity bound it must respect."""

    m: int
    x: int
    nonzero_count: int
    N_x: int  # number of n < x with a vanishing correction coefficient
    ratio: Fraction  # N_x / x
    window_bound: int
    bound_satisfied: bool
    p_support: int  # nonzero coefficients of the finite polynomial prefix


class _Failure(Exception):
    def __init__(self, n: int, lhs: str, rhs: str):
        self.where = (n, lhs, rhs)


def _finish(theorem, m, rng, routes, t0, check, notes=None) -> IdentityReport:
    status, first = "pass", None
    try:
        check()
    except _Failure as f:
        status, first = "fail", f.where
    elapsed = int((time.perf_counter() - t0) * 1000)
    return IdentityReport(
        theorem=theorem, m=m, range=rng, status=status, first_failure=first,
        elapsed_ms=elapsed, routes=routes, notes=notes or {},
    )


def _counts(family: str, m: int, n_max: int, j: int | None = None) -> tuple:
    return count_table(FamilySpec(family, m, j), n_max).counts


def _first_mismatch(ns, lhs, rhs, lhs_label, rhs_label) -> None:
    """Fail at the first n in ns where lhs[n] != rhs[n]; each label maps n
    to the name its side is reported under, as in "name=value"."""
    for n in ns:
        if lhs[n] != rhs[n]:
            raise _Failure(n, f"{lhs_label(n)}={lhs[n]}",
                           f"{rhs_label(n)}={rhs[n]}")


def _verify_T12(m: int, n_max: int, t0) -> IdentityReport:
    def check():
        ns = range(n_max + 1)
        _first_mismatch(ns, _counts("A", m, n_max), _counts("B", m, n_max),
                        "A({})".format, "B({})".format)
        _first_mismatch(ns, gf_regular(m, "A_product", n_max).coeffs,
                        gf_regular(m, "B_product", n_max).coeffs,
                        "[q^{}] A_product".format, "[q^{}] B_product".format)

    return _finish("T1.2", m, (0, n_max), ["counts", "products"], t0, check)


def _verify_E14(m: int, n_max: int, t0) -> IdentityReport:
    notes = {"n=0": "left side 1, right side 0 by convention; excluded"}

    def check():
        bj = [_counts("Bj", m, n_max, j) for j in range(1, m)]
        _first_mismatch(range(1, n_max + 1), [sum(v) for v in zip(*bj)],
                        _counts("B", m, n_max), "sum_j Bj({})".format,
                        "B({})".format)

    return _finish("E1.4", m, (1, n_max), ["counts"], t0, check, notes)


def _verify_T13(m: int, n_max: int, t0) -> IdentityReport:
    def check():
        _first_mismatch(range(n_max + 1), _counts("Bj", m, n_max, m - 1),
                        _counts("C", m, n_max + 1)[1:],
                        lambda n: f"B^({m - 1})({n})", lambda n: f"C({n + 1})")

    return _finish("T1.3", m, (0, n_max), ["counts"], t0, check)


def _verify_T14(m: int, n_max: int, t0) -> IdentityReport:
    routes = ["definition", "triangular", "qbinomial", "identity"]
    if m == 3:
        routes.append("closed3")
    series = {r: epsilon(m, n_max, r).coeffs for r in routes}
    ref = series["triangular"]
    # C and D are read up to the first n != 1 where a series leaves the
    # triangular one (the walk stops there) and at least to the n = 1 note
    stop = next((n for n in range(n_max + 1) if n != 1 and
                 any(series[r][n] != ref[n] for r in routes)), n_max)
    top = max(stop, min(n_max, 1))
    C, D = _counts("C", m, top), _counts("D", m, top)
    notes = {
        "n=1": (f"m*C(1)={m * C[1]} vs D(1)+E(1)={D[1] + ref[1]}; "
                "reported, not asserted") if n_max >= 1 else "out of range",
    }

    def check():
        for n in range(stop + 1):
            if n == 1:
                continue
            e = ref[n]
            for r in ("definition", "qbinomial", "closed3"):
                if r in series and series[r][n] != e:
                    raise _Failure(n, f"triangular E({n})={e}",
                                   f"{r} E({n})={series[r][n]}")
            if series["identity"][n] != e:
                raise _Failure(n, f"triangular E({n})={e}",
                               f"identity m*C({n})-D({n})="
                               f"{series['identity'][n]}")
            lhs, rhs = m * C[n], D[n] + e
            if lhs != rhs:
                raise _Failure(n, f"m*C({n})={lhs}", f"D({n})+E({n})={rhs}")
        # the arithmetic routes must agree even at the excluded n = 1
        if n_max >= 1:
            vals = {r: series[r][1] for r in ("definition", "triangular",
                                              "qbinomial")}
            if len(set(vals.values())) != 1:
                raise _Failure(1, "definition/triangular/qbinomial at n=1",
                               repr(vals))

    return _finish("T1.4", m, (0, n_max), routes, t0, check, notes)


def _verify_T15(n_max: int, t0) -> IdentityReport:
    def check():
        _first_mismatch(range(n_max + 1), epsilon(3, n_max, "definition").coeffs,
                        epsilon(3, n_max, "closed3").coeffs,
                        "definition E_3({})".format, "closed form E_3({})".format)

    return _finish("T1.5", 3, (0, n_max), ["definition", "closed3"], t0, check)


def _excluded_T16(n_max: int) -> set[int]:
    out = set()
    k = 0
    while k * (k + 1) // 2 + 1 <= n_max:
        out.add(k * (k + 1) // 2 + 1)
        k += 1
    return out


def _verify_T16(n_max: int, t0) -> IdentityReport:
    excluded = _excluded_T16(n_max)
    notes = {"excluded": f"{len(excluded)} shifted triangular indices, where "
                         "the identity must (and does) fail"}

    def check():
        C, D = _counts("C", 3, n_max), _counts("D", 3, n_max)
        for n in range(1, n_max + 1):
            lhs, rhs = 3 * C[n], D[n]
            if n in excluded:
                if lhs == rhs:
                    raise _Failure(n, f"3*C({n})={lhs}",
                                   f"D({n})={rhs} (expected inequality)")
            elif lhs != rhs:
                raise _Failure(n, f"3*C({n})={lhs}", f"D({n})={rhs}")

    return _finish("T1.6", 3, (1, n_max), ["counts"], t0, check, notes)


def _verify_T18(m: int, n_max: int, t0) -> IdentityReport:
    eps = epsilon(m, n_max + 1, "triangular").coeffs

    def check():
        A, B = _counts("A", m, n_max), _counts("B", m, n_max)
        bj = [_counts("Bj", m, n_max, k) for k in range(1, m - 1)]
        C, D = _counts("C", m, n_max + 1), _counts("D", m, n_max + 1)
        for n in range(1, n_max + 1):
            a, b = A[n], B[n]
            partial = sum(v[n] for v in bj)
            v3 = partial + C[n + 1]
            de = D[n + 1] + eps[n + 1]
            if a != b:
                raise _Failure(n, f"A({n})={a}", f"B({n})={b}")
            if b != v3:
                raise _Failure(n, f"B({n})={b}",
                               f"sum_k<m-1 Bj({n}) + C({n + 1})={v3}")
            if de % m:
                raise _Failure(n, f"chain value {v3}",
                               f"(D({n + 1})+E({n + 1}))={de} not divisible by {m}")
            if v3 != partial + de // m:
                raise _Failure(n, f"... + C({n + 1})={v3}",
                               f"... + (D+E)/{m}={partial + de // m}")

    return _finish("T1.8", m, (1, n_max), ["counts", "triangular"], t0, check)


def _rhs_T19(m: int, n_sum: int, precision: int) -> Series:
    """(q^m; q^m)_(n_sum) / (q; q)_(m n_sum), truncated."""
    c = list(pochhammer(PochSpec(1, m, m, n_sum), precision).coeffs)
    for k in range(1, min(m * n_sum, precision) + 1):
        kernels.div_one_minus_uqk(c, 1, k)
    return Series._wrap(Z, c)


def _verify_T19(m: int, n_sum: int, precision: int, t0) -> IdentityReport:
    if n_sum is None or n_sum < 1:
        raise ValueError("T1.9 requires a positive block count (N_sum)")

    def check():
        _first_mismatch(range(precision + 1),
                        gf_Bj_lhs(m, n_sum, precision).coeffs,
                        _rhs_T19(m, n_sum, precision).coeffs,
                        "[q^{}] lhs".format, "[q^{}] rhs".format)

    return _finish("T1.9", m, (0, precision), ["sum", "product"], t0, check,
                   {"N_sum": n_sum})


def _verify_C110(m: int, precision: int, t0) -> IdentityReport:
    def check():
        _first_mismatch(range(precision + 1), gf_Bj_lhs(m, None, precision).coeffs,
                        gf_regular(m, "B_product", precision).coeffs,
                        "[q^{}] sum".format, "[q^{}] product".format)

    return _finish("C1.10", m, (0, precision), ["sum", "product"], t0, check)


def verify(theorem: str, m: int | None = None, n_max: int | None = None,
           precision: int | None = None, n_sum: int | None = None) -> IdentityReport:
    """Run one identity check and return its report.

    Selector strings are frozen: T1.2 (equal family counts), E1.4
    (largest-part-residue decomposition), T1.3 (residue m-1 vs C shift),
    T1.4 (m*C = D + correction, all routes), T1.5 (m=3 closed form), T1.6
    (m=3 identity off shifted triangulars), T1.8 (four-way chain), T1.9
    (finite product identity), C1.10 (infinite product identity).
    """
    t0 = time.perf_counter()
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}, expected {THEOREMS}")
    if theorem in ("T1.5", "T1.6"):
        if m not in (None, 3):
            raise ValueError(f"{theorem} is specific to m = 3")
        m = 3
    if m is None or m < 2:
        raise ValueError("m must be >= 2")

    if theorem == "T1.2":
        return _verify_T12(m, _req(n_max, "n_max"), t0)
    if theorem == "E1.4":
        return _verify_E14(m, _req(n_max, "n_max"), t0)
    if theorem == "T1.3":
        return _verify_T13(m, _req(n_max, "n_max"), t0)
    if theorem == "T1.4":
        return _verify_T14(m, _req(n_max if n_max is not None else precision,
                                   "n_max"), t0)
    if theorem == "T1.5":
        return _verify_T15(_req(precision if precision is not None else n_max,
                                "precision"), t0)
    if theorem == "T1.6":
        return _verify_T16(_req(n_max, "n_max"), t0)
    if theorem == "T1.8":
        return _verify_T18(m, _req(n_max, "n_max"), t0)
    if theorem == "T1.9":
        return _verify_T19(m, n_sum, _req(precision, "precision"), t0)
    return _verify_C110(m, _req(precision, "precision"), t0)


def _req(value, name):
    if value is None:
        raise ValueError(f"{name} is required for this check")
    if value < 0:
        raise ValueError(f"{name} must be non-negative")
    return value


def density_report(m: int, x: int) -> DensityStats:
    """Census of vanishing correction coefficients for n < x, via the
    triangular route, against the window sparsity bound
    (2^(m-1) - m) * (isqrt(2x) + 1) + |support of the polynomial prefix|.

    A census above the bound is a finding, reported as
    bound_satisfied=False (the CLI maps it to exit code 1)."""
    if m < 2:
        raise ValueError("m must be >= 2")
    if x < 1:
        raise ValueError("x must be >= 1")
    coeffs = epsilon(m, x - 1, "triangular").coeffs
    nonzero = sum(1 for c in coeffs if c)
    zeros = x - nonzero
    p_support = sum(1 for c in p_polynomial(m).coeffs if c)
    window_bound = (2 ** (m - 1) - m) * (isqrt(2 * x) + 1) + p_support
    return DensityStats(
        m=m, x=x, nonzero_count=nonzero, N_x=zeros,
        ratio=Fraction(zeros, x), window_bound=window_bound,
        bound_satisfied=nonzero <= window_bound, p_support=p_support,
    )
