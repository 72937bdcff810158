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

The package imports this module on every start, so it imports no other
layer at module level: each checker imports what it reads when it runs,
from the module that defines it (`genfun`, `partitions`, `series`), and
reads whatever that module holds under the name at the time.
"""

from __future__ import annotations

import time
from math import isqrt

THEOREMS = ("T1.2", "E1.4", "T1.3", "T1.4", "T1.5", "T1.6", "T1.8", "T1.9", "C1.10")


class _Record:
    """A mutable record whose fields are its __slots__, compared and shown
    field by field."""

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class IdentityReport(_Record):
    """Machine-readable verdict of one identity check over a range:
    status is "pass" or "fail", first_failure (n, lhs, rhs) or None."""

    __slots__ = ("theorem", "m", "range", "status", "first_failure",
                 "elapsed_ms", "routes", "notes")

    def __init__(self, theorem: str, m: int, range: tuple[int, int],
                 status: str, first_failure: tuple[int, str, str] | None,
                 elapsed_ms: int, routes: list[str], notes: dict | None = None):
        self.theorem = theorem
        self.m = m
        self.range = range
        self.status = status
        self.first_failure = first_failure
        self.elapsed_ms = elapsed_ms
        self.routes = routes
        self.notes = {} if notes is None else notes

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class DensityStats(_Record):
    """Zero/nonzero census of the correction series below x, with the
    window sparsity bound it must respect: N_x counts the n < x with a
    vanishing correction coefficient, ratio is N_x / x, and p_support the
    nonzero coefficients of the finite polynomial prefix."""

    __slots__ = ("m", "x", "nonzero_count", "N_x", "window_bound",
                 "bound_satisfied", "p_support")

    def __init__(self, m: int, x: int, nonzero_count: int, N_x: int,
                 window_bound: int, bound_satisfied: bool, p_support: int):
        self.m = m
        self.x = x
        self.nonzero_count = nonzero_count
        self.N_x = N_x
        self.window_bound = window_bound
        self.bound_satisfied = bound_satisfied
        self.p_support = p_support

    @property
    def ratio(self) -> Fraction:
        """N_x / x, built when read, so that a census loads no `fractions`."""
        from fractions import Fraction

        return Fraction(self.N_x, self.x)


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
    from .partitions import FamilySpec, count_table

    return count_table(FamilySpec(family, m, j), n_max).counts


def _first_mismatch(ns, lhs, rhs, lhs_label, rhs_label) -> None:
    """Fail at the first n in ns where lhs[n] != rhs[n]; each label maps n
    to the name its side is reported under, as in "name=value"."""
    for n in ns:
        if lhs[n] != rhs[n]:
            raise _Failure(n, f"{lhs_label(n)}={lhs[n]}",
                           f"{rhs_label(n)}={rhs[n]}")


def _verify_T12(m: int, n_max: int, t0) -> IdentityReport:
    from .genfun import gf_regular

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


_T14_PROBE = 64  # the prefix T1.4 expands before it commits to n_max


def _verify_T14(m: int, n_max: int, t0) -> IdentityReport:
    from .genfun import epsilon

    routes = ["definition", "triangular", "qbinomial", "identity"]
    if m == 3:
        routes.append("closed3")
    # The walk stops at the first n != 1 where a series leaves the
    # triangular one, so the definition route, C and D are read only that
    # far, and at least to the n = 1 note.  The cheap routes are expanded
    # to a short prefix first (at m >= 4 they part at n = 2), and to n_max
    # only when that prefix holds no such n.  A truncated expansion is a
    # prefix of the full one, so the report is the same either way; a
    # definition mismatch below `stop` is still the walk's first failure.
    for top in dict.fromkeys((min(n_max, _T14_PROBE), n_max)):
        series = {r: epsilon(m, top, r).coeffs for r in routes
                  if r != "definition"}
        ref = series["triangular"]
        stop = next((n for n in range(top + 1) if n != 1 and
                     any(s[n] != ref[n] for s in series.values())), None)
        if stop is not None:
            break
    else:
        stop = n_max
    top = max(stop, min(n_max, 1))
    series["definition"] = epsilon(m, top, "definition").coeffs
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
    from .genfun import epsilon

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
    from .genfun import epsilon

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
    from . import kernels
    from .series import PochSpec, Series, pochhammer

    c = list(pochhammer(PochSpec(1, m, m, n_sum), precision).coeffs)
    for k in range(1, min(m * n_sum, precision) + 1):
        kernels.div_one_minus_uqk(c, 1, k)
    return Series._wrap(c)


def _verify_T19(m: int, n_sum: int, precision: int, t0) -> IdentityReport:
    if n_sum is None or n_sum < 1:
        raise ValueError("T1.9 requires a positive block count (N_sum)")

    from .genfun import gf_Bj_lhs

    def check():
        _first_mismatch(range(precision + 1),
                        gf_Bj_lhs(m, n_sum, precision).coeffs,
                        _rhs_T19(m, n_sum, precision).coeffs,
                        "[q^{}] lhs".format, "[q^{}] rhs".format)

    return _finish("T1.9", m, (0, precision), ["sum", "product"], t0, check,
                   {"N_sum": n_sum})


def _verify_C110(m: int, precision: int, t0) -> IdentityReport:
    # The product side is A_product, not B_product: B_product divides by
    # (1 - q^k) for the same k as the sum's Horner pass, so the two lists
    # would differ by 1 after every step and a faulty division would cancel.
    # A_product (Euler's recurrence) makes no division; T1.2 ties it to B.
    from .genfun import gf_Bj_lhs, gf_regular

    def check():
        _first_mismatch(range(precision + 1), gf_Bj_lhs(m, None, precision).coeffs,
                        gf_regular(m, "A_product", precision).coeffs,
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
    """Census of vanishing correction coefficients for n < x, counted from
    `triangular_stream` (the triangular sum, streamed term by term over a
    sparse window, so time grows like sqrt(x) and memory stays small),
    against the window sparsity bound
    (2^(m-1) - m) * (isqrt(2x) + 1) + |support of the polynomial prefix|.

    A census above the bound is a finding, reported as
    bound_satisfied=False (the CLI maps it to exit code 1)."""
    from .genfun import p_polynomial, triangular_stream

    if m < 2:
        raise ValueError("m must be >= 2")
    if x < 1:
        raise ValueError("x must be >= 1")
    nonzero = sum(1 for _ in triangular_stream(m, x))
    zeros = x - nonzero
    p_support = sum(1 for c in p_polynomial(m).coeffs if c)
    window_bound = (2 ** (m - 1) - m) * (isqrt(2 * x) + 1) + p_support
    return DensityStats(
        m=m, x=x, nonzero_count=nonzero, N_x=zeros, window_bound=window_bound,
        bound_satisfied=nonzero <= window_bound, p_support=p_support,
    )
