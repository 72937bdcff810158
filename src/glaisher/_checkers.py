"""The theorem checkers behind `verify.verify`, one per selector.

Each checker evaluates both sides of one identity by independent paths
(the verify module docstring says which) and returns (lo, routes, notes,
first): the first n of its range, the routes it compared, its report
notes, and the (n, lhs, rhs) of the first mismatch it finds, or None.
`verify` validates the arguments, calls the checker for its selector with
m and the top of the range (and T1.9's block count), and builds the report.

`verify` imports this module only when a check runs, so a CLI process
that counts, expands or takes a census never compiles it.  Each checker
imports what it reads when it runs, from the module that defines it
(`genfun`, `partitions`, `series`), and reads whatever that module holds
under the name at the time.
"""

from __future__ import annotations

from math import isqrt


def _counts(family: str, m: int, n_max: int, j: int | None = None) -> tuple:
    from .partitions import FamilySpec, count_table

    return count_table(FamilySpec(family, m, j), n_max).counts


def _first_mismatch(ns, lhs, rhs, lhs_label, rhs_label):
    """The (n, lhs, rhs) at the first n in ns where lhs[n] != rhs[n], or
    None; each label maps n to the name its side is reported under, as in
    "name=value"."""
    return next(((n, f"{lhs_label(n)}={lhs[n]}", f"{rhs_label(n)}={rhs[n]}")
                 for n in ns if lhs[n] != rhs[n]), None)


def verify_T12(m: int, n_max: int) -> tuple:
    from .genfun import gf_regular

    ns = range(n_max + 1)
    A = _counts("A", m, n_max)
    first = _first_mismatch(ns, A, _counts("B", m, n_max),
                            "A({})".format, "B({})".format)
    # the products are expanded only when the counts agree; count A is
    # then compared with A_product too, so a fault that moves both DP
    # tables alike (a shared decode or power-sum step) still shows
    if first is None:
        a_product = gf_regular(m, "A_product", n_max).coeffs
        first = (_first_mismatch(ns, a_product,
                                 gf_regular(m, "B_product", n_max).coeffs,
                                 "[q^{}] A_product".format,
                                 "[q^{}] B_product".format)
                 or _first_mismatch(ns, A, a_product, "A({})".format,
                                    "[q^{}] A_product".format))
    return 0, ["counts", "products"], {}, first


def verify_E14(m: int, n_max: int) -> tuple:
    notes = {"n=0": "left side 1, right side 0 by convention; excluded"}
    # a residue above n_max is the residue of no part up to n_max
    bj = [_counts("Bj", m, n_max, j) for j in range(1, min(m - 1, n_max) + 1)]
    first = _first_mismatch(range(1, n_max + 1), [sum(v) for v in zip(*bj)],
                            _counts("B", m, n_max), "sum_j Bj({})".format,
                            "B({})".format)
    return 1, ["counts"], notes, first


def verify_T13(m: int, n_max: int) -> tuple:
    first = _first_mismatch(range(n_max + 1), _counts("Bj", m, n_max, m - 1),
                            _counts("C", m, n_max + 1)[1:],
                            lambda n: f"B^({m - 1})({n})", lambda n: f"C({n + 1})")
    return 0, ["counts"], {}, first


_T14_PROBE = 64  # the prefix T1.4 expands before it commits to n_max


def verify_T14(m: int, n_max: int) -> tuple:
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
    first = next(_T14_mismatches(m, n_max, stop, series, C, D), None)
    return 0, routes, notes, first


def _T14_mismatches(m, n_max, stop, series, C, D):
    """T1.4's mismatches in the order the walk meets them."""
    for n in range(stop + 1):
        if n == 1:
            continue
        e = series["triangular"][n]
        for r in ("definition", "qbinomial", "closed3"):
            if r in series and series[r][n] != e:
                yield n, f"triangular E({n})={e}", f"{r} E({n})={series[r][n]}"
        if series["identity"][n] != e:
            yield (n, f"triangular E({n})={e}",
                   f"identity m*C({n})-D({n})={series['identity'][n]}")
        lhs, rhs = m * C[n], D[n] + e
        if lhs != rhs:
            yield n, f"m*C({n})={lhs}", f"D({n})+E({n})={rhs}"
    # the arithmetic routes must agree even at the excluded n = 1
    if n_max >= 1:
        vals = {r: series[r][1] for r in ("definition", "triangular",
                                          "qbinomial")}
        if len(set(vals.values())) != 1:
            yield 1, "definition/triangular/qbinomial at n=1", repr(vals)


def verify_T15(m: int, n_max: int) -> tuple:
    from .genfun import epsilon

    first = _first_mismatch(range(n_max + 1), epsilon(m, n_max, "definition").coeffs,
                            epsilon(m, n_max, "closed3").coeffs,
                            "definition E_3({})".format, "closed form E_3({})".format)
    return 0, ["definition", "closed3"], {}, first


def _excluded_T16(n_max: int) -> set[int]:
    # k(k + 1)/2 < n_max needs k < sqrt(2 n_max)
    return {k * (k + 1) // 2 + 1 for k in range(isqrt(2 * n_max) + 1)
            if k * (k + 1) // 2 < n_max}


def verify_T16(m: int, n_max: int) -> tuple:
    excluded = _excluded_T16(n_max)
    notes = {"excluded": f"{len(excluded)} shifted triangular indices, where "
                         "the identity must (and does) fail"}
    C, D = _counts("C", m, n_max), _counts("D", m, n_max)
    # the identity must fail exactly at the excluded n
    first = next(((n, f"{m}*C({n})={m * C[n]}", f"D({n})={D[n]}"
                   + (" (expected inequality)" if n in excluded else ""))
                  for n in range(1, n_max + 1)
                  if (m * C[n] == D[n]) == (n in excluded)), None)
    return 1, ["counts"], notes, first


def verify_T18(m: int, n_max: int) -> tuple:
    from .genfun import epsilon

    eps = epsilon(m, n_max + 1, "triangular").coeffs
    first = next(_T18_mismatches(m, n_max, eps), None)
    return 1, ["counts", "triangular"], {}, first


def _T18_mismatches(m, n_max, eps):
    """T1.8's mismatches, n by n, each n's links of the chain in order."""
    A, B = _counts("A", m, n_max), _counts("B", m, n_max)
    # a residue above n_max is the residue of no part up to n_max
    bj = [_counts("Bj", m, n_max, k) for k in range(1, min(m - 2, n_max) + 1)]
    C, D = _counts("C", m, n_max + 1), _counts("D", m, n_max + 1)
    for n in range(1, n_max + 1):
        a, b = A[n], B[n]
        partial = sum(v[n] for v in bj)
        v3 = partial + C[n + 1]
        de = D[n + 1] + eps[n + 1]
        if a != b:
            yield n, f"A({n})={a}", f"B({n})={b}"
        if b != v3:
            yield n, f"B({n})={b}", f"sum_k<m-1 Bj({n}) + C({n + 1})={v3}"
        if de % m:
            yield (n, f"chain value {v3}",
                   f"(D({n + 1})+E({n + 1}))={de} not divisible by {m}")
        if v3 != partial + de // m:
            yield n, f"... + C({n + 1})={v3}", f"... + (D+E)/{m}={partial + de // m}"


def _rhs_T19(m: int, n_sum: int, precision: int):
    """(q^m; q^m)_(n_sum) / (q; q)_(m n_sum), truncated."""
    from . import kernels
    from .series import PochSpec, Series, pochhammer

    c = list(pochhammer(PochSpec(1, m, m, n_sum), precision).coeffs)
    for k in range(1, min(m * n_sum, precision) + 1):
        kernels.div_one_minus_uqk(c, 1, k)
    return Series._wrap(c)


def verify_T19(m: int, precision: int, n_sum: int | None) -> tuple:
    if n_sum is None or n_sum < 1:
        raise ValueError("T1.9 requires a positive block count (N_sum)")

    from .genfun import gf_Bj_lhs

    first = _first_mismatch(range(precision + 1),
                            gf_Bj_lhs(m, n_sum, precision).coeffs,
                            _rhs_T19(m, n_sum, precision).coeffs,
                            "[q^{}] lhs".format, "[q^{}] rhs".format)
    return 0, ["sum", "product"], {"N_sum": n_sum}, first


def verify_C110(m: int, precision: int) -> tuple:
    # The product side is A_product, not B_product: B_product divides by
    # (1 - q^k) for the same k as the sum's Horner pass, so the two lists
    # would differ by 1 after every step and a faulty division would cancel.
    # A_product (Euler's recurrence) makes no division; T1.2 ties it to B.
    from .genfun import gf_Bj_lhs, gf_regular

    first = _first_mismatch(range(precision + 1),
                            gf_Bj_lhs(m, None, precision).coeffs,
                            gf_regular(m, "A_product", precision).coeffs,
                            "[q^{}] sum".format, "[q^{}] product".format)
    return 0, ["sum", "product"], {}, first
