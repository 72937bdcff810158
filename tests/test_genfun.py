"""Generating functions against the DP counters, and the correction-series
routes against one another.

The route-agreement tests are the strongest checks in the package: the
cyclotomic definition, the triangular-number sum, and the Gaussian-binomial
rearrangement share no algebra beyond the kernels, yet must expand the same
series.  The raw-difference route m*C - D is pinned separately: it matches
the others exactly for m = 3, differs only in the q^1 coefficient for
m = 2, and diverges broadly for m >= 4 (a genuine feature of these
families, locked in by regression below).
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glaisher import genfun, kernels, ring, series
from glaisher.genfun import (
    EPSILON_ROUTES,
    epsilon,
    gf_Bj_lhs,
    gf_C,
    gf_D,
    gf_regular,
    p_polynomial,
    triangular_stream,
)
from glaisher.partitions import count_A, count_B, count_C, count_D
from glaisher.ring import CycInt, chi, cyc_root_power
from glaisher.series import (
    PochSpec,
    Series,
    inv_pochhammer,
    map_ring,
    pochhammer,
    qbinomial,
    qbinomial_poly,
)
from glaisher._checkers import _rhs_T19
from test_series import _epsilon_triangular_dense


_SERIES_BUILDERS = [
    ("Series.zero", lambda p: Series.zero(p)),
    ("Series.one", lambda p: Series.one(p)),
    ("Series.from_coeffs", lambda p: Series.from_coeffs([], p)),
    ("pochhammer", lambda p: pochhammer(PochSpec(1, 1, 1, None), p)),
    ("inv_pochhammer", lambda p: inv_pochhammer(1, 1, None, p)),
    ("qbinomial", lambda p: qbinomial(2, 2, p)),
    ("gf_regular A", lambda p: gf_regular(3, "A_product", p)),
    ("gf_regular B", lambda p: gf_regular(3, "B_product", p)),
    ("gf_C", lambda p: gf_C(3, p)),
    ("gf_D", lambda p: gf_D(3, p)),
    ("gf_Bj_lhs", lambda p: gf_Bj_lhs(3, None, p)),
    ("gf_Bj_lhs n_sum", lambda p: gf_Bj_lhs(3, 2, p)),
] + [(f"epsilon {route}", lambda p, r=route: epsilon(3, p, r))
     for route in EPSILON_ROUTES]


@pytest.mark.parametrize("build", [b for _, b in _SERIES_BUILDERS],
                         ids=[name for name, _ in _SERIES_BUILDERS])
@pytest.mark.parametrize("precision", [-1, -7])
def test_negative_precision_is_rejected(build, precision):
    with pytest.raises(ValueError, match="precision must be non-negative"):
        build(precision)
    assert build(0).precision == 0


def test_gf_regular_examples():
    assert gf_regular(3, "B_product", 5).coeffs == (1, 1, 2, 2, 4, 5)
    assert gf_regular(2, "B_product", 5).coeffs == (1, 1, 1, 2, 2, 3)
    for m in range(2, 7):
        for form in ("A_product", "B_product"):
            assert gf_regular(m, form, 8).coeff(0) == 1


def test_gf_regular_forms_agree():
    for m in range(2, 7):
        assert gf_regular(m, "A_product", 60) == gf_regular(m, "B_product", 60)


def test_gf_regular_rejects_unknown_form():
    with pytest.raises(ValueError):
        gf_regular(3, "C_product", 5)


def _gf_regular_A_interleaved(m, precision):
    """The bounded-multiplicity product factor by factor: divide by
    (1 - q^i) and multiply back (1 - q^(m i)) for each i in turn."""
    c = [1] + [0] * precision
    for i in range(1, precision + 1):
        kernels.div_one_minus_uqk(c, 1, i)
        if m * i <= precision:
            kernels.mul_one_minus_uqk(c, 1, m * i)
    return c


def _gf_regular_B_ascending(m, precision):
    """The no-multiple product, dividing by its factors smallest first."""
    c = [1] + [0] * precision
    for k in range(1, precision + 1):
        if k % m:
            kernels.div_one_minus_uqk(c, 1, k)
    return c


_M_GRID = [*range(2, 10), 12, 30]


def _precision_grid(m, rng):
    return sorted({0, 1, m - 1, m, m + 1, rng.randint(0, 400),
                   rng.randint(0, 400)})


@pytest.mark.parametrize("m", _M_GRID)
def test_gf_regular_matches_factor_loops(m):
    for precision in _precision_grid(m, random.Random(90 + m)):
        assert list(gf_regular(m, "A_product", precision).coeffs) == \
            _gf_regular_A_interleaved(m, precision), precision
        assert list(gf_regular(m, "B_product", precision).coeffs) == \
            _gf_regular_B_ascending(m, precision), precision


def test_gf_C_examples():
    assert gf_C(3, 6).coeffs == (1, 0, 0, 1, 1, 2, 3)
    for m in range(2, 7):
        assert gf_C(m, 8).coeff(1) == 0


def test_gf_D_examples():
    assert gf_D(3, 5).coeffs == (1, 1, 2, 3, 4, 6)
    assert gf_D(2, 8).coeff(0) == 1


def _gf_C_full_width(m, precision):
    """The largest-part-multiple sum with each block's term kept at its
    absolute exponents, to the full precision."""
    acc = [1] + [0] * precision
    term = [1] + [0] * precision
    n = 1
    while m * n <= precision:
        term = [0] * m + term[: precision + 1 - m]
        kernels.mul_one_minus_uqk(term, 1, m * n)
        for r in range(m * (n - 1) + 1, m * n + 1):
            kernels.div_one_minus_uqk(term, 1, r)
        kernels.add_scaled_shifted(acc, term, 0, 1)
        n += 1
    return acc


def _gf_D_full_width(m, precision):
    """The smallest-part-exactly-m sum with the starting product built
    factor by factor and every product kept to the full precision."""
    inner = _gf_regular_A_interleaved(m, precision)
    acc = list(inner)
    j = 1
    while m * j <= precision:
        kernels.mul_one_minus_uqk(inner, 1, j)
        kernels.div_one_minus_uqk(inner, 1, m * j)
        kernels.add_scaled_shifted(acc, inner, m * j, 1)
        j += 1
    return acc


@pytest.mark.parametrize("m", range(2, 8))
def test_gf_C_and_gf_D_truncated_match_full_width(m):
    rng = random.Random(70 + m)
    for precision in (0, 1, m - 1, m, m + 1, rng.randint(0, 400),
                      rng.randint(0, 400)):
        assert list(gf_C(m, precision).coeffs) == \
            _gf_C_full_width(m, precision), precision
        assert list(gf_D(m, precision).coeffs) == \
            _gf_D_full_width(m, precision), precision


def test_pentagonal_recurrence_counts_partitions():
    # with m > n, no part is excluded from a B-partition of n: count_B is p(n)
    n_max = 200
    assert genfun._euler_inverse(n_max) == \
        [count_B(n_max + 1, n) for n in range(n_max + 1)]
    assert genfun._euler_inverse(0) == [1]


@pytest.mark.parametrize("m", range(2, 6))
def test_gf_matches_dp_counters(m):
    n_max = 120
    gc, gd = gf_C(m, n_max), gf_D(m, n_max)
    ga = gf_regular(m, "A_product", n_max)
    gb = gf_regular(m, "B_product", n_max)
    gbj = gf_Bj_lhs(m, None, n_max)
    for n in range(n_max + 1):
        assert gc.coeff(n) == count_C(m, n)
        assert gd.coeff(n) == count_D(m, n)
        assert ga.coeff(n) == count_A(m, n)
        assert gb.coeff(n) == count_B(m, n)
        assert gbj.coeff(n) == count_B(m, n)


def test_gf_Bj_lhs_single_block_m2():
    # one block, one residue: 1 + q/(1-q)
    assert gf_Bj_lhs(2, 1, 6).coeffs == (1, 1, 1, 1, 1, 1, 1)


def test_gf_Bj_lhs_constant_term():
    for m in range(2, 7):
        assert gf_Bj_lhs(m, 3, 10).coeff(0) == 1
        assert gf_Bj_lhs(m, None, 10).coeff(0) == 1


def test_epsilon_m3_prefix():
    got = epsilon(3, 12, "triangular")
    assert got.coeffs == (2, -1, -2, 0, -1, 0, 0, 1, 0, 0, 0, 2, 0)


def test_epsilon_m2_triangular_telescopes_to_one():
    e = epsilon(2, 50, "triangular")
    assert e == Series.one(50)


@pytest.mark.parametrize("m", range(2, 6))
def test_epsilon_arithmetic_routes_agree(m):
    n = 80
    e_def = epsilon(m, n, "definition")
    e_tri = epsilon(m, n, "triangular")
    e_qb = epsilon(m, n, "qbinomial")
    assert e_def == e_tri
    assert e_tri == e_qb


def test_epsilon_closed3_matches_other_routes():
    assert epsilon(3, 120, "closed3") == epsilon(3, 120, "definition")


def test_epsilon_identity_route_m3_matches():
    assert epsilon(3, 80, "identity") == epsilon(3, 80, "triangular")


def test_epsilon_identity_route_m2_offset():
    # the raw difference 2*C - D equals the arithmetic routes except for a
    # single -1 in the q^1 coefficient
    diff = epsilon(2, 80, "identity") - epsilon(2, 80, "triangular")
    assert diff.coeff(1) == -1
    assert all(c == 0 for n, c in enumerate(diff.coeffs) if n != 1)


def test_epsilon_identity_route_m4_diverges():
    # for m >= 4 the raw difference m*C - D is NOT the arithmetic series;
    # regression-pin the first few divergences
    diff = epsilon(4, 40, "identity") - epsilon(4, 40, "triangular")
    support = [n for n, c in enumerate(diff.coeffs) if c]
    assert support[:4] == [1, 2, 3, 4]
    assert [diff.coeff(n) for n in (1, 2, 3, 4)] == [1, 1, -1, -3]


def test_epsilon_identity_example_value():
    # E_3(3) = 0 = 3*C_3(3) - D_3(3)
    assert epsilon(3, 3, "identity").coeff(3) == 0
    assert 3 * count_C(3, 3) - count_D(3, 3) == 0


def test_epsilon_validation():
    with pytest.raises(ValueError):
        epsilon(4, 10, "closed3")
    with pytest.raises(ValueError):
        epsilon(3, 10, "newton")
    with pytest.raises(ValueError):
        epsilon(1, 10, "triangular")
    assert set(EPSILON_ROUTES) == {
        "definition", "triangular", "qbinomial", "identity", "closed3"
    }


def test_epsilon_first_coefficient_counts_roots():
    for m in range(2, 8):
        assert epsilon(m, 4, "triangular").coeff(0) == m - 1


def test_p_polynomial_small_cases():
    assert p_polynomial(2).coeffs == (1,)
    assert p_polynomial(3).coeffs == (2,)
    # frozen after cross-route confirmation (triangular == qbinomial routes)
    assert p_polynomial(4).coeffs == (3, 0, 1)
    assert p_polynomial(5).coeffs == (4, 0, 2, 2)


@pytest.mark.parametrize("m", range(2, 8))
def test_p_polynomial_degree_bound(m):
    assert p_polynomial(m).precision < max(m * (m - 1) // 2, 1)


@pytest.mark.parametrize("m", [4, 5, 6, 100])
def test_p_polynomial_is_consistent_across_routes(m):
    # the qbinomial route embeds P_m; its agreement with the triangular
    # route over a long window is the only independent anchor for P_m
    precision = max(60, 5 * m)
    assert epsilon(m, precision, "qbinomial") == \
        epsilon(m, precision, "triangular")


def _p_polynomial_double_loop(m):
    """P_m straight from its definition: each [m-1, j]_q times its inner
    character sum, convolved term by term."""
    out = [0] * (m * (m - 1) + 1)
    for j in range(m):
        qb = qbinomial_poly(m - 1 - j, j)
        inner = [0] * (genfun._tri(j - 1) + 1 if j else 1)
        for k in range(j):
            inner[genfun._tri(k)] += (-1 if k & 1 else 1) * chi(m, k - j)
        for a, ca in enumerate(qb):
            for b, cb in enumerate(inner):
                out[a + b] -= ca * cb
    deg = max((i for i, c in enumerate(out) if c), default=0)
    return tuple(out[: deg + 1])


@pytest.mark.parametrize("m", [*range(2, 31), 40])
def test_p_polynomial_matches_double_loop(m):
    assert p_polynomial(m).coeffs == _p_polynomial_double_loop(m)


@pytest.mark.parametrize("m", [3, 8, 20, 60])
def test_qbinomial_row_is_built_once_by_one_ratio_sweep(monkeypatch, m):
    # one multiply and one exact divide per j = 1..m-1 of the row
    # [m-1, j]_q, which P_m and the route share
    calls = _count_kernel_calls(monkeypatch)
    for build in (lambda: p_polynomial(m),
                  lambda: epsilon(m, 300, "qbinomial")):
        calls.clear()
        build()
        assert calls.get("mul_one_minus_uqk") == m - 1
        assert calls.get("div_one_minus_uqk") == m - 1


@pytest.mark.parametrize("m,precision", [(200, 40), (200, 500), (100, 2000),
                                         (60, 2000), (7, 300), (3, 5000),
                                         (2000, 40), (1000, 300)])
def test_qbinomial_route_builds_its_row_only_to_the_precision(m, precision):
    # entry j of the route's row holds min(N + 1, j(m - 1 - j) + 1) cells,
    # and the route still equals the triangular sum
    row = genfun._qbinomial_row(m - 1, precision + 1)
    assert [len(e) for e in row] == [min(precision + 1, j * (m - 1 - j) + 1)
                                     for j in range(m)]
    assert epsilon(m, precision, "qbinomial") == \
        epsilon(m, precision, "triangular")


@pytest.mark.parametrize("m", [3, 8, 20, 60])
def test_qbinomial_route_adds_twice_per_triangular_number(monkeypatch, m):
    # sum_j chi_m(k - j) delta_j = m delta_(k mod m) - sum_j delta_j
    calls = _count_kernel_calls(monkeypatch)
    for precision in (0, 1, 5, 37, 300):
        calls.clear()
        epsilon(m, precision, "qbinomial")
        terms = sum(1 for k in range(precision + 1)
                    if genfun._tri(k) <= precision)
        assert calls.get("add_scaled_shifted", 0) <= 2 * terms, precision


@pytest.mark.parametrize("m", [3, 8, 20])
def test_qbinomial_route_and_p_polynomial_call_no_chi(monkeypatch, m):
    # genfun writes chi_m(n) = m [m | n] - 1 inline and loads nothing from
    # ring, so a ring.chi that raises changes no route
    expected = epsilon(m, 200, "triangular")
    p_expected = _p_polynomial_double_loop(m)

    def no_chi(*args):
        raise AssertionError("chi called")
    monkeypatch.setattr(ring, "chi", no_chi)
    assert p_polynomial(m).coeffs == p_expected
    routes = ("definition", "triangular", "qbinomial") + (
        ("closed3",) if m == 3 else ())
    for route in routes:
        assert epsilon(m, 200, route) == expected, route


def test_epsilon_tiny_precisions():
    assert epsilon(3, 0, "definition").coeffs == (2,)
    assert epsilon(3, 1, "definition").coeffs == (2, -1)
    assert epsilon(4, 2, "triangular").coeffs == (3, -2, -3)


def _epsilon_definition_cycint(m, precision):
    """The definition route as it was first written: each per-root product
    a coefficient list over Z[zeta_m] (CycInt), multiplied by
    (1 - q^i)(1 - zeta^j q^i) through the kernels, then checked down to Z."""
    zero = CycInt.zero(m)
    one = CycInt.one(m)
    n_top = precision // m
    roots = [cyc_root_power(m, j) for j in range(1, m)]
    prods = []
    for u in roots:
        w = [one] + [zero] * precision
        for i in range(n_top + 1, precision + 1):
            kernels.mul_one_minus_uqk(w, 1, i)
            kernels.mul_one_minus_uqk(w, u, i)
        prods.append(w)
    acc = [zero] * (precision + 1)
    n = n_top
    while True:
        for w in prods:
            kernels.add_scaled_shifted(acc, w, m * n, 1)
        if n == 0:
            break
        for w, u in zip(prods, roots):
            kernels.mul_one_minus_uqk(w, 1, n)
            kernels.mul_one_minus_uqk(w, u, n)
        n -= 1
    return map_ring(acc)


def _definition_residues(m, precision, roots, peaks=None):
    """The definition route's accumulator before its reduction to
    Z[zeta_m]: one int list per residue of Z[x]/(x^m - 1), the sum over
    the given roots j of the products multiplied by (1 - q^i)(1 - x^j q^i)
    through the kernels.  If `peaks` is a list, the largest |cell| of every
    product after each factor pair and of every accumulator after each
    block is appended to it."""
    def peak(lists):
        if peaks is not None:
            peaks.append(max(max(max(c), -min(c)) for c in lists))

    def mul_factor_pair(w, j, i):
        live = [any(c) for c in w]  # a zero residue stays zero
        for c, nonzero in zip(w, live):
            if nonzero:
                kernels.mul_one_minus_uqk(c, 1, i)
        old = [c[: len(c) - i] for c in w]
        for r, c in enumerate(w):
            if live[r - j]:
                kernels.add_scaled_shifted(c, old[r - j], i, -1)
        peak(w)

    n_top = precision // m
    prods = []
    for j in roots:
        w = [[1] + [0] * precision] + [[0] * (precision + 1) for _ in range(m - 1)]
        for i in range(n_top + 1, precision + 1):
            mul_factor_pair(w, j, i)
        prods.append(w)
    acc = [[0] * (precision + 1) for _ in range(m)]
    n = n_top
    while True:
        for w in prods:
            for a, c in zip(acc, w):
                kernels.add_scaled_shifted(a, c, m * n, 1)
        peak(acc)
        if n == 0:
            break
        for j, w in zip(roots, prods):
            mul_factor_pair(w, j, n)
        n -= 1
    return acc


def _epsilon_definition_lists(m, precision):
    """The definition route on int lists, one product per root j = 1..m-1
    (`_definition_residues`), each residue r sent to zeta_m^r in a CycInt
    list that `map_ring` checks down to Z."""
    out = [CycInt.zero(m)] * (precision + 1)
    for r, a in enumerate(_definition_residues(m, precision, range(1, m))):
        kernels.add_scaled_shifted(out, a, 0, cyc_root_power(m, r))
    return map_ring(out)


def _mul_packed_pair_root(p, j, s, keep, keep2, mask):
    """The packed pair step for root j: multiply the residue lists by
    (1 - q^i)(1 - x^j q^i), with x^j moving residue r - j (mod m) to r."""
    old = p[:]
    for r, x in enumerate(old):
        y = old[r - j]
        if x or y:
            p[r] = (x + ((y & keep2) << 2 * s) - (((x + y) & keep) << s)) & mask


def _epsilon_definition_per_root(m, precision):
    """The packed definition route with one product per root j = 1..m-1,
    each multiplied by (1 - q^i)(1 - x^j q^i) and all summed into one
    accumulator per residue in every block."""
    w = genfun._definition_slot_bits(m, precision)
    mask = (1 << w * (precision + 1)) - 1
    prods = [[1] + [0] * (m - 1) for _ in range(1, m)]
    acc = [0] * m
    top = precision
    for n in range(precision // m, -1, -1):
        for i in range(top, n, -1):
            s = w * i
            keep = mask >> s
            keep2 = keep >> s
            for j, p in enumerate(prods, 1):
                _mul_packed_pair_root(p, j, s, keep, keep2, mask)
        top = n
        s = w * m * n
        keep = mask >> s
        for r in range(m):
            acc[r] += (sum(p[r] for p in prods) & keep) << s
    out = [CycInt.zero(m)] * (precision + 1)
    for r, a in enumerate(acc):
        kernels.add_scaled_shifted(out, genfun._unpack_signed(a, w, precision),
                                   0, cyc_root_power(m, r))
    return map_ring(out)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 18, 24,
                               30, 60])
def test_definition_per_divisor_matches_per_root(m):
    # the reference expands every root's product; at composite m the roots
    # with gcd(j, m) > 1 have lower order, and the character sum over the
    # one root-1 product must count them all the same
    for precision in sorted({0, 1, m - 1, m, m + 1, 150}):
        assert epsilon(m, precision, "definition") == \
            _epsilon_definition_per_root(m, precision), precision


@pytest.mark.parametrize("m,precision", [(2, 40), (3, 0), (3, 41), (4, 30),
                                         (5, 17), (6, 36), (7, 20), (12, 25),
                                         (30, 31)])
def test_definition_expands_one_product_per_proper_divisor(
        monkeypatch, m, precision):
    # one product for every m, composite or not: the root-1 product, its
    # factors i > c in one power-sum step and one pair step per factor
    # index i = 1..c
    calls = []

    def counted(*args, _real=genfun._mul_packed_pair):
        calls.append(args)
        return _real(*args)
    monkeypatch.setattr(genfun, "_mul_packed_pair", counted)
    epsilon(m, precision, "definition")
    c = genfun._definition_cut(m, precision)
    assert len(calls) == c
    w = genfun._definition_slot_bits(m, precision)
    assert sorted(s // w for _, s, *_ in calls) == list(range(1, c + 1))


def test_definition_holds_only_the_live_residues(monkeypatch):
    # x^a needs a distinct factors, a(a + 1) / 2 <= N, so at N = 600 only
    # residues 0..34 of the 2000 can be nonzero; each pair step sees at
    # most those and one zero residue above them
    m, precision = 2000, 600
    live = max(a for a in range(m) if a * (a + 1) // 2 <= precision) + 1
    lengths = []

    def counted(p, *args, _real=genfun._mul_packed_pair):
        lengths.append(len(p))
        return _real(p, *args)
    monkeypatch.setattr(genfun, "_mul_packed_pair", counted)
    assert epsilon(m, precision, "definition") == \
        epsilon(m, precision, "triangular")
    assert len(lengths) == genfun._definition_cut(m, precision)
    assert live == 35
    assert max(lengths) <= live + 1


def _cut_ratio(precision):
    """r = (N / 4)^(1/3) rounded, at least 3: no N makes it a tie, since
    (2r + 1)^3 = 2N has no integer solution."""
    return max(3, int((precision / 4) ** (1 / 3) + 0.5))


def test_definition_cut_rule():
    # c = max(N // m, N // r) at every N, r = 3 below N = 172, 8 at 1800
    # and 11 at 5000
    assert [_cut_ratio(n) for n in (171, 172, 1800, 5000)] == [3, 4, 8, 11]
    for precision in range(0, 6000, 7):
        r = _cut_ratio(precision)
        for m in (2, 3, 12, 200, 2000):
            assert genfun._definition_cut(m, precision) == \
                max(precision // m, precision // r), (m, precision)
    assert [genfun._definition_cut(2, n) for n in (0, 1, 6, 7)] == [0, 0, 3, 3]
    assert [genfun._definition_cut(3, n) for n in (7, 22, 23)] == [2, 7, 7]
    assert genfun._definition_cut(3, 5000) == 1666
    assert genfun._definition_cut(12, 3000) == 333


def _epsilon_definition_pairs(m, precision, c):
    """The packed definition route with every factor pair applied by
    `_mul_packed_pair`, top down, before and between the blocks it adds:
    its series, and its residue ints once the factors i > c are in."""
    w = genfun._definition_slot_bits(m, precision)
    mask = (1 << w * (precision + 1)) - 1
    p = [1] + [0] * (m - 1)
    at_cut = p[:]
    acc = [0] * m
    top = precision
    for n in range(precision // m, -1, -1):
        for i in range(top, n, -1):
            s = w * i
            keep = mask >> s
            genfun._mul_packed_pair(p, s, keep, keep >> s, mask)
            if i == c + 1:
                at_cut = p[:]
        top = n
        s = w * m * n
        keep = mask >> s
        for r, x in enumerate(p):
            if x:
                acc[r] += (x & keep) << s
    return (genfun._unpack_signed((m * acc[0] - sum(acc)) & mask, w,
                                  precision), at_cut)


def _assert_top_product_is_pair_steps(m, precision):
    w = genfun._definition_slot_bits(m, precision)
    mask = (1 << w * (precision + 1)) - 1
    c = genfun._definition_cut(m, precision)
    series, at_cut = _epsilon_definition_pairs(m, precision, c)
    top = genfun._top_product(m, c, w, precision, mask)
    assert top + [0] * (m - len(top)) == at_cut
    assert list(epsilon(m, precision, "definition").coeffs) == series


_STEP_M = (*range(2, 13), 20, 30, 60, 105, 200, 385, 2000)


@pytest.mark.parametrize("m", _STEP_M)
def test_top_product_matches_pair_steps_bit_for_bit(m):
    # the step's residue ints are the very ints the pair steps leave, and
    # the route's series is that of the top-down loop; c is the cut at
    # N = 600
    c = genfun._definition_cut(m, 600)
    for precision in sorted({0, 1, 2, m - 1, m, m + 1, c, c + 1, 150, 600}):
        _assert_top_product_is_pair_steps(m, precision)


def test_top_product_matches_pair_steps_at_3_2000():
    _assert_top_product_is_pair_steps(3, 2000)


@settings(deadline=None, database=None, max_examples=40)
@given(st.integers(2, 40), st.integers(0, 400))
def test_top_product_matches_pair_steps_property(m, precision):
    _assert_top_product_is_pair_steps(m, precision)


@pytest.mark.parametrize("m,precision", [(200, 500), (385, 300), (2000, 40)])
def test_top_product_runs_at_most_r_minus_1_newton_levels(
        monkeypatch, m, precision):
    # level k of the step forms k e_k from windows at strides 1..k over at
    # most k + 1 residues each, however large m is
    strides = []

    def counted(z, lo, d, count, mask, _real=genfun._window):
        strides.append(d)
        return _real(z, lo, d, count, mask)
    monkeypatch.setattr(genfun, "_window", counted)
    assert epsilon(m, precision, "definition") == \
        epsilon(m, precision, "triangular")
    w = genfun._definition_slot_bits(m, precision)
    r = _cut_ratio(precision)
    levels = max(d // w for d in strides)
    assert levels == precision // (genfun._definition_cut(m, precision) + 1)
    assert levels <= r - 1
    assert len(strides) <= sum(k * (k + 1) for k in range(1, r))


def _top_elementary(m, precision, c):
    """e_0..e_fit of the monomials q^i and x q^i, c < i <= N, fit =
    N // (c + 1), as residue lists of Z[x]/(x^m - 1) built one monomial
    at a time: e_k has x-degree at most k < m, so residues 0..k."""
    fit = precision // (c + 1)
    e = [[[0] * (precision + 1) for _ in range(m)] for _ in range(fit + 1)]
    e[0][0][0] = 1
    for i in range(c + 1, precision + 1):
        for a in (0, 1):  # the monomial x^a q^i
            for k in range(fit, 0, -1):
                for r in range(k):
                    kernels.add_scaled_shifted(e[k][r + a], e[k - 1][r], i, 1)
    return e


_SLOT_GRID = sorted({(m, n) for m in (*range(2, 10), 12, 20)
                     for n in (0, 1, m - 1, m, 150, 600)}
                    | {(3, 2000), (105, 20), (385, 10)})


@pytest.mark.parametrize("m,precision", _SLOT_GRID)
def test_definition_slot_width_holds(m, precision):
    # every value the packed route reads as integers fits a signed slot:
    # the root-1 product after each factor pair, its accumulator after each
    # block, every cell of each k e_k the power-sum step forms, and the
    # decoded series m*acc_0 - sum_r acc_r
    peaks = []
    acc = _definition_residues(m, precision, (1,), peaks)
    expected = [m * a - sum(cell) for a, cell in zip(acc[0], zip(*acc))]
    peaks.append(max(map(abs, expected)))
    c = genfun._definition_cut(m, precision)
    e = _top_elementary(m, precision, c)
    peaks.extend(k * max(map(max, ek)) for k, ek in enumerate(e))
    w = genfun._definition_slot_bits(m, precision)
    assert max(peaks) < 1 << (w - 1)
    assert list(epsilon(m, precision, "definition").coeffs) == expected
    # the step's product is sum_k (-1)^k e_k
    mask = (1 << w * (precision + 1)) - 1
    product = [[0] * (precision + 1) for _ in range(m)]
    for k, ek in enumerate(e):
        for total, cells in zip(product, ek):
            kernels.add_scaled_shifted(total, cells, 0, -1 if k & 1 else 1)
    top = genfun._top_product(m, c, w, precision, mask)
    assert len(top) == precision // (c + 1) + 1
    assert [genfun._unpack_signed(x, w, precision) for x in
            top + [0] * (m - len(top))] == product


@pytest.mark.parametrize("m,precision", [(3, 1000), (5, 600), (7, 400),
                                         (20, 300), (60, 100)])
def test_packed_definition_matches_lists_and_triangular(m, precision):
    packed = epsilon(m, precision, "definition")
    assert packed == _epsilon_definition_lists(m, precision)
    assert packed == epsilon(m, precision, "triangular")


@pytest.mark.parametrize("m", range(2, 10))
def test_definition_residue_lists_match_cycint_loop(m):
    # composite m included: the roots with gcd(j, m) > 1 have lower order
    for precision in sorted({0, 1, m - 1, m, m + 1, 3 * m + 2, 150}):
        assert epsilon(m, precision, "definition") == \
            _epsilon_definition_cycint(m, precision), precision


@pytest.mark.parametrize("m,precision", [(2, 0), (2, 40), (3, 40), (4, 7),
                                         (6, 40), (9, 40)])
def test_definition_route_does_integer_work_until_one_reduction(
        monkeypatch, m, precision):
    # the sum over the roots is one integer combination of the packed
    # residue ints: a passing run calls no kernel, builds no CycInt and
    # never calls map_ring
    expected = epsilon(m, precision, "triangular")
    calls = []
    for name in ("conv_truncated", "mul_one_minus_uqk", "div_one_minus_uqk",
                 "add_scaled_shifted"):
        def recorded(*args, _name=name, _real=getattr(kernels, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(kernels, name, recorded)

    def built(self, *args, _real=CycInt.__init__):
        calls.append("CycInt")
        _real(self, *args)
    monkeypatch.setattr(CycInt, "__init__", built)

    def wrapped(cls, *args, _real=CycInt._wrap.__func__):
        calls.append("CycInt._wrap")
        return _real(cls, *args)
    monkeypatch.setattr(CycInt, "_wrap", classmethod(wrapped))

    def recorded_map_ring(coeffs, _real=series.map_ring):
        calls.append("map_ring")
        return _real(coeffs)
    monkeypatch.setattr(series, "map_ring", recorded_map_ring)
    assert epsilon(m, precision, "definition") == expected
    assert calls == []


@settings(deadline=None, database=None, max_examples=40)
@given(st.integers(2, 30), st.integers(0, 120))
@example(105, 400)
@example(210, 300)
@example(385, 300)
def test_definition_equals_triangular(m, precision):
    # the large-m examples combine hundreds of residue ints
    assert epsilon(m, precision, "definition") == \
        epsilon(m, precision, "triangular")


@pytest.mark.parametrize("m", [500, 1000, 2000, 10**7])
def test_definition_at_large_m_and_small_precision(m):
    # the product and the accumulator hold only the residues that can be
    # nonzero, about sqrt(2N) of them, so the sum over the roots takes a
    # few int adds and this grid a few ms even at m = 10^7; an accumulator
    # of all m residues would take over a second and 80 MB there
    for precision in range(4):
        assert epsilon(m, precision, "definition") == \
            epsilon(m, precision, "triangular"), precision


def _nonzero(series):
    return [(n, c) for n, c in enumerate(series.coeffs) if c]


@settings(deadline=None, database=None, max_examples=60)
@given(st.integers(2, 12), st.integers(1, 20000))
def test_triangular_stream_equals_dense_routes(m, x):
    streamed = list(triangular_stream(m, x))
    assert streamed == _nonzero(epsilon(m, x - 1, "triangular"))
    assert streamed == _nonzero(epsilon(m, x - 1, "qbinomial"))


@pytest.mark.parametrize("m,x", [(13, 1), (13, 2), (13, 3000), (20, 4000),
                                 (60, 2500), (200, 300)])
def test_triangular_stream_dense_terms_match(m, x):
    # large m: the early, narrow terms are grown as dense lists; the
    # reference expands every term to the full width, not from the stream
    dense = _epsilon_triangular_dense(m, x - 1)
    assert list(triangular_stream(m, x)) == \
        [(n, c) for n, c in enumerate(dense) if c]


def test_triangular_stream_validation():
    with pytest.raises(ValueError):
        next(triangular_stream(1, 10))
    with pytest.raises(ValueError):
        next(triangular_stream(3, 0))


def _qbinomial_stream(m, x):
    """The nonzero (n, eps_n) for n < x by the Gaussian-binomial route,
    held sparsely: P_m, plus ([m-1, j]_q - 1) at T_k scaled by
    (-1)^k chi_m(k - j), each exponent flushed once no later T_k can
    reach it."""
    deltas = []
    for j in range(m):
        qb = qbinomial_poly(m - 1 - j, j)
        qb[0] -= 1
        deltas.append([(e, c) for e, c in enumerate(qb) if c])
    window = {e: c for e, c in enumerate(p_polynomial(m).coeffs) if c}
    k = start = 0
    while start < x:
        sign = -1 if k & 1 else 1
        for j, delta in enumerate(deltas):
            for e, c in delta:
                if start + e < x:
                    window[start + e] = (window.get(start + e, 0)
                                         + sign * chi(m, k - j) * c)
        k += 1
        start += k
        for e in sorted(e for e in window if e < min(start, x)):
            c = window.pop(e)
            if c:
                yield e, c


def test_qbinomial_stream_reference_matches_dense():
    for m, x in [(2, 1), (3, 50), (5, 1000), (8, 3000)]:
        assert list(_qbinomial_stream(m, x)) == \
            _nonzero(epsilon(m, x - 1, "qbinomial"))


@pytest.mark.parametrize("m", [5, 8])
def test_triangular_stream_equals_qbinomial_stream_at_paper_scale(m):
    x = 10 ** 6
    assert list(triangular_stream(m, x)) == list(_qbinomial_stream(m, x))


def test_gf_Bj_lhs_zero_blocks_is_one():
    assert gf_Bj_lhs(3, 0, 8) == Series.one(8)


def _gf_Bj_lhs_full_width(m, n_sum, precision):
    """The residue sum with the working series kept to the full precision
    in every block."""
    acc = [0] * (precision + 1)
    acc[0] = 1
    for j in range(1, m):
        v = [1] + [0] * precision
        for r in range(1, m - j + 1):
            kernels.div_one_minus_uqk(v, 1, r)
        n = 1
        while (n_sum is None or n <= n_sum) and m * n - j <= precision:
            kernels.add_scaled_shifted(acc, v, m * n - j, 1)
            n += 1
            if (n_sum is not None and n > n_sum) or m * n - j > precision:
                break
            for r in range(1, m - j + 1):
                kernels.div_one_minus_uqk(v, 1, r + m * (n - 1))
            for r in range(m - j + 1, m):
                kernels.div_one_minus_uqk(v, 1, r + m * (n - 2))
    return acc


@pytest.mark.parametrize("m", _M_GRID)
def test_gf_Bj_lhs_truncated_blocks_match_full_width(m):
    # the Horner evaluation against the sum over blocks and residues
    rng = random.Random(40 + m)
    for precision in _precision_grid(m, rng):
        for n_sum in (None, 0, 1, 2, 3, 4, 5, 6, 7, rng.randint(0, 60)):
            assert list(gf_Bj_lhs(m, n_sum, precision).coeffs) == \
                _gf_Bj_lhs_full_width(m, n_sum, precision), (n_sum, precision)


def _count_kernel_calls(monkeypatch):
    calls = {}
    for name in ("mul_one_minus_uqk", "div_one_minus_uqk", "add_scaled_shifted"):
        def counted(*args, _name=name, _real=getattr(kernels, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)
        monkeypatch.setattr(kernels, name, counted)
    return calls


@pytest.mark.parametrize("m", _M_GRID)
def test_gf_Bj_lhs_divides_once_per_part_size(monkeypatch, m):
    calls = _count_kernel_calls(monkeypatch)
    rng = random.Random(60 + m)
    for precision in _precision_grid(m, rng):
        for n_sum in (None, 0, 1, 2, 3, 7, rng.randint(0, 60)):
            calls.clear()
            gf_Bj_lhs(m, n_sum, precision)
            top = precision if n_sum is None else min(precision, m * n_sum - 1)
            parts = sum(1 for k in range(1, top + 1) if k % m)
            expected = {"div_one_minus_uqk": parts} if parts else {}
            assert calls == expected, (precision, n_sum)


@pytest.mark.parametrize("m", _M_GRID)
def test_gf_regular_A_product_neither_divides_nor_multiplies(monkeypatch, m):
    calls = _count_kernel_calls(monkeypatch)
    for precision in _precision_grid(m, random.Random(80 + m)):
        calls.clear()
        gf_regular(m, "A_product", precision)
        assert set(calls) <= {"add_scaled_shifted"}, precision


# -- loops bounded by the precision, not by m ---------------------------------


def _rhs_T19_uncapped(m, n_sum, precision):
    """(q^m; q^m)_(n_sum) / (q; q)_(m n_sum) with every divisor applied."""
    c = list(pochhammer(PochSpec(1, m, m, n_sum), precision).coeffs)
    for k in range(1, m * n_sum + 1):
        kernels.div_one_minus_uqk(c, 1, k)
    return c


_M_BOUNDED = {
    "gf_Bj_lhs-inf": lambda m, p: gf_Bj_lhs(m, None, p),
    "gf_Bj_lhs-2": lambda m, p: gf_Bj_lhs(m, 2, p),
    "triangular": lambda m, p: epsilon(m, p, "triangular"),
    "rhs_T19": lambda m, p: _rhs_T19(m, 2, p),
}


@pytest.mark.parametrize("route", sorted(_M_BOUNDED))
@pytest.mark.parametrize("precision", [0, 5, 12])
def test_kernel_calls_stop_growing_with_m(monkeypatch, route, precision):
    # past m = precision + 1 no residue, factor or divisor that m adds can
    # reach a stored coefficient, so no kernel call is spent on one
    calls = []
    for name in ("mul_one_minus_uqk", "div_one_minus_uqk", "add_scaled_shifted"):
        def counted(*args, _real=getattr(kernels, name)):
            calls.append(1)
            return _real(*args)
        monkeypatch.setattr(kernels, name, counted)
    counts = []
    for m in (precision + 2, precision + 3, 10 * precision + 50, 20000):
        calls.clear()
        _M_BOUNDED[route](m, precision)
        counts.append(len(calls))
    assert len(set(counts)) == 1, counts


@pytest.mark.parametrize("precision", [0, 1, 5, 40, 58, 59, 60, 61])
def test_m_bounded_loops_match_uncapped_loops(precision):
    m = 60
    for n_sum in (None, 0, 1, 2, 3, 7):
        assert list(gf_Bj_lhs(m, n_sum, precision).coeffs) == \
            _gf_Bj_lhs_full_width(m, n_sum, precision)
    for n_sum in (1, 2):
        assert list(_rhs_T19(m, n_sum, precision).coeffs) == \
            _rhs_T19_uncapped(m, n_sum, precision)


def test_epsilon3_intermediate_sum_form():
    # the same series as a base-product times a weighted sum of shifted
    # conjugate products: (q;q)_inf * sum_j q^(3j)/(q;q)_j *
    # [(w q^(j+1); q)_inf + (w^2 q^(j+1); q)_inf], as CycInt lists
    from glaisher import kernels
    from glaisher.ring import CycInt, cyc_root_power
    from glaisher.series import PochSpec, inv_pochhammer, map_ring, pochhammer

    n_max = 60
    zero = CycInt.zero(3)
    total = [zero] * (n_max + 1)
    j = 0
    while 3 * j <= n_max:
        weight = Series.from_coeffs([0] * (3 * j) + [1], n_max) * \
            inv_pochhammer(1, 1, j, n_max)
        bracket = [zero] * (n_max + 1)
        for u in (cyc_root_power(3, 1), cyc_root_power(3, 2)):
            w = [CycInt.one(3)] + [zero] * n_max
            for i in range(j + 1, n_max + 1):
                kernels.mul_one_minus_uqk(w, u, i)
            kernels.add_scaled_shifted(bracket, w, 0, 1)
        kernels.add_scaled_shifted(
            total, kernels.conv_truncated(list(weight.coeffs), bracket,
                                          n_max, zero), 0, 1)
        j += 1
    base = list(pochhammer(PochSpec(1, 1, 1, None), n_max).coeffs)
    product = kernels.conv_truncated(base, total, n_max, zero)
    assert map_ring(product) == epsilon(3, n_max, "triangular")


def test_epsilon3_support_characterization():
    n_max = 2000
    e = epsilon(3, n_max, "triangular")
    closed = epsilon(3, n_max, "closed3")
    assert e == closed
    tri_shift = set()
    k = 0
    while k * (k + 1) // 2 + 1 <= n_max:
        tri_shift.add(k * (k + 1) // 2 + 1)
        k += 1
    for n in range(1, n_max + 1):
        if n in tri_shift:
            assert e.coeff(n) != 0
        else:
            assert e.coeff(n) == 0
    # value law at shifted triangular spots, k >= 2
    from glaisher.ring import chi
    for k in range(2, 62):
        n = k * (k + 1) // 2 + 1
        if n <= n_max:
            expected = (-1 if k & 1 else 1) * chi(3, k - 1)
            assert e.coeff(n) == expected
            assert expected in (-2, -1, 1, 2)
