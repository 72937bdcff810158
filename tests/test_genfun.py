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

from glaisher import kernels
from glaisher.genfun import (
    EPSILON_ROUTES,
    epsilon,
    gf_Bj_lhs,
    gf_C,
    gf_D,
    gf_regular,
    p_polynomial,
)
from glaisher.partitions import count_A, count_B, count_C, count_D
from glaisher.series import Series, Z


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


def test_gf_C_examples():
    assert gf_C(3, 6).coeffs == (1, 0, 0, 1, 1, 2, 3)
    for m in range(2, 7):
        assert gf_C(m, 8).coeff(1) == 0


def test_gf_D_examples():
    assert gf_D(3, 5).coeffs == (1, 1, 2, 3, 4, 6)
    assert gf_D(2, 8).coeff(0) == 1


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
    assert e == Series.one(Z, 50)


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


@pytest.mark.parametrize("m", [4, 5, 6])
def test_p_polynomial_is_consistent_across_routes(m):
    # the qbinomial route embeds P_m; its agreement with the triangular
    # route over a long window is the only independent anchor for P_m
    assert epsilon(m, 60, "qbinomial") == epsilon(m, 60, "triangular")


def test_epsilon_tiny_precisions():
    assert epsilon(3, 0, "definition").coeffs == (2,)
    assert epsilon(3, 1, "definition").coeffs == (2, -1)
    assert epsilon(4, 2, "triangular").coeffs == (3, -2, -3)


def test_gf_Bj_lhs_zero_blocks_is_one():
    assert gf_Bj_lhs(3, 0, 8) == Series.one(Z, 8)


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


@pytest.mark.parametrize("m", range(2, 8))
def test_gf_Bj_lhs_truncated_blocks_match_full_width(m):
    rng = random.Random(40 + m)
    for n_sum in (None, 1, 2, 3, 4, 5, 6):
        for precision in (0, 1, m - 1, m, rng.randint(0, 300), rng.randint(0, 300)):
            assert list(gf_Bj_lhs(m, n_sum, precision).coeffs) == \
                _gf_Bj_lhs_full_width(m, n_sum, precision), (n_sum, precision)


def test_epsilon3_intermediate_sum_form():
    # the same series as a base-product times a weighted sum of shifted
    # conjugate products: (q;q)_inf * sum_j q^(3j)/(q;q)_j *
    # [(w q^(j+1); q)_inf + (w^2 q^(j+1); q)_inf]
    from glaisher.ring import cyc_root_power
    from glaisher.series import CyclotomicRing, PochSpec, inv_pochhammer, pochhammer

    n_max = 60
    ring = CyclotomicRing(3)

    def lift(s):
        return Series(ring, [ring.coerce(c) for c in s.coeffs])

    total = Series.zero(ring, n_max)
    j = 0
    while 3 * j <= n_max:
        weight = Series.from_coeffs(Z, [0] * (3 * j) + [1], n_max) * \
            inv_pochhammer(1, 1, j, n_max)
        bracket = (
            pochhammer(PochSpec(cyc_root_power(3, 1), j + 1, 1, None), n_max)
            + pochhammer(PochSpec(cyc_root_power(3, 2), j + 1, 1, None), n_max)
        )
        total = total + lift(weight) * bracket
        j += 1
    base = lift(pochhammer(PochSpec(1, 1, 1, None), n_max))
    from glaisher.series import map_ring
    assert map_ring(base * total) == epsilon(3, n_max, "triangular")


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
