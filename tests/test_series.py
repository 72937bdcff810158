"""Truncated series algebra: exactness, product expansions, Gaussian
binomials, and the cyclotomic-to-integer conversion."""

import math
import random

import pytest

from glaisher import kernels
from glaisher.genfun import _epsilon_triangular, _tri
from glaisher.partitions import _mult_choice_update
from glaisher.ring import (
    CycInt,
    chi,
    cyc_root_power,
    cyclotomic_polynomial,
    euler_phi,
)
from glaisher.series import (
    CoefficientRangeError,
    CyclotomicRing,
    NotIntegerCoefficientError,
    PochSpec,
    PrecisionMismatchError,
    Series,
    Z,
    inv_pochhammer,
    map_ring,
    pochhammer,
    qbinomial,
    qbinomial_poly,
)


def S(*coeffs):
    return Series(Z, coeffs)


def test_add_sub_mul_basics():
    a = Series.from_coeffs(Z, [1, 1], 3)   # 1 + q
    b = Series.from_coeffs(Z, [1, -1], 3)  # 1 - q
    assert (a * b).coeffs == (1, 0, -1, 0)
    assert (a + b).coeffs == (2, 0, 0, 0)
    assert (a - b).coeffs == (0, 2, 0, 0)


def test_triple_product_expansion():
    out = Series.one(Z, 6)
    for k in (1, 2, 3):
        out = out * Series.from_coeffs(Z, [1] + [0] * (k - 1) + [-1], 6)
    assert out.coeffs == (1, -1, -1, 0, 1, 1, -1)


def test_precision_and_ring_mismatch_rejected():
    with pytest.raises(PrecisionMismatchError):
        Series.one(Z, 3) + Series.one(Z, 4)
    with pytest.raises(PrecisionMismatchError):
        Series.one(Z, 3) * Series.one(CyclotomicRing(3), 3)


def test_mul_commutes_on_random_series():
    rng = random.Random(42)
    for _ in range(20):
        a = Series(Z, [rng.randint(-9, 9) for _ in range(17)])
        b = Series(Z, [rng.randint(-9, 9) for _ in range(17)])
        c = Series(Z, [rng.randint(-9, 9) for _ in range(17)])
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_pochhammer_two_factors():
    s = pochhammer(PochSpec(1, 1, 1, 2), 4)
    assert s.coeffs == (1, -1, -1, 1, 0)


def test_pochhammer_single_cyclotomic_factor():
    w = cyc_root_power(3, 1)
    s = pochhammer(PochSpec(w, 2, 1, 1), 4)
    ring = CyclotomicRing(3)
    assert s.ring == ring
    assert s.coeffs == (ring.one, ring.zero, -w, ring.zero, ring.zero)


def test_pochhammer_infinite_pentagonal_prefix():
    s = pochhammer(PochSpec(1, 1, 1, None), 6)
    assert s.coeffs == (1, -1, -1, 0, 0, 1, 0)


def test_pentagonal_sign_pattern_to_100():
    s = pochhammer(PochSpec(1, 1, 1, None), 100)
    expected = [0] * 101
    for k in range(-20, 21):
        n = k * (3 * k - 1) // 2
        if 0 <= n <= 100:
            expected[n] = -1 if k & 1 else 1
    assert list(s.coeffs) == expected


def test_inv_pochhammer_single_factor():
    assert inv_pochhammer(1, 2, 1, 4).coeffs == (1, 1, 1, 1, 1)


def test_inv_pochhammer_partition_numbers():
    assert inv_pochhammer(1, 1, None, 5).coeffs == (1, 1, 2, 3, 5, 7)
    assert inv_pochhammer(1, 1, None, 10).coeff(10) == 42


def test_inv_pochhammer_two_spread_factors():
    # 1/((1-q^2)(1-q^5)): count sums 2a + 5b
    assert inv_pochhammer(2, 3, 2, 7).coeffs == (1, 0, 1, 0, 1, 1, 1, 1)


def test_pochhammer_times_inverse_is_one():
    rng = random.Random(7)
    for _ in range(20):
        e = rng.randint(1, 6)
        s = rng.randint(1, 6)
        count = rng.choice([None, 0, 1, 2, 3, 5, 8])
        p = pochhammer(PochSpec(1, e, s, count), 64)
        inv = inv_pochhammer(e, s, count, 64)
        assert p * inv == Series.one(Z, 64), (e, s, count)


def test_bad_poch_spec_rejected():
    with pytest.raises(ValueError):
        PochSpec(1, 0, 1, None)
    with pytest.raises(ValueError):
        PochSpec(1, 1, 0, None)
    with pytest.raises(ValueError):
        inv_pochhammer(0, 1, None, 5)


def test_qbinomial_examples():
    assert qbinomial(1, 1, 10).coeffs[:3] == (1, 1, 0)
    assert qbinomial(2, 2, 10).coeffs[:6] == (1, 1, 2, 1, 1, 0)
    assert qbinomial(0, 5, 10).coeffs == (1,) + (0,) * 10
    assert qbinomial_poly(-1, 2) == [0]


def test_qbinomial_truncates_below_degree():
    full = qbinomial_poly(3, 3)
    assert len(full) == 10  # degree a*b = 9
    assert list(qbinomial(3, 3, 4).coeffs) == full[:5]


@pytest.mark.parametrize("a", range(9))
@pytest.mark.parametrize("b", range(9))
def test_qbinomial_symmetry(a, b):
    assert qbinomial_poly(a, b) == qbinomial_poly(b, a)


def test_qbinomial_specializes_to_binomial():
    for a in range(7):
        for b in range(7):
            assert sum(qbinomial_poly(a, b)) == math.comb(a + b, a)


def test_qbinomial_coefficients_nonnegative():
    for a in range(7):
        for b in range(7):
            assert all(c >= 0 for c in qbinomial_poly(a, b))


def test_coeff_access_and_range_errors():
    s = S(1, 0, 3)
    assert s.coeff(2) == 3
    with pytest.raises(CoefficientRangeError):
        s.coeff(3)
    with pytest.raises(CoefficientRangeError):
        s.coeff(-1)


def test_truncate_is_explicit():
    s = S(1, 2, 3, 4)
    assert s.truncate(1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        s.truncate(9)


def test_map_ring_constant_coords():
    ring = CyclotomicRing(3)
    s = Series(ring, [CycInt.from_int(3, c) for c in (5, -2, 0)])
    assert map_ring(s).coeffs == (5, -2, 0)


def test_map_ring_sum_of_conjugate_products():
    # sum over the two nontrivial cube roots u of prod_{i>=1}(1 - u q^i);
    # cross-checked against the character-sum expansion
    # sum_k (-1)^k chi_3(k) q^(k(k+1)/2) / (q;q)_k.
    n = 6
    total = pochhammer(PochSpec(cyc_root_power(3, 1), 1, 1, None), n) + \
        pochhammer(PochSpec(cyc_root_power(3, 2), 1, 1, None), n)
    got = map_ring(total)

    expected = Series.zero(Z, n)
    k = 0
    while k * (k + 1) // 2 <= n:
        shift = [0] * (k * (k + 1) // 2) + [(-1 if k & 1 else 1) * chi(3, k)]
        term = Series.from_coeffs(Z, shift, n) * inv_pochhammer(1, 1, k, n)
        expected = expected + term
        k += 1
    assert got == expected
    assert got.coeffs == (2, 1, 1, 0, 0, -1, -3)


def test_map_ring_flags_first_bad_exponent():
    ring = CyclotomicRing(3)
    coeffs = [ring.one, ring.zero, ring.zero, CycInt(3, (0, 1)), CycInt(3, (0, 2))]
    with pytest.raises(NotIntegerCoefficientError) as err:
        map_ring(Series(ring, coeffs))
    assert err.value.exponent == 3


def test_map_ring_requires_cyclotomic_input():
    with pytest.raises(TypeError):
        map_ring(Series.one(Z, 3))


def test_series_is_immutable_and_hashable():
    s = S(1, 2)
    with pytest.raises(AttributeError):
        s.ring = Z
    assert hash(s) == hash(S(1, 2))


def test_scalar_multiplication():
    assert (3 * S(1, -2)).coeffs == (3, -6)
    assert (-S(1, -2)).coeffs == (-1, 2)


# -- kernels ------------------------------------------------------------------


def test_factor_kernels_reject_exponent_below_one():
    for kern in (kernels.mul_one_minus_uqk, kernels.div_one_minus_uqk):
        with pytest.raises(ValueError):
            kern([1, 0], 1, 0)


def test_add_scaled_shifted_truncates():
    acc = [0, 0, 0]
    kernels.add_scaled_shifted(acc, [5, 5, 5], 2, 1)
    assert acc == [0, 0, 5]


def test_factor_kernels_mul_then_div_restores_int():
    rng = random.Random(12)
    for u in (1, -1, 3):
        for k in (1, 2, 7, 60):
            base = [rng.randint(-50, 50) for _ in range(50)]
            c = list(base)
            kernels.mul_one_minus_uqk(c, u, k)
            if k < len(base):
                assert c != base
            kernels.div_one_minus_uqk(c, u, k)
            assert c == base


def test_factor_kernels_mul_then_div_restores_cyclotomic():
    rng = random.Random(13)
    for m in (3, 4, 5):
        phi = euler_phi(m)
        base = [CycInt(m, [rng.randint(-5, 5) for _ in range(phi)])
                for _ in range(30)]
        for u in (1, cyc_root_power(m, 1), cyc_root_power(m, m - 1)):
            for k in (1, 2, 7):
                c = list(base)
                kernels.mul_one_minus_uqk(c, u, k)
                assert c != base
                kernels.div_one_minus_uqk(c, u, k)
                assert c == base


# -- reference loops for the fast paths -----------------------------------------


def _epsilon_triangular_dense(m, precision):
    """The triangular route with every term expanded to the full precision."""
    acc = [0] * (precision + 1)
    k = 0
    while _tri(k) <= precision:
        poly = [1] + [0] * (precision - _tri(k))
        for i in range(m - 1):
            kernels.mul_one_minus_uqk(poly, 1, k + 1 + i)
        kernels.add_scaled_shifted(acc, poly, _tri(k),
                                   (-1 if k & 1 else 1) * chi(m, k))
        k += 1
    return acc


@pytest.mark.parametrize("m", range(2, 10))
def test_triangular_degree_capped_terms_match_dense(m):
    for precision in (0, 1, 2, 3, 5, 17, 100, 3000):
        assert list(_epsilon_triangular(m, precision).coeffs) == \
            _epsilon_triangular_dense(m, precision), precision


@pytest.mark.parametrize("precision", [0, 1, 5, 40, 58, 59, 60, 61])
def test_triangular_large_m_matches_dense(precision):
    # at m = 60 most of each term's m - 1 factors lie past its width
    assert list(_epsilon_triangular(60, precision).coeffs) == \
        _epsilon_triangular_dense(60, precision)


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
    rng = random.Random(21)
    for _ in range(400):
        m = rng.randint(2, 7)
        n = rng.randint(0, 80)
        k = rng.randint(1, 90)
        dp = [rng.randint(-10 ** 20, 10 ** 20) for _ in range(n + 1)]
        before = list(dp)
        assert _mult_choice_update(dp, k, m) == \
            _mult_choice_update_direct(dp, k, m), (m, n, k)
        assert dp == before


def _cyc_mul_reference(a, b):
    """Schoolbook product, then the remainder modulo Phi_m by long division."""
    m = a.m
    phi_coeffs = cyclotomic_polynomial(m).coefficients
    phi = len(phi_coeffs) - 1
    prod = [0] * (2 * phi - 1)
    for i, ai in enumerate(a.coords):
        for j, bj in enumerate(b.coords):
            prod[i + j] += ai * bj
    for t in range(len(prod) - 1, phi - 1, -1):
        c = prod[t]
        for d, pd in enumerate(phi_coeffs):
            prod[t - phi + d] -= c * pd
    return CycInt(m, prod[:phi])


def _assert_valid_cycint(x, m):
    assert type(x) is CycInt and x.m == m
    assert type(x.coords) is tuple and len(x.coords) == euler_phi(m)
    assert all(type(c) is int for c in x.coords)
    assert x == CycInt(m, x.coords) and hash(x) == hash(CycInt(m, x.coords))


def test_cycint_arithmetic_matches_validating_constructor():
    rng = random.Random(31)
    for m in (2, 3, 4, 5, 6, 7, 9, 12):
        phi = euler_phi(m)
        for _ in range(40):
            a = CycInt(m, [rng.randint(-10 ** 12, 10 ** 12) for _ in range(phi)])
            b = CycInt(m, [rng.randint(-10 ** 12, 10 ** 12) for _ in range(phi)])
            c = rng.randint(-99, 99)
            cases = [
                (a + b, CycInt(m, [x + y for x, y in zip(a.coords, b.coords)])),
                (a - b, CycInt(m, [x - y for x, y in zip(a.coords, b.coords)])),
                (-a, CycInt(m, [-x for x in a.coords])),
                (a * b, _cyc_mul_reference(a, b)),
                (a + c, CycInt(m, [a.coords[0] + c, *a.coords[1:]])),
                (c - a, CycInt(m, [c - a.coords[0], *(-x for x in a.coords[1:])])),
                (c * a, CycInt(m, [c * x for x in a.coords])),
            ]
            for got, want in cases:
                _assert_valid_cycint(got, m)
                assert got == want
    with pytest.raises(AttributeError):
        (a + b).coords = ()
