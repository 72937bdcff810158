"""Truncated series algebra: exactness, product expansions, Gaussian
binomials, and the cyclotomic-to-integer conversion."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glaisher import kernels
from glaisher.ring import (
    CycInt,
    chi,
    cyc_root_power,
    cyclotomic_polynomial,
    euler_phi,
)
from glaisher.series import (
    CoefficientRangeError,
    NotIntegerCoefficientError,
    PochSpec,
    PrecisionMismatchError,
    Series,
    inv_pochhammer,
    map_ring,
    pochhammer,
    qbinomial,
    qbinomial_poly,
)


def S(*coeffs):
    return Series(coeffs)


def test_add_sub_mul_basics():
    a = Series.from_coeffs([1, 1], 3)   # 1 + q
    b = Series.from_coeffs([1, -1], 3)  # 1 - q
    assert (a * b).coeffs == (1, 0, -1, 0)
    assert (a + b).coeffs == (2, 0, 0, 0)
    assert (a - b).coeffs == (0, 2, 0, 0)


def test_triple_product_expansion():
    out = Series.one(6)
    for k in (1, 2, 3):
        out = out * Series.from_coeffs([1] + [0] * (k - 1) + [-1], 6)
    assert out.coeffs == (1, -1, -1, 0, 1, 1, -1)


def test_precision_and_ring_mismatch_rejected():
    with pytest.raises(PrecisionMismatchError):
        Series.one(3) + Series.one(4)
    # coefficients are plain ints; Z[zeta_m] values enter only via map_ring
    for bad in (CycInt.one(3), True, 1.0):
        with pytest.raises(TypeError):
            Series([1, bad])


@st.composite
def _series_triples(draw):
    """Three integer series of one random precision."""
    n = draw(st.integers(0, 16))
    coeffs = st.lists(st.integers(), min_size=n + 1, max_size=n + 1)
    return tuple(Series(draw(coeffs)) for _ in range(3))


@settings(deadline=None, database=None)
@given(_series_triples())
def test_mul_commutes_on_random_series(abc):
    a, b, c = abc
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(deadline=None, database=None)
@given(_series_triples(), st.data())
def test_truncate_commutes_with_add_and_mul(abc, data):
    a, b, _ = abc
    p = data.draw(st.integers(0, a.precision))
    assert (a + b).truncate(p) == a.truncate(p) + b.truncate(p)
    assert (a * b).truncate(p) == a.truncate(p) * b.truncate(p)


def test_pochhammer_two_factors():
    s = pochhammer(PochSpec(1, 1, 1, 2), 4)
    assert s.coeffs == (1, -1, -1, 1, 0)


def test_pochhammer_single_cyclotomic_factor():
    # a Z[zeta_3] factor is a kernel call on a CycInt list, not a Series
    w = cyc_root_power(3, 1)
    one, zero = CycInt.one(3), CycInt.zero(3)
    c = [one] + [zero] * 4
    kernels.mul_one_minus_uqk(c, w, 2)
    assert c == [one, zero, -w, zero, zero]
    with pytest.raises(TypeError):
        pochhammer(PochSpec(w, 2, 1, 1), 4)


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
    # the truncated product at every precision of the kernel grid below
    rng = random.Random(7)
    for precision in _KERNEL_SIZES:
        for _ in range(20):
            e = rng.randint(1, 6)
            s = rng.randint(1, 6)
            count = rng.choice([None, 0, 1, 2, 3, 5, 8])
            p = pochhammer(PochSpec(1, e, s, count), precision)
            inv = inv_pochhammer(e, s, count, precision)
            assert p * inv == Series.one(precision), (e, s, count, precision)


def test_bad_poch_spec_rejected():
    with pytest.raises(ValueError):
        PochSpec(1, 0, 1, None)
    with pytest.raises(ValueError):
        PochSpec(1, 1, 0, None)
    with pytest.raises(ValueError):
        PochSpec(1, 1, 1, -1)
    # inv_pochhammer checks its offset, step and count as PochSpec does
    with pytest.raises(ValueError):
        inv_pochhammer(0, 1, None, 5)
    with pytest.raises(ValueError):
        inv_pochhammer(1, 0, None, 5)
    with pytest.raises(ValueError):
        inv_pochhammer(1, 1, -1, 5)


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


def test_qbinomial_raises_on_a_division_remainder(monkeypatch):
    # a divide that does nothing leaves (1 - q^2) undivided by (1 - q)
    monkeypatch.setattr(kernels, "div_one_minus_uqk", lambda c, u, k: None)
    with pytest.raises(ArithmeticError):
        qbinomial_poly(1, 1)


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
    got = map_ring([CycInt.from_int(3, c) for c in (5, -2, 0)])
    assert got == Series([5, -2, 0])
    assert all(type(c) is int for c in got.coeffs)


def test_map_ring_sum_of_conjugate_products():
    # sum over the two nontrivial cube roots u of prod_{i>=1}(1 - u q^i);
    # cross-checked against the character-sum expansion
    # sum_k (-1)^k chi_3(k) q^(k(k+1)/2) / (q;q)_k.
    n = 6
    total = [CycInt.zero(3)] * (n + 1)
    for j in (1, 2):
        w = [CycInt.one(3)] + [CycInt.zero(3)] * n
        for i in range(1, n + 1):
            kernels.mul_one_minus_uqk(w, cyc_root_power(3, j), i)
        kernels.add_scaled_shifted(total, w, 0, 1)
    got = map_ring(total)

    expected = Series.zero(n)
    k = 0
    while k * (k + 1) // 2 <= n:
        shift = [0] * (k * (k + 1) // 2) + [(-1 if k & 1 else 1) * chi(3, k)]
        term = Series.from_coeffs(shift, n) * inv_pochhammer(1, 1, k, n)
        expected = expected + term
        k += 1
    assert got == expected
    assert got.coeffs == (2, 1, 1, 0, 0, -1, -3)


def test_map_ring_flags_first_bad_exponent():
    coeffs = [CycInt.one(3), CycInt.zero(3), CycInt.zero(3), CycInt(3, (0, 1)),
              CycInt(3, (0, 2))]
    with pytest.raises(NotIntegerCoefficientError) as err:
        map_ring(coeffs)
    assert err.value.exponent == 3
    assert err.value.value == CycInt(3, (0, 1))


def test_series_is_immutable_and_hashable():
    s = S(1, 2)
    with pytest.raises(AttributeError):
        s._coeffs = (9,)
    assert s.coeffs == (1, 2)
    assert hash(s) == hash(S(1, 2))


def test_scalar_multiplication():
    assert (3 * S(1, -2)).coeffs == (3, -6)
    assert (S(1, -2) * 3).coeffs == (3, -6)
    assert (-S(1, -2)).coeffs == (-1, 2)
    for bad in (True, CycInt.one(3)):
        with pytest.raises(TypeError):
            S(1, -2) * bad
        with pytest.raises(TypeError):
            bad * S(1, -2)


# -- kernels ------------------------------------------------------------------


def test_factor_kernels_reject_exponent_below_one():
    for kern in (kernels.mul_one_minus_uqk, kernels.div_one_minus_uqk):
        with pytest.raises(ValueError):
            kern([1, 0], 1, 0)


def test_add_scaled_shifted_truncates():
    acc = [0, 0, 0]
    kernels.add_scaled_shifted(acc, [5, 5, 5], 2, 1)
    assert acc == [0, 0, 5]


@settings(deadline=None, database=None)
@given(st.lists(st.integers(), min_size=1, max_size=60), st.integers(),
       st.integers(1, 70))
def test_factor_kernels_mul_then_div_restores_int(base, u, k):
    c = list(base)
    kernels.mul_one_minus_uqk(c, u, k)
    # every new c[t] is read off the old values: c[t] - u*c[t - k]
    assert c == [b - u * base[t - k] if t >= k else b
                 for t, b in enumerate(base)]
    if u and k < len(base) and any(base[:len(base) - k]):
        assert c != base
    kernels.div_one_minus_uqk(c, u, k)
    assert c == base


_KERNEL_SIZES = (0, 1, 2, 3, 8, 9, 15, 16, 24, 35, 63, 79)


def _kernel_lists(rng, cell, zero, sizes=_KERNEL_SIZES):
    """Lists of n + 1 cells for each n in sizes: dense, in runs broken by
    runs of zeros, and zero but for a tail, so that the divide's block form
    meets blocks whose source is all zero."""
    out = []
    for n in sizes:
        runs = []
        while len(runs) <= n:
            width = rng.randint(1, 12)
            runs += [cell() if rng.random() < 0.5 else zero
                     for _ in range(width)]
        tail = n - n // 4
        out += [[cell() for _ in range(n + 1)], runs[:n + 1],
                [zero] * tail + [cell() for _ in range(n + 1 - tail)]]
    return out


def _int_cell(rng):
    return lambda: rng.choice([-2, -1, 1, 3, 10 ** 20])


def _cyc_cell(rng, m):
    return lambda: CycInt(m, [rng.randint(-3, 3) for _ in range(euler_phi(m))])


_CYC_SIZES = (0, 3, 9, 35, 79)  # CycInt arithmetic is slow: fewer lists


def _unit_cases():
    """(unit, lists): the int units 1, -1 and 3 on int lists, and 1 and the
    primitive roots zeta_m and zeta_m^(m-1) on CycInt lists at m = 3, 4
    and 5."""
    rng = random.Random(5)
    ints = _kernel_lists(rng, _int_cell(rng), 0)
    cases = [pytest.param(u, ints, id=f"int-{u}") for u in (1, -1, 3)]
    for m in (3, 4, 5):
        cyc = _kernel_lists(rng, _cyc_cell(rng, m), CycInt.zero(m), _CYC_SIZES)
        cases += [pytest.param(1, cyc, id=f"cyc{m}-1"),
                  pytest.param(cyc_root_power(m, 1), cyc, id=f"cyc{m}-root"),
                  pytest.param(cyc_root_power(m, m - 1), cyc,
                               id=f"cyc{m}-root-inverse")]
    return cases


@pytest.mark.parametrize("u,lists", _unit_cases())
def test_factor_kernels_mul_then_div_restores_every_list(u, lists):
    # every k from 1 to past the end: both divide forms (k^2 <= n and
    # k^2 > n) and the all-zero blocks the second one skips; the multiply
    # reads each c[t - k] before it changes, and the divide undoes it
    for base in lists:
        for k in range(1, len(base) + 1):
            c = list(base)
            kernels.mul_one_minus_uqk(c, u, k)
            assert c == [b - u * base[t - k] if t >= k else b
                         for t, b in enumerate(base)], (len(base), k)
            kernels.div_one_minus_uqk(c, u, k)
            assert c == base, (len(base), k)


def _scale_cases():
    """(scale, zero, acc lists, src lists): int scales on int lists, and a
    CycInt scale on int and on CycInt sources into CycInt accumulators."""
    rng = random.Random(9)
    ints = _kernel_lists(rng, _int_cell(rng), 0)
    cases = [pytest.param(s, 0, ints, ints, id=f"int{s}")
             for s in (0, 1, -1, 2)]
    for m in (3, 5):
        zero = CycInt.zero(m)
        cyc = _kernel_lists(rng, _cyc_cell(rng, m), zero, _CYC_SIZES)
        int_srcs = _kernel_lists(rng, _int_cell(rng), 0, _CYC_SIZES)
        root = cyc_root_power(m, 2)
        cases += [
            pytest.param(root, zero, cyc, int_srcs, id=f"cyc{m}-int-src"),
            pytest.param(root, zero, cyc, cyc, id=f"cyc{m}-cyc-src"),
            pytest.param(1, zero, cyc, cyc, id=f"cyc{m}-1")]
    return cases


@pytest.mark.parametrize("scale,zero,accs,srcs", _scale_cases())
def test_add_scaled_shifted_adds_a_truncated_product(scale, zero, accs, srcs):
    # acc + scale q^shift src, the product taken by conv_truncated, for
    # sources shorter and longer than the accumulator and shifts up to two
    # cells past its end
    for acc in accs[::2]:
        for src in srcs[1::3]:
            for shift in range(len(acc) + 3):
                got = list(acc)
                kernels.add_scaled_shifted(got, src, shift, scale)
                term = kernels.conv_truncated([zero] * shift + [scale], src,
                                              len(acc) - 1, zero)
                assert got == [a + t for a, t in zip(acc, term)], \
                    (len(acc), len(src), shift)


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
