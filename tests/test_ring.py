"""Cyclotomic scalar arithmetic: polynomial construction, power-basis
reduction, the divisor character, and exact ring axioms."""

import random

import pytest

from glaisher.ring import (
    CycInt,
    chi,
    cyc_as_integer,
    cyc_root_power,
    cyclotomic_polynomial,
    euler_phi,
)


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def test_cyclotomic_polynomial_small_cases():
    assert cyclotomic_polynomial(1).coefficients == (-1, 1)
    assert cyclotomic_polynomial(2).coefficients == (1, 1)
    assert cyclotomic_polynomial(3).coefficients == (1, 1, 1)
    assert cyclotomic_polynomial(4).coefficients == (1, 0, 1)
    assert cyclotomic_polynomial(6).coefficients == (1, -1, 1)
    # the first coefficient outside {-1, 0, 1}
    coeffs = cyclotomic_polynomial(105).coefficients
    assert coeffs[7] == coeffs[41] == -2


def test_cyclotomic_polynomial_rejects_zero():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


# 30, 60 and 105 have many divisors, each one a step of Phi_m's division
# chain
@pytest.mark.parametrize("m", [*range(1, 13), 30, 60, 105])
def test_divisor_product_recovers_x_m_minus_1(m):
    prod = [1]
    for d in range(1, m + 1):
        if m % d == 0:
            prod = poly_mul(prod, list(cyclotomic_polynomial(d).coefficients))
    expected = [0] * (m + 1)
    expected[0], expected[m] = -1, 1
    assert prod == expected


def test_euler_phi_matches_known_values():
    assert [euler_phi(m) for m in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_root_power_examples():
    assert cyc_root_power(3, 0).coords == (1, 0)
    assert cyc_root_power(3, 2).coords == (-1, -1)
    assert cyc_root_power(4, 3).coords == (0, -1)


def _x_power_mod_phi(m, e):
    """x^e reduced modulo Phi_m by long division."""
    phi_coeffs = cyclotomic_polynomial(m).coefficients
    phi = len(phi_coeffs) - 1
    rem = [0] * e + [1]
    for t in range(len(rem) - 1, phi - 1, -1):
        c = rem[t]
        for d, pd in enumerate(phi_coeffs):
            rem[t - phi + d] -= c * pd
    return tuple(rem[:phi] + [0] * (phi - len(rem)))


@pytest.mark.parametrize("m", [6, 10, 12, 30])
def test_root_powers_far_above_phi(m):
    # phi(m) is small against m here, so most exponents lie past the
    # degree 2 phi - 2 that one product of reduced elements reaches
    for e in range(-m, 2 * m + 1):
        assert cyc_root_power(m, e).coords == _x_power_mod_phi(m, e % m), e


@pytest.mark.parametrize("m", range(2, 13))
def test_root_powers_have_order_m(m):
    z = cyc_root_power(m, 1)
    acc = CycInt.one(m)
    for e in range(1, m + 1):
        acc = acc * z
        assert acc == cyc_root_power(m, e)
        assert acc == cyc_root_power(m, e - m)  # negative exponents wrap
    assert acc == 1


def test_arith_examples():
    w1, w2 = cyc_root_power(3, 1), cyc_root_power(3, 2)
    assert w1 + w2 == -1
    i = cyc_root_power(4, 1)
    assert i * i == -1
    assert (1 + w1) * (1 + w2) == 1


def test_as_integer():
    assert cyc_as_integer(CycInt.from_int(3, 7)) == 7
    assert cyc_as_integer(CycInt(3, (0, 1))) is None
    s = CycInt.zero(5)
    for e in range(1, 5):
        s = s + cyc_root_power(5, e)
    assert cyc_as_integer(s) == -1


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        CycInt.one(3) + CycInt.one(4)
    with pytest.raises(ValueError):
        CycInt.one(3) * CycInt.one(4)
    # comparison across orders is False, not an error
    assert CycInt.one(3) != CycInt.one(4)


def test_coords_length_enforced():
    with pytest.raises(ValueError):
        CycInt(3, (1,))
    with pytest.raises(ValueError):
        CycInt(1, (1,))


def test_chi_values():
    assert chi(3, 0) == 2
    assert chi(3, 4) == -1
    assert chi(4, -2) == -1
    with pytest.raises(ValueError):
        chi(1, 0)


@pytest.mark.parametrize("m", range(2, 9))
def test_chi_equals_root_of_unity_sum(m):
    for n in range(-20, 21):
        total = CycInt.zero(m)
        for j in range(1, m):
            total = total + cyc_root_power(m, j * n)
        assert cyc_as_integer(total) == chi(m, n), (m, n)


@pytest.mark.parametrize("m", range(2, 9))
def test_chi_window_sums_vanish(m):
    for n in range(-20, 21):
        assert sum(chi(m, n - r) for r in range(m)) == 0


@pytest.mark.parametrize("m", [3, 4, 5, 8])
def test_ring_axioms_on_random_triples(m):
    rng = random.Random(1234 + m)
    phi = euler_phi(m)

    def rand():
        return CycInt(m, tuple(rng.randint(-9, 9) for _ in range(phi)))

    for _ in range(60):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * CycInt.one(m) == a
        assert a + CycInt.zero(m) == a


@pytest.mark.parametrize("m", range(2, 13))
def test_int_scaling_matches_constant_product(m):
    # a plain int scales the coordinates; the full product by the constant
    # CycInt is the reference
    rng = random.Random(4321 + m)
    phi = euler_phi(m)
    ks = [0, 1, -1, 2, -7, 10 ** 30, -(10 ** 30)]
    for k in ks + rng.sample(range(-999, 999), 5):
        a = CycInt(m, tuple(rng.randint(-(10 ** 20), 10 ** 20)
                            for _ in range(phi)))
        expected = a * CycInt.from_int(m, k)
        assert a * k == expected
        assert k * a == expected


@pytest.mark.parametrize("m", range(2, 13))
def test_rational_element_hashes_like_its_int(m):
    # equal objects must hash equal, so a rational CycInt finds its int
    # in a set or dict and the int finds it
    rng = random.Random(2468 + m)
    ks = [0, 1, -1, 10 ** 30, -(10 ** 30)]
    for k in ks + [rng.randint(-(10 ** 12), 10 ** 12) for _ in range(5)]:
        a = CycInt.from_int(m, k)
        assert a == k and hash(a) == hash(k)
        assert k in {a} and a in {k}
        assert {k: "int"}.get(a) == "int"
        assert {a: "cyc"}.get(k) == "cyc"


def test_immutable():
    a = CycInt.one(3)
    with pytest.raises(AttributeError):
        a.coords = (0, 0)
