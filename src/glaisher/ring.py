"""Exact scalar arithmetic: cyclotomic integers and the divisor character.

Everything here is built on Python's native arbitrary-precision ``int``
(coefficient growth blows past 64 bits long before the precisions this
package targets).  Elements of Z[zeta_m] are kept in the power basis
1, z, ..., z^(phi(m)-1) and reduced modulo the m-th cyclotomic polynomial,
so representations are unique and "is this a rational integer?" is a
constant-time check on the coordinates.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import add, neg, sub


class CycPoly(namedtuple("CycPoly", "m coefficients")):
    """The m-th cyclotomic polynomial, coefficients in ascending degree."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials; raises if a remainder is left."""
    num = list(num)
    dd = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    quot = [0] * (len(num) - dd)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + dd]
        quot[i] = c
        if c:
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> CycPoly:
    """Phi_m: x^m - 1 divided exactly by Phi_d for each proper divisor d
    of m in turn, each Phi_d itself computed the same way (recursively).
    At m = 1 there is no proper divisor, and x - 1 is Phi_1."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    quot = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            quot = _poly_divexact(quot, cyclotomic_polynomial(d).coefficients)
    if quot[-1] != 1:
        raise ArithmeticError(f"Phi_{m} came out non-monic")
    return CycPoly(m, tuple(quot))


@lru_cache(maxsize=None)
def _root_powers(m: int) -> tuple[tuple[int, ...], ...]:
    """Power-basis coordinates of z^e for e in [0, m); z^e for any e >= 0
    is row e % m."""
    phi_poly = cyclotomic_polynomial(m)
    phi = phi_poly.degree
    # z^phi = -(c_0 + c_1 z + ... + c_{phi-1} z^{phi-1})
    z_phi = [-c for c in phi_poly.coefficients[:phi]]
    row = [1] + [0] * (phi - 1)
    powers = []
    for _ in range(m):
        powers.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r + top * b for r, b in zip(row, z_phi)]
    return tuple(powers)


def euler_phi(m: int) -> int:
    """Euler's totient, read off as the degree of Phi_m."""
    return cyclotomic_polynomial(m).degree


class CycInt:
    """An element of Z[zeta_m] in the power basis modulo Phi_m.

    Immutable; supports +, -, * with other CycInt of the same m and with
    plain ints (coerced to constants; a product by an int just scales the
    coordinates).
    """

    __slots__ = ("m", "coords")

    def __init__(self, m: int, coords):
        if m < 2:
            raise ValueError("CycInt requires m >= 2")
        phi = len(_root_powers(m)[0])
        coords = tuple(coords)
        if len(coords) != phi:
            raise ValueError(
                f"need exactly phi({m}) = {phi} coordinates, got {len(coords)}"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *_):
        raise AttributeError("CycInt is immutable")

    @classmethod
    def _wrap(cls, m: int, coords: tuple) -> "CycInt":
        """Internal: adopt a coordinate tuple already known to be valid."""
        self = object.__new__(cls)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coords", coords)
        return self

    @classmethod
    def from_int(cls, m: int, c: int) -> "CycInt":
        phi = len(_root_powers(m)[0])
        return cls(m, (c,) + (0,) * (phi - 1))

    @classmethod
    def zero(cls, m: int) -> "CycInt":
        return cls.from_int(m, 0)

    @classmethod
    def one(cls, m: int) -> "CycInt":
        return cls.from_int(m, 1)

    def _coerce(self, other):
        if isinstance(other, CycInt):
            if other.m != self.m:
                raise ValueError(f"mixed cyclotomic orders {self.m} and {other.m}")
            return other
        if isinstance(other, int):
            return CycInt.from_int(self.m, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt._wrap(self.m, tuple(map(add, self.coords, o.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycInt._wrap(self.m, tuple(map(sub, self.coords, o.coords)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycInt._wrap(self.m, tuple(map(neg, self.coords)))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt._wrap(self.m, tuple(c * other for c in self.coords))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.m
        powers = _root_powers(m)
        a, b = self.coords, o.coords
        phi = len(a)
        prod = [0] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        for t in range(len(prod) - 1, phi - 1, -1):
            c = prod[t]
            if c:
                row = powers[t % m]
                for i in range(phi):
                    prod[i] += c * row[i]
        return CycInt._wrap(m, tuple(prod[:phi]))

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, CycInt):
            return self.m == other.m and self.coords == other.coords
        if isinstance(other, int):
            return self.coords == CycInt.from_int(self.m, other).coords
        return NotImplemented

    def __hash__(self):
        # a rational element equals its int, so it must hash like it
        if not any(self.coords[1:]):
            return hash(self.coords[0])
        return hash((self.m, self.coords))

    def __repr__(self):
        return f"CycInt({self.m}, {self.coords})"


def cyc_root_power(m: int, e: int) -> CycInt:
    """zeta_m^e (e taken mod m) in the power basis."""
    return CycInt(m, _root_powers(m)[e % m])


def cyc_as_integer(a: CycInt):
    """The value of `a` as a plain int when it is rational, else None."""
    if any(a.coords[1:]):
        return None
    return a.coords[0]


def chi(m: int, n: int) -> int:
    """Character sum over the nontrivial m-th roots of unity at exponent n:
    m-1 when m divides n, and -1 otherwise.  Negative n is fine (mathematical
    mod)."""
    if m < 2:
        raise ValueError("chi requires m >= 2")
    return m - 1 if n % m == 0 else -1
