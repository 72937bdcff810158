"""Exact scalar arithmetic: cyclotomic integers and the divisor character.

Everything here is built on Python's native arbitrary-precision ``int``
(coefficient growth blows past 64 bits long before the precisions this
package targets).  Elements of Z[zeta_m] are kept in the power basis
1, z, ..., z^(phi(m)-1) and reduced modulo the m-th cyclotomic polynomial,
so representations are unique and "is this a rational integer?" is a
constant-time check on the coordinates.

Every reduction is one long division by a monic polynomial,
`_poly_divmod`: it divides x^m - 1 by each Phi_d to build Phi_m (checked
exact), builds the cached table of z^e as remainders, and reduces the
schoolbook product of two elements to its remainder.
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


def _poly_divmod(num: list[int], den: tuple) -> tuple[list[int], list[int]]:
    """Long division of an integer polynomial, with at least deg(den)
    coefficients, by a monic one, coefficients in ascending degree: the
    quotient and the remainder, deg(den) coefficients."""
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    dd = len(den) - 1
    rem = list(num)
    quot = [0] * (len(rem) - dd)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = rem[i + dd]
        if c:
            for j, d in enumerate(den, i):
                rem[j] -= c * d
    return quot, rem[:dd]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> CycPoly:
    """Phi_m: x^m - 1 divided exactly by Phi_d for each proper divisor d
    of m in turn, each Phi_d itself computed the same way (recursively).
    At m = 1 there is no proper divisor, and x - 1 is Phi_1.  Each quotient
    of a monic polynomial by a monic one is monic, so Phi_m is too."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    quot = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            phi_d = cyclotomic_polynomial(d).coefficients
            quot, rem = _poly_divmod(quot, phi_d)
            if any(rem):
                raise ArithmeticError("polynomial division left a remainder")
    return CycPoly(m, tuple(quot))


@lru_cache(maxsize=None)
def _root_powers(m: int) -> tuple[tuple[int, ...], ...]:
    """Power-basis coordinates of z^e for e in [0, m), each the remainder of
    x^e modulo Phi_m, taken as that of x times the row before; z^e for any
    e >= 0 is row e % m."""
    phi_poly = cyclotomic_polynomial(m).coefficients
    powers = [[1] + [0] * (len(phi_poly) - 2)]
    while len(powers) < m:
        powers.append(_poly_divmod([0] + powers[-1], phi_poly)[1])
    return tuple(map(tuple, powers))


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
        coords = tuple(coords)
        if len(coords) != euler_phi(m):
            raise ValueError(f"need exactly phi({m}) = {euler_phi(m)} "
                             f"coordinates, got {len(coords)}")
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
        return cls(m, (c,) + (0,) * (euler_phi(m) - 1))

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
        a, b = self.coords, o.coords
        prod = [0] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b, i):
                prod[j] += ai * bj
        phi_poly = cyclotomic_polynomial(self.m).coefficients
        return CycInt._wrap(self.m, tuple(_poly_divmod(prod, phi_poly)[1]))

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
