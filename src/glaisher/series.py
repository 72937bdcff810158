"""Truncated dense formal power series over an exact coefficient ring.

A Series of precision N stores exactly the coefficients of q^0..q^N; all
arithmetic is exact below the truncation point and anything above it is
discarded, never wrapped.  Coefficients live in Z (plain int) or in Z[zeta_m]
(CycInt); the ring is explicit so that mixing them is an error instead of an
accident.

Products are naive O(N^2) convolutions on purpose: coefficients are bignums
and exactness is the point.  The inner loops live in `glaisher.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .ring import CycInt, cyc_as_integer


class PrecisionMismatchError(ValueError):
    """Binary series operation with unequal precisions or rings."""


class CoefficientRangeError(IndexError):
    """Coefficient requested beyond the stored precision."""


class NotIntegerCoefficientError(ValueError):
    """A cyclotomic series coefficient failed the rational-integer check."""

    def __init__(self, exponent: int, value):
        self.exponent = exponent
        self.value = value
        super().__init__(
            f"coefficient of q^{exponent} is not a rational integer: {value!r}"
        )


class IntegerRing:
    """The ring of plain arbitrary-precision integers."""

    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, int) and not isinstance(x, bool):
            return x
        raise TypeError(f"not an integer coefficient: {x!r}")

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash(IntegerRing)

    def __repr__(self):
        return "Z"


Z = IntegerRing()


class CyclotomicRing:
    """Z[zeta_m], elements represented as CycInt."""

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("cyclotomic ring requires m >= 2")
        self.m = m
        self.zero = CycInt.zero(m)
        self.one = CycInt.one(m)

    def coerce(self, x):
        if isinstance(x, CycInt):
            if x.m != self.m:
                raise TypeError(f"CycInt of order {x.m} in Z[zeta_{self.m}]")
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return CycInt.from_int(self.m, x)
        raise TypeError(f"not a Z[zeta_{self.m}] coefficient: {x!r}")

    def __eq__(self, other):
        return isinstance(other, CyclotomicRing) and other.m == self.m

    def __hash__(self):
        return hash((CyclotomicRing, self.m))

    def __repr__(self):
        return f"Z[zeta_{self.m}]"


def _ring_of_scalar(u):
    if isinstance(u, CycInt):
        return CyclotomicRing(u.m)
    return Z


class Series:
    """Immutable truncated power series: precision N, coefficients q^0..q^N."""

    __slots__ = ("ring", "_coeffs")

    def __init__(self, ring, coeffs):
        coeffs = tuple(ring.coerce(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a series stores at least the q^0 coefficient")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("Series is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_coeffs(cls, ring, coeffs, precision: int) -> "Series":
        """Build at a stated precision, zero-padding short coefficient lists."""
        coeffs = list(coeffs)
        if len(coeffs) > precision + 1:
            raise ValueError("more coefficients than the stated precision holds")
        coeffs += [ring.zero] * (precision + 1 - len(coeffs))
        return cls(ring, coeffs)

    @classmethod
    def zero(cls, ring, precision: int) -> "Series":
        return cls(ring, [ring.zero] * (precision + 1))

    @classmethod
    def one(cls, ring, precision: int) -> "Series":
        return cls(ring, [ring.one] + [ring.zero] * precision)

    @classmethod
    def _wrap(cls, ring, coeffs: list) -> "Series":
        """Internal: adopt an already-coerced coefficient list."""
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_coeffs", tuple(coeffs))
        return self

    # -- observers ------------------------------------------------------------

    @property
    def precision(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def coeff(self, n: int):
        """Exact coefficient of q^n; out-of-range is an error, never zero."""
        if n < 0 or n > self.precision:
            raise CoefficientRangeError(
                f"exponent {n} outside stored range 0..{self.precision}"
            )
        return self._coeffs[n]

    def truncate(self, precision: int) -> "Series":
        """Drop coefficients above `precision` (explicit, never implicit)."""
        if precision < 0 or precision > self.precision:
            raise ValueError(f"cannot truncate to precision {precision}")
        return Series._wrap(self.ring, list(self._coeffs[: precision + 1]))

    # -- arithmetic -----------------------------------------------------------

    def _check_compatible(self, other: "Series"):
        if self.ring != other.ring:
            raise PrecisionMismatchError(
                f"mixed coefficient rings {self.ring} and {other.ring}"
            )
        if self.precision != other.precision:
            raise PrecisionMismatchError(
                f"mixed precisions {self.precision} and {other.precision}; "
                f"truncate() explicitly first"
            )

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        return Series._wrap(
            self.ring, [a + b for a, b in zip(self._coeffs, other._coeffs)]
        )

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        return Series._wrap(
            self.ring, [a - b for a, b in zip(self._coeffs, other._coeffs)]
        )

    def __neg__(self):
        return Series._wrap(self.ring, [-a for a in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, Series):
            self._check_compatible(other)
            out = kernels.conv_truncated(
                list(self._coeffs), list(other._coeffs), self.precision,
                self.ring.zero,
            )
            return Series._wrap(self.ring, out)
        try:
            scalar = self.ring.coerce(other)
        except TypeError:
            return NotImplemented
        return Series._wrap(self.ring, [scalar * c for c in self._coeffs])

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.precision == other.precision
            and self._coeffs == other._coeffs
        )

    def __hash__(self):
        return hash((self.ring, self._coeffs))

    def __repr__(self):
        shown = ", ".join(repr(c) for c in self._coeffs[:9])
        if self.precision > 8:
            shown += ", ..."
        return f"Series(N={self.precision}, {self.ring}; [{shown}])"


@dataclass(frozen=True)
class PochSpec:
    """One rising product: factors (1 - unit*q^(offset + step*i)).

    count=None means the infinite product; factors whose exponent exceeds the
    working precision are dropped since they cannot touch stored coefficients.
    """

    unit: object = 1
    offset: int = 1
    step: int = 1
    count: int | None = None

    def __post_init__(self):
        if self.offset < 1 or self.step < 1:
            raise ValueError("offset and step must be >= 1 (unit constant term)")
        if self.count is not None and self.count < 0:
            raise ValueError("count must be non-negative or None (infinite)")


def pochhammer(spec: PochSpec, precision: int) -> Series:
    """Expand prod_i (1 - u*q^(e+s*i)) for i = 0..count-1 (or to infinity),
    truncated at `precision`."""
    ring = _ring_of_scalar(spec.unit)
    u = ring.coerce(spec.unit)
    c = [ring.one] + [ring.zero] * precision
    i = 0
    while spec.count is None or i < spec.count:
        exp = spec.offset + spec.step * i
        if exp > precision:
            break
        kernels.mul_one_minus_uqk(c, u, exp)
        i += 1
    return Series._wrap(ring, c)


def inv_pochhammer(
    offset: int, step: int, count: int | None, precision: int
) -> Series:
    """Expand 1 / prod_i (1 - q^(e+s*i)): the product of geometric series
    1 + q^k + q^(2k) + ...; exact inverse of pochhammer with unit 1."""
    if offset < 1 or step < 1:
        raise ValueError("offset and step must be >= 1")
    if count is not None and count < 0:
        raise ValueError("count must be non-negative or None (infinite)")
    c = [1] + [0] * precision
    i = 0
    while count is None or i < count:
        exp = offset + step * i
        if exp > precision:
            break
        kernels.div_one_minus_uqk(c, 1, exp)
        i += 1
    return Series._wrap(Z, c)


def _poly_mul_one_minus(poly: list[int], k: int) -> list[int]:
    """Exact polynomial multiply by (1 - q^k)."""
    n = len(poly) + k
    return [
        (poly[t] if t < len(poly) else 0) - (poly[t - k] if 0 <= t - k else 0)
        for t in range(n)
    ]


def _poly_divexact_one_minus(poly: list[int], k: int) -> list[int]:
    """Exact polynomial division by (1 - q^k); the remainder must vanish."""
    g = list(poly)
    for t in range(k, len(g)):
        g[t] += g[t - k]
    if any(g[len(g) - k:]):
        raise ArithmeticError(f"division by (1 - q^{k}) left a remainder")
    return g[: len(g) - k]


def qbinomial_poly(a: int, b: int) -> list[int]:
    """The Gaussian binomial [a+b, b]_q as an exact coefficient list
    (degree a*b); zero polynomial for negative arguments."""
    if a < 0 or b < 0:
        return [0]
    poly = [1]
    for i in range(1, b + 1):
        poly = _poly_mul_one_minus(poly, a + i)
        poly = _poly_divexact_one_minus(poly, i)
    return poly


def qbinomial(a: int, b: int, precision: int) -> Series:
    """The Gaussian binomial [a+b, b]_q as a Series, truncated at `precision`
    when that is below the polynomial degree a*b."""
    poly = qbinomial_poly(a, b)
    if len(poly) > precision + 1:
        poly = poly[: precision + 1]
    return Series.from_coeffs(Z, poly, precision)


def map_ring(a: Series) -> Series:
    """Convert a series over Z[zeta_m] to one over Z; raises
    NotIntegerCoefficientError at the first non-rational coefficient."""
    if not isinstance(a.ring, CyclotomicRing):
        raise TypeError("map_ring expects a series over a cyclotomic ring")
    out = []
    for n, c in enumerate(a.coeffs):
        v = cyc_as_integer(c)
        if v is None:
            raise NotIntegerCoefficientError(n, c)
        out.append(v)
    return Series._wrap(Z, out)
