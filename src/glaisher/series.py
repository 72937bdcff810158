"""Truncated dense formal power series over Z.

A Series of precision N stores exactly the coefficients of q^0..q^N; all
arithmetic is exact below the truncation point and anything above it is
discarded, never wrapped.  Coefficients are plain ints; anything else,
bool and CycInt included, is a TypeError.  A coefficient list over
Z[zeta_m] (CycInt) enters only through `map_ring`, which checks each
coefficient down to Z.  No package path calls it; it is a public helper
for such lists, which two tests build as sums of conjugate products
(`test_map_ring_sum_of_conjugate_products` and
`test_epsilon3_intermediate_sum_form`).

Products are naive O(N^2) convolutions on purpose: coefficients are bignums
and exactness is the point.  The inner loops live in `glaisher.kernels`.
"""

from __future__ import annotations

from collections import namedtuple

from . import kernels


class PrecisionMismatchError(ValueError):
    """Binary series operation with unequal precisions."""


class CoefficientRangeError(IndexError):
    """Coefficient requested beyond the stored precision."""


class NotIntegerCoefficientError(ValueError):
    """A cyclotomic coefficient failed the rational-integer check."""

    def __init__(self, exponent: int, value):
        self.exponent = exponent
        self.value = value
        super().__init__(
            f"coefficient of q^{exponent} is not a rational integer: {value!r}"
        )


def _coerce(x) -> int:
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise TypeError(f"not an integer coefficient: {x!r}")


def _check_precision(precision: int) -> None:
    if precision < 0:
        raise ValueError(f"precision must be non-negative, got {precision}")


class Series:
    """Immutable truncated power series: precision N, coefficients q^0..q^N."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(_coerce(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a series stores at least the q^0 coefficient")
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, *_):
        raise AttributeError("Series is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs, precision: int) -> "Series":
        """Build at a stated precision, zero-padding short coefficient lists."""
        _check_precision(precision)
        coeffs = list(coeffs)
        if len(coeffs) > precision + 1:
            raise ValueError("more coefficients than the stated precision holds")
        coeffs += [0] * (precision + 1 - len(coeffs))
        return cls(coeffs)

    @classmethod
    def zero(cls, precision: int) -> "Series":
        return cls.from_coeffs([], precision)

    @classmethod
    def one(cls, precision: int) -> "Series":
        return cls.from_coeffs([1], precision)

    @classmethod
    def _wrap(cls, coeffs: list) -> "Series":
        """Internal: adopt an already-coerced coefficient list."""
        self = object.__new__(cls)
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
        return Series._wrap(self._coeffs[: precision + 1])

    # -- arithmetic -----------------------------------------------------------

    def _check_compatible(self, other: "Series"):
        if self.precision != other.precision:
            raise PrecisionMismatchError(
                f"mixed precisions {self.precision} and {other.precision}; "
                f"truncate() explicitly first"
            )

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        return Series._wrap([a + b for a, b in zip(self._coeffs, other._coeffs)])

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        return Series._wrap([a - b for a, b in zip(self._coeffs, other._coeffs)])

    def __neg__(self):
        return Series._wrap([-a for a in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, Series):
            self._check_compatible(other)
            out = kernels.conv_truncated(
                list(self._coeffs), list(other._coeffs), self.precision, 0
            )
            return Series._wrap(out)
        try:
            scalar = _coerce(other)
        except TypeError:
            return NotImplemented
        return Series._wrap([scalar * c for c in self._coeffs])

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        shown = ", ".join(repr(c) for c in self._coeffs[:9])
        if self.precision > 8:
            shown += ", ..."
        return f"Series(N={self.precision}; [{shown}])"


class PochSpec(namedtuple("PochSpec", "unit offset step count")):
    """One rising product: factors (1 - unit*q^(offset + step*i)).

    count=None means the infinite product; factors whose exponent exceeds the
    working precision are dropped since they cannot touch stored coefficients.
    """

    __slots__ = ()

    def __new__(cls, unit: int = 1, offset: int = 1, step: int = 1,
                count: int | None = None):
        if offset < 1 or step < 1:
            raise ValueError("offset and step must be >= 1 (unit constant term)")
        if count is not None and count < 0:
            raise ValueError("count must be non-negative or None (infinite)")
        return super().__new__(cls, unit, offset, step, count)


def pochhammer(spec: PochSpec, precision: int) -> Series:
    """Expand prod_i (1 - u*q^(e+s*i)) for i = 0..count-1 (or to infinity),
    truncated at `precision`; the unit u is an integer."""
    _check_precision(precision)
    u = _coerce(spec.unit)
    c = [1] + [0] * precision
    for exp in range(spec.offset, precision + 1, spec.step)[:spec.count]:
        kernels.mul_one_minus_uqk(c, u, exp)
    return Series._wrap(c)


def inv_pochhammer(
    offset: int, step: int, count: int | None, precision: int
) -> Series:
    """Expand 1 / prod_i (1 - q^(e+s*i)): the product of geometric series
    1 + q^k + q^(2k) + ...; exact inverse of pochhammer with unit 1.
    offset, step and count are validated as `PochSpec` validates them."""
    _check_precision(precision)
    PochSpec(1, offset, step, count)
    c = [1] + [0] * precision
    for exp in range(offset, precision + 1, step)[:count]:
        kernels.div_one_minus_uqk(c, 1, exp)
    return Series._wrap(c)


def qbinomial_poly(a: int, b: int) -> list[int]:
    """The Gaussian binomial [a+b, b]_q as an exact coefficient list
    (degree a*b); zero polynomial for negative arguments.

    Built as prod_(i <= b) (1 - q^(a+i)) / (1 - q^i): each step pads the
    list by a + i cells, so the multiply drops nothing, then divides
    exactly and trims the i cells of the remainder, which must vanish."""
    if a < 0 or b < 0:
        return [0]
    poly = [1]
    for i in range(1, b + 1):
        poly += [0] * (a + i)
        kernels.mul_one_minus_uqk(poly, 1, a + i)
        kernels.div_one_minus_uqk(poly, 1, i)
        if any(poly[-i:]):
            raise ArithmeticError(f"division by (1 - q^{i}) left a remainder")
        del poly[-i:]
    return poly


def qbinomial(a: int, b: int, precision: int) -> Series:
    """The Gaussian binomial [a+b, b]_q as a Series, truncated at `precision`
    when that is below the polynomial degree a*b."""
    return Series.from_coeffs(qbinomial_poly(a, b)[: precision + 1], precision)


def map_ring(coeffs: list) -> Series:
    """Check a Z[zeta_m] (CycInt) coefficient list down to Z and return it
    as a Series; raises NotIntegerCoefficientError at the first
    non-rational coefficient.  No package path calls it: it is a public
    helper for CycInt coefficient lists, such as the sums of conjugate
    products two tests build, and it imports `ring` when called, so that
    loading `series` does not load `ring`."""
    from .ring import cyc_as_integer

    out = []
    for n, c in enumerate(coeffs):
        v = cyc_as_integer(c)
        if v is None:
            raise NotIntegerCoefficientError(n, c)
        out.append(v)
    return Series._wrap(out)
