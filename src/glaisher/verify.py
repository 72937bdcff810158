"""Machine verification of the partition identities, with typed reports.

Each checker evaluates both sides of one identity by independent paths
(combinatorial DP counts on one side, series expansions on the other, and
multiple correction-series routes against each other) and reports the first
mismatch it finds.  A fail status is a finding, not an error: the CLI maps
it to exit code 1.

The m*C = D + correction identity is checked on n = 0 and n >= 2; both
sides at n = 1 are evaluated and attached to the report notes instead of
deciding the status, since the n = 1 behaviour differs across m and is
worth seeing rather than asserting blindly.

The package imports this module on every start, so it holds only the
selectors, the report types, `verify` and `density_report`, and imports
no other layer at module level.  The checkers live in `_checkers`, which
`verify` imports when a check runs; `density_report` imports the
`genfun` names it reads when it runs.  `verify` validates the arguments,
picks the range argument its check reads, calls the checker named after
the selector, which returns its range start, routes, notes and first
mismatch (or None), and builds and times every report in one place.
"""

from __future__ import annotations

import time
from collections import namedtuple
from math import isqrt

THEOREMS = ("T1.2", "E1.4", "T1.3", "T1.4", "T1.5", "T1.6", "T1.8", "T1.9", "C1.10")

# the range argument each check reads, then the one it falls back to; a
# check not named here reads n_max
_RANGES = {"T1.4": ("n_max", "precision"), "T1.5": ("precision", "n_max"),
           "T1.9": ("precision",), "C1.10": ("precision",)}


class IdentityReport(namedtuple("IdentityReport", "theorem m range status "
                                "first_failure elapsed_ms routes notes")):
    """Machine-readable verdict of one identity check over a range:
    status is "pass" or "fail", first_failure (n, lhs, rhs) or None."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class DensityStats(namedtuple("DensityStats", "m x nonzero_count N_x "
                              "window_bound bound_satisfied p_support")):
    """Zero/nonzero census of the correction series below x, with the
    window sparsity bound it must respect: N_x counts the n < x whose
    correction coefficient E(n) is 0, ratio is N_x / x, and p_support the
    nonzero coefficients of the finite polynomial prefix.  N_x equals the
    count of n < x with m*C(n) = D(n) only where T1.4 passes."""

    __slots__ = ()

    @property
    def ratio(self):
        """N_x / x, built when read, so that a census loads no `fractions`."""
        from fractions import Fraction

        return Fraction(self.N_x, self.x)


def verify(theorem: str, m: int | None = None, n_max: int | None = None,
           precision: int | None = None, n_sum: int | None = None) -> IdentityReport:
    """Run one identity check and return its report.

    Selector strings are frozen: T1.2 (equal family counts), E1.4
    (largest-part-residue decomposition), T1.3 (residue m-1 vs C shift),
    T1.4 (m*C = D + correction, all routes), T1.5 (m=3 closed form), T1.6
    (m=3 identity off shifted triangulars), T1.8 (four-way chain), T1.9
    (finite product identity), C1.10 (infinite product identity).
    """
    t0 = time.perf_counter()
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}, expected {THEOREMS}")
    if theorem in ("T1.5", "T1.6"):
        if m not in (None, 3):
            raise ValueError(f"{theorem} is specific to m = 3")
        m = 3
    if m is None or m < 2:
        raise ValueError("m must be >= 2")

    given = {"n_max": n_max, "precision": precision}
    names = _RANGES.get(theorem, ("n_max",))
    top = next((given[k] for k in names if given[k] is not None), None)
    if top is None:
        raise ValueError(f"{names[0]} is required for this check")
    if top < 0:
        raise ValueError(f"{names[0]} must be non-negative")

    from . import _checkers

    check = getattr(_checkers, "verify_" + theorem.replace(".", ""))
    lo, routes, notes, first = (check(m, top, n_sum) if theorem == "T1.9"
                                else check(m, top))
    return IdentityReport(
        theorem=theorem, m=m, range=(lo, top),
        status="pass" if first is None else "fail", first_failure=first,
        elapsed_ms=int((time.perf_counter() - t0) * 1000), routes=routes,
        notes=notes,
    )


def density_report(m: int, x: int) -> DensityStats:
    """Census of vanishing correction coefficients for n < x, counted from
    `triangular_stream` (the triangular sum, streamed term by term over a
    sparse window, so time grows like sqrt(x) and memory stays small),
    against the window sparsity bound
    (2^(m-1) - m) * (isqrt(2x) + 1) + |support of the polynomial prefix|.

    A census above the bound is a finding, reported as
    bound_satisfied=False (the CLI maps it to exit code 1)."""
    from .genfun import p_polynomial, triangular_stream

    nonzero = sum(1 for _ in triangular_stream(m, x))
    zeros = x - nonzero
    p_support = sum(1 for c in p_polynomial(m).coeffs if c)
    window_bound = (2 ** (m - 1) - m) * (isqrt(2 * x) + 1) + p_support
    return DensityStats(
        m=m, x=x, nonzero_count=nonzero, N_x=zeros, window_bound=window_bound,
        bound_satisfied=nonzero <= window_bound, p_support=p_support,
    )
