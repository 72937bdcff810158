"""Generating functions for the partition families and the correction series.

Every series the verifier compares is constructed here, by deliberately
different routes:

* ``gf_regular`` expands the two classical product forms whose equality is
  Glaisher's theorem (bounded-multiplicity form and no-multiple form).
* ``gf_C`` / ``gf_D`` expand the largest-part-multiple and
  smallest-part-exactly-m families directly from their product/sum forms.
* ``gf_Bj_lhs`` expands the finite and infinite largest-part-residue sums.
* ``epsilon`` computes the correction series linking m*C and D by five
  independent routes: a cyclotomic product definition (one product per
  root of unity, expanded as integer lists over Z[x]/(x^m - 1) and
  reduced to Z[zeta_m] once at the end), a triangular-number sum, a
  Gaussian-binomial rearrangement of that sum, the raw difference
  m*gf_C - gf_D, and (for m = 3 only) a closed form supported on shifted
  triangular numbers.

Route cross-agreement is the package's strongest internal check: the routes
share no intermediate algebra, only the kernel primitives.
"""

from __future__ import annotations

from . import kernels
from .ring import CycInt, chi, cyc_root_power
from .series import Series, _check_precision, map_ring, qbinomial_poly

EPSILON_ROUTES = ("definition", "triangular", "qbinomial", "identity", "closed3")

GF_REGULAR_FORMS = ("A_product", "B_product")


def _tri(k: int) -> int:
    return k * (k + 1) // 2


def _check_m(m: int):
    if m < 2:
        raise ValueError("m must be >= 2")


def gf_regular(m: int, which: str, precision: int) -> Series:
    """The generating function of m-regular partition counts, as either the
    bounded-multiplicity product (A_product: factors
    1 + q^i + ... + q^((m-1)i)) or the no-multiple product (B_product:
    1 / prod_{m not| k} (1 - q^k))."""
    _check_m(m)
    if which not in GF_REGULAR_FORMS:
        raise ValueError(f"which must be one of {GF_REGULAR_FORMS}")
    _check_precision(precision)
    c = [1] + [0] * precision
    if which == "B_product":
        for k in range(1, precision + 1):
            if k % m:
                kernels.div_one_minus_uqk(c, 1, k)
    else:
        for i in range(1, precision + 1):
            # (1 - q^(m i)) / (1 - q^i), expanded exactly
            kernels.div_one_minus_uqk(c, 1, i)
            if m * i <= precision:
                kernels.mul_one_minus_uqk(c, 1, m * i)
    return Series._wrap(c)


def gf_C(m: int, precision: int) -> Series:
    """Largest-part-multiple family: sum over blocks n >= 0 of
    q^(m n) * prod_{i<=n}(1 - q^(m i)) / prod_{i<=m n}(1 - q^i)."""
    _check_m(m)
    _check_precision(precision)
    acc = [1] + [0] * precision  # n = 0 term
    term = [1] + [0] * precision
    n = 1
    while m * n <= precision:
        # term_n = term_{n-1} * q^m * (1 - q^(m n)) / ((1-q^(mn-m+1))...(1-q^(mn)))
        term = [0] * m + term[: precision + 1 - m]
        kernels.mul_one_minus_uqk(term, 1, m * n)
        for r in range(m * (n - 1) + 1, m * n + 1):
            kernels.div_one_minus_uqk(term, 1, r)
        kernels.add_scaled_shifted(acc, term, 0, 1)
        n += 1
    return Series._wrap(acc)


def gf_D(m: int, precision: int) -> Series:
    """Smallest-part-exactly-m family: sum over the smallest part j >= 0 of
    q^(m j) * prod_{i > j} (1 + q^i + ... + q^((m-1)i))."""
    _check_m(m)
    _check_precision(precision)
    inner = [1] + [0] * precision
    for i in range(1, precision + 1):
        kernels.div_one_minus_uqk(inner, 1, i)
        if m * i <= precision:
            kernels.mul_one_minus_uqk(inner, 1, m * i)
    acc = list(inner)  # j = 0
    j = 1
    while m * j <= precision:
        # drop the i = j factor: multiply back (1 - q^j) / (1 - q^(m j))
        kernels.mul_one_minus_uqk(inner, 1, j)
        kernels.div_one_minus_uqk(inner, 1, m * j)
        kernels.add_scaled_shifted(acc, inner, m * j, 1)
        j += 1
    return Series._wrap(acc)


def gf_Bj_lhs(m: int, n_sum: int | None, precision: int) -> Series:
    """The largest-part-residue sum: 1 plus, for each block n >= 1 and
    residue j in [1, m-1], the term q^(m n - j) over the product of
    (q^r; q^m)_n for r <= m-j and (q^r; q^m)_(n-1) for r > m-j.

    n_sum bounds the outer sum; None means sum until the leading exponent
    m n - j clears the precision.

    Each block lands its working series at a higher shift than the one
    before, so the series is kept only to the coefficients the next block
    can still land: exact, since dividing by (1 - q^k) never moves a
    coefficient down."""
    _check_m(m)
    if n_sum is not None and n_sum < 0:
        raise ValueError("n_sum must be non-negative or None")
    _check_precision(precision)
    acc = [0] * (precision + 1)
    acc[0] = 1
    for j in range(max(1, m - precision), m):  # residues that land at all
        shift = m - j
        v = [1] + [0] * (precision - shift)
        for r in range(1, m - j + 1):
            kernels.div_one_minus_uqk(v, 1, r)
        n = 1
        while (n_sum is None or n <= n_sum) and shift <= precision:
            kernels.add_scaled_shifted(acc, v, shift, 1)
            n += 1
            shift += m
            if (n_sum is not None and n > n_sum) or shift > precision:
                break
            del v[precision - shift + 1:]
            for r in range(1, m - j + 1):
                kernels.div_one_minus_uqk(v, 1, r + m * (n - 1))
            for r in range(m - j + 1, m):
                kernels.div_one_minus_uqk(v, 1, r + m * (n - 2))
    return Series._wrap(acc)


def p_polynomial(m: int) -> Series:
    """The finite polynomial prefix of the Gaussian-binomial route:
    - sum_j [m-1, j]_q * sum_{k<j} (-1)^k chi_m(k - j) q^(T_k).
    Returned at its exact degree (< m(m-1)/2)."""
    _check_m(m)
    bound = m * (m - 1)  # generous; trimmed below
    out = [0] * (bound + 1)
    for j in range(m):
        qb = qbinomial_poly(m - 1 - j, j)
        inner = [0] * (_tri(j - 1) + 1 if j else 1)
        for k in range(j):
            inner[_tri(k)] += (-1 if k & 1 else 1) * chi(m, k - j)
        if not any(inner):
            continue
        for a, ca in enumerate(qb):
            if ca:
                for b, cb in enumerate(inner):
                    if cb:
                        out[a + b] -= ca * cb
    deg = 0
    for i, c in enumerate(out):
        if c:
            deg = i
    assert deg < m * (m - 1) // 2 or deg == 0
    return Series._wrap(out[: deg + 1])


def _mul_factor_pair(w: list[list[int]], j: int, i: int) -> None:
    """In place, multiply w = sum_r x^r W_r(q) in Z[x]/(x^m - 1)[[q]] by
    (1 - q^i)(1 - x^j q^i); x^j shifts residue r - j (mod m) to r."""
    for c in w:
        kernels.mul_one_minus_uqk(c, 1, i)
    old = [c[: len(c) - i] for c in w]
    for r, c in enumerate(w):
        kernels.add_scaled_shifted(c, old[r - j], i, -1)


def _epsilon_definition(m: int, precision: int) -> Series:
    """Cyclotomic route: sum over n >= 0 of q^(m n) (q^(n+1); q)_inf times
    the sum over j of (zeta_m^j q^(n+1); q)_inf.

    With x standing for zeta_m, the product for root j has factors
    (1 - x^j q^i) and is held as m integer lists W_0..W_(m-1), one per
    residue of Z[x]/(x^m - 1).  The sum over roots stays a sum of m - 1
    separate products.  Only at the end is x^r sent to zeta_m^r, once per
    residue, and the coefficients over Z[zeta_m] (CycInt) checked down to
    Z by `map_ring`.

    Worked from the top block downward so each step multiplies two linear
    factors instead of rebuilding the infinite products."""
    n_top = precision // m
    prods = []
    for j in range(1, m):
        w = [[1] + [0] * precision] + [[0] * (precision + 1) for _ in range(m - 1)]
        for i in range(n_top + 1, precision + 1):
            _mul_factor_pair(w, j, i)
        prods.append(w)
    acc = [[0] * (precision + 1) for _ in range(m)]
    n = n_top
    while True:
        for w in prods:
            for a, c in zip(acc, w):
                kernels.add_scaled_shifted(a, c, m * n, 1)
        if n == 0:
            break
        for j, w in enumerate(prods, 1):
            _mul_factor_pair(w, j, n)
        n -= 1
    out = [CycInt.zero(m)] * (precision + 1)
    for r, a in enumerate(acc):
        kernels.add_scaled_shifted(out, a, 0, cyc_root_power(m, r))
    return map_ring(out)


def _epsilon_triangular(m: int, precision: int) -> Series:
    """Triangular route: sum over k >= 0 of
    (-1)^k chi_m(k) q^(T_k) (q^(k+1); q)_(m-1).

    Each term is a polynomial of degree (m-1)(k+1) + T_(m-2), so it is
    expanded only to that degree (or to the precision, if lower)."""
    acc = [0] * (precision + 1)
    k = 0
    while _tri(k) <= precision:
        width = min(precision - _tri(k), (m - 1) * (k + 1) + _tri(m - 2))
        poly = [1] + [0] * width
        for i in range(min(m - 1, width - k)):  # factors beyond width are 1
            kernels.mul_one_minus_uqk(poly, 1, k + 1 + i)
        scale = (-1 if k & 1 else 1) * chi(m, k)
        kernels.add_scaled_shifted(acc, poly, _tri(k), scale)
        k += 1
    return Series._wrap(acc)


def _epsilon_qbinomial(m: int, precision: int) -> Series:
    """Gaussian-binomial route: P_m(q) plus, for each k, (-1)^k q^(T_k)
    times sum_j chi_m(k - j) ([m-1, j]_q - 1)."""
    acc = [0] * (precision + 1)
    p = p_polynomial(m)
    for i, c in enumerate(p.coeffs):
        if i > precision:
            break
        acc[i] += c
    deltas = []  # [m-1, j]_q - 1, skipping the identically-zero ends
    for j in range(m):
        qb = qbinomial_poly(m - 1 - j, j)
        qb[0] -= 1
        deltas.append(qb if any(qb) else None)
    k = 0
    while _tri(k) <= precision:
        sign = -1 if k & 1 else 1
        for j, delta in enumerate(deltas):
            if delta is None:
                continue
            kernels.add_scaled_shifted(acc, delta, _tri(k), sign * chi(m, k - j))
        k += 1
    return Series._wrap(acc)


def _epsilon_identity(m: int, precision: int) -> Series:
    """Difference route: m * gf_C - gf_D, coefficientwise."""
    return m * gf_C(m, precision) - gf_D(m, precision)


def _epsilon_closed3(precision: int) -> Series:
    """Closed form for m = 3: 2 - q - 2q^2 plus, for n >= 2,
    (-1)^n chi_3(n-1) q^(T_n + 1)."""
    acc = [0] * (precision + 1)
    for i, c in ((0, 2), (1, -1), (2, -2)):
        if i <= precision:
            acc[i] = c
    n = 2
    while _tri(n) + 1 <= precision:
        acc[_tri(n) + 1] = (-1 if n & 1 else 1) * chi(3, n - 1)
        n += 1
    return Series._wrap(acc)


def epsilon(m: int, precision: int, route: str = "triangular") -> Series:
    """The correction series by the requested route.  All arithmetic-only
    routes (definition, triangular, qbinomial) expand the same series and
    must agree; the identity route is the raw count difference m*C - D,
    which coincides with the others exactly when the underlying identity
    holds.  closed3 is only defined for m = 3."""
    _check_m(m)
    if route not in EPSILON_ROUTES:
        raise ValueError(f"unknown route {route!r}, expected {EPSILON_ROUTES}")
    if route == "closed3" and m != 3:
        raise ValueError("route closed3 is only valid for m = 3")
    _check_precision(precision)
    if route == "definition":
        return _epsilon_definition(m, precision)
    if route == "triangular":
        return _epsilon_triangular(m, precision)
    if route == "qbinomial":
        return _epsilon_qbinomial(m, precision)
    if route == "identity":
        return _epsilon_identity(m, precision)
    return _epsilon_closed3(precision)
