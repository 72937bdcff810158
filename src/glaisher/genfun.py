"""Generating functions for the partition families and the correction series.

Every series the verifier compares is constructed here, by deliberately
different routes:

* ``gf_regular`` expands the two classical product forms whose equality is
  Glaisher's theorem: the bounded-multiplicity form as
  (q^m; q^m)_inf / (q; q)_inf, the partition numbers of Euler's pentagonal
  recurrence times (q^m; q^m)_inf through the truncated-product kernel,
  one shifted add per pentagonal exponent (O(N^1.5)), and the no-multiple
  form as one division per factor, largest factor first.
* ``gf_C`` / ``gf_D`` expand the largest-part-multiple and
  smallest-part-exactly-m families directly from their product/sum forms,
  each block kept only to the coefficients it can still land; gf_D starts
  from the bounded-multiplicity product of gf_regular.
* ``gf_Bj_lhs`` expands the finite and infinite largest-part-residue sums
  by Horner's rule over the part sizes: every denominator is a prefix of
  prod_(m not| k) (1 - q^k), so the sum takes one division per part size.
* ``epsilon`` computes the correction series linking m*C and D by five
  independent routes, route r being the function ``_epsilon_<r>(m,
  precision)``, found by name: a cyclotomic product definition (the
  product for root 1 alone, expanded over Z[x]/(x^m - 1) with each
  residue list packed into one int, and summed over the roots by the
  character sum sum_(j=1..m-1) zeta_m^(j r) = m [r = 0] - 1, one integer
  combination of those ints),
  a triangular-number sum (a dense list filled from
  ``triangular_stream``), a Gaussian-binomial expansion of that sum
  (Cauchy's binomial theorem turns it into one sum over the triangular
  numbers T_s <= N, which reads only the entries j < sqrt(2N) or so of
  the row [m-1, j]_q, built by a ratio sweep to cells 0..N, whatever m
  is), the raw difference m*gf_C - gf_D, and (for m = 3 only) a closed
  form supported on shifted triangular numbers.
* ``triangular_stream``, the one expansion of the triangular sum, yields
  its nonzero coefficients below x one at a time, each term held as a
  sparse dict (or, while it is narrow, a dense list) and flushed from a
  window of about m*sqrt(x) exponents: the density census runs in
  O(sqrt(x)) terms and never holds a dense series.

Route cross-agreement is the package's strongest internal check: the routes
share no intermediate algebra, only the kernel primitives.

The `definition` route's packed arithmetic, with the proof that its slots
never wrap, lives in `_definition`, which loads only when that route runs:
a census, a count and every other route never compile it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from math import isqrt
from operator import add, sub

from . import EPSILON_ROUTES, kernels
from .series import Series, _check_precision

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
    1 / prod_{m not| k} (1 - q^k)).

    A_product is (q^m; q^m)_inf / (q; q)_inf, built by `_bounded_product`
    in O(N^1.5).  B_product divides by its factors from k = N down to 1, so
    the early lists are mostly zeros.  A divide with k^2 > N is at most N/k
    slices of k cells, so those zeros cost no Python step each."""
    _check_m(m)
    if which not in GF_REGULAR_FORMS:
        raise ValueError(f"which must be one of {GF_REGULAR_FORMS}")
    _check_precision(precision)
    if which == "A_product":
        return Series._wrap(_bounded_product(m, precision))
    c = [1] + [0] * precision
    for k in range(precision, 0, -1):
        if k % m:
            kernels.div_one_minus_uqk(c, 1, k)
    return Series._wrap(c)


def gf_C(m: int, precision: int) -> Series:
    """Largest-part-multiple family: sum over blocks n >= 0 of
    q^(m n) * prod_{i<=n}(1 - q^(m i)) / prod_{i<=m n}(1 - q^i).

    The block term (q^m; q^m)_n / (q; q)_(m n) is
    prod_(k <= m n, m not| k) 1/(1 - q^k): each factor (1 - q^(m i))
    cancels a divisor, so block n divides the term of block n - 1 by the
    factors k = m(n - 1) + 1 .. m n - 1 alone.  It is held relative to
    q^(m n) and kept to the precision - m n cells it can still land:
    exact, since dividing by (1 - q^k) never moves a coefficient down."""
    _check_m(m)
    _check_precision(precision)
    acc = [1] + [0] * precision  # n = 0 term
    term = [1] + [0] * precision
    for n in range(1, precision // m + 1):
        # term_n = term_{n-1} / ((1-q^(mn-m+1))...(1-q^(mn-1)))
        del term[precision - m * n + 1:]
        for r in range(m * (n - 1) + 1, m * n):
            kernels.div_one_minus_uqk(term, 1, r)
        kernels.add_scaled_shifted(acc, term, m * n, 1)
    return Series._wrap(acc)


def _pentagonal(limit: int) -> list[tuple[int, int]]:
    """The generalized pentagonal numbers k(3k -+ 1)/2 in 1..limit, in
    increasing order, each with its sign (-1)^k in
    (q; q)_inf = sum_k (-1)^k q^(k(3k-1)/2)."""
    out = []
    k = 1
    while k * (3 * k - 1) // 2 <= limit:
        sign = -1 if k & 1 else 1
        out.append((k * (3 * k - 1) // 2, sign))
        if k * (3 * k + 1) // 2 <= limit:
            out.append((k * (3 * k + 1) // 2, sign))
        k += 1
    return out


def _euler_inverse(precision: int) -> list[int]:
    """The coefficients of 1/(q; q)_inf, the partition numbers p(0..N), by
    Euler's pentagonal recurrence p(n) = -sum_(g >= 1) s_g p(n - g) over the
    generalized pentagonal numbers g with sign s_g: O(N^1.5).  Both lists
    of g are increasing, so each n reads the prefix of g <= n."""
    p = [1] + [0] * precision
    pent = _pentagonal(precision)
    odd = [g for g, sign in pent if sign < 0]  # k odd: p(n - g) adds
    even = [g for g, sign in pent if sign > 0]
    for n in range(1, precision + 1):
        p[n] = (sum(p[n - g] for g in odd[:bisect_right(odd, n)])
                - sum(p[n - g] for g in even[:bisect_right(even, n)]))
    return p


def _bounded_product(m: int, precision: int) -> list[int]:
    """The coefficients of prod_i (1 - q^(m i))/(1 - q^i) =
    (q^m; q^m)_inf / (q; q)_inf: the sparse (q^m; q^m)_inf (1 at 0, each
    pentagonal sign at m g) times the partition numbers from Euler's
    pentagonal recurrence, through `kernels.conv_truncated`, which makes
    one shifted add per nonzero cell."""
    euler = [1] + [0] * precision
    for g, sign in _pentagonal(precision // m):
        euler[m * g] = sign
    return kernels.conv_truncated(euler, _euler_inverse(precision),
                                  precision, 0)


def gf_D(m: int, precision: int) -> Series:
    """Smallest-part-exactly-m family: sum over the smallest part j >= 0 of
    q^(m j) * prod_{i > j} (1 + q^i + ... + q^((m-1)i)).

    The j = 0 product is `_bounded_product`, the A_product of `gf_regular`.
    Each later product is kept to the precision - m j cells it can still
    land."""
    _check_m(m)
    _check_precision(precision)
    inner = _bounded_product(m, precision)
    acc = list(inner)  # j = 0
    for j in range(1, precision // m + 1):
        # drop the i = j factor: multiply back (1 - q^j) / (1 - q^(m j))
        del inner[precision - m * j + 1:]
        kernels.mul_one_minus_uqk(inner, 1, j)
        kernels.div_one_minus_uqk(inner, 1, m * j)
        kernels.add_scaled_shifted(acc, inner, m * j, 1)
    return Series._wrap(acc)


def gf_Bj_lhs(m: int, n_sum: int | None, precision: int) -> Series:
    """The largest-part-residue sum: 1 plus, for each block n >= 1 and
    residue j in [1, m-1], the term q^(m n - j) over the product of
    (q^r; q^m)_n for r <= m-j and (q^r; q^m)_(n-1) for r > m-j.

    n_sum bounds the outer sum; None means sum until the leading exponent
    m n - j clears the precision.

    The (n, j) denominator is exactly prod (1 - q^k) over k <= m n - j with
    m not| k: residue r runs through r, r + m, ..., up to the last value
    <= m n - j.  As (n, j) ranges, L = m n - j runs once through every
    non-multiple of m, so the sum is
    1 + sum_(L <= top, m not| L) q^L prod_(k <= L, m not| k) 1/(1 - q^k),
    with top = N, or min(N, m n_sum - 1) when n_sum is given.  It is
    evaluated by Horner's rule from k = top down: h <- (h + q^k)/(1 - q^k)
    over the non-multiples k, then 1 + h.  One division per part size."""
    _check_m(m)
    if n_sum is not None and n_sum < 0:
        raise ValueError("n_sum must be non-negative or None")
    _check_precision(precision)
    top = precision if n_sum is None else min(precision, m * n_sum - 1)
    h = [0] * (precision + 1)
    for k in range(top, 0, -1):
        if k % m:
            h[k] += 1
            kernels.div_one_minus_uqk(h, 1, k)
    h[0] += 1
    return Series._wrap(h)


def _qbinomial_row(n: int, cells: int, entries: int) -> list[list[int]]:
    """The Gaussian binomials [n, j]_q for j <= n and j < `entries`, each
    held to its first `cells` cells, by the ratio sweep
    [n, j]_q = [n, j-1]_q (1 - q^(n-j+1)) / (1 - q^j).  A step pads entry
    j - 1 by n - j + 1 cells, up to the cap, then multiplies and divides
    as power series (neither moves a coefficient down, so every cell
    below the cap is exact) and trims the cells past the degree j(n - j),
    which must vanish: all j cells of the remainder when the cap leaves
    the entry whole."""
    row = [[1]]
    for j in range(1, min(n + 1, entries)):
        size = min(j * (n - j + 1) + 1, cells)
        keep = min(j * (n - j) + 1, cells)
        poly = row[-1] + [0] * (size - len(row[-1]))
        kernels.mul_one_minus_uqk(poly, 1, n - j + 1)
        kernels.div_one_minus_uqk(poly, 1, j)
        if any(poly[keep:]):
            raise ArithmeticError(f"division by (1 - q^{j}) left a remainder")
        del poly[keep:]
        row.append(poly)
    return row


def p_polynomial(m: int) -> Series:
    """P_m, the finite polynomial left when the triangular sum is
    rearranged as sum_k (-1)^k q^(T_k) sum_j chi_m(k - j) ([m-1, j]_q - 1):
    - sum_j [m-1, j]_q * sum_{k<j} (-1)^k chi_m(k - j) q^(T_k), at its
    exact degree (< m(m-1)/2).  Since 0 < j - k < m, chi_m(k - j) = -1,
    so this is sum_{k <= m-2} (-1)^k q^(T_k) S_k with the suffix sums
    S_k = sum_{j > k} [m-1, j]_q of one whole `_qbinomial_row`."""
    _check_m(m)
    # entry j pads to j(m - j) + 1 <= T_(m-1) + 1 cells: the cap cuts none
    row = _qbinomial_row(m - 1, _tri(m - 1) + 1, m)
    out = [0] * (_tri(m - 2) + len(row[(m - 1) // 2]))
    suffix = [0] * len(row[(m - 1) // 2])  # S_k, from k = m - 2 down
    for k in range(m - 2, -1, -1):
        suffix[:len(row[k + 1])] = map(add, suffix, row[k + 1])
        out[_tri(k):_tri(k) + len(suffix)] = map(sub if k & 1 else add,
                                                 out[_tri(k):], suffix)
    while len(out) > 1 and not out[-1]:
        out.pop()
    assert len(out) <= max(m * (m - 1) // 2, 1)
    return Series._wrap(out)


def _epsilon_definition(m: int, precision: int) -> Series:
    """Cyclotomic route: sum over n >= 0 of q^(m n) (q^(n+1); q)_inf times
    the sum over j = 1..m-1 of (zeta_m^j q^(n+1); q)_inf, expanded by
    `_definition.epsilon_definition` on packed residue ints."""
    from . import _definition

    return Series._wrap(_definition.epsilon_definition(m, precision))


def _epsilon_triangular(m: int, precision: int) -> Series:
    """Triangular route: sum over k >= 0 of
    (-1)^k chi_m(k) q^(T_k) (q^(k+1); q)_(m-1), as a dense list filled
    from the nonzero coefficients of `triangular_stream`."""
    acc = [0] * (precision + 1)
    for n, c in triangular_stream(m, precision + 1):
        acc[n] = c
    return Series._wrap(acc)


def triangular_stream(m: int, x: int) -> Iterator[tuple[int, int]]:
    """The nonzero coefficients (n, eps_n) of the correction series for
    n < x, in increasing n, from the triangular sum
    sum_k (-1)^k chi_m(k) q^(T_k) (q^(k+1); q)_(m-1), without expanding
    the dense series.

    Term k is grown one factor (1 - q^(k+1+i)) at a time, exponents >= x
    dropped, and added into a window keyed by exponent.  Term k+1 starts
    at T_(k+1), so once term k is in, every exponent below T_(k+1) is
    final: it is yielded and leaves the window.  The window spans about
    m*k exponents, never x.

    A product of j of the factors lands on j(k+1) plus a sum of j distinct
    numbers from 0..m-2, which takes j(m-1-j) + 1 values, so a term has at
    most C(m, 3) + m monomials (never more than 2^(m-1)).  A term at least
    twice that wide is grown as a dict of its monomials; a narrower one
    (large m, small k) as a dense list, which is cheaper per entry."""
    _check_m(m)
    if x < 1:
        raise ValueError("x must be >= 1")
    most = m * (m - 1) * (m - 2) // 6 + m
    window: dict[int, int] = {}
    k = 0
    start = 0  # T_k
    while start < x:
        limit = x - start  # term exponents, relative to T_k, stay below this
        factors = range(k + 1, min(k + m, limit))  # later factors are 1
        if 2 * most <= min(limit, (m - 1) * (k + 1) + _tri(m - 2) + 1):
            term = {0: 1}
            for a in factors:
                grown = term.copy()
                for e, c in term.items():
                    e += a
                    if e < limit:
                        grown[e] = grown.get(e, 0) - c
                term = grown
            monomials = term.items()
        else:
            poly = [1]
            for a in factors:
                poly += [0] * (min(len(poly) + a, limit) - len(poly))
                kernels.mul_one_minus_uqk(poly, 1, a)
            monomials = enumerate(poly)
        chi = (0 if k % m else m) - 1  # chi_m(k) = m [m | k] - 1
        scale = -chi if k & 1 else chi
        for e, c in monomials:
            if c:
                window[start + e] = window.get(start + e, 0) + scale * c
        k += 1
        start += k
        for e in sorted(e for e in window if e < start):
            c = window.pop(e)
            if c:
                yield e, c


def _epsilon_qbinomial(m: int, precision: int) -> Series:
    """Gaussian-binomial route.  By Cauchy's binomial theorem
    (q^(k+1); q)_(m-1) = sum_j (-1)^j [m-1, j]_q q^(jk + T_j), and
    T_k + jk + T_j = T_(k+j), so the triangular sum is, with s = k + j,
    sum_s (-1)^s q^(T_s) sum_(j <= min(s, m-1)) chi_m(s - j) [m-1, j]_q.
    Since chi_m(n) = m [m | n] - 1, the inner sum is m [m-1, s mod m]_q
    less a prefix sum of the row: two shifted adds per s with T_s <= N,
    which read only the row entries j < terms, held to cells 0..N."""
    terms = (isqrt(8 * precision + 1) + 1) // 2  # the s with T_s <= N
    row = _qbinomial_row(m - 1, precision + 1, terms)
    acc = [0] * (precision + 1)
    prefix = [0] * max(map(len, row))  # sum_(j <= min(s, m-1)) [m-1, j]_q
    for s in range(terms):
        if s < m:
            prefix[:len(row[s])] = map(add, prefix, row[s])
        sign = -1 if s & 1 else 1
        kernels.add_scaled_shifted(acc, row[s % m], _tri(s), sign * m)
        kernels.add_scaled_shifted(acc, prefix, _tri(s), -sign)
    return Series._wrap(acc)


def _epsilon_identity(m: int, precision: int) -> Series:
    """Difference route: m * gf_C - gf_D, coefficientwise."""
    return m * gf_C(m, precision) - gf_D(m, precision)


def _epsilon_closed3(m: int, precision: int) -> Series:
    """Closed form for m = 3: 2 - q - 2q^2 plus, for n >= 2,
    (-1)^n chi_3(n-1) q^(T_n + 1)."""
    acc = [0] * (precision + 1)
    for i, c in ((0, 2), (1, -1), (2, -2)):
        if i <= precision:
            acc[i] = c
    n = 2
    while _tri(n) + 1 <= precision:
        chi = (0 if (n - 1) % 3 else 3) - 1  # chi_3(n - 1)
        acc[_tri(n) + 1] = -chi if n & 1 else chi
        n += 1
    return Series._wrap(acc)


def epsilon(m: int, precision: int, route: str = "triangular") -> Series:
    """The correction series by the requested route.  All arithmetic-only
    routes (definition, triangular, qbinomial) expand the same series and
    must agree; the identity route is the raw count difference m*C - D,
    which coincides with the others exactly when the underlying identity
    holds.  closed3 is only defined for m = 3.  Route r is the function
    `_epsilon_<r>(m, precision)`, found by name."""
    _check_m(m)
    if route not in EPSILON_ROUTES:
        raise ValueError(f"unknown route {route!r}, expected {EPSILON_ROUTES}")
    if route == "closed3" and m != 3:
        raise ValueError("route closed3 is only valid for m = 3")
    _check_precision(precision)
    return globals()["_epsilon_" + route](m, precision)
