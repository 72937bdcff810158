"""Series kernels: the four operations on coefficient lists.

These loops are the hot spots of every truncated-series computation in the
package.  `series`, `genfun` and `_checkers` call them as `kernels.<name>`,
never imported by name, so wrapping the module attribute (as the
benchmark's spans do) sees every call.  `Series.__mul__` and Glaisher's
bounded-multiplicity product in `genfun` take the truncated product.

Coefficients are opaque ring elements: only `+`, `-`, `*`, `bool` and
`== 1` are used, so int and CycInt lists go through the same code paths.
In the package every list is of ints.  CycInt lists come only from tests:
the kernel tests of `tests/test_series.py` (CycInt units, scales and
lists), its conjugate-product sum for `map_ring`, and
`test_epsilon3_intermediate_sum_form` in `tests/test_genfun.py`.

Every kernel works in slices, one form for every unit: `_times` scales a
slice by u, leaving zeros as they are and the slice itself when u is 1.
The truncated product walks the nonzero cells of a and adds a scaled
shift of b for each through `add_scaled_shifted`, looked up as a module
global, so wrapping that attribute sees these calls too.  The
multiply by (1 - u q^k) is one slice pass, since every new c[t] reads
only the old c[t - k].  The divide's recurrence g[t] = f[t] +
u g[t - k] reads cells it has just written, so it takes one of two forms.
For k^2 <= n each residue class mod k is one running sum; otherwise the
list is worked in blocks of k cells, each reading only the previous block,
which is already final, sliced to the cells that land below n + 1, and a
block whose source is all zero is skipped.
Either way a divide makes at most about sqrt(n) slice calls.
"""

from itertools import accumulate
from operator import add, sub


def conv_truncated(a, b, nmax, zero):
    """Truncated product: out[n] = sum_{i+j=n} a[i]*b[j] for n <= nmax."""
    out = [zero] * (nmax + 1)
    for i, ai in enumerate(a[:nmax + 1]):
        if ai:
            add_scaled_shifted(out, b, i, ai)
    return out


def _times(u, xs):
    """u * x for every x of the slice xs, zeros kept; xs itself if u is 1."""
    return xs if u == 1 else [u * x if x else x for x in xs]


def mul_one_minus_uqk(c, u, k):
    """In place, multiply the coefficient list by (1 - u*q^k)."""
    n = len(c) - 1
    if k < 1:
        raise ValueError("factor exponent must be >= 1")
    if k <= n:
        c[k:] = map(sub, c[k:], _times(u, c[:n - k + 1]))


def div_one_minus_uqk(c, u, k):
    """In place, divide the coefficient list by (1 - u*q^k).

    Exact in the truncated-series ring because the factor has unit constant
    term; the ascending recurrence g[t] = f[t] + u*g[t-k] uses already
    updated entries on purpose.
    """
    n = len(c) - 1
    if k < 1:
        raise ValueError("factor exponent must be >= 1")
    if k * k <= n:
        step = add if u == 1 else lambda g, f: f + u * g if g else f
        for r in range(k):
            c[r::k] = accumulate(c[r::k], step)
        return
    for lo in range(k, n + 1, k):
        src = c[lo - k:min(lo, n + 1 - k)]  # the cells that land
        if any(src):
            c[lo:lo + k] = map(add, c[lo:lo + k], _times(u, src))


def add_scaled_shifted(acc, src, shift, scale):
    """In place: acc[shift+i] += scale * src[i], truncating past len(acc)."""
    hi = max(min(len(acc) - shift, len(src)), 0)
    acc[shift:shift + hi] = map(add, acc[shift:shift + hi],
                                _times(scale, src[:hi]))
