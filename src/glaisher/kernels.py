"""Series kernels: the four loops over coefficient lists.

These loops are the hot spots of every truncated-series computation in the
package.  `series`, `genfun` and `verify` call them as `kernels.<name>`,
never imported by name, so wrapping the module attribute (as the
benchmark's spans do) sees every call.

Coefficients are opaque ring elements: only `+`, `-`, `*`, `bool` and
`== 1` are used, so int and CycInt lists go through the same code paths.
In the package every list is of ints; the tests' Z[zeta_m] references
pass CycInt lists.

With u = 1 the multiply by (1 - q^k) is one slice pass: every new c[t]
reads only the old c[t - k], so both slices are taken before the
assignment.  The divide stays an element loop, because its stride-k
recurrence reads values it has just written: as slices it takes one
slice per block of k cells, which is slow for small k.
"""

from operator import sub


def conv_truncated(a, b, nmax, zero):
    """Truncated product: out[n] = sum_{i+j=n} a[i]*b[j] for n <= nmax."""
    out = [zero] * (nmax + 1)
    lb = len(b)
    for i, ai in enumerate(a):
        if i > nmax:
            break
        if not ai:
            continue
        hi = min(nmax - i, lb - 1)
        for j in range(hi + 1):
            bj = b[j]
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def mul_one_minus_uqk(c, u, k):
    """In place, multiply the coefficient list by (1 - u*q^k)."""
    n = len(c) - 1
    if k < 1:
        raise ValueError("factor exponent must be >= 1")
    if k > n:
        return
    if u == 1:
        c[k:] = map(sub, c[k:], c[:n - k + 1])
    else:
        for t in range(n, k - 1, -1):
            s = c[t - k]
            if s:
                c[t] = c[t] - u * s


def div_one_minus_uqk(c, u, k):
    """In place, divide the coefficient list by (1 - u*q^k).

    Exact in the truncated-series ring because the factor has unit constant
    term; the ascending recurrence g[t] = f[t] + u*g[t-k] uses already
    updated entries on purpose.
    """
    n = len(c) - 1
    if k < 1:
        raise ValueError("factor exponent must be >= 1")
    if k > n:
        return
    if u == 1:
        for t in range(k, n + 1):
            s = c[t - k]
            if s:
                c[t] = c[t] + s
    else:
        for t in range(k, n + 1):
            s = c[t - k]
            if s:
                c[t] = c[t] + u * s


def add_scaled_shifted(acc, src, shift, scale):
    """In place: acc[shift+i] += scale * src[i], truncating past len(acc)."""
    n = len(acc) - 1
    hi = min(n - shift, len(src) - 1)
    if scale == 1:
        for i in range(hi + 1):
            s = src[i]
            if s:
                acc[shift + i] = acc[shift + i] + s
    else:
        for i in range(hi + 1):
            s = src[i]
            if s:
                acc[shift + i] = acc[shift + i] + scale * s
