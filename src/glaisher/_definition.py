"""The packed arithmetic of the `definition` route of `genfun.epsilon`.

`genfun._epsilon_definition` imports this module only when the route runs,
so a census, a count or another route never compiles it.

The route holds each residue list W_r (cells 0..N) as one int: cell t is
the w-bit slot at bits w*t, and the arithmetic runs mod 2^(w(N+1)).  That
is Z[q]/(q^(N+1)) evaluated at q = 2^w, a ring map, so multiplying by q^i
is a left shift by w*i bits with the cells pushed past N masked off, and a
factor (1 - q^i)(1 - x q^i) is a few whole-list shift-subtracts.  Cells
are signed: a decode adds 2^(w-1) to every slot, after which each slot is
the plain base-2^w digit c + 2^(w-1), so every cell with |c| < 2^(w-1)
reads back exactly.

No slot ever wraps.  Replace every sign and every x by 1: every monomial
of a partial root-1 product lands on one residue with coefficient +-1, so
the sum over the m residues of |cell t| is at most
[q^t] prod_{i>=1} (1 + q^i)^2.  That coefficient is at most
e^(ut) prod_{i>=1} (1 + e^(-ui))^2 for every u > 0, and with
sum_{i>=1} log(1 + e^(-ui)) <= pi^2/(12u) the best u bounds it by
exp(pi*sqrt(2t/3)) <= exp(pi*sqrt(2N/3)).  The accumulator adds
floor(N/m) + 1 blocks of the product, and the decoded cell
m W_0 - sum_r W_r is at most (m-1) sum_r |W_r| in absolute value, so at
most (m-1)(floor(N/m) + 1) exp(pi*sqrt(2N/3)).  w holds the bits of that
bound, one sign bit and two guard bits against float rounding, rounded
up to whole bytes (`_definition_slot_bits`).  Since the arithmetic is
exact mod 2^(w(N+1)), only the decoded cells need the bound; every
product and accumulator cell meets it too.

The factors i > c, c = `_definition_cut`, are all applied before the
first block is added, so they are multiplied in by one power-sum step
(`_top_product`): modulo q^(N+1) their product is
sum_(k <= fit) (-1)^k e_k, fit = N // (c + 1), e_k the k-th elementary
symmetric function of the monomials q^i and x q^i, and Newton's
identities build k e_k from the earlier e's in windows of whole packed
lists, a few shift-adds each.  The step is exact in the same way.  Its
arithmetic is that of Z[q]/(q^(N+1)) through the same ring map, so the
signed sums along the way need no bound.  Only each k e_k is read back
as integers, by `// k`, and that is exact slot by slot once every cell
of k e_k lies in [0, 2^(w-1)): its cells count products of k distinct
monomials, so they are >= 0, and each is at most
fit [q^t] prod_{i>=1} (1 + q^i)^2 <= fit exp(pi*sqrt(2N/3)).  As
fit <= min(m - 1, N) <= (m - 1)(floor(N/m) + 1), the slot width above
already holds it.
"""

from __future__ import annotations

import math


def _definition_slot_bits(m: int, precision: int) -> int:
    """The slot width of the packed `definition` route: every cell it holds
    is below 2^(w - 1) in absolute value (see the module docstring).

    The bits of exp(pi*sqrt(2N/3)), rounded up, plus those of
    (m - 1)(floor(N/m) + 1), the most a decoded cell can exceed a product
    cell by, one sign bit and two bits against float rounding, rounded up
    to whole bytes."""
    bits = int(math.pi * math.sqrt(2 * precision / 3) / math.log(2)) + 1
    bits += ((m - 1) * (precision // m + 1)).bit_length()
    return (bits + 3 + 7) // 8 * 8


def _unpack_signed(x: int, w: int, precision: int) -> list[int]:
    """The signed cells 0..precision of a packed residue list: adding
    2^(w - 1) to every slot makes each one its plain base-2^w digit."""
    size = w // 8
    half = 1 << (w - 1)
    slot = bytes(size - 1) + b"\x80"  # 2^(w - 1), little-endian
    bias = int.from_bytes(slot * (precision + 1), "little")
    raw = ((x + bias) & ((1 << w * (precision + 1)) - 1)).to_bytes(
        size * (precision + 1), "little")
    return [int.from_bytes(raw[k:k + size], "little") - half
            for k in range(0, len(raw), size)]


def _mul_packed_pair(p: list[int], s: int, keep: int, keep2: int,
                     mask: int) -> None:
    """In place, multiply p = sum_r x^r P_r(q) in Z[x]/(x^m - 1)[[q]] by
    (1 - q^i)(1 - x q^i) = 1 - (1 + x) q^i + x q^(2i), each P_r packed
    with s = w*i; keep and keep2 = mask >> s and mask >> 2s are the cells
    that q^i and q^(2i) do not push past the precision.  x moves residue
    r - 1 (mod m) to r.

    p may hold only residues 0..len(p) - 1 < m, the rest zero, if its last
    residue is zero: then residue 0 takes that zero, not residue m - 1."""
    old = p[:]
    for r, x in enumerate(old):
        y = old[r - 1]
        if x or y:
            p[r] = (x + ((y & keep2) << 2 * s) - (((x + y) & keep) << s)) & mask


def _definition_cut(m: int, precision: int) -> int:
    """c: the `definition` route multiplies in its factors i > c in one
    power-sum step (`_top_product`) and the rest one pair at a time.

    c = max(N // m, N // r), with r = (N / 4)^(1/3) rounded, at least 3
    (the rule of `partitions._ratio`), so the step's fit = N // (c + 1) is
    at most min(m, r) - 1: its Newton levels stay few at any m.  Timed on
    the whole route against a fixed r = 3 or 4 and against r - 1, r + 1
    and r + 2, at m from 2 to 2000 and N up to 3000 (min of 5 runs, 2
    CPUs, Python 3.11; the figures are in CHANGES.md): r + 1 and r + 2 came
    within about 10 % of this rule everywhere, r - 1 ran up to 1.5x slower
    at large m, and r = 3 or 4 up to 1.5x slower at (12, 3000)."""
    r = 3
    while (2 * r + 1) ** 3 <= 2 * precision:  # r rounds (N / 4)^(1/3)
        r += 1
    return max(precision // m, precision // r)


def _window(z: int, lo: int, d: int, count: int, mask: int) -> int:
    """z * q^a (1 + q^b + ... + q^((count-1) b)) on a packed residue list,
    count >= 1, where q^a and q^b are left shifts by lo and d bits and the
    cells past the precision are masked off.

    Built by binary powering, from S_1 = 1 over the bits of count after the
    leading one: S_2n = S_n (1 + q^(n b)) and S_(n+1) = 1 + q^b S_n, one
    shift-add each.  Bits above the mask never reach the cells below it,
    so they are masked off once, at the end."""
    z = (z << lo) & mask
    y, copies = z, 1
    for bit in bin(count)[3:]:
        y += y << d * copies
        copies *= 2
        if bit == "1":
            y = z + (y << d)
            copies += 1
    return y & mask


def _top_product(m: int, c: int, w: int, precision: int,
                 mask: int) -> list[int]:
    """The residue ints 0..fit of prod_(c < i <= N) (1 - q^i)(1 - x q^i),
    in one power-sum step; its residues fit + 1..m - 1 are zero.

    The product is sum_k (-1)^k e_k, e_k the k-th elementary symmetric
    function of the monomials q^i and x q^i, and a term of e_k has degree
    at least k(c + 1), so modulo q^(N+1) only k <= fit = N // (c + 1)
    remain.  Newton's identities give k e_k = sum_(j=1..k) (-1)^(j-1)
    e_(k-j) P_j with the power sums P_j = (1 + x^j) sum_i q^(ij).  As
    fit < m, e_k has x-degree at most k and never wraps mod x^m - 1, so
    it is held as the residue ints 0..fit, and residue r of e_(k-j) P_j is
    one window, at stride j, over residues r and r - j of e_(k-j).  A term
    of e_(k-j) starts at cell (k - j)(c + 1), so its copies past
    i = (N - (k - j)(c + 1)) // j land on no cell and are not formed."""
    fit = precision // (c + 1)
    e = [[1] + [0] * fit]
    for k in range(1, fit + 1):
        ke = [0] * (fit + 1)
        for j in range(1, k + 1):
            src = e[k - j]
            count = (precision - (k - j) * (c + 1)) // j - c
            for r in range(k + 1):
                z = src[r] + (src[r - j] if r >= j else 0)
                if z:
                    u = _window(z, w * j * (c + 1), w * j, count, mask)
                    ke[r] += u if j & 1 else -u
        e.append([(x & mask) // k for x in ke])
    return [sum(-x if k & 1 else x for k, x in enumerate(cells)) & mask
            for cells in zip(*e)]


def epsilon_definition(m: int, precision: int) -> list[int]:
    """Cells 0..N of the cyclotomic route: sum over n >= 0 of
    q^(m n) (q^(n+1); q)_inf times the sum over j = 1..m-1 of
    (zeta_m^j q^(n+1); q)_inf.

    With x standing for zeta_m, the product for root 1 has factors
    (1 - x q^i) and is held as m residue lists W_0..W_(m-1) of
    Z[x]/(x^m - 1), each packed into one int (see the module docstring).
    Root j's product is its image under x -> x^j, sum_r W_r zeta_m^(j r),
    and sum_(j=1..m-1) zeta_m^(j r) is m - 1 at r = 0 and -1 elsewhere.
    So only the root-1 product and its accumulator are expanded, and the
    series is the integer combination m W_0 - sum_r W_r of the
    accumulator's residue ints, decoded once.

    Worked from the top block downward so each step multiplies two linear
    factors instead of rebuilding the infinite products.  The factors
    i > c (`_definition_cut`), all applied before the first block is
    added, are multiplied in at once by `_top_product`.  x^a needs a
    distinct factors, a(a + 1) / 2 <= N, so only about sqrt(2N) residues
    are ever nonzero: p holds residues up to its highest live one and
    grows by one zero residue before a pair step could fill it, and the
    accumulator holds as many residues as p, so neither grows with m."""
    w = _definition_slot_bits(m, precision)
    mask = (1 << w * (precision + 1)) - 1
    top = _definition_cut(m, precision)
    p = _top_product(m, top, w, precision, mask)
    acc = []
    for n in range(precision // m, -1, -1):
        for i in range(top, n, -1):  # the factors i > n, not yet applied
            if p[-1] and len(p) < m:
                p.append(0)
            s = w * i
            keep = mask >> s
            _mul_packed_pair(p, s, keep, keep >> s, mask)
        top = n
        s = w * m * n
        keep = mask >> s
        acc += [0] * (len(p) - len(acc))
        for r, x in enumerate(p):
            if x:
                acc[r] += (x & keep) << s
    return _unpack_signed((m * acc[0] - sum(acc)) & mask, w, precision)
