"""Combinatorial counters for the five partition families.

Everything here counts by dynamic programming over parts, plus an
independent brute-force oracle that enumerates every partition of n <= 40
and applies each family's definition as one predicate.  This module never
touches the series machinery: agreement between these counts and the
generating-function expansions is one of the package's core cross-checks,
so the two sides must stay independent.

Each DP table 0..n_max is held as one int, the sum of dp[t] * 2^(w*(n_max-t))
over t: cell t is the w-bit slot n_max - t, so cell 0 is the top slot.
Allowing a part k multiplies the table by a polynomial in q^k, and q^k is
a right shift by w*k bits, which drops exactly the cells pushed past
n_max.  So a DP step is a few whole-table shift-and-adds, and a table is
decoded into a list once per build.

Two steps do all the work, both built on one primitive, `_window` (z times
1 + q^d + ... + q^((c-1)d), by binary powering).  `_allow_part` allows one
part k: a window of x at shift w*k.  `_allow_large_parts` allows every
part of a range above n_max / r at once: at most fit <= r - 1 of them fit
in a partition of t <= n_max, so modulo q^(n_max+1) their factors multiply
to h_0 + h_1 + ... + h_fit, h_j the terms with j of them, and Newton's
identities give each x*h_j from the earlier ones in j windows, at strides
1..j, of ever shorter ints.  A, B and D step their parts up to n_max // r
one at a time and the rest in one such step, with r = `_ratio(n_max)`
(3 below n_max = 172, 8 at 1800, 11 at 5000; its docstring counts the
shift-adds it balances); D steps no further than n_max // (m + 1) + 1
either, since each block of m copies of a larger smallest part adds one
cell, all of them one stride-m window.  Bj and C step parts up to
n_max / 2 only: what a larger part feeds into their output is read off
the cells below n_max / 2, which no later part changes, so all of it is
one stride-m window.  From largest part L (Bj) or block j (C) on, they
read x only at cells t <= n_max - L or n_max - m*j, so x holds just
those: each step shifts the cells past that live bound off, and every
later window, cap and add runs on a shorter int.

This is exact because no slot ever carries into the next.  Every cell of
a table a builder keeps counts restricted partitions of some t <= n_max,
so it is at most p(t).  The power-sum step also makes tables of pairs: a
cell of x*h_(j-i) times the sum of q^(i*k) over the large parts counts
pairs (k, pi), pi one of x*h_(j-i)'s partitions of t - i*k, and (k, pi) ->
pi + {k, ..., k} (i copies) meets each partition of t at most j / i times
(k must be one of its j large parts with i copies), so those cells are at
most j*p(t) <= fit*p(t), and so is every cell of a window along the way.
The signed sum of such ints that gives j*x*h_j is plain integer
arithmetic, so it is the packed table of the cells j*(x*h_j)[t], which
lie in [0, 2^w), whatever it passes through, and its `// j` is exact slot
by slot.  B's sum over its large parts, the window over all of them minus
the stride-m window over their multiples of m, is such a signed sum too.
So every cell is at most (r - 1)*p(n_max) (r - 1 >= 2 covers Bj and C),
and as p(n) < exp(pi*sqrt(2n/3)) / n^(3/4) for n >= 1 (Pribitkin, "Simple
upper bounds for partition functions", Ramanujan J. 18 (2009) 113-119)
and r - 1 <= 2*n^(3/4), below 2*exp(pi*sqrt(2*n_max/3)).  `_slot_bits`
holds the bits of that bound and a spare bit, so no cell reaches
2^(w - 1) (test_slot_width_holds_every_count_up_to_the_ceiling pins it
with p(n) itself up to n = 5000, and with the bound up to n = 10^6).
Each int is then the plain base-2^w digit string of its table: adds do
not carry, and a right shift by whole slots drops whole cells.  C's cap
takes from every cell at most what it holds (its result is again a
table of counts), so it does not borrow either.

Family conventions at n = 0: the bounded-multiplicity family (A) and the
no-multiple family (B) count the empty partition (1); the largest-part
families (Bj) count nothing (0, no largest part exists); C counts 1 by
definition; D counts 1 (the block of m zero parts).
"""

from __future__ import annotations

import math
import struct
import threading
from collections import namedtuple
from itertools import repeat

FAMILIES = ("A", "B", "Bj", "C", "D")

BRUTE_FORCE_LIMIT = 40


class FamilySpec(namedtuple("FamilySpec", "family m j")):
    """Selects one counting family at a fixed modulus m (and branch j for Bj)."""

    __slots__ = ()

    def __new__(cls, family: str, m: int, j: int | None = None):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}, expected {FAMILIES}")
        if m < 2:
            raise ValueError("m must be >= 2")
        if family == "Bj":
            if j is None:
                raise ValueError("family Bj requires j")
            if not 1 <= j <= m - 1:
                raise ValueError(f"j must lie in [1, {m - 1}]")
        elif j is not None:
            raise ValueError(f"family {family} takes no j")
        return super().__new__(cls, family, m, j)


class CountTable(namedtuple("CountTable", "spec counts")):
    """Exact counts for one family, indexed 0..n_max."""

    __slots__ = ()

    @property
    def n_max(self) -> int:
        return len(self.counts) - 1


# ---------------------------------------------------------------------------
# table builders (each returns a plain list of ints indexed 0..n_max)
# ---------------------------------------------------------------------------


def _slot_bits(n_max: int) -> int:
    """The slot width for tables 0..n_max, whose cells stay below
    2*exp(pi*sqrt(2*n_max/3)) (see the module docstring): the bits of
    that bound and one spare bit, rounded up to whole bytes."""
    bits = int(math.pi * math.sqrt(2 * n_max / 3) / math.log(2))
    return (bits + 10) // 8 * 8


def _ratio(n_max: int) -> int:
    """r: A, B and D step parts up to n_max // r one at a time and add every
    larger part, at most r - 1 of which fit, in one power-sum step.

    Counted in whole-table shift-adds, raising r by one takes about
    n_max / r^2 parts out of the loop, at about two shift-adds each, and
    adds about r windows to the step, at about L = log2(n_max / r)
    shift-adds each on a table whose cells below j large parts are zero:
    the step costs about L r^2 / 6 whole tables.  The two balance at
    r^3 = 6 n_max / L, near n_max / 1.3 at the sizes here.  Builds timed
    at every r from 3 to 14 (n_max = 500, 1000, 1250, 1800 and 5000; the
    minimums are in CHANGES.md) put the best r lower, since every window
    also costs an add into its sum and interpreter work that the count
    leaves out: near r^3 = n_max / 2.5 for A, and n_max / 5 to n_max / 3.5
    for B (its loop skips the multiples of m, and its power sums take two
    windows each).  D's time is flat once r > m, where its cut is
    n_max // (m + 1) + 1.  r^3 = n_max / 4 lies between A and B: r = 3,
    the pair step, up to n_max = 171, 8 at 1800 and 11 at 5000.  It came within
    about 6 % of the fastest r for every builder timed but A at m = 5,
    which is faster at larger r (by 18 % at 1000 and 5000).  Sizes above
    5000 were not timed."""
    r = 3
    while (2 * r + 1) ** 3 <= 2 * n_max:  # r rounds (n_max / 4)^(1/3)
        r += 1
    return r


def _unpack(x: int, w: int, n_max: int) -> list[int]:
    """The cells 0..n_max of a packed table."""
    raw = x.to_bytes(w // 8 * (n_max + 1), "big")
    cells = struct.unpack(f"{w // 8}s" * (n_max + 1), raw)
    return list(map(int.from_bytes, cells, repeat("big")))


def _window(z: int, shift: int, count: int) -> int:
    """z * (1 + q^d + ... + q^((count-1)d)) on a packed table, count >= 1,
    where q^d is a right shift by `shift` bits.

    Built by binary powering, from S_1 = 1 over the bits of count after the
    leading one: S_2a = S_a * (1 + q^(ad)) and S_(a+1) = 1 + q^d * S_a, one
    shift-add each.  Every cell along the way is a sum of at most count
    cells of z, all of them terms of the final window."""
    y, copies = z, 1
    for bit in bin(count)[3:]:
        y += y >> shift * copies
        copies *= 2
        if bit == "1":
            y = z + (y >> shift)
            copies += 1
    return y


def _over(z: int, parts: range, w: int, s: int = 1) -> int:
    """z * (sum of q^(s*k) over k in parts), one window for the range.  A
    copy shifted past the top bit of z is zero, so the window stops at the
    last part that still lands on a cell."""
    d = w * s
    stop = (z.bit_length() - 1) // d + 1  # z >> d*k is 0 from k = stop on
    if stop < parts.stop:
        parts = range(parts.start, stop, parts.step)
    if not parts:
        return 0
    return _window(z >> d * parts.start, d * parts.step, len(parts))


def _allow_part(x: int, k: int, m: int | None, w: int, n_max: int) -> int:
    """One DP step on a packed table of cells 0..n_max: allow part k with
    multiplicity below m (None for no bound), i.e. multiply by 1 + q^k +
    ... + q^((m-1)k), the window of m copies of x at shift w*k.  Copies
    past n_max // k fall off, so an m above that (or None) becomes the
    power of two just above it."""
    reach = n_max // k
    c = m if m is not None and m <= reach else 1 << reach.bit_length()
    return _window(x, w * k, c)


def _allow_large_parts(x: int, parts: range, m: int | None, w: int,
                       n_max: int, skip: range = range(0)) -> int:
    """Allow every part in `parts` but those in `skip` (a subset of parts)
    in one step, each with multiplicity below m (None for no bound).

    No partition of t <= n_max holds more than fit = n_max // parts.start
    such parts, so modulo q^(n_max+1) their factors multiply to
    h_0 + h_1 + ... + h_fit, h_j the terms with j of them.  Each factor is
    (1 - q^(mk)) / (1 - q^k), so the log of the product is the sum over i
    of c_i p_i / i, p_i the sum of q^(ik) over the allowed parts and c_i =
    1 - m [m | i] (1 with no bound), and Newton's identities give
    j h_j = sum_(i=1..j) c_i p_i h_(j-i).  On v_j = x h_j that is
    j v_j = sum_i c_i U_i(v_(j-i)), where U_i(z) = z p_i is a window at
    stride i, or for a skip the difference of two windows."""
    def times_u(z: int, i: int) -> int:
        u = _over(z, parts, w, i)
        return u - _over(z, skip, w, i) if skip else u

    v = [x, times_u(x, 1)]
    for j in range(2, n_max // parts.start + 1):
        acc = times_u(v[j - 1], 1)
        for i in range(2, j + 1):
            term = times_u(v[j - i], i)
            acc += term if m is None or i % m else (1 - m) * term
        v.append(acc // j)
    return sum(v)


def _build_bounded_mult(m: int, n_max: int) -> list[int]:
    cut = n_max // _ratio(n_max)
    w = _slot_bits(n_max)
    x = 1 << w * n_max
    for k in range(1, cut + 1):
        x = _allow_part(x, k, m, w, n_max)
    x = _allow_large_parts(x, range(cut + 1, n_max + 1), m, w, n_max)
    return _unpack(x, w, n_max)


def _build_B(m: int, n_max: int) -> list[int]:
    lo = n_max // _ratio(n_max) + 1
    w = _slot_bits(n_max)
    x = 1 << w * n_max
    for k in range(1, lo):
        if k % m:
            x = _allow_part(x, k, None, w, n_max)
    x = _allow_large_parts(x, range(lo, n_max + 1), None, w, n_max,
                           skip=range(lo + -lo % m, n_max + 1, m))
    return _unpack(x, w, n_max)


def _build_Bj(m: int, n_max: int) -> list[list[int]]:
    """The largest-part-residue tables of residues 1..min(m-1, n_max) (at
    least residue 1) in one ascending sweep.  A residue above n_max is the
    residue of no part up to n_max, so its table would be all zero.

    From largest part L on, x is read only at its cells t <= n_max - L, so
    x holds just those: cell t in slot live - t, live = n_max - L.  Then x
    is also the packed x >> w*L that L adds to its residue's table."""
    w = _slot_bits(n_max)
    x, live = 1 << w * n_max, n_max
    tabs = [0] * max(1, min(m - 1, n_max))
    half = n_max // 2
    for largest in range(1, half + 1):
        if largest % m == 0:
            continue
        x >>= w * (live - n_max + largest)  # shed cells past n_max - largest
        live = n_max - largest
        x = _allow_part(x, largest, None, w, live)
        tabs[largest % m - 1] += x
    # a largest part L above n_max / 2 reads only cells t <= n_max - L <
    # n_max / 2 of x, which no part from L on changes: one window per
    # residue adds every such L
    x >>= w * (live - n_max + half + 1)
    for r in range(1, len(tabs) + 1):
        tabs[r - 1] += _over(x, range((r - half - 1) % m, n_max - half, m), w)
    return [_unpack(tab, w, n_max) for tab in tabs]


def _build_C(m: int, n_max: int) -> list[int]:
    """Largest part a multiple of m (say m*j), parts <= j repeating < m times,
    parts in (j, m*j] unrestricted (extra copies of m*j allowed).

    From block j on, x is read only at its cells t <= n_max - m*j, so x
    holds just those: cell t in slot live - t, live = n_max - m*j.  Then x
    is also the packed x >> w*m*j that block j adds to `out`."""
    w = _slot_bits(n_max)
    x = out = 1 << w * n_max
    # step j until every part up to n_max / 2 is in
    steps = min(-(-(n_max // 2) // m), n_max // m)
    for j in range(1, steps + 1):
        x >>= w * m
        live = n_max - m * j
        # Allowing part m*j freely and then capping part j are the two
        # clauses of C's definition, kept as two steps on purpose.  They
        # cancel only as algebra, leaving the product of 1/(1 - q^k) over
        # k <= m*j with m not dividing k, which is the product _build_Bj
        # sweeps: built that way, T1.3 (B^(m-1)(n) = C(n+1)) would compare
        # one product with itself.
        # newly reachable parts (m*(j-1), m*j], unrestricted multiplicity;
        # a part above `live` lands only on cells no later read reaches
        for k in range(m * (j - 1) + 1, min(m * j, live) + 1):
            x = _allow_part(x, k, None, w, live)
        # part j leaves the unrestricted zone: cap its multiplicity at m-1
        # (no borrow: m more copies of j turn a partition x counts at
        # t - m*j into one it counts at t)
        x -= x >> w * m * j
        # one mandatory copy of the largest part m*j
        out += x
    # block j > steps (m*j > n_max / 2) reads only cells t <= n_max - m*j <
    # n_max / 2 of x, which neither the parts above n_max / 2 nor the caps
    # at m*j change: one window adds every such j
    out += _over(x >> w * m, range(0, n_max - m * (steps + 1) + 1, m), w)
    return _unpack(out, w, n_max)


def _build_D(m: int, n_max: int) -> list[int]:
    """Smallest part s occurring exactly m times (s = 0 allowed), every other
    part above s repeating < m times."""
    # block s adds q^(m*s) F_s, F_s the product over the parts above s.
    # From s = low on, (m + 1)*s > n_max, so block s lands only F_s's cells
    # t <= n_max - m*s < s, where F_s is 1 at t = 0 and 0 elsewhere: those
    # blocks add q^(m*s) alone, one `_over` window for all of them (0 when
    # m*low > n_max, as no such block lands).  The parts above low (and
    # above n_max / r) then read no `out`: allow them first, in one step.
    # The loop always reaches p = 1, whose s = 0 is the block of m zero
    # parts, so D(0) = 1 needs no case of its own.
    low = max(n_max // (m + 1) + 1, n_max // _ratio(n_max))
    w = _slot_bits(n_max)
    out = _over(1 << w * n_max, range(low, n_max // m + 1), w, m)
    x = _allow_large_parts(1 << w * n_max, range(low + 1, n_max + 1), m, w,
                           n_max)
    for p in range(low, 0, -1):
        x = _allow_part(x, p, m, w, n_max)
        s = p - 1
        if m * s <= n_max:
            out += x >> w * m * s
    return _unpack(out, w, n_max)


_cache: dict = {}
_cache_lock = threading.Lock()
_CACHE_LIMIT = 64  # tables kept; a store past it evicts the oldest store


def _table(key, n: int, build):
    """The cached table for key = (family, m), holding at least 0..n, built
    as build(m, size).  Checks m and n for every counter.
    Tables are rebuilt larger on demand (with doubling, so ascending-n call
    patterns stay amortized) and are safe to read concurrently once
    returned.

    The lock guards only the cache lookup and the store: a build runs
    outside it, so a slow build of one table blocks no other.  Two threads
    may build the same key at once; the larger table is kept.

    At most _CACHE_LIMIT tables are kept.  A store moves its key to the
    newest place and evicts the key stored longest ago past the limit;
    reads do not reorder."""
    m = key[1]
    if m < 2:
        raise ValueError("m must be >= 2")
    if n < 0:
        raise ValueError("n must be non-negative")
    with _cache_lock:
        size, entry = _cache.get(key, (-1, None))
    if size >= n:
        return entry
    target = max(n, 2 * size, 64)
    entry = build(m, target)
    with _cache_lock:
        size, cached = _cache.get(key, (-1, None))
        if size >= target:
            return cached
        _cache.pop(key, None)
        _cache[key] = (target, entry)
        if len(_cache) > _CACHE_LIMIT:
            del _cache[next(iter(_cache))]
    return entry


# ---------------------------------------------------------------------------
# public counters
# ---------------------------------------------------------------------------


def _family_table(family: str, m: int, j: int | None, n: int) -> list[int]:
    """The cached table of one family holding at least 0..n: the one place
    a family picks its cache key and builder."""
    if family == "Bj":
        tabs = _table(("Bj", m), n, _build_Bj)
        # a residue past the built ones has no part up to the table's size
        return tabs[j - 1] if j <= len(tabs) else [0] * len(tabs[0])
    build = {"A": _build_bounded_mult, "B": _build_B, "C": _build_C,
             "D": _build_D}[family]
    return _table((family, m), n, build)


def count_bounded_mult(m: int, n: int) -> int:
    """Partitions of n whose parts each repeat fewer than m times."""
    return _family_table("A", m, None, n)[n]


def count_A(m: int, n: int) -> int:
    """Partitions of n whose parts repeat fewer than m times."""
    return count_bounded_mult(m, n)


def count_B(m: int, n: int) -> int:
    """Partitions of n with no part divisible by m."""
    return _family_table("B", m, None, n)[n]


def count_Bj(m: int, j: int, n: int) -> int:
    """Partitions of n with no part divisible by m and largest part
    congruent to j mod m; 0 at n = 0 (the empty partition has no largest
    part)."""
    FamilySpec("Bj", m, j)  # reports a bad m, then a missing or bad j
    return _family_table("Bj", m, j, n)[n]


def count_C(m: int, n: int) -> int:
    """Partitions of n whose largest part is a multiple of m, say m*j, with
    every part <= j repeating fewer than m times; 1 at n = 0 by definition."""
    return _family_table("C", m, None, n)[n]


def count_D(m: int, n: int) -> int:
    """Partitions of n into non-negative parts whose smallest part occurs
    exactly m times while every other part repeats fewer than m times."""
    return _family_table("D", m, None, n)[n]


def count_table(spec: FamilySpec, n_max: int) -> CountTable:
    """The full count vector 0..n_max for one family.  One call of its
    count_* function at n_max (looked up by name, so a rebound one is
    called) only builds the table; the vector is sliced from the cache."""
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    head = (spec.m,) if spec.j is None else (spec.m, spec.j)
    globals()["count_" + spec.family](*head, n_max)
    table = _family_table(spec.family, spec.m, spec.j, n_max)
    return CountTable(spec, tuple(table[:n_max + 1]))


# ---------------------------------------------------------------------------
# brute force (independent oracle; shares nothing with the DP above)
# ---------------------------------------------------------------------------


def _partitions(n: int):
    """Yield every partition of n once, parts descending, in reverse
    lexicographic order from [n]: each step lowers the last part above 1
    by one and refills the rest of the sum with copies of the lowered
    part (and one smaller remainder).  The list is reused between yields;
    callers must not keep a reference."""
    parts = [n] if n else []
    while True:
        yield parts
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        k = parts.pop() - 1
        copies, rest = divmod(k + 1 + ones, k)
        parts += [k] * copies
        if rest:
            parts.append(rest)


def _runs_below(parts: list[int], m: int) -> bool:
    """True when no part of the descending `parts` repeats m or more times,
    i.e. no parts[i] equals parts[i + m - 1]."""
    return all(map(int.__ne__, parts, parts[m - 1:]))


def brute_force_count(spec: FamilySpec, n: int) -> int:
    """Count by generating every partition explicitly and applying the family
    definition verbatim.  Guarded to n <= 40."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force refused for n = {n} > {BRUTE_FORCE_LIMIT}"
        )
    m, j = spec.m, spec.j
    if spec.family == "D":
        # smallest part s >= 0 occurring exactly m times, every other part
        # above s repeating fewer than m times
        return sum(1 for s in range(n // m + 1) for p in _partitions(n - m * s)
                   if (not p or p[-1] > s) and _runs_below(p, m))
    keep = {
        "A": lambda p: _runs_below(p, m),
        "B": lambda p: all(k % m for k in p),
        # the empty partition has no largest part
        "Bj": lambda p: p and p[0] % m == j and all(k % m for k in p),
        # largest part m*i, parts <= i repeating fewer than m times; the
        # empty partition counts by definition
        "C": lambda p: not p or p[0] % m == 0 and _runs_below(
            [k for k in p if k <= p[0] // m], m),
    }[spec.family]
    return sum(1 for p in _partitions(n) if keep(p))
