"""The product-side series family.

The base entries (index 1..r) are infinite products 1/prod(1 - q^m) over the
part values m allowed mod M = 2r+1. By the Jacobi triple product, the factors
banned from entry ell, m = 0 and m = +-a mod M with a = r-ell+1, multiply to
the theta series sum over all integers n of (-1)^n q^(M n(n-1)/2 + a n), so
each entry is P(q) times that sum, where P = 1/(q;q)_inf counts all
partitions and comes from Euler's pentagonal recurrence. Entries beyond r are
defined level by level: climbing one level subtracts two entries of the
previous level and divides exactly by a power of q. Because the division
destroys low-order information, a tower to level L starts from a base level
of higher order, chosen upfront so the requested entry is exact to order N.
The padded order N + (r-1)L(L+1)/2 (``_padded_order``) assumes every climb
to a level g divides by the largest shift g(r-1); ``_levels``, ``_tower``'s
rule and ``cli``'s refusal read it. A path back to level 0 cannot take the
largest shift at two levels in a row, so the theta climb starts at the
least order that suffices, N + L(L+1)/2 + (r-2)floor((L+1)^2/4)
(``_climb_order``), about half the padding for large r.

So one climb per r serves every level a command reads: ``_tower(r, levels,
N)`` climbs to the last level of a range and hands off each level of the
range, cut to order N, as the climb passes it. ``cli`` hands a command's
cells the levels of one climb per r, and ``product_series`` climbs to its
one level alone.

The climb is Z[q]-linear and P is a unit, so every entry is P times the
same climb applied to the theta series alone. ``_tower`` picks one of two
packed kernels from (r, L, N) alone, L the top level:

- padding (r-1)L(L+1)/2 at most N (``_levels``): the base level is P times
  each theta series at the padded order, and the climb runs on those
  entries. Their slots (``_PackedLayout.for_counts``) hold sums of t + 1
  partition counts, t the most terms of any theta sum (``_thetas``), and
  every result is checked below its guard bits. Each level handed off is
  then cut to order N and moved into ``for_counts(N, r)`` slots. Level 0
  has no padding, so ``base_product`` reads its entry off this kernel's
  climb to level 0.
- padding above N (``_theta_family``): the climb runs on the theta series
  from the climb order, in balanced signed slots of L + bitlen(t) + 2 bits
  rounded up to whole bytes, since a level-g coefficient is at most 2^g t
  in size. The levels handed off are then divided by (q;q)_inf once, at
  order N, with their r entries each as lanes of one int per exponent
  (entry j of the k-th level in bits (kr+j)W..(kr+j)W+W-1 for a lane width
  W), and leave in ``for_counts(N, r)`` slots. The pass adds one row per
  pentagonal number per exponent, where the other kernel's base level
  shifts P over about 2 sqrt(2N/(2r+1)) theta terms, so it pays only when
  the padding is large.

Either way a division that is not exact raises NonDivisibleError, and a
coefficient that reaches its guard bits raises ArithmeticError.

Both kernels hand over ``_PackedLayout`` series in ``for_counts(N, r)``
slots, whose slot N-w holds q^w (q^0 on top), and ``_levels`` climbs in
slots laid out the same way. So there a shift by q^e is a right shift, which
drops the exponents past the order for free, and a climb step checks that
the top k slots of a difference are zero and then shifts it right by the
order it drops (``_PackedLayout.shift_div``). No dropped slot carries into
a kept one: every entry is checked below its guard bits, and a difference
is rounded where it is cut. The theta climb keeps its own balanced slots in
ascending order (slot w holds q^w, ``_shift_div``) and writes its result
rows from q^N up, so its result lands in the same reversed slots.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial

from .qseries import NonDivisibleError, PackedSeries, _PackedLayout, _Value, _set


class ProductIndex(_Value):
    """Index into the product-side family, canonically decomposed, an
    immutable value (``qseries._Value``).

    index = (r-1)*level + slot, with level = 0 and slot = index for the base
    range 1..r, and slot in 2..r for every higher level. The overlap
    (index at slot 1 equals the previous level's slot r) is resolved here,
    so evaluation never sees a slot-1 recursion step.
    """

    __slots__ = ("r", "index")

    def __init__(self, r: int, index: int):
        if r < 2:
            raise ValueError(f"r must be at least 2, got {r}")
        if index < 1:
            raise ValueError(f"index must be positive, got {index}")
        _set(self, "r", r)
        _set(self, "index", index)

    @property
    def level(self) -> int:
        if self.index <= self.r:
            return 0
        return (self.index - 2) // (self.r - 1)

    @property
    def slot(self) -> int:
        return self.index - (self.r - 1) * self.level


def _pentagonal(N: int) -> tuple[list[int], list[int]]:
    """The generalized pentagonal numbers k(3k-1)/2, k != 0, up to N, in
    increasing order: those with k odd, whose terms of (q;q)_inf are -1, and
    those with k even, whose terms are +1.

    By Euler's pentagonal theorem, (q;q)_inf is the theta series of M = 3
    and a = 1 (``_theta_exponents(1, 1, N)``), whose even-n terms also hold
    the exponent 0 of its leading term 1."""
    even, odd = _theta_exponents(1, 1, N)
    return sorted(odd), sorted(even)[1:]


def _over_euler(terms: list[int], guard: int = 0) -> list[int]:
    """terms / (q;q)_inf to order len(terms) - 1, by Euler's pentagonal
    recurrence y(n) = t(n) + sum over k != 0 of (-1)^(k+1) y(n - k(3k-1)/2).

    The terms may be ints holding several lanes each (module docstring);
    each result y(n) is checked to be non-negative with no bit of ``guard``
    set, and ArithmeticError is raised if it is not.
    """
    odd, even = _pentagonal(len(terms) - 1)
    y: list[int] = []
    for n, x in enumerate(terms):
        for g in odd:
            if g > n:
                break
            x += y[n - g]
        for g in even:
            if g > n:
                break
            x -= y[n - g]
        if x < 0 or x & guard:
            raise ArithmeticError(f"the quotient by (q;q)_inf reached its guard bits at exponent {n}")
        y.append(x)
    return y


def _partition_numbers(N: int) -> list[int]:
    """p(0..N): the series 1 divided by (q;q)_inf."""
    return _over_euler([1] + [0] * N)


def _theta_exponents(r: int, ell: int, N: int) -> tuple[list[int], list[int]]:
    """Exponents up to N of the theta series of base entry ell: those of the
    even-n terms (sign +) and those of the odd-n terms (sign -)."""
    M, a = 2 * r + 1, r - ell + 1
    even: list[int] = []
    odd: list[int] = []
    # n >= 0 gives M n(n-1)/2 + a n, and n = -k gives M k(k+1)/2 - a k;
    # both grow with |n| because 0 < a < M
    for n, step in ((0, 1), (-1, -1)):
        while (e := M * n * (n - 1) // 2 + a * n) <= N:
            (odd if n % 2 else even).append(e)
            n += step
    return even, odd


def _thetas(r: int, N: int) -> tuple[list[tuple[list[int], list[int]]], int]:
    """The theta exponents of base entries 1..r up to N
    (``_theta_exponents``), and t, the most terms of any one sum."""
    thetas = [_theta_exponents(r, ell, N) for ell in range(1, r + 1)]
    return thetas, max(len(terms) for theta in thetas for terms in theta)


def base_product(r: int, ell: int, N: int) -> PackedSeries:
    """Base entry ell in 1..r: product of 1/(1-q^m) over allowed m up to N.

    A part value m is allowed unless m is congruent to 0 or +-(r-ell+1)
    mod 2r+1. The entry is level 0 of the product tower (``_levels``), from
    one climb to that level per call. An overflow or a negative coefficient
    raises ArithmeticError.
    """
    if not 1 <= ell <= r:
        raise ValueError(f"ell must lie in 1..{r}, got {ell}")
    return product_series(ProductIndex(r, ell), N)


def _climb(entries: list[int], g: int, divide: Callable[[int, int], int]) -> list[int]:
    """The r entries of level g from those of level g - 1: entry 1 is the
    last entry below, and entry s in 2..r is the difference of entries
    r-s+1 and r-s+2 below divided by q^(g(s-1)), each through
    ``divide(x, k)``, which divides x by q^k."""
    r = len(entries)
    return [divide(entries[r - 1], 0)] + [
        divide(entries[r - s] - entries[r - s + 1], g * (s - 1)) for s in range(2, r + 1)
    ]


def _padded_order(r: int, top: int, N: int) -> int:
    """Order of the base level that leaves level ``top`` exact to order N
    when every climb to a level g drops g*(r-1) of every entry: the bound
    that ``_levels``, ``_tower``'s rule and ``cli``'s refusal read."""
    return N + (r - 1) * top * (top + 1) // 2


def _climb_order(r: int, top: int, N: int) -> int:
    """The least order of the base level that leaves every level up to
    ``top`` exact to order N, at most ``_padded_order`` and equal to it at
    r = 2.

    Entry s of level g divides entries r-s+1 and r-s+2 of level g-1 by
    q^(g(s-1)), and entry 1 copies entry r, so the indices of a path back
    to level 0 satisfy s_g + s_(g-1) in {r+1, r+2}, and a large shift at
    one level forces a small one at the next. The heaviest path takes s = r
    at levels top, top-2, ... and s = 2 at top-1, top-3, ..., and drops
    top(top+1)/2 + (r-2)*floor((top+1)^2/4).
    """
    return N + top * (top + 1) // 2 + (r - 2) * ((top + 1) ** 2 // 4)


def _levels(r: int, levels: range, N: int) -> list[tuple[_PackedLayout, tuple[int, ...]]]:
    """The r entries of each level in ``levels``, climbed from P times the
    theta series to the last of them, each cut to order N as the climb
    passes it and moved (``_PackedLayout.reslot``) into ``for_counts(N, r)``
    slots.

    Level 0 is P times each theta series: one packed difference of two sums
    of shifted copies of P, checked. Each sum adds at most t copies, t the
    largest term count of any theta sum, and the slots hold sums of t + 1
    counts of partitions. So neither sum carries into the next slot, and
    P's slots stay below 2^(B-g). A result slot that is too large sets a
    guard bit. The lowest negative slot takes no borrow and keeps more than
    2^B - t 2^(B-g) >= 2^(B-g), so it sets one too.

    Climbing to level g divides by up to q^(g(r-1)), so the base level is
    computed at order N + (r-1)*top*(top+1)/2, top the last level, and each
    climb drops g*(r-1) of it; a level below the top is exact to a higher
    order, and the cut drops its slots past N, which are checked and so
    carry nothing. It keeps this padded order, not the lower
    ``_climb_order``: the r entries of a level share one layout, so each
    climb drops the largest shift from all of them. All levels share the
    base level's slot width: every entry counts partitions. Raises
    NonDivisibleError if a division is ever inexact, and ArithmeticError if
    a slot reaches its guard bits; either would mean the construction
    itself is broken.
    """
    order = _padded_order(r, levels[-1], N)
    thetas, t = _thetas(r, order)
    layout = _PackedLayout.for_counts(order, t + 1)
    P = layout.pack(tuple(_partition_numbers(order)))
    sums = ([sum(layout._times_q(P, e) for e in terms) for terms in theta] for theta in thetas)
    entries = [layout._check(plus - minus) for plus, minus in sums]
    out = _PackedLayout.for_counts(N, r)
    family = []
    for g in range(levels[-1] + 1):
        if g:
            src, layout = layout, _PackedLayout(layout.order - g * (r - 1), layout.r, layout.bits)
            entries = _climb(entries, g, partial(layout.shift_div, src=src))
        if g in levels:
            # a level below the top is cut to order N by a right shift
            cut = layout if layout.order == N else _PackedLayout(N, layout.r, layout.bits)
            drop = (layout.order - N) * layout.bits
            family.append((out, tuple(out.reslot(x >> drop, cut) for x in entries)))
    return family


def _shift_div(x: int, k: int, bits: int) -> int:
    """x / q^k for x in balanced ``bits``-bit slots in ascending order (slot
    w holds q^w, as in ``_theta_family``'s climb) whose lowest nonzero slot
    lies in (-2^(bits-1), 2^(bits-1)), kept to every slot of x.

    Raises NonDivisibleError, naming that slot, if a slot below q^k is
    nonzero.
    """
    if not k:
        # each climb divides one entry by q^0; x & 0 and x >> 0 would copy x
        return x
    # abs(x) has x's low zero bits, without the two's complement x & mask builds
    low = abs(x) & ((1 << k * bits) - 1)
    if low:
        # the lowest nonzero slot takes no borrow; read it as signed
        n = ((low & -low).bit_length() - 1) // bits
        c = (x >> n * bits) & ((1 << bits) - 1)
        if c >> (bits - 1):
            c -= 1 << bits
        raise NonDivisibleError(f"coefficient {c} at exponent {n} blocks division by q^{k}")
    return x >> k * bits


def _theta_int(even: list[int], odd: list[int], order: int, s: int) -> int:
    """The theta series with these even-n (sign +) and odd-n (sign -)
    exponents up to ``order``, in balanced ``s``-byte slots in ascending
    order (slot w holds q^w): one byte set per term in each sign's bytes."""
    plus, minus = bytearray((order + 1) * s), bytearray((order + 1) * s)
    for terms, data in ((even, plus), (odd, minus)):
        for e in terms:
            data[e * s] = 1
    return int.from_bytes(plus, "little") - int.from_bytes(minus, "little")


def _theta_family(r: int, levels: range, N: int) -> list[tuple[_PackedLayout, tuple[int, ...]]]:
    """The r entries of each level in ``levels``, packed at order exactly N
    in ``for_counts(N, r)`` slots, climbed from the theta series alone.

    Level 0 is the r theta series (``_theta_int``) at the climb order of
    the last level, top (``_climb_order``), the least order that leaves
    every level up to top exact to N, in balanced slots of S = top +
    bitlen(t) + 2 bits rounded up to whole bytes, t the largest term count
    of either theta sum: each climb subtracts two slots, so a level-g slot
    is at most 2^g t in size, and no slot ever overflows, kept or not.
    Only the divisions are checked (NonDivisibleError). As the climb passes
    each level, the r series of that level are laid out as r lanes of one
    int per exponent up to N, so their slots above order N are dropped, and
    all the lanes are divided by (q;q)_inf in one pass of ``_over_euler``.
    Each quotient coefficient is checked below 2^v, the value bits of the
    result slots, so a sum in the pass stays below 2^(top) t + m 2^v, m the
    number of pentagonal terms up to N, and the lanes of W = max(top +
    bitlen(t), v + bitlen(m)) + 2 bits rounded up to whole bytes never
    carry. A quotient coefficient that
    fails its check raises ArithmeticError. The climb's slots and the rows
    run from q^0 up; the result slots run from q^N up (``_PackedLayout``),
    so the rows are copied in reverse.
    """
    top = levels[-1]
    order = _climb_order(r, top, N)
    thetas, t = _thetas(r, order)
    S = -(-(top + t.bit_length() + 2) // 8) * 8
    layout = _PackedLayout.for_counts(N, r)
    v = layout.bits - (r - 1).bit_length()
    odd, even = _pentagonal(N)
    W = -(-(max(top + t.bit_length(), v + (len(odd) + len(even)).bit_length()) + 2) // 8) * 8
    n, s, w, b, lanes = N + 1, S // 8, W // 8, layout.bits // 8, r * len(levels)
    row = lanes * w
    # a level's slots 0..N, each offset by 2^(S-1) into 0..2^S - 1, are
    # copied byte by byte into its lanes, and each row sheds the offsets
    offset, cut = int.from_bytes((1 << S - 1).to_bytes(s, "little") * n, "little"), (1 << n * S) - 1
    rows = bytearray(n * row)
    entries = [_theta_int(even, odd, order, s) for even, odd in thetas]
    for g in range(top + 1):
        if g:
            entries = _climb(entries, g, partial(_shift_div, bits=S))
        if g in levels:
            for j, x in enumerate(entries, (g - levels.start) * r):
                data = ((x + offset) & cut).to_bytes(n * s, "little")
                for k in range(s):
                    rows[j * w + k :: row] = data[k::s]
    lane_offset = int.from_bytes((1 << S - 1).to_bytes(w, "little") * lanes, "little")
    terms = [int.from_bytes(rows[k : k + row], "little") - lane_offset for k in range(0, n * row, row)]
    guard = int.from_bytes(((1 << W) - (1 << v)).to_bytes(w, "little") * lanes, "little")
    # each copy of the lanes goes as the next is made, so at most two live at once
    del rows
    quotients = _over_euler(terms, guard)
    del terms
    for k, y in enumerate(quotients):
        quotients[k] = y.to_bytes(row, "little")
    data = b"".join(reversed(quotients))
    del quotients
    family = []
    for j in range(lanes):
        out = bytearray(n * b)
        for k in range(min(b, w)):
            out[k::b] = data[j * w + k :: row]
        family.append(int.from_bytes(out, "little"))
    return [(layout, tuple(family[j : j + r])) for j in range(0, lanes, r)]


def _tower(r: int, levels: range, N: int) -> list[tuple[_PackedLayout, tuple[int, ...]]]:
    """The layout and r entries of each level in ``levels``, at order N in
    ``for_counts(N, r)`` slots, from one climb to the last of them.

    A tower whose padding at that level, (r-1)*top*(top+1)/2, exceeds N
    climbs the theta series alone (``_theta_family``, from the lower
    ``_climb_order``); any other climbs P times them (``_levels``), because
    its base level is cheaper than a pass of Euler's recurrence over r lanes
    per level at order N. The rule reads the padded order, not the climb
    order, so no tower changes kernel when the theta climb starts lower.
    """
    kernel = _theta_family if _padded_order(r, levels[-1], N) > 2 * N else _levels
    return kernel(r, levels, N)


def product_series(idx: ProductIndex, N: int) -> PackedSeries:
    """The product-side series for the given index, exact to order N: its
    level's packed entry, in ``for_counts(N, r)`` slots."""
    if N < 0:
        raise ValueError("order must be non-negative")
    [(layout, entries)] = _tower(idx.r, range(idx.level, idx.level + 1), N)
    return PackedSeries(layout, entries[idx.slot - 1])

