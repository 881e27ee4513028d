"""Partition counting under Gordon difference conditions.

Two independent routes to the same counts are kept side by side on purpose:
``enumerate_gordon`` lists partitions and checks the difference conditions
literally (the permanent correctness oracle, exponential in n), while
``gordon_series`` runs a polynomial dynamic program over part multiplicities.
The DP rests on the equivalence: a partition whose parts all exceed J
satisfies "parts r-1 apart differ by at least 2" exactly when every two
adjacent part values a, a+1 together occur at most r-1 times. The cap of
i-1 parts equal to J+1 is that rule at J, J+1 with J taken r-i = ell-1
times, so the DP has one step rule and starts from the unit vector e_ell.

The DP is one ascending scan of the part values, kept packed. The cells
of one (r, J) differ only in their start e_ell, so one scan serves every i
of a plan, its starts as interleaved lanes of one int (``_lane_scans``).
It goes on from the states at stage max(N, J+1) to the family walk's
q-adic stop (``_stages``), so the family route (``families.family_limit``)
does not scan again, and each lane hands off its partition series and its
family limit. ``cli`` runs one such scan per (r, J) of a scan and hands each
cell its pair; ``gordon_series`` and ``family_limit`` read theirs off a
one-lane scan of one cell. That scan and the Hilbert
side's descending one (``hilbert._floors``) run as ``_growing_scan``: in
slots as wide as the counts so far need, checked at every step, and handed
off in the ``_PackedLayout.for_counts`` slots that the a-priori bound
gives. Each steps only the values up to N/2: a vector of weight at most N
takes at most one part above N/2, once, so the values above it are summed
in closed form (``_above_half``), at the end of the ascending scan to N and
at the start of the descending one from N.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate

from .qseries import PackedSeries, _PackedLayout, _Value, _set


class GordonParams(_Value):
    """Parameter triple (r, i, J) of the shifted Gordon conditions, an
    immutable value (``qseries._Value``).

    r >= 2 is the modulus parameter (classes mod 2r+1 on the product side),
    1 <= i <= r bounds how many parts may equal J+1, and J >= 0 is the
    shift: all parts must exceed J.
    """

    __slots__ = ("r", "i", "J")

    def __init__(self, r: int, i: int, J: int):
        if r < 2:
            raise ValueError(f"r must be at least 2, got {r}")
        if not 1 <= i <= r:
            raise ValueError(f"i must lie in 1..{r}, got {i}")
        if J < 0:
            raise ValueError(f"J must be non-negative, got {J}")
        _set(self, "r", r)
        _set(self, "i", i)
        _set(self, "J", J)

    @property
    def ell(self) -> int:
        """Complementary index r - i + 1; selects the excluded residues +-ell."""
        return self.r - self.i + 1

    @property
    def product_index(self) -> int:
        """Index (r-1)*J + ell of the matching product-side series."""
        return (self.r - 1) * self.J + self.ell


class Partition(_Value):
    """A non-increasing sequence of positive integer parts, an immutable
    value (``qseries._Value``)."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        if any(p < 1 for p in parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError("parts must be non-increasing")
        _set(self, "parts", parts)


def iter_partitions(n: int, min_part: int = 1) -> Iterator[tuple[int, ...]]:
    """All partitions of n with parts >= min_part, as non-increasing tuples."""
    if n == 0:
        yield ()
        return

    def rec(remaining: int, max_part: int, prefix: list[int]):
        if remaining == 0:
            yield tuple(prefix)
            return
        for first in range(min(remaining, max_part), min_part - 1, -1):
            prefix.append(first)
            yield from rec(remaining - first, first, prefix)
            prefix.pop()

    yield from rec(n, n, [])


def satisfies_gordon(p: Partition, params: GordonParams) -> bool:
    """Check the three Gordon conditions directly on the part list.

    1. parts r-1 positions apart differ by at least 2,
    2. every part exceeds J,
    3. at most i-1 parts equal J+1.
    """
    parts = p.parts
    r, i, J = params.r, params.i, params.J
    span = r - 1
    for m in range(len(parts) - span):
        if parts[m] - parts[m + span] < 2:
            return False
    if parts and parts[-1] <= J:
        return False
    if sum(1 for x in parts if x == J + 1) > i - 1:
        return False
    return True


def enumerate_gordon(params: GordonParams, n: int) -> list[Partition]:
    """Brute-force oracle: all partitions of n passing the Gordon conditions.

    Output is sorted lexicographically decreasing, for reproducible goldens.
    Intended for n up to roughly 30; the partition count grows too fast
    beyond that for routine use.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    found = [
        Partition(parts)
        for parts in iter_partitions(n, min_part=params.J + 1)
        if satisfies_gordon(Partition(parts), params)
    ]
    found.sort(key=lambda p: p.parts, reverse=True)
    return found


#: A scan whose ``for_counts`` slots are at most this many bits wide (orders
#: up to about 60) runs in them from its first step. Starting those narrow
#: too made the scan-suites benchmark, with one lane scan per (r, J), slower
#: in 8 of 10 alternating pairs (``perfbench/run.py --seconds 4``, Python
#: 3.11 on a 2-core Xeon VM): median wall_s 22.97 ms against 22.21 ms.
_FIXED_SLOT_BITS = 32
#: Bytes that the r states of one ascending lane scan may take in their
#: ``for_counts`` slots: lanes x r x (N+1) x slot bytes. A scan of more lanes
#: than fit runs in passes of as many as fit, and always at least one.
_LANE_BYTES = 2 * 2**20


def _above_half(layout: _PackedLayout, state: list[int], values: range) -> list[int]:
    """The states that one ``layout.step`` per value of ``values`` returns
    from ``state``, in closed form: ``values`` are consecutive, ascending or
    descending, and each lies above N/2 and at most at N, the order.

    A vector of weight at most N takes at most one of those values, once.
    With T the total of ``state`` and P its states 1..r-1, the ones that
    admit one part of the first value u, the states after u are [T, q^u P].
    Each later value v adds q^v T, the vectors that take v (one that took
    an earlier value too weighs more than N), and state 2 holds those of
    the last value, w: so the states are [T + q^u P + sum of q^v T - x, x],
    x = q^w (P if w = u, else T). The later values form one run of
    exponents lo..hi, and its sum is q^lo T times 1 + q + ... + q^(N-lo),
    by doubling, less that times q^(hi+1-lo).

    T is checked as ``step`` checks its input total. Every sum adds two
    checked operands, which never carry, and is checked, so the states are
    exact or ArithmeticError is raised; a difference takes a part of a sum,
    and never borrows.
    """
    prefix = list(accumulate(state))
    total = layout._check(prefix[-1])
    capped = prefix[min(layout.r - 2, len(prefix) - 1)]
    u, rest = values[0], values[1:]
    out = layout._check(total + layout._times_q(capped, u))
    if rest:
        lo, hi = sorted((rest[0], rest[-1]))
        run, terms = layout._times_q(total, lo), 1
        while terms <= layout.order - lo:
            run = layout._check(run + layout._times_q(run, terms))
            terms *= 2
        run -= layout._times_q(run, hi + 1 - lo)
        out = layout._check(out + run)
    last = layout._times_q(total if rest else capped, values[-1])
    return [out - last, last]


def _growing_scan(r: int, N: int, values: range, *ells: int) -> tuple[_PackedLayout, list[int]]:
    """Scans multiplicity vectors (f_a) over ``values``, in the given order,
    to order N, once per start e_ell, ell in ``ells`` (e_1 if none), as
    interleaved lanes: its layout, with the slots of ``for_counts(N, r)``
    and one lane per start (that layout itself for one start), and its
    states in that layout, packed series as one ``step`` per value leaves
    them, lane k from e_(ells[k]).

    State j holds the vectors whose last scanned multiplicity is j-1.
    Adjacent multiplicities sum to at most r-1, so scanning a sets f_a = j-1
    on the vectors of states 1..r-j+1. The start e_ell is the empty scan
    after a multiplicity ell-1, so the first scanned value occurs at most
    r-ell times; e_1 = [1] caps nothing.

    The slots grow with the counts. A scan wider than ``_FIXED_SLOT_BITS``
    starts in the narrowest whole bytes above the guard bits of r states,
    one byte for r <= 128. When a step's guard check fires on its input
    total, in any lane, its input states move into slots half as wide
    again, rounded up to whole bytes, and the same value is stepped again.
    They may: each is a partial sum of the last checked total, so each slot
    is below its value bits. The scan never grows past the ``for_counts(N,
    r)`` slots, and a check that fires there propagates. The output of the
    last step was never checked, so its states are handed off into
    ``for_counts`` slots and every reader checks their sums there.

    The values above N/2 and at most N are not stepped but summed in closed
    form (``_above_half``): those that end an ascending scan to N, after the
    hand-off and in the ``for_counts`` slots, and those that start a
    descending one from N, from the start itself, whose counts are 0 and 1.
    The states are the ones that stepping returns, list for list.
    """
    ells = ells or (1,)
    top = _PackedLayout.for_counts(N, r)
    if len(ells) > 1:
        top = _PackedLayout(N, r, top.bits, len(ells))
    if top.bits <= _FIXED_SLOT_BITS:
        layout = top
    else:
        layout = _PackedLayout(N, r, 8 * ((r - 1).bit_length() // 8 + 1), len(ells))
    start = [0] * max(ells)
    for k, ell in enumerate(ells):
        start[ell - 1] |= 1 << k * layout.bits
    state = [x * layout.one for x in start]
    tail = values[:0]
    if values and values.step == -1 and values[0] == N:
        head, values = values[: N - N // 2], values[N - N // 2 :]
        state = _above_half(layout, state, head)
    elif values and values.step == 1 and values[-1] == N:
        cut = max(N // 2 + 1 - values[0], 0)
        values, tail = values[:cut], values[cut:]
    for a in values:
        while True:
            try:
                state = layout.step(state, a)
                break
            except ArithmeticError:
                if layout is top:
                    raise
                bits = layout.bits + -(-layout.bits // 16) * 8
                wider = top if bits >= top.bits else _PackedLayout(N, r, bits, len(ells))
                state = [wider.reslot(x, layout) for x in state]
                layout = wider
    if layout is not top:
        state = [top.reslot(x, layout) for x in state]
    if tail:
        state = _above_half(top, state, tail)
    return top, state


def _stages(
    layout: _PackedLayout, J: int, N: int, stage: int, state: list[int], end: int | None = None
) -> Iterator[tuple[int, list[int]]]:
    """(stage, packed states) for the stages after ``stage`` up to ``end``
    or J+N+2, whichever comes first, stepping ``state`` once per stage.

    At a stage d > N every state j >= 2 is shifted by d(j-1) > N, so it is
    zero, and the next stage's state 1 is this stage's total: state 1 again.
    So to order N the walk is constant from stage J+N+2 > N on, where a step
    returns [total] unchanged, and it stops there.
    """
    last = J + N + 2 if end is None else min(end, J + N + 2)
    for d in range(stage + 1, last + 1):
        state = layout.step(state, d)
        yield d, state


def _passes(r: int, N: int, ells: Sequence[int]) -> list[Sequence[int]]:
    """``ells`` in runs of as many lanes as ``_LANE_BYTES`` holds at (r, N),
    and always at least one."""
    per = max(1, _LANE_BYTES // (r * (N + 1) * _PackedLayout.for_counts(N, r)._width))
    return [ells[k : k + per] for k in range(0, len(ells), per)]


def _lane_scans(r: int, J: int, ells: Sequence[int], N: int) -> list[tuple[PackedSeries, PackedSeries]]:
    """The partition series and the family limit, each packed in
    ``for_counts(N, r)`` slots, of every start e_ell, ell in ``ells``, at
    (r, J): one ascending lane scan of the part values J+1..D, D =
    max(N, J+1), which steps J+1..max(J, N/2) and sums the rest in closed
    form, in passes of as many lanes as ``_LANE_BYTES`` holds.

    At most i-1 = r-ell parts equal J+1, since lane ell starts from e_ell.
    Scanning J+1 even when N < J+1 applies that cap to the states, which the
    family walk goes on from. A lane's partition series is the sum of its
    states. Its family limit is entry 1 where the walk stops: it steps the
    same states on (``_stages``) until entry 1 stops changing and every
    later entry is zero to order N in every lane; from that point no future
    stage can alter entry 1 below q^(N+1), and a lane that stopped earlier
    stays constant past stage N, so the limit is the total of its stage-D
    states. Each lane leaves by ``unlace``; where the two ints are equal, as
    they are unless a step is at fault, they leave once, and each cell's one
    series serves as both.
    """
    one = _PackedLayout.for_counts(N, r)
    stage, out = max(N, J + 1), []
    for lanes in _passes(r, N, ells):
        layout, state = _growing_scan(r, N, range(J + 1, stage + 1), *lanes)
        total = sum(state)
        for _, nxt in _stages(layout, J, N, stage, state):
            if nxt[0] == state[0] and not any(nxt[1:]):
                break
            state = nxt
        else:
            raise RuntimeError("entry 1 failed to stabilize in the walk; the valuation ladder must be broken")
        series = [PackedSeries(one, x) for x in one.unlace(total, layout)]
        limits = series if nxt[0] == total else [PackedSeries(one, x) for x in one.unlace(nxt[0], layout)]
        out += zip(series, limits)
    return out


def gordon_series(params: GordonParams, N: int) -> PackedSeries:
    """Generating function of the Gordon-condition counts, to order N: the
    sum of the states of the cell's ascending scan (``_lane_scans``),
    packed in ``for_counts(N, r)`` slots."""
    [(series, _)] = _lane_scans(params.r, params.J, (params.ell,), N)
    return series
