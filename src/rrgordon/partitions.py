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

The DP is one ascending scan of the part values (``_ascending_scan``), kept
packed; the memo (``qseries.memo``) keeps the latest cell's, and the family
route (``families.family_limit``) goes on from its states to its q-adic stop
instead of scanning again, stepping them in their fixed slots
(``families._walk``). That scan and the Hilbert side's descending one
(``hilbert._floor``) run as ``_growing_scan``: in slots as wide as the
counts so far need, checked at every step, and handed off in the
``_PackedLayout.for_counts`` slots that the a-priori bound gives.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import partial

from .qseries import PackedSeries, _PackedLayout, memo


@dataclass(frozen=True)
class GordonParams:
    """Parameter triple (r, i, J) of the shifted Gordon conditions.

    r >= 2 is the modulus parameter (classes mod 2r+1 on the product side),
    1 <= i <= r bounds how many parts may equal J+1, and J >= 0 is the
    shift: all parts must exceed J.
    """

    r: int
    i: int
    J: int

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"r must be at least 2, got {self.r}")
        if not 1 <= self.i <= self.r:
            raise ValueError(f"i must lie in 1..{self.r}, got {self.i}")
        if self.J < 0:
            raise ValueError(f"J must be non-negative, got {self.J}")

    @property
    def ell(self) -> int:
        """Complementary index r - i + 1; selects the excluded residues +-ell."""
        return self.r - self.i + 1

    @property
    def product_index(self) -> int:
        """Index (r-1)*J + ell of the matching product-side series."""
        return (self.r - 1) * self.J + self.ell


@dataclass(frozen=True)
class Partition:
    """A non-increasing sequence of positive integer parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError("parts must be non-increasing")


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
#: too made the scan-suites benchmark slower in 5 of 6 alternating pairs
#: (``perfbench/run.py --seconds 4``, Python 3.11 on a 2-core Xeon VM):
#: median wall_s 60.3 ms against 56.6 ms.
_FIXED_SLOT_BITS = 32


def _growing_scan(r: int, N: int, values: Sequence[int], ell: int = 1) -> tuple[_PackedLayout, list[int]]:
    """Scans multiplicity vectors (f_a) over ``values``, in the given order,
    to order N: its layout, ``for_counts(N, r)``, and its states in that
    layout, packed series stepped once per value from the unit vector e_ell.

    State j holds the vectors whose last scanned multiplicity is j-1.
    Adjacent multiplicities sum to at most r-1, so scanning a sets f_a = j-1
    on the vectors of states 1..r-j+1. The start e_ell is the empty scan
    after a multiplicity ell-1, so the first scanned value occurs at most
    r-ell times; e_1 = [1] caps nothing.

    The slots grow with the counts. A scan wider than ``_FIXED_SLOT_BITS``
    starts in the narrowest whole bytes above the guard bits of r states,
    one byte for r <= 128. When a step's guard check fires on its input
    total, its input states move into slots half as wide again, rounded up
    to whole bytes, and the same value is stepped again. They may: each is
    a partial sum of the last checked total, so each slot is below its value
    bits. The scan never grows past ``for_counts(N, r)``, and a check that
    fires there propagates. The output of the last step was never checked,
    so its states are handed off into ``for_counts`` slots and every reader
    checks their sums there.
    """
    top = _PackedLayout.for_counts(N, r)
    if top.bits <= _FIXED_SLOT_BITS:
        layout = top
    else:
        layout = _PackedLayout(N, r, 8 * ((r - 1).bit_length() // 8 + 1))
    state = [0] * (ell - 1) + [layout.one]
    for a in values:
        while True:
            try:
                state = layout.step(state, a)
                break
            except ArithmeticError:
                if layout is top:
                    raise
                bits = layout.bits + -(-layout.bits // 16) * 8
                wider = top if bits >= top.bits else _PackedLayout(N, r, bits)
                state = [wider.reslot(x, layout) for x in state]
                layout = wider
    if layout is not top:
        state = [top.reslot(x, layout) for x in state]
    return top, state


@partial(memo, latest=True)
def _ascending_scan(params: GordonParams, N: int) -> tuple[_PackedLayout, int, tuple[int, ...]]:
    """The ascending scan of the part values J+1..D, D = max(N, J+1): its
    layout, ``for_counts(N, r)``, D, and the packed states after D, scanned
    in slots that grow with the counts (``_growing_scan``).

    At most i-1 parts equal J+1, since the scan starts from e_ell. Scanning
    J+1 even when N < J+1 applies that cap to the states, which the family
    route goes on from. The memo keeps the latest cell's scan only.
    """
    stage = max(N, params.J + 1)
    layout, state = _growing_scan(params.r, N, range(params.J + 1, stage + 1), params.ell)
    return layout, stage, tuple(state)


def gordon_series(params: GordonParams, N: int) -> PackedSeries:
    """Generating function of the Gordon-condition counts, to order N: the
    sum of the states of ``_ascending_scan``, packed in its ``for_counts(N,
    r)`` slots."""
    layout, _, state = _ascending_scan(params, N)
    return PackedSeries(layout, sum(state))

