"""The product-side series family.

The base entries (index 1..r) are infinite products 1/prod(1 - q^m) over the
part values m allowed mod 2r+1. They share one packed product Q over every
m not divisible by 2r+1, and each entry peels its two banned classes off Q.
Entries beyond r are defined level by level, on lists of Python ints, where
climbing one level subtracts two entries of the previous level and divides
exactly by a power of q. Because that division destroys low-order
information, every level is computed at a padded order chosen upfront so the
requested entry is exact to the requested order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterator

from .qseries import TruncatedSeries, _PackedLayout


@dataclass(frozen=True)
class ProductIndex:
    """Index into the product-side family, canonically decomposed.

    index = (r-1)*level + slot, with level = 0 and slot = index for the base
    range 1..r, and slot in 2..r for every higher level. The overlap
    (index at slot 1 equals the previous level's slot r) is resolved here,
    so evaluation never sees a slot-1 recursion step.
    """

    r: int
    index: int

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"r must be at least 2, got {self.r}")
        if self.index < 1:
            raise ValueError(f"index must be positive, got {self.index}")

    @property
    def level(self) -> int:
        if self.index <= self.r:
            return 0
        return (self.index - 2) // (self.r - 1)

    @property
    def slot(self) -> int:
        return self.index - (self.r - 1) * self.level


@lru_cache(maxsize=1)
def _shared_product(r: int, N: int) -> tuple[_PackedLayout, int]:
    """Q = prod 1/(1 - q^m) over m <= N not divisible by 2r+1, packed.

    ``_levels`` asks for the r base products of one tower in a row at one
    order, so one cached Q serves all of them.
    """
    layout = _PackedLayout.for_counts(N, 2)  # each step adds two states
    q = 1  # the series 1: slot 0 holds 1
    for m in range(1, N + 1):
        if m % (2 * r + 1):
            q = layout.over_one_minus(q, m)
    return layout, q


def base_product(r: int, ell: int, N: int) -> TruncatedSeries:
    """Base entry ell in 1..r: product of 1/(1-q^m) over allowed m up to N.

    A part value m is allowed unless m is congruent to 0 or +-(r-ell+1)
    mod 2r+1. The entry is the shared product Q of ``_shared_product``
    times (1 - q^m) for each m <= N in the two classes +-(r-ell+1), one
    packed shift-subtract each. Every intermediate counts partitions of w
    into a subset of the parts, so it fits the slots ``for_counts`` sizes;
    each step is checked, and an overflow or a negative slot raises
    ArithmeticError.
    """
    if not 1 <= ell <= r:
        raise ValueError(f"ell must lie in 1..{r}, got {ell}")
    layout, x = _shared_product(r, N)
    mod = 2 * r + 1
    i = r - ell + 1
    for m in chain(range(i, N + 1, mod), range(mod - i, N + 1, mod)):
        x = layout.times_one_minus(x, m)
    return TruncatedSeries(layout.unpack(x))


def _levels(r: int, top: int, N: int) -> Iterator[list[TruncatedSeries]]:
    """The r entries of each level 0..top in turn, each exact to order N or more.

    Climbing to level g divides by up to q^(g(r-1)), so the base level is
    computed at order N + (r-1)*top*(top+1)/2 and each climb drops
    g*(r-1) of it; level g is exact to every order it carries. Raises
    NonDivisibleError if a division is ever inexact, which would mean the
    construction itself is broken.
    """
    order = N + (r - 1) * top * (top + 1) // 2
    entries = [base_product(r, ell, order) for ell in range(1, r + 1)]
    yield entries
    for g in range(1, top + 1):
        order -= g * (r - 1)
        new = [entries[r - 1].truncate(order)]
        for s in range(2, r + 1):
            numerator = entries[r - s] - entries[r - s + 1]
            new.append(numerator.shift_div(g * (s - 1)).truncate(order))
        entries = new
        yield entries


@lru_cache(maxsize=None)
def _family_at_level(r: int, level: int, N: int) -> tuple[TruncatedSeries, ...]:
    """The r entries of one level, each at order exactly N."""
    for entries in _levels(r, level, N):
        pass
    return tuple(entries)


def product_series(idx: ProductIndex, N: int) -> TruncatedSeries:
    """The product-side series for the given index, exact to order N."""
    if N < 0:
        raise ValueError("order must be non-negative")
    return _family_at_level(idx.r, idx.level, N)[idx.slot - 1]


def tail_valuation_profile(r: int, d_max: int, N: int) -> list[int | float]:
    """Valuations of (entry at index (r-1)(d+1)+1) - 1 for d = 1..d_max.

    Exhibits the q-adic convergence of the deep family tail to 1: entries
    are truncated to order N, so a valuation of INFINITE means the series
    is indistinguishable from 1 at that order. The profile is non-decreasing.
    """
    if d_max < 1:
        raise ValueError("d_max must be at least 1")
    if N < 0:
        raise ValueError("order must be non-negative")
    one = TruncatedSeries.one(N)
    # index (r-1)(d+1)+1 normalizes to level d, slot r; one climb to level
    # d_max passes every level at an order of at least N
    levels = _levels(r, d_max, N)
    next(levels)
    return [(entries[r - 1] - one).valuation() for entries in levels]
