"""The product-side series family.

The base entries (index 1..r) are infinite products 1/prod(1 - q^m) over the
part values m allowed mod M = 2r+1. By the Jacobi triple product, the factors
banned from entry ell, m = 0 and m = +-a mod M with a = r-ell+1, multiply to
the theta series sum over all integers n of (-1)^n q^(M n(n-1)/2 + a n), so
each entry is P(q) times that sum, where P = 1/(q;q)_inf counts all
partitions and comes from Euler's pentagonal recurrence. Entries beyond r are
defined level by level: climbing one level subtracts two entries of the
previous level and divides exactly by a power of q. The whole tower stays
packed (``qseries._PackedLayout``). Because the division destroys low-order
information, every level is computed at a padded order chosen upfront so the
requested entry is exact to the requested order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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


def _partition_numbers(N: int) -> list[int]:
    """p(0..N) by Euler's pentagonal recurrence:
    p(n) = sum over k >= 1 of (-1)^(k+1) (p(n - k(3k-1)/2) + p(n - k(3k+1)/2))."""
    p = [1] + [0] * N
    for n in range(1, N + 1):
        total, k = 0, 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > n:
                break
            term = p[n - g] + (p[n - g - k] if g + k <= n else 0)
            total += term if k % 2 else -term
            k += 1
        p[n] = total
    return p


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


def _base_layout(r: int, N: int) -> tuple[_PackedLayout, int]:
    """One layout for all r base entries at order N, and P packed in it.

    Each theta sum adds at most t shifted copies of P, t the largest term
    count of either sum over every ell, and the slots hold sums of t + 1
    counts of partitions. So neither sum carries into the next slot, and
    P's slots stay below 2^(B-g). A result slot that is too large sets a
    guard bit. The lowest negative slot takes no borrow and keeps more than
    2^B - t 2^(B-g) >= 2^(B-g), so it sets one too.
    """
    t = max(len(terms) for ell in range(1, r + 1) for terms in _theta_exponents(r, ell, N))
    layout = _PackedLayout.for_counts(N, t + 1)
    return layout, layout.pack(tuple(_partition_numbers(N)))


def _base_entry(layout: _PackedLayout, P: int, r: int, ell: int) -> int:
    """Base entry ell packed: P times its theta series, one subtraction of
    the odd-n sum from the even-n sum, checked."""
    even, odd = _theta_exponents(r, ell, layout.order)
    plus = sum(layout._times_q(P, e) for e in even)
    minus = sum(layout._times_q(P, e) for e in odd)
    return layout._check(plus - minus)


def base_product(r: int, ell: int, N: int) -> TruncatedSeries:
    """Base entry ell in 1..r: product of 1/(1-q^m) over allowed m up to N.

    A part value m is allowed unless m is congruent to 0 or +-(r-ell+1)
    mod 2r+1. The entry is P = 1/(q;q)_inf times the theta series of its
    banned classes (module docstring), formed as one packed difference of
    two sums of shifted copies of P. An overflow or a negative coefficient
    raises ArithmeticError.
    """
    if not 1 <= ell <= r:
        raise ValueError(f"ell must lie in 1..{r}, got {ell}")
    layout, P = _base_layout(r, N)
    return TruncatedSeries(layout.unpack(_base_entry(layout, P, r, ell)))


def _padded_order(r: int, top: int, N: int) -> int:
    """Order of the base level that leaves level ``top`` exact to order N."""
    return N + (r - 1) * top * (top + 1) // 2


def _levels(r: int, top: int, N: int) -> Iterator[tuple[_PackedLayout, list[int]]]:
    """The r entries of each level 0..top in turn, packed, each exact to
    the order of the layout it comes with, which is N or more.

    Climbing to level g divides by up to q^(g(r-1)), so the base level is
    computed at order N + (r-1)*top*(top+1)/2 and each climb drops
    g*(r-1) of it. All levels share the base level's slot width: every
    entry counts partitions. Raises NonDivisibleError if a division is
    ever inexact, and ArithmeticError if a slot reaches its guard bits;
    either would mean the construction itself is broken.
    """
    order = _padded_order(r, top, N)
    layout, P = _base_layout(r, order)
    entries = [_base_entry(layout, P, r, ell) for ell in range(1, r + 1)]
    yield layout, entries
    for g in range(1, top + 1):
        order -= g * (r - 1)
        layout = _PackedLayout(order, layout.r, layout.bits)
        new = [entries[r - 1] & layout._mask]
        for s in range(2, r + 1):
            new.append(layout.shift_div(entries[r - s] - entries[r - s + 1], g * (s - 1)))
        entries = new
        yield layout, entries


@lru_cache(maxsize=None)
def _family_at_level(r: int, level: int, N: int) -> tuple[_PackedLayout, tuple[int, ...]]:
    """The r entries of one level, packed at order exactly N, with their layout."""
    for layout, entries in _levels(r, level, N):
        pass
    return layout, tuple(entries)


def product_series(idx: ProductIndex, N: int) -> TruncatedSeries:
    """The product-side series for the given index, exact to order N."""
    if N < 0:
        raise ValueError("order must be non-negative")
    layout, entries = _family_at_level(idx.r, idx.level, N)
    return TruncatedSeries(layout.unpack(entries[idx.slot - 1]))

