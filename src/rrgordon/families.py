"""Stage-indexed coefficient families whose first entries converge q-adically.

Each family is a vector of r series evolving by one shared step rule: the
new entry j is q^((d+1)(j-1)) times the sum of the previous entries
1..r-j+1. The stages are the partition DP's ascending scan over the part
values J+1, J+2, ... (``partitions._capped_walk``): stage d's entry j counts
the multiplicity vectors on J+1..d whose multiplicity of d is j-1, and the
first step, from [1] at J+1, keeps a prefix of i entries. The product
side's prefix r - ell + 1 is i by the definition of ell, so the two sides
are one family, walked once; ``family_limit``'s ``side`` is not read.

Entry j at stage d has q-adic valuation at least d*(j-1) (checked by
``verify_valuations``), so to order N the walk is constant from stage J+N+2
on (``_walk``). ``family_limit`` realizes the q-adic limit as truncated
stabilization, and it does not scan again: it goes on from the partition
route's scan (``partitions._ascending_scan``, in the memo) to its stop, so
only the stopping rule differs from ``gordon_series``.

``verify_expansion`` unpacks nothing: it walks once in the wide slots of
``_PackedLayout.for_products``, moves each memoized factor and left side into
those slots (``_PackedLayout.reslot``), multiplies each entry by its factors
of both sides as one int each, and compares each side's sum with its left
side. Stage s's factor j is cap r-j+1 one floor above s and entry j of tower
level s, whose entry 1 is entry r of level s-1 (``products._climb``); the
left sides are factor ell at stage J. The slots hold q^N up to q^0 from the
bottom (``_PackedLayout``), so slot 2N - t of a product holds q^t, and
shifting off its low N slots truncates it to order N. Every operand is first
checked below the slots' value bits, so none of the product's 2N+1 slots
carries, the shifted-off ones included, and the check is exact whether or
not the identity holds. A stage entry of low degree has zero low slots; they
are shifted off before it is multiplied (``_PackedLayout._mul``), so the
product costs what it did in ascending slots.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .hilbert import _floor
from .partitions import GordonParams, _ascending_scan, _capped_walk
from .products import _family_at_level
from .qseries import TruncatedSeries, _PackedLayout


class Side(enum.Enum):
    """The type of ``family_limit``'s first argument, which it does not read:
    both sides of the identity are one family."""

    HILBERT = "hilbert"


@dataclass(frozen=True)
class CoefficientFamily:
    params: GordonParams
    stage: int
    entries: tuple[TruncatedSeries, ...]

    @property
    def order(self) -> int:
        return self.entries[0].order


def _walk(
    params: GordonParams,
    layout: _PackedLayout,
    end: int,
    stage: int | None = None,
    state: Sequence[int] | None = None,
) -> Iterator[tuple[int, list[int]]]:
    """(stage, packed entries, trailing zeros dropped) for the stages after
    ``stage`` up to ``end``, going on from ``state``; by default from J,
    where the empty scan leaves [``layout.one``], so from stage J+1 on.

    At a stage d > N, N the layout's order, every entry j >= 2 is shifted by
    d(j-1) > N, so it is zero, and the next stage's entry 1 is this stage's
    total: entry 1 again. So to order N the walk is constant from stage
    J+N+2 > N on, where a step returns [total] unchanged.
    """
    if end < params.J + 1:
        raise ValueError(f"stage must be at least J+1 = {params.J + 1}, got {end}")
    start = params.J if stage is None else stage
    return _capped_walk(layout, range(start + 1, end + 1), params.J + 1, params.i - 1, state)


def _family(params: GordonParams, stage: int, layout: _PackedLayout, state: list[int]) -> CoefficientFamily:
    state = state + [0] * (params.r - len(state))
    entries = tuple(TruncatedSeries(layout.unpack(x)) for x in state)
    return CoefficientFamily(params, stage, entries)


def family_step(fam: CoefficientFamily) -> CoefficientFamily:
    """Advance one stage: entry j becomes q^((d+1)(j-1)) times the running
    prefix sums of the current entries. Entries must be non-negative."""
    r, d_new = fam.params.r, fam.stage + 1
    layout = _PackedLayout.for_counts(fam.order, r)
    state = layout.step([layout.pack(e.coeffs) for e in fam.entries], d_new, r)
    return _family(fam.params, d_new, layout, state)


def family_at_stage(params: GordonParams, d: int, N: int) -> CoefficientFamily:
    """Stage d family; past the walk's end, J+N+2, its last stage relabelled d."""
    layout = _PackedLayout.for_counts(N, params.r)
    for _, state in _walk(params, layout, min(d, params.J + N + 2)):
        pass
    return _family(params, d, layout, state)


def family_limit(side: Side, params: GordonParams, N: int) -> TruncatedSeries:
    """q-adic limit of entry 1, exact to order N; ``side`` is not read.

    Goes on from the states of the partition route's scan
    (``partitions._ascending_scan``), which are this walk's stages J+1..D,
    D = max(N, J+1). Steps until entry 1 stops changing and every later
    entry is zero to order N; from that point no future stage can alter
    entry 1 below q^(N+1). The walk's last two stages are equal (``_walk``).
    """
    layout, stage, state = _ascending_scan(params, N)
    walk = itertools.chain([(stage, state)], _walk(params, layout, params.J + N + 2, stage, state))
    for (_, state), (_, nxt) in itertools.pairwise(walk):
        if nxt[0] == state[0] and not any(nxt[1:]):
            return TruncatedSeries(layout.unpack(nxt[0]))
    raise RuntimeError("entry 1 failed to stabilize in the walk; the valuation ladder must be broken")


def verify_family_match(params: GordonParams, d_max: int, N: int) -> bool:
    """Walks the one family to stage d_max, or to its end if that comes
    first; it passes unless a step trips its guard bits and raises."""
    layout = _PackedLayout.for_counts(N, params.r)
    for _ in _walk(params, layout, min(d_max, params.J + N + 2)):
        pass
    return True


def _on_ladder(layout: _PackedLayout, stage: int, state: list[int]) -> bool:
    """Entry j has valuation at least stage*(j-1)."""
    return all(layout._has_valuation(x, stage * j) for j, x in enumerate(state))


def verify_valuations(params: GordonParams, N: int) -> bool:
    """The valuation bounds behind the q-adic limit, to order N: the uncapped
    quotient one floor up is 1 + O(q^(J+2)), and entry j at stage
    d = J+1..J+5 has valuation at least d(j-1). Stages past the walk's end
    repeat its last one, so they hold it too. Both are checked packed."""
    layout, caps = _floor(params.r, params.J + 2, N)
    # only the q^0 coefficient of the uncapped series minus 1 can be negative
    tail_ok = layout._has_valuation(caps[-1] - layout.one, params.J + 2)
    stages = _walk(params, layout, params.J + 5)
    return tail_ok and all(_on_ladder(layout, d, state) for d, state in stages)


def verify_expansion(params: GordonParams, d: int, N: int) -> bool:
    """Both expansion identities at every stage J+1..d, to order N.

    At stage s, the Hilbert series of the target quotient must equal the
    sum of the stage-s entries times the capped series one floor above
    stage s, and likewise the target product series must expand over the
    same stage-s entries times the entries of tower level s. Each stage's
    entries are checked once, and every operand is moved from its memoized
    slots into the walk's with ``_PackedLayout.reslot``. Raises
    ArithmeticError if an operand is too large for its slots.
    """
    r = params.r
    layout = _PackedLayout.for_products(N, r)

    def factor(s: int, j: int) -> tuple[int, int]:
        src, caps = _floor(r, s + 1, N)
        hp = layout.reslot(caps[r - j], src)
        src, entries = _family_at_level(r, s, N)
        return hp, layout.reslot(entries[j - 1], src)

    hp_lhs, pr_lhs = factor(params.J, params.ell)
    for s, state in _walk(params, layout, d):
        xs = [layout._check(x) for x in state]
        hp, pr = zip(*(factor(s, j) for j in range(1, len(xs) + 1)))
        hp_terms, pr_terms = map(layout._mul, xs, hp), map(layout._mul, xs, pr)
        if sum(hp_terms) != hp_lhs or sum(pr_terms) != pr_lhs:
            return False
    return True
