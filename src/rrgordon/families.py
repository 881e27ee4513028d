"""Stage-indexed coefficient families whose first entries converge q-adically.

Each family is a vector of r series evolving by one shared step rule: the
new entry j is q^((d+1)(j-1)) times the sum of the previous entries
1..r-j+1. The stages are the partition DP's ascending scan over the part
values J+1, J+2, ... (``partitions._capped_walk``): stage d's entry j counts
the multiplicity vectors on J+1..d whose multiplicity of d is j-1, and the
first step, from [1] at J+1, keeps the side's prefix of r - ell + 1 or i
entries. The prefixes are equal by the definition ell = r - i + 1, so
``verify_family_match`` only shows that the walk is deterministic; the
product recursion is checked by the product route and by the product
identity of ``verify_expansion``, which therefore walks once for both sides.

Entry j at stage d has q-adic valuation at least d*(j-1) (checked by
``verify_valuations``), so to order N the walk turns constant and ends there
(``_walk``); every stage reader stops with it. ``family_limit`` realizes the
q-adic limit as truncated stabilization, and it does not scan again: it goes
on from the partition route's scan (``partitions._ascending_scan``, in the
memo) to its stop, so only the stopping rule differs from ``gordon_series``.

``verify_expansion`` unpacks nothing: it walks once in the wide slots of
``_PackedLayout.for_products``, moves each memoized factor and left side into
those slots (``_PackedLayout.reslot``), multiplies each entry by its factors
of both sides as one int each, and compares each side's sum with its left
side. The slots hold q^N up to q^0 from the bottom (``_PackedLayout``), so
slot 2N - t of a product holds q^t, and shifting off its low N slots
truncates it to order N. Every operand is first checked below the slots'
value bits, so none of the product's 2N+1 slots carries, the shifted-off
ones included, and the check is exact whether or not the identity holds. A
stage entry of low degree has zero low slots; they are shifted off before it
is multiplied (``_PackedLayout._mul``), so the product costs what it did in
ascending slots.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .hilbert import _floor
from .partitions import GordonParams, _ascending_scan, _capped_walk
from .products import ProductIndex, _family_at_level
from .qseries import TruncatedSeries, _PackedLayout


class Side(enum.Enum):
    """Which side of the identity a family expands."""

    PRODUCT = "product"
    HILBERT = "hilbert"


@dataclass(frozen=True)
class CoefficientFamily:
    side: Side
    params: GordonParams
    stage: int
    entries: tuple[TruncatedSeries, ...]

    @property
    def order(self) -> int:
        return self.entries[0].order


def _walk(
    side: Side,
    params: GordonParams,
    layout: _PackedLayout,
    stage: int | None = None,
    state: Sequence[int] | None = None,
) -> Iterator[tuple[int, list[int]]]:
    """(stage, packed entries) for the stages after ``stage`` up to J+N+2,
    N the layout's order, going on from ``state``; by default from J, where
    the empty scan leaves [``layout.one``], so from stage J+1 on.

    At a stage d > N every entry j >= 2 is shifted by d(j-1) > N, so it is
    zero, and the next stage's entry 1 is this stage's total: entry 1 again.
    So to order N the walk is constant from stage J+N+2 > N on.
    """
    prefix = params.r - params.ell + 1 if side is Side.PRODUCT else params.i
    start = params.J if stage is None else stage
    stages = range(start + 1, params.J + layout.order + 3)
    return _capped_walk(layout, stages, params.J + 1, prefix - 1, state)


def _stages(side: Side, params: GordonParams, d: int, layout: _PackedLayout) -> Iterator[tuple[int, list[int]]]:
    """(stage, packed entries, trailing zeros dropped) for the stages J+1..d
    off one walk; past the walk's end, its last stage's."""
    if d < params.J + 1:
        raise ValueError(f"stage must be at least J+1 = {params.J + 1}, got {d}")
    for stage, state in _walk(side, params, layout):
        yield stage, state
        if stage == d:
            return
    for stage in range(stage + 1, d + 1):
        yield stage, state


def _family(side: Side, params: GordonParams, stage: int, layout: _PackedLayout, state: list[int]) -> CoefficientFamily:
    state = state + [0] * (params.r - len(state))
    entries = tuple(TruncatedSeries(layout.unpack(x)) for x in state)
    return CoefficientFamily(side, params, stage, entries)


def family_step(fam: CoefficientFamily) -> CoefficientFamily:
    """Advance one stage: entry j becomes q^((d+1)(j-1)) times the running
    prefix sums of the current entries. Entries must be non-negative."""
    r, d_new = fam.params.r, fam.stage + 1
    layout = _PackedLayout.for_counts(fam.order, r)
    state = layout.step([layout.pack(e.coeffs) for e in fam.entries], d_new, r)
    return _family(fam.side, fam.params, d_new, layout, state)


def family_at_stage(side: Side, params: GordonParams, d: int, N: int) -> CoefficientFamily:
    """Stage d family; past the walk's end, J+N+2, its last stage relabelled d."""
    layout = _PackedLayout.for_counts(N, params.r)
    for _, state in _stages(side, params, min(d, params.J + N + 2), layout):
        pass
    return _family(side, params, d, layout, state)


def family_limit(side: Side, params: GordonParams, N: int) -> TruncatedSeries:
    """q-adic limit of entry 1, exact to order N.

    Goes on from the states of the partition route's scan
    (``partitions._ascending_scan``), which are this walk's stages J+1..D,
    D = max(N, J+1), since both sides' prefixes are i. Steps until entry 1
    stops changing and every later entry is zero to order N; from that
    point no future stage can alter entry 1 below q^(N+1). The walk's last
    two stages are equal (``_walk``).
    """
    layout, stage, state = _ascending_scan(params, N)
    walk = itertools.chain([(stage, state)], _walk(side, params, layout, stage, state))
    for (_, state), (_, nxt) in itertools.pairwise(walk):
        if nxt[0] == state[0] and not any(nxt[1:]):
            return TruncatedSeries(layout.unpack(nxt[0]))
    raise RuntimeError("entry 1 failed to stabilize in the walk; the valuation ladder must be broken")


def verify_family_match(params: GordonParams, d_max: int, N: int) -> bool:
    """Both sides' families agree entrywise at every stage J+1..d_max; the
    walks are constant past their end, so they are compared no further."""
    if d_max < params.J + 1:
        raise ValueError(f"d_max must be at least J+1 = {params.J + 1}")
    layout = _PackedLayout.for_counts(N, params.r)
    for (stage, prod), (_, hilb) in zip(_walk(Side.PRODUCT, params, layout), _walk(Side.HILBERT, params, layout)):
        if prod != hilb:
            return False
        if stage == d_max:
            break
    return True


def _on_ladder(layout: _PackedLayout, stage: int, state: list[int]) -> bool:
    """Entry j has valuation at least stage*(j-1)."""
    return all(layout._has_valuation(x, stage * j) for j, x in enumerate(state))


def verify_valuations(params: GordonParams, N: int) -> bool:
    """The valuation bounds behind the q-adic limit, to order N: the uncapped
    quotient one floor up is 1 + O(q^(J+2)), and entry j at Hilbert-side
    stage d = J+1..J+5 has valuation at least d(j-1). Stages past the walk's
    end repeat its last one, so they hold it too. Both are checked packed."""
    layout, caps = _floor(params.r, params.J + 2, N)
    # only the q^0 coefficient of the uncapped series minus 1 can be negative
    tail_ok = layout._has_valuation(caps[-1] - layout.one, params.J + 2)
    stages = itertools.islice(_walk(Side.HILBERT, params, layout), 5)
    return tail_ok and all(_on_ladder(layout, d, state) for d, state in stages)


def verify_expansion(params: GordonParams, d: int, N: int) -> bool:
    """Both expansion identities at every stage J+1..d, to order N.

    At stage s, the Hilbert series of the target quotient must equal the
    sum of the stage-s entries times the capped series one floor above
    stage s, and likewise the target product series must expand over the
    same stage-s entries times the deeper product entries: the sides'
    prefixes r - ell + 1 and i are equal, so one walk serves both. Each
    stage's entries are checked once, and every operand is moved from its
    memoized slots into the walk's with ``_PackedLayout.reslot``. Raises
    ArithmeticError if an operand is too large for its slots.
    """
    r = params.r
    layout = _PackedLayout.for_products(N, r)

    def product(index: int) -> int:
        idx = ProductIndex(r, index)
        src, entries = _family_at_level(r, idx.level, N)
        return layout.reslot(entries[idx.slot - 1], src)

    src, caps = _floor(r, params.J + 1, N)
    hp_lhs, pr_lhs = layout.reslot(caps[params.i - 1], src), product(params.product_index)
    for s, state in _stages(Side.HILBERT, params, d, layout):
        xs = [layout._check(x) for x in state]
        src, caps = _floor(r, s + 1, N)
        hp_terms = (layout._mul(x, layout.reslot(f, src)) for x, f in zip(xs, reversed(caps)))
        pr_terms = (layout._mul(x, product((r - 1) * s + j)) for j, x in enumerate(xs, 1))
        if sum(hp_terms) != hp_lhs or sum(pr_terms) != pr_lhs:
            return False
    return True
