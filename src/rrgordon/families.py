"""Stage-indexed coefficient families whose first entries converge q-adically.

Each family is a vector of r series evolving by one shared step rule: the
new entry j is q^((d+1)(j-1)) times the sum of the previous entries
1..r-j+1. The stages are the partition DP's ascending scan over the part
values J+1, J+2, ... (``partitions._capped_walk``): stage d's entry j counts
the multiplicity vectors on J+1..d whose multiplicity of d is j-1, and the
first step, from [1] at J+1, keeps the side's prefix of r - ell + 1 or i
entries. Only the stopping rule differs from ``gordon_series``. The prefixes
are equal by the definition ell = r - i + 1, so ``verify_family_match`` only
shows that the walk is deterministic; the product recursion is checked by
the product route and by the product half of ``verify_expansion``.

Entry j at stage d has q-adic valuation at least d*(j-1) (checked by
``verify_valuations``), so to order N the walk turns constant and ends there
(``_walk``); every stage reader stops with it. ``family_limit`` realizes the
q-adic limit as truncated stabilization.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator

from .hilbert import QuotientSpec, gordon_quotient, hp_series
from .partitions import GordonParams, _capped_walk
from .products import ProductIndex, product_series
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

    def as_json_dict(self) -> dict:
        return {
            "flavor": self.side.value,
            "r": self.params.r,
            "i": self.params.i,
            "J": self.params.J,
            "stage": self.stage,
            "entries": [e.as_json_dict() for e in self.entries],
        }


def _walk(side: Side, params: GordonParams, N: int) -> tuple[_PackedLayout, Iterator[tuple[int, list[int]]]]:
    """The layout, and (stage, packed entries) for the stages J+1..J+N+2.

    At a stage d > N every entry j >= 2 is shifted by d(j-1) > N, so it is
    zero, and the next stage's entry 1 is this stage's total: entry 1 again.
    So to order N the walk is constant from stage J+N+2 > N on.
    """
    layout = _PackedLayout.for_counts(N, params.r)
    prefix = params.r - params.ell + 1 if side is Side.PRODUCT else params.i
    stages = range(params.J + 1, params.J + N + 3)
    return layout, _capped_walk(layout, stages, params.J + 1, prefix - 1)


def _family(
    side: Side, params: GordonParams, stage: int, layout: _PackedLayout, state: list[int]
) -> CoefficientFamily:
    state = state + [0] * (params.r - len(state))
    entries = tuple(TruncatedSeries(layout.unpack(x)) for x in state)
    return CoefficientFamily(side, params, stage, entries)


def family_init(side: Side, params: GordonParams, N: int) -> CoefficientFamily:
    """Stage J+1 family: entry j is q^((J+1)(j-1)) up to the side's prefix
    length, zero beyond it."""
    return family_at_stage(side, params, params.J + 1, N)


def family_step(fam: CoefficientFamily) -> CoefficientFamily:
    """Advance one stage: entry j becomes q^((d+1)(j-1)) times the running
    prefix sums of the current entries. Entries must be non-negative."""
    r, d_new = fam.params.r, fam.stage + 1
    layout = _PackedLayout.for_counts(fam.order, r)
    state = layout.step([layout.pack(e.coeffs) for e in fam.entries], d_new, r)
    return _family(fam.side, fam.params, d_new, layout, state)


def family_at_stage(side: Side, params: GordonParams, d: int, N: int) -> CoefficientFamily:
    """Stage d family; past the walk's end, its last stage relabelled d."""
    if d < params.J + 1:
        raise ValueError(f"stage must be at least J+1 = {params.J + 1}, got {d}")
    layout, walk = _walk(side, params, N)
    for stage, state in walk:
        if stage == d:
            break
    return _family(side, params, d, layout, state)


def family_limit(side: Side, params: GordonParams, N: int) -> TruncatedSeries:
    """q-adic limit of entry 1, exact to order N.

    Steps until entry 1 stops changing and every later entry is zero to
    order N; from that point no future stage can alter entry 1 below
    q^(N+1). The walk's last two stages are equal (``_walk``).
    """
    layout, walk = _walk(side, params, N)
    for (_, state), (_, nxt) in itertools.pairwise(walk):
        if nxt[0] == state[0] and not any(nxt[1:]):
            return TruncatedSeries(layout.unpack(nxt[0]))
    raise RuntimeError("entry 1 failed to stabilize in the walk; the valuation ladder must be broken")


def verify_family_match(params: GordonParams, d_max: int, N: int) -> bool:
    """Both sides' families agree entrywise at every stage J+1..d_max; the
    walks are constant past their end, so they are compared no further."""
    if d_max < params.J + 1:
        raise ValueError(f"d_max must be at least J+1 = {params.J + 1}")
    walks = zip(_walk(Side.PRODUCT, params, N)[1], _walk(Side.HILBERT, params, N)[1])
    for (stage, prod), (_, hilb) in walks:
        if prod != hilb:
            return False
        if stage == d_max:
            break
    return True


def _on_ladder(layout: _PackedLayout, stage: int, state: list[int]) -> bool:
    """Entry j has valuation at least stage*(j-1): its low stage*(j-1) slots are zero."""
    return not any(x & ((1 << stage * j * layout.bits) - 1) for j, x in enumerate(state))


def verify_valuations(params: GordonParams, N: int) -> bool:
    """The valuation bounds behind the q-adic limit, to order N: the uncapped
    quotient one floor up is 1 + O(q^(J+2)), and entry j at Hilbert-side
    stage d = J+1..J+5 has valuation at least d(j-1). Stages past the walk's
    end repeat its last one, so they hold it too."""
    tail = hp_series(QuotientSpec(params.r, params.J + 2), N) - TruncatedSeries.one(N)
    layout, walk = _walk(Side.HILBERT, params, N)
    stages = itertools.islice(walk, 5)
    return tail.valuation() >= params.J + 2 and all(_on_ladder(layout, d, state) for d, state in stages)


def verify_expansion(params: GordonParams, d: int, N: int) -> bool:
    """Both stage-d expansion identities, to order N.

    The Hilbert series of the target quotient must equal the sum of the
    stage-d Hilbert-side entries times the capped series one floor above
    stage d, and likewise the target product series must expand over the
    stage-d product-side entries times the deeper product entries.
    """
    r = params.r
    hilb = family_at_stage(Side.HILBERT, params, d, N)
    lhs_hp = hp_series(gordon_quotient(params), N)
    rhs_hp = sum(
        (
            hilb.entries[j - 1] * hp_series(QuotientSpec(r, d + 1, cap=r - j + 1), N)
            for j in range(1, r + 1)
        ),
        TruncatedSeries.zero(N),
    )
    if not lhs_hp.eq(rhs_hp):
        return False

    prod = family_at_stage(Side.PRODUCT, params, d, N)
    lhs_pr = product_series(ProductIndex(r, params.product_index), N)
    rhs_pr = sum(
        (
            prod.entries[j - 1] * product_series(ProductIndex(r, (r - 1) * d + j), N)
            for j in range(1, r + 1)
        ),
        TruncatedSeries.zero(N),
    )
    return lhs_pr.eq(rhs_pr)
