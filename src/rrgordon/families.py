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

Entry j at stage d has q-adic valuation at least d*(j-1), so for j >= 2 the
entries vanish to any fixed order once d is large, and entry 1 stabilizes.
``family_limit`` realizes the q-adic limit as truncated stabilization.
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


def _walk(side: Side, params: GordonParams, N: int) -> Iterator[tuple[int, _PackedLayout, list[int]]]:
    """(stage, layout, packed entries) for the stages d = J+1, J+2, ..."""
    prefix = params.r - params.ell + 1 if side is Side.PRODUCT else params.i
    return _capped_walk(params.r, itertools.count(params.J + 1), params.J + 1, prefix - 1, N)


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
    if d < params.J + 1:
        raise ValueError(f"stage must be at least J+1 = {params.J + 1}, got {d}")
    for stage, layout, state in _walk(side, params, N):
        if stage == d:
            return _family(side, params, d, layout, state)


def family_limit(side: Side, params: GordonParams, N: int) -> TruncatedSeries:
    """q-adic limit of entry 1, exact to order N.

    Steps until entry 1 stops changing and every later entry is zero to
    order N; from that point no future stage can alter entry 1 below
    q^(N+1). Stabilization is guaranteed by stage J + N + 2.
    """
    bound = params.J + N + 2
    for (_, _, state), (stage, layout, nxt) in itertools.pairwise(_walk(side, params, N)):
        if nxt[0] == state[0] and not any(nxt[1:]):
            return TruncatedSeries(layout.unpack(nxt[0]))
        if stage > bound:
            raise RuntimeError(
                f"entry 1 failed to stabilize by stage {bound}; the valuation ladder must be broken"
            )


def verify_family_match(params: GordonParams, d_max: int, N: int) -> bool:
    """Both sides' families agree entrywise at every stage J+1..d_max.

    From stage J+N+2 on, every entry j >= 2 lies past order N and entry 1
    is the total, so the walks are constant and are compared no further.
    """
    if d_max < params.J + 1:
        raise ValueError(f"d_max must be at least J+1 = {params.J + 1}")
    last = min(d_max, params.J + N + 2)
    walks = zip(_walk(Side.PRODUCT, params, N), _walk(Side.HILBERT, params, N))
    for (stage, _, prod), (_, _, hilb) in walks:
        if prod != hilb:
            return False
        if stage >= last:
            return True


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
