"""Stage-indexed coefficient families whose first entries converge q-adically.

Each family is a vector of r series evolving by one shared step rule: the
new entry j is q^((d+1)(j-1)) times the sum of the previous entries
1..r-j+1. The two sides differ only in how the initial nonzero prefix is
derived from the parameters; that the prefixes coincide is exactly why the
two families (and hence the product side and the Hilbert side) agree.
The prefixes r - ell + 1 and i are equal by the definition ell = r - i + 1,
so ``verify_family_match`` only shows that the packed step is deterministic;
the product recursion is checked by the product route and by the product
half of ``verify_expansion``.

Entry j at stage d has q-adic valuation at least d*(j-1), so for j >= 2 the
entries vanish to any fixed order once d is large, and entry 1 stabilizes.
``family_limit`` realizes the q-adic limit as truncated stabilization.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .hilbert import QuotientSpec, gordon_quotient, hp_series
from .partitions import GordonParams
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


def family_init(side: Side, params: GordonParams, N: int) -> CoefficientFamily:
    """Stage J+1 family: entry j is q^((J+1)(j-1)) up to the side's prefix
    length, zero beyond it."""
    r, J = params.r, params.J
    prefix = r - params.ell + 1 if side is Side.PRODUCT else params.i
    entries = tuple(
        TruncatedSeries.monomial((J + 1) * (j - 1), N)
        if j <= prefix
        else TruncatedSeries.zero(N)
        for j in range(1, r + 1)
    )
    return CoefficientFamily(side, params, stage=J + 1, entries=entries)


def _packed(fam: CoefficientFamily) -> tuple[_PackedLayout, list[int]]:
    """The layout for the family's order and its entries as packed series.

    Entry j at stage d counts the multiplicity vectors on J+1..d whose
    multiplicity of d is j-1, a subset of the partitions of each weight.
    """
    layout = _PackedLayout.for_counts(fam.order, fam.params.r)
    return layout, [layout.pack(e.coeffs) for e in fam.entries]


def _unpacked(
    fam: CoefficientFamily, layout: _PackedLayout, stage: int, state: list[int]
) -> CoefficientFamily:
    state = state + [0] * (fam.params.r - len(state))
    entries = tuple(TruncatedSeries(layout.unpack(x)) for x in state)
    return CoefficientFamily(fam.side, fam.params, stage=stage, entries=entries)


def family_step(fam: CoefficientFamily) -> CoefficientFamily:
    """Advance one stage: entry j becomes q^((d+1)(j-1)) times the running
    prefix sums of the current entries. Entries must be non-negative."""
    layout, state = _packed(fam)
    d_new = fam.stage + 1
    return _unpacked(fam, layout, d_new, layout.step(state, d_new, fam.params.r))


def family_at_stage(
    side: Side, params: GordonParams, d: int, N: int
) -> CoefficientFamily:
    if d < params.J + 1:
        raise ValueError(f"stage must be at least J+1 = {params.J + 1}, got {d}")
    fam = family_init(side, params, N)
    layout, state = _packed(fam)
    for stage in range(fam.stage + 1, d + 1):
        state = layout.step(state, stage, params.r)
    return _unpacked(fam, layout, d, state)


def family_limit(side: Side, params: GordonParams, N: int) -> TruncatedSeries:
    """q-adic limit of entry 1, exact to order N.

    Steps until entry 1 stops changing and every later entry is zero to
    order N; from that point no future stage can alter entry 1 below
    q^(N+1). Stabilization is guaranteed by stage J + N + 2.
    """
    bound = params.J + N + 2
    fam = family_init(side, params, N)
    layout, state = _packed(fam)
    stage = fam.stage
    while True:
        stage += 1
        nxt = layout.step(state, stage, params.r)
        if nxt[0] == state[0] and not any(nxt[1:]):
            return TruncatedSeries(layout.unpack(nxt[0]))
        if stage > bound:
            raise RuntimeError(
                f"entry 1 failed to stabilize by stage {bound}; "
                "the valuation ladder must be broken"
            )
        state = nxt


def verify_family_match(params: GordonParams, d_max: int, N: int) -> bool:
    """Both sides' families agree entrywise at every stage J+1..d_max."""
    if d_max < params.J + 1:
        raise ValueError(f"d_max must be at least J+1 = {params.J + 1}")
    layout, prod = _packed(family_init(Side.PRODUCT, params, N))
    _, hilb = _packed(family_init(Side.HILBERT, params, N))
    stage = params.J + 1
    while prod == hilb:
        if stage >= d_max:
            return True
        stage += 1
        prod = layout.step(prod, stage, params.r)
        hilb = layout.step(hilb, stage, params.r)
    return False


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
