"""Stage-indexed coefficient families whose first entries converge q-adically.

Each family is a vector of r series evolving by one shared step rule: the
new entry j is q^((d+1)(j-1)) times the sum of the previous entries
1..r-j+1. The stages are the partition DP's ascending scan over the part
values J+1, J+2, ... (``_walk``): stage d's entry j counts the multiplicity
vectors on J+1..d whose multiplicity of d is j-1. The walk starts at stage
J from the unit vector e_ell, ell = r-i+1 as in the product index
(r-1)J + ell, so the step at J+1 keeps i nonzero entries: one step rule and
one initial vector serve both sides, walked once; ``family_limit``'s first
argument is not read.

Entry j at stage d has q-adic valuation at least d*(j-1) (checked by
``verify_valuations``), so to order N the walk is constant from stage J+N+2
on, and ``_walk`` stops there (``partitions._stages``). ``family_limit``
realizes the q-adic limit as truncated stabilization, and it does not scan
again: the partition route's lane scan of (r, J) goes on to that stop, so
one scan serves the partition and family routes of every i of a plan, and
only the stopping rule differs from ``gordon_series``. ``cli`` hands each
cell of a scan both series off its (r, J)'s lane scan, and ``family_limit``
reads its series off a one-lane scan of its cell (``partitions._ascending``).

The ``family-match`` and ``valuation`` suites walk the family from its
start e_ell (``_walk``) and check its guard bits and its ladder on that
walk, not on the partition scan's states. ``cli`` walks every i of a
plan's (r, J) as interleaved lanes of one such walk (``_lane_walks``), and
a cell whose pass did not keep all its lanes clean walks alone, as the
suites do by default.

``verify_expansion`` checks that tower level s equals Hilbert floor s+1
entry for entry, entry j against cap r-j+1, at every s = J..d, comparing
the packed series that floors and levels hand off as they are: both live in
``for_counts(N, r)`` slots. The paper's stage-s expansion identities sum
the stage-s entries times these factors, one side each. Where every level
equals its floor the two sums are one sum, which telescopes through the
floors' ``step`` to the cell's Hilbert side, and that is its product side,
since level J equals floor J+1; so the check fails whenever an identity
does. The sums alone would check only our own recursions: the Hilbert sum
telescopes through ``_floors``' one-step floors whatever the top floor is,
and the product sum through ``products._climb`` for any tower whose
divisions are exact.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

from .hilbert import _floor
from .partitions import GordonParams, _ascending, _passes, _stages
from .products import _family_at_level
from .qseries import PackedSeries, TruncatedSeries, _PackedLayout


@dataclass(frozen=True)
class CoefficientFamily:
    params: GordonParams
    stage: int
    entries: tuple[TruncatedSeries, ...]

    @property
    def order(self) -> int:
        return self.entries[0].order


def _walk(r: int, J: int, N: int, end: int, *ells: int) -> tuple[_PackedLayout, Iterator[tuple[int, list[int]]]]:
    """The layout, ``for_counts(N, r)`` with one lane per start, and (stage,
    packed entries, those shifted past the order dropped) for the stages J+1
    up to ``end`` or J+N+2, whichever comes first (``partitions._stages``),
    from J and the unit vectors e_ell, ell in ``ells``, lane k from
    e_(ells[k]), so its entries past i = r-ells[k]+1 are zero.

    Each lane's slots are as wide as a one-lane walk's, so the guard check of
    a step, which covers every sub-slot, fires where one of its lanes' own
    walks would, and at no other step."""
    if end < J + 1:
        raise ValueError(f"stage must be at least J+1 = {J + 1}, got {end}")
    layout = _PackedLayout(N, r, _PackedLayout.for_counts(N, r).bits, len(ells))
    state = [0] * max(ells)
    for k, ell in enumerate(ells):
        state[ell - 1] += layout.one << k * layout.bits
    return layout, _stages(layout, J, N, J, state, end)


def _family(params: GordonParams, stage: int, layout: _PackedLayout, state: list[int]) -> CoefficientFamily:
    state = state + [0] * (params.r - len(state))
    entries = tuple(TruncatedSeries(layout.unpack(x)) for x in state)
    return CoefficientFamily(params, stage, entries)


def family_step(fam: CoefficientFamily) -> CoefficientFamily:
    """Advance one stage: entry j becomes q^((d+1)(j-1)) times the running
    prefix sums of the current entries. Entries must be non-negative."""
    d_new = fam.stage + 1
    layout = _PackedLayout.for_counts(fam.order, fam.params.r)
    state = layout.step([layout.pack(e.coeffs) for e in fam.entries], d_new)
    return _family(fam.params, d_new, layout, state)


def family_at_stage(params: GordonParams, d: int, N: int) -> CoefficientFamily:
    """Stage d family; past the walk's end, its last stage relabelled d."""
    layout, stages = _walk(params.r, params.J, N, d, params.ell)
    for _, state in stages:
        pass
    return _family(params, d, layout, state)


def family_limit(side: object, params: GordonParams, N: int) -> PackedSeries:
    """q-adic limit of entry 1, exact to order N, packed in the walk's
    ``for_counts(N, r)`` slots; ``side`` is not read.

    It is the cell's lane of the ascending scan of (r, J)
    (``partitions._lane_scans``), which goes on from the partition route's
    states at stage D = max(N, J+1) until entry 1 stops changing and every
    later entry is zero to order N, here from a one-lane scan of this cell
    alone.
    """
    return _ascending(params, N)[1]


def verify_family_match(params: GordonParams, d_max: int, N: int) -> bool:
    """Walks the one family to stage d_max, or to its end if that comes
    first; it passes unless a step trips its guard bits and raises."""
    for _ in _walk(params.r, params.J, N, d_max, params.ell)[1]:
        pass
    return True


def _on_ladder(layout: _PackedLayout, stage: int, state: list[int]) -> bool:
    """Entry j has valuation at least stage*(j-1), in every lane."""
    return all(layout._has_valuation(x, stage * j) for j, x in enumerate(state))


def _ladder(params: GordonParams, N: int) -> bool:
    """Whether entry j of the cell's walk has valuation at least d(j-1) at
    every stage d = J+1..J+5 (its last stage, where the walk ends sooner,
    repeats past it), on the cell's walk alone."""
    layout, stages = _walk(params.r, params.J, N, params.J + 5, params.ell)
    return all(_on_ladder(layout, d, state) for d, state in stages)


def _lane_walks(r: int, J: int, ells: Sequence[int], N: int, end: int) -> list[bool]:
    """For each start e_ell, ell in ``ells``, at (r, J), True where its walk
    to stage ``end``, or to its end, is known to trip no guard bits and to
    stay on the ladder (``_ladder``) at stages J+1..J+5: one ``_walk`` of
    interleaved lanes, in the passes of ``partitions._passes``. The guard
    check and the ladder read every lane at once, so a pass that trips or
    leaves the ladder in any lane answers False for all its lanes, and each
    of its cells then walks alone."""
    out = []
    for lanes in _passes(r, N, ells):
        try:
            layout, stages = _walk(r, J, N, end, *lanes)
            clean = all(d > J + 5 or _on_ladder(layout, d, state) for d, state in stages)
        except Exception:  # each cell of the pass walks alone, and raises again
            clean = False
        out += [clean] * len(lanes)
    return out


def verify_valuations(params: GordonParams, N: int, floor: Callable[[int], tuple] | None = None, walked: bool = False) -> bool:
    """The valuation bounds behind the q-adic limit, to order N: the uncapped
    quotient one floor up is 1 + O(q^(J+2)), and entry j at stage
    d = J+1..J+5 has valuation at least d(j-1) (``_ladder``). Stages past
    the walk's end repeat its last one, so they hold it too. Both are
    checked packed. ``floor(k)`` reads floor k at (r, N), by default from
    ``_floor``, and the ladder is not walked again when ``walked``: the
    cell's lane of a suite walk stayed on it (``_lane_walks``)."""
    floor = floor or (lambda k: _floor(params.r, k, N))
    layout, caps = floor(params.J + 2)
    # only the q^0 coefficient of the uncapped series minus 1 can be negative
    return layout._has_valuation(caps[-1] - layout.one, params.J + 2) and (walked or _ladder(params, N))


def verify_expansion(params: GordonParams, d: int, N: int, floor: Callable[[int], tuple] | None = None, level: Callable[[int], tuple] | None = None) -> bool:
    """Whether tower level s equals Hilbert floor s+1 to order N, entry j
    against cap r-j+1, at every s = J..d: the agreement both expansion
    identities at stages J+1..d reduce to. Compared packed, unchecked; a
    stage d below J+1 raises ValueError. ``floor(k)`` and ``level(s)`` read
    floor k and level s at (r, N), by default from ``_floor`` and
    ``_family_at_level``."""
    if d < params.J + 1:
        raise ValueError(f"stage must be at least J+1 = {params.J + 1}, got {d}")
    r = params.r
    floor = floor or (lambda k: _floor(r, k, N))
    level = level or (lambda s: _family_at_level(r, s, N))
    return all(level(s)[1] == floor(s + 1)[1][::-1] for s in range(d, params.J - 1, -1))
