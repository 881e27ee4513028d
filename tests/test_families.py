"""Tests of the coefficient families.

``reference_verify_expansion`` is the list version of the paper's two
expansion identities at one stage: it unpacks each stage entry into a
``TruncatedSeries`` and sums list Cauchy products. The packed
``verify_expansion`` checks the level-against-floor agreement those sums
reduce to, and on correct code it must return what the reference returns
on every stage up to d.
"""

import argparse
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cell_row, expansion_readers
from rrgordon import cli, families, hilbert, partitions, products
from rrgordon.cli import SUITE_CHECKS, main
from rrgordon.families import (
    family_at_stage,
    family_limit,
    family_step,
    verify_expansion,
    verify_family_match,
    verify_valuations,
)
from rrgordon.hilbert import QuotientSpec, gordon_quotient, hp_series
from rrgordon.partitions import GordonParams
from rrgordon.products import ProductIndex, product_series
from rrgordon.qseries import TruncatedSeries, _PackedLayout, first_mismatch


def coeff_lists(fam):
    return [list(e.coeffs) for e in fam.entries]


def test_init_values():
    fam = family_at_stage(GordonParams(3, 2, 0), 1, 4)
    assert fam.stage == 1
    assert coeff_lists(fam) == [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ]


def test_init_full_prefix_when_cap_is_r():
    fam = family_at_stage(GordonParams(3, 3, 1), 2, 8)
    assert all(any(e.coeffs) for e in fam.entries)
    # the first mismatch with the zero series is the valuation
    zero = TruncatedSeries((0,) * 9)
    assert [first_mismatch(e, zero) for e in fam.entries] == [0, 2, 4]


def test_step_hand_checked():
    fam = family_step(family_at_stage(GordonParams(3, 2, 0), 1, 6))
    assert fam.stage == 2
    assert coeff_lists(fam) == [
        [1, 1, 0, 0, 0, 0, 0],  # 1 + q
        [0, 0, 1, 1, 0, 0, 0],  # q^2 (1 + q)
        [0, 0, 0, 0, 1, 0, 0],  # q^4
    ]


def test_step_boundary_entries():
    params = GordonParams(4, 3, 1)
    fam = family_at_stage(params, 4, 20)
    nxt = family_step(fam)
    # entry j is q^(5(j-1)) times the sum of current entries 1..r-j+1; the
    # last entry keeps only the first current entry, the first sums them all
    for j in range(1, params.r + 1):
        total = fam.entries[0]
        for e in fam.entries[1 : params.r - j + 1]:
            total = total + e
        assert nxt.entries[j - 1].coeffs == total.mul_qpow(5 * (j - 1)).coeffs


def test_family_at_stage_validates():
    with pytest.raises(ValueError):
        family_at_stage(GordonParams(2, 1, 2), 2, 10)


def test_limit_frozen_value():
    got = family_limit(None, GordonParams(2, 2, 0), 5)
    assert got.coeffs == (1, 1, 1, 1, 2, 2)
    assert family_limit(None, GordonParams(4, 2, 1), 0).coeffs == (1,)


def test_limit_handles_singleton_prefix():
    # i = 1 leaves only entry 1 nonzero at the start; later stages still move
    got = family_limit(None, GordonParams(2, 1, 0), 8)
    assert got.coeffs == (1, 0, 1, 1, 1, 1, 2, 2, 3)


@pytest.mark.parametrize("r,i,J,N", [(3, 2, 1, 25), (2, 1, 0, 30), (4, 4, 2, 20)])
def test_limit_matches_both_sides(r, i, J, N):
    params = GordonParams(r, i, J)
    hilb = hp_series(gordon_quotient(params), N)
    prod = product_series(ProductIndex(r, params.product_index), N)
    limit = family_limit(None, params, N)
    assert first_mismatch(limit, hilb) is None
    assert first_mismatch(limit, prod) is None


def test_limit_raises_when_entry_1_keeps_changing(monkeypatch):
    # a step that adds 1 to entry 1's constant term never lets the walk
    # settle, past stage N up to its end at J+N+2; the partition scan the
    # limit goes on from starts empty, so it is stepped by the mutant too
    step = _PackedLayout.step

    def drifting(self, state, u):
        new = step(self, state, u)
        return [new[0] + 1] + new[1:]

    monkeypatch.setattr(_PackedLayout, "step", drifting)
    with pytest.raises(RuntimeError, match="failed to stabilize"):
        family_limit(None, GordonParams(3, 2, 1), 10)


def test_match_between_sides():
    assert verify_family_match(GordonParams(3, 2, 0), 10, 30)
    assert verify_family_match(GordonParams(2, 1, 2), 10, 30)
    # d_max = J+1 compares just the initial vectors
    assert verify_family_match(GordonParams(4, 3, 1), 2, 15)
    with pytest.raises(ValueError):
        verify_family_match(GordonParams(2, 1, 3), 1, 10)


def test_match_stops_where_the_walks_are_constant(step_values):
    # from stage J+N+2 on every entry j >= 2 lies past order N, so the one
    # walk stops there whatever d_max is
    params, N = GordonParams(3, 2, 1), 10
    assert verify_family_match(params, 10**12, N)
    # stages J+1..J+N+2, once
    assert step_values == list(range(params.J + 1, params.J + N + 3))


@pytest.mark.parametrize("N", [0, 1])
def test_valuations_stop_at_the_walks_end(step_values, N):
    # the ladder is read at stages J+1..J+5, but to order N the walk ends at
    # J+N+2, and the stages past it repeat its last one; the row hands the
    # suite its hp tail first, and the cell walks its ladder alone
    params = GordonParams(2, 1, 0)
    row = cell_row(params, N, ("valuation",))
    row.floor(params.J + 2)
    step_values.clear()
    assert verify_valuations(params, N, row.floor, False)
    assert step_values == list(range(params.J + 1, params.J + N + 3))


def test_stage_past_the_walk_is_its_last_stage(step_values):
    params, N = GordonParams(2, 1, 0), 10
    far = family_at_stage(params, 10**12, N)
    # stages J+1..J+N+2, after which the walk is constant to order N; the
    # stages in between are relabelled, not looped over
    assert len(step_values) == N + 2
    last = family_at_stage(params, params.J + N + 2, N)
    assert far.stage == 10**12
    assert far.entries == last.entries


def test_family_limit_stops_one_or_two_stages_past_the_scan(step_values):
    # with D = max(N, J+1), the limit goes on from the scan's stage-D states
    # and stops at D+1 when they have one nonzero entry, else at D+2; so never past
    # max(N, J)+2 <= J+N+2 (at i = 1 and N = J+1 one stage earlier than that)
    for r in range(2, 5):
        for i in range(1, r + 1):
            for J in range(5):
                for N in range(13):
                    params = GordonParams(r, i, J)
                    D = max(N, J + 1)
                    _, state = partitions._growing_scan(r, N, range(J + 1, D + 1), params.ell)
                    step_values.clear()
                    family_limit(None, params, N)
                    # the cold limit steps J+1..h first, h = max(J, N/2), a
                    # widened value twice, and sums the values above h to
                    # N in closed form; with h >= N it steps J+1..D
                    h = max(J, N // 2)
                    assert step_values == sorted(step_values)
                    stepped = range(J + 1, h + 1) if h < N else range(J + 1, D + 1)
                    assert {u for u in step_values if u <= D} == set(stepped)
                    stop = D + 1 if not any(state[1:]) else D + 2
                    assert [u for u in step_values if u > D] == list(range(D + 1, stop + 1)), (params, N)
                    assert stop <= max(N, J) + 2


def test_match_fails_when_the_walk_trips_its_guard_bits(capsys, monkeypatch):
    # a walk that would start from e_ell starts from 2^v at q^0 instead, so
    # its first step's guard check fires; the family route goes on from the
    # partition scan's states, so only the suite sees it
    params, N = GordonParams(3, 2, 1), 20
    v = value_bits(N, params.r)
    stages = families._stages

    def inflated(layout, J, N, stage, state, end=None):
        return stages(layout, J, N, stage, [layout.one << v], end)

    monkeypatch.setattr(families, "_stages", inflated)
    with pytest.raises(ArithmeticError):
        verify_family_match(params, params.J + 1, N)
    argv = ["scan", "--r", "3", "--i", "2", "--J", "1", "--order", str(N), "--suites", "family-match", "--format", "json"]
    code = main(argv)
    cell = json.loads(capsys.readouterr().out)["cells"][0]
    assert code == 1
    assert (cell["identity"], cell["suites"]) == ("pass", {"family-match": "fail"})


def reference_verify_expansion(params, d, N):
    r = params.r
    zero = TruncatedSeries((0,) * (N + 1))
    fam = family_at_stage(params, d, N)
    lhs_hp = hp_series(gordon_quotient(params), N)
    rhs_hp = sum(
        (
            fam.entries[j - 1] * hp_series(QuotientSpec(r, d + 1, cap=r - j + 1), N)
            for j in range(1, r + 1)
        ),
        zero,
    )
    if first_mismatch(lhs_hp, rhs_hp) is not None:
        return False

    lhs_pr = product_series(ProductIndex(r, params.product_index), N)
    rhs_pr = sum(
        (
            fam.entries[j - 1] * product_series(ProductIndex(r, (r - 1) * d + j), N)
            for j in range(1, r + 1)
        ),
        zero,
    )
    return first_mismatch(lhs_pr, rhs_pr) is None


def row_expansion(params, d, N):
    """``verify_expansion`` at a stage d up to J+3, on the floors and levels
    of the cell's one-cell row, as the expansion suite reads them."""
    row = cell_row(params, N, ("expansion",))
    return verify_expansion(params, d, N, row.floor, row.level)


def test_expansion_identities():
    assert row_expansion(GordonParams(2, 2, 0), 3, 30)
    assert row_expansion(GordonParams(3, 1, 1), 2, 30)
    assert row_expansion(GordonParams(3, 1, 1), 2, 0)


@st.composite
def cells(draw):
    r = draw(st.integers(2, 7))
    return GordonParams(r, draw(st.integers(1, r)), draw(st.integers(0, 4)))


@settings(deadline=None, max_examples=60)
@given(cells(), st.integers(1, 5), st.integers(0, 80))
# the walk ends at stage J+N+2, before d = J+5; ell = 1 reads its left
# product side as entry 1 of level J
@example(GordonParams(3, 3, 1), 5, 0)
@example(GordonParams(4, 1, 2), 5, 1)
def test_packed_expansion_agrees_with_reference(params, depth, N):
    # stages past a row's J+3 read one scan and one climb to J+5
    J, d = params.J, params.J + depth
    want = all(reference_verify_expansion(params, s, N) for s in range(J + 1, d + 1))
    assert verify_expansion(params, d, N, *expansion_readers(params.r, range(J, d + 1), N)) == want


def test_expansion_rejects_a_stage_below_j_plus_1():
    with pytest.raises(ValueError):
        row_expansion(GordonParams(3, 2, 2), 2, 10)


# params (3, 2, 1) at stage 3: factor 1 of each side lies one floor above the
# stage, and its stage entry is 1 + O(q), so a change of its q^5 coefficient
# moves the sum at q^5; the suite reads the product factor, index (r-1)*3 + 1,
# as entry 1 of level 3, not as entry r of level 2
EXPANSION_CASE = (GordonParams(3, 2, 1), 3, 30)
FACTOR_ONE = {
    "hp_series": QuotientSpec(3, 4, cap=3),
    "product_series": ProductIndex(3, 2 * 3 + 1),
}
SERIES = {"hp_series": hp_series, "product_series": product_series}


def with_coeff(layout, x, n, value):
    """Packed x with its q^n coefficient set to value, which may reach the
    guard bits: x plus the constant value - c times q^n."""
    return x + layout._times_q((value - layout.unpack(x)[n]) * layout.one, n)


def set_entry_coeff(monkeypatch, method, key, at, n, value):
    """Patch the reader ``method`` of every ``cli`` row, ``floor`` or
    ``level``, so that entry ``at`` of the packed floor or level at ``key``,
    (r, floor) or (r, level), has q^n coefficient value; every other entry
    is unchanged."""
    def patched(r, floor_or_level, layout, packed):
        if (r, floor_or_level) != key:
            return layout, packed
        packed = list(packed)
        packed[at] = with_coeff(layout, packed[at], n, value)
        return layout, tuple(packed)

    read = getattr(cli._Row, method)
    monkeypatch.setattr(cli._Row, method, lambda row, k: patched(row.r, k, *read(row, k)))


def set_factor_coeff(monkeypatch, name, n, value):
    """Patch the packed series the expansion suite reads FACTOR_ONE[name]
    from, so that the factor's q^n coefficient is value. Hilbert factors are
    the caps of a floor, product factors the entries of a level: factor j at
    stage s is entry j of level s."""
    target = FACTOR_ONE[name]
    if name == "hp_series":
        set_entry_coeff(monkeypatch, "floor", (target.r, target.k), target.cap - 1, n, value)
    else:
        set_entry_coeff(monkeypatch, "level", (target.r, EXPANSION_CASE[1]), 0, n, value)


def value_bits(N, r):
    """The value bits v of ``for_counts(N, r)`` slots: a checked series
    stays below 2^v in every slot."""
    return _PackedLayout.for_counts(N, r).bits - (r - 1).bit_length()


@pytest.mark.parametrize("name", FACTOR_ONE)
def test_expansion_fails_on_a_bumped_deeper_factor(monkeypatch, name):
    params, d, N = EXPANSION_CASE
    assert row_expansion(params, d, N)
    c = SERIES[name](FACTOR_ONE[name], N).coeffs[5]
    set_factor_coeff(monkeypatch, name, 5, c + 1)
    assert not row_expansion(params, d, N)


@pytest.mark.parametrize(
    "method,key,at", [("floor", (3, 2), 1), ("level", (3, 1), 1)], ids=["hp_series", "product_series"]
)
def test_expansion_fails_on_a_bumped_left_side(monkeypatch, method, key, at):
    # the cell's two sides, cap i = 2 of floor J+1 = 2 and entry ell = 2 of
    # level J = 1, meet as level J against floor J+1
    params, d, N = EXPANSION_CASE
    layout, packed = getattr(cell_row(params, N, ("expansion",)), method)(key[1])
    set_entry_coeff(monkeypatch, method, key, at, 5, layout.unpack(packed[at])[5] + 1)
    assert not row_expansion(params, d, N)


@pytest.mark.parametrize("n", [0, EXPANSION_CASE[2]], ids=["q^0", "q^N"])
@pytest.mark.parametrize("name", FACTOR_ONE)
def test_expansion_fails_on_a_factor_bumped_at_either_end(monkeypatch, name, n):
    # the top and the bottom slot of the truncated product, which a shift
    # by one slot too many or too few would lose
    params, d, N = EXPANSION_CASE
    c = SERIES[name](FACTOR_ONE[name], N).coeffs[n]
    set_factor_coeff(monkeypatch, name, n, c + 1)
    assert not row_expansion(params, d, N)


@pytest.mark.parametrize("name", FACTOR_ONE)
def test_a_factor_bumped_to_its_slots_largest_value_fails_the_suite(monkeypatch, name):
    # levels and floors are compared as they are, with no check of their
    # slots: a value the guard check would refuse is still a mismatch
    params, d, N = EXPANSION_CASE
    layout = _PackedLayout.for_counts(N, params.r)
    set_factor_coeff(monkeypatch, name, 5, (1 << layout.bits) - 1)
    assert not row_expansion(params, d, N)


# the faults that both expansion sums let through: a wrong P keeps every
# climb's division exact, and a wrong top floor still telescopes
def partition_number_ten_too_large(monkeypatch):
    partition_numbers = products._partition_numbers

    def bumped(N):
        return [p + (n == 10) for n, p in enumerate(partition_numbers(N))]

    monkeypatch.setattr(products, "_partition_numbers", bumped)


def top_floor_bumped_at_q10(monkeypatch):
    scan = hilbert._growing_scan

    def bumped(r, N, values, *args):
        layout, state = scan(r, N, values, *args)
        return layout, [state[0] + layout._times_q(layout.one, 10)] + state[1:]

    monkeypatch.setattr(hilbert, "_growing_scan", bumped)


@pytest.mark.parametrize("fault", [partition_number_ten_too_large, top_floor_bumped_at_q10])
def test_expansion_fails_on_a_fault_its_sums_let_through(capsys, monkeypatch, fault):
    # a row scans and bumps its top floor only, and steps the rest from it
    fault(monkeypatch)
    params, d, N = EXPANSION_CASE
    assert not row_expansion(params, d, N)
    argv = ["scan", "--r", "2..3", "--i", "all", "--J", "0..1", "--order", "20", "--suites", "expansion", "--format", "json"]
    code = main(argv)
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert code == 1
    assert len(cells) == 10
    assert all(cell["suites"] == {"expansion": "fail"} for cell in cells)


def test_scan_reports_an_operand_out_of_range_as_a_failed_suite(capsys, monkeypatch):
    params, _, N = EXPANSION_CASE
    set_factor_coeff(monkeypatch, "hp_series", 5, 1 << value_bits(N, params.r))
    argv = ["scan", "--r", "3", "--i", "2", "--J", "1", "--order", str(N), "--suites", "expansion", "--format", "json"]
    code = main(argv)
    cell = json.loads(capsys.readouterr().out)["cells"][0]
    assert code == 1
    assert (cell["identity"], cell["suites"]) == ("pass", {"expansion": "fail"})


def test_expansion_walks_once(step_values):
    # the suite steps no walk: with the floors and levels in the row, it
    # only compares them
    check = SUITE_CHECKS["expansion"]
    for r in range(2, 6):
        for J in range(4):
            [row] = cli._plan(argparse.Namespace(r=r, i="all", J=J, order=12), ("expansion",))[1]
            for params in row.cells():
                assert check(row, params)
                step_values.clear()
                assert check(row, params)
                assert step_values == [], params


def test_valuation_ladder():
    for params in (GordonParams(2, 2, 0), GordonParams(3, 1, 1), GordonParams(4, 3, 0)):
        fam = family_at_stage(params, params.J + 1, 30)
        for _ in range(8):
            for j, entry in enumerate(fam.entries, start=1):
                # the first mismatch with zero is the valuation; None is zero
                val = first_mismatch(entry, TruncatedSeries((0,) * 31))
                assert val is None or val >= fam.stage * (j - 1), (params, fam.stage, j)
            fam = family_step(fam)


def test_entries_stay_non_negative():
    fam = family_at_stage(GordonParams(3, 2, 1), 2, 25)
    for _ in range(10):
        assert all(c >= 0 for e in fam.entries for c in e.coeffs)
        fam = family_step(fam)


def test_limit_agrees_with_walk_to_bound():
    params = GordonParams(3, 2, 1)
    N = 12
    fam = family_at_stage(params, params.J + 1, N)
    while fam.stage < params.J + N + 2:
        fam = family_step(fam)
    assert family_limit(None, params, N).coeffs == fam.entries[0].coeffs
