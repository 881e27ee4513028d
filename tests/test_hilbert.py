import json
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cell_row
from rrgordon import cli, hilbert, partitions
from rrgordon.cli import main
from rrgordon.hilbert import (
    QuotientSpec,
    expand_generators,
    gordon_quotient,
    hp_series,
    standard_monomial_count,
    verify_hp_identities,
    verify_hp_recursion,
)
from rrgordon.partitions import GordonParams, gordon_series
from rrgordon.qseries import TruncatedSeries, _PackedLayout, first_mismatch


def test_spec_validation():
    with pytest.raises(ValueError):
        QuotientSpec(1, 1)
    with pytest.raises(ValueError):
        QuotientSpec(2, 0)
    with pytest.raises(ValueError):
        QuotientSpec(2, 1, cap=3)
    assert gordon_quotient(GordonParams(3, 2, 1)) == QuotientSpec(3, 2, cap=2)


def test_expand_generators_small_capped():
    ideal = expand_generators(QuotientSpec(2, 1, cap=2), 3)
    assert set(ideal.generators) == {((1, 2),), ((1, 1), (2, 1))}
    assert ideal.first_var == 1
    assert ideal.weight_bound == 3


def test_expand_generators_weight_zero_is_empty():
    assert expand_generators(QuotientSpec(4, 2, cap=3), 0).generators == ()


def test_expand_generators_uncapped_weight_filter():
    ideal = expand_generators(QuotientSpec(3, 2), 6)
    assert ((2, 3),) in ideal.generators  # weight 6 kept
    assert all(sum(v * e for v, e in g) <= 6 for g in ideal.generators)
    assert ((2, 2), (3, 1)) not in ideal.generators  # weight 7 dropped


def test_capped_block_starts_tail_one_variable_higher():
    ideal = expand_generators(QuotientSpec(2, 1, cap=1), 8)
    # cap 1 leaves only x_1 itself in the block; the tail starts at x_2
    assert ((1, 1),) in ideal.generators
    assert all(g[0][0] >= 2 for g in ideal.generators if g != ((1, 1),))


def reference_generators(spec, N):
    """The generators of weight at most N, as a set, from the definition:
    with a cap ell, x_k^ell and x_k^(ell-s) x_(k+1)^(r-ell+s) for s =
    1..ell-1, then, from x_(k+1) on (x_k without a cap), x_a^(r-t)
    x_(a+1)^t for t = 0..r-1."""
    r, k = spec.r, spec.k
    gens = set()
    if spec.cap is not None:
        ell = spec.cap
        gens |= {((k, ell - s), (k + 1, r - ell + s)) if s else ((k, ell),) for s in range(ell)}
    first = k if spec.cap is None else k + 1
    gens |= {((a, r - t), (a + 1, t)) if t else ((a, r),) for a in range(first, N + 1) for t in range(r)}
    return {g for g in gens if sum(v * e for v, e in g) <= N}


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 7), st.integers(1, 7), st.data(), st.integers(0, 90))
def test_expanded_generators_are_the_sorted_reference_set(r, k, data, N):
    # they are built in sorted order: by variable, then by its exponent,
    # so each block's pure power comes after its mixed generators
    spec = QuotientSpec(r, k, data.draw(st.sampled_from([None, *range(1, r + 1)])))
    assert expand_generators(spec, N).generators == tuple(sorted(reference_generators(spec, N)))


def test_standard_monomial_count_examples():
    ideal = expand_generators(QuotientSpec(2, 1, cap=2), 8)
    assert standard_monomial_count(ideal, 0) == 1
    assert standard_monomial_count(ideal, 4) == 2  # x_4 and x_3 x_1
    bare = expand_generators(QuotientSpec(2, 3), 8)
    assert standard_monomial_count(bare, 2) == 0
    with pytest.raises(ValueError):
        standard_monomial_count(ideal, 9)


def test_hp_series_frozen_values():
    assert hp_series(QuotientSpec(2, 1, cap=2), 5).coeffs == (1, 1, 1, 1, 2, 2)
    # a floor of k leaves no monomials of weight 1..k-1
    s = hp_series(QuotientSpec(2, 7), 6)
    assert s.coeffs == (1, 0, 0, 0, 0, 0, 0)


def test_cap_r_equals_uncapped():
    for r, k in [(2, 1), (3, 2), (4, 3)]:
        capped = hp_series(QuotientSpec(r, k, cap=r), 25)
        assert first_mismatch(capped, hp_series(QuotientSpec(r, k), 25)) is None


def test_hp_matches_monomial_oracle():
    for r in (2, 3):
        for k in (1, 2):
            for cap in (None, 1, r):
                spec = QuotientSpec(r, k, cap=cap)
                ideal = expand_generators(spec, 14)
                series = hp_series(spec, 14)
                for n in range(15):
                    assert series.coeffs[n] == standard_monomial_count(ideal, n), (
                        spec,
                        n,
                    )


def test_hp_matches_gordon_counts():
    for r in (2, 3, 4):
        for i in range(1, r + 1):
            for J in (0, 1, 2):
                params = GordonParams(r, i, J)
                series = hp_series(gordon_quotient(params), 20)
                assert first_mismatch(series, gordon_series(params, 20)) is None, params
                assert series.coeffs[:14] == gordon_series(params, 13).coeffs


def row_floor(r, k, N):
    """The floor reader of a one-cell row at J = k-1, which holds the floors
    k+1 and k that the hp suites read at k."""
    return cell_row(GordonParams(r, 1, k - 1), N, ("hp-identities",)).floor


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_hp_identities(r):
    for k in range(1, 7):
        assert verify_hp_identities(r, k, 40, row_floor(r, k, 40)), (r, k)
    assert verify_hp_identities(r, 1, 0, row_floor(r, 1, 0))


def test_hp_recursion():
    for r, k, cap, N in ((2, 1, 2, 30), (4, 3, 1, 30), (5, 2, 5, 25), (3, 1, 2, 0)):
        assert verify_hp_recursion(r, k, cap, N, row_floor(r, k, N)), (r, k, cap, N)
    with pytest.raises(ValueError, match="^cap must lie in 1..3, got 4$"):
        verify_hp_recursion(3, 1, 4, 10, row_floor(3, 1, 10))


def test_uncapped_tail_valuation():
    one = TruncatedSeries((1,) + (0,) * 12)
    for d in range(0, 9):
        # the first mismatch with 1 is the valuation of the tail; None is 0
        val = first_mismatch(hp_series(QuotientSpec(3, d + 2), 12), one)
        assert val is None or val >= d + 2


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 6), st.integers(1, 5), st.integers(0, 18))
def test_every_cap_read_off_one_floor_is_the_monomial_count(r, k, N):
    # the floor's one scan keeps the quotient capped at c at c-1, and the
    # uncapped one at r-1; a one-cell row at J = k-1 hands the hilbert
    # route floor k
    layout, caps = cell_row(GordonParams(r, 1, k - 1), N).floor(k)
    assert len(caps) == r
    for cap in (*range(1, r + 1), None):
        ideal = expand_generators(QuotientSpec(r, k, cap=cap), N)
        want = tuple(standard_monomial_count(ideal, n) for n in range(N + 1))
        assert layout.unpack(caps[(cap or r) - 1]) == want, cap


@st.composite
def floor_runs(draw):
    """(r, N, hi, lo): floors hi down to lo, hi up to N+2, at order N."""
    r, N = draw(st.integers(2, 6)), draw(st.integers(0, 120))
    hi = draw(st.integers(1, N + 2))
    return r, N, hi, draw(st.integers(1, hi))


@settings(deadline=None, max_examples=40)
@given(floor_runs())
@example((2, 0, 2, 1))
@example((3, 1, 3, 1))
@example((4, 10, 12, 11))
def test_floors_filled_from_the_top_equal_cold_floors(run):
    # floor k is floor k+1 after one more step: one scan to floor hi hands
    # off floors hi..lo, each equal to floor k scanned on its own, as
    # hp_series scans it
    r, N, hi, lo = run
    floors = range(hi, lo - 1, -1)
    with mock.patch.object(hilbert, "_growing_scan", wraps=partitions._growing_scan) as scan:
        filled = hilbert._floors(r, floors, N)
    assert (scan.call_count, len(filled)) == (1, len(floors))
    for k, (layout, caps) in zip(floors, filled):
        [(cold, cold_caps)] = hilbert._floors(r, range(k, k - 1, -1), N)
        assert (layout.bits, caps) == (cold.bits, cold_caps), k


def test_hp_identities_fail_when_the_full_cap_drops_a_generator(monkeypatch):
    # cap r and the uncapped quotient share one series of a floor, so the lemma
    # tying them is checked on the generators their two branches build
    expand = hilbert.expand_generators

    def dropped(spec, N):
        ideal = expand(spec, N)
        if spec.cap is None and spec.k == 2:
            return hilbert.MonomialIdealSpec(ideal.generators[1:], ideal.first_var, ideal.weight_bound)
        return ideal

    monkeypatch.setattr(hilbert, "expand_generators", dropped)
    assert not verify_hp_identities(3, 2, 20, row_floor(3, 2, 20))


def scan_hp_identities(capsys, r, i, J, N):
    """Exit code and the one cell of a ``scan --suites hp-identities``."""
    argv = ["scan", "--r", str(r), "--i", str(i), "--J", str(J), "--order", str(N)]
    code = main([*argv, "--suites", "hp-identities", "--format", "json"])
    return code, json.loads(capsys.readouterr().out)["cells"][0]


def test_hp_identities_fail_when_the_floor_above_moves(capsys, monkeypatch):
    # cap 1 at k must equal the uncapped series at k+1; one more monomial
    # of weight N in the uncapped quotient at floor 3, as every row hands it
    # over, breaks that lemma at k = 2, while the cell's own quotient, at
    # floor 2, is unchanged
    r, i, J, N = 3, 2, 1, 20
    read = cli._Row.floor

    def bumped(k, layout, caps):
        return (layout, caps[:-1] + (caps[-1] + 1,)) if k == J + 2 else (layout, caps)

    monkeypatch.setattr(cli._Row, "floor", lambda row, k: bumped(k, *read(row, k)))
    assert not verify_hp_identities(r, J + 1, N, row_floor(r, J + 1, N))
    code, cell = scan_hp_identities(capsys, r, i, J, N)
    assert code == 1
    assert (cell["identity"], cell["suites"]) == ("pass", {"hp-identities": "fail"})


def test_hp_identities_fail_when_a_middle_cap_drops_a_generator(capsys, monkeypatch):
    # the capped expansion at k must be its leading block joined with the
    # uncapped expansion at k+1; cap 2 of r = 3, neither end of the cap
    # range, loses its first generator at k = 2
    r, i, J, N = 3, 1, 1, 20
    expand = hilbert.expand_generators

    def dropped(spec, N):
        ideal = expand(spec, N)
        if spec.cap == 2 and spec.k == J + 1:
            return hilbert.MonomialIdealSpec(ideal.generators[1:], ideal.first_var, ideal.weight_bound)
        return ideal

    monkeypatch.setattr(hilbert, "expand_generators", dropped)
    assert not verify_hp_identities(r, J + 1, N, row_floor(r, J + 1, N))
    code, cell = scan_hp_identities(capsys, r, i, J, N)
    assert code == 1
    assert (cell["identity"], cell["suites"]) == ("pass", {"hp-identities": "fail"})


def test_hp_identities_fail_when_a_capped_block_puts_its_pure_power_first(capsys, monkeypatch):
    # the capped expansion is compared with its leading block and the
    # uncapped tail as tuples in canonical order, so a block that emits x_k^c
    # before its mixed generators fails, though it holds the same set; the
    # caps below r of r = 3 at k = 2 each keep their pure power at N = 20
    r, i, J, N = 3, 1, 1, 20
    expand = hilbert.expand_generators

    def reordered(spec, N):
        ideal = expand(spec, N)
        if spec.cap is None or spec.cap == spec.r or ((spec.k, spec.cap),) not in ideal.generators:
            return ideal
        pure = ideal.generators.index(((spec.k, spec.cap),))
        gens = (ideal.generators[pure], *ideal.generators[:pure], *ideal.generators[pure + 1 :])
        assert set(gens) == set(ideal.generators)
        return hilbert.MonomialIdealSpec(gens, ideal.first_var, ideal.weight_bound)

    monkeypatch.setattr(hilbert, "expand_generators", reordered)
    assert reordered(QuotientSpec(r, J + 1, cap=2), N).generators[:2] == (((2, 2),), ((2, 1), (3, 2)))
    assert not verify_hp_identities(r, J + 1, N, row_floor(r, J + 1, N))
    code, cell = scan_hp_identities(capsys, r, i, J, N)
    assert code == 1
    assert (cell["identity"], cell["suites"]) == ("pass", {"hp-identities": "fail"})


def test_hp_identities_check_nothing_once_their_floors_are_filled(monkeypatch):
    # each floor checks its caps once, when a row's scan hands them off, so
    # reading them checks nothing
    r, k, N = 4, 2, 20
    row = cell_row(GordonParams(r, 1, k - 1), N, ("hp-identities",))
    assert row.floors == range(k + 1, k - 1, -1)
    row.floor(k)
    check, calls = _PackedLayout._check, []

    def counted(self, x):
        calls.append(x)
        return check(self, x)

    monkeypatch.setattr(_PackedLayout, "_check", counted)
    assert verify_hp_identities(r, k, N, row.floor)
    assert calls == []
