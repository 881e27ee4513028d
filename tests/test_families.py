"""Tests of the coefficient families.

``reference_verify_expansion`` is the list version of the expansion check:
it unpacks each stage entry into a ``TruncatedSeries`` and sums list Cauchy
products. The packed ``verify_expansion`` must return what it returns.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrgordon import families
from rrgordon.cli import main
from rrgordon.families import (
    Side,
    family_at_stage,
    family_init,
    family_limit,
    family_step,
    verify_expansion,
    verify_family_match,
)
from rrgordon.hilbert import QuotientSpec, gordon_quotient, hp_series
from rrgordon.partitions import GordonParams
from rrgordon.products import ProductIndex, product_series
from rrgordon.qseries import INFINITE, TruncatedSeries, _PackedLayout


def coeff_lists(fam):
    return [list(e.coeffs) for e in fam.entries]


def test_init_values():
    fam = family_init(Side.HILBERT, GordonParams(3, 2, 0), 4)
    assert fam.stage == 1
    assert coeff_lists(fam) == [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ]
    # the product side derives the same prefix from ell
    fam2 = family_init(Side.PRODUCT, GordonParams(3, 2, 0), 4)
    assert coeff_lists(fam2) == coeff_lists(fam)


def test_init_full_prefix_when_cap_is_r():
    fam = family_init(Side.HILBERT, GordonParams(3, 3, 1), 8)
    assert all(any(e.coeffs) for e in fam.entries)
    assert [e.valuation() for e in fam.entries] == [0, 2, 4]


def test_step_hand_checked():
    fam = family_step(family_init(Side.HILBERT, GordonParams(3, 2, 0), 6))
    assert fam.stage == 2
    assert coeff_lists(fam) == [
        [1, 1, 0, 0, 0, 0, 0],  # 1 + q
        [0, 0, 1, 1, 0, 0, 0],  # q^2 (1 + q)
        [0, 0, 0, 0, 1, 0, 0],  # q^4
    ]


def test_step_boundary_entries():
    params = GordonParams(4, 3, 1)
    fam = family_at_stage(Side.HILBERT, params, 4, 20)
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
        family_at_stage(Side.HILBERT, GordonParams(2, 1, 2), 2, 10)


def test_limit_frozen_value():
    got = family_limit(Side.HILBERT, GordonParams(2, 2, 0), 5)
    assert got.coeffs == (1, 1, 1, 1, 2, 2)
    assert family_limit(Side.PRODUCT, GordonParams(2, 2, 0), 5).coeffs == got.coeffs
    assert family_limit(Side.HILBERT, GordonParams(4, 2, 1), 0).coeffs == (1,)


def test_limit_handles_singleton_prefix():
    # i = 1 leaves only entry 1 nonzero at the start; later stages still move
    got = family_limit(Side.HILBERT, GordonParams(2, 1, 0), 8)
    assert got.coeffs == (1, 0, 1, 1, 1, 1, 2, 2, 3)


@pytest.mark.parametrize("r,i,J,N", [(3, 2, 1, 25), (2, 1, 0, 30), (4, 4, 2, 20)])
def test_limit_matches_both_sides(r, i, J, N):
    params = GordonParams(r, i, J)
    assert family_limit(Side.HILBERT, params, N).eq(
        hp_series(gordon_quotient(params), N)
    )
    assert family_limit(Side.PRODUCT, params, N).eq(
        product_series(ProductIndex(r, params.product_index), N)
    )


def test_match_between_sides():
    assert verify_family_match(GordonParams(3, 2, 0), 10, 30)
    assert verify_family_match(GordonParams(2, 1, 2), 10, 30)
    # d_max = J+1 compares just the initial vectors
    assert verify_family_match(GordonParams(4, 3, 1), 2, 15)
    with pytest.raises(ValueError):
        verify_family_match(GordonParams(2, 1, 3), 1, 10)


def test_match_stops_where_the_walks_are_constant(step_values):
    # from stage J+N+2 on every entry j >= 2 lies past order N, so both
    # walks stop there whatever d_max is
    params, N = GordonParams(3, 2, 1), 10
    assert verify_family_match(params, 10**12, N)
    # stages J+1..J+N+2 on each side
    assert sorted(step_values) == sorted(2 * list(range(params.J + 1, params.J + N + 3)))


def test_stage_past_the_walk_is_its_last_stage(step_values):
    params, N = GordonParams(2, 1, 0), 10
    far = family_at_stage(Side.HILBERT, params, 10**6, N)
    # stages J+1..J+N+2, after which the walk is constant to order N
    assert len(step_values) <= params.J + N + 2
    last = family_at_stage(Side.HILBERT, params, params.J + N + 2, N)
    assert far.stage == 10**6
    assert far.entries == last.entries


def reference_verify_expansion(params, d, N):
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


def test_expansion_identities():
    assert verify_expansion(GordonParams(2, 2, 0), 3, 30)
    assert verify_expansion(GordonParams(3, 1, 1), 2, 30)
    assert verify_expansion(GordonParams(3, 1, 1), 2, 0)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 7), st.data(), st.integers(0, 4), st.integers(0, 80))
def test_packed_expansion_agrees_with_reference(r, data, J, N):
    params = GordonParams(r, data.draw(st.integers(1, r)), J)
    d = data.draw(st.integers(J + 1, J + 5))
    assert verify_expansion(params, d, N) == reference_verify_expansion(params, d, N)


def test_expansion_rejects_a_stage_below_j_plus_1():
    with pytest.raises(ValueError):
        verify_expansion(GordonParams(3, 2, 2), 2, 10)


# params (3, 2, 1) at stage 3: factor 1 of each side lies one floor above the
# stage, and its stage entry is 1 + O(q), so a change of its q^5 coefficient
# moves the sum at q^5
EXPANSION_CASE = (GordonParams(3, 2, 1), 3, 30)
FACTOR_ONE = {
    "hp_series": QuotientSpec(3, 4, cap=3),
    "product_series": ProductIndex(3, 2 * 3 + 1),
}


def set_factor_coeff(monkeypatch, name, n, value):
    """Patch the factor ``families.<name>`` reads for FACTOR_ONE[name] so
    that its q^n coefficient is value; every other call is unchanged."""
    original, target = getattr(families, name), FACTOR_ONE[name]

    def patched(key, order):
        got = original(key, order)
        if key != target:
            return got
        return TruncatedSeries(got.coeffs[:n] + (value,) + got.coeffs[n + 1 :])

    monkeypatch.setattr(families, name, patched)


def value_bits(N, r):
    """v of ``_PackedLayout.for_products``: operands must stay below 2^v."""
    return _PackedLayout.for_counts(N, r).bits - (r - 1).bit_length()


@pytest.mark.parametrize("name", FACTOR_ONE)
def test_expansion_fails_on_a_bumped_deeper_factor(monkeypatch, name):
    params, d, N = EXPANSION_CASE
    assert verify_expansion(params, d, N)
    c = getattr(families, name)(FACTOR_ONE[name], N).coeffs[5]
    set_factor_coeff(monkeypatch, name, 5, c + 1)
    assert not verify_expansion(params, d, N)


@pytest.mark.parametrize("name", FACTOR_ONE)
def test_expansion_factor_at_its_value_bits_raises(monkeypatch, name):
    params, d, N = EXPANSION_CASE
    v = value_bits(N, params.r)
    # the largest coefficient the check admits enters the sum, which is then wrong
    set_factor_coeff(monkeypatch, name, 5, (1 << v) - 1)
    assert not verify_expansion(params, d, N)
    set_factor_coeff(monkeypatch, name, 5, 1 << v)
    with pytest.raises(ArithmeticError):
        verify_expansion(params, d, N)


def test_expansion_stage_entry_at_its_value_bits_raises(monkeypatch):
    params, d, N = EXPANSION_CASE
    v = value_bits(N, params.r)
    walk = families._capped_walk

    def inflated(layout, values, floor, cap):
        # the walk goes on from its own states; only the yielded ones grow
        for a, state in walk(layout, values, floor, cap):
            yield a, [state[0] | 1 << v] + state[1:]

    monkeypatch.setattr(families, "_capped_walk", inflated)
    with pytest.raises(ArithmeticError):
        verify_expansion(params, d, N)


def test_scan_reports_an_operand_out_of_range_as_a_failed_suite(capsys, monkeypatch):
    params, _, N = EXPANSION_CASE
    set_factor_coeff(monkeypatch, "hp_series", 5, 1 << value_bits(N, params.r))
    argv = ["scan", "--r", "3", "--i", "2", "--J", "1", "--order", str(N), "--suites", "expansion", "--format", "json"]
    code = main(argv)
    cell = json.loads(capsys.readouterr().out)["cells"][0]
    assert code == 1
    assert (cell["identity"], cell["suites"]) == ("pass", {"expansion": "fail"})


def test_valuation_ladder():
    for params in (GordonParams(2, 2, 0), GordonParams(3, 1, 1), GordonParams(4, 3, 0)):
        fam = family_init(Side.HILBERT, params, 30)
        for _ in range(8):
            for j, entry in enumerate(fam.entries, start=1):
                val = entry.valuation()
                assert val == INFINITE or val >= fam.stage * (j - 1), (params, fam.stage, j)
            fam = family_step(fam)


def test_entries_stay_non_negative():
    fam = family_init(Side.PRODUCT, GordonParams(3, 2, 1), 25)
    for _ in range(10):
        assert all(c >= 0 for e in fam.entries for c in e.coeffs)
        fam = family_step(fam)


def test_limit_agrees_with_walk_to_bound():
    params = GordonParams(3, 2, 1)
    N = 12
    fam = family_init(Side.HILBERT, params, N)
    while fam.stage < params.J + N + 2:
        fam = family_step(fam)
    assert family_limit(Side.HILBERT, params, N).coeffs == fam.entries[0].coeffs


def test_family_json_dump():
    fam = family_init(Side.HILBERT, GordonParams(3, 2, 0), 2)
    obj = fam.as_json_dict()
    assert obj["flavor"] == "hilbert"
    assert (obj["r"], obj["i"], obj["J"], obj["stage"]) == (3, 2, 0, 1)
    assert obj["entries"][0] == {"order": 2, "coeffs": ["1", "0", "0"]}
    assert len(obj["entries"]) == 3
