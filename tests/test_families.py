import pytest

from rrgordon.families import (
    Side,
    family_at_stage,
    family_init,
    family_limit,
    family_step,
    verify_expansion,
    verify_family_match,
)
from rrgordon.hilbert import gordon_quotient, hp_series
from rrgordon.partitions import GordonParams
from rrgordon.products import ProductIndex, product_series
from rrgordon.qseries import INFINITE


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


def test_expansion_identities():
    assert verify_expansion(GordonParams(2, 2, 0), 3, 30)
    assert verify_expansion(GordonParams(3, 1, 1), 2, 30)
    assert verify_expansion(GordonParams(3, 1, 1), 2, 0)


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
