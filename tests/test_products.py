"""The product tower. ``reference_base_product`` is the list coin DP the
package used before the base products were packed; it stays here as the
reference the packed product must reproduce exactly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrgordon import products
from rrgordon.partitions import GordonParams, allowed_residues, count_modular, gordon_series
from rrgordon.products import (
    ProductIndex,
    base_product,
    product_series,
    tail_valuation_profile,
)
from rrgordon.qseries import INFINITE, TruncatedSeries, _PackedLayout


def reference_base_product(r, ell, N):
    """Each allowed factor 1/(1-q^m) folded in as the running sum c[n] += c[n-m]."""
    allowed = allowed_residues(r, r - ell + 1)
    c = [0] * (N + 1)
    c[0] = 1
    for m in range(1, N + 1):
        if m % (2 * r + 1) not in allowed:
            continue
        for n in range(m, N + 1):
            c[n] += c[n - m]
    return tuple(c)


def test_index_decomposition():
    # base range: level 0, slot = index
    for r in (2, 3, 5):
        for index in range(1, r + 1):
            idx = ProductIndex(r, index)
            assert (idx.level, idx.slot) == (0, index)
    # beyond the base range the slot stays in 2..r
    assert (ProductIndex(2, 3).level, ProductIndex(2, 3).slot) == (1, 2)
    assert (ProductIndex(2, 7).level, ProductIndex(2, 7).slot) == (5, 2)
    assert (ProductIndex(3, 4).level, ProductIndex(3, 4).slot) == (1, 2)
    assert (ProductIndex(3, 5).level, ProductIndex(3, 5).slot) == (1, 3)
    assert (ProductIndex(5, 17).level, ProductIndex(5, 17).slot) == (3, 5)
    for r in (2, 3, 4):
        for index in range(r + 1, 40):
            idx = ProductIndex(r, index)
            assert 2 <= idx.slot <= r
            assert (r - 1) * idx.level + idx.slot == index


def test_index_validation():
    with pytest.raises(ValueError):
        ProductIndex(1, 1)
    with pytest.raises(ValueError):
        ProductIndex(3, 0)


def test_base_product_frozen_values():
    assert base_product(2, 1, 5).coeffs == (1, 1, 1, 1, 2, 2)
    assert base_product(2, 2, 5).coeffs == (1, 0, 1, 1, 1, 1)
    assert base_product(4, 3, 0).coeffs == (1,)
    with pytest.raises(ValueError):
        base_product(3, 4, 5)


def test_base_product_matches_naive_factor_product():
    # same series, assembled by generic truncated multiplication
    for r, ell, N in [(2, 1, 12), (3, 2, 12), (4, 4, 10)]:
        allowed = allowed_residues(r, r - ell + 1)
        naive = TruncatedSeries.one(N)
        for m in range(1, N + 1):
            if m % (2 * r + 1) in allowed:
                naive = naive * TruncatedSeries.geometric_series(m, N)
        assert naive.coeffs == base_product(r, ell, N).coeffs


def test_base_product_matches_modular_counts():
    for r in (2, 3, 4, 5):
        for ell in range(1, r + 1):
            coeffs = base_product(r, ell, 20).coeffs
            for n in range(21):
                assert coeffs[n] == count_modular(r, r - ell + 1, n), (r, ell, n)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 7), st.integers(0, 300))
def test_packed_base_product_equals_list_dp(r, N):
    # every ell of the tower peels the same cached shared product
    products._shared_product.cache_clear()
    for ell in range(1, r + 1):
        got = base_product(r, ell, N).coeffs
        assert got == reference_base_product(r, ell, N), ell
        if N <= 25:
            assert got == tuple(count_modular(r, r - ell + 1, n) for n in range(N + 1)), ell


def test_base_product_raises_when_a_slot_reaches_its_guard_bits(monkeypatch):
    # 8-bit slots with one guard bit hold up to 127; the q^40 coefficient is 2154
    narrow = classmethod(lambda cls, order, r: cls(order, r, 8))
    monkeypatch.setattr(_PackedLayout, "for_counts", narrow)
    products._shared_product.cache_clear()
    try:
        with pytest.raises(ArithmeticError):
            base_product(3, 2, 40)
    finally:
        products._shared_product.cache_clear()


def test_peel_raises_on_a_negative_slot():
    # peeling (1 - q) twice from 1/(1 - q) leaves 1 - q, negative at q^1
    layout = _PackedLayout.for_counts(6, 2)
    geometric = layout.over_one_minus(1, 1)
    assert layout.unpack(geometric) == (1,) * 7
    one = layout.times_one_minus(geometric, 1)
    assert layout.unpack(one) == (1, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ArithmeticError):
        layout.times_one_minus(one, 1)


def test_first_extended_entry():
    # (entry 1 - entry 2) / q for r = 2
    assert product_series(ProductIndex(2, 3), 5).coeffs == (1, 0, 0, 1, 1, 1)


def test_base_delegation():
    assert product_series(ProductIndex(3, 3), 4).coeffs == base_product(3, 3, 4).coeffs


def test_extended_entry_matches_partition_counts():
    # index 3 = (r-1)*J + ell for r=2, i=1, J=1
    params = GordonParams(2, 1, 1)
    assert params.product_index == 3
    got = product_series(ProductIndex(2, 3), 30)
    assert got.eq(gordon_series(params, 30))


@pytest.mark.parametrize(
    "r,i,J,N",
    [(2, 2, 0, 40), (2, 1, 2, 40), (3, 3, 1, 30), (4, 2, 2, 30), (5, 5, 3, 25)],
)
def test_identity_spot_instances(r, i, J, N):
    params = GordonParams(r, i, J)
    lhs = product_series(ProductIndex(r, params.product_index), N)
    assert lhs.eq(gordon_series(params, N))


def test_tail_valuation_profile_values():
    profile = tail_valuation_profile(2, 5, 20)
    assert profile[0] == 3  # entry for d=1
    assert profile == [3, 4, 5, 6, 7]


def test_tail_valuation_profile_reports_infinite_past_order():
    profile = tail_valuation_profile(2, 8, 5)
    assert profile[:3] == [3, 4, 5]
    assert all(v == INFINITE for v in profile[4:])


def test_tail_profile_climbs_one_tower(monkeypatch):
    # one climb to level d_max reads every level; a climb per level would
    # compute the r base products d_max times
    calls = []

    def counting(r, ell, N):
        calls.append(ell)
        return base_product(r, ell, N)

    monkeypatch.setattr(products, "base_product", counting)
    products._family_at_level.cache_clear()
    tail_valuation_profile(3, 6, 10)
    assert sorted(calls) == [1, 2, 3]


@pytest.mark.parametrize("r,N", [(2, 30), (3, 24), (4, 18), (5, 14)])
def test_tail_converges_to_one(r, N):
    """Deep entries are 1 to order N somewhere within d <= N + 2."""
    profile = tail_valuation_profile(r, N + 2, N)
    assert any(v == INFINITE for v in profile)
    finite = [v for v in profile if v != INFINITE]
    assert finite == sorted(finite)
    # once the tail reaches 1 it stays there
    first_inf = profile.index(INFINITE)
    assert all(v == INFINITE for v in profile[first_inf:])


def test_deep_towers_divide_exactly():
    # every level climb performs exact q-power divisions; none may fail
    for r in (2, 3, 4):
        for index in range(1, 4 * r):
            product_series(ProductIndex(r, index), 15)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_padded_order_is_enough(data):
    # an entry computed at order N is the truncation of the same entry at a
    # higher order, so the tower's padding loses no low-order information
    r = data.draw(st.integers(2, 5))
    idx = ProductIndex(r, data.draw(st.integers(1, 6 * r)))
    N = data.draw(st.integers(0, 30))
    extra = data.draw(st.integers(1, 10))
    assert product_series(idx, N) == product_series(idx, N + extra).truncate(N)
