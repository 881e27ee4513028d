"""The packed step kernel against list-based references and the oracles.

``reference_adjacent_capped_counts`` is the list-of-lists multiplicity DP the
package used before the kernel was packed; it stays here as the reference
the packed scan ``_capped_walk`` must reproduce exactly, in both directions.
``reference_family_init`` builds the initial family from monomials written
out as coefficient tuples, as the package did before the family walk became
the DP's scan, so the literal walk starts from code not under test.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrgordon import cli, families, hilbert, partitions, products
from rrgordon.families import (
    CoefficientFamily,
    Side,
    family_at_stage,
    family_limit,
    verify_expansion,
    verify_family_match,
)
from rrgordon.hilbert import (
    QuotientSpec,
    expand_generators,
    hp_series,
    standard_monomial_count,
)
from rrgordon.partitions import (
    GordonParams,
    _capped_walk,
    enumerate_gordon,
    gordon_series,
)
from rrgordon.products import base_product
from rrgordon.qseries import TruncatedSeries, _PackedLayout


def reference_adjacent_capped_counts(r, values, floor, cap, N):
    """State (multiplicity of the previously scanned value, weight)."""
    dp = [[0] * (N + 1) for _ in range(r)]
    dp[0][0] = 1
    for a in values:
        new = [[0] * (N + 1) for _ in range(r)]
        for prev, row in enumerate(dp):
            bound = min(r - 1 - prev, cap) if a == floor else r - 1 - prev
            for w, ways in enumerate(row):
                if ways:
                    for f in range(min(bound, (N - w) // a) + 1):
                        new[f][w + a * f] += ways
        dp = new
    return [sum(column) for column in zip(*dp)]


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_packed_dp_equals_list_dp(data):
    r = data.draw(st.integers(2, 6))
    N = data.draw(st.integers(0, 150))
    floor = data.draw(st.integers(1, 12))
    cap = data.draw(st.integers(0, r - 1))
    ascending = data.draw(st.booleans())
    values = range(floor, N + 1) if ascending else range(N, floor - 1, -1)
    want = reference_adjacent_capped_counts(r, values, floor, cap, N)
    layout, state = _PackedLayout.for_counts(N, r), (1,)
    for _, state in _capped_walk(layout, values, floor, cap):
        pass
    assert list(layout.unpack(sum(state))) == want


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 5), st.data(), st.integers(0, 3), st.integers(0, 18))
def test_packed_routes_equal_oracles(r, data, J, N):
    i = data.draw(st.integers(1, r))
    params = GordonParams(r, i, J)
    assert gordon_series(params, N).coeffs == tuple(
        len(enumerate_gordon(params, n)) for n in range(N + 1)
    )
    spec = QuotientSpec(r, J + 1, data.draw(st.sampled_from([None, *range(1, r + 1)])))
    ideal = expand_generators(spec, N)
    assert hp_series(spec, N).coeffs == tuple(
        standard_monomial_count(ideal, n) for n in range(N + 1)
    )


def monomial(exponent, N):
    """q^exponent to order N (zero if exponent > N)."""
    return TruncatedSeries(tuple(int(n == exponent) for n in range(N + 1)))


def reference_family_init(side, params, N):
    """Stage J+1 family: entry j is the monomial q^((J+1)(j-1)) up to the
    side's prefix length, zero beyond it."""
    r, J = params.r, params.J
    prefix = r - params.ell + 1 if side is Side.PRODUCT else params.i
    entries = tuple(
        monomial((J + 1) * (j - 1), N) if j <= prefix else TruncatedSeries.zero(N)
        for j in range(1, r + 1)
    )
    return CoefficientFamily(side, params, stage=J + 1, entries=entries)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 7), st.data(), st.integers(0, 5), st.integers(0, 40))
def test_family_init_equals_list_monomials(r, data, J, N):
    params = GordonParams(r, data.draw(st.integers(1, r)), J)
    for side in Side:
        assert family_at_stage(side, params, params.J + 1, N) == reference_family_init(side, params, N)


def literal_family_limit(side, params, N):
    """Entry 1 at the stabilization bound J + N + 2, stepping by the
    definition: entry j becomes (e_1 + ... + e_(r-j+1)) * q^(d(j-1))."""
    r = params.r
    entries = reference_family_init(side, params, N).entries
    for d in range(params.J + 2, params.J + N + 3):
        sums = [entries[0]]
        for e in entries[1:]:
            sums.append(sums[-1] + e)
        entries = [sums[r - j].mul_qpow(d * (j - 1)) for j in range(1, r + 1)]
    return entries[0]


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 6), st.data(), st.integers(0, 4), st.integers(0, 40))
def test_family_limit_equals_literal_walk(r, data, J, N):
    params = GordonParams(r, data.draw(st.integers(1, r)), J)
    side = data.draw(st.sampled_from(list(Side)))
    assert family_limit(side, params, N) == literal_family_limit(side, params, N)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 6), st.data(), st.integers(0, 4), st.integers(0, 40))
def test_packed_ladder_agrees_with_valuation(r, data, J, N):
    params = GordonParams(r, data.draw(st.integers(1, r)), J)
    layout = _PackedLayout.for_counts(N, r)
    for stage, state in families._walk(Side.HILBERT, params, layout):
        # each entry also one slot short, as a broken step would leave it
        for entries in (state, [x >> layout.bits for x in state]):
            fam = families._family(Side.HILBERT, params, stage, layout, entries)
            want = all(e.valuation() >= stage * (j - 1) for j, e in enumerate(fam.entries, start=1))
            assert families._on_ladder(layout, stage, entries) == want, (stage, entries)


@pytest.mark.parametrize(
    "call",
    [
        lambda: gordon_series(GordonParams(3, 2, 1), -1),
        lambda: hp_series(QuotientSpec(3, 2, cap=2), -1),
        lambda: family_limit(Side.HILBERT, GordonParams(3, 2, 1), -1),
        lambda: family_at_stage(Side.PRODUCT, GordonParams(3, 2, 1), 3, -1),
        lambda: verify_family_match(GordonParams(3, 2, 1), 10, -1),
        lambda: verify_expansion(GordonParams(3, 2, 1), 3, -1),
        lambda: base_product(3, 2, -1),
    ],
    ids=["gordon_series", "hp_series", "family_limit", "family_at_stage",
         "verify_family_match", "verify_expansion", "base_product"],
)
def test_negative_order_is_rejected(call):
    # every packed layout is built by for_counts, which rejects it
    with pytest.raises(ValueError, match="^order must be non-negative$"):
        call()


def test_slot_width_covers_partition_counts():
    # p(100) = 190569292 needs 28 bits; r = 4 adds 2 guard bits
    layout = _PackedLayout.for_counts(100, 4)
    assert layout.bits % 8 == 0
    assert layout.bits - 2 >= (190569292).bit_length()


def test_step_raises_when_a_slot_reaches_its_guard_bits():
    # 8-bit slots with r = 3 leave 6 value bits: 63 + 63 reaches the guard
    layout = _PackedLayout(3, 3, 8)
    half = layout.pack((63, 0, 0, 0))
    assert layout.step([half], 1, 3) == [half, half << 8, half << 16]
    with pytest.raises(ArithmeticError):
        layout.step([half, half], 1, 3)
    for bad in ((64, 0, 0, 0), (0, -1, 0, 0)):
        with pytest.raises(ArithmeticError):
            layout.pack(bad)


# with r and N+1 powers of two, as at (63, 4) and (127, 2), the rounded-up
# slot width has the least room to spare; N = 2000 is MAX_ORDER
@pytest.mark.parametrize("N,r", [(0, 2), (1, 7), (7, 8), (63, 4), (127, 2), (255, 16), (2000, 5)])
def test_sum_of_r_largest_products_never_carries(N, r):
    layout = _PackedLayout.for_products(N, r)
    v = _PackedLayout.for_counts(N, r).bits - (r - 1).bit_length()
    top = (1 << v) - 1
    x = layout.pack((top,) * (N + 1))
    with pytest.raises(ArithmeticError):
        layout.pack((top + 1,) + (0,) * N)
    # all 2N+1 slots of the unmasked sum are exact, so none carried
    total, slot = r * (x * x), (1 << layout.bits) - 1
    got = [(total >> k * layout.bits) & slot for k in range(2 * N + 2)]
    assert got == [r * top * top * min(k + 1, 2 * N + 1 - k) for k in range(2 * N + 1)] + [0]


def test_guard_error_stays_in_route_report(capsys, monkeypatch):
    # every route packs its series, the product route its whole tower;
    # cached results from wider slots would hide the narrowed ones
    narrow = classmethod(lambda cls, order, r: cls(order, r, 8))
    monkeypatch.setattr(_PackedLayout, "for_counts", narrow)
    caches = (hilbert._floor, products._family_at_level, partitions._ascending_scan)
    for cache in caches:
        cache.cache_clear()
    try:
        argv = ["verify", "--r", "3", "--i", "2", "--J", "0", "--order", "40", "--format", "json"]
        code = cli.main(argv)
    finally:
        for cache in caches:
            cache.cache_clear()
    routes = json.loads(capsys.readouterr().out)["routes"]
    assert code == 1
    for name in ("product", "partition", "hilbert", "family"):
        assert routes[name]["error"].startswith("ArithmeticError: "), name


def test_floor_checks_the_caps_it_keeps(monkeypatch):
    # in 8-bit slots at r=3, N=17 every step's input total clears the guard
    # bits, but the floor's uncapped series does not: only the check the
    # floor makes before it caches its caps can see that
    narrow = classmethod(lambda cls, order, r: cls(order, r, 8))
    monkeypatch.setattr(_PackedLayout, "for_counts", narrow)
    hilbert._floor.cache_clear()
    try:
        hilbert._floor(3, 1, 16)
        with pytest.raises(ArithmeticError):
            hilbert._floor(3, 1, 17)
    finally:
        # the narrow-slot entries must not reach later tests
        hilbert._floor.cache_clear()


def test_unpack_round_trips():
    layout = _PackedLayout.for_counts(5, 2)
    coeffs = (1, 0, 3, 255, 0, 7)
    assert layout.unpack(layout.pack(coeffs)) == coeffs
    assert TruncatedSeries(layout.unpack(1)) == TruncatedSeries.one(5)


def raw(layout, coeffs):
    """Coefficients laid in the layout's slots with no check at all."""
    return int.from_bytes(b"".join(c.to_bytes(layout.bits // 8, "little") for c in coeffs), "little")


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_reslot_round_trips_and_checks_what_it_drops(data):
    N, r = data.draw(st.integers(0, 40)), data.draw(st.integers(2, 12))
    narrow, wide = _PackedLayout.for_counts(N, r), _PackedLayout.for_products(N, r)
    v = narrow.bits - (r - 1).bit_length()
    coeffs = tuple(data.draw(st.lists(st.integers(0, (1 << v) - 1), min_size=N + 1, max_size=N + 1)))
    x = narrow.pack(coeffs)
    # widening, then narrowing back
    y = wide.reslot(x, narrow)
    assert wide.unpack(y) == coeffs
    assert narrow.reslot(y, wide) == x
    # a nonzero byte that the narrower slots drop
    n = data.draw(st.integers(0, N))
    byte = data.draw(st.integers(narrow.bits // 8, wide.bits // 8 - 1))
    with pytest.raises(ArithmeticError):
        narrow.reslot(y | 1 << (n * wide.bits + 8 * byte), wide)
    # a kept slot at the target's guard bits, from either side
    big = coeffs[:n] + (data.draw(st.integers(1 << v, (1 << narrow.bits) - 1)),) + coeffs[n + 1 :]
    with pytest.raises(ArithmeticError):
        wide.reslot(raw(narrow, big), narrow)
    with pytest.raises(ArithmeticError):
        narrow.reslot(raw(wide, big), wide)


def test_reslot_narrows_the_widest_tower_slots():
    # a source wider than the expansion suite's slots, such as the 240-bit
    # slots the P-times-theta climb uses at r = 10, level 29, order 85, is
    # narrowed byte by byte to the same coefficients
    layout = _PackedLayout.for_products(85, 10)
    fam, entries = products._family_at_level(10, 29, 85)
    src = _PackedLayout(85, 10, 240)
    assert src.bits > layout.bits
    for x in entries:
        wide = src.reslot(x, fam)
        assert layout.unpack(layout.reslot(wide, src)) == src.unpack(wide) == fam.unpack(x)
