"""The product tower against the list and packed code it replaced.

``reference_base_product`` is the list coin DP, ``doubling_base_products``
the packed product the package built by doubling before the base entries
came from theta series, and ``reference_levels`` the climb on lists of
Python ints. They stay here as references the packed tower must reproduce
exactly.
"""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modular import allowed_residues, count_modular
from rrgordon import cli, products
from rrgordon.partitions import GordonParams, gordon_series
from rrgordon.products import ProductIndex, _climb, base_product, product_series
from rrgordon.qseries import NonDivisibleError, TruncatedSeries, _PackedLayout, first_mismatch


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


def over_one_minus(layout, x, m):
    """x / (1 - q^m), by doubling: 1/(1 - q^m) = (1 + q^m)(1 + q^2m)(1 + q^4m)..."""
    s = m
    while s <= layout.order:
        x = layout._check(x + layout._times_q(x, s))
        s *= 2
    return x


def times_one_minus(layout, x, m):
    """x * (1 - q^m); a slot that would go negative sets its guard bits."""
    return layout._check(x - layout._times_q(x, m))


def doubling_base_products(r, N):
    """All r base entries: one shared product Q over every m not divisible
    by 2r+1, with the two banned classes of each ell peeled off it."""
    layout = _PackedLayout.for_counts(N, 2)
    mod = 2 * r + 1
    q = layout.one
    for m in range(1, N + 1):
        if m % mod:
            q = over_one_minus(layout, q, m)
    entries = []
    for ell in range(1, r + 1):
        x, i = q, r - ell + 1
        for m in [*range(i, N + 1, mod), *range(mod - i, N + 1, mod)]:
            x = times_one_minus(layout, x, m)
        entries.append(layout.unpack(x))
    return entries


def reference_levels(r, top, N):
    """The r entries of each level 0..top as lists, climbed with a
    coefficientwise difference, ``shift_div`` and a cut to each level's order from the doubling base
    entries."""
    order = N + (r - 1) * top * (top + 1) // 2
    entries = [TruncatedSeries(c) for c in doubling_base_products(r, order)]
    levels = [entries]
    for g in range(1, top + 1):
        order -= g * (r - 1)
        new = [TruncatedSeries(entries[r - 1].coeffs[: order + 1])]
        for s in range(2, r + 1):
            lo, hi = entries[r - s].coeffs, entries[r - s + 1].coeffs
            numerator = TruncatedSeries(tuple(x - y for x, y in zip(lo, hi)))
            new.append(TruncatedSeries(numerator.shift_div(g * (s - 1)).coeffs[: order + 1]))
        entries = new
        levels.append(entries)
    return levels


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
        naive = TruncatedSeries((1,) + (0,) * N)
        for m in range(1, N + 1):
            if m % (2 * r + 1) in allowed:
                naive = naive * TruncatedSeries(tuple(int(n % m == 0) for n in range(N + 1)))
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
    doubled = doubling_base_products(r, N)
    for ell in range(1, r + 1):
        got = base_product(r, ell, N).coeffs
        assert got == reference_base_product(r, ell, N), ell
        assert got == doubled[ell - 1], ell
        if N <= 25:
            assert got == tuple(count_modular(r, r - ell + 1, n) for n in range(N + 1)), ell


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 7), st.integers(0, 12), st.integers(0, 12), st.integers(0, 200))
@example(3, 0, 1, 200)  # padding 2 <= N: _tower climbs P times theta
@example(4, 2, 3, 150)
@example(2, 0, 9, 20)  # padding 45 > N: it climbs the theta series alone
@example(5, 3, 12, 20)
@example(5, 0, 12, 200)  # r = 5 and 7 at top = 12: the theta climb starts
@example(7, 12, 12, 200)  # 108 and 180 below the padded order
def test_packed_tower_equals_list_climb(r, lo, top, N):
    # both kernels, whichever side of _tower's rule (r, top, N) is on, hand
    # off every level of the range from one climb, each cut to order N
    lo, top = sorted((lo, top))
    levels = range(lo, top + 1)
    expected = reference_levels(r, top, N)
    fixed = _PackedLayout.for_counts(N, r)
    for kernel in (products._levels, products._theta_family):
        family = kernel(r, levels, N)
        assert len(family) == len(levels), kernel
        for g, (layout, entries) in zip(levels, family):
            assert (layout.order, layout.bits) == (N, fixed.bits), (kernel, g)
            want = [series.coeffs[: N + 1] for series in expected[g]]
            assert [layout.unpack(x) for x in entries] == want, (kernel, g)


class Reads(frozenset):
    """The entries of the level below that an entry reads: a difference
    reads both of its sides."""

    def __sub__(self, other):
        return Reads(self | other)


def test_climb_order_is_the_heaviest_division_path():
    # a backward pass over the index pattern ``_climb`` itself follows: the
    # order entry a of level g-1 needs is the most any entry s of level g
    # that reads it needs, plus the shift s divides by; every level handed
    # off needs order N
    for r in range(2, 13):
        for top in range(41):
            for lo in {0, top // 2, top}:
                for N in (0, 7, 60):
                    need = [N] * r
                    for g in range(top, 0, -1):
                        reads = []
                        _climb([Reads({a}) for a in range(r)], g, lambda x, k: reads.append((x, k)))
                        below = [N if g - 1 >= lo else 0] * r
                        for s, (entries, k) in enumerate(reads):
                            for a in entries:
                                below[a] = max(below[a], need[s] + k)
                        need = below
                    order = products._climb_order(r, top, N)
                    assert max(need) == order, (r, lo, top, N)
                    padded = products._padded_order(r, top, N)
                    assert order == padded if r == 2 else order <= padded, (r, top, N)


def test_theta_climb_starts_at_its_climb_order(monkeypatch):
    # verify-shift's cell: the theta series start at the heaviest path's
    # order, not at the padded order 2060
    thetas, orders = products._thetas, []

    def recorded(r, N):
        orders.append(N)
        return thetas(r, N)

    monkeypatch.setattr(products, "_thetas", recorded)
    products._theta_family(5, range(30, 31), 200)
    assert (orders, products._padded_order(5, 30, 200)) == ([1385], 2060)


@pytest.mark.parametrize("r,lo,top,N", [(3, 0, 3, 30), (5, 2, 6, 20)])
def test_kept_levels_are_the_levels_climbed_alone(tower_climbs, r, lo, top, N):
    # (3, 0..3, 30) climbs P times theta, (5, 2..6, 20) the theta series
    # alone; one climb to top hands off levels lo..top, each equal to the
    # level climbed on its own
    levels = range(lo, top + 1)
    handed = products._tower(r, levels, N)
    assert (tower_climbs, len(handed)) == ([(r, levels)], len(levels))
    for g, (layout, entries) in zip(levels, handed):
        [(cold, cold_entries)] = products._tower(r, range(g, g + 1), N)
        assert (layout.order, layout.bits, entries) == (cold.order, cold.bits, cold_entries), g


def test_level_entries_are_the_indexed_product_series(monkeypatch):
    # the expansion suite reads index (r-1)s + j as entry j of level s; for
    # j = 1 and s >= 1, ProductIndex reads it as entry r of level s-1
    theta = products._theta_family
    theta_levels = set()

    def recorded(r, levels, N):
        theta_levels.update((r, level, N) for level in levels)
        return theta(r, levels, N)

    monkeypatch.setattr(products, "_theta_family", recorded)
    for N in (0, 1, 40, 200):
        for r in range(2, 8):
            for s in range(6):
                assert N + (r - 1) * s * (s + 1) // 2 <= cli.MAX_PADDED_ORDER
                [(layout, entries)] = products._tower(r, range(s, s + 1), N)
                got = [layout.unpack(x) for x in entries]
                want = [product_series(ProductIndex(r, (r - 1) * s + j), N).coeffs for j in range(1, r + 1)]
                assert got == want, (r, s, N)
    # a level on the theta kernel whose entry 1 ProductIndex reads from a
    # level below on the other kernel; at N = 200 no level up to 5 pads by
    # more than 90, so every one climbs P times theta
    switches = {N for r, s, N in theta_levels if (r, s - 1, N) not in theta_levels}
    assert switches == {0, 1, 40}


@pytest.mark.parametrize("r,level,N", [(2, 3, 30), (3, 3, 30), (20, 0, 30), (5, 4, 20)])
def test_every_level_leaves_in_for_counts_slots(r, level, N):
    # the expansion suite compares levels with floors packed, so both
    # kernels hand off in the floors' slots: (2, 3, 30) and (3, 3, 30) climb
    # in 32-bit slots where for_counts(30, r) has 24, (20, 0, 30) in 24-bit
    # slots where it has 32; (5, 4, 20) climbs the theta series alone
    [(layout, entries)] = products._tower(r, range(level, level + 1), N)
    fixed = _PackedLayout.for_counts(N, r)
    assert (layout.order, layout.bits) == (N, fixed.bits)
    want = (product_series(ProductIndex(r, (r - 1) * level + j), N) for j in range(1, r + 1))
    assert entries == tuple(fixed.pack(series.coeffs) for series in want)


def coin_partition_numbers(N):
    p = [1] + [0] * N
    for m in range(1, N + 1):
        for n in range(m, N + 1):
            p[n] += p[n - m]
    return p


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 300))
def test_partition_numbers_equal_coin_dp(N):
    assert products._partition_numbers(N) == coin_partition_numbers(N)


def test_partition_numbers_known_values():
    p = products._partition_numbers(1000)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert p[100] == 190569292
    assert p[1000] == 24061467864032622473692149727991


def test_base_entries_come_from_unpadded_towers(monkeypatch):
    # every base entry and the product route's level 0 are read off a
    # level-0 tower, which computes P at the order itself, once per call
    numbers, orders = products._partition_numbers, []

    def counted(N):
        orders.append(N)
        return numbers(N)

    monkeypatch.setattr(products, "_partition_numbers", counted)
    r, N = 4, 30
    entries = [base_product(r, ell, N) for ell in range(1, r + 1)]
    assert product_series(ProductIndex(r, 2), N) == entries[1]
    assert orders == [N] * (r + 1)


def test_base_product_raises_when_a_slot_reaches_its_guard_bits(monkeypatch):
    # 8-bit slots hold at most 127 below one guard bit, fewer below more;
    # p(40) = 37338, so neither base_product nor the product route fits
    narrow = classmethod(lambda cls, order, r: cls(order, r, 8))
    monkeypatch.setattr(_PackedLayout, "for_counts", narrow)
    with pytest.raises(ArithmeticError):
        base_product(3, 2, 40)
    with pytest.raises(ArithmeticError):
        product_series(ProductIndex(3, 5), 40)
    # level 6 is padded by 42 > 40 and climbs theta alone; its entries
    # reach 76 in for_counts(40, 3) slots, and the division by
    # (q;q)_inf checks them before anything unpacks them
    with pytest.raises(ArithmeticError):
        products._tower(3, range(6, 7), 40)


def test_dropped_theta_term_blocks_a_division(capsys, monkeypatch):
    # without its first odd-n term, -q^2, entry 2's theta series leaves a 1
    # at q^0 after the level-1 climb that level 2 cannot divide by q^2; the
    # product route of a cell whose tower climbs theta alone (padding
    # 42 > 40) reports it
    exponents = products._theta_exponents

    def dropped(r, ell, N):
        even, odd = exponents(r, ell, N)
        return (even, odd[1:]) if ell == 2 else (even, odd)

    monkeypatch.setattr(products, "_theta_exponents", dropped)
    with pytest.raises(NonDivisibleError):
        products._theta_family(3, range(6, 7), 40)
    code = cli.main(["verify", "--r", "3", "--i", "2", "--J", "6", "--order", "40", "--format", "json"])
    routes = json.loads(capsys.readouterr().out)["routes"]
    assert code == 1
    assert routes["product"]["error"] == "NonDivisibleError: coefficient 1 at exponent 0 blocks division by q^2"
    assert [routes[name]["error"] for name in ("partition", "hilbert", "family")] == [None] * 3


def test_peel_raises_on_a_negative_slot():
    # peeling (1 - q) twice from 1/(1 - q) leaves 1 - q, negative at q^1
    layout = _PackedLayout.for_counts(6, 2)
    geometric = over_one_minus(layout, layout.one, 1)
    assert layout.unpack(geometric) == (1,) * 7
    one = times_one_minus(layout, geometric, 1)
    assert layout.unpack(one) == (1, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ArithmeticError):
        times_one_minus(layout, one, 1)


@pytest.mark.parametrize(
    "a,b",
    [
        ((0, 3, 1, 0, 2, 0), (0, 0, 0, 0, 0, 0)),
        ((0, 0, 5, 1, 2, 0), (0, 2, 1, 0, 0, 0)),
        ((0, 0, 0, 0, 0, 0), (4, 0, 1, 0, 0, 0)),
        ((0, 3, 0, 0, 0, 0), (0, 0, 0, 5, 0, 0)),
    ],
)
def test_climb_step_raises_on_a_nonzero_low_slot(a, b):
    # the message is the one TruncatedSeries.shift_div gives for the same
    # difference, a negative coefficient included, in the reversed slots of
    # ``_levels`` and in the balanced ascending slots of the theta climb,
    # where the last two differences are negative ints: one with a negative
    # lowest slot, one with a positive lowest slot below a negative one
    layout = _PackedLayout.for_counts(5, 2)
    diff = layout.pack(a) - layout.pack(b)
    with pytest.raises(NonDivisibleError) as listed:
        TruncatedSeries(tuple(x - y for x, y in zip(a, b))).shift_div(2)
    with pytest.raises(NonDivisibleError) as packed:
        _PackedLayout(3, 2, layout.bits).shift_div(diff, 2, layout)
    assert str(packed.value) == str(listed.value)
    balanced = sum(x - y << w * 8 for w, (x, y) in enumerate(zip(a, b)))
    with pytest.raises(NonDivisibleError) as theta:
        products._shift_div(balanced, 2, 8)
    assert str(theta.value) == str(listed.value)


def test_climb_step_divides_exactly():
    layout = _PackedLayout.for_counts(5, 2)
    diff = layout.pack((0, 0, 4, 1, 3, 2)) - layout.pack((0, 0, 1, 1, 0, 0))
    quotient = _PackedLayout(3, 2, layout.bits)
    assert quotient.unpack(quotient.shift_div(diff, 2, layout)) == (3, 0, 3, 2)
    level = _PackedLayout(1, 2, layout.bits)
    assert level.unpack(level.shift_div(diff, 2, layout)) == (3, 0)
    # the quotient has order 3 at most
    with pytest.raises(ValueError):
        layout.shift_div(diff, 2, layout)


@pytest.mark.parametrize(
    "a,b",
    [
        ((1, 0, 1, 0), (0, 1, 0, 0)),  # one negative slot, positive total
        ((0, 0, 0, 0), (0, 0, 0, 1)),  # negative total
        ((5, 0, 0, 0), (0, 0, 0, 7)),  # negative top slot only
    ],
)
def test_negative_difference_raises(a, b):
    layout = _PackedLayout.for_counts(3, 2)
    diff = layout.pack(a) - layout.pack(b)
    with pytest.raises(ArithmeticError):
        layout._check(diff)
    with pytest.raises(ArithmeticError):
        layout.shift_div(diff, 0, layout)


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
    assert first_mismatch(got, gordon_series(params, 30)) is None


@pytest.mark.parametrize(
    "r,i,J,N",
    [(2, 2, 0, 40), (2, 1, 2, 40), (3, 3, 1, 30), (4, 2, 2, 30), (5, 5, 3, 25)],
)
def test_identity_spot_instances(r, i, J, N):
    params = GordonParams(r, i, J)
    lhs = product_series(ProductIndex(r, params.product_index), N)
    assert first_mismatch(lhs, gordon_series(params, N)) is None


def tail_valuation_profile(r, d_max, N):
    """Valuations of (entry at index (r-1)(d+1)+1) - 1 for d = 1..d_max: the
    deep family tail converging q-adically to 1, read as each entry's first
    mismatch with 1. None, an infinite valuation, means the entry is 1 to
    order N."""
    one = TruncatedSeries((1,) + (0,) * N)
    deep = (product_series(ProductIndex(r, (r - 1) * (d + 1) + 1), N) for d in range(1, d_max + 1))
    return [first_mismatch(entry, one) for entry in deep]


def test_tail_valuation_profile_values():
    profile = tail_valuation_profile(2, 5, 20)
    assert profile[0] == 3  # entry for d=1
    assert profile == [3, 4, 5, 6, 7]


def test_tail_valuation_profile_reports_infinite_past_order():
    profile = tail_valuation_profile(2, 8, 5)
    assert profile[:3] == [3, 4, 5]
    assert all(v is None for v in profile[4:])


@pytest.mark.parametrize("r,N", [(2, 30), (3, 24), (4, 18), (5, 14)])
def test_tail_converges_to_one(r, N):
    """Deep entries are 1 to order N somewhere within d <= N + 2."""
    profile = tail_valuation_profile(r, N + 2, N)
    assert any(v is None for v in profile)
    finite = [v for v in profile if v is not None]
    assert finite == sorted(finite)
    # once the tail reaches 1 it stays there
    first_inf = profile.index(None)
    assert all(v is None for v in profile[first_inf:])


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
    assert product_series(idx, N).coeffs == product_series(idx, N + extra).coeffs[: N + 1]
