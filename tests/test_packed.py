"""The packed step kernel against list-based references and the oracles.

``reference_adjacent_capped_counts`` is the list-of-lists multiplicity DP the
package used before the kernel was packed; it stays here as the reference
that ``fixed_scan``, one ``step`` per value in fixed slots from the unit
vectors e_ell, and ``_growing_scan``, which sums the values above half the
order in closed form, must reproduce exactly, in both directions.
``reference_family_init`` builds the initial family from monomials written
out as coefficient tuples, as the package did before the family walk became
the DP's scan, so the literal walk starts from code not under test.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrgordon import cli, families, hilbert, partitions
from rrgordon.families import (
    CoefficientFamily,
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
    enumerate_gordon,
    gordon_series,
)
from rrgordon.products import base_product
from rrgordon.qseries import NonDivisibleError, TruncatedSeries, _PackedLayout, first_mismatch


def reference_adjacent_capped_counts(r, values, cap, N):
    """State (multiplicity of the previously scanned value, weight); the
    first scanned value occurs at most ``cap`` times."""
    dp = [[0] * (N + 1) for _ in range(r)]
    dp[0][0] = 1
    for n, a in enumerate(values):
        new = [[0] * (N + 1) for _ in range(r)]
        for prev, row in enumerate(dp):
            bound = min(r - 1 - prev, cap) if n == 0 else r - 1 - prev
            for w, ways in enumerate(row):
                if ways:
                    for f in range(min(bound, (N - w) // a) + 1):
                        new[f][w + a * f] += ways
        dp = new
    return [sum(column) for column in zip(*dp)]


def fixed_scan(layout, values, *ells):
    """The states of ``_growing_scan`` over ``values``, stepped in the fixed
    slots of ``layout``, one lane per start, lane k from the unit vector
    e_(ells[k])."""
    state = [0] * max(ells)
    for k, ell in enumerate(ells):
        state[ell - 1] += layout.one << k * layout.bits
    for a in values:
        state = layout.step(state, a)
    return state


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_packed_dp_equals_list_dp(data):
    # from e_ell the first scanned value, values[0], occurs at most r-ell times
    r = data.draw(st.integers(2, 6))
    N = data.draw(st.integers(0, 150))
    lo = data.draw(st.integers(1, 12))
    ell = data.draw(st.integers(1, r))
    ascending = data.draw(st.booleans())
    values = range(lo, N + 1) if ascending else range(N, lo - 1, -1)
    want = reference_adjacent_capped_counts(r, values, r - ell, N)
    layout = _PackedLayout.for_counts(N, r)
    assert list(layout.unpack(sum(fixed_scan(layout, values, ell)))) == want


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


def reference_family_init(params, N):
    """Stage J+1 family: entry j is the monomial q^((J+1)(j-1)) up to the
    product side's prefix length r - ell + 1, zero beyond it; the walk keeps
    a prefix of i entries."""
    r, J = params.r, params.J
    prefix = r - params.ell + 1
    entries = tuple(
        monomial((J + 1) * (j - 1), N) if j <= prefix else TruncatedSeries((0,) * (N + 1))
        for j in range(1, r + 1)
    )
    return CoefficientFamily(params, stage=J + 1, entries=entries)


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 7), st.data(), st.integers(0, 5), st.integers(0, 40))
def test_family_init_equals_list_monomials(r, data, J, N):
    params = GordonParams(r, data.draw(st.integers(1, r)), J)
    assert family_at_stage(params, params.J + 1, N) == reference_family_init(params, N)


def literal_family_limit(params, N):
    """Entry 1 at the stabilization bound J + N + 2, stepping by the
    definition: entry j becomes (e_1 + ... + e_(r-j+1)) * q^(d(j-1))."""
    r = params.r
    entries = reference_family_init(params, N).entries
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
    assert family_limit(None, params, N) == literal_family_limit(params, N)


@settings(deadline=None, max_examples=40)
@given(st.integers(2, 6), st.data(), st.integers(0, 4), st.integers(0, 40))
def test_packed_ladder_agrees_with_valuation(r, data, J, N):
    params = GordonParams(r, data.draw(st.integers(1, r)), J)
    layout, stages = families._walk(r, J, N, J + N + 2, params.ell)
    zero = TruncatedSeries((0,) * (N + 1))
    for stage, state in stages:
        # each entry also divided by q, one slot short, as a broken step
        # would leave it
        short = [layout.pack(layout.unpack(x)[1:] + (0,)) for x in state]
        for entries in (state, short):
            fam = families._family(params, stage, layout, entries)
            # the first mismatch with zero is the valuation; None is zero
            vals = [first_mismatch(e, zero) for e in fam.entries]
            want = all(v is None or v >= stage * (j - 1) for j, v in enumerate(vals, start=1))
            assert families._on_ladder(layout, stage, entries) == want, (stage, entries)


def one_slot_short(layout, x):
    """x divided by q in every lane, its q^0 slot dropped, as a broken step
    would leave an entry."""
    return (x << layout._slot) & ((1 << (layout.order + 1) * layout._slot) - 1)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_lane_walks_equal_one_lane_walks_and_their_ladder(data):
    # every lane of a suite walk, from its own e_ell, steps as that cell's
    # one-lane walk, and the ladder read once over all the lanes holds
    # exactly where every lane's entry j has valuation at least d(j-1),
    # read from its unpacked coefficients, also for entries one slot short
    r = data.draw(st.integers(2, 6))
    ells = data.draw(st.lists(st.integers(1, r), min_size=1, max_size=r, unique=True))
    J, N = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 30))
    end = data.draw(st.integers(J + 1, J + N + 3))
    one = _PackedLayout.for_counts(N, r)
    layout, stages = families._walk(r, J, N, end, *ells)
    singles = [list(families._walk(r, J, N, end, ell)[1]) for ell in ells]
    assert (layout.bits, layout.lanes) == (one.bits, len(ells))
    zero = TruncatedSeries((0,) * (N + 1))
    laned = list(stages)
    assert [d for d, _ in laned] == list(range(J + 1, min(end, J + N + 2) + 1))
    for (d, state), *walks in zip(laned, *singles):
        lanes = [one.unlace(x, layout) for x in state]
        for k, (_, single) in enumerate(walks):
            assert [lane[k] for lane in lanes] == single + [0] * (len(state) - len(single))
        for entries in (state, [one_slot_short(layout, x) for x in state]):
            # the first mismatch with zero is the valuation; None is zero
            vals = [[first_mismatch(TruncatedSeries(one.unpack(y)), zero) for y in one.unlace(x, layout)] for x in entries]
            want = all(v is None or v >= d * j for j, lane_vals in enumerate(vals) for v in lane_vals)
            assert families._on_ladder(layout, d, entries) == want, (d, entries)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_three_lane_valuation_and_shift_read_every_lane(data):
    # a laned int has valuation at least v when every lane has, and times
    # q^s it is every lane times q^s: both move whole slots of three lanes
    N, r = data.draw(st.integers(0, 12)), data.draw(st.integers(2, 5))
    one = _PackedLayout.for_counts(N, r)
    laced = _PackedLayout(N, r, one.bits, 3)
    coeff = st.integers(0, (1 << one.bits - (r - 1).bit_length()) - 1)
    lanes = []
    for _ in range(3):
        low = data.draw(st.integers(0, N + 1))
        lanes.append((0,) * low + tuple(data.draw(st.lists(coeff, min_size=N + 1 - low, max_size=N + 1 - low))))
    x = sum(c << ((N - n) * 3 + k) * one.bits for k, lane in enumerate(lanes) for n, c in enumerate(lane))
    packed = [one.pack(lane) for lane in lanes]
    assert one.unlace(x, laced) == packed
    for v in range(N + 3):
        assert laced._has_valuation(x, v) == all(one._has_valuation(y, v) for y in packed), v
    s = data.draw(st.integers(0, N + 2))
    assert one.unlace(laced._times_q(x, s), laced) == [one._times_q(y, s) for y in packed]


@pytest.mark.parametrize(
    "call",
    [
        lambda: gordon_series(GordonParams(3, 2, 1), -1),
        lambda: hp_series(QuotientSpec(3, 2, cap=2), -1),
        lambda: family_limit(None, GordonParams(3, 2, 1), -1),
        lambda: family_at_stage(GordonParams(3, 2, 1), 3, -1),
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
    assert layout.step([half], 1) == [half, layout.pack((0, 63, 0, 0)), layout.pack((0, 0, 63, 0))]
    with pytest.raises(ArithmeticError):
        layout.step([half, half], 1)
    for bad in ((64, 0, 0, 0), (0, -1, 0, 0)):
        with pytest.raises(ArithmeticError):
            layout.pack(bad)


def test_step_from_e_ell_keeps_i_states():
    # the cap "at most i-1 parts equal J+1" is the start e_ell, ell = r-i+1,
    # not a rule of step: the step at J+1 leaves q^((J+1)(j-1)) in states
    # j = 1..i and zero in every state after them
    N = 30
    for r in range(2, 7):
        layout = _PackedLayout.for_counts(N, r)
        for ell in range(1, r + 1):
            i = r - ell + 1
            for J in range(4):
                state = layout.step([0] * (ell - 1) + [layout.one], J + 1)
                assert [layout.unpack(x) for x in state[:i]] == [
                    monomial((J + 1) * (j - 1), N).coeffs for j in range(1, i + 1)
                ], (r, ell, J)
                assert not any(state[i:]), (r, ell, J)


def test_guard_error_stays_in_route_report(capsys, monkeypatch):
    # every route packs its series, the product route its whole tower;
    # each command computes its own, so no result from wider slots hides them
    narrow = classmethod(lambda cls, order, r: cls(order, r, 8))
    monkeypatch.setattr(_PackedLayout, "for_counts", narrow)
    argv = ["verify", "--r", "3", "--i", "2", "--J", "0", "--order", "40", "--format", "json"]
    code = cli.main(argv)
    routes = json.loads(capsys.readouterr().out)["routes"]
    assert code == 1
    for name in ("product", "partition", "hilbert", "family"):
        assert routes[name]["error"].startswith("ArithmeticError: "), name


def test_floor_checks_the_caps_it_keeps(monkeypatch):
    # in 8-bit slots at r=3, N=17 every step's input total clears the guard
    # bits, but the floor's uncapped series does not: only the check the
    # floor makes before it hands off its caps can see that
    narrow = classmethod(lambda cls, order, r: cls(order, r, 8))
    monkeypatch.setattr(_PackedLayout, "for_counts", narrow)
    hilbert._floor(3, 1, 16)
    with pytest.raises(ArithmeticError):
        hilbert._floor(3, 1, 17)


@pytest.mark.parametrize("slot_bits", [32, 0])
def test_growing_scan_equals_fixed_scan_at_every_edge(monkeypatch, slot_bits):
    # the values above N/2 are summed in closed form (_above_half): at the
    # end of an ascending scan to N, which steps J+1..max(J, N/2) first or,
    # past N, only J+1, and at the start of a descending one from N, which
    # starts at max(N/2 + 1, its last value); every first value of both at
    # orders 0..20, in fixed slots and from one-byte ones, and lanes from
    # e_r, which caps the first value at 0 parts, alone and beside e_1
    monkeypatch.setattr(partitions, "_FIXED_SLOT_BITS", slot_bits)
    for r in range(2, 6):
        for N in range(21):
            bits = _PackedLayout.for_counts(N, r).bits
            for first in range(1, N + 3):
                for values in (range(first, max(N, first) + 1), range(N, first - 1, -1)):
                    for ells in ((1,), (r,), (r, 1)):
                        fixed = _PackedLayout(N, r, bits, len(ells))
                        layout, state = partitions._growing_scan(r, N, values, *ells)
                        assert (layout.bits, layout.lanes) == (bits, len(ells))
                        assert state == fixed_scan(fixed, values, *ells), (r, N, values, ells)


@pytest.mark.parametrize("a,b", [(2, 127), (1, 0)], ids=["doubling", "tail-sum"])
def test_closed_form_sums_raise_at_the_guard_bits(a, b):
    # r = 2 and N = 5 in 8-bit slots, 7 value bits: the values 3..5 sum
    # q^4 T + q^5 T onto T + q^3 P, here with P = 0 and a checked T = a +
    # b q + 127 q^5. With a + b = 129 the doubling's q^5 slot reaches the
    # guard bits, and the last sum's 127 more carry out of it and clear them
    # again, so only the doubling's own check sees it; with a + b = 1 only
    # the last sum's q^5 slot, 128, reaches them
    layout = _PackedLayout(5, 2, 8)
    state = [0, layout.pack((a, b, 0, 0, 0, 127))]
    with pytest.raises(ArithmeticError):
        partitions._above_half(layout, state, range(3, 6))


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_growing_scan_equals_list_dp_and_fixed_slots(data):
    # every scan starts in one-byte slots here; the counts to order 250 need
    # up to about 40 bits, so a long scan widens three or four times before
    # it hands its states off in for_counts slots
    r = data.draw(st.integers(2, 6))
    N = data.draw(st.one_of(st.integers(0, 40), st.integers(150, 250)))
    lo = data.draw(st.integers(1, 12))
    ell = data.draw(st.integers(1, r))
    ascending = data.draw(st.booleans())
    values = range(lo, N + 1) if ascending else range(N, lo - 1, -1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partitions, "_FIXED_SLOT_BITS", 0)
        layout, state = partitions._growing_scan(r, N, values, ell)
    fixed = _PackedLayout.for_counts(N, r)
    assert layout.bits == fixed.bits
    assert state == fixed_scan(fixed, values, ell)
    assert list(layout.unpack(sum(state))) == reference_adjacent_capped_counts(r, values, r - ell, N)


@pytest.mark.parametrize("budget", ["default", "one-lane"])
@settings(deadline=None, max_examples=12)
@given(data=st.data())
def test_lane_scans_equal_one_lane_scans_and_list_dp(budget, data):
    # every lane of one ascending scan of J+1..max(N, J+1), from its own
    # e_ell, in one-byte slots that widen up to for_counts slots, against
    # the one-lane scan from that e_ell and the list DP; the partition
    # series and family limit each lane hands off, in one pass of all the
    # lanes or, with the budget down to one lane, in one pass per lane
    r = data.draw(st.integers(2, 8))
    ells = data.draw(st.lists(st.integers(1, r), min_size=1, max_size=r, unique=True))
    J = data.draw(st.integers(0, 4))
    N = data.draw(st.one_of(st.integers(0, 60), st.integers(200, 300)))
    values = range(J + 1, max(N, J + 1) + 1)
    one = _PackedLayout.for_counts(N, r)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(partitions, "_FIXED_SLOT_BITS", 0)
        if budget == "one-lane":
            patch.setattr(partitions, "_LANE_BYTES", 1)
        layout, state = partitions._growing_scan(r, N, values, *ells)
        singles = [partitions._growing_scan(r, N, values, ell)[1] for ell in ells]
        sides = partitions._lane_scans(r, J, ells, N)
    assert (layout.bits, layout.lanes) == (one.bits, len(ells))
    lanes = list(zip(*(one.unlace(x, layout) for x in state)))
    assert [list(lane) for lane in lanes] == singles
    for ell, single, (partition, family) in zip(ells, singles, sides):
        want = reference_adjacent_capped_counts(r, values, r - ell, N)
        assert list(one.unpack(sum(single))) == want
        assert partition.layout.bits == family.layout.bits == one.bits
        assert partition.packed == family.packed == sum(single)


def test_packed_routes_equal_oracles_from_narrow_starts(monkeypatch):
    # the same routes against the same oracles, with every scan starting in
    # one-byte slots and widening to its 24-bit for_counts slots
    monkeypatch.setattr(partitions, "_FIXED_SLOT_BITS", 0)
    test_packed_routes_equal_oracles()


def test_floor_above_the_order_is_one(monkeypatch):
    # no variable of weight at most N lies at or above k, so every cap is 1,
    # in the for_counts slots a narrow start hands off
    monkeypatch.setattr(partitions, "_FIXED_SLOT_BITS", 0)
    layout, caps = hilbert._floor(3, 12, 10)
    assert layout.bits == _PackedLayout.for_counts(10, 3).bits
    assert caps == (layout.one,) * 3


def test_growing_scans_stop_at_for_counts(capsys, monkeypatch):
    # in 32-bit for_counts slots at r = 3, 30 value bits, the 32-bit counts
    # at order 200 outgrow the ceiling: scans that start in one byte widen
    # up to it and no further, and the guard error reaches the route report
    # (a scan grown past them would fail only at its hand-off, which may
    # narrow, so the widths that step are recorded too)
    narrow = classmethod(lambda cls, order, r: cls(order, r, 32))
    monkeypatch.setattr(_PackedLayout, "for_counts", narrow)
    monkeypatch.setattr(partitions, "_FIXED_SLOT_BITS", 0)
    widths, step = set(), _PackedLayout.step

    def recorded(self, state, u):
        widths.add(self.bits)
        return step(self, state, u)

    monkeypatch.setattr(_PackedLayout, "step", recorded)
    argv = ["verify", "--r", "3", "--i", "2", "--J", "0", "--order", "200", "--format", "json"]
    code = cli.main(argv)
    routes = json.loads(capsys.readouterr().out)["routes"]
    assert code == 1
    for name in ("partition", "hilbert", "family"):
        assert routes[name]["error"].startswith("ArithmeticError: "), name
    assert max(widths) == 32


def test_unpack_round_trips():
    layout = _PackedLayout.for_counts(5, 2)
    coeffs = (1, 0, 3, 255, 0, 7)
    assert layout.unpack(layout.pack(coeffs)) == coeffs
    assert TruncatedSeries(layout.unpack(layout.one)) == monomial(0, 5)


def series_lists(data, count, order, top):
    """``count`` coefficient tuples of the given order below ``top``, often
    small, so that sums, zeros and low-degree tails come up."""
    coeff = st.one_of(st.integers(0, 3), st.integers(0, top - 1))
    return [tuple(data.draw(st.lists(coeff, min_size=order + 1, max_size=order + 1))) for _ in range(count)]


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_packed_primitives_mean_what_the_list_series_do(data):
    # the slot order is pinned by meaning only: each primitive against the
    # TruncatedSeries operation it stands for
    N, r = data.draw(st.integers(0, 30)), data.draw(st.integers(2, 6))
    layout = _PackedLayout.for_counts(N, r)
    v = layout.bits - (r - 1).bit_length()
    # r states below 2^v / r sum to less than 2^v, so step never trips
    states = series_lists(data, data.draw(st.integers(1, r)), N, max((1 << v) // r, 1))
    packed = [layout.pack(c) for c in states]
    assert [layout.unpack(x) for x in packed] == states
    assert layout.one == layout.pack(monomial(0, N).coeffs)
    s = data.draw(st.integers(0, N + 2))
    assert layout.unpack(layout._times_q(packed[0], s)) == TruncatedSeries(states[0]).mul_qpow(s).coeffs
    # step: new entry j is q^(u(j-1)) times the sum of entries 1..r-j+1
    u = data.draw(st.integers(1, N + 2))
    series = [TruncatedSeries(c) for c in states] + [TruncatedSeries((0,) * (N + 1))] * (r - len(states))
    want = [sum(series[1 : r - j + 1], series[0]).mul_qpow(u * (j - 1)).coeffs for j in range(1, r + 1)]
    got = [layout.unpack(x) for x in layout.step(packed, u)]
    assert got + [(0,) * (N + 1)] * (r - len(got)) == want


@settings(deadline=None, max_examples=120)
@given(st.data())
def test_packed_shift_div_means_the_list_shift_div(data):
    # a difference of two checked series at a source order M >= N + k,
    # divided by q^k and kept to order N
    N, r = data.draw(st.integers(0, 20)), data.draw(st.integers(2, 6))
    k, extra = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 4))
    layout = _PackedLayout.for_counts(N, r)
    src = _PackedLayout(N + k + extra, r, layout.bits)
    a, b = series_lists(data, 2, src.order, 1 << layout.bits - (r - 1).bit_length())
    # b agrees with a at the positions drawn, so the difference has zeros
    same = data.draw(st.lists(st.booleans(), min_size=src.order + 1, max_size=src.order + 1))
    b = tuple(x if eq else y for x, y, eq in zip(a, b, same))
    diff = TruncatedSeries(tuple(x - y for x, y in zip(a, b)))
    x = src.pack(a) - src.pack(b)
    try:
        want = diff.shift_div(k).coeffs[: N + 1]
    except NonDivisibleError as listed:
        with pytest.raises(NonDivisibleError) as packed:
            layout.shift_div(x, k, src)
        assert str(packed.value) == str(listed)
        return
    if min(want) < 0:
        with pytest.raises(ArithmeticError) as packed:
            layout.shift_div(x, k, src)
        assert not isinstance(packed.value, NonDivisibleError)
    else:
        assert layout.unpack(layout.shift_div(x, k, src)) == want


@pytest.mark.parametrize(
    "a,b,want",
    [
        # q^1 is 1 and q^2 is -1: the negative slot borrows from the q^1
        # slot, which a test of the raw top bits would read as zero
        ((0, 1, 0, 0, 0), (0, 0, 1, 0, 0), "coefficient 1 at exponent 1 blocks division by q^2"),
        ((0, 0, 0, 0, 0), (0, 1, 0, 0, 5), "coefficient -1 at exponent 1 blocks division by q^2"),
        # divisible, but the kept q^0 of the quotient is -1
        ((0, 0, 0, 0, 0), (0, 0, 1, 0, 0), ArithmeticError),
        # divisible; only the dropped q^4 is negative, and its borrow must
        # not reach the kept slots
        ((0, 0, 3, 2, 0), (0, 0, 0, 0, 1), (3, 2)),
        ((0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0)),
    ],
)
def test_packed_shift_div_reads_past_borrows(a, b, want):
    src = _PackedLayout.for_counts(4, 2)
    layout = _PackedLayout(1, 2, src.bits)
    x = src.pack(a) - src.pack(b)
    if isinstance(want, str):
        with pytest.raises(NonDivisibleError) as raised:
            layout.shift_div(x, 2, src)
        assert str(raised.value) == want
    elif want is ArithmeticError:
        with pytest.raises(ArithmeticError, match="guard bits"):
            layout.shift_div(x, 2, src)
    else:
        assert layout.unpack(layout.shift_div(x, 2, src)) == want


def raw(layout, coeffs):
    """Coefficients laid in the layout's slots with no check at all: each
    q^w in turn, from the top slot down."""
    return int.from_bytes(b"".join(c.to_bytes(layout.bits // 8, "big") for c in coeffs), "big")


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_reslot_widens_exactly_and_checks_the_guard_bits(data):
    N, r = data.draw(st.integers(0, 40)), data.draw(st.integers(2, 12))
    narrow = _PackedLayout.for_counts(N, r)
    wide = _PackedLayout(N, r, narrow.bits + 8 * data.draw(st.integers(1, 4)))
    v = narrow.bits - (r - 1).bit_length()
    coeffs = tuple(data.draw(st.lists(st.integers(0, (1 << v) - 1), min_size=N + 1, max_size=N + 1)))
    x = narrow.pack(coeffs)
    # widening keeps every coefficient; slots of equal width move unchanged
    y = wide.reslot(x, narrow)
    assert wide.unpack(y) == coeffs
    assert wide.reslot(y, wide) == y == wide.pack(coeffs)
    # so does a narrowing whose dropped bytes are all zero
    assert narrow.reslot(y, wide) == x
    # a kept slot at the target's guard bits
    n = data.draw(st.integers(0, N))
    big = coeffs[:n] + (data.draw(st.integers(1 << v, (1 << narrow.bits) - 1)),) + coeffs[n + 1 :]
    with pytest.raises(ArithmeticError):
        narrow.reslot(raw(wide, big), wide)


def test_reslot_refuses_a_value_past_the_source_slots():
    # a value with a bit above the source's top slot, or a negative one, is
    # no series of that layout
    narrow = _PackedLayout.for_counts(10, 3)
    wide = _PackedLayout(10, 3, narrow.bits + 8)
    for x in (narrow.one << narrow.bits, -narrow.one):
        with pytest.raises(ArithmeticError, match="does not fit 11 slots of"):
            wide.reslot(x, narrow)


def test_reslot_refuses_a_wider_source():
    # a wider source narrows only if every byte it drops is zero: here the
    # kept bytes are all zero and would pass the guard check, but the q^0
    # slot holds 2^B; a source of another order is refused
    narrow = _PackedLayout.for_counts(10, 3)
    wide = _PackedLayout(10, 3, narrow.bits + 8)
    x = raw(wide, (1 << narrow.bits,) + (0,) * 10)
    with pytest.raises(ArithmeticError, match=f"does not fit 11 slots of {narrow.bits} bits"):
        narrow.reslot(x, wide)
    other = _PackedLayout.for_counts(9, 3)
    with pytest.raises(ValueError, match="cannot reslot"):
        narrow.reslot(other.one, other)
