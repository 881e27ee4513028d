from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modular import allowed_residues, count_modular
from rrgordon.partitions import (
    GordonParams,
    Partition,
    enumerate_gordon,
    gordon_series,
    iter_partitions,
    satisfies_gordon,
)

P = Partition


def test_params_validation_and_derived():
    p = GordonParams(3, 2, 1)
    assert p.ell == 2
    assert p.ell + p.i == p.r + 1
    assert p.product_index == 4
    with pytest.raises(ValueError):
        GordonParams(1, 1, 0)
    with pytest.raises(ValueError):
        GordonParams(3, 4, 0)
    with pytest.raises(ValueError):
        GordonParams(3, 0, 0)
    with pytest.raises(ValueError):
        GordonParams(3, 2, -1)


def test_partition_validation():
    assert P((3, 1)).parts == (3, 1) and P(()).parts == ()
    with pytest.raises(ValueError):
        P((1, 2))
    with pytest.raises(ValueError):
        P((2, 0))


def test_iter_partitions_counts():
    # p(0)..p(10)
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, want in enumerate(expected):
        assert sum(1 for _ in iter_partitions(n)) == want
    assert list(iter_partitions(4, min_part=2)) == [(4,), (2, 2)]


def test_satisfies_gordon():
    assert satisfies_gordon(P((3, 1)), GordonParams(2, 2, 0))
    assert not satisfies_gordon(P((2, 2)), GordonParams(2, 2, 0))
    # three parts equal to J+1 = 2 exceed the cap i-1 = 1
    assert not satisfies_gordon(P((2, 2, 2)), GordonParams(3, 2, 1))
    # the empty partition always qualifies
    assert satisfies_gordon(P(()), GordonParams(4, 1, 3))


def test_enumerate_gordon():
    got = enumerate_gordon(GordonParams(2, 2, 0), 4)
    assert [p.parts for p in got] == [(4,), (3, 1)]
    assert [p.parts for p in enumerate_gordon(GordonParams(2, 2, 0), 0)] == [()]
    got = enumerate_gordon(GordonParams(3, 2, 1), 6)
    assert [p.parts for p in got] == [(6,), (4, 2), (3, 3)]


def test_enumerate_ordering_is_lex_decreasing():
    got = [p.parts for p in enumerate_gordon(GordonParams(3, 3, 0), 7)]
    assert got == sorted(got, reverse=True)


def test_gordon_series_frozen_values():
    assert gordon_series(GordonParams(2, 2, 0), 5).coeffs == (1, 1, 1, 1, 2, 2)
    assert gordon_series(GordonParams(2, 1, 0), 5).coeffs == (1, 0, 1, 1, 1, 1)
    assert gordon_series(GordonParams(2, 1, 1), 5).coeffs == (1, 0, 0, 1, 1, 1)
    assert gordon_series(GordonParams(4, 2, 3), 0).coeffs == (1,)


def test_count_modular():
    assert count_modular(2, 2, 4) == 2  # (4) and (1,1,1,1)
    assert count_modular(2, 1, 4) == 1  # (2,2)
    assert count_modular(5, 4, 0) == 1
    with pytest.raises(ValueError):
        count_modular(1, 1, 3)
    with pytest.raises(ValueError):
        count_modular(3, 5, 3)


def test_allowed_residues():
    assert allowed_residues(2, 2) == {1, 4}
    assert allowed_residues(2, 1) == {2, 3}
    assert allowed_residues(3, 3) == {1, 2, 5, 6}


@pytest.mark.parametrize("r", [2, 3, 4])
def test_count_agrees_with_enumeration(r):
    for i in range(1, r + 1):
        for J in range(3):
            params = GordonParams(r, i, J)
            counts = gordon_series(params, 12).coeffs
            for n in range(13):
                assert counts[n] == len(enumerate_gordon(params, n)), (params, n)


def test_count_monotone_in_i():
    for r in (2, 3, 4):
        for J in (0, 1):
            for i in range(1, r):
                lo = gordon_series(GordonParams(r, i, J), 15).coeffs
                hi = gordon_series(GordonParams(r, i + 1, J), 15).coeffs
                assert all(a <= b for a, b in zip(lo, hi))


def test_count_non_increasing_in_shift():
    for r in (2, 3):
        for i in range(1, r + 1):
            for J in (1, 2):
                newer = gordon_series(GordonParams(r, i, J), 15).coeffs
                older = gordon_series(GordonParams(r, i, J - 1), 15).coeffs
                assert all(a <= b for a, b in zip(newer, older))


def test_modular_equals_gap_counts_small():
    for r in (2, 3, 4):
        for i in range(1, r + 1):
            counts = gordon_series(GordonParams(r, i, 0), 25).coeffs
            for n in range(26):
                assert count_modular(r, i, n) == counts[n], (r, i, n)


# -- the multiplicity reformulation underpinning the DP --------------------


def gap_condition(parts, r):
    span = r - 1
    return all(parts[m] - parts[m + span] >= 2 for m in range(len(parts) - span))


def adjacent_multiplicity_condition(parts, r):
    freq = Counter(parts)
    values = set(freq) | {v - 1 for v in freq}
    return all(freq[a] + freq[a + 1] <= r - 1 for a in values)


@settings(deadline=None, max_examples=300)
@given(
    st.integers(min_value=2, max_value=5),
    st.lists(st.integers(min_value=1, max_value=12), min_size=0, max_size=9),
)
def test_gap_condition_equals_adjacent_multiplicity_bound(r, raw_parts):
    parts = tuple(sorted(raw_parts, reverse=True))
    assert gap_condition(parts, r) == adjacent_multiplicity_condition(parts, r)
