import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrgordon.qseries import INFINITE, NonDivisibleError, TruncatedSeries, first_mismatch

S = TruncatedSeries.from_coeffs


def test_one():
    assert TruncatedSeries.one(0).coeffs == (1,)
    assert TruncatedSeries.one(2).coeffs == (1, 0, 0)
    assert TruncatedSeries.one(5).coeffs == (1, 0, 0, 0, 0, 0)


def test_add_sub():
    assert (S([1, 1]) + S([1, 0])).coeffs == (2, 1)
    assert (S([1, 1, 1]) - S([1, 1, 1])).coeffs == (0, 0, 0)
    # mixed orders truncate to the minimum
    assert (S([1, 2, 3]) + S([0, 0])).coeffs == (1, 2)


def test_mul():
    assert (S([1, 1, 0]) * S([1, 1, 0])).coeffs == (1, 2, 1)
    a = S([3, 1, 4, 1, 5])
    assert (a * TruncatedSeries.one(4)).coeffs == a.coeffs
    assert (S([1, -1, 0, 0]) * S([1, 1, 1, 1])).coeffs == (1, 0, 0, 0)


def test_shift_div():
    assert S([0, 0, 1, 1]).shift_div(2).coeffs == (1, 1)
    with pytest.raises(NonDivisibleError):
        S([1, 1]).shift_div(1)
    a = S([0, 2, 5])
    assert a.shift_div(0).coeffs == a.coeffs
    with pytest.raises(ValueError):
        a.shift_div(3)


def test_valuation():
    assert S([0, 0, 3, 1]).valuation() == 2
    assert S([0, 0, 0]).valuation() == INFINITE
    assert S([5]).valuation() == 0
    assert INFINITE > 10**100


def test_eq_truncates_to_min_order():
    assert S([1, 2, 3]).eq(S([1, 2, 3]))
    assert S([1, 2, 3, 9]).eq(S([1, 2, 3]))
    assert not S([1, 2]).eq(S([1, 3]))


def test_first_mismatch():
    assert first_mismatch(S([1, 2, 3, 9]), S([1, 2, 3])) is None
    assert first_mismatch(S([1, 2, 4]), S([1, 2, 3])) == 2


def test_mul_qpow():
    assert S([1, 2, 3]).mul_qpow(1).coeffs == (0, 1, 2)
    assert S([1, 2, 3]).mul_qpow(0).coeffs == (1, 2, 3)
    assert S([1, 2, 3]).mul_qpow(5).coeffs == (0, 0, 0)


def monomial(exponent, order):
    """q^exponent to ``order`` (zero if exponent > order), written out."""
    return S([int(n == exponent) for n in range(order + 1)])


def test_monomial_and_truncate():
    assert TruncatedSeries.one(4).mul_qpow(2) == monomial(2, 4)
    assert TruncatedSeries.one(4).mul_qpow(9) == monomial(9, 4)
    assert S([1, 2, 3]).truncate(1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        S([1]).truncate(3)


def test_construction_guards():
    with pytest.raises(ValueError):
        TruncatedSeries(())
    with pytest.raises(TypeError):
        TruncatedSeries((1.5, 2))


def test_json_round_trip_with_big_coefficients():
    big = 10**40 + 7
    a = S([1, -big, 0, big])
    obj = a.as_json_dict()
    assert obj == {"order": 3, "coeffs": ["1", str(-big), "0", str(big)]}
    assert TruncatedSeries.from_json_dict(obj) == a
    with pytest.raises(ValueError):
        TruncatedSeries.from_json_dict({"order": 5, "coeffs": ["1"]})


def test_fingerprint_distinguishes():
    assert S([1, 2]).fingerprint() == S([1, 2]).fingerprint()
    assert S([1, 2]).fingerprint() != S([1, 3]).fingerprint()


# -- algebraic properties ------------------------------------------------

series = st.builds(
    S, st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=10)
)


@settings(deadline=None)
@given(series, series)
def test_add_commutes(a, b):
    assert (a + b).coeffs == (b + a).coeffs


@settings(deadline=None)
@given(series, series)
def test_mul_commutes(a, b):
    assert (a * b).coeffs == (b * a).coeffs


@settings(deadline=None)
@given(series, series, series)
def test_mul_associates_and_distributes(a, b, c):
    assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs


@settings(deadline=None)
@given(series)
def test_one_is_identity(a):
    assert (a * TruncatedSeries.one(a.order)).coeffs == a.coeffs


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=24))
def test_geometric_series_inverts_binomial(m, N):
    inv = S([int(n % m == 0) for n in range(N + 1)])
    binom = TruncatedSeries.one(N) - monomial(m, N)
    assert (inv * binom).coeffs == TruncatedSeries.one(N).coeffs


@settings(deadline=None)
@given(series, st.integers(min_value=0, max_value=9))
def test_shift_div_undoes_monomial_multiplication(a, k):
    shifted = monomial(k, a.order + k) * TruncatedSeries(
        a.coeffs + (0,) * k
    )
    assert shifted.shift_div(k).coeffs == a.coeffs


@settings(deadline=None)
@given(series, series)
def test_valuation_superadditive_under_mul(a, b):
    va, vb = a.valuation(), b.valuation()
    prod = a * b
    if va + vb <= prod.order:
        assert prod.valuation() >= va + vb
