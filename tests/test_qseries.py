import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrgordon.qseries import NonDivisibleError, TruncatedSeries, first_mismatch

T = TruncatedSeries


def monomial(exponent, order):
    """q^exponent to ``order`` (zero if exponent > order), written out."""
    return T(tuple(int(n == exponent) for n in range(order + 1)))


def test_add():
    assert (T((1, 1)) + T((1, 0))).coeffs == (2, 1)
    # mixed orders truncate to the minimum
    assert (T((1, 2, 3)) + T((0, 0))).coeffs == (1, 2)


def test_mul():
    assert (T((1, 1, 0)) * T((1, 1, 0))).coeffs == (1, 2, 1)
    a = T((3, 1, 4, 1, 5))
    assert (a * monomial(0, 4)).coeffs == a.coeffs
    assert (T((1, -1, 0, 0)) * T((1, 1, 1, 1))).coeffs == (1, 0, 0, 0)


def test_shift_div():
    assert T((0, 0, 1, 1)).shift_div(2).coeffs == (1, 1)
    with pytest.raises(NonDivisibleError):
        T((1, 1)).shift_div(1)
    a = T((0, 2, 5))
    assert a.shift_div(0).coeffs == a.coeffs
    with pytest.raises(ValueError):
        a.shift_div(3)


def test_first_mismatch():
    assert first_mismatch(T((1, 2, 3, 9)), T((1, 2, 3))) is None
    assert first_mismatch(T((1, 2, 4)), T((1, 2, 3))) == 2


def test_mul_qpow():
    assert T((1, 2, 3)).mul_qpow(1).coeffs == (0, 1, 2)
    assert T((1, 2, 3)).mul_qpow(0).coeffs == (1, 2, 3)
    assert T((1, 2, 3)).mul_qpow(5).coeffs == (0, 0, 0)


def test_monomial_and_truncate():
    # shifting q^0 past the order truncates to the zero series of that order
    assert monomial(0, 4).mul_qpow(2) == monomial(2, 4)
    assert monomial(0, 4).mul_qpow(9) == monomial(9, 4)


def test_construction_guards():
    with pytest.raises(ValueError):
        TruncatedSeries(())
    with pytest.raises(TypeError):
        TruncatedSeries((1.5, 2))


def test_json_round_trip_with_big_coefficients():
    big = 10**40 + 7
    a = T((1, -big, 0, big))
    obj = a.as_json_dict()
    assert obj == {"order": 3, "coeffs": ["1", str(-big), "0", str(big)]}
    assert T(tuple(int(c) for c in obj["coeffs"])) == a


def test_fingerprint_distinguishes():
    assert T((1, 2)).fingerprint() == T((1, 2)).fingerprint()
    assert T((1, 2)).fingerprint() != T((1, 3)).fingerprint()


# -- algebraic properties ------------------------------------------------

series = st.builds(
    T, st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=10).map(tuple)
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
    assert (a * monomial(0, a.order)).coeffs == a.coeffs


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=24))
def test_geometric_series_inverts_binomial(m, N):
    inv = T(tuple(int(n % m == 0) for n in range(N + 1)))
    binom = T(tuple(int(n == 0) - int(n == m) for n in range(N + 1)))
    assert (inv * binom).coeffs == monomial(0, N).coeffs


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
    # the first mismatch with the zero series is the valuation; None is zero
    va, vb = (first_mismatch(x, T((0,) * (x.order + 1))) for x in (a, b))
    prod = a * b
    if va is not None and vb is not None and va + vb <= prod.order:
        vp = first_mismatch(prod, T((0,) * (prod.order + 1)))
        assert vp is None or vp >= va + vb
