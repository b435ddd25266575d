"""Exact formal power series engine."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalg import FormalSeries, OrderError, exponent_product
from qalg.series import one_minus_power_product

from oracles import horner, series_exp, series_log

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6)


def small_series(order=12, first=None):
    return st.lists(rationals, min_size=order + 1, max_size=order + 1).map(
        lambda cs: FormalSeries(([first] if first is not None else []) + cs[
            0 if first is None else 1:]))


class TestBasics:
    def test_geometric_inverse(self):
        n = 30
        geo = FormalSeries([1] * (n + 1))          # 1/(1-q)
        one_minus = FormalSeries.from_terms({0: 1, 1: -1}, n)
        assert one_minus * geo == FormalSeries.one(n)

    def test_inverse_of_one_minus_q(self):
        n = 10
        inv = FormalSeries.from_terms({0: 1, 1: -1}, n).inverse()
        assert inv[5] == 1
        assert all(inv[i] == 1 for i in range(n + 1))

    def test_pentagonal_number_signs(self):
        # prod (1-q^n) has coefficients +-1 exactly at k(3k+-1)/2
        n = 80
        s = FormalSeries.one(n)
        for e in range(1, n + 1):
            s = s * FormalSeries.from_terms({0: 1, e: -1}, n)
        expected = {0: 1}
        k = 1
        while k * (3 * k - 1) // 2 <= n:
            sign = -1 if k % 2 else 1
            for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if e <= n:
                    expected[e] = sign
            k += 1
        assert s == FormalSeries.from_terms(expected, n)

    def test_log_of_one_minus_q(self):
        n = 12
        lg = FormalSeries.from_terms({0: 1, 1: -1}, n).log()
        assert all(lg[k] == Fraction(-1, k) for k in range(1, n + 1))

    def test_exp_of_zero(self):
        assert FormalSeries([0] * 9).exp() == FormalSeries.one(8)

    def test_shift_and_scale(self):
        s = FormalSeries([1, 2, 3])
        assert s.shift(1).coeffs == (0, 1, 2)
        assert s.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2), 1, Fraction(3, 2))

    def test_order_clipping(self):
        a = FormalSeries([1] * 10)
        b = FormalSeries([1] * 5)
        assert (a * b).order == 4
        assert (a + b).order == 4


class TestExactCoefficients:
    def test_non_unit_inverse_is_rational(self):
        c0 = FormalSeries([2, 1]).inverse()[0]
        assert c0 == Fraction(1, 2) and type(c0) is Fraction

    def test_int_and_fraction_coefficients_agree(self):
        a, b = FormalSeries([1, 2]), FormalSeries([Fraction(1), Fraction(2)])
        assert a == b and hash(a) == hash(b)

    def test_float_refused(self):
        with pytest.raises(OrderError):
            FormalSeries([0.5])


def _log_exp_product(xs, order):
    """prod (1 - q^n)^(xs[n-1]) through its rational log:
    -sum_j q^j/j * sum_{d|j} d*x(d), then exp."""
    logs = [Fraction(0)] * (order + 1)
    for d in range(1, order + 1):
        for j in range(d, order + 1, d):
            logs[j] -= xs[d - 1] * d
    return FormalSeries([0] + [logs[j] / j for j in range(1, order + 1)]).exp()


def _repeated_product(s, k):
    out = FormalSeries.one(s.order)
    for _ in range(k):
        out = out * s
    return out


integer_exponents = st.integers(1, 60).flatmap(
    lambda n: st.lists(st.integers(-6, 6), min_size=n, max_size=n))

rational_exponents = st.integers(1, 40).flatmap(
    lambda n: st.lists(rationals, min_size=n, max_size=n)).filter(
    lambda xs: any(x.denominator > 1 for x in xs))


class TestIntegerPaths:
    @settings(max_examples=40, deadline=None)
    @given(integer_exponents)
    def test_exponent_product_matches_log_exp(self, xs):
        order = len(xs)
        assert (exponent_product(lambda n: xs[n - 1], order)
                == _log_exp_product(xs, order))

    @settings(max_examples=40, deadline=None)
    @given(rational_exponents)
    def test_rational_exponent_product_matches_log_exp(self, xs):
        # the divisor sieve against the plain double loop of the reference
        order = len(xs)
        assert (exponent_product(lambda n: xs[n - 1], order)
                == _log_exp_product(xs, order))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 60), st.lists(st.integers(1, 70), max_size=40))
    def test_one_minus_power_product_matches_chained(self, order, exps):
        ref = FormalSeries.one(order)
        for e in exps:
            if e <= order:
                ref = ref * FormalSeries.from_terms({0: 1, e: -1}, order)
        assert one_minus_power_product(exps, order) == ref

    @pytest.mark.parametrize("c0", [1, -1, 2, -3])
    @settings(max_examples=30, deadline=None)
    @given(cs=st.lists(st.integers(-5, 5), min_size=10, max_size=10),
           k=st.integers(-4, 4))
    def test_pow_int_matches_repeated_product(self, c0, cs, k):
        s = FormalSeries([c0] + cs)
        power = _repeated_product(s, abs(k))
        if k >= 0:
            assert s.pow_int(k) == power
        else:
            assert s.pow_int(k) == power.inverse()
            assert s.pow_int(k) * power == FormalSeries.one(s.order)


tails = st.one_of(
    st.lists(st.integers(-9, 9), min_size=1, max_size=30),
    st.lists(rationals, min_size=1, max_size=30))


def _same_coeffs(got, ref):
    assert got == tuple(ref)
    assert [type(c) for c in got] == [type(c) for c in ref]


class TestExpLogAgainstReference:
    """The hoisted weights give the textbook recurrences' exact values,
    int where those are ints, on integer and rational series."""

    @settings(max_examples=60, deadline=None)
    @given(tails)
    def test_exp(self, cs):
        s = FormalSeries([0] + cs)
        _same_coeffs(s.exp().coeffs, series_exp(s.coeffs))

    @settings(max_examples=60, deadline=None)
    @given(tails)
    def test_log(self, cs):
        s = FormalSeries([1] + cs)
        _same_coeffs(s.log().coeffs, series_log(s.coeffs))


class TestRoundTrips:
    def test_periodic_product_log_exp_roundtrip(self):
        # prod (1-q^n)^(X(n)) for the 5-periodic symbol pattern, order 60
        n = 60
        pattern = [1, -1, -1, 1, 0]
        s = exponent_product(lambda k: pattern[(k - 1) % 5], n)
        assert s.log().exp() == s

    def test_fractional_exponents_square_to_integer_ones(self):
        # the log/exp route (proper fractions) against the integer passes
        n = 30
        half = exponent_product(lambda k: Fraction(k % 3, 2), n)
        assert half * half == exponent_product(lambda k: k % 3, n)

    def test_rational_power_roundtrip(self):
        n = 24
        s = exponent_product(lambda k: 1 if k % 3 else 0, n)
        half = s.pow_rational(Fraction(1, 2))
        assert half * half == s

    def test_pow_int_negative(self):
        n = 16
        s = FormalSeries.from_terms({0: 1, 1: -1}, n)
        assert s.pow_int(-2) * s * s == FormalSeries.one(n)

    @settings(max_examples=30, deadline=None)
    @given(small_series(order=10, first=Fraction(1)))
    def test_exp_log_identity(self, s):
        assert s.log().exp() == s

    @settings(max_examples=30, deadline=None)
    @given(small_series(order=8, first=Fraction(1)),
           small_series(order=8, first=Fraction(1)))
    def test_log_of_product(self, a, b):
        assert (a * b).log() == a.log() + b.log()

    @settings(max_examples=30, deadline=None)
    @given(small_series(order=8), small_series(order=8), small_series(order=8))
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)


class TestErrors:
    def test_log_requires_unit_constant(self):
        with pytest.raises(OrderError):
            FormalSeries([2, 1]).log()

    def test_exp_requires_zero_constant(self):
        with pytest.raises(OrderError):
            FormalSeries([1, 1]).exp()

    def test_rational_pow_requires_unit_constant(self):
        with pytest.raises(OrderError):
            FormalSeries([2, 1]).pow_rational(Fraction(1, 2))

    def test_invert_zero_constant(self):
        with pytest.raises(OrderError):
            FormalSeries([0, 1]).inverse()

    def test_empty_series(self):
        with pytest.raises(OrderError):
            FormalSeries([])


class TestNumericBridge:
    def test_evaluate_geometric(self):
        n = 120
        geo = FormalSeries([1] * (n + 1))
        with mp.workdps(40):
            x = mp.mpf(1) / 10
            assert abs(horner(geo.coeffs, x) - mp.mpf(10) / 9) < mp.mpf(10) ** -35
