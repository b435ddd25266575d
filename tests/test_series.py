"""Exact formal power series engine."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalg import FormalSeries, OrderError, exponent_product, series
from qalg.series import one_minus_power_product

from oracles import (horner, passes_product, series_exp, series_inverse, series_log,
                     series_mul)

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


big_ints = st.one_of(st.integers(-3, 3), st.integers(-2 ** 200, 2 ** 200))
small_fractions = st.fractions(min_value=Fraction(-9), max_value=Fraction(9),
                               max_denominator=12)


@st.composite
def masked(draw, values, size):
    """size coefficients from values, each kept with a probability drawn
    from all-zero to dense; the rest are 0."""
    density = draw(st.sampled_from([0, 5, 25, 60, 100]))
    return [draw(values) if draw(st.integers(0, 99)) < density else 0
            for _ in range(size)]


@st.composite
def masked_series(draw, values, max_order, c0=None):
    cs = draw(masked(values, draw(st.integers(0, max_order)) + 1))
    cs[0] = draw(c0) if c0 is not None else cs[0]
    return FormalSeries(cs)


def _typed(got: FormalSeries, ref: list):
    assert got.coeffs == tuple(ref)
    assert [type(c) for c in got.coeffs] == [type(c) for c in ref]


class TestKernelsAgainstOracles:
    """The sparse loops, the Kronecker product and Newton's inverse against
    the schoolbook oracles, at unequal orders, from all-zero to dense."""

    @settings(max_examples=80, deadline=None)
    @given(masked_series(big_ints, 90), masked_series(big_ints, 90))
    def test_int_mul(self, a, b):
        _typed(a * b, series_mul(a.coeffs, b.coeffs))
        assert (a * b).order == min(a.order, b.order)

    @settings(max_examples=40, deadline=None)
    @given(masked_series(st.one_of(big_ints, small_fractions), 40),
           masked_series(small_fractions, 40))
    def test_fraction_mul(self, a, b):
        _typed(a * b, series_mul(a.coeffs, b.coeffs))

    @settings(max_examples=40, deadline=None)
    @given(masked_series(st.integers(-2 ** 200, 2 ** 200), 40,
                         c0=st.sampled_from([1, -1, 2, -3, 2 ** 70])))
    def test_int_inverse(self, a):
        _typed(a.inverse(), series_inverse(a.coeffs))

    @settings(max_examples=25, deadline=None)
    @given(masked_series(st.integers(-9, 9), 130, c0=st.sampled_from([1, -1])))
    def test_unit_inverse_up_to_newton(self, a):
        _typed(a.inverse(), series_inverse(a.coeffs))

    @settings(max_examples=30, deadline=None)
    @given(masked_series(small_fractions, 30,
                         c0=st.sampled_from([Fraction(1), Fraction(-2, 3), Fraction(5, 2)])))
    def test_fraction_inverse(self, a):
        _typed(a.inverse(), series_inverse(a.coeffs))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 3, 5]),
           st.integers(1, 40).flatmap(lambda n: masked(st.integers(-2, 2), n)))
    def test_exponent_product_shared_factor(self, g, ys):
        xs = [g * y for y in ys]
        _typed(exponent_product(lambda n: xs[n - 1], len(xs)), passes_product(xs, len(xs)))

    def test_dense_big_product_takes_kronecker(self, monkeypatch):
        calls = []
        kmul = series._kmul
        monkeypatch.setattr(series, "_kmul", lambda *a: calls.append(a) or kmul(*a))
        a = FormalSeries([(-1) ** i * (2 ** 65 + 3 * i) for i in range(80)])
        b = FormalSeries([2 ** 70 - 7 * i * i for i in range(72)])
        _typed(a * b, series_mul(a.coeffs, b.coeffs))
        assert len(calls) == 1 and max(map(abs, (a * b).coeffs)) > 2 ** 135

    def test_dense_unit_inverse_takes_newton(self, monkeypatch):
        calls = []
        kmul = series._kmul
        monkeypatch.setattr(series, "_kmul", lambda *a: calls.append(a) or kmul(*a))
        a = FormalSeries([1] + [3 - i % 7 or 1 for i in range(1, 150)])
        _typed(a.inverse(), series_inverse(a.coeffs))
        assert len(calls) == 2 * 8  # orders 2, 4, ..., 128, 150: two products each


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
