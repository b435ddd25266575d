"""Precision context, rational powers and quadrature."""

from fractions import Fraction

import mpmath as mp
import pytest

from qalg import DomainError, PrecisionContext, integrate, pow_rational

from oracles import beta_complete_16_23, close, composite_midpoint


class TestPrecisionContext:
    def test_dps_is_digits_plus_guard(self):
        ctx = PrecisionContext(40, guard=12)
        assert ctx.dps == 52

    def test_default_guard(self):
        assert PrecisionContext(30).guard == 20

    def test_minimum_digits_enforced(self):
        with pytest.raises(DomainError):
            PrecisionContext(29)

    def test_doubled(self):
        assert PrecisionContext(50).doubled().digits == 100


class TestElementary:
    def test_pow_rational_exponent_law(self):
        ctx = PrecisionContext(60)
        with ctx.workdps():
            x = mp.exp(-mp.pi)
            lhs = pow_rational(x, Fraction(1, 5), ctx)
            rhs = mp.exp(-mp.pi / 5)
            assert abs(lhs - rhs) < mp.mpf(10) ** -58

    def test_pow_rejects_binary_float_via_to_mpf(self):
        # exactness rule: rationals go in as Fractions, not floats
        from qalg.precision import to_mpf
        with pytest.raises(DomainError):
            to_mpf(0.1)


class TestIntegrate:
    def test_constant(self):
        ctx = PrecisionContext(40)
        assert abs(integrate(lambda t: mp.mpf(1), 0, 1, ctx) - 1) < mp.mpf(10) ** -35

    def test_complete_beta_series_oracle(self):
        ctx = PrecisionContext(40)
        with ctx.workdps():
            f = lambda t: t ** (-mp.mpf(5) / 6) * (1 - t) ** (-mp.mpf(1) / 3)
            g = lambda s: (1 - s) ** (-mp.mpf(5) / 6) * s ** (-mp.mpf(1) / 3)
            val = integrate(f, 0, 1, ctx, lo_power=6, hi_power=3, f_from_hi=g)
        oracle = beta_complete_16_23(50)
        assert close(val, oracle, 30)

    def test_infinite_tail_vs_composite_oracle(self):
        ctx = PrecisionContext(30)
        with ctx.workdps():
            theta = 5 * mp.sqrt(mp.mpf(5))
            f = lambda t: 1 / (t ** (mp.mpf(1) / 6) * mp.sqrt(125 + 22 * t + t * t))
            val = integrate(f, theta, None, ctx, decay=Fraction(7, 6))
            assert val > 0
            # brute force: fold by t = theta/w^6, which makes the integrand
            # bounded on (0,1], then plain midpoint rule
            g = lambda w: f(theta / w ** 6) * 6 * theta / w ** 7
            crude = composite_midpoint(g, 0, 1, 20000)
            assert abs(val - crude) < mp.mpf(10) ** -4

    def test_substitution_invariance(self):
        # declared-power route vs direct quadrature on a shifted interval
        ctx = PrecisionContext(40)
        with ctx.workdps():
            f = lambda t: t ** (-mp.mpf(1) / 2)
            with_hint = integrate(f, 0, 1, ctx, lo_power=2)
            eps = mp.mpf(10) ** -45
            direct = integrate(f, eps, 1, ctx)
            # int_0^eps t^(-1/2) = 2 sqrt(eps)
            assert abs(with_hint - direct - 2 * mp.sqrt(eps)) < mp.mpf(10) ** -30
            assert abs(with_hint - 2) < mp.mpf(10) ** -35

    def test_empty_interval(self):
        ctx = PrecisionContext(30)
        assert integrate(lambda t: t, 1, 1, ctx) == 0

    def test_infinite_needs_decay(self):
        ctx = PrecisionContext(30)
        with pytest.raises(DomainError):
            integrate(lambda t: 1 / t ** 2, 1, None, ctx)
