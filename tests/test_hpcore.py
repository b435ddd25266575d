"""Precision context and quadrature."""

from fractions import Fraction

import mpmath as mp
import pytest

from qalg import ConvergenceError, DomainError, PrecisionContext, integrate
from qalg import modular


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
    def test_pow_rejects_binary_float_via_to_mpf(self):
        # exactness rule: rationals go in as Fractions, not floats
        from qalg.precision import to_mpf
        with pytest.raises(DomainError):
            to_mpf(0.1)


class TestIntegrate:
    def test_constant(self):
        ctx = PrecisionContext(40)
        assert abs(integrate(lambda t: mp.mpf(1), 0, 1, ctx) - 1) < mp.mpf(10) ** -35

    def test_empty_interval(self):
        ctx = PrecisionContext(30)
        assert integrate(lambda t: t, 1, 1, ctx) == 0

    def test_infinite_needs_decay(self):
        ctx = PrecisionContext(30)
        with pytest.raises(DomainError):
            integrate(lambda t: 1 / t ** 2, 1, None, ctx)

    @pytest.mark.parametrize("lo, hi", [(1, 0), (0, mp.inf)], ids=["reversed", "infinite"])
    def test_reversed_or_infinite_limit(self, lo, hi):
        ctx = PrecisionContext(30)
        with pytest.raises(DomainError):
            integrate(lambda t: t, lo, hi, ctx)

    def test_one_pass_on_eq40_integrand(self, monkeypatch):
        # at 120 digits r = 1/5 needs degree 7: integrate may evaluate the
        # integrand no more often than one mp.quad pass up to degree 7 does
        ctx = PrecisionContext(120)
        calls, reference, seen = [], [], {}

        def spy(f, lo, hi, ctx):
            seen["f"] = f
            return integrate(lambda w: calls.append(w) or f(w), lo, hi, ctx)

        monkeypatch.setattr(modular, "integrate", spy)
        modular.theorem3_check(Fraction(1, 5), ctx)
        with mp.workdps(ctx.dps + 10):
            mp.quad(lambda w: reference.append(w) or seen["f"](w), [0, 1], maxdegree=7)
        assert 0 < len(calls) <= len(reference)

    def test_kink_does_not_converge(self):
        ctx = PrecisionContext(30)
        with pytest.raises(ConvergenceError):
            integrate(lambda t: abs(t - mp.mpf(1) / 3), 0, 1, ctx)
