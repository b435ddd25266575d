"""Precision context and quadrature."""

import mpmath as mp
import pytest

from qalg import DomainError, PrecisionContext, integrate


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
