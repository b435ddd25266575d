"""Elliptic integrals, singular moduli, alpha and the j-invariant."""

from fractions import Fraction

import mpmath as mp
import pytest

from qalg import (
    DomainError,
    PrecisionContext,
    elliptic_alpha,
    ellint_E,
    ellint_K,
    inverse_singular_modulus,
    j_invariant,
    make_nome,
    multiplier,
    singular_modulus,
)
from qalg.elliptic import agm_iterations
from qalg.moebius import JacobiCharacter, lambert_series

from oracles import close, hypergeometric_E, hypergeometric_K

CTX = PrecisionContext(60)


class TestK:
    def test_k_zero(self):
        with CTX.workdps():
            assert close(ellint_K(0, CTX), mp.pi / 2, 58, dps=CTX.dps)

    def test_lemniscatic_value_series_oracle(self):
        with CTX.workdps():
            k = 1 / mp.sqrt(mp.mpf(2))
            assert close(ellint_K(k, CTX), hypergeometric_K(k, 90), 55, dps=90)

    def test_series_oracle_k03(self):
        with CTX.workdps():
            k = mp.mpf(3) / 10
            assert close(ellint_K(k, CTX), hypergeometric_K(k, 70), 55, dps=80)

    def test_domain(self):
        with pytest.raises(DomainError):
            ellint_K(1, CTX)
        with pytest.raises(DomainError):
            ellint_K(-0.5, CTX)

    def test_agm_iteration_budget(self):
        import math
        budget = math.ceil(math.log2(CTX.digits)) + 5
        for k in ("0.000001", "0.3", "0.999999"):
            with CTX.workdps():
                assert agm_iterations(mp.mpf(k), CTX) <= budget


class TestE:
    def test_e_zero(self):
        with CTX.workdps():
            assert close(ellint_E(0, CTX), mp.pi / 2, 58, dps=CTX.dps)

    def test_series_oracle(self):
        with CTX.workdps():
            k = 1 / mp.sqrt(mp.mpf(2))
            assert close(ellint_E(k, CTX), hypergeometric_E(k, 90), 55, dps=90)

    def test_legendre_relation(self):
        with CTX.workdps():
            k = mp.mpf(3) / 10
            kp = mp.sqrt(1 - k * k)
            lhs = (ellint_E(k, CTX) * ellint_K(kp, CTX)
                   + ellint_E(kp, CTX) * ellint_K(k, CTX)
                   - ellint_K(k, CTX) * ellint_K(kp, CTX))
            assert close(lhs, mp.pi / 2, 40, dps=CTX.dps)


class TestSingularModulus:
    def test_r1_is_inverse_sqrt2(self):
        with CTX.workdps():
            assert close(singular_modulus(1, CTX), 1 / mp.sqrt(mp.mpf(2)), 55,
                         dps=CTX.dps)

    def test_r2_is_sqrt2_minus_1(self):
        with CTX.workdps():
            assert close(singular_modulus(2, CTX), mp.sqrt(mp.mpf(2)) - 1, 55,
                         dps=CTX.dps)

    def test_r_four_fifths_nested_radical(self):
        with CTX.workdps():
            s = mp.sqrt(2 - 4 * mp.sqrt(mp.sqrt(mp.mpf(5)) - 2))
            radical = (2 - s) / (2 + s)
            assert close(singular_modulus(Fraction(4, 5), CTX), radical, 40,
                         dps=CTX.dps)

    def test_r2_against_theta_quotient(self):
        from qalg import theta2, theta3
        nome = make_nome(2, CTX)
        with CTX.workdps():
            quotient = theta2(nome) ** 2 / theta3(nome) ** 2
            assert close(singular_modulus(2, CTX), quotient, 40, dps=CTX.dps)

    def test_round_trips(self):
        for r in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)):
            with CTX.workdps():
                k = singular_modulus(r, CTX)
                assert close(inverse_singular_modulus(k, CTX),
                             mp.mpf(r.numerator) / r.denominator, 40, dps=CTX.dps)

    def test_ki_symmetry_point(self):
        with CTX.workdps():
            assert close(inverse_singular_modulus(1 / mp.sqrt(mp.mpf(2)), CTX),
                         1, 55, dps=CTX.dps)

    def test_reverse_round_trip(self):
        # k at the inverse-modulus parameter lands back on x
        for xs in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)):
            with CTX.workdps():
                x = mp.mpf(xs.numerator) / xs.denominator
                r = inverse_singular_modulus(x, CTX)
                assert close(singular_modulus(r, CTX), x, 40, dps=CTX.dps)

    def test_inverse_domain(self):
        with pytest.raises(DomainError):
            inverse_singular_modulus(Fraction(3, 2), CTX)


class TestAlpha:
    def test_alpha_one_is_half(self):
        assert close(elliptic_alpha(1, CTX), Fraction(1, 2), 40, dps=CTX.dps)

    @pytest.mark.parametrize("r", [1, 2])
    def test_eisenstein_identity(self, r):
        nome = make_nome(r, CTX)
        with CTX.workdps():
            lhs = 1 - 24 * lambert_series(JacobiCharacter(1), nome)
            k = singular_modulus(r, CTX)
            K = ellint_K(k, CTX)
            sr = mp.sqrt(mp.mpf(r))
            rhs = (6 / (mp.pi * sr)
                   + 4 * K * K * (-6 * elliptic_alpha(r, CTX) + sr * (1 + k * k))
                   / (mp.pi ** 2 * sr))
            assert close(lhs, rhs, 40, dps=CTX.dps)


class TestMultiplier:
    def test_unity(self):
        assert multiplier(3, 1, CTX) == 1

    @pytest.mark.parametrize("r", [1, 3])
    def test_landen_halving(self, r):
        # K(k_{4r}) = (1 + k'_r)/2 * K(k_r), so the n=2 multiplier is
        # (1 + k'_r)/2 - an independent classical oracle
        with CTX.workdps():
            k = singular_modulus(r, CTX)
            kp = mp.sqrt(1 - k * k)
            assert close(multiplier(r, 2, CTX), (1 + kp) / 2, 40, dps=CTX.dps)


class TestJInvariant:
    def test_r1_is_1728(self):
        assert close(j_invariant(1, CTX), 1728, 40, dps=CTX.dps)

    def test_r2_is_8000(self):
        assert close(j_invariant(2, CTX), 8000, 40, dps=CTX.dps)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_eta_route_agrees(self, r):
        assert close(j_invariant(r, CTX, via="modulus"),
                     j_invariant(r, CTX, via="eta"), 40, dps=CTX.dps)

    def test_reciprocal_parameter_invariance(self):
        # j(1/r) = j(r): exercises root-finding below r = 1
        assert close(j_invariant(Fraction(1, 4), CTX), j_invariant(4, CTX),
                     38, dps=CTX.dps)

    def test_unknown_route(self):
        with pytest.raises(DomainError):
            j_invariant(1, CTX, via="what")


class TestPrecisionStability:
    def test_modulus_digits_monotone(self):
        lo = singular_modulus(2, PrecisionContext(40))
        hi = singular_modulus(2, PrecisionContext(90))
        assert close(lo, hi, 39, dps=110)
