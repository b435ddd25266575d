"""Elliptic integrals, singular moduli, alpha and the j-invariant."""

import time
from fractions import Fraction

import mpmath as mp
import pytest
from mpmath import libmp
from mpmath.libmp import libelefun

from qalg import (
    DomainError,
    InsufficientPrecision,
    PrecisionContext,
    QalgError,
    elliptic_alpha,
    ellint_E,
    ellint_K,
    inverse_singular_modulus,
    j_invariant,
    make_nome,
    multiplier,
    singular_modulus,
    theta2,
    theta3,
)
from qalg import AgileSpec, agile_star, elliptic, tau_star
from qalg.elliptic import singular_K
from qalg.modular import rrcf
from qalg.moebius import JacobiCharacter, lambert_series
from qalg.precision import exact, to_mpf
from qalg.recognize import QUANTITIES

from oracles import close, hypergeometric_E, hypergeometric_K, mpf_agm_KE

CTX = PrecisionContext(60)


class TestExactModulus:
    @pytest.mark.parametrize("digits", [120, 300, 1000])
    def test_mpf_modulus_on_integers(self, digits):
        # k' for an mpf k = m 2^e comes from the integer (1 << -2e) - m^2:
        # bit for bit the rational 1 - k^2 rounded once, as to_mpf rounds it
        ctx = PrecisionContext(digits)
        with mp.workprec(3100):
            moduli = [singular_modulus(3, ctx), 1 - mp.mpf(2) ** -3000, mp.mpf(2) ** -3000]
        with ctx.workdps():
            for k in moduli:
                x = exact(k)
                ref = to_mpf(x), mp.sqrt(to_mpf(1 - x * x))
                assert [v._mpf_ for v in elliptic._exact_modulus(k)] == [v._mpf_ for v in ref]

    @pytest.mark.parametrize("k", [mp.mpf(1), mp.mpf(-0.5), mp.mpf(3), mp.mpf("nan")], ids=str)
    def test_mpf_modulus_out_of_range(self, k):
        with pytest.raises(DomainError):
            ellint_K(k, CTX)


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
                assert elliptic._modulus_agm(mp.mpf(k), CTX)[2] <= budget


class TestFixedPointAGM:
    """The fixed-point AGM kernel against the plain mpf loop: K and E to
    10^-(dps-3) relative, and the iteration count of the kernel's stop
    rule, |a - b| <= 2^-(prec/4 + 2) a, counted by an mpf loop, never
    above the plain loop's.  Each modulus is run with k', and (k' given
    as the second argument) for K(k'), where b = k is tiny for
    k = 10^-300: below 2^-prec at 60 digits, so the first steps run in
    mpf there."""

    @staticmethod
    def stop_rule_steps(b, prec):
        with mp.workprec(prec + 20):
            a, n = mp.mpf(1), 0
            while abs(a - b) > mp.ldexp(a, -(prec // 4 + 2)):
                a, b, n = (a + b) / 2, mp.sqrt(a * b), n + 1
            return n

    @pytest.mark.parametrize("digits", [60, 300, 1000])
    @pytest.mark.parametrize("k", ["1e-300", "0.3", "0.999999"])
    def test_matches_mpf_loop(self, k, digits):
        ctx = PrecisionContext(digits)
        with ctx.workdps():
            k = mp.mpf(k)
            kp = mp.sqrt((1 - k) * (1 + k))
            for args in ((k, kp), (kp, k)):
                b = elliptic._man_exp(args[1])
                K, E, iters = elliptic._agm_KE(*b, ctx.dps)
                K0, E0, iters0 = mpf_agm_KE(*args)
                prec = elliptic._agm(*b, ctx.dps)[1]
                assert iters == self.stop_rule_steps(args[1], prec) <= iters0, args
                for x, ref in ((K, K0), (E, E0)):
                    with mp.workdps(ctx.dps + 10):
                        assert abs(x - ref) <= abs(ref) * mp.mpf(10) ** (3 - ctx.dps), args


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

    @pytest.mark.parametrize("x", ["abc", "inf", "1/0"])
    def test_inverse_refuses_malformed_strings(self, x):
        with pytest.raises(DomainError):
            inverse_singular_modulus(x, CTX)


class TestNonFinite:
    """nan and inf are refused up front with a DomainError, rather than
    returning nan or running the Newton solve until it gives up."""

    @pytest.mark.parametrize("r", [mp.nan, mp.inf], ids=["nan", "inf"])
    def test_singular_modulus(self, r):
        with pytest.raises(DomainError):
            singular_modulus(r, CTX)

    @pytest.mark.parametrize("integral", [ellint_K, ellint_E], ids=["K", "E"])
    def test_integrals_refuse_nan(self, integral):
        with pytest.raises(DomainError):
            integral(mp.nan, CTX)

    def test_K_takes_a_fraction(self):
        with mp.workdps(90):
            truth = hypergeometric_K(mp.mpf(1) / 3, 90)
        assert close(ellint_K(Fraction(1, 3), CTX), truth, 55, dps=90)

    @pytest.mark.parametrize("k", [1 - Fraction(1, 10**60), str(1 - Fraction(1, 10**60))],
                             ids=["Fraction", "str"])
    def test_K_near_one_exact_input(self, k):
        # 1 - k^2 ~ 2e-60 is formed before rounding, as for the inverse
        # singular modulus
        ctx = PrecisionContext(120)
        reference = ellint_K(k, PrecisionContext(300))
        value = ellint_K(k, ctx)
        with ctx.workdps():
            assert abs(value / reference - 1) < ctx.eps_check


class TestExtremeParameters:
    """k_r is tiny for large r (about 4 exp(-pi sqrt(r)/2)) and close to 1
    for small r; both must come out at full precision."""

    CTX = PrecisionContext(120)

    # k_r has about 2.27 sqrt(r) leading zero bits: 2.3e10 at r = 1e20
    @pytest.mark.parametrize("r", [400, 1000, 10**4, 10**6, 10**10, 10**20,
                                   Fraction(1, 10**4)], ids=str)
    def test_large_r_matches_theta_quotient(self, r):
        ctx = self.CTX
        start = time.perf_counter()
        elliptic._singular_modulus_cached.cache_clear()
        k = singular_modulus(r, ctx)
        assert time.perf_counter() - start < 2
        nome = make_nome(r, ctx)
        with ctx.workdps():
            quotient = theta2(nome) ** 2 / theta3(nome) ** 2
            assert abs(k / quotient - 1) <= ctx.eps_check

    @pytest.mark.parametrize("digits", [30, 120])
    @pytest.mark.parametrize("r", [10**70, 10**200], ids=lambda r: f"1e{len(str(r)) - 1}")
    def test_seed_past_its_digits(self, r, digits):
        # v = exp(-pi sqrt(r)/4) has no correct digit at 30 digits once
        # pi sqrt(r) has more than 30 integer digits
        ctx = PrecisionContext(digits)
        k = singular_modulus(r, ctx)
        nome = make_nome(r, ctx)
        with ctx.workdps():
            assert abs(k / (theta2(nome) ** 2 / theta3(nome) ** 2) - 1) <= ctx.eps_check

    @pytest.mark.parametrize("r", [10**40, 10**60], ids=str)
    def test_large_r_keeps_requested_digits(self, r):
        # k_r moves by about pi sqrt(r)/2 times the relative error of K'/K,
        # more than the guard digits absorb once sqrt(r) passes 10^10
        low = singular_modulus(r, PrecisionContext(50))
        high = singular_modulus(r, PrecisionContext(200))
        with mp.workdps(220):
            assert abs(low / high - 1) < mp.mpf(10) ** -50

    @pytest.mark.parametrize("r", [400, 10**4, 10**6, 10**10, Fraction(1, 10**4)], ids=str)
    def test_alpha_matches_legendre_route(self, r):
        # the eval-ladder's second route: Legendre's relation turns E(k')
        # into E(k), alpha = pi/(4K^2) - sqrt(r) (E/K - 1).  K(k_r) cannot
        # take k_r within 1e-130 of 1, so for r < 1 the route runs at 1/r
        # and the reflection alpha(r) = sqrt(r) - r alpha(1/r) brings it back.
        ctx = self.CTX
        r = Fraction(r)
        s = max(r, 1 / r)
        start = time.perf_counter()
        elliptic._singular_modulus_cached.cache_clear()
        k = singular_modulus(s, ctx)
        K, E = ellint_K(k, ctx), ellint_E(k, ctx)
        alpha = elliptic_alpha(r, ctx)
        assert time.perf_counter() - start < 2
        with ctx.workdps():
            legendre = mp.pi / (4 * K * K) - mp.sqrt(to_mpf(s)) * (E / K - 1)
            if r < 1:
                legendre = mp.sqrt(to_mpf(r)) - to_mpf(r) * legendre
            assert abs(alpha - legendre) <= ctx.eps_check

    @pytest.mark.parametrize("name, extra", [("k", {}), ("alpha", {}), ("multiplier", {"n": 2})],
                             ids=["k", "alpha", "multiplier"])
    def test_huge_r_value_or_typed_error(self, name, extra):
        # at r = 1e300 k_r has about 2.3e150 zero bits
        ctx = PrecisionContext(50)
        start = time.perf_counter()
        try:
            value = QUANTITIES[name].evaluate({"r": 10**300, **extra}, ctx)
        except QalgError:
            pass
        else:
            assert mp.isfinite(value)
        assert time.perf_counter() - start < 2

    def test_K_reflection(self):
        # K(k_{1/r}) = K(k'_r) = sqrt(r) K(k_r): the K quantity at r < 1
        # must not rebuild the tiny k'_r as sqrt(1 - k_r^2)
        ctx = self.CTX
        K = QUANTITIES["K"]
        small, large = K.evaluate({"r": Fraction(1, 10**4)}, ctx), K.evaluate({"r": 10**4}, ctx)
        with ctx.workdps():
            assert abs(small / (100 * large) - 1) <= ctx.eps_check

    @pytest.mark.parametrize("r", [400, 10**4])
    def test_j_is_invariant_under_reciprocal(self, r):
        # tau -> -1/tau: j(1/r) = j(r).  At r < 1 the modulus form needs
        # k'_r to full relative precision, not sqrt(1 - k_r^2).
        ctx = self.CTX
        small, large = j_invariant(Fraction(1, r), ctx), j_invariant(r, ctx)
        with ctx.workdps():
            assert abs(small / large - 1) <= ctx.eps_check

    def test_multiplier_reflection(self):
        # K(k_{1/s}) = sqrt(s) K(k_s), so m(1/s, n) m(1, n) = 1/n for s = n^2
        ctx = self.CTX
        small, one = multiplier(Fraction(1, 10**4), 100, ctx), multiplier(1, 100, ctx)
        with ctx.workdps():
            assert abs(small * one * 100 - 1) <= ctx.eps_check

    @pytest.mark.parametrize("r", [400, 10**4])
    def test_inverse_round_trip(self, r):
        ctx = self.CTX
        k = singular_modulus(r, ctx)
        with ctx.workdps():
            assert abs(inverse_singular_modulus(k, ctx) - r) <= ctx.eps_check

    @pytest.mark.parametrize("x", [1 - Fraction(1, 10**60), str(1 - Fraction(1, 10**60))],
                             ids=["Fraction", "str"])
    def test_inverse_near_one_exact_input(self, x):
        # 1 - x^2 ~ 2e-60 is formed exactly; from x rounded to working
        # precision it would keep only 60 of its digits
        ctx = self.CTX
        reference = inverse_singular_modulus(x, PrecisionContext(300))
        value = inverse_singular_modulus(x, ctx)
        with ctx.workdps():
            assert abs(value / reference - 1) < ctx.eps_check

    def test_small_r_is_complement_of_reciprocal(self):
        ctx = self.CTX
        k_small = singular_modulus(Fraction(1, 400), ctx)
        k_large = singular_modulus(400, ctx)
        with ctx.workdps():
            assert abs(k_small ** 2 + k_large ** 2 - 1) <= ctx.eps_check

    def test_modulus_rounding_to_one_is_refused(self):
        # k_{1e-6} = 1 - 1e-1364 or so: 1 at 50 digits.  Refused at once
        # with a typed error, not after the AGM's iteration cap.
        with pytest.raises(QalgError) as info:
            singular_modulus(Fraction(1, 10**6), PrecisionContext(50))
        assert "AGM" not in str(info.value)


class TestModulusPair:
    """k_r and k'_r = k_{1/r}, each to full relative precision, against the
    theta quotient theta2^2/theta3^2 at r and at 1/r.  The solve keeps
    k_s's leading zero bits (about 2.27 sqrt(s)) in its exponent; past the
    working bits (s above about 4.5e4 at 120 digits) the AGM of (1, k_s)
    starts in mpf, so the grid covers both sides at every precision."""

    @pytest.mark.parametrize("digits", [60, 120, 300, 1000])
    @pytest.mark.parametrize("r", [Fraction(1, 50), 3, 70, 4 * 10 ** 4, 5 * 10 ** 4, 10 ** 6],
                             ids=str)
    def test_pair_matches_theta_quotients(self, r, digits):
        ctx = PrecisionContext(digits)
        elliptic._singular_modulus_cached.cache_clear()
        pair = elliptic._singular_values(r, ctx)[:2]
        for value, at in zip(pair, (Fraction(r), 1 / Fraction(r))):
            nome = make_nome(at, ctx)
            with ctx.workdps():
                quotient = theta2(nome) ** 2 / theta3(nome) ** 2
                assert abs(value / quotient - 1) <= mp.mpf(10) ** -digits, at


class TestSmallR:
    """Where k_r rounds to 1, K, alpha, j by the modulus and the multiplier
    take k'_r = k_{1/r} from the pair at full precision and give values;
    k itself refuses."""

    SMALL = [Fraction(1, 10 ** 4), Fraction(1, 10 ** 6), Fraction(1, 10 ** 10)]

    @pytest.mark.parametrize("r", SMALL, ids=str)
    @pytest.mark.parametrize("name, extra", [("K", {}), ("alpha", {}), ("j", {}),
                                             ("multiplier", {"n": 2})],
                             ids=["K", "alpha", "j", "multiplier"])
    def test_value_at_30_digits(self, name, extra, r):
        low, high = PrecisionContext(30), PrecisionContext(120)
        value = QUANTITIES[name].evaluate({"r": r, **extra}, low)
        reference = QUANTITIES[name].evaluate({"r": r, **extra}, high)
        with high.workdps():
            assert abs(value / reference - 1) <= mp.mpf(10) ** -low.digits

    @pytest.mark.parametrize("r", SMALL + [Fraction(1, 10 ** 60), Fraction(1, 10 ** 80)], ids=str)
    def test_j_routes_agree_or_refuse(self, r):
        # j by the modulus is about 256/k'_r^4, so a wrong k'_r shows; where
        # the solve at s = 1/r fails, as from about 1/r = 1e70, it refuses
        ctx = PrecisionContext(30)
        try:
            value = j_invariant(r, ctx)
        except QalgError:
            assert r < Fraction(1, 10 ** 60)
            return
        eta = j_invariant(r, ctx, via="eta")
        with ctx.workdps():
            assert abs(value / eta - 1) <= ctx.eps_check

    @pytest.mark.parametrize("r", SMALL, ids=str)
    def test_k_refuses(self, r):
        with pytest.raises(InsufficientPrecision):
            QUANTITIES["k"].evaluate({"r": r}, PrecisionContext(30))


class TestSingularModulusCost:
    def test_full_precision_agms(self, monkeypatch):
        # Newton runs at doubling precisions, so only the last step and the
        # residual check pay for full-precision AGMs: two each
        ctx = PrecisionContext(120)
        full = []
        agm = elliptic._agm

        def counting(man, exp, dps, csum=False):
            full.append(dps >= ctx.dps)
            return agm(man, exp, dps, csum=csum)

        monkeypatch.setattr(elliptic, "_agm", counting)
        elliptic._singular_modulus_cached.cache_clear()
        singular_modulus(2, ctx)
        assert 0 < sum(full) <= 4

    @staticmethod
    def count_agms(monkeypatch):
        calls = []
        agm = elliptic._agm

        def counting(*args):
            calls.append(args)
            return agm(*args)

        monkeypatch.setattr(elliptic, "_agm", counting)
        return calls

    @pytest.mark.parametrize("r", [2, Fraction(1, 3), 10**30], ids=str)
    def test_solve_supplies_K_and_alpha(self, r, monkeypatch):
        # K(k_r), K(k'_r) and E(k'_r) come from the AGMs of the solve's
        # last residual, so neither quantity runs an AGM of its own
        ctx = PrecisionContext(120)
        elliptic._singular_modulus_cached.cache_clear()
        singular_modulus(r, ctx)
        calls = self.count_agms(monkeypatch)
        singular_K(r, ctx)
        elliptic_alpha(r, ctx)
        assert calls == []

    @pytest.mark.parametrize("k", [Fraction(1, 3), mp.mpf("0.999")], ids=str)
    def test_inverse_shares_the_K_agm(self, k, monkeypatch):
        # K and E are memoized on (k', dps): k_i(k) = (K(k')/K(k))^2 after
        # K(k) needs only the AGM of (1, k) for K(k')
        ctx = PrecisionContext(120)
        elliptic._agm_KE.cache_clear()
        ellint_K(k, ctx)
        calls = self.count_agms(monkeypatch)
        ellint_E(k, ctx)
        inverse_singular_modulus(k, ctx)
        assert len(calls) <= 1

    def test_closed_forms_at_1000_digits(self):
        ctx = PrecisionContext(1000)
        with ctx.workdps():
            rt2 = mp.sqrt(2)
            k4 = 3 - 2 * rt2
            closed = {1: 1 / rt2, 2: rt2 - 1, 4: k4,
                      Fraction(1, 4): mp.sqrt(1 - k4 * k4)}
            for r, value in closed.items():
                assert abs(singular_modulus(r, ctx) - value) <= ctx.eps_check


class TestNoLogarithm:
    """No full-precision logarithm on the evaluation path: q^e for a
    fractional e comes from an integer root of q, and the k_r solve runs
    Newton on K'/K - sqrt(s)."""

    CTX = PrecisionContext(1000)

    @pytest.fixture
    def log_precisions(self, monkeypatch):
        calls = []
        mpf_log = libelefun.mpf_log

        def counting(x, prec, *args, **kwargs):
            calls.append(prec)
            return mpf_log(x, prec, *args, **kwargs)

        # mpf_pow finds mpf_log in libelefun; mp.ln holds its own reference
        monkeypatch.setattr(libelefun, "mpf_log", counting)
        monkeypatch.setattr(mp.mp, "ln", mp.mp._wrap_libmp_function(counting, libmp.mpc_log))
        return calls

    def test_counter_sees_both_routes(self, log_precisions):
        with self.CTX.workdps():
            mp.log(mp.mpf(3))
            mp.power(mp.mpf(3), mp.mpf(1) / 5)
        assert len(log_precisions) == 2

    def test_cold_singular_modulus(self, log_precisions):
        elliptic._singular_modulus_cached.cache_clear()
        singular_modulus(2, self.CTX)
        assert log_precisions == []

    @pytest.mark.parametrize("value", [
        lambda ctx: theta2(make_nome(2, ctx)),
        lambda ctx: rrcf(make_nome(2, ctx), "product"),
        lambda ctx: rrcf(make_nome(2, ctx), "continued_fraction"),
        lambda ctx: j_invariant(2, ctx, via="eta"),
        lambda ctx: agile_star(AgileSpec(1, 8), make_nome(2, ctx)),
        lambda ctx: tau_star(Fraction(1, 3), 4, make_nome(2, ctx)),
        lambda ctx: agile_star(AgileSpec(Fraction(5, 4), 7), make_nome(2, ctx)),
    ], ids=["theta2", "rrcf-product", "rrcf-cf", "j-eta", "agile_star", "tau_star",
            "agile_star-5/4"])
    def test_q_series(self, value, log_precisions):
        value(self.CTX)
        assert log_precisions == []

    def test_root_seed_past_2_32(self, log_precisions):
        # a root of q with d >= 2^32 is seeded by mpmath's root at
        # log2 d + 24 bits, which takes one logarithm there: d has 47 bits
        # for the products of [10^-14, 1], 96 for its star exponent
        agile_star(AgileSpec(Fraction(1, 10 ** 14), 1), make_nome(2, self.CTX))
        assert len(log_precisions) == 2 and max(log_precisions) < 150


class TestAlpha:
    def test_alpha_one_is_half(self):
        assert close(elliptic_alpha(1, CTX), Fraction(1, 2), 40, dps=CTX.dps)

    def test_closed_forms_at_1000_digits(self):
        # the closed forms of Borwein & Borwein, Pi and the AGM
        ctx = PrecisionContext(1000)
        with ctx.workdps():
            rt2 = mp.sqrt(2)
            closed = {1: mp.mpf(1) / 2, 2: rt2 - 1, 4: 2 * (rt2 - 1) ** 2}
            for r, value in closed.items():
                assert abs(elliptic_alpha(r, ctx) - value) <= ctx.eps_check, r

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

    @pytest.mark.parametrize("r", [Fraction(1, 10 ** 6), Fraction(1, 30), Fraction(1, 8),
                                   Fraction(1, 7), 1, Fraction(37, 10), 100], ids=str)
    def test_eta_route_against_kleinj(self, r):
        # mpmath's Klein J, which shares no code with qalg, at
        # tau = i sqrt(max(r, 1/r)): j(-1/tau) = j(tau), and near the real
        # axis kleinj loses digits (at tau = i/1000 and 100 digits it
        # returns 3e877 for 5.7e2728)
        value = j_invariant(r, CTX, via="eta")
        with mp.workdps(CTX.dps + 20):
            ref = 1728 * mp.kleinj(1j * mp.sqrt(to_mpf(max(r, 1 / Fraction(r))))).real
            assert abs(value / ref - 1) <= CTX.eps_check

    @pytest.mark.parametrize("digits", [120, 300, 1000])
    @pytest.mark.parametrize("r", [Fraction(1, 10 ** 4), Fraction(1, 30), Fraction(1, 5), 1,
                                   Fraction(37, 10), 10 ** 6], ids=str)
    def test_eta_route_agrees_at_every_precision(self, r, digits):
        ctx = PrecisionContext(digits)
        value, ref = j_invariant(r, ctx, via="eta"), j_invariant(r, ctx)
        with mp.workdps(ctx.dps + 10):
            assert abs(value / ref - 1) <= ctx.eps_check

    @pytest.mark.parametrize("r, nome_r", [(2, 2), (Fraction(1, 30), 120)], ids=str)
    def test_eta_route_is_one_product(self, r, nome_r, monkeypatch):
        # Weber's form needs prod (1 - q^(2n+1)) alone, at the nome of r
        # or, below R0, at the dual nome of 4/r
        calls = []
        product = elliptic._progression_product

        def counting(e0, step, nome):
            calls.append(nome.r)
            return product(e0, step, nome)

        monkeypatch.setattr(elliptic, "_progression_product", counting)
        j_invariant(r, CTX, via="eta")
        assert calls == [nome_r]

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
