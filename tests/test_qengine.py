"""Nome, agiles, theta sums, eta products and their exact expansions."""

import random
import time
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalg import (
    AgileSpec,
    ConvergenceError,
    DomainError,
    InsufficientPrecision,
    PrecisionContext,
    ThetaSpec,
    agile,
    agile_qexpansion,
    agile_star,
    agile_via_triangular,
    eta_paper,
    eta_qexpansion,
    m_series,
    make_nome,
    star_exponent,
    tau_star,
    theta2,
    theta3,
    theta_general,
    theta_powersum,
    theta_qexpansion,
)
from qalg.elliptic import ellint_K, singular_modulus, theta_powersum_closed
from qalg import qengine
from qalg.modular import rrcf, sextic_theta
from qalg.moebius import (JacobiCharacter, PeriodicCoeffs, eta_qdlog, lambert_series,
                          theta_qdlog)
from qalg.precision import exact, to_mpf
from qalg.qengine import _qpow, _term_count

import oracles
from oracles import close, horner, machin_pi, mpf_progression_product

CTX = PrecisionContext(60)
CTX100 = PrecisionContext(100)


class TestNome:
    def test_r1_against_series_oracle(self):
        # e^(-pi) from the Machin pi and an exact exponential series
        nome = make_nome(1, CTX)
        with mp.workdps(90):
            pi = machin_pi(90)
            acc = mp.mpf(0)
            term = mp.mpf(1)
            k = 0
            while abs(term) > mp.mpf(10) ** -85:
                acc += term
                k += 1
                term *= -pi / k
            acc += term
        assert close(nome.q, acc, 58)

    def test_square_law(self):
        q1 = make_nome(1, CTX).q
        q4 = make_nome(4, CTX).q
        with CTX.workdps():
            assert close(q4, q1 * q1, 58, dps=CTX.dps)

    def test_quarter_law(self):
        qq = make_nome(Fraction(1, 4), CTX).q
        q1 = make_nome(1, CTX).q
        with CTX.workdps():
            assert close(qq * qq, q1, 58, dps=CTX.dps)

    def test_scaled(self):
        n = make_nome(2, CTX)
        assert n.scaled(Fraction(5)).r == 50

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            make_nome(0, CTX)

    @pytest.mark.parametrize("r", [mp.nan, mp.inf], ids=["nan", "inf"])
    def test_rejects_nonfinite(self, r):
        # a nan nome used to surface as a bare ValueError in the products
        with pytest.raises(DomainError):
            eta_paper(1, make_nome(r, CTX))

    @pytest.mark.parametrize("r", [10 ** 6, 10 ** 20, 10 ** 60], ids=["1e6", "1e20", "1e60"])
    def test_large_r_keeps_relative_precision(self, r):
        # exp(-x) has the relative error of x's absolute error, so
        # x = pi sqrt(r) needs log10(pi sqrt(r)) more digits than q
        ctx = PrecisionContext(50)
        q = make_nome(r, ctx).q
        ref = make_nome(r, PrecisionContext(200)).q
        with mp.workdps(220):
            assert abs(q / ref - 1) < mp.mpf(10) ** (2 - ctx.dps)


class TestAgile:
    def test_tiny_q_limit(self):
        nome = make_nome(900, CTX)  # q = e^(-30 pi) ~ 1e-41
        val = agile(AgileSpec(1, 5), nome)
        assert close(val, 1, 40)

    def test_brute_force_partial_product(self):
        nome = make_nome(2, CTX100)
        val = agile(AgileSpec(1, 5), nome)
        with mp.workdps(140):
            q = mp.exp(-mp.pi * mp.sqrt(mp.mpf(2)))
            prod = mp.mpf(1)
            for n in range(0, 60):   # q^(5*60) ~ 1e-579, tail far below 1e-80
                prod *= (1 - q ** (5 * n + 1)) * (1 - q ** (5 * n + 4))
        assert 0 < val < 1
        assert close(val, prod, 80, dps=140)

    def test_star_exponents(self):
        assert star_exponent(1, 5) == Fraction(1, 60)
        assert star_exponent(2, 5) == Fraction(-11, 60)

    def test_star_twelfth_power_at_r1(self):
        val = agile_star(AgileSpec(1, 4), make_nome(1, CTX100))
        with mp.workdps(120):
            assert close(val ** 12, 2 * mp.sqrt(mp.mpf(2)), 95, dps=120)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            AgileSpec(5, 3)
        with pytest.raises(DomainError):
            AgileSpec(0, 3)

    def test_fractional_parameters_numeric(self):
        # non-integer rational a and p are fine numerically (only the
        # exact q-expansion path needs integers)
        nome = make_nome(2, CTX)
        a, p = Fraction(1, 3), Fraction(7, 2)
        val = agile(AgileSpec(a, p), nome)
        with CTX.workdps():
            q = nome.q
            prod = mp.mpf(1)
            am = mp.mpf(1) / 3
            pm = mp.mpf(7) / 2
            for n in range(0, 40):
                prod *= (1 - q ** (pm * n + am)) * (1 - q ** (pm * n + pm - am))
            assert close(val, prod, 55, dps=CTX.dps)


class TestTheta:
    def test_tiny_q_limit(self):
        nome = make_nome(900, CTX)
        assert close(theta_general(ThetaSpec(1, 0), nome), 1, 40)

    def test_eta_times_agile_is_theta(self):
        nome = make_nome(2, CTX100)
        with mp.workdps(130):
            lhs = eta_paper(5, nome) * agile(AgileSpec(1, 5), nome)
            rhs = theta_general(ThetaSpec(Fraction(5, 2), Fraction(3, 2)), nome)
            assert close(lhs, rhs, 80, dps=130)

    def test_theta_quotient_is_normalized_rrcf(self):
        from qalg import rrcf
        nome = make_nome(1, CTX100)
        with mp.workdps(130):
            lhs = (theta_general(ThetaSpec(Fraction(5, 2), Fraction(3, 2)), nome)
                   / theta_general(ThetaSpec(Fraction(5, 2), Fraction(1, 2)), nome))
            rhs = rrcf(nome) * mp.power(nome.q, -mp.mpf(1) / 5)
            assert close(lhs, rhs, 80, dps=130)

    def test_theta3_limit(self):
        assert close(theta3(make_nome(900, CTX)), 1, 40)

    def test_theta_quotient_gives_modulus_at_r1(self):
        nome = make_nome(1, CTX)
        with CTX.workdps():
            k = theta2(nome) ** 2 / theta3(nome) ** 2
            assert close(k, 1 / mp.sqrt(mp.mpf(2)), 55, dps=CTX.dps)

    def test_theta3_squared_is_2K_over_pi(self):
        nome = make_nome(2, CTX)
        with CTX.workdps():
            K = ellint_K(singular_modulus(2, CTX), CTX)
            assert close(theta3(nome) ** 2, 2 * K / mp.pi, 55, dps=CTX.dps)


class TestThetaPowersum:
    @pytest.mark.parametrize("m", [0, 2, -2])
    def test_even_closed_form_r1(self, m):
        nome = make_nome(1, CTX)
        assert close(theta_powersum(m, nome), theta_powersum_closed(m, 1, CTX),
                     40, dps=CTX.dps)

    @pytest.mark.parametrize("m", [1, -1, 3])
    def test_odd_closed_form_r1(self, m):
        nome = make_nome(1, CTX)
        assert close(theta_powersum(m, nome), theta_powersum_closed(m, 1, CTX),
                     40, dps=CTX.dps)

    def test_direct_sum_small_window(self):
        # hand-rolled symmetric sum as an oracle
        nome = make_nome(2, CTX)
        with CTX.workdps():
            q = nome.q
            oracle = mp.mpf(0)
            for n in range(-40, 41):
                oracle += q ** (n * n + 3 * n)
            assert close(theta_powersum(3, nome), oracle, 55, dps=CTX.dps)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("r", [100, 400, 10 ** 4])
    def test_odd_closed_form_large_r(self, m, r):
        # k_{4r} = k^2/(1 + k')^2 keeps its digits as k_r -> 0; the form
        # (2 - k^2 - 2k')/k^2 cancels about 4 log10(1/k_r) of them
        nome = make_nome(r, CTX)
        direct, closed = theta_powersum(m, nome), theta_powersum_closed(m, r, CTX)
        with mp.workdps(CTX.dps + 10):
            assert abs(direct - closed) <= CTX.eps_check * abs(direct)

    def test_rejects_non_integer_m(self):
        # m = 3/2 used to be truncated to 1
        with pytest.raises(DomainError):
            theta_powersum(Fraction(3, 2), make_nome(1, CTX))
        with pytest.raises(DomainError):
            theta_powersum_closed("3/2", 1, CTX)


class TestEta:
    def test_tiny_q(self):
        assert close(eta_paper(1, make_nome(900, CTX)), 1, 40)

    def test_brute_force(self):
        nome = make_nome(2, CTX)
        with CTX.workdps():
            q = nome.q
            prod = mp.mpf(1)
            for n in range(1, 40):
                prod *= 1 - q ** (5 * n)
            assert close(eta_paper(5, nome), prod, 55, dps=CTX.dps)

    def test_eighth_power_elliptic_form_r1(self):
        nome = make_nome(1, CTX100)
        with mp.workdps(130):
            k = singular_modulus(1, CTX100)
            kp = mp.sqrt(1 - k * k)
            K = ellint_K(k, CTX100)
            lhs = eta_paper(1, nome) ** 8
            rhs = (2 ** (mp.mpf(8) / 3) / mp.pi ** 4
                   * mp.power(nome.q, -mp.mpf(1) / 3)
                   * k ** (mp.mpf(2) / 3) * kp ** (mp.mpf(8) / 3) * K ** 4)
            assert close(lhs, rhs, 80, dps=130)


class TestTriangularSeries:
    def test_c_zero(self):
        with CTX.workdps():
            assert m_series(0, mp.mpf(1) / 3, 10) == 1

    def test_direct_summation_oracle(self):
        with CTX.workdps():
            val = m_series(1, mp.mpf(1) / 2, 30)
            oracle = mp.mpf(0)
            for n in range(0, 400):
                oracle += mp.mpf(2) ** (-n * (n + 1) // 2)
            assert close(val, oracle, 55, dps=CTX.dps)

    def test_agile_assembly(self):
        nome = make_nome(2, CTX100)
        spec = AgileSpec(1, 5)
        assert close(agile(spec, nome), agile_via_triangular(spec, nome), 80, dps=130)

    @pytest.mark.parametrize("e", [4, 5, 6])
    def test_agile_assembly_small_r(self, e):
        # the numerator cancels about pi/(2p sqrt r ln 10) digits (136 at
        # r = 1e-6, where the value is 1.3e-91): the result keeps all 40
        r = Fraction(1, 10 ** e)
        spec = AgileSpec(1, 5)
        value = agile_via_triangular(spec, make_nome(r, PrecisionContext(40)))
        ref = agile(spec, make_nome(r, PrecisionContext(100)))
        with mp.workdps(130):
            assert abs(value - ref) < abs(ref) * mp.mpf(10) ** -40

    def test_small_r_in_bounded_time(self):
        # 1364 digits cancel at r = 1e-8; eta(5) on that nome is taken at
        # the dual nome, so only the two series grow with 1/sqrt(r)
        r, spec = Fraction(1, 10 ** 8), AgileSpec(1, 5)
        start = time.monotonic()
        value = agile_via_triangular(spec, make_nome(r, PrecisionContext(40)))
        assert time.monotonic() - start < 2
        ref = agile(spec, make_nome(r, PrecisionContext(60)))
        with mp.workdps(100):
            assert abs(value - ref) < abs(ref) * mp.mpf(10) ** -40

    def test_base_domain(self):
        with CTX.workdps():
            with pytest.raises(DomainError):
                m_series(mp.mpf(1) / 2, mp.mpf(1), 10)


class TestDuplicationRatio:
    def test_definition(self):
        nome = make_nome(1, CTX)
        spec = AgileSpec(1, 5)
        with CTX.workdps():
            direct = (agile_star(spec, nome.scaled(Fraction(2)))
                      / agile_star(spec, nome))
            assert close(tau_star(1, 5, nome), direct, 55, dps=CTX.dps)

    def test_mpf_r_is_taken_exactly(self):
        # an mpf r is the dyadic rational it stores: the nome at 4r that
        # tau_star takes must not round it to the caller's 53 bits
        with CTX.workdps():
            r = mp.mpf(1) / 3
        nome = make_nome(r, CTX)
        assert nome.r == exact(r)
        assert tau_star(1, 5, nome) == tau_star(1, 5, make_nome(exact(r), CTX))

    def test_positive_parameters_required(self):
        nome = make_nome(1, CTX)
        with pytest.raises(DomainError):
            tau_star(Fraction(-1, 2), 5, nome)

    @pytest.mark.parametrize("multiple", [1, 2])
    def test_multiple_of_p_refused(self, multiple):
        # a in pZ puts the factor 1 - q^0 = 0 in both products
        nome = make_nome(2, PrecisionContext(40))
        with pytest.raises(DomainError):
            tau_star(5 * multiple, 5, nome)

    def test_shift_and_mirror_symmetry(self):
        rng = random.Random(20240817)
        nome = make_nome(2, CTX)
        checked = 0
        for _ in range(20):
            p = Fraction(rng.randint(2, 9))
            a = Fraction(rng.randint(1, 12), rng.randint(1, 8))
            while a >= p:
                a /= 2
            base = tau_star(a, p, nome)
            for n in (1, 2):
                for shifted in (n * p + a, n * p - a):
                    assert close(tau_star(shifted, p, nome), base, 50, dps=CTX.dps)
                    checked += 1
        assert checked == 80


class TestExactExpansions:
    def test_first_coefficient(self):
        s = agile_qexpansion(1, 5, 12)
        assert s[0] == 1 and s[1] == -1

    def test_complement_product_is_euler_product(self):
        n = 100
        lhs = (agile_qexpansion(1, 5, n) * agile_qexpansion(2, 5, n)
               * eta_qexpansion(5, n))
        rhs = eta_qexpansion(1, n)
        assert lhs == rhs

    def test_theta_expansion_equals_eta_times_agile(self):
        n = 100
        assert theta_qexpansion(5, 1, n) == eta_qexpansion(5, n) * agile_qexpansion(1, 5, n)

    def test_formal_numeric_consistency(self):
        nome = make_nome(4, CTX)   # q ~ 1.9e-3, order 40 gives ~1e-109 tail
        s = agile_qexpansion(1, 5, 40)
        with CTX.workdps():
            assert close(horner(s.coeffs, nome.q), agile(AgileSpec(1, 5), nome), 55,
                         dps=CTX.dps)

    def test_requires_integer_parameters(self):
        with pytest.raises(Exception):
            agile_qexpansion(1, 5, 0)


class TestThetaProductGrid:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_eta_agile_theta_all_pairs(self, r):
        # every integer pair 1 <= a < p <= 12 at moderate precision
        ctx = PrecisionContext(40)
        nome = make_nome(r, ctx)
        with ctx.workdps():
            for p in range(2, 13):
                ep = eta_paper(p, nome)
                for a in range(1, p):
                    lhs = ep * agile(AgileSpec(a, p), nome)
                    rhs = theta_general(
                        ThetaSpec(Fraction(p, 2), Fraction(p - 2 * a, 2)), nome)
                    assert close(lhs, rhs, 20, dps=ctx.dps), (a, p, r)


class TestTermBudget:
    @pytest.mark.parametrize("walk", [
        lambda nome: qengine._agile_raw(Fraction(1), Fraction(5), nome),
        lambda nome: qengine._eta(Fraction(5), nome, False),
        lambda nome: agile_via_triangular(AgileSpec(1, 5), nome),
    ], ids=["agile", "eta_paper", "agile_via_triangular"])
    def test_nome_too_close_to_one(self, walk):
        # r = 10^-14 needs about 7e7 factors per direct product: refused up
        # front (agile and eta_paper take the dual nome there instead)
        nome = make_nome(Fraction(1, 10 ** 14), PrecisionContext(30))
        start = time.monotonic()
        with pytest.raises(ConvergenceError):
            walk(nome)
        assert time.monotonic() - start < 1


class TestTailThreshold:
    """The threshold is worked out at 30 digits; its ceiling must be the
    one the full working precision gives, over r in [10^-4, 10^4] and
    60-1000 digits."""

    @pytest.mark.parametrize("exact", [True, False], ids=["Fraction", "mpf"])
    def test_matches_full_precision(self, exact):
        rng = random.Random(13)
        draws = [(-4, 60), (4, 60), (-4, 1000), (4, 1000)] + [
            (rng.uniform(-4, 4), rng.randint(60, 1000)) for _ in range(40)]
        for e, digits in draws:
            ctx = PrecisionContext(digits)
            with ctx.workdps():
                if exact:
                    r = Fraction(10 ** e).limit_denominator(10 ** 6)
                else:
                    r = mp.power(10, mp.mpf(e) + mp.sqrt(2) / 10 ** 6)
                nome = make_nome(r, ctx)
                full = int(mp.ceil(mp.mpf(ctx.digits + ctx.guard) / (-mp.log10(nome.q))))
                assert nome.tail == full, (r, digits)


# every caller of the shared truncation rule not covered above
WALKS = {
    "eta_paper5": lambda nome: eta_paper(5, nome),
    "theta2": theta2,
    "theta3": theta3,
    "theta_powersum3": lambda nome: theta_powersum(3, nome),
    "theta_qdlog": lambda nome: theta_qdlog(
        ThetaSpec(Fraction(5, 2), Fraction(1, 2)), nome),
    "tau_star_shifted": lambda nome: tau_star(Fraction(23, 2), 5, nome),
    "lambert_series": lambda nome: lambert_series(JacobiCharacter(5), nome),
    "eta_qdlog5": lambda nome: eta_qdlog(5, nome),
    "agile_via_triangular": lambda nome: agile_via_triangular(AgileSpec(1, 5), nome),
}


class TestPrecisionStability:
    @pytest.mark.parametrize("r", [Fraction(1, 100), Fraction(2)], ids=["r1/100", "r2"])
    @pytest.mark.parametrize("walk", list(WALKS.values()), ids=list(WALKS))
    def test_walk_digits_monotone(self, walk, r):
        lo = walk(make_nome(r, PrecisionContext(40)))
        hi = walk(make_nome(r, PrecisionContext(80)))
        assert close(lo, hi, 39, dps=100)

    def test_agile_digits_monotone(self):
        lo = agile(AgileSpec(1, 5), make_nome(2, PrecisionContext(40)))
        hi = agile(AgileSpec(1, 5), make_nome(2, PrecisionContext(80)))
        assert close(lo, hi, 39, dps=100)

    def test_theta_digits_monotone(self):
        spec = ThetaSpec(Fraction(5, 2), Fraction(1, 2))
        lo = theta_general(spec, make_nome(1, PrecisionContext(40)))
        hi = theta_general(spec, make_nome(1, PrecisionContext(80)))
        assert close(lo, hi, 39, dps=100)


# every caller of the product kernel: eta_paper, agile (both progressions
# of a two-sided product) and tau_star with a > p, whose leading factors
# 1 - q^e with e <= 0 stay out of the fixed-point loop; eta_paper and agile
# through their direct kernels, which the public calls leave below R0
PRODUCTS = (
    [lambda nome, m=m: qengine._eta(Fraction(m), nome, False) for m in (1, Fraction(1, 2), 10)]
    + [lambda nome, s=s: qengine._agile_raw(*map(Fraction, s), nome)
       for s in ((1, 5), (Fraction(1, 2), 4), (5, 12))]
    + [lambda nome, s=s: tau_star(*s, nome)
       for s in ((7, 5), (13, 5), (Fraction(9, 2), 2))])


def _reference_product(e0, step, t, qstep, nome):
    count = _term_count(e0, 0, step, nome.tail) + 1
    return mpf_progression_product(t, qstep, count)


class TestFixedPointProduct:
    """The fixed-point product kernel against the plain mpf loop over the
    same factors, to 10^-(dps-3) relative.  At r = 10^-4 eta(1) is about
    1e-23, so the running product must keep its relative precision."""

    @pytest.mark.parametrize("digits, r", [
        pytest.param(digits, r, id=f"{digits}-r{r}") for digits in (60, 300, 1000)
        for r in (Fraction(1, 10 ** 4), Fraction(1, 100), Fraction(1, 5), Fraction(1),
                  Fraction(37, 10), Fraction(100), Fraction(400))
        if digits < 1000 or r >= Fraction(1, 100)])
    def test_matches_mpf_loop(self, digits, r, monkeypatch):
        ctx = PrecisionContext(digits)
        nome = make_nome(r, ctx)
        with ctx.workdps():
            fixed = [walk(nome) for walk in PRODUCTS]
            monkeypatch.setattr(qengine, "_progression_product", _reference_product)
            reference = [walk(nome) for walk in PRODUCTS]
        with mp.workdps(ctx.dps + 10):
            for i, (x, ref) in enumerate(zip(fixed, reference)):
                assert abs(x - ref) <= abs(ref) * mp.mpf(10) ** (3 - ctx.dps), i


@lru_cache(maxsize=None)
def _nome_pair(r, digits):
    ctx = PrecisionContext(digits)
    return make_nome(r, ctx), make_nome(r, ctx.doubled())


QPOW_R = [Fraction(1, 100), Fraction(1), Fraction(2), Fraction(10 ** 6),
          Fraction(10 ** 20), Fraction(10 ** 40)]
FRACTIONAL = st.one_of(
    st.sampled_from([Fraction(1, 4), Fraction(1, 5), Fraction(1, 24), Fraction(-1, 24),
                     Fraction(-1, 3), Fraction(1, 6)]),
    st.integers(0, 7).map(lambda t: Fraction(-(2 * t + 1) ** 2, 4)),
    st.integers(2, 12).flatmap(lambda p: st.integers(1, p - 1).map(
        lambda a: star_exponent(a, p))).filter(lambda e: e.denominator > 1),
)


class TestQPow:
    """q^e from the nome's x = pi sqrt(r): a fractional e agrees with
    mpmath's power of q at twice the digits, and an integer e is the
    same power of q, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(e=FRACTIONAL, r=st.sampled_from(QPOW_R), digits=st.sampled_from([120, 1000]))
    def test_fractional_matches_doubled_power(self, e, r, digits):
        nome, nome2 = _nome_pair(r, digits)
        with nome.ctx.workdps():
            value = _qpow(nome, e)
        with nome2.ctx.workdps():
            ref = mp.power(nome2.q, to_mpf(e))
            assert abs(value - ref) <= abs(ref) * mp.mpf(10) ** -digits

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(-60, 60), r=st.sampled_from(QPOW_R),
           digits=st.sampled_from([120, 1000]))
    def test_integer_is_power_of_q(self, n, r, digits):
        nome = _nome_pair(r, digits)[0]
        with nome.ctx.workdps():
            assert _qpow(nome, Fraction(n))._mpf_ == mp.power(nome.q, n)._mpf_


class TestTermCount:
    """The closed form on integers against a scan for the smallest n >= 2."""

    @settings(max_examples=200, deadline=None)
    @given(e0=st.fractions(-50, 50, max_denominator=24),
           a=st.one_of(st.just(Fraction(0)),
                       st.fractions(Fraction(1, 24), 20, max_denominator=24)),
           b=st.fractions(-20, 20, max_denominator=24),
           stop=st.one_of(st.integers(0, 10 ** 4), st.fractions(0, 10 ** 4, max_denominator=12)))
    def test_matches_scan(self, e0, a, b, stop):
        if not a:
            b = abs(b) + Fraction(1, 2)     # a linear count needs b > 0
        n = 2
        while a * n * n + b * n + e0 <= stop:
            n += 1
        assert _term_count(e0, a, b, stop) == n

    def test_budget(self):
        budget = qengine._MAX_TERMS
        assert _term_count(0, 0, 1, budget - 1) == budget
        assert _term_count(0, 1, 0, budget * budget - 1) == budget
        for args in [(0, 0, 1, budget), (0, 1, 0, budget * budget)]:
            with pytest.raises(ConvergenceError):
                _term_count(*args)


def _with_qpow(e, f):
    def call(nome):
        with nome.ctx.workdps():
            return +(_qpow(nome, e) * f(nome))
    return call


# name -> (library call, the plain mpf loop over the same terms)
THETA_WIDE = [(Fraction(1), Fraction(5, 2)), (Fraction(1, 2), Fraction(7, 4)),
              (Fraction(5, 2), Fraction(-13, 2))]
QDLOG_SPECS = [(Fraction(5, 2), Fraction(1, 2)), (Fraction(5, 2), Fraction(3, 2)),
               (Fraction(1), Fraction(0)), (Fraction(1), Fraction(5, 2))]
LAMBERT_X = {"chi1": JacobiCharacter(1), "chi5": JacobiCharacter(5),
             "rational": PeriodicCoeffs(("1/3", "-2/7", "-2/7", "1/3", "0")),
             "from_n2": PeriodicCoeffs(("0", "3/2", "1", "3/2", "0", "0"))}
FIXED_POINT_SUMS = {
    "eta_paper1": (lambda n: eta_paper(1, n), lambda n: oracles.mpf_eta(1, n)),
    "agile15": (lambda n: agile(AgileSpec(1, 5), n), lambda n: oracles.mpf_agile(1, 5, n)),
    "theta2": (theta2, _with_qpow(Fraction(1, 4), lambda n: oracles.mpf_theta_powersum(1, n))),
    "theta3": (theta3, lambda n: oracles.mpf_theta_powersum(0, n)),
    "continued_fraction": (lambda n: rrcf(n, "continued_fraction"),
                           oracles.mpf_continued_fraction),
    **{f"powersum{m}": (lambda n, m=m: theta_powersum(m, n),
                        lambda n, m=m: oracles.mpf_theta_powersum(m, n))
       for m in range(-9, 10)},
    **{f"theta({a},{b})": (lambda n, a=a, b=b: theta_general(ThetaSpec(a, b), n),
                           lambda n, a=a, b=b: oracles.mpf_theta_general(a, b, n))
       for a, b in THETA_WIDE},
    **{f"lambert_{k}": (lambda n, X=X: lambert_series(X, n),
                        lambda n, X=X: oracles.mpf_lambert(X, n))
       for k, X in LAMBERT_X.items()},
    **{f"theta_qdlog({a},{b})": (lambda n, a=a, b=b: theta_qdlog(ThetaSpec(a, b), n),
                                 lambda n, a=a, b=b: oracles.mpf_theta_qdlog(a, b, n))
       for a, b in QDLOG_SPECS},
}
SUM_R = [Fraction(1, 100), Fraction(1, 5), Fraction(1), Fraction(2),
         Fraction(10 ** 6), Fraction(10 ** 20)]


class TestFixedPointSums:
    """Every fixed-point q-series loop against the mpf loop over the same
    terms at doubled precision, to 10^-digits relative."""

    @pytest.mark.parametrize("digits, r", [
        pytest.param(digits, r, id=f"{digits}-r{r}") for digits in (30, 120, 300, 1000)
        for r in SUM_R if digits < 1000 or r >= 1])
    def test_matches_mpf_loops(self, digits, r):
        ctx = PrecisionContext(digits)
        nome, wide = make_nome(r, ctx), make_nome(r, ctx.doubled())
        off = []
        for name, (fixed, loop) in FIXED_POINT_SUMS.items():
            value, ref = fixed(nome), loop(wide)
            with mp.workdps(2 * ctx.dps):
                if abs(value - ref) > abs(ref) * mp.mpf(10) ** -digits:
                    off.append((name, mp.nstr(abs(value / ref - 1), 3)))
        assert off == []


def _theta_reference(a, b, r, dps):
    """sum (-1)^n q^(a n^2 + b n) by Poisson summation, x = pi sqrt(r):
    e^(b^2 x/(4a)) sqrt(pi/(a x)) theta_2(pi b/(2a), e^(-pi^2/(a x))),
    with mpmath's jtheta at the dual nome."""
    with mp.workdps(dps):
        a, b = oracles._num(Fraction(a)), oracles._num(Fraction(b))
        x = mp.pi * mp.sqrt(oracles._num(Fraction(r)))
        return (mp.exp(b * b * x / (4 * a)) * mp.sqrt(mp.pi / (a * x))
                * mp.jtheta(2, mp.pi * b / (2 * a), mp.exp(-mp.pi ** 2 / (a * x))))


class TestAlternatingCancellation:
    """At small r an alternating theta sum is far smaller than its terms:
    the cancelled bits are counted exactly on the integers, and the sum
    is rerun wider or refused, never returned wrong."""

    @pytest.mark.parametrize("digits", [30, 120, 300])
    def test_theta4_against_dual_nome(self, digits):
        value = theta_general(ThetaSpec(1, 0),
                              make_nome(Fraction(1, 10 ** 4), PrecisionContext(digits)))
        ref = _theta_reference(1, 0, Fraction(1, 10 ** 4), digits + 40)
        assert mp.nstr(ref, 20) == "1.5546088997975110232e-33"
        with mp.workdps(digits + 40):
            assert abs(value - ref) <= abs(ref) * mp.mpf(10) ** -digits

    @pytest.mark.parametrize("digits", [30, 50, 120, 300])
    @pytest.mark.parametrize("a, b", [(1, 0), (Fraction(5, 2), Fraction(1, 2))])
    def test_value_or_refusal(self, a, b, digits):
        # the values are 5.09e-340 and 1.39e-135, from terms of size 1
        r = Fraction(1, 10 ** 6)
        try:
            value = theta_general(ThetaSpec(a, b), make_nome(r, PrecisionContext(digits)))
        except InsufficientPrecision:
            return
        ref = _theta_reference(a, b, r, digits + 40)
        with mp.workdps(digits + 40):
            assert abs(value - ref) <= abs(ref) * mp.mpf(10) ** -digits

    def test_refused_through_qdlog(self):
        nome = make_nome(Fraction(1, 10 ** 6), PrecisionContext(30))
        with pytest.raises(InsufficientPrecision):
            theta_qdlog(ThetaSpec(Fraction(5, 2), Fraction(1, 2)), nome)

    @pytest.mark.parametrize("digits", [30, 120])
    @pytest.mark.parametrize("r", [Fraction(1, 5), Fraction(1), Fraction(2)], ids=str)
    def test_no_rerun_from_one_fifth(self, r, digits, monkeypatch):
        # the harness's theta sums, theta(p/2, (p-2j)/2) for p <= 12, and
        # their log-derivatives sum once: a rerun would build a new nome
        nome = make_nome(r, PrecisionContext(digits))
        monkeypatch.setattr(qengine, "make_nome", lambda *args: pytest.fail("rerun"))
        specs = [ThetaSpec(1, 0)] + [ThetaSpec(Fraction(p, 2), Fraction(p - 2 * j, 2))
                                      for p in range(2, 13) for j in range(1, p)]
        for spec in specs:
            theta_general(spec, nome)
            theta_qdlog(spec, nome)

    def test_identically_zero(self):
        # b - a a multiple of 2a: the terms n and -1-n cancel in pairs
        nome = make_nome(2, CTX)
        assert theta_general(ThetaSpec(1, 3), nome) == 0
        with pytest.raises(DomainError):
            theta_qdlog(ThetaSpec(1, 3), nome)


# name -> (the public call, its direct kernel, s): the public call takes
# the dual nome where r < R0 and s r < 1 (qengine._dual)
DUAL_CASES = {
    **{f"eta_paper({m})": (lambda n, m=m: eta_paper(m, n),
                           lambda n, m=m: qengine._eta(Fraction(m), n, False),
                           Fraction(m) ** 2 / 4)
       for m in (1, Fraction(1, 2), 2, 5)},
    **{f"theta({a},{b})": (lambda n, a=a, b=b: theta_general(ThetaSpec(a, b), n),
                           lambda n, a=a, b=b: qengine._theta(a, b, n, False),
                           4 * a * a)
       for a, b in [(Fraction(1), Fraction(0)), (Fraction(5, 2), Fraction(1, 2)),
                    (Fraction(5, 2), Fraction(3, 2))] + THETA_WIDE},
    **{f"powersum{m}": (lambda n, m=m: theta_powersum(m, n),
                        lambda n, m=m: qengine._powersum(m, n, False), 1)
       for m in (0, 1, 2, 3, -3)},
    "theta2": (theta2, _with_qpow(Fraction(1, 4), lambda n: qengine._powersum(1, n, False)), 1),
    **{f"agile({a},{p})": (lambda n, a=a, p=p: agile(AgileSpec(a, p), n),
                           lambda n, a=a, p=p: qengine._agile_raw(Fraction(a), Fraction(p), n),
                           Fraction(p) ** 2)
       for a, p in ((1, 5), (2, 5), (1, 2), (Fraction(1, 3), Fraction(7, 2)))},
    "agile_star(1,4)": (lambda n: agile_star(AgileSpec(1, 4), n),
                        _with_qpow(star_exponent(1, 4), lambda n: qengine._agile_raw(
                            Fraction(1), Fraction(4), n)), 16),
    # the fraction at 16/r against the direct product route
    "rrcf(continued_fraction)": (
        lambda n: rrcf(n, "continued_fraction"),
        _with_qpow(Fraction(1, 5), lambda n: qengine._agile_raw(Fraction(1), Fraction(5), n)
                   / qengine._agile_raw(Fraction(2), Fraction(5), n)),
        Fraction(1, 4)),
}


def _dual_mismatches(digits, r_of):
    """The DUAL_CASES whose two routes differ by more than eps_check
    relative, each at r = r_of(s); every public call must take the dual."""
    ctx = PrecisionContext(digits)
    off = []
    for name, (public, direct, s) in DUAL_CASES.items():
        nome = make_nome(r_of(s), ctx)
        assert qengine._dual(nome, s), name
        with ctx.workdps():
            value, ref = public(nome), direct(nome)
        with mp.workdps(ctx.dps + 10):
            if abs(value - ref) > abs(ref) * ctx.eps_check:
                off.append((name, nome.r, mp.nstr(abs(value / ref - 1), 3)))
    return off


class TestDualNome:
    """Below R0 the sums are taken at the dual nome; the direct kernels
    are the reference."""

    @pytest.mark.parametrize("digits", [60, 120, 300])
    @pytest.mark.parametrize("t", [Fraction(15, 16), Fraction(3, 4), Fraction(1, 2)], ids=str)
    def test_matches_direct_below_switch(self, digits, t):
        # a band just below where each sum switches: R0, or 1/s below it
        assert _dual_mismatches(digits, lambda s: t * min(qengine.R0, 1 / Fraction(s))) == []

    @pytest.mark.parametrize("digits", [60, 120])
    @pytest.mark.parametrize("r", [Fraction(1, 10 ** 3), Fraction(1, 10 ** 4)], ids=str)
    def test_direct_kernels_far_below(self, digits, r):
        # the direct kernels keep their digits where the dual is taken
        assert _dual_mismatches(digits, lambda s: r) == []

    def test_direct_from_R0(self):
        nome = make_nome(qengine.R0, CTX)
        assert not any(qengine._dual(nome, s) for _, _, s in DUAL_CASES.values())

    @pytest.mark.parametrize("e", [4, 8, 12, 14, 20])
    def test_table_at_small_r(self, e):
        # theta_3 = r^(-1/4) theta_3(e^(-pi/sqrt r)) by mpmath; the rest
        # of the small-r table gives positive values
        nome = make_nome(Fraction(1, 10 ** e), CTX)
        with mp.workdps(CTX.dps + 20):
            ref = mp.mpf(10) ** (e / mp.mpf(4)) * mp.jtheta(3, 0, mp.exp(-mp.pi * 10 ** (e / 2)))
            assert abs(theta3(nome) - ref) <= ref * CTX.eps_check
        for walk in (lambda n: agile(AgileSpec(1, 5), n), rrcf, theta3,
                     lambda n: eta_paper(1, n), sextic_theta):
            assert mp.isfinite(walk(nome)) and walk(nome) > 0
