"""Continued fraction, degree-5 relations, sextic bridge, integral identities."""

import time
from fractions import Fraction

import mpmath as mp
import pytest

from qalg import (
    BranchError,
    ConvergenceError,
    DomainError,
    PrecisionContext,
    SingularError,
    eq43_derivative_check,
    incomplete_beta,
    j_invariant,
    klein_j_from_R,
    make_nome,
    modular5_check,
    ramanujan_modular5_check,
    rrcf,
    sextic_theta,
    sextic_Y_check,
    singular_modulus,
    solve_sextic,
    theorem3_check,
    theorem4_check,
)

from qalg import elliptic, modular, qengine
from qalg.qengine import _term_count

from oracles import (beta_complete_16_23, close, composite_midpoint, half_integral,
                     jtheta_rrcf, mpf_beta_series, quad_tail_integral)

CTX = PrecisionContext(60)
CTX120 = PrecisionContext(120)


class TestRRCF:
    @pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4),
                                   Fraction(1, 100), Fraction(400)])
    def test_product_equals_continued_fraction(self, r):
        for ctx in (CTX, PrecisionContext(300)):
            nome = make_nome(r, ctx)
            prod, cf = rrcf(nome, "product"), rrcf(nome, "continued_fraction")
            with ctx.workdps():
                assert abs(cf / prod - 1) < ctx.eps_check

    @pytest.mark.parametrize("digits", [30, 120, 300])
    @pytest.mark.parametrize("r", [Fraction(1, 30), Fraction(1, 100), Fraction(1, 10 ** 6),
                                   Fraction(1, 10 ** 20)], ids=str)
    def test_product_where_both_agiles_are_dual(self, r, digits, monkeypatch):
        # below r = 1/25 the product route is the quotient of two cosine
        # sums at one dual nome: no q-product is formed
        ctx = PrecisionContext(digits)
        nome = make_nome(r, ctx)
        cf = rrcf(nome, "continued_fraction")
        monkeypatch.setattr(qengine, "_progression_product", lambda *a: pytest.fail("product"))
        prod = rrcf(nome, "product")
        ref = jtheta_rrcf(r, ctx.dps + 20)
        with mp.workdps(ctx.dps + 20):
            assert abs(cf / prod - 1) < ctx.eps_check
            assert abs(prod / ref - 1) < mp.mpf(10) ** -digits

    def test_classical_value_at_r4(self):
        nome = make_nome(4, CTX)
        val = rrcf(nome)
        with CTX.workdps():
            classical = mp.sqrt((5 + mp.sqrt(mp.mpf(5))) / 2) - (1 + mp.sqrt(mp.mpf(5))) / 2
            assert close(val, classical, 55, dps=CTX.dps)
            resid = val ** 4 + 2 * val ** 3 - 6 * val ** 2 - 2 * val + 1
            assert abs(resid) < mp.mpf(10) ** -50

    def test_leading_order_small_q(self):
        nome = make_nome(400, CTX)  # q = e^(-20 pi)
        with CTX.workdps():
            ratio = rrcf(nome) / mp.power(nome.q, mp.mpf(1) / 5)
            assert close(ratio, 1, 20, dps=CTX.dps)


class TestContinuedFractionCost:
    def test_depth_fixed_in_advance(self, monkeypatch):
        # one backward recurrence at the depth where the convergent bound
        # q^((n+1)(n+2)/2) drops below the tail threshold; q, q^2, ...
        # come by multiplication, so q^(1/5) is the only power taken
        nome = make_nome(Fraction(1, 100), CTX120)
        with CTX120.workdps():
            depth = _term_count(1, Fraction(1, 2), Fraction(3, 2), nome.tail)
        calls = []
        qpow = modular._qpow

        def counting(q, e):
            calls.append(e)
            return qpow(q, e)

        monkeypatch.setattr(modular, "_qpow", counting)
        assert depth > 10
        rrcf(nome, "continued_fraction")
        assert calls == [Fraction(1, 5)]


class TestKlein:
    def test_r1_gives_1728(self):
        R = rrcf(make_nome(4, CTX))
        assert close(klein_j_from_R(R, CTX), j_invariant(1, CTX), 40, dps=CTX.dps)

    def test_r2_gives_8000(self):
        R = rrcf(make_nome(8, CTX))
        lhs = klein_j_from_R(R, CTX)
        assert close(lhs, 8000, 40, dps=CTX.dps)
        assert close(lhs, j_invariant(2, CTX), 40, dps=CTX.dps)

    def test_singular_input(self):
        with CTX.workdps():
            # R^10 + 11 R^5 - 1 = 0 at R = ((sqrt(125)-11)/2)^(1/5)
            root = mp.root((mp.sqrt(mp.mpf(125)) - 11) / 2, 5)
        with pytest.raises(SingularError):
            klein_j_from_R(root, CTX)

    def test_domain(self):
        with pytest.raises(DomainError):
            klein_j_from_R(mp.mpf(2), CTX)


class TestDegree5:
    @pytest.mark.parametrize("r", [Fraction(1), Fraction(2), Fraction(1, 5)])
    def test_modular5_residuals(self, r):
        first, second = modular5_check(make_nome(r, CTX))
        with CTX.workdps():
            assert first.diff < CTX.eps_check
            assert second.diff < CTX.eps_check

    @pytest.mark.parametrize("r", [Fraction(25), Fraction(50)])
    def test_fifth_root_transform(self, r):
        res = ramanujan_modular5_check(make_nome(r, CTX))
        with CTX.workdps():
            assert res.diff < CTX.eps_check


class TestSexticBridge:
    def test_two_routes_agree(self):
        nome = make_nome(2, CTX)
        assert close(sextic_theta(nome, "theta"), sextic_theta(nome, "rrcf"),
                     40, dps=CTX.dps)

    def test_worked_value(self):
        nome = make_nome(Fraction(1, 5), CTX)
        with CTX.workdps():
            assert close(sextic_theta(nome), 5 * mp.sqrt(mp.mpf(5)), 40, dps=CTX.dps)

    @staticmethod
    def satisfied(r):
        residuals = sextic_Y_check(make_nome(r, CTX))
        return [label for label, resid in residuals.items() if resid < CTX.eps_check]

    def test_y_check_quarter_argument(self):
        assert self.satisfied(3) == ["r/4"]

    def test_y_check_coincidence_at_r2(self):
        # j(2) = j(1/2), so both the full and the quarter argument satisfy
        satisfied = self.satisfied(2)
        assert "r/4" in satisfied and "r" in satisfied
        assert "4r" not in satisfied


class TestSolveSextic:
    def test_forward_constructed_instance(self):
        # a=1, b=250, c=20: the j target is 250*20^3/250 = 8000, i.e. r=2
        with CTX.workdps():
            Y, resid = solve_sextic(mp.mpf(1), mp.mpf(250), mp.mpf(20), CTX)
            expected = sextic_theta(make_nome(2, CTX), "rrcf")
            assert close(Y, expected, 40, dps=CTX.dps)
            assert resid.diff < CTX.eps_check

    def test_scaled_instance(self):
        # a=2, b=100, c=20: j target 250*8000/400 = 5000, r between 1 and 2,
        # and Y carries the b/(250a) = 1/5 scaling
        with CTX.workdps():
            Y, resid = solve_sextic(mp.mpf(2), mp.mpf(100), mp.mpf(20), CTX)
            assert resid.diff < CTX.eps_check
            lhs = 100 ** 2 / (20 * mp.mpf(2)) + 100 * Y + 2 * Y * Y
            assert close(lhs, 20 * Y ** (mp.mpf(5) / 3), 38, dps=CTX.dps)

    def test_below_branch(self):
        for c in ("10", "11.99999"):
            with CTX.workdps():
                c = mp.mpf(c)
            with pytest.raises(BranchError):
                solve_sextic(mp.mpf(1), mp.mpf(250), c, CTX)

    def test_negative_coefficient_ratio(self):
        # a < 0 < b passes the branch check (j target 8000) but would
        # give Y < 0, where c Y^(5/3) is not real
        with pytest.raises(DomainError):
            solve_sextic(mp.mpf(-1), mp.mpf(250), mp.mpf(20), PrecisionContext(40))

    @pytest.mark.parametrize("digits", [60, 120, 300])
    def test_branch_point(self, digits):
        # c = 12 puts the j target at 1728 = j(1), the end of the branch
        ctx = PrecisionContext(digits)
        Y, _ = solve_sextic(mp.mpf(1), mp.mpf(250), mp.mpf(12), ctx)
        expected = sextic_theta(make_nome(1, ctx), "rrcf")
        with ctx.workdps():
            assert abs(Y / expected - 1) < ctx.eps_check

    @pytest.mark.parametrize("c", [10 ** 4, 10 ** 20])
    def test_large_target(self, monkeypatch, c):
        # the r the closed form picks must give back the j target through
        # the Newton-solved singular modulus
        found = []
        inverse = modular.inverse_singular_modulus

        def recording(x, ctx):
            found.append(inverse(x, ctx))
            return found[-1]

        monkeypatch.setattr(modular, "inverse_singular_modulus", recording)
        a, b = mp.mpf(1), mp.mpf(250)
        solve_sextic(a, b, mp.mpf(c), CTX)
        jr = j_invariant(found[0], CTX)
        with CTX.workdps():
            assert abs(jr / (250 * mp.mpf(c) ** 3 / (a * a * b)) - 1) < CTX.eps_check

    def test_agm_cost(self, monkeypatch):
        # k_r in closed form: only the inverse singular modulus runs AGMs
        calls = []
        agm = elliptic._agm

        def counting(*args):
            calls.append(args)
            return agm(*args)

        monkeypatch.setattr(elliptic, "_agm", counting)
        elliptic._singular_modulus_cached.cache_clear()
        solve_sextic(mp.mpf(2), mp.mpf(100), mp.mpf(20), CTX120)
        assert len(calls) <= 2


class TestIncompleteBeta:
    def test_zero(self):
        assert incomplete_beta(0, Fraction(1, 6), Fraction(2, 3), CTX) == 0

    def test_near_one_exact_input(self):
        # 1 - x = 1e-135 is formed before rounding: from x rounded to 140
        # digits it would keep 5 digits, and B(1 - x; 2/3, 1/6) ~ 1e-90
        # would be off by about 1e-95
        x, p, q = 1 - Fraction(1, 10**135), Fraction(1, 6), Fraction(2, 3)
        ctx = PrecisionContext(120)
        reference = incomplete_beta(x, p, q, PrecisionContext(300))
        with ctx.workdps():
            assert abs(incomplete_beta(x, p, q, ctx) - reference) < ctx.eps_check

    def test_complete_value(self):
        val = incomplete_beta(1, Fraction(1, 6), Fraction(2, 3), CTX)
        with mp.workdps(90):
            truth = mp.gamma(mp.mpf(1) / 6) * mp.gamma(mp.mpf(2) / 3) / mp.gamma(mp.mpf(5) / 6)
            assert close(val, truth, 45, dps=90)

    @pytest.mark.parametrize("p, q", [(Fraction(2, 3), Fraction(1, 6)),
                                      (Fraction(1, 2), Fraction(5, 2)),
                                      (Fraction(3), Fraction(7, 3))])
    def test_complete_against_gamma_route(self, p, q):
        # the reflection takes B(p, q) from the series at 1/2; mpmath's
        # beta gets it from Gamma, as test_complete_value does for (1/6, 2/3)
        val = incomplete_beta(1, p, q, CTX)
        with mp.workdps(90):
            truth = mp.beta(mp.mpf(p.numerator) / p.denominator,
                            mp.mpf(q.numerator) / q.denominator)
            assert close(val, truth, 55, dps=90)

    def test_complete_beta_series_oracle(self):
        val = incomplete_beta(1, Fraction(1, 6), Fraction(2, 3), CTX)
        assert close(val, beta_complete_16_23(CTX.dps), 55, dps=CTX.dps)

    @pytest.mark.parametrize("p, q", [(Fraction(1, 6), Fraction(2, 3)),
                                      (Fraction(2, 3), Fraction(1, 6))])
    def test_half_vs_binomial_series(self, p, q):
        val = incomplete_beta(Fraction(1, 2), p, q, CTX)
        assert close(val, half_integral(p, q, CTX.dps), 55, dps=CTX.dps)

    @pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(3, 4)])
    def test_terminating_case(self, x):
        # q = 2 integrates in closed form: B(x; p, 2) = x^p/p - x^(p+1)/(p+1);
        # x = 3/4 goes through the reflection, whose series does not terminate
        p = Fraction(1, 6)
        val = incomplete_beta(x, p, 2, CTX)
        with mp.workdps(CTX.dps):
            xm, pm = mp.mpf(x.numerator) / x.denominator, mp.mpf(p.numerator) / p.denominator
            truth = xm ** pm / pm - xm ** (pm + 1) / (pm + 1)
            assert close(val, truth, 55, dps=CTX.dps)

    def test_uniform_case(self):
        assert close(incomplete_beta(Fraction(1, 2), Fraction(1), Fraction(1), CTX),
                     Fraction(1, 2), 45, dps=CTX.dps)

    def test_domain(self):
        with pytest.raises(DomainError):
            incomplete_beta(Fraction(3, 2), Fraction(1, 6), Fraction(2, 3), CTX)

    @pytest.mark.parametrize("digits, x, p, q", [
        pytest.param(digits, x, p, q, id=f"{digits}-x{x}-p{p}-q{q}")
        for digits in (60, 120, 300)
        for x in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
                  Fraction(9, 10), Fraction(1))
        for p, q in ((Fraction(1, 6), Fraction(2, 3)), (Fraction(2, 3), Fraction(1, 6)),
                     (Fraction(1, 4), Fraction(1, 2)), (Fraction(1), Fraction(1)),
                     (Fraction(3), Fraction(5, 2)))] + [
        pytest.param(1000, Fraction(1, 4), Fraction(1, 6), Fraction(2, 3), id="1000-x1/4"),
        pytest.param(1000, Fraction(3, 4), Fraction(3), Fraction(5, 2), id="1000-x3/4")])
    def test_integer_series_matches_hyp2f1(self, digits, x, p, q):
        ctx = PrecisionContext(digits)
        val = incomplete_beta(x, p, q, ctx)
        with mp.workdps(ctx.dps + 10):
            ref = mpf_beta_series(*(mp.mpf(v.numerator) / v.denominator for v in (x, p, q)))
            assert abs(val - ref) <= abs(ref) * mp.mpf(10) ** (3 - ctx.dps)

    @pytest.mark.parametrize("x", [Fraction(1, 10), Fraction(1, 3), Fraction(9, 10)], ids=str)
    @pytest.mark.parametrize("q", [1500, 5000])
    def test_moderate_q_summed(self, x, q):
        # within the term budget: the terms grow for up to q steps first
        val = incomplete_beta(x, Fraction(1, 2), q, CTX)
        with mp.workdps(CTX.dps + 10):
            ref = mpf_beta_series(mp.mpf(x.numerator) / x.denominator, mp.mpf(1) / 2, q)
            assert abs(val - ref) <= abs(ref) * mp.mpf(10) ** (3 - CTX.dps)

    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(7, 3)], ids=str)
    def test_reflection_at_large_q_vs_betainc(self, p, monkeypatch):
        # above x = 1/2 the complete B(p, q) comes from B(p0, q0), p0 and q0
        # in (0, 1], and exact ratios: its two series (the first two calls)
        # are not summed at q > 1, where the terms first grow for q steps
        ctx, x, q = PrecisionContext(100), Fraction(9, 10), 20000
        modular._complete_beta.cache_clear()
        qs, series = [], modular._beta_series
        monkeypatch.setattr(modular, "_beta_series", lambda *a: qs.append(a[2]) or series(*a))
        val = incomplete_beta(x, p, q, ctx)
        assert len(qs) == 3 and max(qs[:2]) <= 1
        with mp.workdps(ctx.dps + 10):
            ref = mp.betainc(mp.mpf(p.numerator) / p.denominator, q, 0, mp.mpf(x.numerator) / x.denominator)
            assert abs(val - ref) <= abs(ref) * mp.mpf(10) ** (3 - ctx.dps)

    @pytest.mark.parametrize("x, q", [(Fraction(1, 3), 10 ** 9), (Fraction(9, 10), 10 ** 6)])
    def test_large_q_refused_in_time(self, x, q):
        # mpmath's hyp2f1 raises a bare NoConvergence here after seconds;
        # the series refuses at once, past its term budget
        start = time.perf_counter()
        with pytest.raises(ConvergenceError):
            incomplete_beta(x, Fraction(1, 2), q, CTX)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("e", [-10 ** 15, -2000, -198])
    def test_tiny_x_against_mpmath(self, e):
        # below x (1 + |q - 1|) < 2^-prec the value is x^p/p from the mpf x,
        # which exact() refuses beyond 2^-(2^24); -198 is just above the cut
        x, p, q = mp.ldexp(3, e), Fraction(1, 6), Fraction(2, 3)
        val = incomplete_beta(x, p, q, CTX)
        with mp.workdps(CTX.dps + 70):
            ref = mp.betainc(mp.mpf(1) / 6, mp.mpf(2) / 3, 0, x)
            assert abs(val - ref) <= abs(ref) * mp.mpf(10) ** (3 - CTX.dps)

    def test_tiny_exact_x_against_mpmath(self):
        # an exact x = 10^-1000000 goes through the series; its prefactor
        # x^p/p needs the bits of x's exponent as much as the mpf path does
        val = incomplete_beta(Fraction(1, 10 ** 1000000), Fraction(1, 6), Fraction(2, 3), CTX)
        with mp.workdps(200):
            ref = mp.betainc(mp.mpf(1) / 6, mp.mpf(2) / 3, 0, mp.mpf(10) ** -1000000)
            assert abs(val - ref) <= abs(ref) * mp.mpf(10) ** -80

    def test_theorem3_at_r_1e30(self):
        # k_{4r}^2 is about 3e-2728752707683682 here
        ctx = PrecisionContext(30)
        res = theorem3_check(10 ** 30, ctx)
        with ctx.workdps():
            assert res.rhs > 0 and abs(res.lhs - res.rhs) < ctx.eps_check * res.rhs

    def test_complete_value_cached(self, monkeypatch):
        # a reflected call at a precision seen before sums one series, not three
        modular._complete_beta.cache_clear()
        calls, series = [], modular._beta_series
        monkeypatch.setattr(modular, "_beta_series", lambda *a: calls.append(a) or series(*a))
        x, p, q = Fraction(3, 4), Fraction(1, 6), Fraction(2, 3)
        first = incomplete_beta(x, p, q, CTX)
        assert len(calls) == 3
        assert incomplete_beta(x, p, q, CTX) == first and len(calls) == 4
        incomplete_beta(x, p, q, CTX120)
        assert len(calls) == 7


class TestIntegralIdentities:
    @pytest.mark.parametrize("r", [Fraction(1, 5), Fraction(1, 2), Fraction(1)])
    def test_tail_integral_identity(self, r):
        res = theorem3_check(r, CTX)
        with CTX.workdps():
            assert res.diff < CTX.eps_check

    def test_tail_integral_vs_composite_oracle(self):
        # brute force on the original integrand, folded by t = theta/w^6 to
        # a bounded one on (0, 1], then the plain midpoint rule; theta at
        # r = 1/5 is 5 sqrt(5)
        ctx = PrecisionContext(30)
        val = 5 * theorem3_check(Fraction(1, 5), ctx).lhs
        with ctx.workdps():
            theta = 5 * mp.sqrt(mp.mpf(5))
            f = lambda t: 1 / (t ** (mp.mpf(1) / 6) * mp.sqrt(125 + 22 * t + t * t))
            g = lambda w: f(theta / w ** 6) * 6 * theta / w ** 7
            crude = composite_midpoint(g, 0, 1, 20000)
            assert abs(val - crude) < mp.mpf(10) ** -4

    # theta < sqrt(125)/2 for r < 1/5 (the expansion about 0), theta =
    # sqrt(125) at r = 1/5 (the Taylor piece) and theta >= 2 sqrt(125)
    # from r = 1/2 on (the expansion about infinity alone)
    @pytest.mark.parametrize("digits", [60, 120])
    @pytest.mark.parametrize("r", ["1/100", "1/20", "1/10", "1/5", "1/2", "1", "5", "20"])
    def test_tail_integral_vs_quad(self, r, digits):
        ctx = PrecisionContext(digits)
        res = theorem3_check(Fraction(r), ctx)
        with ctx.workdps():
            theta = sextic_theta(make_nome(Fraction(r), ctx))
        ref = quad_tail_integral(theta, ctx.dps)
        with mp.workdps(ctx.dps + 10):
            assert abs(5 * res.lhs - ref) <= ref * mp.mpf(10) ** (5 - ctx.dps)
            assert res.diff < ctx.eps_check

    @pytest.mark.parametrize("r", [Fraction(1), Fraction(2)])
    def test_beta_derivative(self, r):
        res = eq43_derivative_check(r, CTX)
        with CTX.workdps():
            tol = mp.mpf(10) ** -(CTX.digits // 4 - 4)
            assert abs(res.lhs - res.rhs) / abs(res.rhs) < tol

    def test_stencil_refinement(self):
        # halving the step shrinks the finite-difference error ~4x
        ctx = PrecisionContext(80)
        with ctx.workdps():
            def B(rv):
                k = singular_modulus(rv, ctx)
                return incomplete_beta(k * k, Fraction(1, 6), Fraction(2, 3), ctx)

            nome = make_nome(1, ctx)
            from qalg import eta_paper
            exact = (-(mp.pi / 2) * mp.cbrt(mp.mpf(4))
                     * mp.power(nome.q, mp.mpf(1) / 6) * eta_paper(1, nome) ** 4)
            errs = []
            for h in (mp.mpf(10) ** -6, mp.mpf(10) ** -6 / 2):
                numdiff = (B(mp.mpf(1) + h) - B(mp.mpf(1) - h)) / (2 * h)
                errs.append(abs(numdiff - exact))
            ratio = errs[0] / errs[1]
            assert 3 < ratio < 5


class TestTheorem4:
    @pytest.mark.parametrize("p", [3, 5])
    def test_prime_identity(self, p):
        res = theorem4_check(p, 1, CTX)
        with CTX.workdps():
            assert res.diff < CTX.eps_check

    def test_p2_literal_fails_but_measures(self):
        # the literal expression at p=2 has an empty theta product; the
        # measurement is recorded, never asserted as an identity
        res = theorem4_check(2, 1, CTX)
        with CTX.workdps():
            assert mp.isfinite(res.diff)
            assert res.diff > mp.mpf(10) ** -2

    def test_requires_prime(self):
        with pytest.raises(DomainError):
            theorem4_check(4, 1, CTX)
