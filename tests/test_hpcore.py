"""Precision context and the eq40 tail integral by convergent series."""

from fractions import Fraction

import mpmath as mp
import pytest

from qalg import DomainError, PrecisionContext
from qalg import hpcore
from qalg.hpcore import tail_integral
from qalg.modular import make_nome, sextic_theta
from qalg.precision import exact

from oracles import quad_tail_integral


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

    @pytest.mark.parametrize("x", [3, Fraction(-7, 3), "22/7"], ids=str)
    def test_exact_takes_rationals(self, x):
        assert exact(x) == Fraction(x)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_exact_takes_an_mpf_bit_for_bit(self, sign):
        with mp.workdps(300):
            x = sign * mp.pi / 10**40
            y = sign * mp.mpf(2) ** 200 * 3
        for v in (x, y):
            assert mp.sign(exact(v)) == sign
            with mp.workdps(400):
                assert mp.mpf(exact(v).numerator) / exact(v).denominator == v

    # the last one is 2^-(2^30): written out exactly, a 128 MB integer
    @pytest.mark.parametrize("x", [0.5, True, None, mp.nan, -mp.inf, "1.5.1",
                                   mp.ldexp(1, -(1 << 30))],
                             ids=["float", "bool", "None", "nan", "-inf", "malformed", "tiny"])
    def test_exact_refuses(self, x):
        with pytest.raises(DomainError):
            exact(x)


def legendre_bound(rho, e, N):
    """_legendre_sum's stated bound on the terms from N on."""
    return 6 * rho ** N / ((6 * N + e) * (1 - rho))


def taylor_bound(c, h, N):
    """_taylor_sum's stated bound on the terms from N on."""
    rho = h / c
    return (mp.e * mp.sqrt(c * c + 22 * c + 125) * rho ** N
            / (11 * (N + 1) ** (mp.mpf(5) / 6) * (1 - rho * (N + 1) / N)))


def legendre_case(kind, t):
    """(terms, run, bound) of the Legendre series about infinity at T = t
    (e = 1) or about 0 up to s = t (e = 5)."""
    A = mp.sqrt(125)
    u, e = (1 / t, 1) if kind == "infinity" else (t / 125, 5)
    return (lambda P: hpcore._legendre_terms(A * u, P),
            lambda N, P: hpcore._legendre_sum(int(mp.ldexp(u, P)), e, N, P),
            lambda N: legendre_bound(A * u, e, N))


def taylor_case(theta):
    """(terms, run, bound) of the Taylor piece from theta, as
    tail_integral takes it for sqrt(125)/2 <= theta < 2 sqrt(125)."""
    T = 2 * max(theta, mp.sqrt(125))
    c, h = (T + theta) / 2, (T - theta) / 2
    return (lambda P: hpcore._taylor_terms(c, h, P),
            lambda N, P: hpcore._taylor_sum(c, h, N, P),
            lambda N: taylor_bound(c, h, N))


class TestDroppedTail:
    """Each kernel's term count N leaves a dropped tail below the bound its
    docstring states, and that bound below 2^-P: the same kernel run to 2N
    terms moves by no more than the bound plus the rounding of N more
    terms.  The points are the ends of each region of tail_integral and
    the theta of r = 1/10, 1/5 and 1/2 (in units of sqrt(125))."""

    @pytest.mark.parametrize("P", [200, 1000, 3400])
    @pytest.mark.parametrize("kind, x", [
        ("infinity", 2), ("infinity", Fraction(708, 100)), ("infinity", 47),
        ("zero", Fraction(1, 2)), ("zero", Fraction(236, 1000)),
        ("taylor", Fraction(1, 2)), ("taylor", 1), ("taylor", Fraction(19, 10))],
        ids=lambda v: str(v))
    def test_twice_the_terms_stay_within_the_bound(self, kind, x, P):
        with mp.workprec(P + 40):
            t = mp.sqrt(125) * Fraction(x).numerator / Fraction(x).denominator
            terms, run, bound = taylor_case(t) if kind == "taylor" else legendre_case(kind, t)
            N = terms(P)
            work = P + hpcore._guard(2 * N)
            moved = abs(run(2 * N, work) - run(N, work))
            assert bound(N) <= mp.ldexp(1, -P)
            assert mp.ldexp(moved, -work) <= bound(N) + mp.ldexp(2 * N, 8 - work)


class TestTailIntegral:
    @pytest.mark.parametrize("theta", [0, -1])
    def test_refuses_nonpositive(self, theta):
        with pytest.raises(DomainError):
            tail_integral(mp.mpf(theta), PrecisionContext(30))

    # the ends of the three regions, and points just inside the next one
    @pytest.mark.parametrize("x", ["1/2", "2"])
    @pytest.mark.parametrize("side", [-1, 0])
    def test_regions_meet_the_oracle(self, x, side):
        ctx = PrecisionContext(60)
        with mp.workdps(ctx.dps + 10):
            theta = mp.sqrt(125) * Fraction(x).numerator / Fraction(x).denominator \
                + side * mp.mpf(2) ** -40
        val = tail_integral(theta, ctx)
        ref = quad_tail_integral(theta, ctx.dps)
        with mp.workdps(ctx.dps + 10):
            assert abs(val - ref) <= abs(ref) * mp.mpf(10) ** (5 - ctx.dps)

    def test_huge_theta_keeps_relative_precision(self):
        # theta at r = 10^6 is about e^6283: one or two terms, the value
        # theta^(-1/6) (6 - 66/(7 theta) + ...)
        ctx = PrecisionContext(60)
        with mp.workdps(ctx.dps + 10):
            theta = mp.exp(6283)
        val = tail_integral(theta, ctx)
        with mp.workdps(ctx.dps + 10):
            ref = theta ** (-mp.mpf(1) / 6) * (6 - mp.mpf(66) / (7 * theta))
            assert abs(val - ref) <= abs(ref) * mp.mpf(10) ** (5 - ctx.dps)


class TestFixedPointQuadrature:
    """The fixed-point lhs of theorem3_check, tail_integral at the sextic
    theta of r, against mpmath's tanh-sinh rule run in mpf on the
    integrand as written (oracles.quad_tail_integral): values within
    10^-(dps-3) relative."""

    @pytest.mark.parametrize("digits, r", [
        pytest.param(digits, r, id=f"eq40-{digits}-r{r}")
        for digits in (60, 300)
        for r in (Fraction(1, 5), Fraction(1, 2), Fraction(1))])
    def test_matches_mpf_rule(self, digits, r):
        ctx = PrecisionContext(digits)
        with ctx.workdps():
            theta = sextic_theta(make_nome(r, ctx))
        value = tail_integral(theta, ctx)
        ref = quad_tail_integral(theta, ctx.dps)
        with mp.workdps(ctx.dps + 10):
            assert abs(value - ref) <= abs(ref) * mp.mpf(10) ** (3 - ctx.dps)
