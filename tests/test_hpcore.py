"""Precision context and quadrature."""

from fractions import Fraction

import mpmath as mp
import pytest

from mpmath.libmp import to_fixed

from qalg import ConvergenceError, DomainError, PrecisionContext, integrate
from qalg import hpcore, modular
from qalg.precision import exact

from oracles import mpf_tanh_sinh


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


def as_mpf(f):
    """An mpf function evaluating the fixed-point integrand f 20 bits
    above the current working precision."""
    def g(x):
        prec = mp.mp.prec + 20
        return mp.ldexp(f(int(to_fixed(mp.mpf(x)._mpf_, prec)), prec), -prec)
    return g


def as_fixed(g):
    """A fixed-point integrand from the mpf function g, evaluated 10 bits
    above the precision it is asked for."""
    def f(x, prec):
        with mp.workprec(prec + 10):
            return int(to_fixed(g(mp.ldexp(x, -prec))._mpf_, prec))
    return f


class _Captured(Exception):
    pass


def eq40_integrand(r, ctx):
    """The fixed-point integrand theorem3_check hands to integrate."""
    seen = {}

    def capture(f, lo, hi, ctx):
        seen["f"] = f
        raise _Captured

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modular, "integrate", capture)
        with pytest.raises(_Captured):
            modular.theorem3_check(r, ctx)
    return seen["f"]


class TestIntegrate:
    def test_constant(self):
        ctx = PrecisionContext(40)
        assert abs(integrate(lambda x, prec: 1 << prec, 0, 1, ctx) - 1) < mp.mpf(10) ** -35

    def test_empty_interval(self):
        ctx = PrecisionContext(30)
        assert integrate(lambda x, prec: x, 1, 1, ctx) == 0

    def test_infinite_needs_decay(self):
        ctx = PrecisionContext(30)
        with pytest.raises(DomainError):
            integrate(lambda x, prec: (1 << 3 * prec) // (x * x), 1, None, ctx)

    @pytest.mark.parametrize("lo, hi", [(1, 0), (0, mp.inf)], ids=["reversed", "infinite"])
    def test_reversed_or_infinite_limit(self, lo, hi):
        ctx = PrecisionContext(30)
        with pytest.raises(DomainError):
            integrate(lambda x, prec: x, lo, hi, ctx)

    def test_one_pass_on_eq40_integrand(self, monkeypatch):
        # at 120 digits r = 1/5 is integrated in two pieces, each to degree
        # 6: on each piece integrate may evaluate the integrand no more
        # often than one mp.quad pass up to degree 6 does
        ctx = PrecisionContext(120)
        pieces = []

        def spy(f, lo, hi, ctx):
            calls = []
            pieces.append((f, lo, hi, calls))
            return integrate(lambda w, prec: calls.append(w) or f(w, prec), lo, hi, ctx)

        monkeypatch.setattr(modular, "integrate", spy)
        modular.theorem3_check(Fraction(1, 5), ctx)
        assert len(pieces) == 2
        for f, lo, hi, calls in pieces:
            g, reference = as_mpf(f), []
            with mp.workdps(ctx.dps + 10):
                mp.quad(lambda w: reference.append(w) or g(w), [lo, hi], maxdegree=6)
            assert 0 < len(calls) <= len(reference)

    def test_kink_does_not_converge(self):
        ctx = PrecisionContext(30)
        with pytest.raises(ConvergenceError):
            integrate(lambda x, prec: abs(3 * x - (1 << prec)) // 3, 0, 1, ctx)


class TestFixedPointQuadrature:
    """The fixed-point rule against mpmath's tanh-sinh run in mpf on the
    same integrand: the same degrees, the same number of integrand
    evaluations, and values within 10^-(dps-3) relative."""

    @pytest.mark.parametrize("digits, case", [
        pytest.param(digits, r, id=f"eq40-{digits}-r{r}")
        for digits in (60, 300, 1000)
        for r in (Fraction(1, 5), Fraction(1, 2), Fraction(1))
        if digits < 1000 or r == 1] + [
        # int_{-1}^{2} e^x dx = e^2 - e^-1 exercises the affine map
        pytest.param(60, "exp", id="exp-60")])
    def test_matches_mpf_rule(self, digits, case, monkeypatch):
        ctx = PrecisionContext(digits)
        if case == "exp":
            f, lo, hi = as_fixed(mp.exp), -1, 2
        else:
            f, lo, hi = eq40_integrand(case, ctx), 0, 1
        degrees, calls = [], []
        nodes = hpcore._nodes

        def spy(degree, P):
            degrees.append(degree)
            return nodes(degree, P)

        monkeypatch.setattr(hpcore, "_nodes", spy)
        value = integrate(lambda x, prec: calls.append(x) or f(x, prec), lo, hi, ctx)
        ref, evaluations = mpf_tanh_sinh(
            as_mpf(f), lo, hi, ctx.dps, ctx.digits - ctx.guard // 2)
        assert degrees == list(range(1, len(degrees) + 1))
        assert len(calls) == evaluations
        with mp.workdps(ctx.dps + 10):
            assert abs(value - ref) <= abs(ref) * mp.mpf(10) ** (3 - ctx.dps)
            if case == "exp":
                assert abs(value - (mp.e ** 2 - 1 / mp.e)) < mp.mpf(10) ** -(digits - 5)

    def test_nodes_match_mpf(self):
        # each node's exponential is tapered; x and w stay within 2^8 units
        # of 2^-P of tanh(pi/2 sinh t) and pi/2 cosh t/cosh(pi/2 sinh t)^2
        # (full-width exponentials give 68 and 141 here, from the stepping
        # of a and b)
        with mp.workdps(300 + 30):
            P = mp.mp.prec + hpcore._GUARD
        with mp.workprec(P + 40):
            for degree in range(1, 8):
                h = mp.ldexp(1, -degree)
                for k, (x, w) in enumerate(hpcore._nodes(degree, P)):
                    t = k * h if degree == 1 else (2 * k + 1) * h
                    s = mp.pi / 2 * mp.sinh(t)
                    assert abs(x - mp.ldexp(mp.tanh(s), P)) < 2 ** 8
                    assert abs(w - mp.ldexp(mp.pi / 2 * mp.cosh(t) / mp.cosh(s) ** 2, P)) < 2 ** 8


class TestEq40Split:
    """theorem3_check cuts [0, 1] in two exactly where the two pieces stop
    one degree below the whole interval."""

    @staticmethod
    def degrees_of(run, monkeypatch):
        """(value, highest degree of each integrate call) of run()."""
        degrees, nodes = [], hpcore._nodes

        def spy(degree, P):
            if degree == 1:
                degrees.append(0)
            degrees[-1] = degree
            return nodes(degree, P)

        monkeypatch.setattr(hpcore, "_nodes", spy)
        value = run()
        monkeypatch.setattr(hpcore, "_nodes", nodes)
        return value, degrees

    # s is where the two pieces' nearest zeros lie equally deep; whether
    # cutting there lowers the degree depends on r and on the precision
    @pytest.mark.parametrize("r, digits, s, cut", [
        pytest.param(r, digits, s, cut, id=f"r{r}-{digits}")
        for r, digits, s, cut in (
            (Fraction(1, 5), 60, Fraction(41, 64), False),
            (Fraction(1, 5), 120, Fraction(41, 64), True),
            (Fraction(1, 5), 200, Fraction(41, 64), False),
            (Fraction(1, 5), 300, Fraction(41, 64), True),
            (Fraction(1, 2), 120, Fraction(5, 8), False),
            (Fraction(1, 2), 300, Fraction(5, 8), True),
            (Fraction(1), 120, Fraction(9, 16), False),
            (Fraction(1), 200, Fraction(9, 16), True))])
    def test_cut_only_where_the_degree_drops(self, r, digits, s, cut, monkeypatch):
        ctx = PrecisionContext(digits)
        f = eq40_integrand(r, ctx)
        whole, (degree,) = self.degrees_of(lambda: integrate(f, 0, 1, ctx), monkeypatch)
        halves, degrees = self.degrees_of(
            lambda: [integrate(f, 0, s, ctx), integrate(f, s, 1, ctx)], monkeypatch)
        assert (degrees == [degree - 1] * 2) == cut
        assert cut or max(degrees) == degree
        pieces = []

        def spy(f, lo, hi, ctx):
            pieces.append((lo, hi))
            return integrate(f, lo, hi, ctx)

        monkeypatch.setattr(modular, "integrate", spy)
        modular.theorem3_check(r, ctx)
        assert pieces == ([(0, s), (s, 1)] if cut else [(0, 1)])
        with mp.workdps(ctx.dps + 10):
            assert abs(halves[0] + halves[1] - whole) <= 2 * mp.mpf(10) ** -(ctx.digits - ctx.guard // 2)
