"""Moebius inversion, period detection, representations, Lambert series."""

import json
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qalg import (
    ConvergenceError,
    DomainError,
    FormalSeries,
    InsufficientData,
    JacobiCharacter,
    PrecisionContext,
    TaylorInput,
    agile_qexpansion,
    detect_period,
    extract_X,
    lambert_series,
    logderiv_representation,
    make_nome,
    normalized_value,
    represent_product,
    represent_theta,
    square_character_eta_identity,
)
import qalg.moebius as moebius
from qalg.moebius import (
    PeriodicCoeffs,
    coeffs_from_X,
    eta_qdlog,
    product_value,
    squarefree_divisors,
    theta_value,
)

from qalg.qengine import _term_count

from oracles import close, moebius_extract_X, mu

CTX = PrecisionContext(60)


class TestMu:
    def test_known_values(self):
        # the trial-division mu that the inversion oracle uses
        assert [mu(n) for n in (1, 3, 15, 12)] == [1, -1, 1, 0]

    def test_divisor_sum_is_unit_indicator(self):
        for n in range(1, 1001):
            total = sum(m for _, m in squarefree_divisors(n))
            assert total == (1 if n == 1 else 0)

    def test_squarefree_divisors_by_brute_force(self):
        for n in range(1, 201):
            expected = []
            for d in range(1, n + 1):
                if n % d == 0 and all(d % (m * m) for m in range(2, d + 1)):
                    primes = [p for p in range(2, d + 1)
                              if d % p == 0 and all(p % q for q in range(2, p))]
                    expected.append((d, (-1) ** len(primes)))
            got = squarefree_divisors(n)
            assert sorted(got) == expected
            assert got[-1] == expected[-1]  # the radical of n comes last


class TestJacobiSymbol:
    def test_mod5_pattern(self):
        assert [JacobiCharacter(5).value(n) for n in range(1, 6)] == [1, -1, -1, 1, 0]

    def test_mod25_gcd_rule(self):
        for n in range(1, 51):
            expected = 0 if n % 5 == 0 else 1
            assert JacobiCharacter(25).value(n) == expected

    def test_complete_multiplicativity(self):
        rng = random.Random(5)
        for G in (5, 13, 25, 8, 16, 65):
            X = JacobiCharacter(G)
            for _ in range(200):
                m = rng.randint(1, 400)
                n = rng.randint(1, 400)
                assert X.value(m * n) == X.value(m) * X.value(n)

    def test_single_factor_of_two_rejected(self):
        with pytest.raises(DomainError):
            JacobiCharacter(10)

    def test_character_admissibility(self):
        JacobiCharacter(5)
        JacobiCharacter(8)
        JacobiCharacter(9)
        JacobiCharacter(1)
        with pytest.raises(DomainError):
            JacobiCharacter(2)
        with pytest.raises(DomainError):
            JacobiCharacter(15)  # odd part 3 mod 4: not mirror-symmetric

    def test_character_splits_modulus_once(self, monkeypatch):
        # (n/40) = (n/8)(n/5): (n/8) is +1 on n = 1, 7 mod 8, -1 on 3, 5
        expected = [0 if n % 2 == 0 else
                    (1 if n % 8 in (1, 7) else -1) * [0, 1, -1, -1, 1][n % 5]
                    for n in range(1, 101)]
        calls = []
        split = moebius._two_adic
        monkeypatch.setattr(moebius, "_two_adic", lambda G: calls.append(G) or split(G))
        X = JacobiCharacter(40)
        assert [X.value(n) for n in range(1, 101)] == expected
        assert calls == [40]

    def test_character_period_detection(self):
        pc = detect_period([JacobiCharacter(5).value(n) for n in range(1, 16)], 5)
        assert pc.period == 5 and pc.A == Fraction(1, 5)
        pc8 = detect_period([JacobiCharacter(8).value(n) for n in range(1, 25)], 8)
        assert pc8.period == 8
        assert list(pc8.values) == [1, 0, -1, 0, -1, 0, 1, 0]


class TestInversion:
    def test_log_series(self):
        # f = -log(1-x): c_n = 1/n inverts to the unit-support sequence
        inp = TaylorInput([Fraction(1, n) for n in range(1, 21)])
        X = extract_X(inp)
        assert X[0] == 1
        assert all(v == 0 for v in X[1:])

    def test_jacobi_forward_backward(self):
        # coefficients built from X = (n/5), then inverted back
        n = 30
        X = [Fraction(JacobiCharacter(5).value(k)) for k in range(1, n + 1)]
        coeffs = coeffs_from_X(X, n)
        assert extract_X(TaylorInput(coeffs)) == X

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                                 max_denominator=8),
                    min_size=40, max_size=40))
    def test_roundtrip_random(self, cs):
        inp = TaylorInput(cs)
        X = extract_X(inp)
        assert coeffs_from_X(X, 40) == list(inp.coeffs)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.fractions(min_value=Fraction(-5), max_value=Fraction(5),
                                 max_denominator=12),
                    min_size=1, max_size=200))
    def test_sieve_matches_moebius_formula(self, cs):
        assert extract_X(TaylorInput(cs)) == moebius_extract_X(cs)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=120))
    def test_integral_X_gives_ints_where_exact(self, xs):
        # c_n = (1/n) sum_{d|n} d X(d) by the divisor double loop
        sums = [sum(d * xs[d - 1] for d in range(1, n + 1) if n % d == 0)
                for n in range(1, len(xs) + 1)]
        got = coeffs_from_X([Fraction(x) for x in xs], len(xs))
        assert got == [Fraction(s, n) for n, s in enumerate(sums, 1)]
        assert [type(c) is int for c in got] == [s % n == 0 for n, s in enumerate(sums, 1)]

    def test_linearity(self):
        a = TaylorInput([Fraction(1, n) for n in range(1, 15)])
        b = TaylorInput([Fraction(n, n + 1) for n in range(1, 15)])
        combo = TaylorInput([2 * x + 3 * y for x, y in zip(a.coeffs, b.coeffs)])
        Xa, Xb, Xc = extract_X(a), extract_X(b), extract_X(combo)
        assert Xc == [2 * x + 3 * y for x, y in zip(Xa, Xb)]

    def test_json_roundtrip(self):
        inp = TaylorInput([Fraction(1, 2), Fraction(-3, 7)])
        text = json.dumps({"coeffs": [str(c) for c in inp.coeffs]})
        assert TaylorInput.from_json(text) == inp

    @pytest.mark.parametrize("coeffs", [[0.1], [True], [Fraction(1, 2), 0.5], [None]])
    def test_inexact_coefficients_refused(self, coeffs):
        # a binary float is not an exact rational, and a bool is not a number
        with pytest.raises(DomainError):
            TaylorInput(coeffs)


class TestDetectPeriod:
    def test_t3(self):
        pc = detect_period([Fraction(v) for v in (1, 1, 0) * 5], 3)
        assert pc.period == 3
        assert pc.A == Fraction(-1, 12)

    def test_t5_all_ones(self):
        pc = detect_period([Fraction(v) for v in (1, 1, 1, 1, 0) * 3], 5)
        assert pc.period == 5 and pc.A == Fraction(-1, 6)

    def test_t5_jacobi(self):
        pc = detect_period([Fraction(v) for v in (1, -1, -1, 1, 0) * 3], 5)
        assert pc.period == 5 and pc.A == Fraction(1, 5)

    def test_smallest_period_wins(self):
        pc = detect_period([Fraction(v) for v in (1, 0) * 9], 6)
        assert pc.period == 2

    def test_not_periodic(self):
        xs = [Fraction(n) for n in range(1, 19)]
        assert detect_period(xs, 6) is None

    def test_periodic_but_last_nonzero(self):
        assert detect_period([Fraction(1)] * 18, 6) is None

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            detect_period([Fraction(1), Fraction(0)], 6)


# one period: any short tuple of small rationals, or one built to mirror
# with a_T = 0 (which a random tuple seldom is)
_SMALL = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)])
_PERIODS = st.one_of(
    st.lists(_SMALL, min_size=1, max_size=9).map(tuple),
    st.lists(_SMALL, min_size=0, max_size=5).flatmap(lambda half: st.sampled_from([
        tuple(half + half[::-1] + [Fraction(0)]),
        tuple(half + half[-2::-1] + [Fraction(0)]) if half else (Fraction(0),)])))


class TestPeriodicCoeffs:
    @settings(max_examples=200, deadline=None)
    @given(_PERIODS)
    def test_accepts_exactly_the_catoptric_periods(self, v):
        catoptric = v[-1] == 0 and all(v[j - 1] == v[len(v) - j - 1]
                                       for j in range(1, len(v)))
        if not catoptric:
            with pytest.raises(DomainError):
                PeriodicCoeffs(v)
            return
        pc = PeriodicCoeffs(v)
        assert pc.period == len(v) and pc.values == v
        # detect_period finds the shortest block that repeats to v
        T = min(d for d in range(1, len(v) + 1)
                if len(v) % d == 0 and v == v[:d] * (len(v) // d))
        assert detect_period(list(v) * 3, len(v)) == PeriodicCoeffs(v[:T])

    def test_values_taken_exactly(self):
        pc = PeriodicCoeffs([1, "-1", Fraction(-1), 1, 0])
        assert pc.values == (1, -1, -1, 1, 0) and pc.A == Fraction(1, 5)


class TestExponent:
    def test_all_zero(self):
        pc = detect_period([Fraction(0)] * 9, 3)
        assert pc is not None and pc.A == 0

    def test_even_period_middle_term(self):
        # X supported on n = 2 mod 4: exp(-f) = prod(1 - q^(4n+2)),
        # the square root of the (2,4) product, so A = -1/12
        pc = detect_period([Fraction(v) for v in (0, 1, 0, 0) * 3], 4)
        assert pc.period == 4
        assert pc.A == Fraction(-1, 12)

    def test_exponent_requires_catoptric(self):
        # A exists only for a catoptric period: the constructor refuses
        # a period that does not mirror or whose last value is not 0
        for bad in ((1, 0, 0), (1, 1, 1), (), ("x",)):
            with pytest.raises(DomainError):
                PeriodicCoeffs(bad)


class TestRepresentations:
    def test_rrcf_product(self):
        pc = detect_period([Fraction(v) for v in (1, -1, -1, 1, 0) * 3], 5)
        rep = represent_product(pc)
        assert [(int(s.a), int(s.p), w) for s, w in rep] == [
            (1, 5, Fraction(1)), (2, 5, Fraction(-1))]

    def test_t3_product(self):
        pc = detect_period([Fraction(v) for v in (1, 1, 0) * 4], 3)
        rep = represent_product(pc)
        assert [(int(s.a), int(s.p), w) for s, w in rep] == [(1, 3, Fraction(1))]

    def test_product_expansion_matches_taylor(self):
        n = 60
        pc = detect_period([Fraction(v) for v in (1, -1, -1, 1, 0) * 3], 5)
        xs = [pc.value(k) for k in range(1, n + 1)]
        coeffs = coeffs_from_X(xs, n)
        target = FormalSeries([Fraction(0)] + [-c for c in coeffs]).exp()
        prod = FormalSeries.one(n)
        for spec, w in represent_product(pc):
            prod = prod * agile_qexpansion(int(spec.a), int(spec.p), n).pow_rational(w)
        assert prod == target

    def test_middle_term_expansion(self):
        # the even-period middle product enters with half weight
        n = 60
        pc = detect_period([Fraction(v) for v in (0, 1, 0, 0) * 3], 4)
        xs = [pc.value(k) for k in range(1, n + 1)]
        coeffs = coeffs_from_X(xs, n)
        target = FormalSeries([Fraction(0)] + [-c for c in coeffs]).exp()
        prod = FormalSeries.one(n)
        for spec, w in represent_product(pc):
            prod = prod * agile_qexpansion(int(spec.a), int(spec.p), n).pow_rational(w)
        assert prod == target

    def test_theta_vs_product_numeric(self):
        pc = detect_period([Fraction(v) for v in (1, -1, -1, 1, 0) * 3], 5)
        nome = make_nome(2, CTX)
        assert close(product_value(pc, nome), theta_value(pc, nome), 40, dps=CTX.dps)

    def test_zero_sequence_value_is_one(self):
        pc = detect_period([Fraction(0)] * 9, 3)
        nome = make_nome(1, CTX)
        assert theta_value(pc, nome) == 1
        assert product_value(pc, nome) == 1

    def test_example_closed_form_t3(self):
        ctx = PrecisionContext(120)
        pc = detect_period([Fraction(v) for v in (1, 1, 0) * 4], 3)
        nome = make_nome(1, ctx)
        with ctx.workdps():
            lhs = mp.power(nome.q, mp.mpf(-1) / 12) * theta_value(pc, nome)
            inner = 81 * (885 + 511 * mp.sqrt(mp.mpf(3))
                          - 3 * mp.sqrt(174033 + 100478 * mp.sqrt(mp.mpf(3))))
            assert close(lhs, mp.root(inner, 12), 100, dps=ctx.dps)

    def test_eta_exponent(self):
        pc = detect_period([Fraction(v) for v in (1, 1, 1, 1, 0) * 3], 5)
        rep = represent_theta(pc)
        assert rep.eta_exponent == Fraction(-2)
        assert len(rep.factors) == 2


class TestLambert:
    def test_zero_sequence(self):
        pc = detect_period([Fraction(0)] * 9, 3)
        assert lambert_series(pc, make_nome(1, CTX)) == 0

    def test_rrcf_logderiv_match(self):
        pc = detect_period([Fraction(v) for v in (1, -1, -1, 1, 0) * 3], 5)
        nome = make_nome(2, CTX)
        assert close(lambert_series(pc, nome), logderiv_representation(pc, nome),
                     40, dps=CTX.dps)

    @pytest.mark.parametrize("pattern,max_p", [
        ((1, 1, 0), 3),
        ((1, 1, 1, 1, 0), 5),
        ((1, 0, -1, 0, -1, 0, 1, 0), 8),
    ])
    @pytest.mark.parametrize("r", [1, 2])
    def test_theorem_pair_grid(self, pattern, max_p, r):
        pc = detect_period([Fraction(v) for v in pattern * 3], max_p)
        nome = make_nome(r, CTX)
        assert close(lambert_series(pc, nome), logderiv_representation(pc, nome),
                     40, dps=CTX.dps)

    def test_brute_force_sum(self):
        nome = make_nome(1, CTX)
        with CTX.workdps():
            q = nome.q
            oracle = mp.mpf(0)
            for n in range(1, 300):
                c = JacobiCharacter(5).value(n)
                if c:
                    oracle += c * n * q ** n / (1 - q ** n)
            assert close(lambert_series(JacobiCharacter(5), nome), oracle, 55,
                         dps=CTX.dps)

    def test_non_unit_rational_weights(self):
        # weights outside {0, +-1} flow through the representation too
        pattern = (Fraction(3, 2), Fraction(-1, 4), Fraction(-1, 4),
                   Fraction(3, 2), Fraction(0))
        pc = detect_period(list(pattern) * 3, 5)
        nome = make_nome(2, CTX)
        assert close(lambert_series(pc, nome), logderiv_representation(pc, nome),
                     40, dps=CTX.dps)

    def test_theta_logderiv_finite_difference_oracle(self):
        from qalg.moebius import theta_qdlog
        from qalg import ThetaSpec, theta_general
        ctx = PrecisionContext(60)
        nome = make_nome(2, ctx)
        spec = ThetaSpec(Fraction(5, 2), Fraction(3, 2))
        with ctx.workdps():
            q = nome.q
            h = mp.mpf(10) ** -20

            def theta_at(qv):
                s = mp.mpf(1)
                for n in range(1, 60):
                    e1 = mp.mpf(5) * n * n / 2 + mp.mpf(3) * n / 2
                    e2 = mp.mpf(5) * n * n / 2 - mp.mpf(3) * n / 2
                    s += (-1) ** n * (qv ** e1 + qv ** e2)
                return s

            numeric = q * (theta_at(q + h) - theta_at(q - h)) / (2 * h) / theta_at(q)
            assert close(theta_qdlog(spec, nome), numeric, 35, dps=ctx.dps)


LOGDERIV_WALKS = {
    "lambert_series": lambda nome: lambert_series(JacobiCharacter(5), nome),
    "eta_qdlog": lambda nome: eta_qdlog(5, nome),
}


class TestLogDerivativeWalks:
    # values of the earlier epsilon-stopped loops, pinned to every digit
    # asked for: the counted loops must reproduce them
    PINNED = {
        ("lambert_series", "1/100", 40): "0.1999999978244745988169126381552801860389",
        ("eta_qdlog", "1/100", 40): "-1.950117234774788772189587530365420557013",
        ("lambert_series", "2", 40): "0.01162043958968534133337157400930958650241",
        ("eta_qdlog", "2", 40): "-0.000000001125569420616580155752390688361413444775",
        ("lambert_series", "1/100", 120):
            "0.1999999978244745988169126381552801860388862681752458372716"
            "243461143475632273620947364781157655492963273392679782456017"
            "84",
        ("eta_qdlog", "1/100", 120):
            "-1.950117234774788772189587530365420557012910846634086580802"
            "824591917775623142503161701857312795443472583347096548236972"
            "49",
        ("lambert_series", "2", 120):
            "0.0116204395896853413333715740093095865024075487812354278108"
            "108702181994370494700724823945998584837811223274276369586495"
            "172",
        ("eta_qdlog", "2", 120):
            "-0.000000001125569420616580155752390688361413444774584262316"
            "935743695036556610256498893007672803473274813158899640504501"
            "31321866825",
    }

    @pytest.mark.parametrize("walk", sorted(LOGDERIV_WALKS))
    def test_nome_too_close_to_one(self, walk):
        # r = 10^-14 needs over 10^7 terms: refused up front
        nome = make_nome(Fraction(1, 10 ** 14), PrecisionContext(30))
        start = time.monotonic()
        with pytest.raises(ConvergenceError):
            LOGDERIV_WALKS[walk](nome)
        assert time.monotonic() - start < 1

    @pytest.mark.parametrize("walk,r,digits", sorted(PINNED))
    def test_pinned_values(self, walk, r, digits):
        value = LOGDERIV_WALKS[walk](make_nome(Fraction(r), PrecisionContext(digits)))
        assert mp.nstr(value, digits) == self.PINNED[walk, r, digits]

    @pytest.mark.parametrize("digits", [40, 120, 300])
    @pytest.mark.parametrize("r", ["1/10000", "1/100", "1/5", "1", "25"])
    @pytest.mark.parametrize("walk", sorted(LOGDERIV_WALKS))
    def test_relative_accuracy(self, walk, r, digits):
        # the counted sums against the same call at 2 digits + 20
        ctx, ref_ctx = PrecisionContext(digits), PrecisionContext(2 * digits + 20)
        value = LOGDERIV_WALKS[walk](make_nome(Fraction(r), ctx))
        ref = LOGDERIV_WALKS[walk](make_nome(Fraction(r), ref_ctx))
        with ref_ctx.workdps():
            assert abs(value - ref) <= abs(ref) * mp.mpf(10) ** -(digits + ctx.guard // 2)

    def test_lambert_reads_each_value_once(self):
        class Counting:
            calls = 0

            def value(self, n):
                self.calls += 1
                return JacobiCharacter(5).value(n)

        X = Counting()
        nome = make_nome(Fraction(1, 100), CTX)
        lambert_series(X, nome)
        assert X.calls == _term_count(0, 0, 1, nome.tail)

    @pytest.mark.parametrize("m", [0, -1, Fraction(5, 2), "5/2"],
                             ids=["0", "-1", "Fraction5/2", "str5/2"])
    def test_eta_qdlog_needs_positive_integer(self, m):
        # 0 divided by zero, -1 never stopped, 5/2 was truncated to 2
        with pytest.raises(DomainError):
            eta_qdlog(m, make_nome(1, CTX))


class TestSquareCharacterIdentity:
    @pytest.mark.parametrize("g", [9, 25, 225])
    def test_exact(self, g):
        lhs, rhs = square_character_eta_identity(g, 200)
        assert lhs == rhs and lhs.order == 200

    def test_non_square_rejected(self):
        with pytest.raises(DomainError):
            square_character_eta_identity(5, 50)


class TestAlgebraicitySmoke:
    @pytest.mark.parametrize("r", [1, 4])
    def test_normalized_value_recognized(self, r):
        # the 5-periodic symbol pattern at 300 digits: q^A exp(-f) is the
        # continued-fraction value, algebraic of degree <= 24, and the
        # doubled-precision re-verification must hold
        from qalg import recognize
        ctx = PrecisionContext(300)
        pc = detect_period([Fraction(v) for v in (1, -1, -1, 1, 0) * 3], 5)

        def compute(c):
            return normalized_value(pc, make_nome(r, c))

        rec = recognize(compute(ctx), 24, 4, ctx, recompute=compute)
        assert rec.status == "recognized"
        assert rec.poly.degree <= 24
        if r == 4:
            assert rec.poly.coefficients == (1, -2, -6, 2, 1)
