"""Exact-integer lattice reduction and algebraic recognition."""

import importlib
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from qalg import (
    DegenerateBasis,
    DomainError,
    InsufficientPrecision,
    IntegerPolynomial,
    PrecisionContext,
    QalgError,
    SingularError,
    lattice_reduce,
    recognize,
    recognize_expression,
)

from qalg.recognize import QUANTITIES, STAR_CLOSED_FORMS
from oracles import close, newton_refine_root, poly_divides, random_planted_poly

# the package exports the function `recognize` under the module's name
recognize_module = importlib.import_module("qalg.recognize")


def record_bases(monkeypatch):
    """Make recognize record every basis it hands lattice_reduce, in the
    returned list."""
    bases = []
    reduce = recognize_module.lattice_reduce

    def recording(basis):
        bases.append([list(row) for row in basis])
        return reduce(basis)

    monkeypatch.setattr(recognize_module, "lattice_reduce", recording)
    return bases


def gram_det(rows):
    n = len(rows)
    g = [[sum(x * y for x, y in zip(rows[i], rows[j])) for j in range(n)]
         for i in range(n)]
    # integer-preserving Bareiss elimination
    m = [row[:] for row in g]
    denom = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // denom
        denom = m[k][k]
    return m[n - 1][n - 1]


class TestLatticeReduce:
    def test_identity(self):
        assert lattice_reduce([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]

    def test_simple_2x2(self):
        red = lattice_reduce([[1, 0], [1, 1]])
        # still a basis of Z^2 (determinant +-1), vectors size-reduced
        assert abs(red[0][0] * red[1][1] - red[0][1] * red[1][0]) == 1
        assert all(sum(c * c for c in row) <= 2 for row in red)

    def test_sqrt2_knapsack(self):
        with mp.workdps(60):
            x = mp.sqrt(2)
            scale = mp.mpf(10) ** 40
            rows = []
            pw = mp.mpf(1)
            for i in range(3):
                row = [0] * 3 + [int(mp.nint(scale * pw))]
                row[i] = 1
                rows.append(row)
                pw *= x
        red = lattice_reduce(rows)
        short = red[0]
        assert short[:3] in ([-2, 0, 1], [2, 0, -1])

    def test_dependent_rows(self):
        with pytest.raises(DegenerateBasis):
            lattice_reduce([[1, 2], [2, 4]])

    def test_gram_determinant_preserved(self):
        rng = random.Random(11)
        for _ in range(20):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
            try:
                red = lattice_reduce(rows)
            except DegenerateBasis:
                continue
            assert gram_det(rows) == gram_det(red)


def gram_schmidt(rows):
    """Exact Gram-Schmidt: the mu coefficients and the squared norms of
    the orthogonalized rows, as Fractions.  A row that depends on the
    rows before it gets norm 0."""
    n = len(rows)
    ortho, norms = [], []
    mu = [[Fraction(0)] * n for _ in range(n)]
    for k, row in enumerate(rows):
        v = [Fraction(c) for c in row]
        for j in range(k):
            if not norms[j]:
                continue
            mu[k][j] = sum(a * b for a, b in zip(row, ortho[j])) / norms[j]
            v = [a - mu[k][j] * b for a, b in zip(v, ortho[j])]
        ortho.append(v)
        norms.append(sum(a * a for a in v))
    return mu, norms


@st.composite
def random_bases(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(n, 6))
    row = st.lists(st.integers(-50, 50), min_size=m, max_size=m)
    return draw(st.lists(row, min_size=n, max_size=n))


@st.composite
def knapsack_bases(draw):
    """Identity rows with one scaled column, as recognize builds them."""
    n = draw(st.integers(2, 7))
    bound = 10 ** draw(st.integers(1, 40))
    column = draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
    return [[int(i == j) for j in range(n)] + [c] for i, c in enumerate(column)]


@st.composite
def recognition_scale_bases(draw):
    """The identity basis on round(10^(5n+40) x^i), i < n, for a seeded
    real x in (-4, 4) at 320 digits: the rows and scale recognize reduces
    at degrees 8 to 16."""
    n = draw(st.integers(9, 17))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    with mp.workdps(320):
        x = mp.mpf(rng.randrange(-4 * 10 ** 320, 4 * 10 ** 320)) / 10 ** 320
        scale = mp.mpf(10) ** (5 * n + 40)
        column = [int(mp.nint(scale * x ** i)) for i in range(n)]
    return [[int(i == j) for j in range(n)] + [c] for i, c in enumerate(column)]


class TestLatticeReduceProperties:
    """On any basis, the output spans the same lattice, is size-reduced and
    satisfies the Lovasz condition for delta = 99/100; linearly dependent
    rows are a DegenerateBasis."""

    def check_reduced(self, rows):
        if not all(gram_schmidt(rows)[1]):
            with pytest.raises(DegenerateBasis):
                lattice_reduce(rows)
            return
        red = lattice_reduce(rows)
        assert gram_det(red) == gram_det(rows)
        mu, norms = gram_schmidt(red)
        for k in range(1, len(red)):
            assert all(abs(mu[k][j]) <= Fraction(1, 2) for j in range(k))
            assert Fraction(99, 100) * norms[k - 1] <= norms[k] + mu[k][k - 1] ** 2 * norms[k - 1]

    @settings(max_examples=150, deadline=None)
    @given(random_bases())
    def test_random_bases(self, rows):
        self.check_reduced(rows)

    @settings(max_examples=60, deadline=None)
    @given(knapsack_bases())
    def test_knapsack_bases(self, rows):
        self.check_reduced(rows)

    @settings(max_examples=10, deadline=None)
    @given(recognition_scale_bases())
    def test_recognition_scale_bases(self, rows):
        self.check_reduced(rows)

    def test_degree16_hit_basis(self, monkeypatch):
        """The degree-16 basis the scan hands LLL for [1,8;q]* at r = 2."""
        bases = record_bases(monkeypatch)
        rec = recognize_expression("agile_star", {"a": "1", "p": "8", "r": "2"},
                                   24, 4, PrecisionContext(300))
        assert rec.status == "recognized" and rec.lattice_digits == 125
        assert list(rec.poly.coefficients) == [4, 0, -32, 0, 0, 0, 32, 0, 60, 0,
                                               -112, 0, 64, 0, -16, 0, 1]
        assert len(bases[-1]) == 17
        self.check_reduced(bases[-1])


class TestIntegerPolynomial:
    def test_normalization(self):
        p = IntegerPolynomial((4, 0, -8))
        assert p.coefficients == (-1, 0, 2)  # content 1, positive leading

    def test_trailing_zero_degree(self):
        p = IntegerPolynomial((3, 1, 0))
        assert p.degree == 1

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            IntegerPolynomial((0, 0))


class TestRecognize:
    def test_sqrt2_raw_value(self):
        ctx = PrecisionContext(60)
        with ctx.workdps():
            x = mp.sqrt(2)
        rec = recognize(x, 4, 4, ctx)
        assert rec.status == "recognized"
        assert rec.poly.coefficients == (-2, 0, 1)

    def test_rational(self):
        ctx = PrecisionContext(60)
        with ctx.workdps():
            rec = recognize(mp.mpf(3) / 4, 4, 4, ctx)
        assert rec.status == "recognized"
        assert rec.poly.coefficients == (-3, 4)
        assert rec.poly.degree == 1

    def test_insufficient_precision(self):
        ctx = PrecisionContext(50)
        with pytest.raises(InsufficientPrecision):
            recognize(mp.mpf(2), 10, 6, ctx)

    @pytest.mark.parametrize("value", ["3e-30", "1e-300"])
    def test_small_value_is_not_a_monomial(self, value):
        # x^3 at 3e-30 is 2.7e-89, below the degree-3 bound 1e-88; but a
        # candidate with c0 = 0 is x^k Q(x), and x^k vanishes only at 0
        ctx = PrecisionContext(120)
        with ctx.workdps():
            rec = recognize(mp.mpf(value), 4, 4, ctx)
        assert rec.status == "refuted-at-bounds"

    def test_zero_is_x(self):
        rec = recognize(mp.mpf(0), 4, 4, PrecisionContext(60))
        assert rec.status == "recognized" and rec.poly.coefficients == (0, 1)

    def test_monomial_no_longer_ends_the_scan(self):
        # [1,8;q]* at r = 10^4 is about 5e-32, where x^3 passes the degree-3
        # bound; the scan must still reduce every degree up to 8
        rec = recognize_expression("agile_star", {"a": "1", "p": "8", "r": "10000"},
                                   8, 4, PrecisionContext(120))
        assert rec.status == "refuted-at-bounds"
        assert rec.lattice_digits == (8 + 1) * (4 + 1) + 2 * 20

    def test_beyond_cauchy_bound_builds_no_lattice(self, monkeypatch):
        # every root of an integer polynomial of height < 10^4 lies below
        # 10^4 in absolute value, and at |x| >= 2*10^4 every such P has
        # |P(x)| > 1; for 2^1660000 a lattice would hold 6.6-million-bit entries
        def refuse(basis):
            raise AssertionError("lattice built")

        monkeypatch.setattr(recognize_module, "lattice_reduce", refuse)
        ctx = PrecisionContext(120)
        with ctx.workdps():
            values = [mp.mpf(20000), mp.mpf(-20000), mp.mpf(2) ** 1660000,
                      mp.mpf("1e400000000")]
        for x in values:
            assert recognize(x, 12, 4, ctx).status == "refuted-at-bounds"

    def test_below_cauchy_bound_still_recognized(self):
        rec = recognize(mp.mpf(-9999), 4, 4, PrecisionContext(60))
        assert rec.status == "recognized" and rec.poly.coefficients == (9999, 1)

    def test_stability_across_digits(self):
        for digits in (120, 170):
            ctx = PrecisionContext(digits)

            def compute(c):
                with c.workdps():
                    return mp.sqrt(mp.mpf(3)) + 1

            rec = recognize(compute(ctx), 6, 4, ctx, recompute=compute)
            assert rec.status == "recognized"
            assert rec.poly.coefficients == (-2, -2, 1)


class TestPlantedPolynomials:
    def test_fifty_planted_trials(self):
        rng = random.Random(20240801)
        ctx = PrecisionContext(200)
        recovered = 0
        for trial in range(50):
            coeffs, root = random_planted_poly(rng)

            def compute(c, coeffs=coeffs, root=root):
                return newton_refine_root(coeffs, root, c.dps)

            rec = recognize(compute(ctx), 6, 6, ctx, recompute=compute)
            assert rec.status == "recognized", f"trial {trial}: {rec.status}"
            assert poly_divides(rec.poly.coefficients, tuple(coeffs)), \
                f"trial {trial}: {rec.poly.coefficients} does not divide {coeffs}"
            recovered += 1
        assert recovered == 50

    def test_twenty_transcendental_controls(self):
        ctx = PrecisionContext(200)
        controls = []
        with mp.workdps(ctx.dps + 10):
            for i in range(1, 11):
                controls.append(mp.pi * i / 7 + i)
                controls.append(mp.log(mp.mpf(2)) * i + mp.e / i)
        for i, value in enumerate(controls[:20]):
            def compute(c, v=value):
                # rebuild at the requested precision
                with mp.workdps(c.dps + 10):
                    j = i // 2 + 1
                    if i % 2 == 0:
                        return mp.pi * j / 7 + j
                    return mp.log(mp.mpf(2)) * j + mp.e / j
            rec = recognize(value, 6, 6, ctx, recompute=compute)
            assert rec.status != "recognized", \
                f"control {i} spuriously recognized as {rec.poly}"


class TestLatticeScale:
    """The lattice is scaled to (d+1)*(height_digits+1) + 2*guard digits,
    not to the working precision.  With guard=0 these planted relations
    are lost at (d+1)*height_digits digits: the digit per row is the
    margin, and it must not depend on the guard digits."""

    @pytest.mark.parametrize("guard", [20, 0], ids=lambda g: f"guard{g}")
    @pytest.mark.parametrize("degree", [20, 24], ids=lambda d: f"degree{d}")
    def test_planted_high_degree(self, degree, guard):
        coeffs, root = random_planted_poly(random.Random(degree), degree=degree,
                                           height=10 ** 4 - 1)

        def compute(c):
            return newton_refine_root(coeffs, root, c.dps)

        ctx = PrecisionContext(300, guard=guard)
        rec = recognize(compute(ctx), degree, 4, ctx, recompute=compute)
        assert rec.status == "recognized"
        assert poly_divides(rec.poly.coefficients, tuple(coeffs))
        assert rec.lattice_digits == min(300 - guard,
                                         (rec.poly.degree + 1) * 5 + 2 * guard)


class TestExpressions:
    def test_quartic_reproduction(self):
        ctx = PrecisionContext(300)
        rec = recognize_expression(
            "agile_star_ki", {"a": "1", "p": "3", "x": "1/5", "power": 6},
            max_degree=6, height_digits=7, ctx=ctx)
        assert rec.status == "recognized"
        assert rec.poly.coefficients == (-885735, 0, -21870, 364, 45)

    def test_agile_star_r2(self):
        ctx = PrecisionContext(120)
        rec = recognize_expression("agile_star", {"a": "1", "p": "4", "r": "2"},
                                   max_degree=8, height_digits=4, ctx=ctx)
        assert rec.status == "recognized"
        assert rec.poly.coefficients == (-2, 0, 0, 0, 1)  # fourth root of 2

    def test_power_applied_before_recognition(self):
        ctx = PrecisionContext(120)
        rec = recognize_expression("agile_star", {"a": "1", "p": "4", "r": "2", "power": 4},
                                   max_degree=8, height_digits=4, ctx=ctx)
        assert rec.status == "recognized"
        assert rec.poly.coefficients == (-2, 1)

    def test_rrcf_r4(self):
        ctx = PrecisionContext(120)
        rec = recognize_expression("rrcf", {"r": "4"}, max_degree=6,
                                   height_digits=4, ctx=ctx)
        assert rec.status == "recognized"
        assert rec.poly.coefficients == (1, -2, -6, 2, 1)

    @pytest.mark.parametrize("n", ["5/2", 2.5])
    def test_multiplier_needs_integer_n(self, n):
        # "5/2" was a bare ValueError, 2.5 was truncated to 2
        with pytest.raises(DomainError):
            QUANTITIES["multiplier"].evaluate({"r": "1", "n": n}, PrecisionContext(30))

    def test_power_needs_integer(self):
        with pytest.raises(DomainError):
            recognize_expression("agile_star", {"a": "1", "p": "4", "r": "2", "power": "1/2"},
                                 max_degree=8, height_digits=4, ctx=PrecisionContext(30))

    def test_zero_value_negative_power(self):
        # theta(a, b) vanishes for b = a mod 2a, so its inverse does not exist
        with pytest.raises(SingularError, match="power -1"):
            recognize_expression("theta", {"a": "1", "b": "1", "r": "1", "power": "-1"},
                                 max_degree=4, height_digits=4, ctx=PrecisionContext(60))

    def test_unknown_pipeline(self):
        with pytest.raises(DomainError):
            recognize_expression("nope", {}, 4, 4, PrecisionContext(100))

    @pytest.mark.parametrize("params", [
        {"a": "1", "p": "4", "r": "1"},
        {"a": "1", "p": "4", "r": "2"},
        {"a": "1", "p": "2", "r": "2"},
    ])
    def test_stability_across_digits(self, params):
        polys = []
        for digits in (300, 350):
            rec = recognize_expression("agile_star", params, max_degree=24,
                                       height_digits=4,
                                       ctx=PrecisionContext(digits))
            assert rec.status == "recognized"
            polys.append(rec.poly.coefficients)
        assert polys[0] == polys[1]


# every quantity that reads r, with its second route where it has one
SMALL_R_CALLS = [(name, {"a": "5/2", "b": "1/2"} if name == "theta" else
                  {k: v for k, v in {"a": "1", "p": "5", "n": "2"}.items() if k in q.params})
                 for name, q in QUANTITIES.items() if "r" in q.params]
SMALL_R_CALLS += [("rrcf", {"method": "continued_fraction"}), ("j", {"via": "eta"})]


class TestSmallR:
    """As r -> 0, every quantity returns a value or a typed refusal in
    bounded time; where both routes of rrcf give a value they agree."""

    @pytest.mark.parametrize("digits", [30, 60, 120])
    @pytest.mark.parametrize("e", [6, 10, 14, 20])
    def test_value_or_refusal_within_bound(self, e, digits):
        ctx = PrecisionContext(digits)
        values = {}
        for name, params in SMALL_R_CALLS:
            start = time.monotonic()
            try:
                value = QUANTITIES[name].evaluate(dict(params, r=f"1/{10 ** e}"), ctx)
                assert mp.isfinite(value), (name, params)
                values[name, params.get("method")] = value
            except QalgError:
                pass
            assert time.monotonic() - start < 2, (name, params)
        product, fraction = values["rrcf", None], values["rrcf", "continued_fraction"]
        with mp.workdps(ctx.dps + 10):
            assert abs(product - fraction) <= product * ctx.eps_check


class TestProbe:
    """[a,p;q]* at r = k_i(x), x = 1/2, against its closed form in k_r = x."""

    def closed_form_residual(self, a, p, ctx):
        value = QUANTITIES["agile_star_ki"].evaluate({"a": a, "p": p, "x": "1/2"}, ctx)
        N, f = STAR_CLOSED_FORMS[Fraction(a), Fraction(p)]
        with ctx.workdps():
            return value ** N, abs(value ** N - f(mp.mpf(1) / 2))

    def test_q14_closed_form_at_half(self):
        ctx = PrecisionContext(120)
        power, diff = self.closed_form_residual("1", "4", ctx)
        with ctx.workdps():
            # value^12 = 4(1 - x^2)/x = 6 at x = 1/2
            assert close(power, 6, 90, dps=ctx.dps)
            assert diff < ctx.eps_check
        rec = recognize_expression("agile_star_ki", {"a": "1", "p": "4", "x": "1/2"},
                                   max_degree=12, height_digits=4, ctx=ctx)
        assert rec.status == "recognized"

    def test_q12_4_closed_form_at_half(self):
        # the closed form is the point here; the star value itself can
        # exceed any small degree bound
        ctx = PrecisionContext(120)
        _, diff = self.closed_form_residual("1/2", "4", ctx)
        with ctx.workdps():
            assert diff < ctx.eps_check

    def test_x_domain(self):
        with pytest.raises(DomainError):
            QUANTITIES["agile_star_ki"].evaluate({"a": "1", "p": "4", "x": "2"},
                                                 PrecisionContext(100))


def lattice_digits(d, height_digits, ctx):
    return min(ctx.digits - ctx.guard, (d + 1) * (height_digits + 1) + 2 * ctx.guard)


def scaled_powers(x, d, height_digits, ctx):
    """round(10^s(d) x^i) for i = 0..d, the powers built as recognize
    builds them."""
    with ctx.workdps():
        xv, powers = mp.mpf(x), [mp.mpf(1)]
        for _ in range(d):
            powers.append(powers[-1] * xv)
        scale = mp.mpf(10) ** lattice_digits(d, height_digits, ctx)
        return [int(mp.nint(scale * p)) for p in powers]


def from_scratch_scan(x, max_degree, height_digits, ctx):
    """The ascending scan with every degree's lattice built on the identity
    basis and reduced from scratch: (s(d), coefficients) of the first
    candidate that passes the first tier, or None."""
    with ctx.workdps():
        xv = mp.mpf(x)
        for d in range(1, max_degree + 1):
            c = scaled_powers(xv, d, height_digits, ctx)
            rows = [[int(i == j) for j in range(d + 1)] + [c[i]] for i in range(d + 1)]
            rows = sorted((r for r in lattice_reduce(rows) if any(r[:-1])),
                          key=lambda r: sum(v * v for v in r))
            tier1 = mp.mpf(10) ** -(ctx.digits - d * height_digits - ctx.guard)
            for row in rows[:3]:
                if max(abs(v) for v in row[:-1]) >= 10 ** height_digits:
                    continue
                poly = IntegerPolynomial(tuple(row[:-1]))
                if abs(poly.evaluate(xv)) < tier1:
                    return lattice_digits(d, height_digits, ctx), poly.coefficients
    return None


def planted_root(degree, ctx):
    coeffs, root = random_planted_poly(random.Random(degree), degree=degree, height=999)
    return coeffs, newton_refine_root(coeffs, root, ctx.dps)


class TestIncrementalBasis:
    """Each degree's lattice is seeded with the reduced basis of the degree
    before it; it must be the lattice the identity basis spans, and the
    scan must find what a from-scratch scan finds."""

    CTX = PrecisionContext(300)

    @pytest.mark.parametrize("case", ["pi", "planted"])
    def test_same_lattice_at_every_degree(self, monkeypatch, case):
        if case == "pi":
            with self.CTX.workdps():
                x = +mp.pi
        else:
            x = planted_root(8, self.CTX)[1]
        bases = record_bases(monkeypatch)
        rec = recognize(x, 10, 4, self.CTX)
        assert [len(b) for b in bases] == list(range(2, len(bases) + 2))
        for d, basis in enumerate(bases, start=1):
            coords = [row[:-1] for row in basis]
            assert all(len(u) == d + 1 for u in coords)
            assert gram_det(coords) == 1  # det(coords)^2: unimodular
            c = scaled_powers(x, d, 4, self.CTX)
            assert [row[-1] for row in basis] == \
                [sum(a * b for a, b in zip(u, c)) for u in coords]
        assert len(bases) == (10 if case == "pi" else rec.poly.degree)

    @pytest.mark.parametrize("triple, degree", [
        (("1", "4", "2"), 4), (("1", "4", "1"), 8), (("1", "8", "2"), 16)],
        ids=lambda v: ",".join(v) if isinstance(v, tuple) else None)
    def test_catalog_matches_from_scratch_scan(self, triple, degree):
        params = dict(zip(("a", "p", "r"), triple))
        x = QUANTITIES["agile_star"].evaluate(params, self.CTX)
        rec = recognize_expression("agile_star", params, 24, 4, self.CTX)
        assert rec.status == "recognized" and rec.poly.degree == degree
        assert from_scratch_scan(x, 24, 4, self.CTX) == \
            (rec.lattice_digits, rec.poly.coefficients)

    def test_planted_match_from_scratch_scan(self):
        for degree in range(2, 12):
            coeffs, x = planted_root(degree, self.CTX)
            rec = recognize(x, 12, 4, self.CTX)
            assert rec.status == "recognized"
            assert poly_divides(rec.poly.coefficients, tuple(coeffs))
            assert from_scratch_scan(x, 12, 4, self.CTX) == \
                (rec.lattice_digits, rec.poly.coefficients)
