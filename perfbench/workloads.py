"""The four benchmark workloads.

Each workload builds its inputs once from the seed (``make_inputs``) and
then runs passes over them (``run_pass``).  A pass is one closed-loop
sweep by a single client: every op runs after the previous one returns.
An op is one identity check, one evaluation pair or one ``recognize``
call; each op's output is checked, outside the timed region, before the
next op starts.

verify-suites      what ``qalg verify`` runs by default: paper-core at
                   120 digits, then series-exact at 50.  Touches every
                   numeric layer except recognition.  The registry is the
                   input, so the seed has no effect.
eval-ladder        pairs of independent routes (j, RRCF, k_r, agiles,
                   alpha, k_i) at 120, 300 and 1000 digits over seeded r.
                   Isolates qengine and elliptic across precision and
                   nome size.
recognize-planted  real roots of seeded integer polynomials of degree
                   4, 6, ..., 12, plus starred products from the conjecture
                   catalog up to degree 16.  The recognizer's scan stops
                   at the first hit and re-verifies at doubled precision.
recognize-refute   seeded transcendental values; every degree up to the
                   bound is scanned and nothing may be recognized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from time import perf_counter
from typing import Callable, Optional

import mpmath as mp


@dataclass
class OpResult:
    label: str
    seconds: float
    error: Optional[str]  # None when the output checked out


@dataclass
class PassResult:
    wall_s: float
    ops: list
    layer_fails: int = 0  # harness verdicts of "fail" (verify-suites)


@dataclass
class Op:
    label: str
    run: Callable  # run(m) -> value
    check: Callable  # check(m, value) -> error text or None


def _err(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_ops(m, ops, rec, probe) -> PassResult:
    """Time each op; check its output and probe the host speed, untimed
    and untraced."""
    results = []
    for op in ops:
        t0 = perf_counter()
        try:
            with rec.span("bench.op"):
                value = op.run(m)
        except Exception as exc:  # an op that raises is a failed op
            results.append(OpResult(op.label, perf_counter() - t0, _err(exc)))
            probe()
            continue
        seconds = perf_counter() - t0
        with rec.paused():
            try:
                error = op.check(m, value)
            except Exception as exc:
                error = _err(exc)
        results.append(OpResult(op.label, seconds, error))
        probe()
    return PassResult(sum(r.seconds for r in results), results)


class OpListWorkload:
    """A workload whose seeded inputs are a fixed list of ops."""

    def run_pass(self, m, ops, rec, probe) -> PassResult:
        return run_ops(m, ops, rec, probe)


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------

class VerifySuites:
    name = "verify-suites"
    suites = (("paper-core", 120), ("series-exact", 50))
    # verdict counts of the seed commit; a pass may not report fewer
    # passing or recorded checks, so dropping checks cannot pass as a speed-up
    seed_counts = {"paper-core": {"pass": 56, "recorded": 3},
                   "series-exact": {"pass": 15, "recorded": 0}}
    digits = "120 (paper-core), 50 (series-exact)"

    def make_inputs(self, m, rng):
        return None

    def run_pass(self, m, inputs, rec, probe) -> PassResult:
        registry = m.harness.REGISTRY
        originals = dict(registry)
        times: dict[str, float] = {}
        probing = [0.0]  # probe time inside run_suite, left out of the wall time

        def timed(check):
            def run(ctx):
                t0 = perf_counter()
                try:
                    with rec.span("harness.check"):
                        return check.run(ctx)
                finally:
                    t1 = perf_counter()
                    times[check.id] = t1 - t0
                    probe()
                    probing[0] += perf_counter() - t1
            return replace(check, run=run)

        registry.update({cid: timed(c) for cid, c in originals.items()})
        try:
            t0 = perf_counter()
            reports = [(suite, report)
                       for suite, digits in self.suites
                       for report in m.harness.run_suite(suite, digits)]
            wall = perf_counter() - t0 - probing[0]
        finally:
            registry.clear()
            registry.update(originals)

        results, fails = [], 0
        counts = {suite: {"pass": 0, "fail": 0, "recorded": 0} for suite, _ in self.suites}
        for suite, report in reports:
            counts[suite][report.verdict] += 1
            expected = "recorded" if originals[report.id].kind == "recorded" else "pass"
            error = None
            if report.verdict != expected:
                error = f"{report.id}: {report.verdict}, expected {expected} ({report.note})"
            fails += report.verdict == "fail"
            results.append(OpResult(f"{suite}:{report.id}", times[report.id], error))
        for suite, floor in self.seed_counts.items():
            for verdict, n in floor.items():
                if counts[suite][verdict] < n:
                    results.append(OpResult(
                        f"{suite}:counts", 0.0,
                        f"{suite} {verdict}={counts[suite][verdict]}, seed had {n}"))
        return PassResult(wall, results, layer_fails=fails)


# ---------------------------------------------------------------------------
# eval-ladder
# ---------------------------------------------------------------------------

def _agree(ctx, lhs, rhs) -> Optional[str]:
    """The two routes agree within ctx.eps_check (relative above 1)."""
    with ctx.workdps():
        diff = abs(lhs - rhs)
        tol = ctx.eps_check * max(1, abs(lhs))
        if diff < tol:
            return None
        return f"routes differ by {mp.nstr(diff, 5)} (tolerance {mp.nstr(tol, 5)})"


def _pair_check(m, value):
    ctx, lhs, rhs = value
    return _agree(ctx, lhs, rhs)


class EvalLadder(OpListWorkload):
    name = "eval-ladder"
    # digits -> (draws per pass, log10 of the r range).  At 1000 digits r
    # stays >= 1: at r = 1/100 the continued fraction alone costs seconds
    # there and would swamp every other op.
    tiers = {120: (20, (-2.0, 2.0)), 300: (12, (-2.0, 2.0)), 1000: (4, (0.0, 2.0))}
    digits = "120, 300, 1000"

    def make_inputs(self, m, rng):
        ops = []
        for digits, (n, (lo, hi)) in self.tiers.items():
            ctx = m.precision.PrecisionContext(digits)
            for i in range(n):
                # one draw per equal slice of log r, so every seed covers
                # the whole range and passes cost about the same
                u = lo + (hi - lo) * (i + rng.random()) / n
                r = Fraction(max(1, round(1000 * 10 ** u)), 1000)
                p = rng.randint(2, 12)
                a = rng.randint(1, p - 1)
                ops += self._draw_ops(ctx, r, a, p)
        return ops

    @staticmethod
    def _draw_ops(ctx, r, a, p):
        tag = f"@{ctx.digits}"

        def k_pair(m):
            # first on its r, so singular_modulus runs cold
            k = m.elliptic.singular_modulus(r, ctx)
            nome = m.qengine.make_nome(r, ctx)
            with ctx.workdps():
                return ctx, k, m.qengine.theta2(nome) ** 2 / m.qengine.theta3(nome) ** 2

        def j_pair(m):
            return (ctx, m.elliptic.j_invariant(r, ctx, via="modulus"),
                    m.elliptic.j_invariant(r, ctx, via="eta"))

        def rrcf_pair(m):
            nome = m.qengine.make_nome(r, ctx)
            return (ctx, m.modular.rrcf(nome, method="product"),
                    m.modular.rrcf(nome, method="continued_fraction"))

        def agile_pair(m):
            nome = m.qengine.make_nome(r, ctx)
            spec = m.qengine.AgileSpec(a, p)
            return (ctx, m.qengine.agile(spec, nome),
                    m.qengine.agile_via_triangular(spec, nome))

        def alpha_pair(m):
            # second route: Legendre's relation turns E(k') into E(k),
            # alpha = pi/(4K^2) - sqrt(r) (E/K - 1)
            lhs = m.elliptic.elliptic_alpha(r, ctx)
            k = m.elliptic.singular_modulus(r, ctx)
            K = m.elliptic.ellint_K(k, ctx)
            E = m.elliptic.ellint_E(k, ctx)
            with ctx.workdps():
                rm = mp.mpf(r.numerator) / r.denominator
                return ctx, lhs, mp.pi / (4 * K * K) - mp.sqrt(rm) * (E / K - 1)

        def inverse_pair(m):
            k = m.elliptic.singular_modulus(r, ctx)
            ri = m.elliptic.inverse_singular_modulus(k, ctx)
            with ctx.workdps():
                return ctx, ri, mp.mpf(r.numerator) / r.denominator

        return [Op("k" + tag, k_pair, _pair_check),
                Op("j" + tag, j_pair, _pair_check),
                Op("rrcf" + tag, rrcf_pair, _pair_check),
                Op("agile" + tag, agile_pair, _pair_check),
                Op("alpha" + tag, alpha_pair, _pair_check),
                Op("k_inverse" + tag, inverse_pair, _pair_check)]


# ---------------------------------------------------------------------------
# recognition workloads
# ---------------------------------------------------------------------------

RECOGNIZE_DIGITS = 300
HEIGHT_DIGITS = 4


def _poly_eval(coeffs, x):
    acc = mp.mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _newton(coeffs, x, dps):
    """Refine a root of the integer polynomial to dps digits, doubling the
    working precision each step."""
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    prec = 30
    while True:
        prec = min(2 * prec, dps)
        with mp.workdps(prec + 10):
            x = x - _poly_eval(coeffs, x) / _poly_eval(deriv, x)
        if prec == dps:
            break
    with mp.workdps(dps):
        x = x - _poly_eval(coeffs, x) / _poly_eval(deriv, x)
        return +x


def _planted_root(coeffs, dps):
    """A positive real root: c0 < 0 < cd, so there is a sign change in
    (0, 1 + max|c|/cd); bisect to 20 digits, then Newton to dps."""
    with mp.workdps(30):
        lo, hi = mp.mpf(0), 1 + mp.mpf(max(abs(c) for c in coeffs)) / coeffs[-1]
        for _ in range(80):
            mid = (lo + hi) / 2
            if _poly_eval(coeffs, mid) < 0:
                lo = mid
            else:
                hi = mid
        x = (lo + hi) / 2
    return _newton(coeffs, x, dps)


def _divides(divisor, poly) -> bool:
    """Exact test that the integer polynomial divisor divides poly over Q."""
    rem = [Fraction(c) for c in poly]
    lead = Fraction(divisor[-1])
    for shift in range(len(rem) - len(divisor), -1, -1):
        factor = rem[shift + len(divisor) - 1] / lead
        for i, c in enumerate(divisor):
            rem[shift + i] -= factor * c
    return not any(rem)


class RecognizePlanted(OpListWorkload):
    name = "recognize-planted"
    # even degrees keep a pass near ten seconds, so a run holds three
    degrees = range(4, 13, 2)
    max_degree = 12
    coefficient_bound = 999  # planted height < 10^3
    # (a, p, r) from the conjecture catalog with the degree of the
    # minimal polynomial of the starred product; (1,8,2) is the
    # degree-16 baseline case
    triples = ((("1", "4", "2"), 4), (("1", "4", "1"), 8), (("1", "8", "2"), 16))
    digits = str(RECOGNIZE_DIGITS)

    def make_inputs(self, m, rng):
        ctx = m.precision.PrecisionContext(RECOGNIZE_DIGITS)
        ops = []
        for d in self.degrees:
            while True:
                b = self.coefficient_bound
                coeffs = [rng.randint(-b, b) for _ in range(d + 1)]
                coeffs[0], coeffs[-1] = -rng.randint(1, b), rng.randint(1, b)
                x = _planted_root(coeffs, ctx.dps)
                with ctx.workdps():
                    if abs(_poly_eval(coeffs, x)) < mp.mpf(10) ** -(ctx.dps - 10):
                        break  # a simple root, refined to full precision
            ops.append(self._planted_op(ctx, coeffs, x))
        for (a, p, r), degree in self.triples:
            ops.append(self._triple_op(ctx, a, p, r, degree))
        return ops

    def _planted_op(self, ctx, coeffs, x):
        def run(m):
            return m.recognize.recognize(
                x, self.max_degree, HEIGHT_DIGITS, ctx,
                recompute=lambda c: _newton(coeffs, x, c.dps))

        def check(m, rec):
            if rec.status != "recognized" or rec.poly is None:
                return f"status {rec.status}"
            found = rec.poly.coefficients
            if not _divides(found, coeffs):
                return f"{rec.poly} does not divide the planted polynomial"
            with ctx.workdps():
                tier1 = mp.mpf(10) ** -(ctx.digits - rec.poly.degree * HEIGHT_DIGITS - ctx.guard)
                if abs(_poly_eval(found, x)) >= tier1:
                    return f"{rec.poly} does not annihilate the root"
            return None
        return Op(f"planted-deg{len(coeffs) - 1}", run, check)

    def _triple_op(self, ctx, a, p, r, degree):
        def run(m):
            return m.recognize.recognize_expression(
                "agile_star", {"a": a, "p": p, "r": r}, max_degree=24,
                height_digits=HEIGHT_DIGITS, ctx=ctx)

        def check(m, rec):
            if rec.status != "recognized" or rec.poly is None:
                return f"status {rec.status}"
            if rec.poly.degree != degree:
                return f"degree {rec.poly.degree}, the minimal polynomial has {degree}"
            # the relation must hold for the value rebuilt at doubled precision
            ctx2 = ctx.doubled()
            nome = m.qengine.make_nome(Fraction(r), ctx2)
            with ctx2.workdps():
                v = m.qengine.agile_star(m.qengine.AgileSpec(Fraction(a), Fraction(p)), nome)
                bound = mp.mpf(10) ** -(2 * ctx.digits - degree * HEIGHT_DIGITS - ctx.guard)
                if abs(_poly_eval(rec.poly.coefficients, v)) >= bound:
                    return f"{rec.poly} fails at doubled precision"
            return None
        return Op(f"agile_star-deg{degree}", run, check)


class RecognizeRefute(OpListWorkload):
    name = "recognize-refute"
    max_degrees = range(8, 13)
    digits = str(RECOGNIZE_DIGITS)

    def make_inputs(self, m, rng):
        ctx = m.precision.PrecisionContext(RECOGNIZE_DIGITS)
        ops = []
        for max_degree in self.max_degrees:
            # (a pi + b e + c log 2) / d with a != 0: no integer relation
            # of small height exists, so the whole bound is scanned
            a, b, c = rng.randint(1, 9), rng.randint(-9, 9), rng.randint(-9, 9)
            d = rng.randint(1, 9)
            with ctx.workdps():
                x = +((a * mp.pi + b * mp.e + c * mp.log(2)) / d)
            ops.append(self._op(ctx, x, max_degree))
        return ops

    @staticmethod
    def _op(ctx, x, max_degree):
        def run(m):
            return m.recognize.recognize(x, max_degree, HEIGHT_DIGITS, ctx)

        def check(m, rec):
            if rec.status != "refuted-at-bounds":
                return f"status {rec.status}: {rec.poly}"
            return None
        return Op(f"refute-max{max_degree}", run, check)


WORKLOADS = {w.name: w for w in (VerifySuites(), EvalLadder(), RecognizePlanted(),
                                 RecognizeRefute())}
