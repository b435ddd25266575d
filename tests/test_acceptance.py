"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line.  Tolerances are pinned here; numeric
criteria use 10^-100 at 120 working digits unless stated otherwise; the
exact-series criteria tolerate nothing at all.  Run with -s to watch the
lines scroll by:

    pytest tests/test_acceptance.py -v -s
"""

import os
import random
import time
from fractions import Fraction
from functools import partial

import mpmath as mp
import pytest

from qalg import (
    PrecisionContext,
    detect_period,
    harness,
    make_nome,
    normalized_value,
    recognize,
    recognize_expression,
    sextic_theta,
    singular_modulus,
    theorem3_check,
)

from oracles import close, newton_refine_root, poly_divides, random_planted_poly

TOL100 = 100  # 10^-100 at 120 digits


def announce(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def paper_core_reports():
    parallelism = min(8, os.cpu_count() or 1)
    start = time.monotonic()
    reports = harness.run_suite("paper-core", 120, parallelism=parallelism)
    elapsed = time.monotonic() - start
    return {r.id: r for r in reports}, elapsed


def test_criterion_01_quartic_reproduction():
    start = time.monotonic()
    ctx = PrecisionContext(300)
    rec = recognize_expression(
        "agile_star_ki", {"a": "1", "p": "3", "x": "1/5", "power": 6},
        max_degree=6, height_digits=7, ctx=ctx)
    elapsed = time.monotonic() - start
    ok = (rec.status == "recognized"
          and rec.poly.coefficients == (-885735, 0, -21870, 364, 45)
          and elapsed < 120)
    announce("criterion 1: sixth power at r = k_i(1/5) -> 45x^4+364x^3-21870x^2-885735",
             ok, f"{elapsed:.1f}s, status={rec.status}, poly={rec.poly}")


def test_criterion_02_t3_closed_form():
    ctx = PrecisionContext(120)
    pc = detect_period([Fraction(v) for v in (1, 1, 0) * 4], 3)
    nome = make_nome(1, ctx)
    with ctx.workdps():
        # A = -1/12 here, so the normalized value is q^(-1/12) exp(-f)
        lhs = normalized_value(pc, nome)
        inner = 81 * (885 + 511 * mp.sqrt(mp.mpf(3))
                      - 3 * mp.sqrt(174033 + 100478 * mp.sqrt(mp.mpf(3))))
        rhs = mp.root(inner, 12)
        ok = close(lhs, rhs, TOL100, dps=ctx.dps)
        announce("criterion 2: period-3 value at q=e^-pi matches the 12th-root closed form",
                 ok, f"diff={mp.nstr(abs(lhs - rhs), 5)}")


def test_criterion_03_t5_closed_form():
    ctx = PrecisionContext(120)
    pc = detect_period([Fraction(v) for v in (1, 1, 1, 1, 0) * 3], 5)
    nome = make_nome(4, ctx)
    with ctx.workdps():
        lhs = normalized_value(pc, nome)
        rhs = mp.sqrt(mp.mpf(5) / 2 + 5 * mp.sqrt(mp.mpf(5)) / 2)
        ok = close(lhs, rhs, TOL100, dps=ctx.dps)
        announce("criterion 3: period-5 value at q=e^-2pi equals sqrt(5/2+5*sqrt(5)/2)",
                 ok, f"diff={mp.nstr(abs(lhs - rhs), 5)}")


def test_criterion_04_exponents_exact():
    t3 = detect_period([Fraction(v) for v in (1, 1, 0) * 4], 3)
    t5 = detect_period([Fraction(v) for v in (1, 1, 1, 1, 0) * 3], 5)
    j5 = detect_period([Fraction(v) for v in (1, -1, -1, 1, 0) * 3], 5)
    ok = (t3.A == Fraction(-1, 12) and t5.A == Fraction(-1, 6)
          and j5.A == Fraction(1, 5))
    announce("criterion 4: exponent A is exactly -1/12, -1/6 and 1/5", ok,
             f"got {t3.A}, {t5.A}, {j5.A}")


def test_criterion_05_exact_series_suite():
    start = time.monotonic()
    reports = harness.run_suite("series-exact", 50, parallelism=1)
    elapsed = time.monotonic() - start
    bad = [r.id for r in reports if r.verdict != "pass"]
    orders_ok = True
    for r in reports:
        if r.id.startswith(("eq25.series", "eq33.series", "eq39.series", "eq45.series")):
            orders_ok = orders_ok and r.abs_difference == "0"
    ok = not bad and orders_ok and elapsed < 60
    announce("criterion 5: exact series identities, zero tolerance", ok,
             f"{len(reports)} checks, {elapsed:.1f}s" + (f", failing: {bad}" if bad else ""))


CRITERION_6_IDS = (
    "eq03.product-moduli.r1", "eq03.product-moduli.r2", "eq03.product-moduli.r1_5",
    "eq04.depressed.r1", "eq04.depressed.r2", "eq04.depressed.r1_5",
    "eq08.klein-vs-modulus.r1", "eq08.klein-vs-modulus.r2",
    "eq09.degree5-transform.r25", "eq09.degree5-transform.r50",
    "eq17.eta-power.r1", "eq17.eta-power.r2", "eq17.eta-power.r3",
    "eq35.jacobi5-lambert.r1", "eq36.eisenstein5.r1",
    "eq46.eisenstein-alpha.r1", "eq46.eisenstein-alpha.r2",
    "eq46.eisenstein-alpha.r3", "eq46.eisenstein-alpha.r5",
    "eq47.powersum-even.r1", "eq47.powersum-even.r2",
    "eq48.powersum-odd.r1", "eq48.powersum-odd.r2",
    "eq40.tail-integral.r1_5", "eq40.tail-integral.r1_2", "eq40.tail-integral.r1",
    "eq43.beta-derivative.r1", "eq43.beta-derivative.r2",
    "thm4.p3.r1", "thm4.p5.r1",
)


def test_criterion_06_modular_identity_residuals(paper_core_reports):
    reports, elapsed = paper_core_reports
    missing = [i for i in CRITERION_6_IDS if i not in reports]
    failing = [i for i in CRITERION_6_IDS
               if i in reports and reports[i].verdict != "pass"]
    any_fail = [r.id for r in reports.values() if r.verdict == "fail"]
    ok = not missing and not failing and not any_fail and elapsed < 300
    announce("criterion 6: modular identity residuals < 1e-100 at 120 digits", ok,
             f"suite {elapsed:.0f}s"
             + (f", missing {missing}" if missing else "")
             + (f", failing {failing or any_fail}" if (failing or any_fail) else ""))


def test_criterion_07_worked_value(paper_core_reports):
    reports, _ = paper_core_reports
    ctx = PrecisionContext(120)
    with ctx.workdps():
        theta = sextic_theta(make_nome(Fraction(1, 5), ctx))
        ok_theta = close(theta, 5 * mp.sqrt(mp.mpf(5)), TOL100, dps=ctx.dps)
        res = theorem3_check(Fraction(1, 5), ctx)
        ok_identity = res.diff < ctx.eps_check
        s = mp.sqrt(2 - 4 * mp.sqrt(-2 + mp.sqrt(mp.mpf(5))))
        radical = (2 - s) / (2 + s)
        ok_radical = close(singular_modulus(Fraction(4, 5), ctx), radical,
                           TOL100, dps=ctx.dps)
    ok = ok_theta and ok_identity and ok_radical
    announce("criterion 7: bridge value 5*sqrt(5) at r=1/5 with the tail-integral identity",
             ok, f"theta={ok_theta}, identity={ok_identity}, radical={ok_radical}")


def test_criterion_08_closed_form_families(paper_core_reports):
    reports, _ = paper_core_reports
    ids = [f"eq53.q14-closed.r{t}" for t in ("1", "2", "3_2")] \
        + [f"eq54.q12-4-closed.r{t}" for t in ("1", "2", "3_2")]
    failing = [i for i in ids if reports[i].verdict != "pass"]
    announce("criterion 8: (1,4) and (1/2,4) closed forms at r in {1, 2, 3/2}",
             not failing, f"failing: {failing}" if failing else "6 checks")


def test_criterion_09_conjecture_recognitions():
    from concurrent.futures import ProcessPoolExecutor

    ids = [i for i in harness.REGISTRY if i.startswith("eq19.recognize.")]
    assert len(ids) >= 10
    start = time.monotonic()
    workers = min(8, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        reports = list(pool.map(partial(harness._execute_check, digits=300), ids))
    elapsed = time.monotonic() - start
    good = [r.id for r in reports if r.verdict == "pass"]
    refuted = [(r.id, r.note) for r in reports if r.verdict != "pass"]
    ok = len(good) >= 10
    announce("criterion 9: >= 10 starred-product recognitions at 300 digits, degree <= 24",
             ok, f"{len(good)}/{len(ids)} recognized in {elapsed:.0f}s"
             + (f"; not recognized: {refuted}" if refuted else ""))


def test_criterion_10_recognizer_soundness():
    rng = random.Random(987123)
    ctx = PrecisionContext(200)
    recovered = 0
    for _ in range(50):
        coeffs, root = random_planted_poly(rng)

        def compute(c, coeffs=coeffs, root=root):
            return newton_refine_root(coeffs, root, c.dps)

        rec = recognize(compute(ctx), 6, 6, ctx, recompute=compute)
        if rec.status == "recognized" and poly_divides(rec.poly.coefficients,
                                                       tuple(coeffs)):
            recovered += 1

    false_hits = 0
    for i in range(20):
        def compute(c, i=i):
            with mp.workdps(c.dps + 10):
                return +(mp.pi * (i + 1) / 7 + mp.log(mp.mpf(2)) * (i % 5) + i)

        rec = recognize(compute(ctx), 6, 6, ctx, recompute=compute)
        if rec.status == "recognized":
            false_hits += 1

    ok = recovered == 50 and false_hits == 0
    announce("criterion 10: 50/50 planted recoveries, 0/20 false recognitions",
             ok, f"recovered={recovered}, false={false_hits}")
