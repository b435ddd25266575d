"""Registry of named identity checks, suite runner and report emission.

Every identity the toolkit claims to reproduce is registered here under a
stable id (an ``eqNN``/``thmN``/``exN`` tag from the internal identity
catalog plus parameters, e.g. ``eq03.product-moduli.r2``).  A check
computes both sides independently and reports the absolute difference
against its tolerance:

* numeric checks:   tolerance 10^-(digits - guard), except the
  finite-difference check which documents its looser 10^-(digits/4 - 4);
* exact checks:     the two sides are formal series with rational
  coefficients; the "difference" is the number of mismatched
  coefficients and the tolerance is 1 (i.e. zero mismatches pass);
* recorded checks:  measurements around a known ambiguity; they never
  pass or fail, they carry data.

A check is a function of the ``PrecisionContext``.  A two-sided check
returns a ``Residual`` (tolerance ``ctx.eps_check``); a check with any
other measure returns a ``CheckOutcome``.  The runner sets the working
precision around the check and formats its report at that precision.

Suites: ``paper-core`` (the numeric identity grid), ``conjectures``
(recognition-based checks), ``series-exact`` (coefficientwise identities),
``all``.
"""

from __future__ import annotations

import json
import os
import time
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Optional

import mpmath as mp

from .errors import DomainError
from .precision import PrecisionContext, to_mpf
from .series import FormalSeries, exponent_product
from .qengine import (
    AgileSpec,
    ThetaSpec,
    agile,
    agile_qexpansion,
    agile_star,
    agile_via_triangular,
    eta_paper,
    eta_qexpansion,
    make_nome,
    tau_star,
    theta2,
    theta3,
    theta_general,
    theta_powersum,
    theta_qexpansion,
    _qpow,
)
from .elliptic import (
    elliptic_alpha,
    inverse_singular_modulus,
    j_invariant,
    singular_K,
    singular_modulus,
    theta_powersum_closed,
)
from .moebius import (
    JacobiCharacter,
    PeriodicCoeffs,
    coeffs_from_X,
    eta_qdlog,
    lambert_series,
    logderiv_representation,
    normalized_value,
    product_value,
    represent_product,
    square_character_eta_identity,
    squarefree_divisors,
    theta_qdlog,
    theta_value,
)
from .modular import (
    Residual,
    eq43_derivative_check,
    klein_j_from_R,
    modular5_check,
    ramanujan_modular5_check,
    rrcf,
    sextic_theta,
    sextic_Y_check,
    theorem3_check,
    theorem4_check,
)
from .recognize import QUANTITIES, STAR_CLOSED_FORMS, recognize_expression


# ---------------------------------------------------------------------------
# outcome / report plumbing
# ---------------------------------------------------------------------------

class CheckOutcome(namedtuple("CheckOutcome", "lhs rhs diff tolerance note", defaults=("",))):
    """lhs, rhs and note are str; diff is an mpf for numeric checks and an
    int for exact/coefficient counts, and tolerance has the matching type."""

    __slots__ = ()


@dataclass(frozen=True)  # a dataclass: perfbench swaps `run` with dataclasses.replace
class IdentityCheck:
    id: str
    suites: tuple
    anchors: tuple
    kind: str  # numeric | exact | recorded
    run: Callable[[PrecisionContext], Residual | CheckOutcome]
    min_digits: int = 0  # floor for checks that need headroom (recognition)


class IdentityReport(namedtuple("IdentityReport", "id lhs rhs abs_difference tolerance "
                                  "verdict wall_time_ms note", defaults=("",))):
    """Every field is a str but wall_time_ms, a float; verdict is pass,
    fail or recorded."""

    __slots__ = ()


def _num(v) -> str:
    if isinstance(v, int):
        return str(v)
    return mp.nstr(mp.mpf(v), 40)


def _series_outcome(lhs: FormalSeries, rhs: FormalSeries, note: str = "") -> CheckOutcome:
    n = min(lhs.order, rhs.order)
    mismatches = sum(1 for i in range(n + 1) if lhs[i] != rhs[i])
    return CheckOutcome(
        lhs=f"series(order={n})",
        rhs=f"series(order={n})",
        diff=mismatches,
        tolerance=1,
        note=note or "difference counts mismatched coefficients",
    )


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

def _reciprocity(ctx, r: Fraction):
    phi = (1 + mp.sqrt(5)) / 2
    lhs = (phi + rrcf(make_nome(r, ctx))) * (phi + rrcf(make_nome(16 / r, ctx)))
    return Residual(lhs, phi * mp.sqrt(5), note=f"Ramanujan's reciprocity, R at r and {16 / r}")


def _modulus_theta(ctx, r: Fraction):
    nome = make_nome(r, ctx)
    return Residual(singular_modulus(r, ctx), theta2(nome) ** 2 / theta3(nome) ** 2,
                    note="root-finding vs theta quotient")


def _klein(ctx, r: Fraction):
    R = rrcf(make_nome(4 * r, ctx))
    return Residual(klein_j_from_R(R, ctx), j_invariant(r, ctx),
                    note="j from the continued fraction vs modulus form")


def _eta_power(ctx, r: Fraction):
    nome = make_nome(r, ctx)
    k = singular_modulus(r, ctx)
    kp = mp.sqrt(1 - k * k)
    K = singular_K(r, ctx)
    lhs = eta_paper(1, nome) ** 8
    rhs = (2 ** (mp.mpf(8) / 3) / mp.pi ** 4 * _qpow(nome, Fraction(-1, 3))
           * k ** (mp.mpf(2) / 3) * kp ** (mp.mpf(8) / 3) * K ** 4)
    return Residual(lhs, rhs)


def _theta_eta_agile_grid(ctx, rs, pmax: int):
    worst = mp.mpf(0)
    worst_at = ""
    for r in rs:
        nome = make_nome(r, ctx)
        for p in range(3, pmax + 1):
            ep = eta_paper(p, nome)
            for a in range(1, (p + 1) // 2 + 1):
                lhs = ep * agile(AgileSpec(a, p), nome)
                rhs = theta_general(
                    ThetaSpec(Fraction(p, 2), Fraction(p - 2 * a, 2)), nome)
                d = abs(lhs - rhs)
                if d > worst:
                    worst, worst_at = d, f"a={a},p={p},r={r}"
    return CheckOutcome(
        lhs="eta(p)*[a,p;q] (grid)", rhs="theta(p/2,(p-2a)/2;q) (grid)",
        diff=worst, tolerance=ctx.eps_check,
        note=f"worst pair {worst_at}")


def _eq28(ctx, a: int, p: int, r: Fraction):
    nome = make_nome(r, ctx)
    spec = AgileSpec(a, p)
    return Residual(agile(spec, nome), agile_via_triangular(spec, nome),
                    note="direct product vs triangular-number series")


def _duplication(ctx, r: Fraction):
    # shift/mirror invariance of the squared-nome ratio
    cases = [(Fraction(1, 3), 4), (Fraction(2, 7), 3), (Fraction(5, 4), 7),
             (Fraction(3, 5), 5), (Fraction(7, 6), 9)]
    worst = mp.mpf(0)
    nome = make_nome(r, ctx)
    for a, p in cases:
        base = tau_star(a, p, nome)
        for shifted in (p - a, p + a, 2 * p - a, 2 * p + a):
            worst = max(worst, abs(tau_star(shifted, p, nome) - base))
    return CheckOutcome("tau*(a,p)", "tau*(np+-a,p)", worst, ctx.eps_check,
                        note=f"{len(cases)} rational a, shifts n=1,2")


def _eq35(ctx, r: Fraction):
    nome = make_nome(r, ctx)
    lhs = lambert_series(JacobiCharacter(5), nome)
    rhs = (theta_qdlog(ThetaSpec(Fraction(5, 2), Fraction(1, 2)), nome)
           - theta_qdlog(ThetaSpec(Fraction(5, 2), Fraction(3, 2)), nome))
    return Residual(lhs, rhs, note="Jacobi-symbol Lambert sum vs theta quotient log-derivative")


def _eq36(ctx, r: Fraction):
    nome = make_nome(r, ctx)
    L1 = lambert_series(JacobiCharacter(1), nome)
    L5 = lambert_series(JacobiCharacter(1), nome.scaled(Fraction(5)))
    lhs = L1 - 5 * L5
    rhs = -(theta_qdlog(ThetaSpec(Fraction(5, 2), Fraction(1, 2)), nome)
            + theta_qdlog(ThetaSpec(Fraction(5, 2), Fraction(3, 2)), nome)
            - 2 * eta_qdlog(5, nome))
    return Residual(lhs, rhs)


def _thm2(ctx, values, r: Fraction):
    pc = PeriodicCoeffs(values)
    nome = make_nome(r, ctx)
    return Residual(lambert_series(pc, nome), logderiv_representation(pc, nome),
                    note=f"period {pc.period} Lambert sum vs termwise log-derivative")


def _thm1_consistency(ctx, values, r: Fraction):
    pc = PeriodicCoeffs(values)
    nome = make_nome(r, ctx)
    return Residual(product_value(pc, nome), theta_value(pc, nome),
                    note="q-product form vs eta/theta form")


def _eq39_numeric(ctx, r: Fraction):
    nome = make_nome(r, ctx)
    return Residual(sextic_theta(nome, via="theta"), sextic_theta(nome, via="rrcf"))


def _eq39_worked(ctx):
    return Residual(sextic_theta(make_nome(Fraction(1, 5), ctx)), 5 * mp.sqrt(mp.mpf(5)),
                    note="bridge value at r=1/5 is 5*sqrt(5)")


def _k45_radical(ctx):
    s = mp.sqrt(2 - 4 * mp.sqrt(-2 + mp.sqrt(mp.mpf(5))))
    radical = (2 - s) / (2 + s)
    return Residual(singular_modulus(Fraction(4, 5), ctx), radical,
                    note="nested radical for the modulus at 4/5")


def _eq43(ctx, r: Fraction):
    res = eq43_derivative_check(r, ctx)
    tol = mp.mpf(10) ** -(ctx.digits // 4 - 4)
    return CheckOutcome(_num(res.lhs), _num(res.rhs), res.diff / abs(res.rhs), tol,
                        note="relative difference; finite-difference tolerance 1e-(digits/4-4)")


def _eq46(ctx, r: Fraction):
    nome = make_nome(r, ctx)
    lhs = 1 - 24 * lambert_series(JacobiCharacter(1), nome)
    k = singular_modulus(r, ctx)
    K = singular_K(r, ctx)
    sr = mp.sqrt(to_mpf(r))
    rhs = (6 / (mp.pi * sr)
           + 4 * K * K * (-6 * elliptic_alpha(r, ctx) + sr * (1 + k * k))
           / (mp.pi ** 2 * sr))
    return Residual(lhs, rhs)


def _powersum(ctx, r: Fraction, ms: tuple):
    nome = make_nome(r, ctx)
    worst = max(abs(theta_powersum(m, nome) - theta_powersum_closed(m, r, ctx))
                for m in ms)
    return CheckOutcome("sum q^(n^2+mn) (direct)", "closed form", worst,
                        ctx.eps_check, note=f"m in {list(ms)}")


def _star_closed_form(ctx, a: Fraction, p: Fraction, r: Fraction):
    N, f = STAR_CLOSED_FORMS[a, p]
    lhs = agile_star(AgileSpec(a, p), make_nome(r, ctx)) ** N
    return Residual(lhs, f(singular_modulus(r, ctx)),
                    note=f"{N}th power of the ({a},{p}) starred product")


def _thm4_p2(ctx):
    res = theorem4_check(2, Fraction(1), ctx)
    return Residual(res.lhs, res.rhs,
                    note="literal form at p=2 (empty theta product); measured, not asserted")


def _example2(ctx):
    pc = PeriodicCoeffs((1, 1, 0))
    lhs = normalized_value(pc, make_nome(Fraction(1), ctx))
    inner = 81 * (885 + 511 * mp.sqrt(mp.mpf(3))
                  - 3 * mp.sqrt(174033 + 100478 * mp.sqrt(mp.mpf(3))))
    return Residual(lhs, mp.root(inner, 12), note=f"A={pc.A}")


def _example3i(ctx):
    nome = make_nome(Fraction(2), ctx)
    y6 = eta_paper(1, nome) ** 6 / (eta_paper(5, nome) ** 6 * nome.q)
    lhs = 3125 + 250 * y6 + y6 * y6
    rhs = 20 * y6 ** (mp.mpf(5) / 3)
    return Residual(lhs, rhs, note="sextic with cube root of j equal to 20")


def _example3ii(ctx):
    pc = PeriodicCoeffs((1, 1, 1, 1, 0))
    lhs = normalized_value(pc, make_nome(Fraction(4), ctx))
    rhs = mp.sqrt(mp.mpf(5) / 2 + 5 * mp.sqrt(mp.mpf(5)) / 2)
    return Residual(lhs, rhs, note=f"A={pc.A}")


def _sextic_index(ctx, r: Fraction):
    residuals = sextic_Y_check(make_nome(r, ctx))
    satisfied = [label for label, resid in residuals.items() if resid < ctx.eps_check]
    return CheckOutcome(
        lhs="argument candidates {r, 4r, r/4}",
        rhs="sextic relation residuals",
        diff=min(residuals.values()),
        tolerance=ctx.eps_check,
        note="satisfied by: " + ", ".join(satisfied)
             + " (quarter argument is the identity; coincidences possible)",
    )


def _eq45_lambert_reading(ctx, g: int, r: Fraction):
    nome = make_nome(r, ctx)
    lam = lambert_series(JacobiCharacter(g), nome)
    bracket = mp.mpf(0)
    for d, mu in squarefree_divisors(g):
        bracket += mu * d * lambert_series(
            JacobiCharacter(1), nome.scaled(Fraction(d)))
    literal = -bracket / nome.q
    match_plain = abs(lam - bracket)
    match_literal = abs(lam - literal)
    reading = "bracket itself" if match_plain < match_literal else "-q^-1 * bracket"
    return Residual(
        lam, bracket,
        note=f"matching reading: {reading}; literal-prefactor mismatch {mp.nstr(match_literal, 5)}")


# ---- exact series checks ----

def _eq25_series(ctx, values, order: int):
    pc = PeriodicCoeffs(values)
    xs = [pc.value(n) for n in range(1, order + 1)]
    coeffs = coeffs_from_X(xs, order)
    target = FormalSeries([Fraction(0)] + [-c for c in coeffs]).exp()
    prod = FormalSeries.one(order)
    for spec, w in represent_product(pc):
        base = agile_qexpansion(int(spec.a), int(spec.p), order)
        prod = prod * base.pow_rational(w)
    return _series_outcome(target, prod,
                           note=f"period {pc.period}: exp(-sum c_n q^n) vs q-product expansion")


def _eq33_series(ctx, a: int, p: int, order: int):
    lhs = theta_qexpansion(p, a, order)
    rhs = eta_qexpansion(p, order) * agile_qexpansion(a, p, order)
    return _series_outcome(lhs, rhs, note=f"(a,p)=({a},{p})")


def _eq39_series(ctx, order: int):
    # everything lives in v = q^2
    lhs = (theta_qexpansion(5, 2, order).pow_int(6)
           * theta_qexpansion(5, 1, order).pow_int(6)
           * eta_qexpansion(5, order).pow_int(12).inverse())
    chi = JacobiCharacter(5).value
    pos = exponent_product(lambda n: 5 * chi(n), order)
    neg = pos.inverse()
    rhs = neg - FormalSeries.from_terms({1: 11}, order) - pos.shift(2)
    return _series_outcome(lhs, rhs, note="both sides times v, v = q^2")


def _eq45_series(ctx, g: int, order: int):
    outcome = _series_outcome(*square_character_eta_identity(g, order), note=f"order {order}")
    return outcome._replace(lhs=f"prod (1-q^n)^((n/{g}))",
                            rhs="inclusion-exclusion eta quotient")


def _eq09_series(ctx, order: int):
    chi = JacobiCharacter(5).value
    lhs = exponent_product(lambda n: 5 * chi(n), order).shift(1)
    R = exponent_product(lambda n: chi(n // 5) if n % 5 == 0 else 0, order).shift(1)
    num = (FormalSeries.one(order) - R.scale(2) + R.pow_int(2).scale(4)
           - R.pow_int(3).scale(3) + R.pow_int(4))
    den = (FormalSeries.one(order) + R.scale(3) + R.pow_int(2).scale(4)
           + R.pow_int(3).scale(2) + R.pow_int(4))
    rhs = R * num * den.inverse()
    return _series_outcome(lhs, rhs, note="fifth-root nome transform as series in u = q^(1/5)")


# ---- recognition checks (conjecture suite) ----

# (a, p, r) triples whose starred product is recognized at degree <= 24
# with coefficient height < 10^4 at 300 digits.
CONJECTURE_TRIPLES = (
    ("1", "4", "1"), ("1", "4", "2"), ("1", "4", "4"), ("1", "4", "1/2"),
    ("1", "2", "1"), ("1", "2", "2"), ("1/2", "2", "1"), ("1", "6", "2"),
    ("1", "8", "2"), ("3", "8", "2"), ("1", "5", "4"), ("2", "5", "4"),
)


def _eq19_recognition(ctx, a: str, p: str, r: str):
    rec = recognize_expression(
        "agile_star", {"a": a, "p": p, "r": r}, max_degree=24,
        height_digits=4, ctx=ctx)
    ok = rec.status == "recognized" and rec.poly is not None and rec.poly.degree <= 24
    return CheckOutcome(
        lhs=f"[{a},{p}]* at r={r}",
        rhs=str(rec.poly) if rec.poly else "(no relation within bounds)",
        diff=0 if ok else 1,
        tolerance=1,
        note=f"status={rec.status}"
             + (f", degree={rec.poly.degree}, verified_residual={mp.nstr(rec.verified_residual, 5)}"
                if rec.poly else ""),
    )


def _eq59_quartic(ctx):
    target = (-885735, 0, -21870, 364, 45)
    rec = recognize_expression(
        "agile_star_ki", {"a": "1", "p": "3", "x": "1/5", "power": 6},
        max_degree=6, height_digits=7, ctx=ctx)
    ok = (rec.status == "recognized" and rec.poly is not None
          and rec.poly.coefficients == target)
    return CheckOutcome(
        lhs="sixth power of the (1,3) starred product at r = k_i(1/5)",
        rhs=str(rec.poly) if rec.poly else "(none)",
        diff=0 if ok else 1, tolerance=1,
        note=f"status={rec.status}")


def _eq58_radical(ctx):
    val = QUANTITIES["agile_star_ki"].evaluate({"a": "1", "p": "3", "x": "1/5"}, ctx)
    t = mp.mpf(3) ** (mp.mpf(2) / 3) * mp.cbrt(mp.mpf(10))
    radical = (-182 - mp.sqrt(689224 - 148230 * t)
               + mp.sqrt(2 * (92571934
                              * mp.sqrt(2 / (344612 - 74115 * t))
                              + 74115 * t + 689224))) / 90
    return Residual(val ** 6, radical, note="printed nested radical vs computed sixth power")


def _ki_roundtrip(ctx):
    rs = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5))
    worst = mp.mpf(0)
    for r in rs:
        k = singular_modulus(r, ctx)
        worst = max(worst, abs(inverse_singular_modulus(k, ctx) - to_mpf(r)))
    return CheckOutcome("k_i(k_r)", "r", worst, ctx.eps_check,
                        note=f"grid {[str(r) for r in rs]}")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _build_registry() -> dict:
    checks: list[IdentityCheck] = []

    def add(id_, suites, anchors, kind, run, min_digits=0):
        checks.append(IdentityCheck(id_, tuple(suites), tuple(anchors), kind, run,
                                    min_digits))

    PC = ("paper-core",)
    CJ = ("conjectures",)
    SE = ("series-exact",)

    for r in (Fraction(1), Fraction(2), Fraction(1, 5)):
        tag = str(r).replace("/", "_")
        add(f"eq03.product-moduli.r{tag}", PC, ("eq03", "eq05", "eq06"), "numeric",
            lambda ctx, r=r: modular5_check(make_nome(r, ctx))[0])
        add(f"eq04.depressed.r{tag}", PC, ("eq04",), "numeric",
            lambda ctx, r=r: modular5_check(make_nome(r, ctx))[1])
    for r in (Fraction(1), Fraction(2)):
        add(f"eq05.modulus-theta.r{r}", PC, ("eq01", "eq02", "eq05"), "numeric",
            partial(_modulus_theta, r=r))
    add("eq06.modulus25-theta.r1", PC, ("eq06",), "numeric",
        partial(_modulus_theta, r=Fraction(25)))
    for r in (Fraction(1), Fraction(2)):
        add(f"eq08.klein-vs-modulus.r{r}", PC, ("eq07", "eq08", "eq10"), "numeric",
            partial(_klein, r=r))
    add("eq07.reciprocity.r1_5", PC, ("eq07",), "numeric",
        partial(_reciprocity, r=Fraction(1, 5)))
    for r in (Fraction(25), Fraction(50)):
        add(f"eq09.degree5-transform.r{r}", PC, ("eq09",), "numeric",
            lambda ctx, r=r: ramanujan_modular5_check(make_nome(r, ctx)))
    for r in (Fraction(1), Fraction(2), Fraction(3)):
        add(f"eq16.j-eta-route.r{r}", PC, ("eq10", "eq15", "eq16"), "numeric",
            lambda ctx, r=r: Residual(j_invariant(r, ctx, via="modulus"),
                                      j_invariant(r, ctx, via="eta")))
        add(f"eq17.eta-power.r{r}", PC, ("eq15", "eq17"), "numeric",
            partial(_eta_power, r=r))
    add("eq33.bridge.grid", PC, ("eq18", "eq26", "eq32", "eq33", "thm1"), "numeric",
        partial(_theta_eta_agile_grid, rs=(Fraction(1), Fraction(2), Fraction(3)), pmax=8))
    add("eq28.triangular.a1p5.r2", PC, ("eq27", "eq28"), "numeric",
        partial(_eq28, a=1, p=5, r=Fraction(2)))
    add("eq30.duplication.r2", PC, ("eq29", "eq30"), "numeric",
        partial(_duplication, r=Fraction(2)))
    add("eq35.jacobi5-lambert.r1", PC, ("eq34", "eq35", "eq44", "thm2"), "numeric",
        partial(_eq35, r=Fraction(1)))
    add("eq36.eisenstein5.r1", PC, ("eq36",), "numeric", partial(_eq36, r=Fraction(1)))
    add("thm2.lambert-logderiv.rrcf.r2", PC, ("eq34", "thm2"), "numeric",
        partial(_thm2, values=(1, -1, -1, 1, 0), r=Fraction(2)))
    add("thm1.product-vs-theta.rrcf.r2", PC, ("eq32", "thm1"), "numeric",
        partial(_thm1_consistency, values=(1, -1, -1, 1, 0), r=Fraction(2)))
    for r in (Fraction(1), Fraction(2), Fraction(1, 5)):
        tag = str(r).replace("/", "_")
        add(f"eq39.bridge.r{tag}", PC, ("eq39",), "numeric", partial(_eq39_numeric, r=r))
    add("eq39.worked.r1_5", PC, ("eq39",), "numeric", _eq39_worked)
    for r in (Fraction(1, 5), Fraction(1, 2), Fraction(1)):
        tag = str(r).replace("/", "_")
        add(f"eq40.tail-integral.r{tag}", PC, ("eq40", "eq41", "eq42", "thm3"), "numeric",
            lambda ctx, r=r: theorem3_check(r, ctx))
    add("eq40.k45-radical", PC, ("eq40", "eq01"), "numeric", _k45_radical)
    for r in (Fraction(1), Fraction(2)):
        add(f"eq43.beta-derivative.r{r}", PC, ("eq43",), "numeric", partial(_eq43, r=r))
    for r in (Fraction(1), Fraction(2), Fraction(3), Fraction(5)):
        add(f"eq46.eisenstein-alpha.r{r}", PC, ("eq46",), "numeric", partial(_eq46, r=r))
    for r in (Fraction(1), Fraction(2)):
        add(f"eq47.powersum-even.r{r}", PC, ("eq47", "eq49"), "numeric",
            partial(_powersum, r=r, ms=(0, 2, -2)))
        add(f"eq48.powersum-odd.r{r}", PC, ("eq48", "eq49"), "numeric",
            partial(_powersum, r=r, ms=(1, -1, 3)))
    for r in (Fraction(1), Fraction(2), Fraction(3, 2)):
        tag = str(r).replace("/", "_")
        for name, anchors, a in (("eq53.q14-closed", ("eq52", "eq53", "eq55", "eq57"), 1),
                                 ("eq54.q12-4-closed", ("eq54", "eq56"), Fraction(1, 2))):
            add(f"{name}.r{tag}", ("paper-core", "conjectures"), anchors, "numeric",
                partial(_star_closed_form, a=Fraction(a), p=Fraction(4), r=r))
    add("eq50.ki-roundtrip", PC, ("eq50",), "numeric", _ki_roundtrip)
    for p in (3, 5):
        add(f"thm4.p{p}.r1", PC, ("thm4",), "numeric",
            lambda ctx, p=p: theorem4_check(p, Fraction(1), ctx))
    add("thm4.p2.r1", PC, ("thm4",), "recorded", _thm4_p2)
    add("ex2.t3-closed-form.r1", PC, ("ex2", "eq20", "eq21", "eq22", "thm"), "numeric",
        _example2)
    add("ex3.sextic-j20.r2", PC, ("ex3", "eq13", "eq14"), "numeric", _example3i)
    add("ex3.value.r4", PC, ("ex3",), "numeric", _example3ii)
    for r in (Fraction(2), Fraction(3)):
        add(f"sexticY.index.r{r}", PC, ("ex3", "eq13"), "recorded",
            partial(_sextic_index, r=r))

    # conjectures
    for a, p, r in CONJECTURE_TRIPLES:
        tag = f"{a}_{p}_{r}".replace("/", "o")
        add(f"eq19.recognize.{tag}", CJ, ("eq18", "eq19", "eq20", "eq21"), "numeric",
            partial(_eq19_recognition, a=a, p=p, r=r), min_digits=300)
    add("eq59.quartic", CJ, ("eq50", "eq52", "eq57", "eq59"), "numeric",
        _eq59_quartic, min_digits=300)
    add("eq58.radical", CJ, ("eq58", "eq59"), "numeric", _eq58_radical)
    for g in (9, 25, 225):
        add(f"eq45.series.g{g}", ("conjectures", "series-exact"), ("eq44", "eq45"),
            "exact", partial(_eq45_series, g=g, order=200))
    add("eq45.lambert-reading.g25.r2", CJ, ("eq45",), "recorded",
        partial(_eq45_lambert_reading, g=25, r=Fraction(2)))

    # series-exact
    add("eq25.series.t3", SE, ("eq20", "eq22", "eq23", "eq24", "eq25", "thm"), "exact",
        partial(_eq25_series, values=(1, 1, 0), order=100))
    add("eq25.series.t5-rrcf", SE, ("eq25", "ex1"), "exact",
        partial(_eq25_series, values=(1, -1, -1, 1, 0), order=100))
    add("eq25.series.t4-middle", SE, ("eq25",), "exact",
        partial(_eq25_series, values=(0, 1, 0, 0), order=100))
    add("eq25.series.t8-jacobi", SE, ("eq25", "eq44"), "exact",
        partial(_eq25_series, values=(1, 0, -1, 0, -1, 0, 1, 0), order=100))
    for a, p in ((1, 3), (1, 4), (1, 5), (2, 5), (3, 7), (3, 8)):
        add(f"eq33.series.a{a}p{p}", SE, ("eq26", "eq32", "eq33"), "exact",
            partial(_eq33_series, a=a, p=p, order=100))
    add("eq39.series", SE, ("eq39",), "exact", partial(_eq39_series, order=120))
    add("eq09.series", SE, ("eq09",), "exact", partial(_eq09_series, order=40))

    return {c.id: c for c in checks}


REGISTRY: dict[str, IdentityCheck] = _build_registry()

SUITES = ("paper-core", "conjectures", "series-exact", "all")

DEFAULT_DIGITS = {"paper-core": 120, "conjectures": 300, "series-exact": 50, "all": 120}

# verify's worker processes when --parallelism is not given: a pool costs
# paper-core and series-exact more than it saves; conjectures gains from one
DEFAULT_PARALLELISM = {"paper-core": 1, "series-exact": 1,
                       "conjectures": os.cpu_count() or 1, "all": os.cpu_count() or 1}

def checks_for_suite(suite: str) -> list[IdentityCheck]:
    if suite == "all":
        return list(REGISTRY.values())
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {SUITES}")
    return [c for c in REGISTRY.values() if suite in c.suites]


def _execute_check(check_id: str, digits: int) -> IdentityReport:
    """Run one check and format its report, both at its working precision;
    a ``Residual`` is judged against ``ctx.eps_check``."""
    check = REGISTRY[check_id]
    ctx = PrecisionContext(max(digits, check.min_digits))
    start = time.monotonic()
    with ctx.workdps():
        try:
            outcome = check.run(ctx)
            if isinstance(outcome, Residual):
                outcome = CheckOutcome(_num(outcome.lhs), _num(outcome.rhs), outcome.diff,
                                       ctx.eps_check, outcome.note)
            fields = dict(lhs=outcome.lhs, rhs=outcome.rhs, abs_difference=_num(outcome.diff),
                          tolerance=_num(outcome.tolerance), note=outcome.note,
                          verdict="pass" if outcome.diff < outcome.tolerance else "fail")
        except Exception as exc:  # a failing check must not abort the suite
            fields = dict(lhs="(error)", rhs="(error)", abs_difference="inf", tolerance="0",
                          note=f"{type(exc).__name__}: {exc}", verdict="fail")
    if check.kind == "recorded":
        fields["verdict"] = "recorded"
    return IdentityReport(id=check.id, wall_time_ms=round((time.monotonic() - start) * 1000, 3),
                          **fields)


def run_suite(name: str, digits: Optional[int] = None,
              parallelism: int = 1) -> list[IdentityReport]:
    """Run every check registered for the suite; returns reports in
    registry order.  Individual check errors become fail verdicts, the
    runner itself never aborts.  At most one worker process per check is
    started."""
    digits = DEFAULT_DIGITS.get(name, 120) if digits is None else digits
    if digits < 50:
        raise DomainError("suite runs need digits >= 50")
    if parallelism < 1:
        raise DomainError(f"parallelism must be >= 1, got {parallelism}")
    ids = [c.id for c in checks_for_suite(name)]
    workers = min(parallelism, len(ids))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a slow import, needed only here

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(partial(_execute_check, digits=digits), ids))
    return [_execute_check(i, digits) for i in ids]


def summarize(reports: list[IdentityReport]) -> dict:
    return {
        "pass": sum(1 for r in reports if r.verdict == "pass"),
        "fail": sum(1 for r in reports if r.verdict == "fail"),
        "recorded": sum(1 for r in reports if r.verdict == "recorded"),
    }


def emit_report(reports: list[IdentityReport], fmt: str = "text",
                suite: str = "", digits: int = 0, workers: int = 1) -> str:
    if fmt == "json":
        return json.dumps({
            "suite": suite,
            "digits": digits,
            "workers": workers,
            "checks": [r._asdict() for r in reports],
            "summary": summarize(reports),
        }, indent=2)
    if fmt == "text":
        lines = []
        width = max([len(r.id) for r in reports], default=10)
        for r in reports:
            lines.append(
                f"{r.id:<{width}}  {r.verdict:<8}  diff={r.abs_difference:<12} "
                f"tol={r.tolerance:<12} {r.wall_time_ms:>9.3f}ms  {r.note}")
        s = summarize(reports)
        lines.append(
            f"{'summary':<{width}}  pass={s['pass']} fail={s['fail']} recorded={s['recorded']}")
        return "\n".join(lines)
    raise ValueError(f"unknown format {fmt!r}")
