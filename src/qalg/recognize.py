"""Algebraic-number recognition via exact integer lattice reduction.

Given a value known to hundreds of digits, build the knapsack lattice on
(1, x, ..., x^d) with the powers scaled to integers, LLL-reduce it with
exact integer arithmetic (delta = 1/2, then 99/100), and read candidate
integer relations off the short vectors.  Each degree's lattice is seeded
with the reduced basis of the degree before it, so the scan never reduces a
lattice from scratch.  A candidate is only reported as
*recognized* after a two-tier residual test: small at working precision,
and - when the value can be recomputed - still consistently small at
doubled precision.  Degrees are scanned in ascending order, so the
returned polynomial has minimal degree among the passing candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import mpmath as mp

from .errors import DegenerateBasis, DomainError, InsufficientPrecision, SingularError
from .precision import HPReal, PrecisionContext, exact, integer, to_mpf
from .qengine import (
    AgileSpec,
    ThetaSpec,
    agile,
    agile_star,
    eta_paper,
    make_nome,
    theta2,
    theta3,
    theta_general,
)
from .elliptic import (
    elliptic_alpha,
    ellint_K,
    inverse_singular_modulus,
    j_invariant,
    multiplier,
    singular_K,
    singular_modulus,
)
from .modular import rrcf, sextic_theta


# ---------------------------------------------------------------------------
# exact integer LLL
# ---------------------------------------------------------------------------

def lattice_reduce(basis: Sequence[Sequence[int]]) -> list[list[int]]:
    """LLL-reduce an integer basis (rows), entirely in integer arithmetic.

    Uses the integral Gram-Schmidt bookkeeping d_i, lambda_{i,j}; the
    Lovasz test for delta = num/den is
    den*(d[k+1]*d[k-1] + lambda^2) < num*d[k]^2.
    A delta = 1/2 stage, whose swaps each at least halve prod d_i, does
    the bulk; a delta = 99/100 stage then restarts at k = 1 on the same
    basis, d and lambda, so the output is delta = 99/100-reduced.
    Raises DegenerateBasis on linearly dependent rows.
    """
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    if n == 0 or any(len(row) != len(b[0]) for row in b):
        raise DomainError("basis must be a non-empty rectangular matrix")
    if n == 1:
        if not any(b[0]):
            raise DegenerateBasis("zero row")
        return b

    d = [0] * (n + 1)
    d[0] = 1
    lam = [[0] * n for _ in range(n)]

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def reduce_row(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            bk, bl = b[k], b[l]
            for i in range(len(bk)):
                bk[i] -= q * bl[i]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap_rows(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lam_ = lam[k][k - 1]
        new_dk = (d[k - 1] * d[k + 1] + lam_ * lam_) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_ * t) // d[k]
            lam[i][k - 1] = (new_dk * t + lam_ * lam[i][k]) // d[k + 1]
        d[k] = new_dk

    kmax = 0
    d[1] = dot(b[0], b[0])
    if d[1] == 0:
        raise DegenerateBasis("zero row")
    for num, den in ((1, 2), (99, 100)):
        k = 1
        while k < n:
            if k > kmax:
                kmax = k
                for j in range(k + 1):
                    u = dot(b[k], b[j])
                    for i in range(j):
                        u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                    if j < k:
                        lam[k][j] = u
                    else:
                        if u == 0:
                            raise DegenerateBasis("rows are linearly dependent")
                        d[k + 1] = u
            while True:
                reduce_row(k, k - 1)
                if den * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < num * d[k] * d[k]:
                    swap_rows(k, kmax)
                    k = max(1, k - 1)
                else:
                    for l in range(k - 2, -1, -1):
                        reduce_row(k, l)
                    k += 1
                    break
    return b


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegerPolynomial:
    """Primitive integer polynomial c0 + c1 x + ... + cd x^d with
    positive leading coefficient."""

    coefficients: tuple

    def __post_init__(self):
        cs = [int(c) for c in self.coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            raise DomainError("the zero polynomial is not allowed")
        g = 0
        for c in cs:
            g = math.gcd(g, abs(c))
        if g > 1:
            cs = [c // g for c in cs]
        if cs[-1] < 0:
            cs = [-c for c in cs]
        object.__setattr__(self, "coefficients", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def evaluate(self, x):
        """The value at x by Horner's rule: an mpf at an mpf x, exact at
        a Fraction x."""
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coefficients):
            if not c:
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return " + ".join(parts).replace("+ -", "- ")


@dataclass(frozen=True)
class RecognitionResult:
    poly: Optional[IntegerPolynomial]
    residual: Optional[HPReal]
    verified_residual: Optional[HPReal]
    digits_used: int
    status: str  # recognized | refuted-at-bounds | inconclusive
    provenance: str = ""
    lattice_digits: int = 0  # log10 of the scale of the last lattice reduced

    def to_json_dict(self) -> dict:
        return {
            "poly": list(self.poly.coefficients) if self.poly else None,
            "residual": mp.nstr(self.residual, 8) if self.residual is not None else None,
            "verified_residual": (mp.nstr(self.verified_residual, 8)
                                  if self.verified_residual is not None else None),
            "status": self.status,
            "digits": self.digits_used,
            "lattice_digits": self.lattice_digits,
            "provenance": self.provenance,
        }


def _candidate_rows(reduced: list[list[int]]):
    rows = [r for r in reduced if any(r[:-1])]
    rows.sort(key=lambda r: sum(c * c for c in r))
    return rows


def recognize(
    x,
    max_degree: int,
    height_digits: int,
    ctx: PrecisionContext,
    recompute: Optional[Callable[[PrecisionContext], HPReal]] = None,
    provenance: str = "",
) -> RecognitionResult:
    """Search for an integer polynomial of degree <= max_degree and
    coefficient height < 10^height_digits annihilating x.

    The degree-d lattice is scaled by 10^s(d), where
    s(d) = min(digits - guard, (d+1)*(height_digits+1) + 2*guard): enough
    digits to single out a relation of height < 10^height_digits, with
    one digit per row to spare for LLL's approximation factor and the
    relation's own norm, and no more, since LLL's cost grows with the
    size of the entries.

    The degrees are scanned in ascending order, and each lattice starts
    from the reduced one before it.  A reduced degree-d row is (u, u.c)
    with u its integer coordinates and c_i = round(10^s(d) x^i); it enters
    the degree-(d+1) basis as (u, 0, u.c'), c' the powers rounded at the
    new scale 10^s(d+1), beside the new row (e_{d+1}, c'_{d+1}).  The
    coordinate block stays unimodular, so this basis spans the same
    lattice as the identity basis on c', and it starts nearly reduced.

    The scale only proposes candidates; the gate reads the full-precision
    x.  A candidate passes at degree d only if
    |P(x)| < 10^-(digits - d*height_digits - guard), and is *recognized*
    only if the residual also survives the second tier: with a
    `recompute` callback the value is rebuilt at doubled precision and
    |P| must fall below 10^-(2*digits - d*height_digits - guard); without
    one, P is re-evaluated on x in exact rational arithmetic against the
    first-tier bound (guarding against evaluation round-off, not against
    short inputs - supply recompute when possible).

    Two exact rules come before any residual.  With H = 10^height_digits,
    every root of a candidate lies below H in absolute value (Cauchy's
    bound) and at |x| >= 2H every candidate has |P(x)| > 1, so such an x
    is refuted before any lattice is built.  For x != 0 a candidate with
    c0 = 0 is skipped: it is x^k Q(x), and Q's lower degree decides.
    """
    if max_degree < 1:
        raise DomainError("max_degree must be >= 1")
    if height_digits < 1:
        raise DomainError("height_digits must be >= 1")
    digits = ctx.digits
    needed = max_degree * height_digits + 2 * ctx.guard
    if digits < needed:
        raise InsufficientPrecision(
            f"recognition at degree {max_degree}, height 10^{height_digits} "
            f"needs at least {needed} working digits, have {digits}"
        )
    height_bound = 10 ** height_digits

    with ctx.workdps():
        xv = mp.mpf(x)
        if not mp.isfinite(xv):
            raise DomainError("value must be finite")
        if abs(xv) >= 2 * height_bound:
            return RecognitionResult(None, None, None, digits, "refuted-at-bounds",
                                     provenance)
        powers = [mp.mpf(1)]
        for _ in range(max_degree):
            powers.append(powers[-1] * xv)

        best = None
        coords = [[1]]  # the coordinate rows of the degree-0 lattice
        for d in range(1, max_degree + 1):
            lattice_digits = min(digits - ctx.guard,
                                 (d + 1) * (height_digits + 1) + 2 * ctx.guard)
            scale = mp.mpf(10) ** lattice_digits
            c = [int(mp.nint(scale * p)) for p in powers[:d + 1]]
            coords = [u + [0] for u in coords] + [[0] * d + [1]]
            reduced = lattice_reduce([u + [sum(a * b for a, b in zip(u, c))] for u in coords])
            coords = [row[:-1] for row in reduced]
            tier1 = mp.mpf(10) ** -(digits - d * height_digits - ctx.guard)
            for row in _candidate_rows(reduced)[:3]:
                coeffs = row[:-1]
                if max(abs(c) for c in coeffs) >= height_bound:
                    continue
                if xv and not coeffs[0]:
                    continue  # x^k Q(x), x != 0: Q's own degree decides
                try:
                    poly = IntegerPolynomial(tuple(coeffs))
                except DomainError:
                    continue
                resid = abs(poly.evaluate(xv))
                if resid < tier1:
                    best = (d, poly, resid, tier1)
                    break
            if best:
                break

        if best is None:
            return RecognitionResult(None, None, None, digits, "refuted-at-bounds",
                                     provenance, lattice_digits)

    d, poly, resid, tier1 = best
    if recompute is not None:
        ctx2 = ctx.doubled()
        with ctx2.workdps():
            x2 = mp.mpf(recompute(ctx2))
            v = abs(poly.evaluate(x2))
            tier2 = mp.mpf(10) ** -(2 * digits - d * height_digits - ctx.guard)
            status = "recognized" if v < tier2 else "inconclusive"
    else:
        with ctx.doubled().workdps():
            v = abs(to_mpf(poly.evaluate(exact(x))))
            status = "recognized" if v < tier1 else "inconclusive"
    with ctx.workdps():
        return RecognitionResult(poly, +resid, +v, digits, status, provenance,
                                 lattice_digits)


# ---------------------------------------------------------------------------
# the named quantities
# ---------------------------------------------------------------------------

class _Params(dict):
    """A quantity's parameters; reading a missing one names its flag."""

    def __init__(self, quantity: str, values: dict):
        super().__init__(values)
        self.quantity = quantity

    def __missing__(self, name):
        raise DomainError(f"{self.quantity} needs --{name}")


@dataclass(frozen=True)
class Quantity:
    """A named quantity: the parameters it reads and its evaluator.

    ``params`` lists the parameter names in the order they are reported;
    ``defaults`` gives the value of each one that may be left out.  Values
    are written as on the command line - exact rationals as ``"n/d"``
    strings, though numbers are accepted too - and ``compute(params, ctx)``
    parses them and returns the quantity at ctx precision.
    """

    name: str
    params: tuple
    compute: Callable[[dict, PrecisionContext], HPReal]
    defaults: dict = field(default_factory=dict)

    def complete(self, given: dict) -> dict:
        """The given parameters this quantity reads, in report order, with
        the defaults filled in."""
        return {name: value for name in self.params
                if (value := given.get(name, self.defaults.get(name))) is not None}

    def evaluate(self, params: dict, ctx: PrecisionContext) -> HPReal:
        """The value at ctx precision; a missing parameter is a DomainError."""
        with ctx.workdps():
            return +self.compute(_Params(self.name, self.complete(params)), ctx)


def _nome(p: dict, ctx: PrecisionContext):
    return make_nome(p["r"], ctx)


def _agile_spec(p: dict) -> AgileSpec:
    return AgileSpec(Fraction(p["a"]), Fraction(p["p"]))


def _ellint_K(p: dict, ctx: PrecisionContext) -> HPReal:
    if "k" in p:
        return ellint_K(p["k"], ctx)
    return singular_K(p["r"], ctx)


def _agile_star_ki(p: dict, ctx: PrecisionContext) -> HPReal:
    r = inverse_singular_modulus(p["x"], ctx)
    return agile_star(_agile_spec(p), make_nome(r, ctx))


QUANTITIES: dict[str, Quantity] = {q.name: q for q in (
    Quantity("agile", ("a", "p", "r"),
             lambda p, ctx: agile(_agile_spec(p), _nome(p, ctx))),
    Quantity("agile_star", ("a", "p", "r"),
             lambda p, ctx: agile_star(_agile_spec(p), _nome(p, ctx))),
    Quantity("agile_star_ki", ("a", "p", "x"), _agile_star_ki),
    Quantity("theta", ("a", "b", "r"),
             lambda p, ctx: theta_general(ThetaSpec(Fraction(p["a"]), Fraction(p["b"])),
                                          _nome(p, ctx))),
    Quantity("theta2", ("r",), lambda p, ctx: theta2(_nome(p, ctx))),
    Quantity("theta3", ("r",), lambda p, ctx: theta3(_nome(p, ctx))),
    Quantity("eta_paper", ("mult", "r"),
             lambda p, ctx: eta_paper(Fraction(p["mult"]), _nome(p, ctx)),
             defaults={"mult": "1"}),
    Quantity("k", ("r",), lambda p, ctx: singular_modulus(p["r"], ctx)),
    Quantity("ki", ("x",), lambda p, ctx: inverse_singular_modulus(p["x"], ctx)),
    Quantity("K", ("k", "r"), _ellint_K),
    Quantity("alpha", ("r",), lambda p, ctx: elliptic_alpha(p["r"], ctx)),
    Quantity("j", ("via", "r"),
             lambda p, ctx: j_invariant(p["r"], ctx, via=p["via"]),
             defaults={"via": "modulus"}),
    Quantity("rrcf", ("method", "r"),
             lambda p, ctx: rrcf(_nome(p, ctx), method=p["method"]),
             defaults={"method": "product"}),
    Quantity("sextic_theta", ("r",), lambda p, ctx: sextic_theta(_nome(p, ctx))),
    Quantity("multiplier", ("r", "n"),
             lambda p, ctx: multiplier(p["r"], p["n"], ctx)),
)}


def recognize_expression(
    name: str,
    params: dict,
    max_degree: int,
    height_digits: int,
    ctx: PrecisionContext,
) -> RecognitionResult:
    """Evaluate a named quantity, raised to the integer ``params["power"]``
    (default 1), at ctx precision and recognize it, with the
    doubled-precision re-verification wired to the same evaluation.  A value
    of 0 under a negative power is a SingularError."""
    try:
        entry = QUANTITIES[name]
    except KeyError:
        raise DomainError(
            f"unknown quantity {name!r}; choose from {sorted(QUANTITIES)}") from None
    power = integer(params.get("power", 1))
    prov = entry.name + "(" + ", ".join(f"{k}={v}" for k, v in sorted(params.items())) + ")"

    def value(c: PrecisionContext) -> HPReal:
        return raise_to(entry.evaluate(params, c), power, c, prov)

    return recognize(value(ctx), max_degree, height_digits, ctx,
                     recompute=value, provenance=prov)


def raise_to(x: HPReal, power: int, ctx: PrecisionContext, provenance: str) -> HPReal:
    """x ** power at ctx precision; a value of 0 under a negative power is
    a SingularError."""
    if power < 0 and not x:
        raise SingularError(f"{provenance}: the value is 0, so power {power} is undefined")
    with ctx.workdps():
        return +(x ** power)


# ---------------------------------------------------------------------------
# closed forms of the starred products
# ---------------------------------------------------------------------------

# The starred products with a closed form in the singular modulus k = k_r:
# (a, p) -> (N, f) with ([a,p;q]*)^N = f(k) at q = exp(-pi sqrt(r)).
STAR_CLOSED_FORMS: dict[tuple[Fraction, Fraction], tuple[int, Callable]] = {
    (Fraction(1), Fraction(4)): (12, lambda k: 4 * (1 - k * k) / k),
    (Fraction(1, 2), Fraction(4)): (
        48, lambda k: (4 * (1 - k) ** 4 * (2 + k - 2 * mp.sqrt(1 + k)) ** 12
                       / (k ** 13 * (1 + k) ** 2))),
}
