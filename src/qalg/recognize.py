"""Algebraic-number recognition via exact integer lattice reduction.

Given a value known to hundreds of digits, build the knapsack lattice on
(1, x, ..., x^d) with the powers scaled to integers, LLL-reduce it with
exact integer arithmetic (delta = 1/2, then 99/100), and read candidate
integer relations off the short vectors.  Only the degrees 1, 2, 4, 8, ...
and the degree bound are reduced, each seeded with the reduced basis of the
one before it.  The gcd of the relations at the first degree with any is
only reported as *recognized* after a two-tier residual test: small at
working precision, and - when the value can be recomputed - still
consistently small at doubled precision.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from operator import mul
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

def lattice_reduce(basis: Sequence[Sequence[int]], polish: bool = True) -> list[list[int]]:
    """LLL-reduce an integer basis (rows), entirely in integer arithmetic.

    Uses the integral Gram-Schmidt bookkeeping d_i, lambda_{i,j}; the
    Lovasz test for delta = num/den is
    den*(d[k+1]*d[k-1] + lambda^2) < num*d[k]^2.
    A delta = 1/2 stage, whose swaps each at least halve prod d_i, does
    the bulk; with ``polish`` a delta = 99/100 stage then restarts at
    k = 1 on the same basis, d and lambda, so the output is
    delta = 99/100-reduced, and without it delta = 1/2-reduced.
    Raises DegenerateBasis on linearly dependent rows.

    Each row is held as one int, P_i = sum_j b_ij 2^(W j) (Kronecker
    packing): a size-reduction step is P_k -= q P_l, a swap exchanges two
    ints, and rows are decoded only at Gram-Schmidt initialisation and on
    return.  Packed arithmetic is exact, so a slot that overflows between
    decodes does no harm.  At a decode each row is an untouched input row
    or fully size-reduced, and no Gram-Schmidt norm exceeds B, the largest
    squared norm of an input row, so b_ij^2 <= |b_i|^2 <= (1 + n/4) B: any
    W with 2^(2(W-1)) > (1 + n/4) B is enough.  W is whole bytes.
    """
    b = [list(map(int, row)) for row in basis]
    n = len(b)
    if n == 0 or any(len(row) != len(b[0]) for row in b):
        raise DomainError("basis must be a non-empty rectangular matrix")

    m = len(b[0])
    # bytes per slot, W = 8 nb: 2^(2W) > (n + 4) B
    nb = (max(sum(x * x for x in row) for row in b) * (n + 4)).bit_length() // 16 + 1
    h = 1 << (8 * nb - 1)
    offset = int.from_bytes((bytes(nb - 1) + b"\x80") * m, "little")  # h in every slot

    P = [int.from_bytes(b"".join((x + h).to_bytes(nb, "little") for x in row), "little")
         - offset for row in b]

    def unpack(p):
        buf = (p + offset).to_bytes(nb * m, "little")
        return [int.from_bytes(buf[i:i + nb], "little") - h for i in range(0, nb * m, nb)]

    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    kmax = 0
    d[1] = sum(x * x for x in b[0])
    if d[1] == 0:
        raise DegenerateBasis("zero row")
    for num, den in ((1, 2), (99, 100))[:1 + polish]:
        k = 1
        while k < n:
            lk = lam[k]
            if k > kmax:
                # rows above kmax are untouched, so b[k] is still row k
                kmax = k
                for j in range(k + 1):
                    u = sum(map(mul, b[k], unpack(P[j]) if j < k else b[k]))
                    for i in range(j):
                        u = (d[i + 1] * u - lk[i] * lam[j][i]) // d[i]
                    if j < k:
                        lk[j] = u
                    else:
                        if u == 0:
                            raise DegenerateBasis("rows are linearly dependent")
                        d[k + 1] = u
            # size-reduce row k against row k - 1, then the Lovasz test
            dk = d[k]
            lam_ = lk[k - 1]
            if 2 * abs(lam_) > dk:
                q = (2 * lam_ + dk) // (2 * dk)
                P[k] -= q * P[k - 1]
                lk[k - 1] = lam_ = lam_ - q * dk
                ll = lam[k - 1]
                for i in range(k - 1):
                    lk[i] -= q * ll[i]
            s = d[k - 1] * d[k + 1] + lam_ * lam_
            if den * s < num * dk * dk:
                # swap rows k - 1 and k; only lam[i][j], j < i, is ever read,
                # so the two lambda rows swap whole
                P[k], P[k - 1] = P[k - 1], P[k]
                lam[k - 1], lam[k] = lk, lam[k - 1]
                lam[k][k - 1] = lam_
                dk1 = d[k + 1]
                new_dk = s // dk
                for li in lam[k + 1:kmax + 1]:
                    t = li[k]
                    li[k] = (dk1 * li[k - 1] - lam_ * t) // dk
                    li[k - 1] = (new_dk * t + lam_ * li[k]) // dk1
                d[k] = new_dk
                k = max(k - 1, 1)
                continue
            for l in range(k - 2, -1, -1):
                dl = d[l + 1]
                if 2 * abs(lk[l]) > dl:
                    q = (2 * lk[l] + dl) // (2 * dl)
                    P[k] -= q * P[l]
                    lk[l] -= q * dl
                    ll = lam[l]
                    for i in range(l):
                        lk[i] -= q * ll[i]
            k += 1
    return [unpack(p) for p in P]


# ---------------------------------------------------------------------------
# recognition
# ---------------------------------------------------------------------------

class IntegerPolynomial(namedtuple("IntegerPolynomial", "coefficients")):
    """Primitive integer polynomial c0 + c1 x + ... + cd x^d with
    positive leading coefficient."""

    __slots__ = ()

    def __new__(cls, coefficients):
        cs = [int(c) for c in coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        if not cs:
            raise DomainError("the zero polynomial is not allowed")
        g = math.gcd(*cs) if cs[-1] > 0 else -math.gcd(*cs)
        return super().__new__(cls, tuple(c // g for c in cs))

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


class RecognitionResult(namedtuple("RecognitionResult", "poly residual verified_residual "
                                     "digits_used status provenance lattice_digits",
                                     defaults=("", 0))):
    """poly is an IntegerPolynomial or None, the residuals HPReals or None;
    status is recognized, refuted-at-bounds or inconclusive, and
    lattice_digits the log10 of the scale of the last lattice reduced."""

    __slots__ = ()

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


def _primitive_gcd(polys: Sequence[IntegerPolynomial]) -> IntegerPolynomial:
    """The gcd over Q of the polynomials, by Euclid's algorithm on
    Fraction coefficients, made a primitive integer polynomial."""
    g = []
    for p in polys:
        a, b = [Fraction(c) for c in p.coefficients], g
        while b:  # a, b = b, a mod b
            while len(a) >= len(b):
                f = a[-1] / b[-1]
                for i, c in enumerate(b, len(a) - len(b)):
                    a[i] -= f * c
                while a and not a[-1]:
                    a.pop()
            a, b = b, a
        g = a
    den = math.lcm(*(c.denominator for c in g))
    return IntegerPolynomial(tuple(c.numerator * (den // c.denominator) for c in g))


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

    Lattices are reduced at the degrees 1, 2, 4, 8, ... below max_degree,
    with LLL's delta = 1/2 stage only, and at max_degree with both.  Each
    starts from the reduced one before it: a degree-d row (u, u.c),
    c_i = round(10^s(d) x^i), enters the degree-D basis as
    (u, 0, ..., 0, u.c'), c' the powers at the new scale, beside the unit
    rows (e_i, c'_i), d < i <= D.  The coordinate block stays unimodular,
    so this basis spans the lattice of the identity basis on c', and it
    starts nearly reduced.

    The scale only proposes candidates; the gate reads the full-precision
    x.  A row is a relation if its height is below 10^height_digits and
    its polynomial P, stripped of its factor x^k when x != 0, passes the
    first tier |P(x)| < 10^-(digits - e*height_digits - guard), e = deg P.
    At the first degree with relations their gcd over Q, made primitive,
    is the candidate (by Gauss's lemma every integer relation of x is a
    multiple of its primitive minimal polynomial).  It must pass the
    height bound and the first tier, and is *recognized*
    only if the residual also survives the second tier: with a
    `recompute` callback the value is rebuilt at doubled precision and
    |P| must fall below 10^-(2*digits - e*height_digits - guard); without
    one, P is re-evaluated on x in exact rational arithmetic against the
    first-tier bound (guarding against evaluation round-off, not against
    short inputs - supply recompute when possible).

    With H = 10^height_digits, every root of a candidate lies below H in
    absolute value (Cauchy's bound) and at |x| >= 2H every candidate has
    |P(x)| > 1, so such an x is refuted before any lattice is built.
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

    def first_tier(e):
        return mp.mpf(10) ** -(digits - e * height_digits - ctx.guard)

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

        coords = [[1]]  # the coordinate rows of the degree-0 lattice
        for d in [1 << i for i in range((max_degree - 1).bit_length())] + [max_degree]:
            lattice_digits = min(digits - ctx.guard,
                                 (d + 1) * (height_digits + 1) + 2 * ctx.guard)
            scale = mp.mpf(10) ** lattice_digits
            c = [int(mp.nint(scale * p)) for p in powers[:d + 1]]
            coords = [u + [0] * (d + 1 - len(u)) for u in coords] + \
                [[int(i == j) for j in range(d + 1)] for i in range(len(coords), d + 1)]
            reduced = lattice_reduce([u + [sum(a * b for a, b in zip(u, c))] for u in coords],
                                     polish=d == max_degree)
            coords = [row[:-1] for row in reduced]
            relations = []
            for u in coords:
                if max(map(abs, u)) >= height_bound:
                    continue
                k = next(i for i, a in enumerate(u) if a) if xv else 0
                poly = IntegerPolynomial(tuple(u[k:]))
                if abs(poly.evaluate(xv)) < first_tier(poly.degree):
                    relations.append(poly)
            if relations:
                poly = _primitive_gcd(relations)
                resid, tier1 = abs(poly.evaluate(xv)), first_tier(poly.degree)
                if max(map(abs, poly.coefficients)) < height_bound and resid < tier1:
                    break
        else:
            return RecognitionResult(None, None, None, digits, "refuted-at-bounds",
                                     provenance, lattice_digits)

    if recompute is not None:
        ctx2 = ctx.doubled()
        with ctx2.workdps():
            x2 = mp.mpf(recompute(ctx2))
            v = abs(poly.evaluate(x2))
            tier2 = mp.mpf(10) ** -(2 * digits - poly.degree * height_digits - ctx.guard)
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


class Quantity(namedtuple("Quantity", "name params compute defaults", defaults=(None,))):
    """A named quantity: the parameters it reads and its evaluator.

    ``params`` lists the parameter names in the order they are reported;
    ``defaults``, if given, maps each one that may be left out to its value.
    Values are written as on the command line - exact rationals as ``"n/d"``
    strings, though numbers are accepted too - and ``compute(params, ctx)``
    parses them and returns the quantity at ctx precision.
    """

    __slots__ = ()

    def complete(self, given: dict) -> dict:
        """The given parameters this quantity reads, in report order, with
        the defaults filled in."""
        defaults = self.defaults or {}
        return {name: value for name in self.params
                if (value := given.get(name, defaults.get(name))) is not None}

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
