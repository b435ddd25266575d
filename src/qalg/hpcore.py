"""Adaptive tanh-sinh quadrature at high precision over finite intervals,
run on integers scaled by 2^P (fixed point).

The rule is mpmath's tanh-sinh (Bailey, "Tanh-sinh high-precision
quadrature"; Borwein, Bailey & Girgensohn, *Experimentation in
Mathematics*, 2003, pp. 312-313): at degree m the new abscissas are
x_k = tanh(pi/2 sinh(t_k)), weights w_k = pi/2 cosh(t_k)/cosh(pi/2
sinh(t_k))^2, t_k = t_0 + k h with t_0 = 2^-m.  Nodes, integrand values
and level sums are Python integers scaled by 2^P; only the level results
are turned into ``mpmath.mpf``, for mpmath's error estimate and for the
value returned, good to ``ctx.digits`` digits of the
:class:`~qalg.precision.PrecisionContext` passed in.  ``split_point``
predicts, from an integrand's poles and the precision, where cutting an
interval in two makes each piece stop a degree lower.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import mpmath as mp
from mpmath.libmp.libelefun import exp_fixed, pi_fixed

from .errors import ConvergenceError, DomainError
from .precision import HPReal, PrecisionContext, exact, to_mpf

_MAX_DEGREE = 10
# Each level makes at most 2 (20 * 2^m + 1) evaluations, so a pass adds
# fewer than 80 * 2^10 products, each truncated by at most an ulp or two.
_NODE_BITS = (80 << _MAX_DEGREE).bit_length()
_GUARD = 20 + _NODE_BITS


def _tol_digits(ctx: PrecisionContext) -> int:
    """integrate's tolerance is 10**-_tol_digits(ctx)."""
    return ctx.digits - ctx.guard // 2


@lru_cache(maxsize=64)
def _nodes(degree: int, P: int) -> tuple:
    """The new nodes of tanh-sinh degree `degree` on [-1, 1], as pairs
    (x, w) with x >= 0 standing for both +x and -x (the centre x = 0, at
    degree 1 only, once), x and w scaled by 2^P.

    As mpmath's ``calc_nodes``: a = pi/4 e^t and b = pi/4 e^-t advance by
    one multiplication by e^h and e^-h; then c = exp(a - b) = exp(pi/2
    sinh t) is the node's only exponential, x = (c - 1/c)/(c + 1/c) and
    w = 4 (a + b)/(c + 1/c)^2.  The list stops at 1 - x <= 2^-(P - _GUARD
    + 10), i.e. 2^-(prec + 10) for the working precision prec.

    The exponential is tapered: x = 1 - 2/(c^2 + 1) and w ~ 4 (a + b)/c^2
    move by about 4 eps/c^2 and 8 (a + b) eps/c^2 for a relative error eps
    in c, so c needs only about P - 2 log2 c bits.  With lc <= log2 c, c
    is taken at P - cut bits, cut = 2 (lc - bitlength(lc)) - 8: the margin
    covers a + b ~ ln c and the argument reduction by n ln 2, n ~ log2 c,
    of ``exp_fixed``.  Near the centre cut <= 0 and c is taken at full
    width.  Against full-width nodes, degrees 1-8 at 120 and 300 digits
    and 1-10 at 1000 keep the same counts, x is unchanged and w is at most
    one unit of 2^-P off.  Degrees 1-8 build in about 110 against 140 ms
    at 300 digits, and 1-10 in 3.8 against 4.7 s at 1000 (2-core Xeon,
    pure-Python mpmath, medians of alternating runs).
    """
    one, one2 = 1 << P, 1 << 2 * P
    pi4 = pi_fixed(P) >> 2
    t0 = 1 << (P - degree)
    et0 = exp_fixed(t0, P)
    a, b = pi4 * et0 >> P, (pi4 << P) // et0
    step = exp_fixed(t0 if degree == 1 else 2 * t0, P)
    back = one2 // step
    tol = 1 << (_GUARD - 10)
    nodes = [(0, 2 * pi4)] if degree == 1 else []
    for _ in range(20 * 2 ** degree + 1):
        # 369/256 < 1/ln 2, so lc <= log2 c; c keeps at least _GUARD bits,
        # enough for the node at which the list stops
        lc = (a - b) * 369 >> (P + 8)
        cut = min(2 * (lc - lc.bit_length()) - 8, P - _GUARD)
        if cut > 0:
            c = exp_fixed((a - b) >> cut, P - cut) << cut
        else:
            c = exp_fixed(a - b, P)
        d = one2 // c
        s = c + d
        x = ((c - d) << P) // s
        if one - x <= tol:
            break
        nodes.append((x, ((a + b) << (2 * P + 2)) // (s * s)))
        a, b = a * step >> P, b * back >> P
    return tuple(nodes)


def integrate(f: Callable[[int, int], int], lo, hi, ctx: PrecisionContext) -> HPReal:
    """Adaptive (tanh-sinh) quadrature of ``f`` over the finite interval
    [lo, hi].

    ``f(x, prec)`` is fixed point: it takes x as the integer x 2^prec and
    returns f(x) 2^prec, rounded, likewise as an int.  Both limits must be
    exact finite numbers (see precision.exact) with lo <= hi, else
    DomainError is raised.

    One pass raises the degree from 1 up to at most 10.  Level m keeps
    the sum of the level before: I_m = I_{m-1}/2 + 2^-m sum w f(x) over
    its new nodes, summed exactly and truncated once.  The pass stops at
    the first degree whose error estimate (mpmath's ``estimate_error``,
    the Borwein-Bailey-Girgensohn extrapolation, on the level results in
    mpf) is at most 10**-(digits - guard/2); if degree 10 misses it,
    ConvergenceError is raised.

    P is the working precision prec of ctx.dps + 10 digits plus 20 bits
    (the extra bits mpmath's node builder takes) plus the bits of a bound
    on the number of terms a pass can sum, whose truncations add up; the
    nodes stop at 1 - x <= 2^-(prec + 10), as mpmath's do, and are kept
    in an lru_cache on (degree, P).
    """
    lo, hi = exact(lo), exact(hi)
    if hi < lo:
        raise DomainError("hi < lo")
    if hi == lo:
        return mp.mpf(0)
    tol_digits = _tol_digits(ctx)
    with mp.workdps(ctx.dps + 10):
        tol = mp.mpf(10) ** (-tol_digits)
        prec = mp.mp.prec
        P = prec + _GUARD
        # x in [-1, 1] maps to (lo + hi)/2 + x (hi - lo)/2
        a, b = ((v.numerator << P) // v.denominator for v in (lo, hi))
        both, width = a + b, b - a
        half_width = to_mpf((hi - lo) / 2)
        level, results, err = 0, [], mp.mpf(0)
        with mp.extraprec(20):
            for degree in range(1, _MAX_DEGREE + 1):
                total = 0
                for x, w in _nodes(degree, P):
                    if x:
                        u = width * x >> P
                        total += w * (f((both + u) >> 1, P) + f((both - u) >> 1, P))
                    else:
                        total += w * f(both >> 1, P)
                level = (level >> 1) + (total >> (P + degree))
                results.append(mp.ldexp(level, -P) * half_width)
                if degree > 1:
                    err = mp.mp._tanh_sinh.estimate_error(results, prec, tol)
                    if err <= tol:
                        break
        if err > tol:
            raise ConvergenceError(
                f"quadrature error estimate {mp.nstr(err, 5)} exceeds tolerance {mp.nstr(tol, 5)}"
            )
    with ctx.workdps():
        return +results[-1]


def _depth(poles, lo: float, hi: float) -> float:
    """The least |Im t| of the poles' principal images in the variable t
    of the rule over [lo, hi]: x = tanh(pi/2 sinh t), x being [lo, hi]
    mapped onto [-1, 1]."""
    return min(abs(cmath.asinh(2 / math.pi * cmath.atanh((2 * z - lo - hi) / (hi - lo))).imag)
               for z in poles)


def _stop_degree(depth: float, ctx: PrecisionContext) -> int:
    """The degree at which integrate's pass is expected to stop on an
    integrand whose nearest pole lies at `depth` (see _depth).

    The rule's error at degree m (step 2^-m) falls as exp(-2 pi d 2^m)
    (Bailey, Jeyabalan & Li, "A comparison of three high-precision
    quadrature schemes", 2005), and the error estimate at degree m is
    about the error there, so the pass stops at the least m with
    2 pi d 2^m >= ln(10) tol_digits.  Below degree 4 the pass can stop a
    degree later than that, its first estimates resting on two or three
    levels, so a prediction below 4 counts as 4.
    """
    need = _tol_digits(ctx) * math.log(10) / (2 * math.pi * depth)
    return max(4, math.ceil(math.log2(need)))


def split_point(poles, lo, hi, ctx: PrecisionContext):
    """A point s that cuts [lo, hi] into two pieces over which integrate
    is expected to stop one degree or more below its degree over
    [lo, hi], or None where no cut is expected to do so.  `poles` are the
    integrand's singular points nearest the interval, one of each
    conjugate pair, as Python complex numbers off the real axis.

    Two pieces a degree lower make about as many integrand calls as one
    pass over [lo, hi] and spare that degree's nodes; a cut that does not
    lower the degree doubles the calls.  s is where the nearest poles of
    the two pieces lie equally deep (_depth), found by a float bisection
    and rounded to 1/64 of [lo, hi]; _stop_degree says whether the pieces
    stop lower.  On the eq40 integrand (modular.theorem3_check) at r = 1/5,
    1/2 and 1, at 17 precisions from 30 to 1000 digits, every cut taken
    lowered the measured degree, and two cuts that would have lowered it
    were not taken (r = 1/2 at 80 digits, r = 1 at 30).
    """
    lo, hi = exact(lo), exact(hi)
    flo, fhi = float(lo), float(hi)
    a, b = flo, fhi
    for _ in range(10):
        mid = (a + b) / 2
        a, b = (mid, b) if _depth(poles, flo, mid) > _depth(poles, mid, fhi) else (a, mid)
    s = lo + (hi - lo) * Fraction(round(64 * (mid - flo) / (fhi - flo)), 64)
    if not lo < s < hi:
        return None
    whole = _stop_degree(_depth(poles, flo, fhi), ctx)
    left = _stop_degree(_depth(poles, flo, float(s)), ctx)
    right = _stop_degree(_depth(poles, float(s), fhi), ctx)
    return s if max(left, right) < whole else None
