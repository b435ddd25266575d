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
:class:`~qalg.precision.PrecisionContext` passed in.
"""

from __future__ import annotations

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
    tol_digits = ctx.digits - ctx.guard // 2
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
