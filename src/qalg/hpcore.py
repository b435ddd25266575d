"""Rational powers and adaptive tanh-sinh quadrature at high precision.

Both routines compute under the :class:`~qalg.precision.PrecisionContext`
passed in and return ``mpmath.mpf`` values good to ``ctx.digits`` digits.
The quadrature handles algebraic endpoint singularities through
caller-declared power substitutions (the integrator itself stays generic;
the caller knows its integrand's exponents).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

import mpmath as mp

from .errors import ConvergenceError, DomainError
from .precision import HPReal, PrecisionContext, to_mpf


def pow_rational(x, e: Fraction, ctx: PrecisionContext) -> HPReal:
    """x**e on the principal positive real branch (x > 0).

    x == 0 is allowed for positive exponents.
    """
    e = Fraction(e)
    with mp.workdps(ctx.dps + 10):
        x = mp.mpf(x)
        if x == 0:
            if e > 0:
                return mp.mpf(0)
            raise DomainError("0 cannot be raised to a non-positive power")
        if x < 0:
            raise DomainError(f"pow_rational requires x > 0, got {x}")
        if e.denominator == 1:
            y = mp.power(x, e.numerator)
        else:
            y = mp.exp(to_mpf(e) * mp.log(x))
    with ctx.workdps():
        return +y


def _power_from_low(f_local, k: int):
    """Substitute s = u**k for the offset s = t - lo; f_local takes s.

    Extreme tanh-sinh nodes can land on u = 0 exactly; that node's
    weight is far below any tolerance, so returning 0 there is safe.
    """
    k = int(k)

    def g(u):
        if u == 0:
            return mp.mpf(0)
        return f_local(u ** k) * k * u ** (k - 1)

    return g


def integrate(
    f: Callable[[HPReal], HPReal],
    lo,
    hi,
    ctx: PrecisionContext,
    *,
    lo_power: Optional[int] = None,
    hi_power: Optional[int] = None,
    decay: Optional[Fraction] = None,
    f_from_lo: Optional[Callable[[HPReal], HPReal]] = None,
    f_from_hi: Optional[Callable[[HPReal], HPReal]] = None,
) -> HPReal:
    """Adaptive (tanh-sinh) quadrature of ``f`` over (lo, hi).

    Endpoint singularities of algebraic type (t - lo)**alpha with
    alpha > -1 are declared by the caller as ``lo_power=k``, meaning the
    substitution t = lo + u**k flattens them (choose k with
    k*(alpha+1) >= 1); symmetrically ``hi_power``.  Quadrature nodes
    approach the endpoints double-exponentially closely, so an integrand
    that is singular at an endpoint must be evaluated in terms of the
    *offset* from it: pass ``f_from_lo(s) = f(lo + s)`` / ``f_from_hi(s)
    = f(hi - s)`` written so that no cancellation occurs (required with
    ``hi_power`` whenever f computes hi - t internally; defaults fall
    back to calling f, which is fine when lo = 0 or the singularity is
    mild).

    An infinite upper limit (``hi`` None or +inf) requires lo > 0 and a
    declared algebraic ``decay`` beta with f ~ t**-beta, beta > 1; the
    integral is folded to (0, 1] by t = lo/u and the resulting endpoint
    power is handled automatically.

    The absolute error is brought below 10**-(digits - guard/2), else
    ConvergenceError is raised.
    """
    tol_digits = ctx.digits - ctx.guard // 2
    infinite = hi is None or hi == mp.inf

    with mp.workdps(ctx.dps + 10):
        tol = mp.mpf(10) ** (-tol_digits)
        lo = mp.mpf(lo)

        if infinite:
            if decay is None:
                raise DomainError("infinite upper limit requires a declared decay exponent")
            beta = Fraction(decay)
            if beta <= 1:
                raise DomainError(f"decay must exceed 1 for convergence, got {beta}")
            if lo <= 0:
                raise DomainError("infinite upper limit requires lo > 0")

            def folded(u, _a=lo):
                t = _a / u
                return f(t) * _a / (u * u)

            # endpoint exponent of `folded` at u=0 is beta-2; pick the
            # smallest k with k*(beta-1) >= 1 that clears denominators
            bm1 = beta - 1
            k = bm1.denominator
            while k * bm1 < 1:
                k += bm1.denominator
            pieces = [(_power_from_low(folded, k), mp.mpf(0), mp.mpf(1))]
        else:
            hi = mp.mpf(hi)
            if hi < lo:
                raise DomainError("hi < lo")
            if hi == lo:
                return mp.mpf(0)
            lo_off = f_from_lo or (lambda s, _lo=lo: f(_lo + s))
            hi_off = f_from_hi or (lambda s, _hi=hi: f(_hi - s))
            if lo_power and hi_power:
                mid = (lo + hi) / 2
                pieces = [
                    (_power_from_low(lo_off, lo_power), mp.mpf(0),
                     (mid - lo) ** (mp.mpf(1) / lo_power)),
                    (_power_from_low(hi_off, hi_power), mp.mpf(0),
                     (hi - mid) ** (mp.mpf(1) / hi_power)),
                ]
            elif lo_power:
                pieces = [(_power_from_low(lo_off, lo_power), mp.mpf(0),
                           (hi - lo) ** (mp.mpf(1) / lo_power))]
            elif hi_power:
                pieces = [(_power_from_low(hi_off, hi_power), mp.mpf(0),
                           (hi - lo) ** (mp.mpf(1) / hi_power))]
            else:
                pieces = [(f, lo, hi)]

        total = mp.mpf(0)
        err_total = mp.mpf(0)
        for piece_f, piece_lo, piece_hi in pieces:
            val, err = _quad_piece(piece_f, piece_lo, piece_hi, tol / len(pieces))
            total += val
            err_total += err
        if err_total > tol:
            raise ConvergenceError(
                f"quadrature error estimate {mp.nstr(err_total, 5)} exceeds tolerance {mp.nstr(tol, 5)}"
            )
    with ctx.workdps():
        return +total


def _quad_piece(g, a, b, tol):
    last = None
    for maxdegree in (6, 8, 10):
        val, err = mp.quad(g, [a, b], error=True, maxdegree=maxdegree)
        if err <= tol:
            return val, err
        last = (val, err)
    return last
