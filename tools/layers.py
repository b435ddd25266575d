"""Time qalg's kernels one by one: best-of-N wall times at each precision.

Run from a qalg checkout:

    python3 tools/layers.py [--digits 120 300 1000] [--repeat N]

The package is imported from ``src/`` of the checkout.  Each row is one
kernel on fixed inputs, built before the clock starts, and each column
the best of N calls at that many digits, in milliseconds; every
``lru_cache`` of the package is cleared before each call, as perfbench
clears them before each pass:

  _progression_product   eta(1) at r = 1, its direct product;
  _theta_terms           the pair runs of theta(5/2, 3/2) at r = 1, the
                         numerator of agile_via_triangular for [1,5];
  _qpow q^7, q^(-1/24),  an integer power of q at r = 2 and two
    q^(47/672)           fractional ones, with a small and a large denominator;
  _agm                   the AGM of (1, sqrt(2) - 1);
  tail_integral          hpcore.tail_integral at theta = 2 (Theorem 3);
  lattice_reduce d16     LLL of the degree-16 identity basis on the powers
                         of agile_star(1, 8) at r = 2, scaled as recognize
                         scales it for a height of 10^4.

The table is a measurement aid, not a gated metric.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mpmath as mp  # noqa: E402

from qalg import AgileSpec, PrecisionContext, agile_star, make_nome  # noqa: E402
from qalg import elliptic, hpcore, modular, qengine  # noqa: E402
from qalg.recognize import lattice_reduce  # noqa: E402

HEIGHT_DIGITS = 4
DEGREE = 16


def lattice_basis(ctx: PrecisionContext) -> list:
    """The degree-16 identity basis (e_i, round(10^s x^i)) that recognize
    reduces for x = agile_star(1, 8) at r = 2, s its lattice digits."""
    x = agile_star(AgileSpec(1, 8), make_nome(2, ctx))
    s = min(ctx.digits - ctx.guard, (DEGREE + 1) * (HEIGHT_DIGITS + 1) + 2 * ctx.guard)
    with ctx.workdps():
        scale = mp.mpf(10) ** s
        c = [int(mp.nint(scale * x ** i)) for i in range(DEGREE + 1)]
    return [[int(i == j) for j in range(DEGREE + 1)] + [c[i]] for i in range(DEGREE + 1)]


def kernels(ctx: PrecisionContext) -> dict:
    """Row name -> a call of that kernel at ctx, its inputs built."""
    nome1, nome2 = make_nome(1, ctx), make_nome(2, ctx)
    with ctx.workdps():
        b = mp.sqrt(2) - 1
    basis = lattice_basis(ctx)
    return {
        "_progression_product eta(1)": lambda: qengine._eta(Fraction(1), nome1, False),
        "_theta_terms (5/2, 3/2)": lambda: qengine._theta_terms(
            Fraction(5, 2), Fraction(3, 2), nome1),
        "_qpow q^7": lambda: qengine._qpow(nome2, Fraction(7)),
        "_qpow q^(-1/24)": lambda: qengine._qpow(nome2, Fraction(-1, 24)),
        "_qpow q^(47/672)": lambda: qengine._qpow(nome2, Fraction(47, 672)),
        "_agm (1, sqrt 2 - 1)": lambda: elliptic._agm(b.man, b.exp, ctx.dps),
        "tail_integral(2)": lambda: hpcore.tail_integral(2, ctx),
        f"lattice_reduce d{DEGREE}": lambda: lattice_reduce(basis),
    }


def best_ms(call, ctx: PrecisionContext, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        for module in (elliptic, modular, qengine):
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()
        with ctx.workdps():
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
    return best * 1e3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--digits", type=int, nargs="+", default=[120, 300, 1000])
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args(argv)
    if args.repeat < 1 or min(args.digits) < 1:
        ap.error("--repeat and --digits must be at least 1")
    columns = {}
    for digits in args.digits:
        ctx = PrecisionContext(digits)
        columns[digits] = {name: best_ms(call, ctx, args.repeat)
                           for name, call in kernels(ctx).items()}
    names = list(columns[args.digits[0]])
    width = max(map(len, names))
    print(f"{'kernel (ms, best of ' + str(args.repeat) + ')':<{width}}"
          + "".join(f"{str(d) + ' digits':>14}" for d in args.digits))
    for name in names:
        print(f"{name:<{width}}" + "".join(f"{columns[d][name]:>14.4f}" for d in args.digits))
    return 0


if __name__ == "__main__":
    sys.exit(main())
