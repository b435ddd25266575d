"""Exact formal power series over the rationals.

Dense coefficient storage up to a truncation order N.  Each coefficient is
an int, or a Fraction where the value is not an integer; floats are
refused.  Every operation is exact, so series identities checked at order N
are genuine integer/rational equalities rather than float comparisons.
Binary operations on series of different orders truncate to the smaller
order.

The divisor sum w_n -> sum_{d|n} w_d and its Moebius inverse are one
sieve, `_divisor_sieve`, shared by `exponent_product` here and by the
Taylor-coefficient inversion in `moebius` (`extract_X`, `coeffs_from_X`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence, Union

import mpmath as mp

from .errors import OrderError

Coeff = Union[int, Fraction]


def _exact(c) -> Coeff:
    """c as an int when it is integral, else as a Fraction."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise OrderError(f"series coefficients must be int or Fraction, got {c!r}")


class FormalSeries:
    """A truncated power series  c0 + c1*q + ... + cN*q^N  with exact
    rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Coeff]):
        if not coeffs:
            raise OrderError("a series needs at least a constant term")
        self.coeffs = tuple(map(_exact, coeffs))

    # -- constructors -------------------------------------------------
    @classmethod
    def one(cls, order: int) -> "FormalSeries":
        return cls([1] + [0] * order)

    @classmethod
    def from_terms(cls, terms: dict[int, Coeff], order: int) -> "FormalSeries":
        c = [0] * (order + 1)
        for e, v in terms.items():
            if 0 <= e <= order:
                c[e] += _exact(v)
        return cls(c)

    # -- basic protocol ----------------------------------------------
    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Coeff:
        return self.coeffs[n]

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if len(self.coeffs) > 6 else ""
        return f"FormalSeries([{head}{tail}], order={self.order})"

    # -- ring operations ----------------------------------------------
    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        n = min(self.order, other.order)
        return FormalSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        n = min(self.order, other.order)
        return FormalSeries([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)])

    def __neg__(self) -> "FormalSeries":
        return FormalSeries([-c for c in self.coeffs])

    def scale(self, c: Coeff) -> "FormalSeries":
        c = _exact(c)
        return FormalSeries([c * x for x in self.coeffs])

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = [0] * (n + 1)
        for i in range(min(len(a) - 1, n) + 1):
            ai = a[i]
            if not ai:
                continue
            for j in range(min(len(b) - 1, n - i) + 1):
                if b[j]:
                    out[i + j] += ai * b[j]
        return FormalSeries(out)

    def shift(self, e: int) -> "FormalSeries":
        """Multiply by q**e (dropping overflow beyond the order)."""
        if e < 0:
            raise OrderError("negative shifts are not representable")
        return FormalSeries(
            (0,) * e + self.coeffs[: max(0, len(self.coeffs) - e)]
        )

    def inverse(self) -> "FormalSeries":
        a = self.coeffs
        if a[0] == 0:
            raise OrderError("cannot invert a series with zero constant term")
        # a unit constant term keeps integer coefficients integral
        inv0 = a[0] if a[0] in (1, -1) else 1 / Fraction(a[0])
        out = [inv0] + [0] * self.order
        for n in range(1, self.order + 1):
            s = 0
            for k in range(1, n + 1):
                if k < len(a) and a[k]:
                    s += a[k] * out[n - k]
            out[n] = -inv0 * s
        return FormalSeries(out)

    def pow_int(self, k: int) -> "FormalSeries":
        if k < 0:
            return self.inverse().pow_int(-k)
        result = FormalSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def pow_rational(self, k: Coeff) -> "FormalSeries":
        """self**k for rational k; requires constant term 1."""
        k = Fraction(k)
        if k.denominator == 1:
            return self.pow_int(k.numerator)
        if self.coeffs[0] != 1:
            raise OrderError("rational powers require constant term 1")
        return self.log().scale(k).exp()

    def log(self) -> "FormalSeries":
        """log(self) by  n*g_n = n*f_n - sum_{k<n} (k*g_k) f_{n-k}.  The
        weights k*g_k are kept as they are found, so for integer f the
        O(N^2) loop multiplies ints."""
        if self.coeffs[0] != 1:
            raise OrderError("series log requires constant term 1")
        f = self.coeffs
        n_ord = self.order
        out = [0] * (n_ord + 1)
        w = [0] * (n_ord + 1)  # w[k] = k * out[k]
        for n in range(1, n_ord + 1):
            s = n * f[n]
            for k in range(1, n):
                if w[k] and f[n - k]:
                    s -= w[k] * f[n - k]
            w[n] = _exact(s)
            out[n] = _exact(Fraction(s, n))
        return FormalSeries(out)

    def exp(self) -> "FormalSeries":
        """exp(self) by  n*e_n = sum_{k<=n} (k*l_k) e_{n-k}.  The weights
        k*l_k are formed once, before the O(N^2) loop, so where they are
        integers (the eq25 targets) and e is integral it multiplies ints."""
        if self.coeffs[0] != 0:
            raise OrderError("series exp requires constant term 0")
        n_ord = self.order
        w = [(k, _exact(k * c)) for k, c in enumerate(self.coeffs) if c]
        out = [1] + [0] * n_ord
        for n in range(1, n_ord + 1):
            s = 0
            for k, wk in w:
                if k > n:
                    break
                s += wk * out[n - k]
            out[n] = _exact(Fraction(s, n))
        return FormalSeries(out)

    # -- numeric bridge -----------------------------------------------
    def evaluate(self, x) -> mp.mpf:
        """Horner evaluation at an mpf point (current mp precision)."""
        acc = mp.mpf(0)
        for c in reversed(self.coeffs):
            acc = acc * x + (mp.mpf(c.numerator) / c.denominator if c else 0)
        return acc


def _times_one_minus(c: list, e: int) -> None:
    """Multiply the coefficient list c by (1 - q^e) in place; i runs
    downwards so that c[i - e] is still the old coefficient."""
    if e <= 0:
        raise OrderError("exponent must be positive")
    for i in range(len(c) - 1, e - 1, -1):
        c[i] -= c[i - e]


def _over_one_minus(c: list, e: int) -> None:
    """Divide the coefficient list c by (1 - q^e) in place: a running sum,
    i upwards so that c[i - e] is already the new coefficient."""
    for i in range(e, len(c)):
        c[i] += c[i - e]


def _divisor_sieve(ws: list, sign: int) -> list:
    """In place over ws[n-1], n = 1..N: sign +1 replaces w_n by
    sum_{d|n} w_d, sign -1 undoes exactly that (Moebius inversion)."""
    N = len(ws)
    for d in range(N, 0, -1) if sign > 0 else range(1, N + 1):
        w = sign * ws[d - 1]
        if w:
            for n in range(2 * d, N + 1, d):
                ws[n - 1] += w
    return ws


def exponent_product(x_of_n: Callable[[int], Coeff], order: int) -> FormalSeries:
    """The exact expansion of  prod_{n>=1} (1 - q^n)^(x(n))  to the given
    order.  Integer exponents take |x(n)| in-place passes per factor;
    otherwise log/exp: log of the product is -sum_j q^j/j * sum_{d|j} d*x(d).
    """
    xs = [Fraction(x_of_n(n)) for n in range(1, order + 1)]
    if all(x.denominator == 1 for x in xs):
        out = [1] + [0] * order
        for n, x in enumerate(xs, 1):
            for _ in range(x.numerator):
                _times_one_minus(out, n)
            for _ in range(-x.numerator):
                _over_one_minus(out, n)
        return FormalSeries(out)
    sums = _divisor_sieve([n * x for n, x in enumerate(xs, 1)], 1)
    return FormalSeries([0] + [-s / n for n, s in enumerate(sums, 1)]).exp()


def one_minus_power_product(exponents: Sequence[int], order: int) -> FormalSeries:
    """prod (1 - q^e) over the listed exponents (each clipped at the order)."""
    out = [1] + [0] * order
    for e in exponents:
        if e <= order:
            _times_one_minus(out, e)
    return FormalSeries(out)
