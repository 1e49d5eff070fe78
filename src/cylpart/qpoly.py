"""Exact dense univariate polynomials with integer or rational
coefficients, or those of any exact ring."""

from __future__ import annotations

from itertools import zip_longest
from typing import Sequence


class IndexOutOfRange(Exception):
    pass


def _rational(x) -> bool:
    """Whether ``x`` is a rational number, such as an int or a Fraction:
    told by its ``denominator``, so that this module does not import
    fractions."""
    return hasattr(x, "denominator")


def _convolve(a: Sequence, b: Sequence, size: int, zero) -> list:
    """The first ``size`` coefficients of the product of the coefficient
    sequences ``a`` and ``b`` (constant term first), each sum started from
    ``zero``.  Zero entries of either factor are skipped."""
    out = [zero] * size
    for i in range(min(len(a), size)):
        x = a[i]
        if x:
            for j in range(min(len(b), size - i)):
                y = b[j]
                if y:
                    out[i + j] += x * y
    return out


class QPoly:
    """A polynomial stored as a dense coefficient tuple, constant term first.

    Coefficients are exact (int, Fraction, or any exact ring element with
    +, -, *); an int or Fraction operand acts as a constant polynomial.
    Trailing zeros are never stored, so the zero polynomial has an empty
    coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "QPoly":
        return cls(())

    @classmethod
    def one(cls) -> "QPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, k: int, coeff=1) -> "QPoly":
        return cls((0,) * k + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPoly):
            return self.coeffs == other.coeffs
        if _rational(other):
            return self == QPoly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __add__(self, other) -> "QPoly":
        if not isinstance(other, QPoly) and _rational(other):
            other = QPoly((other,))
        return QPoly(tuple(a + b for a, b in
                           zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "QPoly":
        return self + (-other if isinstance(other, QPoly) else QPoly((-other,)))

    def __rsub__(self, other) -> "QPoly":
        return (-self) + other

    def __mul__(self, other) -> "QPoly":
        if not isinstance(other, QPoly):
            if not _rational(other):
                return NotImplemented
            return QPoly(tuple(c * other for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return QPoly()
        return QPoly(_convolve(self.coeffs, other.coeffs,
                               len(self.coeffs) + len(other.coeffs) - 1, 0))

    __rmul__ = __mul__

    def shift(self, k: int) -> "QPoly":
        """Multiply by the k-th power of the variable."""
        if not self.coeffs:
            return self
        return QPoly((0,) * k + self.coeffs)

    def subst_power(self, m: int) -> "QPoly":
        """Substitute variable -> variable**m."""
        if m < 1:
            raise ValueError("power substitution needs m >= 1")
        out = [0] * (m * len(self.coeffs))
        for i, c in enumerate(self.coeffs):
            out[m * i] = c
        return QPoly(tuple(out))

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def truncated(self, order: int) -> tuple:
        """Coefficients 0..order, zero padded."""
        cs = self.coeffs[:max(order + 1, 0)]
        return cs + (0,) * (order + 1 - len(cs))

    def to_str(self, var: str = "q") -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*{var}" if c != 1 else var)
            else:
                terms.append(f"{c}*{var}^{i}" if c != 1 else f"{var}^{i}")
        return " + ".join(terms)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"QPoly({self.coeffs})"


def geometric_sum(ratio_exponent: int, top: int) -> QPoly:
    """1 + q^e + q^{2e} + ... with exponents up to ``top``."""
    if ratio_exponent < 1:
        raise ValueError("exponent must be positive")
    out = [0] * (top + 1)
    for k in range(0, top + 1, ratio_exponent):
        out[k] = 1
    return QPoly(tuple(out))


def q_binomial(n: int, k: int) -> QPoly:
    """Gaussian binomial coefficient [n, k] by the q-Pascal rule
    [m, j] = [m-1, j-1] + q^j [m-1, j], one row of m at a time."""
    if not (0 <= k <= n):
        raise IndexOutOfRange(f"need 0 <= k <= n, got n={n}, k={k}")
    row = [QPoly.one()] + [QPoly()] * k  # [m, j] for j = 0..k, from m = 0
    for _ in range(n):
        row = [QPoly.one()] + [row[j - 1] + row[j].shift(j) for j in range(1, k + 1)]
    return row[k]
