"""Truncated formal power series in q over an exact coefficient ring.

A :class:`TruncatedSeries` stores coefficients c_0..c_N exactly; arithmetic
never reads beyond the truncation order N.  A two-variable series is a
:class:`TruncatedSeries` over Z[z] (``ZZ_z``): it carries a polynomial in z
at every q power (z is never truncated; q powers above N are dropped).
"""

from __future__ import annotations

import math
from itertools import zip_longest

from .core import Profile, _Frozen
from .qpoly import QPoly, _convolve
from .rings import Ring, RingMismatch, ZZ, ZZ_z


class OrderMismatch(Exception):
    pass


class NonpositiveExponent(Exception):
    pass


class TruncatedSeries(_Frozen):
    __slots__ = _fields = ("ring", "order", "coeffs")

    def __init__(self, ring: Ring, order: int, coeffs: tuple):
        if len(coeffs) != order + 1:
            raise OrderMismatch(
                f"series of order {order} needs {order + 1} coefficients, "
                f"got {len(coeffs)}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_coeffs(cls, ring: Ring, coeffs, order: int) -> "TruncatedSeries":
        cs = [ring.coerce(c) for c in coeffs[:order + 1]]
        cs += [ring.zero] * (order + 1 - len(cs))
        return cls(ring, order, tuple(cs))

    @classmethod
    def constant(cls, ring: Ring, value, order: int) -> "TruncatedSeries":
        return cls.from_coeffs(ring, [value], order)

    @classmethod
    def one(cls, ring: Ring, order: int) -> "TruncatedSeries":
        return cls.constant(ring, 1, order)

    @classmethod
    def zero(cls, ring: Ring, order: int) -> "TruncatedSeries":
        return cls.constant(ring, 0, order)

    def _check(self, other: "TruncatedSeries"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.order != other.order:
            raise OrderMismatch(f"{self.order} vs {other.order}")

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(self.ring, self.order,
                               tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(self.ring, self.order,
                               tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.ring, self.order, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(self.ring, self.order, tuple(_convolve(
            self.coeffs, other.coeffs, self.order + 1, self.ring.zero)))

    def scale(self, factor) -> "TruncatedSeries":
        factor = self.ring.coerce(factor)
        return TruncatedSeries(self.ring, self.order,
                               tuple(factor * a for a in self.coeffs))

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by q^k."""
        if k == 0:
            return self
        if k > self.order:
            return TruncatedSeries.zero(self.ring, self.order)
        cs = (self.ring.zero,) * k + self.coeffs[:self.order + 1 - k]
        return TruncatedSeries(self.ring, self.order, cs)

    def mul_inv_one_minus(self, e: int, factor=1) -> "TruncatedSeries":
        """Multiply by 1/(1 - factor * q^e)."""
        if e < 1:
            raise NonpositiveExponent(f"exponent {e} must be positive")
        factor = self.ring.coerce(factor)
        cs = list(self.coeffs)
        if factor == self.ring.one:
            for i in range(e, self.order + 1):
                cs[i] = cs[i] + cs[i - e]
        else:
            for i in range(e, self.order + 1):
                cs[i] = cs[i] + factor * cs[i - e]
        return TruncatedSeries(self.ring, self.order, tuple(cs))

    def mul_inv_poch(self, n: int, step: int = 1) -> "TruncatedSeries":
        """Multiply by 1/((q^step; q^step)_n), one factor 1/(1 - q^{step*j})
        at a time."""
        s = self
        for j in range(1, n + 1):
            if step * j > self.order:
                break
            s = s.mul_inv_one_minus(step * j)
        return s

    def __str__(self) -> str:
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c and i > 0:
                continue
            body = self.ring.element_to_str(c)
            if i == 0:
                terms.append(body)
            elif i == 1:
                terms.append(f"{body}*q")
            else:
                terms.append(f"{body}*q^{i}")
        return " + ".join(terms) + f" + O(q^{self.order + 1})"

    def to_json(self) -> dict:
        return {
            "ring": self.ring.tag,
            "order": self.order,
            "coeffs": [self.ring.element_to_json(c) for c in self.coeffs],
        }


def first_mismatch(a, b) -> tuple[int, object, object] | None:
    """(index, a value, b value) of the first entry where two coefficient
    sequences differ, reading missing entries as 0; None when equal."""
    return next(((k, x, y) for k, (x, y) in enumerate(zip_longest(a, b, fillvalue=0))
                 if x != y), None)


class Check(_Frozen):
    """The outcome of one identity check: its name, whether it held, the
    line that reports it, and the index of the first bad coefficient (None
    when the check held or does not compare coefficients).

    ``ok`` is True when the check held, False when it failed, and None when
    it does not apply: both sides were 0 in every coefficient past q^0, so
    the check showed nothing.  :func:`compare` alone builds it with ``ok``
    None.
    """

    __slots__ = _fields = ("name", "ok", "detail", "mismatch")

    def __init__(self, name: str, ok: bool | None, detail: str,
                 mismatch: int | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "detail", detail)
        object.__setattr__(self, "mismatch", mismatch)


def compare(name: str, a, b, passed: str, failed) -> Check:
    """The check that coefficient sequences ``a`` and ``b`` agree:
    ``passed`` reports it when they do, ``failed(index, a value, b value)``
    words the first entry where they differ.

    Every identity checked here counts the empty object alone at q^0, so
    its constant term is 1 on both sides (0 for chains of n >= 1 pivots)
    and cannot tell a true identity from a false one.  Two sequences that
    agree with no nonzero coefficient past q^0 on either side therefore
    compared nothing, so the check does not pass: it comes back with
    ``ok`` None.  A mismatch at q^0 still fails.
    """
    bad = first_mismatch(a, b)
    if bad is not None:
        return Check(name, False, failed(*bad), bad[0])
    if not any(a[1:]):   # equal, so b is 0 past q^0 too
        top = max(len(a), len(b)) - 1
        return Check(name, None, f"both sides agree to q^{top} and have no term "
                                 f"past q^0, so nothing past the constant term "
                                 f"was compared")
    return Check(name, True, passed)


def refinement(failed):
    """A ``failed`` wording for :func:`compare` on two series over Z[z]:
    ``failed(k, m, a value, b value)`` words the first bad z power m of the
    first bad q power k, with both integer values."""
    def word(k, x, y):
        return failed(k, *first_mismatch(x.coeffs, y.coeffs))
    return word


def product_inv_factors(factors, order: int) -> TruncatedSeries:
    """Expansion of a product of 1/(q^m; q^t)_infinity factors.

    ``factors`` is an iterable of (base exponent m, modulus t) pairs, with
    multiplicity meaningful.
    """
    s = TruncatedSeries.one(ZZ, order)
    for m, t in factors:
        if m < 1:
            raise NonpositiveExponent(f"exponent {m} must be positive")
        for e in range(m, order + 1, t):
            s = s.mul_inv_one_minus(e)
    return s


def borodin_factors(profile: Profile) -> list[tuple[int, int]]:
    """The (exponent, modulus) multiset of the cylindric-partition product.

    With t = rank + level and s(i, j) = c_i + ... + c_j the factors are
    1/(q^t; q^t), then 1/(q^{m + j - i + s(i+1, j)}; q^t) over
    1 <= i <= j <= rank, 1 <= m <= c_i, and
    1/(q^{t - m + j - i - s(j, i-1)}; q^t) over 2 <= j <= i <= rank,
    1 <= m <= c_i.
    """
    c = profile.parts
    r = profile.rank
    t = r + profile.level

    def s(i, j):  # 1-based inclusive partial sum, empty when i > j
        return sum(c[i - 1:j])

    factors = [(t, t)]
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            for m in range(1, c[i - 1] + 1):
                factors.append((m + j - i + s(i + 1, j), t))
    for i in range(2, r + 1):
        for j in range(2, i + 1):
            for m in range(1, c[i - 1] + 1):
                factors.append((t - m + j - i - s(j, i - 1), t))
    return factors


def borodin_product(profile: Profile, order: int) -> TruncatedSeries:
    """The infinite-product form of the cylindric partition counting series."""
    return product_inv_factors(borodin_factors(profile), order)


def euler_top(order: int) -> int:
    """The largest n with n(n+1)/2 <= order: the last index :func:`euler_sum`
    reads."""
    return (math.isqrt(8 * order + 1) - 1) // 2


def euler_sum(coeffs, order: int, ring: Ring = ZZ) -> TruncatedSeries:
    """Sum of c_n q^{n(n+1)/2} / (q;q)_n over the n with n(n+1)/2 <= order;
    entries past ``coeffs`` read as 0.

    Built from the inside out, c_0 + q/(1-q) (c_1 + q^2/(1-q^2) (c_2 + ...)),
    so each level is one shift and one pass of 1/(1 - q^j).
    """
    top = euler_top(order)
    c = [ring.coerce(x) for x in coeffs[:top + 1]]
    c += [ring.zero] * (top + 1 - len(c))
    s = TruncatedSeries.constant(ring, c[top], order)
    for j in range(top, 0, -1):
        s = s.shift(j).mul_inv_one_minus(j)
        # The shift left the constant term 0; it becomes c_{j-1}.
        s = TruncatedSeries(ring, order, (c[j - 1],) + s.coeffs[1:])
    return s


def z_power_times(n: int, series: TruncatedSeries) -> TruncatedSeries:
    """z^n times a one-variable series, as a series over Z[z]."""
    return TruncatedSeries(ZZ_z, series.order,
                           tuple(QPoly.monomial(n, c) for c in series.coeffs))


def subst_z_mul_qpow(series: TruncatedSeries, k: int) -> TruncatedSeries:
    """Substitute z -> z * q^k in a series over Z[z]: the term z^m q^j
    becomes z^m q^{j + k m}."""
    if k == 0:
        return series
    out: list[list] = [[] for _ in range(series.order + 1)]
    for j, zp in enumerate(series.coeffs):
        for m, c in enumerate(zp.coeffs):
            jj = j + k * m
            if jj > series.order:
                break
            row = out[jj]
            row.extend([0] * (m + 1 - len(row)))
            row[m] += c
    return TruncatedSeries(ZZ_z, series.order, tuple(QPoly(row) for row in out))


def truncate_z(series: TruncatedSeries, zmax: int) -> TruncatedSeries:
    """Drop the powers of z above ``zmax`` from a series over Z[z]."""
    return TruncatedSeries(ZZ_z, series.order,
                           tuple(QPoly(c.coeffs[:zmax + 1]) for c in series.coeffs))


def at_z_one(series: TruncatedSeries) -> TruncatedSeries:
    """A series over Z[z] evaluated at z = 1."""
    return TruncatedSeries(ZZ, series.order, tuple(c(1) for c in series.coeffs))


def inv_zq_pochhammer(order: int) -> TruncatedSeries:
    """1/(zq; q)_infinity truncated, over Z[z]: product of 1/(1 - z q^j)."""
    z = QPoly((0, 1))
    s = TruncatedSeries.one(ZZ_z, order)
    for j in range(1, order + 1):
        s = s.mul_inv_one_minus(j, z)
    return s
