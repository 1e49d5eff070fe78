"""Polynomial numerators for bounded cylindric partition counts.

For a fixed rank and level, the generating function of cylindric partitions
with parts at most n factors as P_n(shape) / (q^r; q^r)_n, where the
numerators satisfy a coupled recurrence over all shapes of the family:

    P_n(c) = sum over shapes d of q^{n * delta(c, d)} * P_{n-1}(d)

with delta(c, d) the tight-packing distance from the zero shape of c to the
shape d.  The largest-part-exactly-n variant replaces the diagonal term's
q^{n*0} by q^{n*r}; the pivot-chain variant restricts d to shapes with
first part >= 2 and adds n*r to every exponent.  All tables are memoized
per (rank, level) family since the recurrences couple all shapes, and per
truncation order: series callers build them only up to the q-power they
compare, the ``*_poly`` functions at full degree.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from operator import add

from .core import Profile, Shape, _delta, all_shapes, shape_of_zero, shape_to_profile
from .qpoly import QPoly, geometric_sum, q_binomial
from .series import (TruncatedSeries, first_mismatch, subst_z_mul_qpow,
                     z_power_times)
from .rings import ZZ, ZZ_z


def _accumulate(terms, order: int | None) -> QPoly:
    """Sum of p * q^k over the pairs (p, k) in ``terms``, dropping powers of
    q above ``order``; ``order=None`` keeps every power."""
    out: list = []
    for p, k in terms:
        cs = p.coeffs
        if order is not None:
            if k > order:
                continue
            cs = cs[:order + 1 - k]
        end = k + len(cs)
        if end > len(out):
            out.extend([0] * (end - len(out)))
        out[k:end] = map(add, out[k:end], cs)
    return QPoly(out)


class PolynomialFamily:
    """Memoized polynomial tables for one (rank, level) family.

    Tables are kept per truncation order (``None`` for full degree) and are
    extended under a per-family lock, so one family may be shared across
    threads; a layer is published only once all its entries are built.
    """

    def __init__(self, rank: int, level: int):
        self.rank = rank
        self.level = level
        self.shapes = all_shapes(rank, level)
        self.pivot_shapes = [s for s in self.shapes if s.parts and s.parts[0] >= 2]
        self._delta = {(a, b): _delta(a.parts, b.parts)
                       for a in self.shapes for b in self.shapes}
        self._lock = threading.Lock()
        self._parts_at_most: dict[int | None, list[dict[Shape, QPoly]]] = {}
        self._pivot_lineup: dict[int | None, list[dict[Shape, QPoly]]] = {}

    def dist(self, a: Shape, b: Shape) -> int:
        return self._delta[(a, b)]

    def _layers(self, tables: dict, shapes: list[Shape], extra: int, n: int,
                order: int | None) -> list[dict[Shape, QPoly]]:
        """Layers 0..n (at least) of the recurrence over ``shapes`` whose
        step to layer k takes entry d of layer k-1 times
        q^{k (delta(c, d) + extra)}, truncated at ``order``."""
        with self._lock:
            layers = tables.setdefault(order, [dict.fromkeys(shapes, QPoly.one())])
            while len(layers) <= n:
                k = len(layers)
                prev = layers[-1]
                layers.append({
                    c: _accumulate(((prev[d], k * (self.dist(c, d) + extra))
                                    for d in shapes), order)
                    for c in shapes})
        return layers

    def parts_at_most(self, n: int, c: Shape, order: int | None = None) -> QPoly:
        """Numerator of the count of cylindric partitions with parts <= n,
        truncated at q^order (``None``: full degree)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        return self._layers(self._parts_at_most, self.shapes, 0, n, order)[n][c]

    def largest_part_exact(self, n: int, c: Shape, order: int | None = None) -> QPoly:
        """Numerator with largest part exactly n: the diagonal step pays a
        full extra column, q^{n*rank}, instead of q^0.  Truncated at q^order
        (``None``: full degree)."""
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return QPoly.one()
        prev = self._layers(self._parts_at_most, self.shapes, 0, n - 1, order)[n - 1]
        return _accumulate(((prev[d], n * (self.rank if d == c else self.dist(c, d)))
                            for d in self.shapes), order)

    def pivot_lineup(self, n: int, c: Shape, order: int | None = None) -> QPoly:
        """Weight numerator of minimal loose pivot lineups below shape c,
        truncated at q^order (``None``: full degree).

        The recurrence runs over potential pivot shapes only; a base shape
        outside that set is handled by one extra application of the step.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if n == 0:
            return QPoly.one()
        if c in self.pivot_shapes:
            return self._layers(self._pivot_lineup, self.pivot_shapes,
                                self.rank, n, order)[n][c]
        prev = self._layers(self._pivot_lineup, self.pivot_shapes,
                            self.rank, n - 1, order)[n - 1]
        return _accumulate(((prev[d], n * (self.dist(c, d) + self.rank))
                            for d in self.pivot_shapes), order)

    def pivot_corrected(self, n: int, c: Shape) -> QPoly:
        """Alternating combination of largest-part numerators:

        sum over k + m = n of [n choose k] in base q^rank, times
        (1 + q^j + ... + q^{(rank-1)j}) over j = 1..m, times
        (-1)^m q^{m(m+1)/2}, times the largest-part-exactly-k numerator.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        total = QPoly()
        r = self.rank
        for k in range(n + 1):
            m = n - k
            piece = q_binomial(n, k).subst_power(r)
            for j in range(1, m + 1):
                piece = piece * geometric_sum(j, (r - 1) * j)
            piece = piece.shift(m * (m + 1) // 2)
            if m % 2 == 1:
                piece = -piece
            total = total + piece * self.largest_part_exact(k, c)
        return total


@lru_cache(maxsize=None)
def family(rank: int, level: int) -> PolynomialFamily:
    return PolynomialFamily(rank, level)


def _family_of(profile: Profile) -> tuple[PolynomialFamily, Shape]:
    return family(profile.rank, profile.level), shape_of_zero(profile)


def parts_at_most_poly(profile: Profile, n: int) -> QPoly:
    fam, c = _family_of(profile)
    return fam.parts_at_most(n, c)


def largest_part_exact_poly(profile: Profile, n: int) -> QPoly:
    fam, c = _family_of(profile)
    return fam.largest_part_exact(n, c)


def pivot_lineup_poly(profile: Profile, n: int) -> QPoly:
    fam, c = _family_of(profile)
    return fam.pivot_lineup(n, c)


def pivot_corrected_poly(profile: Profile, n: int) -> QPoly:
    fam, c = _family_of(profile)
    return fam.pivot_corrected(n, c)


def parts_at_most_series(profile: Profile, n: int, order: int) -> TruncatedSeries:
    """parts_at_most numerator over (q^r; q^r)_n, truncated."""
    fam, c = _family_of(profile)
    num = TruncatedSeries.from_coeffs(ZZ, fam.parts_at_most(n, c, order).coeffs, order)
    return num.mul_inv_poch(n, profile.rank)


def largest_part_exact_series(profile: Profile, n: int, order: int) -> TruncatedSeries:
    fam, c = _family_of(profile)
    num = TruncatedSeries.from_coeffs(ZZ, fam.largest_part_exact(n, c, order).coeffs, order)
    return num.mul_inv_poch(n, profile.rank)


def f_truncated(profile: Profile, order: int) -> TruncatedSeries:
    """The two-variable counting series over Z[z]: z marks the largest part,
    q the weight; assembled as sum of z^n * largest_part_exact_series(n)."""
    total = TruncatedSeries.zero(ZZ_z, order)
    for n in range(order + 1):
        total = total + z_power_times(n, largest_part_exact_series(profile, n, order))
    return total


def check_functional_equation(profile: Profile, order: int) -> tuple[bool, str]:
    """Truncated bivariate identity relating the counting series of all
    shapes at one level:

        F_c(z, q) = (1-z)/(1-z q^r) F_c(z q^r, q)
                    + z * sum over shapes d of
                      (1-z) q^{delta(c,d)} / (1-z q^{delta(c,d)}) F_d(z q^{delta(c,d)}, q)

    with the d-sum taken over shapes other than c (the d = c term is the
    plain z F_c(z, q), already accounted for on the left after moving it
    over).  Returns (ok, detail).
    """
    r = profile.rank
    level = profile.level
    fam = family(r, level)
    c = shape_of_zero(profile)
    F = {d: f_truncated(shape_to_profile(d, level), order) for d in fam.shapes}
    one_minus_z = QPoly((1, -1))
    z = QPoly((0, 1))

    lhs = F[c]
    rhs = subst_z_mul_qpow(F[c], r).mul_inv_one_minus(r, z).scale(one_minus_z)
    for d in fam.shapes:
        k = fam.dist(c, d)
        if k == 0:
            term = F[d].scale(z)
        else:
            term = (subst_z_mul_qpow(F[d], k)
                    .mul_inv_one_minus(k, z)
                    .scale(one_minus_z)
                    .shift(k)
                    .scale(z))
        rhs = rhs + term
    bad = first_mismatch(lhs.coeffs, rhs.coeffs)
    if bad is None:
        return True, f"functional equation holds for {profile} to q^{order}"
    i, x, y = bad
    return False, f"functional equation fails for {profile} at q^{i}: {x} vs {y}"
