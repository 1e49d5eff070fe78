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
compare, the ``*_poly`` functions at full degree.  Only the functions that
build series import :mod:`cylpart.series` and :mod:`cylpart.rings`, so the
polynomial tables load neither.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import TYPE_CHECKING

from .core import (InvalidInput, Profile, Shape, _delta, all_shapes, shape_of_zero,
                   shape_to_profile)
from .qpoly import QPoly, geometric_sum, q_binomial

if TYPE_CHECKING:
    from .series import Check, TruncatedSeries


def _slot_bytes(count: int, top: int) -> int:
    """Bytes per slot that hold every coefficient of a sum of count^top
    non-negative terms."""
    return max(1, -(-(count ** top).bit_length() // 8))


def _fold(entries, exps, k: int, width: int, order: int | None) -> int:
    """Sum of entries[j] * q^{k * exps[j]} over j, in slots of ``width``
    bytes, dropping powers of q above ``order`` (``None``: keep all)."""
    step = 8 * width * k
    if order is None:
        return sum(x << step * e for x, e in zip(entries, exps))
    total = sum(x << step * e for x, e in zip(entries, exps) if k * e <= order)
    return total & ((1 << 8 * width * (order + 1)) - 1)


def _unpack(packed: int, width: int) -> QPoly:
    """The polynomial whose coefficient k sits in slot k of ``packed``."""
    raw = packed.to_bytes(-(-packed.bit_length() // (8 * width)) * width, "little")
    return QPoly([int.from_bytes(raw[i:i + width], "little")
                  for i in range(0, len(raw), width)])


class PolynomialFamily:
    """Memoized polynomial tables for one (rank, level) family.

    Shapes are indexed by position.  A table entry is one non-negative int
    with coefficient k in slot k, a fixed number of bytes wide (Kronecker
    substitution), so a layer step is shifts and adds of whole ints.  Every
    entry of layer k has non-negative coefficients summing to |S|^k, S the
    recurrence's shape list, so slots of (|S|^k).bit_length() bits hold
    every coefficient of layer k, truncated or not, without carries.

    Tables are kept per recurrence and truncation order (``None`` for full
    degree) and are extended under a per-family lock, so one family may be
    shared across threads; a table is published only when complete and is
    never changed afterwards.
    """

    def __init__(self, rank: int, level: int):
        self.rank = rank
        self.level = level
        self.shapes = all_shapes(rank, level)
        self.pivot_shapes = [s for s in self.shapes if s.parts and s.parts[0] >= 2]
        self._index = {s: i for i, s in enumerate(self.shapes)}
        self._delta = [[_delta(a.parts, b.parts) for b in self.shapes]
                       for a in self.shapes]
        # Exponent rows of the pivot recurrence, one per shape of the family.
        self._pivot_exps = [[row[self._index[d]] + rank for d in self.pivot_shapes]
                            for row in self._delta]
        self._pivot_rows = [self._pivot_exps[self._index[c]] for c in self.pivot_shapes]
        self._lock = threading.Lock()
        # order -> (slot bytes, layers); entry i of a layer is shape i's.
        self._parts_at_most: dict[int | None, tuple[int, tuple[list[int], ...]]] = {}
        self._pivot_lineup: dict[int | None, tuple[int, tuple[list[int], ...]]] = {}

    def dist(self, a: Shape, b: Shape) -> int:
        return self._delta[self._index[a]][self._index[b]]

    def _layers(self, tables: dict, rows: list[list[int]], n: int, top: int,
                order: int | None) -> tuple[int, tuple[list[int], ...]]:
        """Slot bytes and layers 0..n (at least) of the recurrence whose step
        to layer k adds entry j of layer k-1 times q^{k rows[i][j]} into
        entry i, truncated at ``order``; the slots fit layer ``top``."""
        need = _slot_bytes(len(rows), top)
        with self._lock:
            width, layers = tables.get(order, (0, ()))
            if width >= need and len(layers) > n:
                return width, layers
            if width < need:
                # Doubling the slots on a rebuild keeps requests for
                # n = 0, 1, ..., N to O(log N) rebuilds.
                width, layers = max(need, 2 * width), ([1] * len(rows),)
            grown = list(layers)
            while len(grown) <= n:
                k = len(grown)
                prev = grown[-1]
                grown.append([_fold(prev, row, k, width, order) for row in rows])
            layers = tuple(grown)
            tables[order] = width, layers
        return width, layers

    def parts_at_most(self, n: int, c: Shape, order: int | None = None) -> QPoly:
        """Numerator of the count of cylindric partitions with parts <= n,
        truncated at q^order (``None``: full degree)."""
        if n < 0:
            raise InvalidInput("n must be non-negative")
        width, layers = self._layers(self._parts_at_most, self._delta, n, n, order)
        return _unpack(layers[n][self._index[c]], width)

    def largest_part_exact(self, n: int, c: Shape, order: int | None = None) -> QPoly:
        """Numerator with largest part exactly n: the diagonal step pays a
        full extra column, q^{n*rank}, instead of q^0.  Truncated at q^order
        (``None``: full degree)."""
        if n < 0:
            raise InvalidInput("n must be non-negative")
        if n == 0:
            return QPoly.one()
        i = self._index[c]
        width, layers = self._layers(self._parts_at_most, self._delta, n - 1, n, order)
        exps = list(self._delta[i])
        exps[i] = self.rank
        return _unpack(_fold(layers[n - 1], exps, n, width, order), width)

    def pivot_lineup(self, n: int, c: Shape, order: int | None = None) -> QPoly:
        """Weight numerator of minimal loose pivot lineups below shape c,
        truncated at q^order (``None``: full degree).

        The recurrence runs over potential pivot shapes only; layer n for
        any base shape c is one step from layer n - 1, with c's row of
        exponents.
        """
        if n < 0:
            raise InvalidInput("n must be non-negative")
        if n == 0:
            return QPoly.one()
        width, layers = self._layers(self._pivot_lineup, self._pivot_rows,
                                     n - 1, n, order)
        return _unpack(_fold(layers[n - 1], self._pivot_exps[self._index[c]],
                             n, width, order), width)

    def pivot_corrected(self, n: int, c: Shape) -> QPoly:
        """Alternating combination of largest-part numerators:

        sum over k + m = n of [n choose k] in base q^rank, times
        (1 + q^j + ... + q^{(rank-1)j}) over j = 1..m, times
        (-1)^m q^{m(m+1)/2}, times the largest-part-exactly-k numerator.
        """
        if n < 0:
            raise InvalidInput("n must be non-negative")
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


def _over_poch(numerator: QPoly, n: int, rank: int, order: int) -> TruncatedSeries:
    """``numerator`` over (q^rank; q^rank)_n, truncated at q^order."""
    from .rings import ZZ
    from .series import TruncatedSeries
    return TruncatedSeries.from_coeffs(ZZ, numerator.coeffs, order).mul_inv_poch(n, rank)


def parts_at_most_series(profile: Profile, n: int, order: int) -> TruncatedSeries:
    """parts_at_most numerator over (q^r; q^r)_n, truncated."""
    fam, c = _family_of(profile)
    return _over_poch(fam.parts_at_most(n, c, order), n, profile.rank, order)


def largest_part_exact_series(profile: Profile, n: int, order: int) -> TruncatedSeries:
    fam, c = _family_of(profile)
    return _over_poch(fam.largest_part_exact(n, c, order), n, profile.rank, order)


def f_truncated(profile: Profile, order: int) -> TruncatedSeries:
    """The two-variable counting series over Z[z]: z marks the largest part,
    q the weight; the z^n row is largest_part_exact_series(n), so the q^k
    coefficient is column k of those rows."""
    from .rings import ZZ_z
    from .series import TruncatedSeries
    rows = [largest_part_exact_series(profile, n, order).coeffs
            for n in range(order + 1)]
    return TruncatedSeries(ZZ_z, order, tuple(map(QPoly, zip(*rows))))


def check_functional_equation(profile: Profile, order: int) -> Check:
    """Truncated bivariate identity relating the counting series of all
    shapes at one level:

        F_c(z, q) = (1-z)/(1-z q^r) F_c(z q^r, q)
                    + z * sum over shapes d of
                      (1-z) q^{delta(c,d)} / (1-z q^{delta(c,d)}) F_d(z q^{delta(c,d)}, q)

    with the d-sum taken over shapes other than c (the d = c term is the
    plain z F_c(z, q), already accounted for on the left after moving it
    over).  Returns the ``functional-equation`` check.
    """
    from .series import compare, refinement, subst_z_mul_qpow
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
    return compare("functional-equation", lhs.coeffs, rhs.coeffs,
                   f"functional equation holds for {profile} to q^{order}",
                   refinement(lambda k, m, x, y: f"functional equation fails for "
                                                 f"{profile} at q^{k} z^{m}: "
                                                 f"left {x} vs right {y}"))
