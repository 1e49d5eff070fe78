"""Pivot lineups: chains of potential pivots and their gap classification.

A *potential pivot* is a slice whose shape has first part >= 2.  For a
chain of n potential pivots over a profile (largest first, the empty slice
implicitly at the bottom), each gap between consecutive members is, modulo
the rank, pinned to the tight-packing distance delta of the adjacent
shapes.  A gap equal to delta is *jammed*; a gap of delta + rank or more is
*loose*.  Chains whose members are all genuine pivots are lineups:

* loose lineup:   every gap >= delta + rank (pivothood then holds);
* minimal loose:  every gap exactly delta + rank (unique per shape choice);
* jammed lineup:  some gap exactly delta, all members still pivots;
* minimal jammed: every gap is delta or delta + rank, some gap delta,
  all members still pivots.

``iota`` collects the 1-based gap indices sitting at exact delta, counted
from the largest slice down; index n is the gap onto the empty slice.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

# The oracle is reached through the package, which imports it on first
# access, so loading this module does not load the oracle.  Only the
# functions that build series import the series and rings modules, and
# only the brute-force chain count imports the bijection, so listing
# lineups loads none of them.
import cylpart

from .core import Profile, Shape, _Frozen, _space_columns, shape_of_zero
from .polynomials import _over_poch, family
from .qpoly import QPoly
from .slices import Slice, slice_shape, slice_with, zero_slice

if TYPE_CHECKING:
    from .series import Check, TruncatedSeries


def potential_pivot_shapes(rank: int, level: int) -> list[Shape]:
    """All shapes with first part >= 2; there are
    binomial(level + rank - 1, rank - 1) - rank of them."""
    return list(family(rank, level).pivot_shapes)


# Text pieces repeat across lineups: one slice sits in many chains and an
# iota has at most 2^n values.  Bounded, so a long-lived process keeps a
# fixed number of strings.
@lru_cache(maxsize=4096)
def _piece_text(weight: int, shape: Shape) -> str:
    return f"{weight}^{shape}"


@lru_cache(maxsize=1024)
def _iota_text(iota: frozenset[int]) -> str:
    return "{" + ",".join(map(str, sorted(iota))) + "}"


def _line(pieces: Sequence[str], iota: str, classification: str) -> str:
    """One listed lineup: its ``weight^shape`` pieces, smallest slice
    first, then the text of its iota and its classification."""
    return f"{','.join(pieces)} iota={iota} class={classification}"


class Lineup(_Frozen):
    """A chain of potential pivots, ``slices`` largest first, with its
    ``classification`` (loose, minimal-loose, jammed, minimal-jammed or
    none) and ``iota``.  ``labels`` holds the shapes of the slices, largest
    first; they are derived from the slices unless the builder of the
    chain, which chose them, passes them in.  They are not part of the
    value: equality, hashing and ``repr`` skip them."""

    __slots__ = ("profile", "slices", "classification", "iota", "labels")
    _fields = ("profile", "slices", "classification", "iota")

    def __init__(self, profile: Profile, slices: tuple[Slice, ...],
                 classification: str, iota: frozenset[int],
                 labels: tuple[Shape, ...] | None = None):
        if labels is None:
            labels = tuple(slice_shape(s) for s in slices)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "slices", slices)
        object.__setattr__(self, "classification", classification)
        object.__setattr__(self, "iota", iota)
        object.__setattr__(self, "labels", labels)

    @property
    def weight(self) -> int:
        return sum(s.weight for s in self.slices)

    def shapes(self) -> list[Shape]:
        return list(self.labels)

    def to_text(self) -> str:
        return _line([_piece_text(s.weight, sh) for s, sh in
                      zip(reversed(self.slices), reversed(self.labels))],
                     _iota_text(self.iota), self.classification)

    def __str__(self) -> str:
        return self.to_text()


def _chain_from_gaps(profile: Profile, shapes: Sequence[Shape],
                     tight: Sequence[bool]) -> list[Slice] | None:
    """Build the chain whose gap j is delta (tight) or delta + rank; shapes
    are listed largest slice first.  None when some member fails to exist
    as a slice or the chain stalls."""
    r = profile.rank
    level = profile.level
    fam = family(r, level)
    zero_shape = shape_of_zero(profile)
    n = len(shapes)
    weights = [0] * (n + 1)
    for j in range(n, 0, -1):
        lower_shape = shapes[j] if j < n else zero_shape
        gap = fam.dist(lower_shape, shapes[j - 1]) + (0 if tight[j - 1] else r)
        weights[j - 1] = weights[j] + gap
    out = []
    prev = None
    for sh, w in zip(shapes, weights[:n]):
        s = slice_with(profile, sh, w)
        if s is None or s.is_zero:
            return None
        if prev is not None and not (prev.contains(s) and prev != s):
            return None
        out.append(s)
        prev = s
    return out


def enumerate_minimal_loose(n: int, profile: Profile) -> list[Lineup]:
    """One minimal loose lineup per choice of n potential pivot shapes."""
    shapes = potential_pivot_shapes(profile.rank, profile.level)
    return [Lineup(profile, tuple(_chain_from_gaps(profile, combo, [False] * n)),
                   "minimal-loose", frozenset(), combo)
            for combo in itertools.product(shapes, repeat=n)]


def enumerate_minimal_jammed(n: int, profile: Profile) -> list[Lineup]:
    """All minimal jammed lineups with n pivots: chains whose every gap is
    delta or delta + rank, some gap delta, every member a pivot.

    Listed by shape choice (largest slice first, in ``itertools.product``
    order), then by the set of tight gaps read as a bit mask (bit j - 1 for
    gap j), ascending.
    """
    def lineup(link: tuple, iota: frozenset[int]) -> Lineup:
        slices, labels = [], []
        while link is not None:
            row, link = link
            slices.append(row[3])
            labels.append(row[1])
        return Lineup(profile, tuple(slices), "minimal-jammed", iota, tuple(labels))

    return _listing(n, profile, lineup)


def minimal_jammed_lines(n: int, profile: Profile) -> list[str]:
    """The text forms of :func:`enumerate_minimal_jammed`'s lineups, in its
    order, made from the walk without building any lineup."""
    def line(link: tuple, iota: frozenset[int]) -> str:
        pieces = []
        while link is not None:
            row, link = link
            pieces.append(row[6])
        pieces.reverse()
        return _line(pieces, _iota_text(iota), "minimal-jammed")

    return _listing(n, profile, line)


def _listing(n: int, profile: Profile, make) -> list:
    """``make(link, iota)`` for each minimal jammed lineup with n pivots, in
    the order of :func:`enumerate_minimal_jammed`, from its link in the
    walk of :func:`_minimal_jammed` and its iota.

    That order is the order of one integer per lineup: its shape indices
    as the digits of a base-|S| number, largest slice first, then its tight
    mask.
    """
    base = len(family(profile.rank, profile.level).pivot_shapes)
    links = {}
    for mask, _, link in _minimal_jammed(n, profile, math.inf):
        key = 0
        node = link
        while node is not None:
            row, node = node
            key = key * base + row[0]
        links[(key << n) | mask] = link
    found = sorted(links)
    low = (1 << n) - 1
    iotas: dict[int, frozenset[int]] = {}
    # Each key is replaced by what ``make`` returns, and its link freed, in
    # turn.
    for i, key in enumerate(found):
        mask = key & low
        iota = iotas.get(mask)
        if iota is None:
            iota = iotas[mask] = frozenset(j + 1 for j in range(n) if mask >> j & 1)
        found[i] = make(links.pop(key), iota)
    return found


def _top_pivot(row: list) -> bool:
    """Pivot flag of a step row's slice above as the largest member of a
    chain (:func:`cylpart.bijection.pivot_flag` with no slice above): the
    strip after it starts one past its smallest right end, which must lie
    left of the last column of the space below it."""
    return min(row[7]) + 1 < row[5][1]


def _minimal_jammed(n: int, profile: Profile, order):
    """Yield (tight mask, weight, link) for each minimal jammed lineup with
    n pivots and weight <= order (``math.inf``: every one), in no set
    order.  A link is (step-table row, link below it), from the largest
    slice down, ending in None.

    The chain is walked bottom-up, from gap n onto the empty slice to the
    largest slice; each step picks a shape and a tight or loose gap.  A
    member's pivot flag depends only on its neighbours, so it is decided as
    soon as the slice above it is chosen, and a prefix holding a non-pivot
    is cut once, with all its completions.  So is a prefix that cannot stay
    within the order: each slice still to place above a slice of weight w
    weighs more than w.  The steps out of a slice do not depend on where in
    the chain it sits, so each call lists them once per distinct lower
    slice, in a table local to the call, leaving out slices heavier than
    the order.
    """
    if n == 0:
        return
    r = profile.rank
    fam = family(r, profile.level)
    shapes = [(pick, sh, str(sh)) for pick, sh in enumerate(fam.pivot_shapes)]
    # Lower slice lengths -> every admissible step above it, as [shape
    # index, shape, tight, slice above, its weight, (leftmost, rightmost)
    # column of the space between them, its ``weight^shape`` text, right
    # ends of the slice above, pivot flag of the slice above as the largest
    # member].  The flag is None until the row is first placed on top.
    steps_above: dict[tuple[int, ...], list[list]] = {}

    def steps(lower: Slice, lower_shape: Shape) -> list[list]:
        out = []
        lower_ends = lower.right_ends()
        for pick, sh, text in shapes:
            step = lower.weight + fam.dist(lower_shape, sh)
            for tight, weight in ((True, step), (False, step + r)):
                if weight > order:
                    break
                s = slice_with(profile, sh, weight)
                if s is None or s == lower or not s.contains(lower):
                    continue
                ends = s.right_ends()
                # Not None: s strictly contains lower.
                out.append([pick, sh, tight, s, weight,
                            _space_columns(ends, lower_ends), f"{weight}^{text}",
                            ends, None])
        return out

    zero = zero_slice(profile)
    # Each entry asks for slice j (0-based, largest first) above ``lower``,
    # which is slice j + 1 or the empty slice, after slices of total weight
    # ``spent``, which ``link`` holds; ``under_right`` is the rightmost
    # column of the space under ``lower`` (None when ``lower`` is empty).
    # ``lower`` is a pivot when the space above it starts left of that
    # column, as :func:`cylpart.bijection.pivot_flag` decides.
    stack = [(n - 1, zero, shape_of_zero(profile), None, 0, 0, None)]
    while stack:
        j, lower, lower_shape, under_right, spent, mask, link = stack.pop()
        table = steps_above.get(lower.lengths)
        if table is None:
            table = steps_above[lower.lengths] = steps(lower, lower_shape)
        bit = 1 << j
        for row in table:
            _, sh, tight, s, w, (left, right), _, _, top_pivot = row
            if under_right is not None and left >= under_right:
                continue
            weight = spent + w
            if weight + j * (w + 1) > order:
                continue
            m = mask | bit if tight else mask
            if j > 0:
                stack.append((j - 1, s, sh, right, weight, m, (row, link)))
            elif m:
                if top_pivot is None:
                    top_pivot = row[-1] = _top_pivot(row)
                if top_pivot:
                    yield m, weight, (row, link)


def pivot_chain_gf(n: int, profile: Profile, order: int) -> TruncatedSeries:
    """Brute force: sum q^{total weight} over all strictly decreasing chains
    of n slices, every member a pivot, with total weight <= order."""
    from .bijection import chain_pivots
    from .rings import ZZ
    from .series import TruncatedSeries
    counts = [0] * (order + 1)
    if n == 0:
        counts[0] = 1
        return TruncatedSeries.from_coeffs(ZZ, counts, order)
    shapes = potential_pivot_shapes(profile.rank, profile.level)
    slices_by_weight: list[list[Slice]] = [[] for _ in range(order + 1)]
    for w in range(1, order + 1):
        for sh in shapes:
            s = slice_with(profile, sh, w)
            if s is not None:
                slices_by_weight[w].append(s)

    def extend(chain: list[Slice], budget: int):
        # chain holds the smaller slices already chosen, smallest last;
        # the next slice must strictly contain chain[0].
        if len(chain) == n:
            total = sum(s.weight for s in chain)
            if all(chain_pivots(profile, chain)):
                counts[total] += 1
            return
        low = chain[0].weight + 1 if chain else 1
        for w in range(low, budget + 1):
            for s in slices_by_weight[w]:
                if chain and not (s.contains(chain[0]) and s != chain[0]):
                    continue
                remaining = budget - w
                # the rest of the chain needs strictly increasing weights
                needed = sum(range(w + 1, w + 1 + n - len(chain) - 1))
                if remaining < needed:
                    continue
                extend([s] + chain, remaining)

    extend([], order)
    return TruncatedSeries.from_coeffs(ZZ, counts, order)


@lru_cache(maxsize=64)
def minimal_jammed_correction(n: int, profile: Profile, order: int | None = None) -> QPoly:
    """Sum over minimal jammed lineups of q^{|lineup|} times the product of
    (1 - q^{rank*j}) over the tightened gap indices, truncated at q^order
    (``None``: full degree).  Every term of a lineup's piece has degree at
    least the lineup's weight, so only lineups of weight <= order are
    walked."""
    r = profile.rank
    weights: dict[int, list[int]] = {}
    for mask, weight, _ in _minimal_jammed(n, profile,
                                           math.inf if order is None else order):
        weights.setdefault(mask, []).append(weight)
    total = QPoly()
    for mask, ws in weights.items():
        counts = [0] * (max(ws) + 1)
        for w in ws:
            counts[w] += 1
        piece = QPoly(counts)
        for j in range(1, n + 1):
            if mask >> (j - 1) & 1:
                piece = piece * QPoly((1,) + (0,) * (r * j - 1) + (-1,))
        total = total + piece
    return total if order is None else QPoly(total.coeffs[:order + 1])


def lemma_check(n: int, profile: Profile, order: int) -> Check:
    """Chains of n pivots, counted two ways: the ``pivot-chain-lemma``
    check.

    Brute force on the left; on the right, minimal loose lineup weights
    plus the sign-corrected minimal jammed weights, all over
    (q^rank; q^rank)_n, each truncated at q^order.  The minimal loose
    weights come from the tight-packing distances alone, through the
    pivot-lineup recurrence, and only minimal jammed lineups of weight
    <= order are walked; no lineup is built.
    """
    from .series import compare
    lhs = pivot_chain_gf(n, profile, order)
    numerator = family(profile.rank, profile.level).pivot_lineup(
        n, shape_of_zero(profile), order) + minimal_jammed_correction(n, profile, order)
    rhs = _over_poch(numerator, n, profile.rank, order)
    where = f"for {profile}, n={n}, q^{order}"
    return compare("pivot-chain-lemma", lhs.coeffs, rhs.coeffs,
                   f"pivot-chain count identity {where}: ok",
                   lambda k, x, y: f"pivot-chain count identity (first mismatch "
                                   f"at q^{k}: {x} vs {y}) {where}: MISMATCH")


def qconj_genfunc_check(profile: Profile, order: int, n_max: int) -> Check:
    """The ``pivot-genfunc`` check: the full two-variable identity against
    the enumeration oracle,

        F(z, q) = 1/(zq; q)_inf *
                  sum_n (pivot_lineup + jammed correction) z^n / (q^r; q^r)_n

    compared coefficientwise for z-degree <= n_max, q-degree <= order.
    Both lineup sums are truncated at q^order: the minimal loose weights
    come from the pivot-lineup recurrence and only minimal jammed lineups
    of weight <= order are walked.
    """
    from .rings import ZZ_z
    from .series import (TruncatedSeries, compare, inv_zq_pochhammer, refinement,
                         truncate_z, z_power_times)
    r = profile.rank
    fam = family(r, profile.level)
    zero_shape = shape_of_zero(profile)
    rhs_sum = TruncatedSeries.zero(ZZ_z, order)
    for n in range(n_max + 1):
        numerator = fam.pivot_lineup(n, zero_shape, order) + \
            minimal_jammed_correction(n, profile, order)
        rhs_sum = rhs_sum + z_power_times(n, _over_poch(numerator, n, r, order))
    rhs = truncate_z(inv_zq_pochhammer(order) * rhs_sum, n_max)
    lhs = truncate_z(cylpart.oracle.count_bivariate(profile, order), n_max)
    where = f"for {profile}, n={n_max}, q^{order}"
    return compare("pivot-genfunc", lhs.coeffs, rhs.coeffs,
                   f"pivot generating-function identity {where}: ok",
                   refinement(lambda k, m, x, y: f"pivot generating-function "
                                                 f"identity (first mismatch at "
                                                 f"q^{k} z^{m}: oracle {x} vs "
                                                 f"lineups {y}) {where}: MISMATCH"))
