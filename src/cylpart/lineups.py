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

The listings write each lineup's text line and build no lineup object:
minimal loose lines from the tight-packing distances alone, minimal
jammed lines from a pruned walk.  The pivot-chain count is a second
pruned walk, which decides pivots by its own code.  Both walks read each
slice as its right ends, from its shape and weight, and build no slice.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

# The oracle is reached through the package, which imports it on first
# access, so loading this module does not load the oracle.  Only the
# functions that build series import the series and rings modules, so
# listing lineups loads none of them.
import cylpart

from .core import Profile, _space_columns, shape_of_zero
from .polynomials import _over_poch, family
from .qpoly import QPoly

if TYPE_CHECKING:
    from .series import Check, TruncatedSeries


@lru_cache(maxsize=1024)
def _iota_text(mask: int) -> str:
    """The text of the iota whose gaps j are the bits j - 1 of ``mask``."""
    return "{" + ",".join(str(j + 1) for j in range(mask.bit_length())
                          if mask >> j & 1) + "}"


def _line(pieces: Sequence[str], iota: str, classification: str) -> str:
    """One listed lineup: its ``weight^shape`` pieces, smallest slice
    first, then the text of its iota and its classification."""
    return f"{','.join(pieces)} iota={iota} class={classification}"


def minimal_loose_lines(n: int, profile: Profile) -> list[str]:
    """The text lines of the minimal loose lineups with n pivots, one per
    choice of n potential pivot shapes s_1, ..., s_n (largest slice first,
    in ``itertools.product`` order).

    Every gap is delta + rank, so the weights follow from the shapes:
    w_n = delta(zero, s_n) + r and w_j = w_{j+1} + delta(s_{j+1}, s_j) + r.
    """
    r = profile.rank
    fam = family(r, profile.level)
    shapes = fam.pivot_shapes
    texts = [str(sh) for sh in shapes]
    zero = shape_of_zero(profile)
    # Gap onto the empty slice, and gap[lower][upper] between two shapes.
    first = [fam.dist(zero, sh) + r for sh in shapes]
    gap = [[fam.dist(lower, sh) + r for sh in shapes] for lower in shapes]
    lines = []
    for combo in itertools.product(range(len(shapes)), repeat=n):
        pieces = []
        weight = lower = None
        for i in reversed(combo):
            weight = first[i] if lower is None else weight + gap[lower][i]
            pieces.append(f"{weight}^{texts[i]}")
            lower = i
        lines.append(_line(pieces, _iota_text(0), "minimal-loose"))
    return lines


def minimal_jammed_lines(n: int, profile: Profile) -> list[str]:
    """The text lines of the minimal jammed lineups with n pivots: chains
    whose every gap is delta or delta + rank, some gap delta, every member
    a pivot.

    Listed by shape choice (largest slice first, in ``itertools.product``
    order), then by the set of tight gaps read as a bit mask (bit j - 1 for
    gap j), ascending.  That is the order of one integer per lineup: its
    shape indices as the digits of a base-|S| number, largest slice first,
    then its tight mask.  Each line is made from the lineup's link in the
    walk of :func:`_minimal_jammed`, as soon as the walk finds it.
    """
    texts = [str(sh) for sh in family(profile.rank, profile.level).pivot_shapes]
    base = len(texts)
    lines = {}
    for mask, _, link in _minimal_jammed(n, profile, math.inf):
        key = 0
        pieces = []
        while link is not None:
            pick, w, link = link
            key = key * base + pick
            pieces.append(f"{w}^{texts[pick]}")
        pieces.reverse()
        lines[(key << n) | mask] = _line(pieces, _iota_text(mask), "minimal-jammed")
    return [lines[key] for key in sorted(lines)]


def _minimal_jammed(n: int, profile: Profile, order):
    """Yield (tight mask, weight, link) for each minimal jammed lineup with
    n pivots and weight <= order (``math.inf``: every one), in no set
    order.  A link is (shape index, weight, link below) for each slice,
    from the largest down, ending in None.

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
    shapes = fam.pivot_shapes
    offsets = profile.offsets()
    zero_sum = sum(offsets[:-1])   # the zero shape's parts are offsets[:-1]
    # Lower slice's right ends -> every step above it, as (shape index,
    # shape, tight, weight, right ends of the slice above, leftmost and
    # rightmost column of the space between them, pivot flag of the slice
    # above as the largest member).
    steps_above: dict[tuple[int, ...], list[tuple]] = {}
    # Each entry asks for slice j (0-based, largest first) above the lower
    # slice, of shape ``lower``, right ends ``lower_ends`` and weight
    # ``lower_w``, after slices of total weight ``spent``, which ``link``
    # holds; ``under_right`` is the rightmost column of the space under the
    # lower slice (None for the empty slice).  The lower slice is a pivot
    # when the space above it starts left of that column: the first box
    # tiled after it sits left of the last box tiled before it.
    stack = [(n - 1, shape_of_zero(profile), offsets, 0, None, 0, 0, None)]
    while stack:
        j, lower, lower_ends, lower_w, under_right, spent, mask, link = stack.pop()
        table = steps_above.get(lower_ends)
        if table is None:
            table = steps_above[lower_ends] = []
            for pick, sh in enumerate(shapes):
                step = lower_w + fam.dist(lower, sh)
                # The tight gap delta, then the loose gap delta + rank; a
                # slice of shape sh that much heavier contains the lower one.
                for tight, w in ((True, step), (False, step + r)):
                    if w > order:
                        break
                    if tight and sh == lower:
                        continue   # the lower slice itself
                    # The right ends x + d_1, ..., x + d_{r-1}, x of the
                    # slice of shape d and weight w.
                    x = (w - sum(sh.parts) + zero_sum) // r
                    ends = (*[x + p for p in sh.parts], x)
                    left, right = _space_columns(ends, lower_ends)
                    # The strip after the largest slice starts one past its
                    # smallest right end, x.
                    table.append((pick, sh, tight, w, ends, left, right,
                                  x + 1 < right))
        bit = 1 << j
        for pick, sh, tight, w, ends, left, right, top_pivot in table:
            if under_right is not None and left >= under_right:
                continue
            weight = spent + w
            if weight + j * (w + 1) > order:
                continue
            m = mask | bit if tight else mask
            if j:
                stack.append((j - 1, sh, ends, w, right, weight, m, (pick, w, link)))
            elif m and top_pivot:
                yield m, weight, (pick, w, link)


def pivot_chain_gf(n: int, profile: Profile, order: int) -> TruncatedSeries:
    """Sum of q^{total weight} over all strictly decreasing chains of n
    slices, every member a pivot, with total weight <= order.

    The chains are walked bottom-up from the empty slice, n steps deep.  A
    slice of shape d strictly containing one of shape c is heavier by
    delta(c, d) + k * rank, k >= 0 (k >= 1 when d = c), and only
    potential pivot shapes can be pivots, so each step picks such a shape
    and k.  A slice's pivot flag is final once the slice above it is
    placed, so a prefix is cut at its first non-pivot; it is also cut when
    the chain must pass the order, as each slice still to place above a
    slice of weight w weighs more than w.
    """
    from .rings import ZZ
    from .series import TruncatedSeries
    counts = [0] * (order + 1)
    if n == 0:
        counts[0] = 1
        return TruncatedSeries.from_coeffs(ZZ, counts, order)
    r = profile.rank
    fam = family(r, profile.level)
    offsets = profile.offsets()
    zero_sum = sum(offsets[:-1])   # the zero shape's parts are offsets[:-1]
    # Each entry asks for slice j (0-based, largest first) above the lower
    # slice, of shape ``lower``, right ends ``lower_ends`` and weight
    # ``lower_w``, after slices of total weight ``spent``; ``under_right`` is
    # the rightmost column of the space under the lower slice (None for the
    # empty slice).  The lower slice is a pivot when the space above it
    # starts left of that column.
    stack = [(n - 1, shape_of_zero(profile), offsets, 0, None, 0)]
    while stack:
        j, lower, lower_ends, lower_w, under_right, spent = stack.pop()
        for sh in fam.pivot_shapes:
            w = lower_w + fam.dist(lower, sh) + (r if sh == lower else 0)
            parts = sh.parts
            while spent + w + j * (w + 1) <= order:
                # The right ends x + d_1, ..., x + d_{r-1}, x of the slice
                # of shape d and weight w.
                x = (w - sum(parts) + zero_sum) // r
                ends = (*[x + p for p in parts], x)
                left, right = _space_columns(ends, lower_ends)
                if under_right is None or left < under_right:
                    if j:
                        stack.append((j - 1, sh, ends, w, right, spent + w))
                    elif x + 1 < right:
                        # The largest slice: the strip after it starts one
                        # past its smallest right end, x.
                        counts[spent + w] += 1
                w += r
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


def _lineup_series(n: int, profile: Profile, order: int) -> TruncatedSeries:
    """The n-th lineup-side series, truncated at q^order: minimal loose
    lineup weights plus the sign-corrected minimal jammed weights, over
    (q^rank; q^rank)_n.  The minimal loose weights come from the
    tight-packing distances alone, through the pivot-lineup recurrence, and
    only minimal jammed lineups of weight <= order are walked."""
    numerator = family(profile.rank, profile.level).pivot_lineup(
        n, shape_of_zero(profile), order) + minimal_jammed_correction(n, profile, order)
    return _over_poch(numerator, n, profile.rank, order)


def lemma_check(n: int, profile: Profile, order: int) -> Check:
    """Chains of n pivots, counted two ways: the ``pivot-chain-lemma``
    check.

    On the left, the pruned walk over every chain of n pivots
    (:func:`pivot_chain_gf`); on the right, the lineup-side series of
    :func:`_lineup_series`, each truncated at q^order.  No lineup is
    built.  At n = 0 both sides are 1, from the empty chain alone, so
    :func:`~cylpart.series.compare` finds nothing past q^0 and the check
    does not apply.
    """
    from .series import compare
    where = f"for {profile}, n={n}, q^{order}"
    lhs = pivot_chain_gf(n, profile, order)
    rhs = _lineup_series(n, profile, order)
    return compare("pivot-chain-lemma", lhs.coeffs, rhs.coeffs,
                   f"pivot-chain count identity {where}: ok",
                   lambda k, x, y: f"pivot-chain count identity (first mismatch "
                                   f"at q^{k}: {x} vs {y}) {where}: MISMATCH")


def qconj_genfunc_check(profile: Profile, order: int, n_max: int) -> Check:
    """The ``pivot-genfunc`` check: the full two-variable identity against
    the enumeration oracle,

        F(z, q) = 1/(zq; q)_inf *
                  sum_n (pivot_lineup + jammed correction) z^n / (q^r; q^r)_n

    compared coefficientwise for z-degree <= n_max, q-degree <= order, the
    z^n term being :func:`_lineup_series`.  At n_max = 0 or order 0 both
    sides are 1, from the empty chain and the empty partition alone, so
    :func:`~cylpart.series.compare` finds nothing past q^0 and the check
    does not apply.
    """
    from .rings import ZZ_z
    from .series import (TruncatedSeries, compare, inv_zq_pochhammer, refinement,
                         truncate_z, z_power_times)
    where = f"for {profile}, n={n_max}, q^{order}"
    rhs_sum = TruncatedSeries.zero(ZZ_z, order)
    for n in range(n_max + 1):
        rhs_sum = rhs_sum + z_power_times(n, _lineup_series(n, profile, order))
    rhs = truncate_z(inv_zq_pochhammer(order) * rhs_sum, n_max)
    lhs = truncate_z(cylpart.oracle.count_bivariate(profile, order), n_max)
    return compare("pivot-genfunc", lhs.coeffs, rhs.coeffs,
                   f"pivot generating-function identity {where}: ok",
                   refinement(lambda k, m, x, y: f"pivot generating-function "
                                                 f"identity (first mismatch at "
                                                 f"q^{k} z^{m}: oracle {x} vs "
                                                 f"lineups {y}) {where}: MISMATCH"))
