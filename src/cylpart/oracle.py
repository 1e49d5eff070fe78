"""Brute-force enumeration of cylindric partitions.

This module is the ground truth every identity in the package is checked
against, so it stays deliberately simple: a depth-first search that grows
one row at a time, one part at a time, in place.  Each part is bounded by
the cyclic constraints on the row above, the wraparound against the first
row and the remaining weight budget.  Those bounds make every hit valid, so
no hit is checked again here; the tests run :func:`core.check_rows` on the
hits instead.  One pass of the search tallies every hit by its weight,
largest part and whether all its parts are distinct, all worked out on the
way down, and keeps the rows of the hits up to a second weight bound.  All
counts read one census per profile, kept at the highest order searched,
so a count of a lower order cuts it at its weight; ``verify-all``
makes that census and draws its round trips from the same pass, so each of
its jobs searches once.  :func:`hits` lists the rows of every hit in search
order, and only :func:`enumerate_by_weight` and the callers that draw from
those rows turn hits into :class:`CylindricPartition` values.  No search
goes past :data:`WEIGHT_LIMIT`.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Callable, Iterable

from .core import CylindricPartition, InvalidInput, Profile, _new_cylindric, _new_partition
from .qpoly import QPoly
from .series import TruncatedSeries
from .rings import ZZ, ZZ_z

# The highest weight bound any search takes; a higher one raises before
# the search starts.
WEIGHT_LIMIT = 30

_Rows = tuple[tuple[int, ...], ...]

# census[weight][largest][distinct]: the number of hits of that weight and
# largest part (at most the weight) whose parts are all distinct (1) or
# not (0).
_Census = list[list[list[int]]]


def _search(profile: Profile, max_weight: int,
            keep: int) -> tuple[_Census, list[_Rows]]:
    """One pass over every cylindric partition with the given profile and
    weight <= max_weight: the census of them all, and the rows of those of
    weight <= ``keep``, one tuple of part tuples per hit, in search order.

    Rows are grown top to bottom, each one part at a time in a list of its
    own, largest part first.  Part j of row i is at most part j - c_i of
    the row above (no cap for j <= c_i) and at most the budget left; the
    last row is also at least ``rows[0][c_0:]`` part by part, so a middle
    row may spend only the budget less that floor.  A row becomes a tuple
    once it ends, at any length its lower bound allows; the search then
    starts the next row, or counts the hit after the last row.  Rows end
    before they grow, and larger parts come first, so the hits come in a
    fixed search order; a higher ``max_weight`` only adds branches, so the
    hits two bounds both reach come in the same order.

    The census has one entry per weight 0..max_weight; a hit's largest part
    and whether all its parts across rows differ are worked out on the way
    down, distinctness as a bit mask of the parts placed, -1 from the first
    repeat on.  Exhaustive and duplicate-free.  A ``max_weight`` above
    :data:`WEIGHT_LIMIT` raises :class:`InvalidInput` before the search.
    """
    if max_weight < 0:
        return [], []
    if max_weight > WEIGHT_LIMIT:
        raise InvalidInput(f"weight bound {max_weight} exceeds the oracle's "
                           f"limit of {WEIGHT_LIMIT}")
    r = profile.rank
    c = profile.parts
    # No part exceeds the weight, so the census of a lower bound is a prefix.
    census = [[[0, 0] for _ in range(w + 1)] for w in range(max_weight + 1)]
    found: list[_Rows] = []
    rows: list[tuple[int, ...]] = []

    def begin(budget: int, largest: int, mask: int) -> None:
        # Start row i = len(rows) with ``budget`` left for it and the rows
        # below; ``caps`` and ``lows`` bound part j at index j - 1.
        i = len(rows)
        if i == 0:
            spend, caps, lows = budget, (budget,) * (budget + 1), ()
        else:
            lows = rows[0][c[0]:]
            if i < r - 1:
                # The last row dominates rows[0][c[0]:], so it weighs at
                # least that much; this row may spend only what is left.
                floor = sum(lows)
                if budget < floor:
                    return
                spend, lows = budget - floor, ()
            else:
                spend = budget
            caps = (spend,) * c[i] + rows[i - 1] + (0,)
        last = i == r - 1
        n_low = len(lows)
        spent = max_weight - budget
        row: list[int] = []

        def grow(j: int, left: int, top: int, mask: int) -> None:
            # ``row`` holds j - 1 parts, ``left`` of ``spend`` unspent.
            if j > n_low:
                done = tuple(row)
                # Rows are non-increasing, so the largest part is a first part.
                big = done[0] if done and done[0] > largest else largest
                rows.append(done)
                if last:
                    weight = spent + spend - left
                    census[weight][big][mask != -1] += 1
                    if weight <= keep:
                        found.append(tuple(rows))
                else:
                    begin(budget - spend + left, big, mask)
                rows.pop()
            if left <= 0:
                return
            hi = caps[j - 1]
            if left < hi:
                hi = left
            if top < hi:
                hi = top
            for p in range(hi, (lows[j - 1] if j <= n_low else 1) - 1, -1):
                row.append(p)
                bit = 1 << p
                grow(j + 1, left - p, p, -1 if mask & bit else mask | bit)
                row.pop()

        grow(1, spend, spend, mask)
        # ``grow`` holds itself through its closure; dropping the name frees
        # the row's state at once rather than at the next cyclic collection.
        del grow

    begin(max_weight, 0, 0)
    return census, found


def hits(profile: Profile, max_weight: int) -> list[_Rows]:
    """The rows of every cylindric partition with the given profile and
    weight <= max_weight, one tuple of part tuples per hit, in search order,
    in a fresh list."""
    return _search(profile, max_weight, max_weight)[1]


def _partitions(profile: Profile, found: Iterable[_Rows]) -> list[CylindricPartition]:
    """The hits ``found`` of :func:`hits` for ``profile``, in their order, as
    partitions.  The search's bounds make every hit valid, so none is
    re-validated; rows from anywhere else must go through ``validate``."""
    return [_new_cylindric(profile, tuple(map(_new_partition, rows))) for rows in found]


def _text_order() -> Callable[[_Rows], tuple[int, str]]:
    """Sort key giving (weight, canonical text form without the profile
    prefix every hit shares): the order :func:`enumerate_by_weight`
    returns.  Each distinct row's text is built once per key."""
    row_text = lru_cache(maxsize=None)(lambda row: ",".join(map(str, row)))
    return lambda rows: (sum(map(sum, rows)), "|".join(map(row_text, rows)))


def enumerate_by_weight(profile: Profile, max_weight: int) -> list[CylindricPartition]:
    """Every cylindric partition with the given profile and weight <= max_weight.

    Exhaustive and duplicate-free; results come back sorted by (weight,
    canonical text form) in a fresh list.  The search's bounds make every
    hit valid, so none is re-validated.
    """
    return _partitions(profile, sorted(hits(profile, max_weight), key=_text_order()))


# profile -> (order, census) for the highest order searched, oldest
# use first; at most _CENSUS_SLOTS entries.  Every stored census is
# complete and never changed, and the lock makes each lookup or store one
# step.
_CENSUS_SLOTS = 64
_censuses: dict[Profile, tuple[int, _Census]] = {}
_censuses_lock = threading.Lock()


def _census(profile: Profile, order: int) -> _Census:
    """The census of :func:`_search` of the cylindric partitions with
    weight <= order; the caller must not change it.

    A census of a higher order for the same profile, kept from an earlier
    call, is cut at weight ``order``; otherwise one pass of the search
    makes it, and it is kept for later calls.
    """
    with _censuses_lock:
        kept = _censuses.pop(profile, None)
        if kept is not None:
            _censuses[profile] = kept
    if kept is not None and kept[0] >= order:
        return kept[1][:max(order + 1, 0)]
    census = _search(profile, order, -1)[0]
    _store(profile, order, census)
    return census


def _store(profile: Profile, order: int, census: _Census) -> None:
    """Keep ``census``, made by a search to ``order``, for later counts,
    unless one of a higher order is kept already."""
    with _censuses_lock:
        kept = _censuses.pop(profile, None)
        _censuses[profile] = kept if kept is not None and kept[0] > order else (order, census)
        if len(_censuses) > _CENSUS_SLOTS:
            del _censuses[next(iter(_censuses))]


def count_series(profile: Profile, order: int) -> TruncatedSeries:
    """Number of cylindric partitions by weight, as a truncated series."""
    return TruncatedSeries.from_coeffs(ZZ, [
        sum(map(sum, by_top)) for by_top in _census(profile, order)], order)


def count_bivariate(profile: Profile, order: int) -> TruncatedSeries:
    """Counts refined by largest part, a series over Z[z]: the q^n
    coefficient collects z^{max}.  Its z^m column counts the partitions
    with largest part m, and the sum of its columns up to z^m those with
    largest part at most m."""
    return TruncatedSeries(ZZ_z, order, tuple(
        QPoly(list(map(sum, by_top))) for by_top in _census(profile, order)))


def count_distinct_series(profile: Profile, order: int) -> TruncatedSeries:
    """Counts of cylindric partitions with all parts distinct across rows."""
    return TruncatedSeries.from_coeffs(ZZ, [
        sum(distinct for _, distinct in by_top) for by_top in _census(profile, order)],
        order)
