"""Brute-force enumeration of cylindric partitions.

This module is the ground truth every identity in the package is checked
against, so it stays deliberately simple: a depth-first search that grows
one row at a time, one part at a time, in place.  Each part is bounded by
the cyclic constraints on the row above, the wraparound against the first
row and the remaining weight budget.  Those bounds make every hit valid, so
no hit is checked again here; the tests run :func:`core.check_rows` on the
hits instead.  The search hands each hit to a visitor as plain row tuples,
with its weight, largest part and whether all its parts are distinct, all
worked out on the way down.  All counts read one census per (profile,
cap), tallied in a single pass and kept at the highest order searched, so
a count of a lower order filters it by weight.  :func:`hits` lists the
rows of every hit in search order, and only :func:`enumerate_by_weight`
and the callers that draw from :func:`hits` turn hits into
:class:`CylindricPartition` values.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Callable, Iterable

from .core import CylindricPartition, InvalidInput, Partition, Profile, _trusted
from .qpoly import QPoly
from .series import TruncatedSeries
from .rings import ZZ, ZZ_z

_new_partition = _trusted(Partition)
_new_cylindric = _trusted(CylindricPartition)

DEFAULT_WEIGHT_CAP = 30

_Rows = tuple[tuple[int, ...], ...]


def _search(profile: Profile, max_weight: int, cap: int,
            visit: Callable[[list[tuple[int, ...]], int, int, bool], None]) -> None:
    """Call ``visit(rows, weight, largest, distinct)`` once for every
    cylindric partition with the given profile and weight <= max_weight.

    Rows are grown top to bottom, each one part at a time in a list of its
    own, largest part first.  Part j of row i is at most part j - c_i of
    the row above (no cap for j <= c_i) and at most the budget left; the
    last row is also at least ``rows[0][c_0:]`` part by part, so a middle
    row may spend only the budget less that floor.  A row becomes a tuple
    once it ends, at any length its lower bound allows; the search then
    starts the next row, or visits the hit after the last row.  Rows end
    before they grow, and larger parts come first, so the hits come in a
    fixed search order.

    ``rows`` holds one part tuple per row; it is the search's own list and
    changes once ``visit`` returns, so a visitor that keeps it copies it.
    ``largest`` is the largest part and ``distinct`` says whether all parts
    across rows differ; the search tracks distinctness as a bit mask of the
    parts placed, -1 from the first repeat on.  Exhaustive and
    duplicate-free.  ``cap`` guards runaway searches; the guard fires before
    the search.
    """
    if max_weight < 0:
        return
    if max_weight > cap:
        raise InvalidInput(f"weight bound {max_weight} exceeds the cap {cap}; "
                         f"raise `cap` explicitly if this is intended")
    r = profile.rank
    c = profile.parts
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
                    visit(rows, spent + spend - left, big, mask != -1)
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


def hits(profile: Profile, max_weight: int, cap: int = DEFAULT_WEIGHT_CAP) -> list[_Rows]:
    """The rows of every cylindric partition with the given profile and
    weight <= max_weight, one tuple of part tuples per hit, in search order,
    in a fresh list.  ``cap`` guards runaway searches."""
    found: list[_Rows] = []
    _search(profile, max_weight, cap,
            lambda rows, weight, largest, distinct: found.append(tuple(rows)))
    return found


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


def enumerate_by_weight(profile: Profile, max_weight: int,
                        cap: int = DEFAULT_WEIGHT_CAP) -> list[CylindricPartition]:
    """Every cylindric partition with the given profile and weight <= max_weight.

    Exhaustive and duplicate-free; results come back sorted by (weight,
    canonical text form) in a fresh list.  ``cap`` guards runaway searches.
    The search's bounds make every hit valid, so none is re-validated.
    """
    return _partitions(profile, sorted(hits(profile, max_weight, cap), key=_text_order()))


_Census = tuple[tuple[int, int, bool, int], ...]

# (profile, cap) -> (order, census) for the highest order searched, oldest
# use first; at most _CENSUS_SLOTS entries.  Every stored census is
# complete, and the lock makes each lookup or store one step.
_CENSUS_SLOTS = 64
_censuses: dict[tuple[Profile, int], tuple[int, _Census]] = {}
_censuses_lock = threading.Lock()


def _census(profile: Profile, order: int, cap: int) -> _Census:
    """(weight, largest part, all parts distinct, count) for every class of
    cylindric partitions with weight <= order, sorted.

    A census of a higher order for the same profile and cap, kept from an
    earlier call, is filtered by weight; otherwise one pass of the search
    tallies it, and it is kept for later calls.
    """
    key = profile, cap
    with _censuses_lock:
        kept = _censuses.pop(key, None)
        if kept is not None:
            _censuses[key] = kept
    if kept is not None and kept[0] >= order:
        top, census = kept
        return census if top == order else tuple(c for c in census if c[0] <= order)
    census = _search_census(profile, order, cap)
    with _censuses_lock:
        kept = _censuses.pop(key, None)
        _censuses[key] = kept if kept is not None and kept[0] > order else (order, census)
        if len(_censuses) > _CENSUS_SLOTS:
            del _censuses[next(iter(_censuses))]
    return census


def _search_census(profile: Profile, order: int, cap: int) -> _Census:
    """The census of :func:`_census`, from one pass of the search."""
    # tally[weight][largest][distinct]; no part exceeds the weight, and the
    # search refuses an order above the cap before it visits anything.
    size = min(order, cap) + 1
    tally = [[[0, 0] for _ in range(size)] for _ in range(size)]

    def visit(rows, weight, largest, distinct):
        tally[weight][largest][distinct] += 1

    _search(profile, order, cap, visit)
    return tuple((weight, top, distinct, n)
                 for weight, by_top in enumerate(tally)
                 for top, pair in enumerate(by_top)
                 for distinct, n in zip((False, True), pair) if n)


def _count(profile: Profile, order: int, cap: int,
           keep: Callable[[int, bool], bool]) -> TruncatedSeries:
    """Census counts by weight, over the classes ``keep(largest, distinct)``
    accepts."""
    counts = [0] * (order + 1)
    for weight, top, distinct, n in _census(profile, order, cap):
        if keep(top, distinct):
            counts[weight] += n
    return TruncatedSeries.from_coeffs(ZZ, counts, order)


def count_series(profile: Profile, order: int, cap: int = DEFAULT_WEIGHT_CAP) -> TruncatedSeries:
    """Number of cylindric partitions by weight, as a truncated series."""
    return _count(profile, order, cap, lambda top, distinct: True)


def count_bivariate(profile: Profile, order: int, cap: int = DEFAULT_WEIGHT_CAP) -> TruncatedSeries:
    """Counts refined by largest part, a series over Z[z]: the q^n
    coefficient collects z^{max}."""
    buckets: list[dict[int, int]] = [dict() for _ in range(order + 1)]
    for weight, top, _, n in _census(profile, order, cap):
        buckets[weight][top] = buckets[weight].get(top, 0) + n
    return TruncatedSeries(ZZ_z, order, tuple(
        QPoly(tuple(d.get(m, 0) for m in range(max(d, default=-1) + 1)))
        for d in buckets))


def count_distinct_series(profile: Profile, order: int,
                          cap: int = DEFAULT_WEIGHT_CAP) -> TruncatedSeries:
    """Counts of cylindric partitions with all parts distinct across rows."""
    return _count(profile, order, cap, lambda top, distinct: distinct)


def count_max_at_most(profile: Profile, bound: int, order: int,
                      cap: int = DEFAULT_WEIGHT_CAP) -> TruncatedSeries:
    """Counts of cylindric partitions with largest part <= bound."""
    return _count(profile, order, cap, lambda top, distinct: top <= bound)


def count_max_exactly(profile: Profile, bound: int, order: int,
                      cap: int = DEFAULT_WEIGHT_CAP) -> TruncatedSeries:
    """Counts of cylindric partitions with largest part exactly ``bound``."""
    return _count(profile, order, cap, lambda top, distinct: top == bound)
