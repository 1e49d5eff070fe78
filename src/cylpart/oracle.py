"""Brute-force enumeration of cylindric partitions.

This module is the ground truth every identity in the package is checked
against, so it stays deliberately simple: a depth-first search over rows,
bounding each part by the cyclic constraints and the remaining weight
budget.  Those bounds make every hit valid, so no hit is checked again
here; the tests run :func:`core.check_rows` on the hits instead.  The
search hands each hit to a visitor as plain row tuples, with its weight,
largest part and whether all its parts are distinct, all worked out on
the way down.  All counts read one census per (profile, order, cap),
tallied in a single pass; only :func:`enumerate_by_weight` turns hits into
:class:`CylindricPartition` values.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .core import CylindricPartition, Partition, Profile, _trusted
from .qpoly import QPoly
from .series import TruncatedSeries
from .rings import ZZ, ZZ_z

_new_partition = _trusted(Partition)
_new_cylindric = _trusted(CylindricPartition)

DEFAULT_WEIGHT_CAP = 30

_Rows = tuple[tuple[int, ...], ...]


def _rows_within(cap_row: tuple[int, ...] | None, lower_row: tuple[int, ...],
                 shift: int, budget: int):
    """(row, weight) for every partition with weight <= budget, part j <=
    cap_row[j - shift - 1] (no cap for j <= shift, 0 beyond the caps), and
    part j >= lower_row[j-1].

    ``cap_row=None`` means unconstrained from above except by the budget.
    """
    out: list[tuple[tuple[int, ...], int]] = []
    min_len = len(lower_row)
    # Bounds on part j at index j - 1.  A row has at most ``budget`` parts.
    if cap_row is None:
        caps = (budget,) * budget
    else:
        caps = ((budget,) * shift + tuple(cap_row) + (0,) * budget)[:budget]
    lows = tuple(lower_row) + (0,) * budget

    def rec(prefix: list[int], j: int, remaining: int, top: int):
        if j > min_len:
            out.append((tuple(prefix), budget - remaining))
        if remaining <= 0:
            return
        hi = min(caps[j - 1], remaining, top)
        for p in range(hi, max(lows[j - 1], 1) - 1, -1):
            prefix.append(p)
            rec(prefix, j + 1, remaining - p, p)
            prefix.pop()

    rec([], 1, budget, budget)
    return out


def _search(profile: Profile, max_weight: int, cap: int,
            visit: Callable[[list[tuple[int, ...]], int, int, bool], None]) -> None:
    """Call ``visit(rows, weight, largest, distinct)`` once for every
    cylindric partition with the given profile and weight <= max_weight.

    ``rows`` holds one part tuple per row; it is the search's own list and
    changes once ``visit`` returns, so a visitor that keeps it copies it.
    ``largest`` is the largest part and ``distinct`` says whether all parts
    across rows differ.  Exhaustive and duplicate-free, in search order.
    ``cap`` guards runaway searches; the guard fires before the search.
    """
    if max_weight < 0:
        return
    if max_weight > cap:
        raise ValueError(f"weight bound {max_weight} exceeds the cap {cap}; "
                         f"raise `cap` explicitly if this is intended")
    r = profile.rank
    c = profile.parts
    rows: list[tuple[int, ...]] = []

    def place(budget: int, largest: int, seen: set[int] | None):
        # ``seen`` holds the parts placed so far while they are all
        # distinct, and is None from the first repeat on.
        i = len(rows)
        if i == 0:
            choices = _rows_within(None, (), 0, budget)
        elif i < r - 1:
            choices = _rows_within(rows[i - 1], (), c[i], budget)
        else:
            # Last row: also bounded below by the wraparound against row 1.
            choices = _rows_within(rows[i - 1], rows[0][c[0]:], c[i], budget)
        last = i + 1 == r
        spent = max_weight - budget
        for row, weight in choices:
            # Rows are non-increasing, so the largest part is a first part.
            top = row[0] if row and row[0] > largest else largest
            parts = seen
            if seen is not None:
                parts = seen.union(row)
                if len(parts) != len(seen) + len(row):
                    parts = None
            rows.append(row)
            if last:
                visit(rows, spent + weight, top, parts is not None)
            else:
                place(budget - weight, top, parts)
            rows.pop()

    place(max_weight, 0, set())


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
    found: list[_Rows] = []
    _search(profile, max_weight, cap,
            lambda rows, weight, largest, distinct: found.append(tuple(rows)))
    return [_new_cylindric(profile, tuple(map(_new_partition, rows)))
            for rows in sorted(found, key=_text_order())]


@lru_cache(maxsize=64)
def _census(profile: Profile, order: int, cap: int) -> tuple[tuple[int, int, bool, int], ...]:
    """(weight, largest part, all parts distinct, count) for every class of
    cylindric partitions with weight <= order, from one pass of the search."""
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
