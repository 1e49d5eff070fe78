"""Slices (all-ones cylindric partitions) and their chains.

A slice is stored as its per-row lengths ``(l_1, ..., l_r)``, with its
weight, their sum, kept beside them.  Validity is linear in the lengths:
``l_{i+1} <= l_i + c_{i+1}`` for i < r and ``l_1 <= l_r + c_1``.  Every
cylindric partition decomposes into a weakly decreasing chain of slices
(peel the positions holding the current maximum, one unit at a time), and
componentwise addition recomposes it.  The chain has one distinct slice per
distinct part value, so it is built value by value, not one unit at a
time.
"""

from __future__ import annotations

import enum
import itertools
import operator
from functools import lru_cache
from typing import Iterator, Sequence

from .core import (CylindricPartition, CylpartError, Partition, Profile,
                   RankMismatch, Shape, _Frozen, _conjugate, _delta, _trusted)

_new_partition = _trusted(Partition)
_new_shape = _trusted(Shape)
_new_cylindric = _trusted(CylindricPartition)


class ChainNotDecreasing(CylpartError):
    pass


class ChainNotStrict(CylpartError):
    pass


class PartTooLarge(CylpartError):
    pass


class NotMultipleOfRank(CylpartError):
    pass


class Slice(_Frozen):
    __slots__ = ("profile", "lengths", "weight")
    _fields = ("profile", "lengths")
    # The number of boxes, read by every weight sum over a chain.
    _derived = (("weight", "lengths", sum),)

    def __init__(self, profile: Profile, lengths: tuple[int, ...]):
        ln = tuple(lengths)
        c = profile.parts
        r = profile.rank
        if len(ln) != r:
            raise ValueError(f"slice needs {r} lengths, got {len(ln)}")
        if any(v < 0 for v in ln):
            raise ValueError(f"negative slice length: {ln}")
        for i in range(r - 1):
            if ln[i + 1] > ln[i] + c[i + 1]:
                raise ValueError(f"invalid slice {ln} for {profile}")
        if r >= 1 and ln[0] > ln[-1] + c[0]:
            raise ValueError(f"invalid slice {ln} for {profile}")
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "lengths", ln)
        self._set_derived()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.profile, self.lengths) == (other.profile, other.lengths)
        return NotImplemented

    def __hash__(self):
        return hash((self.profile, self.lengths))

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.lengths)

    def right_ends(self) -> tuple[int, ...]:
        """Absolute column of the last box per row (the row offset if empty)."""
        return tuple(map(operator.add, self.profile.offsets(), self.lengths))

    def contains(self, other: "Slice") -> bool:
        return all(a >= b for a, b in zip(self.lengths, other.lengths))

    def __str__(self) -> str:
        return f"{self.profile} [{','.join(str(v) for v in self.lengths)}]"


_new_slice = _trusted(Slice)


def zero_slice(profile: Profile) -> Slice:
    return Slice(profile, (0,) * profile.rank)


def slice_shape(s: Slice) -> Shape:
    """Right-end shape: (e_1 - e_r, ..., e_{r-1} - e_r)."""
    e = s.right_ends()
    # The right ends of a valid slice weakly decrease down the rows.
    return _new_shape(tuple(v - e[-1] for v in e[:-1]))


def _slice_lengths(profile: Profile, shape: tuple[int, ...], weight: int
                   ) -> tuple[int, ...] | None:
    """Row lengths of the unique slice with the given shape parts and
    weight, or None when there is none; the formula of :func:`slice_with`,
    on plain tuples."""
    r = profile.rank
    if len(shape) + 1 != r:
        raise RankMismatch(f"shape rank {len(shape) + 1} vs profile rank {r}")
    # The zero shape's parts are the row offsets o_1, ..., o_{r-1}.
    zero = profile.offsets()[:-1]
    base = _delta(zero, shape)
    if weight < base or (weight - base) % r or shape and shape[0] > profile.level:
        return None
    # l_r = x, l_j = x + shape_j - o_j; weight = r*x + |shape| - |zero shape|
    x = (weight - sum(shape) + sum(zero)) // r
    return tuple([x + s - o for s, o in zip(shape, zero)]) + (x,)


@lru_cache(maxsize=65536)
def slice_with(profile: Profile, shape: Shape, weight: int) -> Slice | None:
    """The unique slice of the given shape and weight, or None.

    A slice exists exactly when the shape fits the level (the first part
    of a slice's shape is e_1 - e_r <= c_1 + ... + c_r) and ``weight`` is
    at least the distance delta from the zero shape, and congruent to it
    modulo the rank.
    """
    lengths = _slice_lengths(profile, shape.parts, weight)
    return None if lengths is None else _new_slice(profile, lengths)


def successors(s: Slice) -> list[Slice]:
    """All slices obtained from ``s`` by adding one box to some row.

    A box on row i can break only l_i <= l_{i-1} + c_i (cyclically, row 1
    compares with row r), so exactly the rows with l_i < l_{i-1} + c_i grow,
    and the grown slices are valid by construction.
    """
    ln, c = s.lengths, s.profile.parts
    return [_new_slice(s.profile, ln[:i] + (ln[i] + 1,) + ln[i + 1:])
            for i in range(len(ln)) if ln[i] < ln[i - 1] + c[i]]


class SliceChain(_Frozen):
    """A weakly decreasing chain of nonzero slices, largest first, as
    (distinct slice, multiplicity) entries."""

    __slots__ = _fields = ("profile", "entries")

    def __init__(self, profile: Profile, entries: tuple[tuple[Slice, int], ...]):
        entries = tuple(entries)
        prev = None
        for s, mult in entries:
            if mult < 1:
                raise ChainNotDecreasing("multiplicities must be >= 1")
            if s.is_zero:
                raise ChainNotDecreasing("the zero slice never joins a chain")
            if prev is not None and not (prev.contains(s) and prev != s):
                raise ChainNotDecreasing(
                    f"{prev.lengths} does not strictly contain {s.lengths}")
            prev = s
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "entries", entries)

    def expanded(self) -> Iterator[Slice]:
        for s, mult in self.entries:
            for _ in range(mult):
                yield s

    @property
    def length(self) -> int:
        return sum(mult for _, mult in self.entries)

    @property
    def weight(self) -> int:
        return sum(s.weight * mult for s, mult in self.entries)

    def distinct(self) -> list[Slice]:
        return [s for s, _ in self.entries]

    def __str__(self) -> str:
        return " >= ".join(f"{mult}x[{','.join(map(str, s.lengths))}]"
                           for s, mult in self.entries)


_new_chain = _trusted(SliceChain)


def _chain_runs(rows: Sequence[Partition]) -> list[tuple[tuple[int, ...], int]]:
    """The slice chain of the rows as (row lengths, multiplicity) runs,
    largest slice first.

    The k-th slice marks the positions holding parts >= k, so its length in
    row i is part k of row i's conjugate.  Slices k and k + 1 differ only
    when some row has a part equal to k, so there is one run per distinct
    part value v over all rows, taken in ascending order: its length in row
    i is the number of parts >= v in row i, and its multiplicity is v less
    the previous distinct value.  One sweep of all parts in ascending order
    takes each row's count down by one per part passed.
    """
    ends = [len(row.parts) for row in rows]
    runs = []
    below = 0
    for v, i in sorted([(v, i) for i, row in enumerate(rows) for v in row.parts]):
        if v != below:
            runs.append((tuple(ends), v - below))
            below = v
        ends[i] -= 1
    return runs


def _summed_rows(lengths: Sequence[tuple[int, ...]], mults: Sequence[int],
                 rank: int) -> tuple[Partition, ...]:
    """The rows of the sum of a chain of distinct slices, given by their row
    lengths (largest first) and multiplicities: row i is the conjugate of
    the length column read down the chain, each slice counted with its
    multiplicity."""
    if not lengths:
        return (_new_partition(()),) * rank
    counts = list(itertools.accumulate(mults))
    return tuple(_new_partition(_conjugate(column, counts))
                 for column in zip(*lengths))


def decompose(cp: CylindricPartition) -> SliceChain:
    """Peel a cylindric partition into its slice chain, largest slice first.

    The chain has ``max(cp)`` members (with multiplicity), weakly
    decreasing by construction, and recomposes by addition.
    """
    profile = cp.profile
    return _new_chain(profile, tuple((_new_slice(profile, lengths), mult)
                                     for lengths, mult in _chain_runs(cp.rows)))


def recompose(chain: SliceChain) -> CylindricPartition:
    """Componentwise sum of the chain; inverse of :func:`decompose`."""
    entries = chain.entries
    return _new_cylindric(chain.profile, _summed_rows(
        [s.lengths for s, _ in entries], [mult for _, mult in entries],
        chain.profile.rank))


class ShrinkMode(enum.Enum):
    AT_MOST = "at_most"
    EXACT = "exact"


def shrink(chain: SliceChain | Sequence[Slice], mode: ShrinkMode
           ) -> tuple[list[Slice], Partition]:
    """Tighten a slice chain, returning (tight slices, side partition).

    With the chain's slices l_1 >= ... >= l_n (largest first) and the empty
    slice as l_{n+1}, let ``f_j = min_i (l_j^i - l_{j+1}^i)``, the most
    boxes every row of slice j can lose and still contain slice j+1.  In EXACT
    mode f_n is one less whenever the smallest slice has the shape of zero,
    keeping a buffer column so the tight chain keeps the same number of
    nonzero slices.  Tight slice j is l_j with the suffix sum
    ``f_j + ... + f_n`` removed from every row, and the side partition
    collects f_j parts of size rank*j.  Total weight is conserved:
    |input| = |tight| + |side|.

    The chain is walked run by run, a run being a distinct slice with its
    multiplicity (a plain slice list is read as runs of length 1).  Inside
    a run every f_j is 0, so all its copies tighten to one shared slice;
    only the run's last copy, at index j, can have f_j > 0.  One pass from
    the smallest run up finds each gap, the shift and the tight slice
    together.
    """
    if isinstance(chain, SliceChain):
        profile, runs = chain.profile, chain.entries
    else:
        runs = [(s, 1) for s in chain]
        if not runs:
            raise ChainNotStrict("an explicit slice list must be non-empty")
        profile = runs[0][0].profile
    r = profile.rank
    smallest = runs[-1][0].lengths if runs else ()
    exact = mode is ShrinkMode.EXACT
    if exact and not any(smallest):
        raise ChainNotStrict("EXACT mode needs a nonzero smallest slice")
    # A slice has the shape of zero exactly when its rows are equally long,
    # since row i's right end is o_i + l_i; EXACT then measures the smallest
    # run's gap against one box per row, keeping a buffer column.
    below = (int(exact and min(smallest) == max(smallest)),) * r
    # A uniform shift of every row keeps a slice valid, and l_j^i >=
    # f_j + ... + f_n keeps it non-negative.  Below the lowest non-zero gap
    # the shift is 0 and a run's slice is its own tight slice.
    tight: list[Slice] = []
    side_parts: list[int] = []
    shift = 0
    j = sum(map(operator.itemgetter(1), runs))
    failed = None   # the highest pair seen that does not nest
    sub = operator.sub
    for s, mult in reversed(runs):
        ln = s.lengths
        gap = min(map(sub, ln, below))
        if gap:
            if gap < 0:
                failed = ln, below
            shift += gap
            side_parts += [r * j] * gap
        if shift:
            s = _new_slice(profile, tuple([v - shift for v in ln]))
        tight += [s] * mult
        j -= mult
        below = ln
    if failed is not None:
        upper, lower = failed
        raise ChainNotStrict(f"{upper} does not contain {lower}")
    tight.reverse()
    # Parts r*j are added with j decreasing.
    return tight, _new_partition(tuple(side_parts))


def expand(tight: Sequence[Slice], side: Partition, mode: ShrinkMode
           ) -> list[Slice]:
    """Inverse of :func:`shrink`: re-grow the chain from the side partition.

    Side parts, checked in order, must be multiples of the rank, at most
    rank * n; slice j grows by the number of side parts of size at least
    rank*j in every row.  Walking j down from the largest side part, a new
    slice is built only when the input slice (by identity) or that growth
    changes, so the copies of a run that :func:`shrink` tightened to one
    shared slice grow to one shared slice, unless a side part of size
    rank*j splits the run at j.  Slices that do not grow are returned.
    """
    slices = list(tight)
    parts = side.parts
    if not parts:
        return slices
    if not slices:
        raise PartTooLarge("side partition given but the tight chain is empty")
    profile = slices[0].profile
    r = profile.rank
    n = len(slices)
    mult = [0] * (n + 1)
    for p in parts:
        if p % r != 0:
            raise NotMultipleOfRank(f"side part {p} is not a multiple of {r}")
        j = p // r
        if j > n:
            raise PartTooLarge(f"side part {p} exceeds rank*length = {r * n}")
        mult[j] += 1
    del mode  # growth is identical in both modes; mode kept for symmetry
    # Slice j grows by mult[j] more than slice j + 1, and not at all past
    # the largest side part.
    top = parts[0] // r
    out: list[Slice] = []
    shift = 0
    last = None
    for j in range(top, 0, -1):
        s = slices[j - 1]
        more = mult[j]
        if more or s is not last:
            shift += more
            grown = _new_slice(profile, tuple([v + shift for v in s.lengths]))
            last = s
        out.append(grown)
    out.reverse()
    out += slices[top:]
    return out
