"""Slices (all-ones cylindric partitions) and their chains.

A slice is stored as its per-row lengths ``(l_1, ..., l_r)``.  Validity is
linear in the lengths: ``l_{i+1} <= l_i + c_{i+1}`` for i < r and
``l_1 <= l_r + c_1``.  Every cylindric partition decomposes into a weakly
decreasing chain of slices (peel the positions holding the current maximum,
one unit at a time), and componentwise addition recomposes it.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .core import (CylindricPartition, CylpartError, Partition, Profile,
                   RankMismatch, Shape, _conjugate, _delta, _trusted,
                   shape_of_zero)

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


@dataclass(frozen=True, slots=True)
class Slice:
    profile: Profile
    lengths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lengths", tuple(self.lengths))
        ln = self.lengths
        c = self.profile.parts
        r = self.profile.rank
        if len(ln) != r:
            raise ValueError(f"slice needs {r} lengths, got {len(ln)}")
        if any(v < 0 for v in ln):
            raise ValueError(f"negative slice length: {ln}")
        for i in range(r - 1):
            if ln[i + 1] > ln[i] + c[i + 1]:
                raise ValueError(f"invalid slice {ln} for {self.profile}")
        if r >= 1 and ln[0] > ln[-1] + c[0]:
            raise ValueError(f"invalid slice {ln} for {self.profile}")

    @property
    def weight(self) -> int:
        return sum(self.lengths)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.lengths)

    def right_ends(self) -> tuple[int, ...]:
        """Absolute column of the last box per row (the row offset if empty)."""
        return tuple(o + l for o, l in zip(self.profile.offsets(), self.lengths))

    def contains(self, other: "Slice") -> bool:
        return all(a >= b for a, b in zip(self.lengths, other.lengths))

    def bump(self, row: int) -> "Slice":
        """Add one box at the end of the given 0-based row."""
        ln = list(self.lengths)
        ln[row] += 1
        return Slice(self.profile, tuple(ln))

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


def min_slice_weight(profile: Profile, shape: Shape) -> int:
    """Smallest weight of a slice with the given shape, 0 for the zero shape.

    This is the tight-packing distance ``delta`` from the profile's zero
    shape to ``shape``, computed by the one formula in :mod:`cylpart.core`.
    """
    if shape.rank != profile.rank:
        raise RankMismatch(f"shape rank {shape.rank} vs profile rank {profile.rank}")
    return _delta(profile.offsets()[:-1], shape.parts)


@lru_cache(maxsize=65536)
def slice_with(profile: Profile, shape: Shape, weight: int) -> Slice | None:
    """The unique slice of the given shape and weight, or None.

    A slice exists exactly when ``weight >= min_slice_weight`` and
    ``weight`` is congruent to it modulo the rank.
    """
    r = profile.rank
    z = shape_of_zero(profile)
    base = min_slice_weight(profile, shape)
    if weight < base or (weight - base) % r != 0:
        return None
    # l_r = x, l_j = x + shape_j - o_j; weight = r*x + |shape| - |zero shape|
    x = (weight - shape.weight + z.weight) // r
    offs = profile.offsets()
    lengths = tuple(x + shape.parts[j] - offs[j] for j in range(r - 1)) + (x,)
    return _new_slice(profile, lengths)


def successors(s: Slice) -> list[Slice]:
    """All slices obtained from ``s`` by adding one box to some row.

    A box on row i can break only l_i <= l_{i-1} + c_i (cyclically, row 1
    compares with row r), so exactly the rows with l_i < l_{i-1} + c_i grow,
    and the grown slices are valid by construction.
    """
    ln, c = s.lengths, s.profile.parts
    return [_new_slice(s.profile, ln[:i] + (ln[i] + 1,) + ln[i + 1:])
            for i in range(len(ln)) if ln[i] < ln[i - 1] + c[i]]


@dataclass(frozen=True, slots=True)
class SliceChain:
    """A weakly decreasing chain of nonzero slices, largest first."""

    profile: Profile
    entries: tuple[tuple[Slice, int], ...]  # (distinct slice, multiplicity)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        prev = None
        for s, mult in self.entries:
            if mult < 1:
                raise ChainNotDecreasing("multiplicities must be >= 1")
            if s.is_zero:
                raise ChainNotDecreasing("the zero slice never joins a chain")
            if prev is not None and not (prev.contains(s) and prev != s):
                raise ChainNotDecreasing(
                    f"{prev.lengths} does not strictly contain {s.lengths}")
            prev = s

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


def decompose(cp: CylindricPartition) -> SliceChain:
    """Peel a cylindric partition into its slice chain, largest slice first.

    The k-th slice marks the positions holding parts >= k, so its length in
    row i is part k of row i's conjugate.  The chain has ``max(cp)`` members
    (with multiplicity), weakly decreasing by construction, and recomposes
    by addition.
    """
    profile = cp.profile
    columns = [row.conjugate().parts for row in cp.rows]
    entries = tuple(
        (_new_slice(profile, lengths), len(list(run)))
        for lengths, run in itertools.groupby(
            itertools.zip_longest(*columns, fillvalue=0)))
    return _new_chain(profile, entries)


def recompose(chain: SliceChain) -> CylindricPartition:
    """Componentwise sum of the chain; inverse of :func:`decompose`.

    Row i is the conjugate of the length column read down the chain, each
    distinct slice counted with its multiplicity.
    """
    rows = tuple(
        _new_partition(_conjugate((s.lengths[i], mult)
                                  for s, mult in chain.entries))
        for i in range(chain.profile.rank))
    return _new_cylindric(chain.profile, rows)


class ShrinkMode(enum.Enum):
    AT_MOST = "at_most"
    EXACT = "exact"


def _runs(chain: SliceChain | Sequence[Slice]
          ) -> tuple[Profile, Sequence[tuple[Slice, int]]]:
    """The chain as runs (slice, multiplicity); a plain slice list is read
    as runs of length 1."""
    if isinstance(chain, SliceChain):
        return chain.profile, chain.entries
    slices = list(chain)
    if not slices:
        raise ChainNotStrict("an explicit slice list must be non-empty")
    return slices[0].profile, [(s, 1) for s in slices]


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
    only the run's last copy, at index j, can have f_j > 0.
    """
    profile, runs = _runs(chain)
    r = profile.rank
    if mode is ShrinkMode.EXACT and (not runs or runs[-1][0].is_zero):
        raise ChainNotStrict("EXACT mode needs a nonzero smallest slice")

    lengths = [s.lengths for s, _ in runs] + [(0,) * r]
    gaps = []   # f_j at the last copy of each run
    for a, b in zip(lengths, lengths[1:]):
        gap = min(map(operator.sub, a, b))
        if gap < 0:
            raise ChainNotStrict(f"{a} does not contain {b}")
        gaps.append(gap)
    if mode is ShrinkMode.EXACT and \
            slice_shape(runs[-1][0]) == shape_of_zero(profile):
        gaps[-1] -= 1
    # A uniform shift of every row keeps a slice valid, and l_j^i >=
    # f_j + ... + f_n keeps it non-negative.
    tight: list[Slice] = []
    side_parts: list[int] = []
    shift = 0
    j = sum(mult for _, mult in runs)
    for (s, mult), gap in zip(reversed(runs), reversed(gaps)):
        shift += gap
        side_parts.extend([r * j] * gap)
        tight.extend([_new_slice(s.profile, tuple(
            v - shift for v in s.lengths))] * mult)
        j -= mult
    tight.reverse()
    # Parts r*j are added with j decreasing.
    return tight, _new_partition(tuple(side_parts))


def expand(tight: Sequence[Slice], side: Partition, mode: ShrinkMode
           ) -> list[Slice]:
    """Inverse of :func:`shrink`: re-grow the chain from the side partition.

    Side parts must be multiples of the rank, at most rank * n; slice j
    grows by the number of side parts of size at least rank*j in every row.
    Walking j from n down, a new slice is built only when the input slice
    (by identity) or that growth changes, so the copies of a run that
    :func:`shrink` tightened to one shared slice grow to one shared slice,
    unless a side part of size rank*j splits the run at j.
    """
    slices = list(tight)
    if not slices:
        if len(side) == 0:
            return []
        raise PartTooLarge("side partition given but the tight chain is empty")
    profile = slices[0].profile
    r = profile.rank
    n = len(slices)
    mult = [0] * (n + 1)
    for p in side.parts:
        if p % r != 0:
            raise NotMultipleOfRank(f"side part {p} is not a multiple of {r}")
        j = p // r
        if j > n:
            raise PartTooLarge(f"side part {p} exceeds rank*length = {r * n}")
        mult[j] += 1
    del mode  # growth is identical in both modes; mode kept for symmetry
    out: list[Slice] = []
    shift = 0
    last = grown = None
    for j in range(n, 0, -1):
        s = slices[j - 1]
        if mult[j] or s is not last:
            shift += mult[j]
            grown = _new_slice(s.profile, tuple(v + shift for v in s.lengths))
            last = s
        out.append(grown)
    out.reverse()
    return out
