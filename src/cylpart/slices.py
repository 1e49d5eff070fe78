"""Slices (all-ones cylindric partitions) and their chains.

A slice is stored as its per-row lengths ``(l_1, ..., l_r)``.  Validity is
linear in the lengths: ``l_{i+1} <= l_i + c_{i+1}`` for i < r and
``l_1 <= l_r + c_1``.  Every cylindric partition decomposes into a weakly
decreasing chain of slices (peel the positions holding the current maximum,
one unit at a time), and componentwise addition recomposes it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .core import (CylindricPartition, CylpartError, Partition, Profile,
                   RankMismatch, Shape, shape_of_zero)


class ChainNotDecreasing(CylpartError):
    pass


class ChainNotStrict(CylpartError):
    pass


class PartTooLarge(CylpartError):
    pass


class NotMultipleOfRank(CylpartError):
    pass


@dataclass(frozen=True)
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


def zero_slice(profile: Profile) -> Slice:
    return Slice(profile, (0,) * profile.rank)


def slice_shape(s: Slice) -> Shape:
    """Right-end shape: (e_1 - e_r, ..., e_{r-1} - e_r)."""
    e = s.right_ends()
    return Shape(tuple(e[j] - e[-1] for j in range(len(e) - 1)))


def min_slice_weight(profile: Profile, shape: Shape) -> int:
    """Smallest weight of a slice with the given shape, 0 for the zero shape.

    Equals the tight-packing distance ``delta`` from the profile's zero
    shape to ``shape``.
    """
    z = shape_of_zero(profile)
    if shape.rank != profile.rank:
        raise RankMismatch(f"shape rank {shape.rank} vs profile rank {profile.rank}")
    h = max([0] + [z.parts[j] - shape.parts[j] for j in range(len(z.parts))])
    return profile.rank * h + shape.weight - z.weight


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
    x, rem = divmod(weight - shape.weight + z.weight, r)
    assert rem == 0
    offs = profile.offsets()
    lengths = tuple(x + shape.parts[j] - offs[j] for j in range(r - 1)) + (x,)
    return Slice(profile, lengths)


def successors(s: Slice) -> list[Slice]:
    """All slices obtained from ``s`` by adding one box to some row."""
    out = []
    for i in range(s.profile.rank):
        try:
            out.append(s.bump(i))
        except ValueError:
            pass
    return out


@dataclass(frozen=True)
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

    @classmethod
    def from_slices(cls, profile: Profile, slices: Iterable[Slice]) -> "SliceChain":
        entries: list[tuple[Slice, int]] = []
        for s in slices:
            if entries and entries[-1][0] == s:
                entries[-1] = (s, entries[-1][1] + 1)
            else:
                entries.append((s, 1))
        return cls(profile, tuple(entries))

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


def decompose(cp: CylindricPartition) -> SliceChain:
    """Peel a cylindric partition into its slice chain, largest slice first.

    The k-th slice marks the positions holding parts >= k, so the chain has
    ``max(cp)`` members (with multiplicity) and recomposes by addition.
    """
    m = cp.max_part
    slices = []
    for k in range(1, m + 1):
        lengths = tuple(sum(1 for p in row.parts if p >= k) for row in cp.rows)
        slices.append(Slice(cp.profile, lengths))
    return SliceChain.from_slices(cp.profile, slices)


def recompose(chain: SliceChain) -> CylindricPartition:
    """Componentwise sum of the chain; inverse of :func:`decompose`."""
    r = chain.profile.rank
    rows = []
    for i in range(r):
        # Row i is the conjugate of the length column read down the chain.
        lengths = [s.lengths[i] for s in chain.expanded()]
        top = max(lengths, default=0)
        row = tuple(sum(1 for v in lengths if v >= j) for j in range(1, top + 1))
        rows.append(Partition(row))
    return CylindricPartition(chain.profile, tuple(rows))


class ShrinkMode(enum.Enum):
    AT_MOST = "at_most"
    EXACT = "exact"


def _as_slices(chain: SliceChain | Sequence[Slice]) -> tuple[Profile, list[Slice]]:
    if isinstance(chain, SliceChain):
        return chain.profile, list(chain.expanded())
    slices = list(chain)
    if not slices:
        raise ChainNotStrict("an explicit slice list must be non-empty")
    return slices[0].profile, slices


def shrink(chain: SliceChain | Sequence[Slice], mode: ShrinkMode
           ) -> tuple[list[Slice], Partition]:
    """Tighten a slice chain, returning (tight slices, side partition).

    Walking j = 1..n over the chain (largest slice first, the empty slice
    appended as the (n+1)-st member), remove
    ``f_j = min_i (l_j^i - l_{j+1}^i)`` boxes from the right end of every
    row of slices 1..j; the side partition collects f_j parts of size
    rank*j.  In EXACT mode the last step keeps one buffer column whenever
    the smallest slice has the shape of zero, so the tight chain keeps the
    same number of nonzero slices.  Total weight is conserved:
    |input| = |tight| + |side|.
    """
    profile, slices = _as_slices(chain)
    r = profile.rank
    n = len(slices)
    for a, b in zip(slices, slices[1:]):
        if not a.contains(b):
            raise ChainNotStrict(f"{a.lengths} does not contain {b.lengths}")
    if mode is ShrinkMode.EXACT and (n == 0 or slices[-1].is_zero):
        raise ChainNotStrict("EXACT mode needs a nonzero smallest slice")

    work = [list(s.lengths) for s in slices] + [[0] * r]
    side_parts: list[int] = []
    for j in range(1, n + 1):
        f = min(work[j - 1][i] - work[j][i] for i in range(r))
        if j == n and mode is ShrinkMode.EXACT and \
                slice_shape(slices[-1]) == shape_of_zero(profile):
            f -= 1
        for jj in range(j):
            for i in range(r):
                work[jj][i] -= f
        side_parts.extend([r * j] * f)
    tight = [Slice(profile, tuple(w)) for w in work[:n]]
    side = Partition.from_multiset(side_parts)
    return tight, side


def expand(tight: Sequence[Slice], side: Partition, mode: ShrinkMode
           ) -> list[Slice]:
    """Inverse of :func:`shrink`: re-grow the chain from the side partition.

    Side parts must be multiples of the rank, at most rank * n.
    """
    slices = list(tight)
    if not slices:
        if len(side) == 0:
            return []
        raise PartTooLarge("side partition given but the tight chain is empty")
    profile = slices[0].profile
    r = profile.rank
    n = len(slices)
    mult: dict[int, int] = {}
    for p in side.parts:
        if p % r != 0:
            raise NotMultipleOfRank(f"side part {p} is not a multiple of {r}")
        j = p // r
        if j > n:
            raise PartTooLarge(f"side part {p} exceeds rank*length = {r * n}")
        mult[j] = mult.get(j, 0) + 1
    work = [list(s.lengths) for s in slices]
    for j, f in mult.items():
        for jj in range(j):
            for i in range(r):
                work[jj][i] += f
    del mode  # growth is identical in both modes; mode kept for symmetry
    return [Slice(profile, tuple(w)) for w in work]
