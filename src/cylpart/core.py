"""Profiles, shapes, partitions, and cylindric partitions.

Conventions used throughout the package:

* A *profile* is a composition ``c = (c_1, ..., c_r)`` of non-negative
  integers with positive sum.  Its length ``r`` is the rank, its sum ``l``
  the level.
* A *cylindric partition* with profile ``c`` is a tuple of ``r`` ordinary
  partitions ``rows = (row_1, ..., row_r)`` such that
  ``row_i[j] >= row_{i+1}[j + c_{i+1}]`` for every ``i < r`` and ``j``, and
  cyclically ``row_r[j] >= row_1[j + c_1]``, reading missing entries as 0.
* Row ``i`` is drawn with its left end shifted by the offset
  ``o_i = c_{i+1} + ... + c_r`` (so ``o_r = 0``); box ``j`` of row ``i``
  occupies absolute column ``o_i + j``.  The right ends
  ``e_i = o_i + len(row_i)`` are weakly decreasing down the rows, and the
  *shape* ``(e_1 - e_r, ..., e_{r-1} - e_r)`` is a partition with at most
  ``r - 1`` parts, each at most the level.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


class CylpartError(Exception):
    """Base class for all errors raised by this package."""


class RowCountMismatch(CylpartError):
    pass


class ViolatedInequality(CylpartError):
    """A cylindric inequality fails; carries the 1-based (row, column)."""

    def __init__(self, i: int, j: int):
        self.i = i
        self.j = j
        super().__init__(f"row {i}, column {j}: cylindric inequality violated")


class RankMismatch(CylpartError):
    pass


class LevelTooSmall(CylpartError):
    pass


def _trusted(cls):
    """A positional builder for the slotted frozen dataclass ``cls``: it
    takes the field values in field order and returns an instance built
    without running ``__post_init__``.

    Make each builder once, at module level.  Only for values the package
    builds valid by construction, with every field already of its final
    type (tuples, not lists); public constructors always validate.
    """
    new = object.__new__
    # Each field's slot descriptor sets the value past the frozen
    # ``__setattr__``, with no per-instance ``__dict__`` to fill.
    setters = [vars(cls)[f.name].__set__ for f in fields(cls)]
    if len(setters) == 1:
        (set_a,) = setters

        def build(a):
            obj = new(cls)
            set_a(obj, a)
            return obj
    else:
        set_a, set_b = setters

        def build(a, b):
            obj = new(cls)
            set_a(obj, a)
            set_b(obj, b)
            return obj
    return build


def _conjugate(column: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Parts of the conjugate of the partition that repeats part ``p``
    ``m`` times for each ``(p, m)`` in ``column``, read largest part first
    (zero parts allowed).  One pass: part ``j`` of the result is the total
    multiplicity of the parts ``>= j``."""
    out: list[int] = []
    count = 0
    for (p, m), (below, _) in itertools.pairwise([*column, (0, 0)]):
        count += m
        out.extend([count] * (p - below))
    out.reverse()
    return tuple(out)


def _check_parts(parts: tuple[int, ...]) -> None:
    if parts and min(parts) < 1:
        raise ValueError(f"partition parts must be positive: {parts}")
    if any(map(operator.lt, parts, parts[1:])):
        raise ValueError(f"partition parts must be weakly decreasing: {parts}")


@dataclass(frozen=True, slots=True)
class Partition:
    """An integer partition: weakly decreasing positive parts."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        _check_parts(parts)

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(parts))

    @classmethod
    def from_multiset(cls, values: Iterable[int]) -> "Partition":
        return cls(tuple(sorted(values, reverse=True)))

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def part(self, j: int) -> int:
        """1-based part access, 0 beyond the end."""
        return self.parts[j - 1] if 1 <= j <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        return _new_partition(_conjugate((p, 1) for p in self.parts))

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


_new_partition = _trusted(Partition)


@lru_cache(maxsize=1024)
def _offsets(parts: tuple[int, ...]) -> tuple[int, ...]:
    """o_i = c_{i+1} + ... + c_r; one tuple shared by equal profiles."""
    return tuple(itertools.accumulate(reversed(parts[1:]), initial=0))[::-1]


@dataclass(frozen=True)
class Profile:
    """A composition (c_1, ..., c_r) with all c_i >= 0 and positive sum."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if len(parts) < 1:
            raise ValueError("profile needs at least one part")
        if any(p < 0 for p in parts):
            raise ValueError(f"profile parts must be non-negative: {parts}")
        if sum(parts) < 1:
            raise ValueError("profile level must be positive")
        # Computed once here, as every slice of the profile reads it.
        object.__setattr__(self, "_offsets", _offsets(parts))

    @classmethod
    def of(cls, *parts: int) -> "Profile":
        return cls(tuple(parts))

    @property
    def rank(self) -> int:
        return len(self.parts)

    @property
    def level(self) -> int:
        return sum(self.parts)

    def offsets(self) -> tuple[int, ...]:
        """Left-end offset of each row: o_i = c_{i+1} + ... + c_r, o_r = 0."""
        return self._offsets

    def __str__(self) -> str:
        return "c=(" + ",".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True, slots=True)
class Shape:
    """Right-end shape of a slice: weakly decreasing, length rank-1.

    Shapes are always zero-padded to exactly ``rank - 1`` entries so the
    rank stays recoverable from the value itself.
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(self.parts)
        object.__setattr__(self, "parts", parts)
        if any(p < 0 for p in parts):
            raise ValueError(f"shape parts must be non-negative: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"shape parts must be weakly decreasing: {parts}")

    @classmethod
    def of(cls, *parts: int) -> "Shape":
        return cls(tuple(parts))

    @property
    def rank(self) -> int:
        return len(self.parts) + 1

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


_new_shape = _trusted(Shape)


def all_shapes(rank: int, level: int) -> list[Shape]:
    """Every shape of the given rank with parts at most ``level``.

    There are binomial(level + rank - 1, rank - 1) of them, listed in
    ascending lexicographic order.
    """
    if rank < 1 or level < 1:
        raise ValueError("rank and level must be positive")
    out = []
    for combo in itertools.combinations_with_replacement(range(level, -1, -1), rank - 1):
        out.append(Shape(combo))
    return sorted(out, key=lambda s: s.parts)


def shape_of_zero(profile: Profile) -> Shape:
    """Shape of the empty cylindric partition: (c_r+...+c_2, ..., c_r).

    These suffix sums are the row offsets o_1, ..., o_{r-1}, non-negative
    and weakly decreasing.
    """
    return _new_shape(profile.offsets()[:-1])


def shape_to_profile(shape: Shape, level: int) -> Profile:
    """The profile whose empty partition has the given shape.

    Inverse of :func:`shape_of_zero` at a fixed level.
    """
    s = shape.parts
    if s and s[0] > level:
        raise LevelTooSmall(f"shape {shape} needs level >= {s[0]}, got {level}")
    r = shape.rank
    c = [0] * r
    c[0] = level - (s[0] if s else 0)
    for j in range(1, r - 1):
        c[j] = s[j - 1] - s[j]
    if r >= 2:
        c[r - 1] = s[r - 2]
    return Profile(tuple(c))


def _delta(sigma: tuple[int, ...], tau: tuple[int, ...]) -> int:
    """The tight-packing distance from shape parts ``sigma`` to ``tau``
    (both of length rank - 1): r * max(0, max_j (sigma_j - tau_j))
    + |tau| - |sigma|."""
    worst = max([0, *map(operator.sub, sigma, tau)])
    return (len(sigma) + 1) * worst + sum(tau) - sum(sigma)


def _space_columns(outer: tuple[int, ...], inner: tuple[int, ...]
                   ) -> tuple[int, int] | None:
    """(leftmost, rightmost) absolute columns of the skew space inner->outer,
    both slices given by their right ends, or None when the space is empty."""
    lo = hi = None
    for o, i in zip(outer, inner):
        if o > i:
            if lo is None or i < lo:
                lo = i
            if hi is None or o > hi:
                hi = o
    return None if lo is None else (lo + 1, hi)


def delta(c: Profile, d: Profile) -> int:
    """Minimal weight of a slice whose shape is the zero-shape of ``d``,
    packed tightly against the zero-shape of ``c``.

    With sigma and tau the zero shapes of c and d (rank r), this is

        r * max(0, max_j (sigma_j - tau_j)) + |tau| - |sigma|.

    Not symmetric; delta(c, c) = 0.  The two profiles may have different
    levels (only their zero-shapes matter).
    """
    if c.rank != d.rank:
        raise RankMismatch(f"ranks differ: {c.rank} vs {d.rank}")
    return _delta(c.offsets()[:-1], d.offsets()[:-1])


def delta_shapes(sigma: Shape, tau: Shape, level: int) -> int:
    """Shape overload of :func:`delta`: the same formula on the shapes
    themselves, which must both fit the given level."""
    if sigma.rank != tau.rank:
        raise RankMismatch(f"ranks differ: {sigma.rank} vs {tau.rank}")
    for shape in (sigma, tau):
        if shape.parts and shape.parts[0] > level:
            raise LevelTooSmall(
                f"shape {shape} needs level >= {shape.parts[0]}, got {level}")
    return _delta(sigma.parts, tau.parts)


@dataclass(frozen=True, slots=True)
class CylindricPartition:
    """A cylindric partition: profile plus one row per rank.

    Construction checks the rows with :func:`check_rows` and raises its
    errors.
    """

    profile: Profile
    rows: tuple[Partition, ...]

    def __post_init__(self):
        rows = tuple(self.rows)
        object.__setattr__(self, "rows", rows)
        check_rows([row.parts for row in rows], self.profile)

    @property
    def weight(self) -> int:
        return sum(row.weight for row in self.rows)

    @property
    def max_part(self) -> int:
        return max((row.part(1) for row in self.rows), default=0)

    @property
    def is_empty(self) -> bool:
        return all(len(row) == 0 for row in self.rows)

    def __add__(self, other: "CylindricPartition") -> "CylindricPartition":
        if self.profile != other.profile:
            raise RankMismatch("cannot add cylindric partitions with different profiles")
        rows = []
        for a, b in zip(self.rows, other.rows):
            n = max(len(a), len(b))
            rows.append(Partition(tuple(a.part(j) + b.part(j) for j in range(1, n + 1))))
        # Adding two sets of cylindric inequalities gives the sum's.
        return _new_cylindric(self.profile, tuple(rows))

    def to_text(self, with_profile: bool = True) -> str:
        body = "|".join(str(row) for row in self.rows)
        return f"{self.profile} {body}" if with_profile else body

    def to_json(self) -> dict:
        return {
            "profile": list(self.profile.parts),
            "rows": [list(row.parts) for row in self.rows],
            "weight": str(self.weight),
            "max_part": self.max_part,
        }

    def __str__(self) -> str:
        return self.to_text()


_new_cylindric = _trusted(CylindricPartition)


def check_rows(rows: Sequence[tuple[int, ...]], profile: Profile) -> None:
    """Check rows of plain part tuples against the profile; return None when
    valid.

    Raises :class:`RowCountMismatch`, ``ValueError`` for a row that is not a
    partition (as :class:`Partition` does), or :class:`ViolatedInequality`
    naming the first failing inequality as 1-based (row, column).
    """
    r = profile.rank
    if len(rows) != r:
        raise RowCountMismatch(f"profile has rank {r} but {len(rows)} rows given")
    for row in rows:
        _check_parts(row)
    for i in range(r):
        upper = rows[i]
        k = (i + 1) % r
        # Row i must dominate row i+1 (cyclically) with its first c_k parts
        # dropped; entries past the end of ``upper`` read as 0.
        tail = rows[k][profile.parts[k]:]
        if len(tail) > len(upper) or any(map(operator.lt, upper, tail)):
            j = next((j for j, (a, b) in enumerate(zip(upper, tail)) if a < b),
                     len(upper))
            raise ViolatedInequality(i + 1, j + 1)


def validate(rows: Iterable[Partition], profile: Profile) -> CylindricPartition:
    """Check the cyclic inequalities and return the validated value.

    Raises the errors of :func:`check_rows`.
    """
    return CylindricPartition(profile, tuple(rows))


def empty_partition(profile: Profile) -> CylindricPartition:
    return CylindricPartition(profile, tuple(Partition() for _ in range(profile.rank)))


def parse_profile(text: str) -> Profile:
    """Parse ``c=(1,2,0)`` or plain ``1,2,0``."""
    body = text.strip()
    if body.startswith("c="):
        body = body[2:].strip()
    body = body.strip("()")
    return Profile(tuple(int(p) for p in body.split(",") if p.strip() != ""))


def parse_cylindric(text: str, profile: Profile | None = None) -> CylindricPartition:
    """Parse the canonical text form, e.g. ``c=(1,2,0) 10,5,4,1|12,8,5,3|7,6,4,2``.

    The ``c=(...)`` prefix may be omitted when a profile is supplied.
    """
    text = text.strip()
    if text.startswith("c="):
        head, _, body = text.partition(" ")
        profile = parse_profile(head)
    else:
        body = text
    if profile is None:
        raise ValueError("no profile given and none present in the text form")
    row_texts = body.split("|") if body else []
    if body == "":
        row_texts = [""] * profile.rank
    rows = tuple(
        Partition(tuple(int(p) for p in rt.split(",") if p.strip() != ""))
        for rt in row_texts
    )
    return validate(rows, profile)
