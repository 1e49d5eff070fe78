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
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


class CylpartError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(CylpartError, ValueError):
    """A malformed text or a value that breaks its type's rules."""


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


class FrozenInstanceError(CylpartError, AttributeError):
    """An attempt to set or delete an attribute of a frozen value."""


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass names the fields that make up its value, in constructor
    order, in ``_fields``, and declares them (and any attribute it caches)
    in ``__slots__``.  Its ``__init__`` validates the arguments and sets
    each slot with ``object.__setattr__``.  Equality and hashing compare
    the fields, ``repr`` lists them as ``Name(field=value, ...)``, and a
    copy or pickle calls the constructor again.

    A slot whose value is a function of one field, stored so that readers
    do not recompute it, is listed in ``_derived`` as (slot, field,
    function); the constructor and :func:`_trusted`'s builder both fill it.

    The classes hashed and compared in inner loops (``Partition``,
    ``Profile``, ``Shape``, ``CylindricPartition`` and ``Slice``) spell
    out ``__eq__`` and ``__hash__`` with direct slot reads, which are
    faster than the generic by-name reads; they compare and hash the same
    values.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _derived: tuple[tuple[str, str, object], ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The field's value, or the tuple of the values of several fields:
        # what equality and hashing compare.
        cls._key = operator.attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def _set_derived(self):
        """Fill the ``_derived`` slots from the fields already set."""
        for slot, field, function in self._derived:
            object.__setattr__(self, slot, function(getattr(self, field)))


def _trusted(cls):
    """A positional builder for the frozen value class ``cls``: it takes
    the values of ``cls._fields`` in order and returns an instance built
    without running ``__init__``, its ``_derived`` slot filled too.

    Make each builder once, at module level, in the module that defines
    ``cls``; other modules import it from there.  Only for values the package
    builds valid by construction, with every field already of its final
    type (tuples, not lists); public constructors always validate.  A
    class has one or two fields, and a two-field class at most one
    derived slot.
    """
    new = object.__new__
    # Each slot's descriptor sets the value past the frozen
    # ``__setattr__``, with no per-instance ``__dict__`` to fill.
    slots = vars(cls)
    setters = [slots[name].__set__ for name in cls._fields]
    derived = [(slots[slot].__set__, cls._fields.index(field), function)
               for slot, field, function in cls._derived]
    if len(setters) == 1 and not derived:
        (set_a,) = setters

        def build(a):
            obj = new(cls)
            set_a(obj, a)
            return obj
    elif len(setters) == 2 and not derived:
        set_a, set_b = setters

        def build(a, b):
            obj = new(cls)
            set_a(obj, a)
            set_b(obj, b)
            return obj
    elif len(setters) == 2 and len(derived) == 1:
        set_a, set_b = setters
        ((set_c, index, derive),) = derived

        def build(a, b):
            obj = new(cls)
            set_a(obj, a)
            set_b(obj, b)
            set_c(obj, derive(b if index else a))
            return obj
    else:
        raise TypeError(f"no trusted builder for {cls.__name__}: "
                        f"{len(setters)} fields, {len(derived)} derived slots")
    return build


def _conjugate(parts: Sequence[int], counts: Sequence[int] | None = None
               ) -> tuple[int, ...]:
    """Parts of the conjugate of the partition with the weakly decreasing
    ``parts`` (zero parts allowed), largest first.  ``counts[i]`` is how
    many parts the partition has from ``parts[0]`` to ``parts[i]``, with
    multiplicity; without ``counts`` each part occurs once.  One pass from
    the small end: part j of the result is the number of parts >= j.
    """
    if counts is None:
        counts = range(1, len(parts) + 1)
    out: list[int] = []
    below = 0
    for p, count in zip(reversed(parts), reversed(counts)):
        if p > below:
            out += [count] * (p - below)
            below = p
    return tuple(out)


def _check_parts(parts: tuple[int, ...]) -> None:
    if parts and min(parts) < 1:
        raise InvalidInput(f"partition parts must be positive: {parts}")
    if any(map(operator.lt, parts, parts[1:])):
        raise InvalidInput(f"partition parts must be weakly decreasing: {parts}")


class Partition(_Frozen):
    """An integer partition: weakly decreasing positive parts."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        parts = tuple(parts)
        _check_parts(parts)
        object.__setattr__(self, "parts", parts)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    @classmethod
    def of(cls, *parts: int) -> "Partition":
        return cls(tuple(parts))

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

    def __str__(self) -> str:
        return ",".join(map(str, self.parts))


_new_partition = _trusted(Partition)


@lru_cache(maxsize=1024)
def _offsets(parts: tuple[int, ...]) -> tuple[int, ...]:
    """o_i = c_{i+1} + ... + c_r; one tuple shared by equal profiles."""
    return tuple(itertools.accumulate(reversed(parts[1:]), initial=0))[::-1]


class Profile(_Frozen):
    """A composition (c_1, ..., c_r) with all c_i >= 0 and positive sum."""

    __slots__ = ("parts", "rank", "level", "_offsets")
    _fields = ("parts",)
    # Computed once here, as every kernel reads them.  ``rank`` is the
    # number of parts and ``level`` their sum.
    _derived = (("rank", "parts", len), ("level", "parts", sum),
                ("_offsets", "parts", _offsets))

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(parts)
        if len(parts) < 1:
            raise InvalidInput("profile needs at least one part")
        if any(p < 0 for p in parts):
            raise InvalidInput(f"profile parts must be non-negative: {parts}")
        if sum(parts) < 1:
            raise InvalidInput("profile level must be positive")
        object.__setattr__(self, "parts", parts)
        self._set_derived()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    @classmethod
    def of(cls, *parts: int) -> "Profile":
        return cls(tuple(parts))

    def offsets(self) -> tuple[int, ...]:
        """Left-end offset of each row: o_i = c_{i+1} + ... + c_r, o_r = 0."""
        return self._offsets

    def __str__(self) -> str:
        return "c=(" + ",".join(map(str, self.parts)) + ")"


class Shape(_Frozen):
    """Right-end shape of a slice: weakly decreasing, length rank-1.

    Shapes are always zero-padded to exactly ``rank - 1`` entries so the
    rank stays recoverable from the value itself.
    """

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()):
        parts = tuple(parts)
        if any(p < 0 for p in parts):
            raise InvalidInput(f"shape parts must be non-negative: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise InvalidInput(f"shape parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

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
        return "(" + ",".join(map(str, self.parts)) + ")"


_new_shape = _trusted(Shape)


def all_shapes(rank: int, level: int) -> list[Shape]:
    """Every shape of the given rank with parts at most ``level``.

    There are binomial(level + rank - 1, rank - 1) of them, listed in
    ascending lexicographic order.
    """
    if rank < 1 or level < 1:
        raise InvalidInput("rank and level must be positive")
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


class CylindricPartition(_Frozen):
    """A cylindric partition: profile plus one row per rank.

    Construction checks the rows with :func:`check_rows` and raises its
    errors.
    """

    __slots__ = _fields = ("profile", "rows")

    def __init__(self, profile: Profile, rows: tuple[Partition, ...]):
        rows = tuple(rows)
        check_rows([row.parts for row in rows], profile)
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "rows", rows)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.profile, self.rows) == (other.profile, other.rows)
        return NotImplemented

    def __hash__(self):
        return hash((self.profile, self.rows))

    @property
    def weight(self) -> int:
        return sum(row.weight for row in self.rows)

    @property
    def max_part(self) -> int:
        return max((row.part(1) for row in self.rows), default=0)

    def __add__(self, other: "CylindricPartition") -> "CylindricPartition":
        if self.profile != other.profile:
            raise RankMismatch("cannot add cylindric partitions with different profiles")
        rows = []
        for a, b in zip(self.rows, other.rows):
            n = max(len(a), len(b))
            rows.append(Partition(tuple(a.part(j) + b.part(j) for j in range(1, n + 1))))
        # Adding two sets of cylindric inequalities gives the sum's.
        return _new_cylindric(self.profile, tuple(rows))

    def to_text(self) -> str:
        return f"{self.profile} {'|'.join(map(str, self.rows))}"

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

    Raises :class:`RowCountMismatch`, :class:`InvalidInput` for a row that is not a
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


def _int(text: str) -> int:
    """``int(text)``, raising :class:`InvalidInput` with ``int``'s message."""
    try:
        return int(text)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None


def _int_fields(text: str) -> tuple[int, ...]:
    """The integers of a comma-separated list; a blank text has none.

    An empty field (``3,,1`` or ``1,2,0,``) or a field that is not an
    integer raises :class:`InvalidInput`.
    """
    if not text.strip():
        return ()
    fields = text.split(",")
    if not all(field.strip() for field in fields):
        raise InvalidInput(f"empty field in {text!r}")
    return tuple(map(_int, fields))


def _unwrap(text: str) -> str:
    """``text`` without one pair of enclosing parentheses, if it has them.

    Any other parenthesis (unbalanced or doubled) raises :class:`InvalidInput`.
    """
    body = text[1:-1] if text[:1] == "(" and text[-1:] == ")" else text
    if "(" in body or ")" in body:
        raise InvalidInput(f"unbalanced or doubled parentheses in {text!r}")
    return body


def parse_profile(text: str) -> Profile:
    """Parse ``c=(1,2,0)`` or plain ``1,2,0``."""
    body = text.strip()
    if body.startswith("c="):
        body = body[2:].strip()
    return Profile(_int_fields(_unwrap(body)))


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
        raise InvalidInput("no profile given and none present in the text form")
    row_texts = body.split("|") if body else []
    if body == "":
        row_texts = [""] * profile.rank
    rows = tuple(Partition(_int_fields(rt)) for rt in row_texts)
    return validate(rows, profile)
