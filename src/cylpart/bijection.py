"""The pivot bijection between cylindric partitions and pairs (mu, beta).

Stacking the distinct slices of a cylindric partition leaves skew *spaces*
between consecutive ones.  Tiling each space column by column (leftmost
column first, top to bottom within a column) visits one intermediate slice
per weight.  A chain slice is a *pivot* when the first box tiled after it
sits strictly left of the last box tiled before it; pivot shapes always
have first part >= 2.

One copy of each pivot, recorded as weight plus shape label, forms the
labeled distinct partition ``beta``; the weights of all remaining slices
form the plain partition ``mu``.  The map is a bijection: ``beta`` pins the
unique infinite path through the slice poset, and ``mu`` says how often
each node on it is used.

Both directions work on plain row-length and right-end tuples and build
value objects only for what they return.  Reconstruction tiles the path
only as far as the largest weight of ``beta`` and ``mu`` and records the
path's slice only at those weights; :func:`tile` runs the same routine and
records every weight of its window.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

from .core import (CylindricPartition, CylpartError, InvalidInput, Partition,
                   Profile, Shape, _Frozen, _int, _int_fields, _space_columns,
                   _trusted, _unwrap)
from .slices import Slice, _chain_runs, _slice_lengths, _summed_rows

_new_partition = _trusted(Partition)
_new_shape = _trusted(Shape)
_new_slice = _trusted(Slice)
_new_cylindric = _trusted(CylindricPartition)


class InadmissibleBeta(CylpartError):
    pass


class LabeledDistinctPartition(_Frozen):
    """Strictly decreasing weights, each labeled by a shape."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, Shape], ...] = ()):
        entries = tuple(entries)
        ws = [w for w, _ in entries]
        if any(w < 1 for w in ws):
            raise InvalidInput("weights must be positive")
        if any(a <= b for a, b in zip(ws, ws[1:])):
            raise InvalidInput("weights must be strictly decreasing")
        object.__setattr__(self, "entries", entries)

    @property
    def weight(self) -> int:
        return sum(w for w, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def to_text(self) -> str:
        return ",".join(f"{w}^{s}" for w, s in self.entries)

    def __str__(self) -> str:
        return self.to_text() if self.entries else "(empty)"

    @classmethod
    def parse(cls, text: str) -> "LabeledDistinctPartition":
        """Parse entries like ``15^(2,1),11^(3,2),10^(3,1),1^(2,2)``."""
        text = text.strip()
        if not text or text == "(empty)":
            return cls(())
        entries = []
        for chunk in text.replace("),", ");").split(";"):
            w_text, _, s_text = chunk.partition("^")
            shape = Shape(_int_fields(_unwrap(s_text.strip())))
            entries.append((_int(w_text), shape))
        return cls(tuple(entries))


_new_labeled = _trusted(LabeledDistinctPartition)


def pivot_flag(above: tuple[int, ...] | None, ends: tuple[int, ...],
               below: tuple[int, ...]) -> bool:
    """Pivot flag of one chain slice, from the right ends of the slice
    above it (None for the largest slice), of itself and of the slice below
    it (the empty slice under the smallest).

    The space after the largest slice is the infinite strip to its right,
    whose leftmost column is one past its smallest right end.
    """
    before = _space_columns(ends, below)
    if before is None:
        raise InadmissibleBeta(f"chain stalls at right ends {ends}")
    if above is None:
        first_after = min(ends) + 1
    else:
        after = _space_columns(above, ends)
        if after is None:
            raise InadmissibleBeta(f"chain stalls above right ends {ends}")
        first_after = after[0]
    return first_after < before[1]


def _pivot_flags(ends: Sequence[tuple[int, ...]]) -> list[bool]:
    """Pivot flags of a chain from the right ends of its slices, largest
    first, followed by those of the empty slice under it (the row
    offsets).

    The flags are those of :func:`pivot_flag`; each space is measured once,
    as the space below one slice and above the next.
    """
    flags = []
    first_after = min(ends[0]) + 1
    for upper, lower in zip(ends, ends[1:]):
        space = _space_columns(upper, lower)
        if space is None:
            raise InadmissibleBeta(f"chain stalls at right ends {upper}")
        flags.append(first_after < space[1])
        first_after = space[0]
    return flags


def chain_pivots(profile: Profile, chain: Sequence[Slice]) -> list[bool]:
    """Pivot flags for a strictly decreasing chain, largest slice first."""
    # The empty slice's right ends are the row offsets.
    return _pivot_flags([s.right_ends() for s in chain] + [profile.offsets()])


class TiledPath(_Frozen):
    """The tiled path: the row lengths of its slice of every weight
    0..window, indexed by weight."""

    __slots__ = _fields = ("profile", "slices")

    def __init__(self, profile: Profile, slices: tuple[tuple[int, ...], ...]):
        checked = tuple(Slice(profile, ln).lengths for ln in slices)
        for w, ln in enumerate(checked):
            if sum(ln) != w:
                raise ValueError(f"entry {w} of a tiled path has weight {sum(ln)}")
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "slices", checked)

    def slice_at(self, weight: int) -> Slice:
        # Every entry is a valid slice: checked on construction, or tiled by
        # :func:`tile` one valid box at a time.
        return _new_slice(self.profile, self.slices[weight])


_new_tiled_path = _trusted(TiledPath)


def _tiled_at(offsets: tuple[int, ...], chain: Sequence[tuple[int, ...]],
              weights: Iterable[int]) -> list[tuple[int, ...]]:
    """Row lengths of the tiled path's slice at each of the ascending
    ``weights``, tiling only as far as the largest of them.

    ``chain`` gives the chain's row lengths, smallest slice first.  A space
    that holds none of the weights is stepped over whole, since filling it
    leaves every row as long as the larger of the two slices.
    """
    r = len(offsets)
    wanted = iter(weights)
    want = next(wanted, None)
    out = []
    current = [0] * r
    weight = 0
    if want == 0:
        out.append(tuple(current))
        want = next(wanted, None)
    for target in chain:
        if want is None:
            return out
        filled = list(map(max, current, target))
        if want > sum(filled):
            current, weight = filled, sum(filled)
            continue
        # Visit the space's cells by (absolute column, row), adding one box
        # at a time.
        cells = sorted((col, i) for i in range(r)
                       for col in range(offsets[i] + current[i] + 1,
                                        offsets[i] + target[i] + 1))
        for _, i in cells:
            current[i] += 1
            weight += 1
            if weight == want:
                out.append(tuple(current))
                want = next(wanted, None)
                if want is None:
                    return out
    # Infinite strip past the largest slice: walk absolute columns left to
    # right; a row takes a box in every column beyond its own right end.
    boundary = list(map(operator.add, offsets, current))
    col = min(boundary) + 1
    while want is not None:
        for i in range(r):
            if boundary[i] < col:
                current[i] += 1
                weight += 1
                if weight == want:
                    out.append(tuple(current))
                    want = next(wanted, None)
                    if want is None:
                        break
        col += 1
    return out


def tile(profile: Profile, chain: Sequence[Slice], window: int) -> TiledPath:
    """Fill the spaces of a strictly decreasing chain box by box.

    Boxes go into each space column by column, left to right, top to bottom
    within a column; past the largest chain slice the infinite strip is
    tiled the same way up to the window.  The result records the unique
    intermediate slice of every weight 0..window.  The slice of weight w
    depends only on the first w boxes, so a smaller window gives a prefix
    of the same path.  The chain is not checked; :func:`pivot_reconstruct`
    resolves and checks it from beta first, and reads the path only at the
    weights of beta and mu, so it tiles through the same routine but records
    only those slices.
    """
    slices = sorted(chain, key=lambda s: s.weight)  # smallest first
    if slices and slices[-1].weight > window:
        raise InadmissibleBeta(
            f"window {window} below the largest chain weight {slices[-1].weight}")
    lengths = [s.lengths for s in slices]
    # The path always holds the empty slice at weight 0, and every box of
    # the chain's spaces: slices that do not nest fill past the largest one.
    filled = sum(map(max, zip(*lengths)))
    path = _tiled_at(profile.offsets(), lengths, range(max(window, filled) + 1))
    return _new_tiled_path(profile, tuple(path))


def pivot_decompose(cp: CylindricPartition
                    ) -> tuple[Partition, LabeledDistinctPartition]:
    """Split a cylindric partition into (mu, beta).

    ``beta`` takes one copy of every pivot slice as (weight, shape);
    ``mu`` keeps the weights of everything else.  Weights add up:
    |cp| = |mu| + |beta|.  The chain's weights strictly decrease, so both
    come out sorted and are built without re-validation.  The chain is
    read as row lengths; only the shapes of the pivots are built.
    """
    runs = _chain_runs(cp.rows)
    offsets = cp.profile.offsets()
    ends = [tuple(map(operator.add, offsets, lengths)) for lengths, _ in runs]
    ends.append(offsets)
    beta_entries = []
    mu_parts: list[int] = []
    for (lengths, mult), e, flag in zip(runs, ends, _pivot_flags(ends)):
        weight = sum(lengths)
        if flag:
            # The shape (e_1 - e_r, ..., e_{r-1} - e_r) of the slice.
            beta_entries.append((weight, _new_shape(
                tuple([v - e[-1] for v in e[:-1]]))))
            mu_parts += [weight] * (mult - 1)
        else:
            mu_parts += [weight] * mult
    return (_new_partition(tuple(mu_parts)),
            _new_labeled(tuple(beta_entries)))


def _resolve_beta(beta: LabeledDistinctPartition, profile: Profile
                  ) -> list[tuple[int, ...]]:
    """The row lengths of the slices named by beta, largest first, after
    checking that they exist, nest strictly and each come out flagged as a
    pivot.

    Raises :class:`InadmissibleBeta` with the first failing diagnosis.
    The lengths come from :func:`slices.slice_with`'s formula on plain
    tuples, so no shape or profile is hashed and no cache entry is made.
    """
    chain = []
    for w, sh in beta.entries:
        lengths = _slice_lengths(profile, sh.parts, w)
        if lengths is None:
            raise InadmissibleBeta(f"no slice of shape {sh} and weight {w}")
        chain.append(lengths)
    for w, sh in beta.entries:
        if not sh.parts or sh.parts[0] < 2:
            raise InadmissibleBeta(f"shape {sh} of part {w} can never be a pivot")
    for a, b in zip(chain, chain[1:]):
        if a == b or any(map(operator.lt, a, b)):
            raise InadmissibleBeta(f"slices {a} and {b} do not nest")
    offsets = profile.offsets()
    ends = [tuple(map(operator.add, offsets, lengths)) for lengths in chain]
    ends.append(offsets)
    for (w, sh), flag in zip(beta.entries, _pivot_flags(ends)):
        if not flag:
            raise InadmissibleBeta(f"{w}^{sh} is not a pivot in this lineup")
    return chain


def validate_beta(beta: LabeledDistinctPartition, profile: Profile
                  ) -> tuple[bool, str]:
    """Operational admissibility: the slices named by beta, stacked as a
    chain, must each come out flagged as a pivot.  Returns (ok, diagnosis)."""
    try:
        _resolve_beta(beta, profile)
    except InadmissibleBeta as e:
        return False, str(e)
    return True, "admissible"


def pivot_reconstruct(mu: Partition, beta: LabeledDistinctPartition,
                      profile: Profile) -> CylindricPartition:
    """Inverse of :func:`pivot_decompose`.

    Tiles the pivot chain up to the largest weight in beta or mu, recording
    only the slices at those weights, then adds one slice per part of
    ``mu`` at the unique tiled slice of that weight.
    """
    chain = _resolve_beta(beta, profile)
    # How often each weight is used: once per part of beta (its weights are
    # distinct) and once more per part of mu.
    counts = dict.fromkeys([w for w, _ in beta.entries], 1)
    for w in mu.parts:
        counts[w] = counts.get(w, 0) + 1
    distinct = sorted(counts)
    mults = [counts[w] for w in distinct]
    lengths = _tiled_at(profile.offsets(), chain[::-1], distinct)
    # Path slices of distinct positive weights nest strictly; the sum reads
    # them largest first.
    return _new_cylindric(profile, _summed_rows(lengths[::-1], mults[::-1],
                                                profile.rank))
