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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .core import (CylindricPartition, CylpartError, Partition, Profile,
                   Shape, _space_columns, _trusted)
from .slices import (Slice, SliceChain, decompose as slice_decompose,
                     recompose, slice_shape, slice_with)

_new_partition = _trusted(Partition)
_new_slice = _trusted(Slice)
_new_chain = _trusted(SliceChain)


class InadmissibleBeta(CylpartError):
    pass


@dataclass(frozen=True, slots=True)
class LabeledDistinctPartition:
    """Strictly decreasing weights, each labeled by a shape."""

    entries: tuple[tuple[int, Shape], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        ws = [w for w, _ in self.entries]
        if any(w < 1 for w in ws):
            raise ValueError("weights must be positive")
        if any(a <= b for a, b in zip(ws, ws[1:])):
            raise ValueError("weights must be strictly decreasing")

    @property
    def weight(self) -> int:
        return sum(w for w, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def run_lengths(self) -> list[int]:
        """Lengths of maximal blocks of consecutive weights."""
        runs = []
        ws = [w for w, _ in self.entries]
        i = 0
        while i < len(ws):
            j = i
            while j + 1 < len(ws) and ws[j + 1] == ws[j] - 1:
                j += 1
            runs.append(j - i + 1)
            i = j + 1
        return runs

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
            shape = Shape(tuple(int(v) for v in s_text.strip("()").split(",")
                                if v.strip() != ""))
            entries.append((int(w_text), shape))
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


def chain_pivots(profile: Profile, chain: Sequence[Slice]) -> list[bool]:
    """Pivot flags for a strictly decreasing chain, largest slice first."""
    # The empty slice's right ends are the row offsets.
    ends = [s.right_ends() for s in chain] + [profile.offsets()]
    return [pivot_flag(ends[j - 1] if j else None, ends[j], ends[j + 1])
            for j in range(len(ends) - 1)]


@dataclass(frozen=True, slots=True)
class TiledPath:
    """The tiled path: the row lengths of its slice of every weight 0..window."""

    profile: Profile
    slices: tuple[tuple[int, ...], ...]  # index = weight

    def __post_init__(self):
        checked = tuple(Slice(self.profile, ln).lengths for ln in self.slices)
        for w, ln in enumerate(checked):
            if sum(ln) != w:
                raise ValueError(f"entry {w} of a tiled path has weight {sum(ln)}")
        object.__setattr__(self, "slices", checked)

    def slice_at(self, weight: int) -> Slice:
        # Every entry is a valid slice: checked on construction, or tiled by
        # :func:`tile` one valid box at a time.
        return _new_slice(self.profile, self.slices[weight])


_new_tiled_path = _trusted(TiledPath)


def tile(profile: Profile, chain: Sequence[Slice], window: int) -> TiledPath:
    """Fill the spaces of a strictly decreasing chain box by box.

    Boxes go into each space column by column, left to right, top to bottom
    within a column; past the largest chain slice the infinite strip is
    tiled the same way up to the window.  The result records the unique
    intermediate slice of every weight 0..window.  The slice of weight w
    depends only on the first w boxes, so a smaller window gives a prefix
    of the same path.  The chain is not checked; :func:`pivot_reconstruct`
    resolves and checks it from beta first.
    """
    slices = sorted(chain, key=lambda s: s.weight)  # smallest first
    if slices and slices[-1].weight > window:
        raise InadmissibleBeta(
            f"window {window} below the largest chain weight {slices[-1].weight}")

    offsets = profile.offsets()
    r = profile.rank
    current = [0] * r
    path = [tuple(current)]

    def fill_to(target_lengths):
        # Visit the space's cells by (absolute column, row), adding one box
        # at a time and recording each new slice.
        cells = []
        for i in range(r):
            lo = offsets[i] + current[i] + 1
            hi = offsets[i] + target_lengths[i]
            cells.extend((col, i) for col in range(lo, hi + 1))
        cells.sort()
        for _, i in cells:
            current[i] += 1
            path.append(tuple(current))

    for target in slices:
        fill_to(target.lengths)
    # Infinite strip past the largest slice: walk absolute columns left to
    # right; a row takes a box in every column beyond its own right end.
    boundary = [offsets[i] + current[i] for i in range(r)]
    col = min(boundary) + 1
    while len(path) - 1 < window:
        for i in range(r):
            if boundary[i] < col and len(path) - 1 < window:
                current[i] += 1
                path.append(tuple(current))
        col += 1
    return _new_tiled_path(profile, tuple(path))


def pivot_decompose(cp: CylindricPartition
                    ) -> tuple[Partition, LabeledDistinctPartition]:
    """Split a cylindric partition into (mu, beta).

    ``beta`` takes one copy of every pivot slice as (weight, shape);
    ``mu`` keeps the weights of everything else.  Weights add up:
    |cp| = |mu| + |beta|.  The chain's weights strictly decrease, so both
    come out sorted and are built without re-validation.
    """
    chain = slice_decompose(cp)
    distinct = chain.distinct()
    flags = chain_pivots(cp.profile, distinct)
    beta_entries = []
    mu_parts: list[int] = []
    for (s, mult), flag in zip(chain.entries, flags):
        if flag:
            beta_entries.append((s.weight, slice_shape(s)))
            mu_parts.extend([s.weight] * (mult - 1))
        else:
            mu_parts.extend([s.weight] * mult)
    return (_new_partition(tuple(mu_parts)),
            _new_labeled(tuple(beta_entries)))


def _resolve_beta(beta: LabeledDistinctPartition, profile: Profile
                  ) -> list[Slice]:
    """The slices named by beta, largest first, after checking that they
    exist, nest strictly and each come out flagged as a pivot.

    Raises :class:`InadmissibleBeta` with the first failing diagnosis.
    """
    slices = []
    for w, sh in beta.entries:
        s = slice_with(profile, sh, w)
        if s is None:
            raise InadmissibleBeta(f"no slice of shape {sh} and weight {w}")
        slices.append(s)
    for w, sh in beta.entries:
        if not sh.parts or sh.parts[0] < 2:
            raise InadmissibleBeta(f"shape {sh} of part {w} can never be a pivot")
    for a, b in zip(slices, slices[1:]):
        if not (a.contains(b) and a != b):
            raise InadmissibleBeta(f"slices {a.lengths} and {b.lengths} do not nest")
    for (w, sh), flag in zip(beta.entries, chain_pivots(profile, slices)):
        if not flag:
            raise InadmissibleBeta(f"{w}^{sh} is not a pivot in this lineup")
    return slices


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

    Tiles the pivot chain up to the largest weight in beta or mu, then adds
    one slice per part of ``mu`` at the unique tiled slice of that weight.
    """
    chain = _resolve_beta(beta, profile)
    weights = sorted([w for w, _ in beta.entries] + list(mu.parts), reverse=True)
    path = tile(profile, chain, weights[0] if weights else 0)
    # Path slices of distinct positive weights nest strictly.
    entries = tuple((path.slice_at(w), len(list(run)))
                    for w, run in itertools.groupby(weights))
    return recompose(_new_chain(profile, entries))


def validate_beta_rank2(beta: LabeledDistinctPartition, a: int, b: int) -> bool:
    """Closed-form admissibility test for rank-2 profiles (a, b).

    Conditions: every label (s) has 2 <= s <= a+b; w + s and b share parity;
    different parts keep |w1 - w2| >= |s1 - s2| + 2; and each part obeys
    w >= s - b, w > b - s.
    """
    level = a + b
    for w, sh in beta.entries:
        if sh.rank != 2:
            return False
        s = sh.parts[0]
        if not (2 <= s <= level):
            return False
        if (w + s) % 2 != b % 2:
            return False
        if not (w >= s - b and w > b - s):
            return False
    es = beta.entries
    for (w1, s1), (w2, s2) in zip(es, es[1:]):
        if abs(w1 - w2) < abs(s1.parts[0] - s2.parts[0]) + 2:
            return False
    return True
