"""Independent references the tests check the library against: the lineup
classes by their definition, and the rank-2 closed form of beta
admissibility.  The library computes neither; it builds lineups of a known
class directly and checks beta by walking the pivot chain."""

from typing import Sequence

from cylpart.bijection import LabeledDistinctPartition, chain_pivots
from cylpart.core import CylpartError, Profile, shape_of_zero
from cylpart.lineups import Lineup
from cylpart.polynomials import family
from cylpart.slices import Slice, slice_shape


class NotPotentialPivot(CylpartError):
    pass


def classify(profile: Profile, slices: Sequence[Slice]) -> Lineup:
    """Classify a strictly decreasing chain of potential pivots.

    Gap j compares slice j against slice j+1 (the empty slice past the
    end).  Pivothood is always re-checked operationally on the chain, never
    assumed from the gap pattern alone.
    """
    chain = list(slices)
    zero_shape = shape_of_zero(profile)
    level = profile.level
    r = profile.rank
    fam = family(r, level)
    labels = tuple(slice_shape(s) for s in chain)
    for s, sh in zip(chain, labels):
        if not sh.parts or sh.parts[0] < 2:
            raise NotPotentialPivot(f"{s.weight}^{sh} can never be a pivot")
    for a, b in zip(chain, chain[1:]):
        if not (a.contains(b) and a != b):
            raise NotPotentialPivot(
                f"{a.lengths} does not strictly contain {b.lengths}")
    n = len(chain)
    if n == 0:
        return Lineup(profile, (), "minimal-loose", frozenset())

    jammed_gaps = set()
    all_tight_or_step = True
    for j in range(1, n + 1):
        lower_weight = chain[j].weight if j < n else 0
        lower_shape = labels[j] if j < n else zero_shape
        gap = chain[j - 1].weight - lower_weight
        dist = fam.dist(lower_shape, labels[j - 1])
        if gap == dist:
            jammed_gaps.add(j)
        elif gap != dist + r:
            all_tight_or_step = False

    flags = chain_pivots(profile, chain)
    if not all(flags):
        return Lineup(profile, tuple(chain), "none", frozenset(), labels)
    if jammed_gaps:
        cls = "minimal-jammed" if all_tight_or_step else "jammed"
        return Lineup(profile, tuple(chain), cls, frozenset(jammed_gaps), labels)
    cls = "minimal-loose" if all_tight_or_step else "loose"
    return Lineup(profile, tuple(chain), cls, frozenset(), labels)


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
