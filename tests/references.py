"""Independent references the tests check the library against: the lineup
classes by their definition, the rank-2 closed form of beta
admissibility, the pivot flag of one slice from the spaces on either side
of it, the smallest weight of a slice of a given shape, the shape graph
from slice successors, Berlekamp-Massey over the rationals, and eigen
forms of the distinct-parts series checked over Q and real quadratic
fields.  The library computes none of them; it builds lineups of a known
class directly, checks beta and flags pivots in one walk down the chain,
finds slices from their shape and weight, builds the shape graph from the
grow rule on shapes, and certifies every closed form over Z from the
minimal polynomial of the path counts, found over the integers."""

from fractions import Fraction
from typing import Sequence

from cylpart.bijection import InadmissibleBeta, LabeledDistinctPartition, chain_pivots
from cylpart.core import (CylpartError, Profile, RankMismatch, Shape, _delta, _Frozen,
                         _space_columns, all_shapes, shape_of_zero)
from cylpart.diagram import distinct_gf
from cylpart.lineups import Lineup
from cylpart.polynomials import family
from cylpart.qpoly import QPoly
from cylpart.rings import Ring, RingMismatch, ZZ
from cylpart.series import Check, TruncatedSeries, compare, euler_sum, euler_top
from cylpart.slices import Slice, slice_shape, slice_with, successors


def min_slice_weight(profile: Profile, shape: Shape) -> int:
    """Smallest weight of a slice with the given shape, 0 for the zero shape.

    This is the tight-packing distance ``delta`` from the profile's zero
    shape to ``shape``, computed by the one formula in :mod:`cylpart.core`.
    """
    if shape.rank != profile.rank:
        raise RankMismatch(f"shape rank {shape.rank} vs profile rank {profile.rank}")
    return _delta(profile.offsets()[:-1], shape.parts)


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


def slice_graph(rank: int, level: int, profile: Profile | None = None):
    """(nodes, edges, marked) of the shape transition graph, built from
    slices: the successors of the minimal slice of each shape, over the
    profile or the family's first profile (level, 0, ..., 0)."""
    nodes = tuple(all_shapes(rank, level))
    rep_profile = profile if profile is not None else Profile((level,) + (0,) * (rank - 1))
    edges = set()
    for sh in nodes:
        rep = slice_with(rep_profile, sh, min_slice_weight(rep_profile, sh))
        edges.update((sh, slice_shape(nxt)) for nxt in successors(rep))
    marked = shape_of_zero(profile) if profile is not None else None
    return nodes, frozenset(edges), marked


def minimal_polynomial_over_q(values) -> QPoly:
    """Berlekamp-Massey over the rationals, dividing by each discrepancy:
    the monic minimal polynomial of the values, constant term first."""
    seq = [Fraction(v) for v in values]
    conn, prev = [Fraction(1)], [Fraction(1)]
    length, gap, prev_disc = 0, 1, Fraction(1)
    for n, v in enumerate(seq):
        disc = v + sum(conn[i] * seq[n - i] for i in range(1, length + 1))
        if not disc:
            gap += 1
            continue
        old = list(conn)
        conn += [Fraction(0)] * (len(prev) + gap - len(conn))
        scale = disc / prev_disc
        for i, x in enumerate(prev):
            conn[i + gap] -= scale * x
        if 2 * length <= n:
            length, prev, prev_disc, gap = n + 1 - length, old, disc, 1
        else:
            gap += 1
    conn += [Fraction(0)] * (length + 1 - len(conn))
    return QPoly(tuple(reversed(conn[:length + 1])))


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


# -- exact fields: Q and Q(sqrt d) ----------------------------------------

def _is_squarefree(d: int) -> bool:
    if d in (0, 1):
        return False
    d = abs(d)
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


class QuadElement(_Frozen):
    """``a + b*sqrt(d)`` with exact rational a, b and squarefree d."""

    __slots__ = _fields = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", d)

    def _lift(self, other) -> "QuadElement":
        if isinstance(other, QuadElement):
            if other.d != self.d:
                raise RingMismatch(f"sqrt({other.d}) element in Q(sqrt {self.d})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElement(Fraction(other), Fraction(0), self.d)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElement(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadElement(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadElement(self.a * o.a + self.d * self.b * o.b,
                           self.a * o.b + self.b * o.a, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        norm = o.a * o.a - self.d * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        return self * QuadElement(o.a / norm, -o.b / norm, self.d)

    def conjugate(self) -> "QuadElement":
        return QuadElement(self.a, -self.b, self.d)

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadElement):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        return f"{self.a} + {self.b}*sqrt({self.d})"


class RationalRing(Ring):
    tag = "Q"

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise RingMismatch(f"{x!r} is not rational")

    def element_to_json(self, x):
        return [str(x.numerator), str(x.denominator)]


class QuadraticField(Ring):
    """Q(sqrt d) for a fixed squarefree integer d."""

    def __init__(self, d: int):
        if not _is_squarefree(d):
            raise ValueError(f"{d} is not squarefree")
        self.d = d
        self.tag = f"Q(sqrt {d})"

    def coerce(self, x):
        if isinstance(x, QuadElement):
            if x.d != self.d:
                raise RingMismatch(f"element of Q(sqrt {x.d}) in {self.tag}")
            return x
        if isinstance(x, (int, Fraction)):
            return QuadElement(Fraction(x), Fraction(0), self.d)
        raise RingMismatch(f"{x!r} is not in {self.tag}")

    def sqrt(self) -> QuadElement:
        return QuadElement(Fraction(0), Fraction(1), self.d)

    def element_to_json(self, x):
        x = self.coerce(x)
        return [str(x.a.numerator), str(x.a.denominator),
                str(x.b.numerator), str(x.b.denominator)]


QQ = RationalRing()


def ring_of(*values) -> Ring:
    """The smallest of Z, Q and Q(sqrt d) containing every one of ``values``;
    Z when there are none."""
    ring = ZZ
    for x in values:
        if isinstance(x, QuadElement):
            if not isinstance(ring, QuadraticField):
                ring = QuadraticField(x.d)
            elif ring.d != x.d:
                raise RingMismatch(f"elements of {ring.tag} and Q(sqrt {x.d})")
        elif isinstance(x, Fraction):
            ring = QQ if ring is ZZ else ring
        elif not isinstance(x, int):
            raise RingMismatch(f"no ring for {x!r}")
    return ring


# -- eigen forms of the distinct-parts series -----------------------------

def _closed_form_series(combination, residual, order: int,
                        ring: Ring) -> TruncatedSeries:
    """residual(q) + sum over (alpha, beta, k) of
    alpha * sum n^k beta^n q^{n(n+1)/2}/(q;q)_n, as one :func:`euler_sum`
    of c_n = sum of alpha * n^k * beta^n."""
    top = euler_top(order)
    c = [ring.zero] * (top + 1)
    for alpha, beta, k in combination:
        if k < 0:
            raise ValueError("derivative count must be non-negative")
        alpha, beta = ring.coerce(alpha), ring.coerce(beta)
        power = ring.one
        for n in range(top + 1):
            c[n] = c[n] + alpha * n ** k * power
            power = power * beta
    return (TruncatedSeries.from_coeffs(ring, list(residual), order)
            + euler_sum(c, order, ring))


def verify_closed_form(profile: Profile, combination, residual, order: int,
                       ring: Ring | None = None) -> Check:
    """The ``closed-form`` check of distinct_gf against residual(q) + sum
    of alpha * termwise z-derivative series.

    ``combination`` lists (alpha, beta, k) triples, evaluated as
    alpha * sum n^k beta^n q^{n(n+1)/2}/(q;q)_n; ``residual`` is a low-order
    coefficient list.  ``ring`` defaults to the smallest ring that holds
    every alpha, beta and residual entry.  Over a quadratic field the final
    coefficients must also have vanishing irrational part; the report says
    whether they do.
    """
    if ring is None:
        ring = ring_of(*(x for alpha, beta, _ in combination for x in (alpha, beta)),
                       *residual)
    total = _closed_form_series(combination, residual, order, ring)
    irrational_ok = not any(isinstance(x, QuadElement) and x.b != 0
                            for x in total.coeffs)
    # Coefficients equal to the rational reference have no irrational
    # part, so a closed form that matches it always reads True here.
    tail = f"; irrational parts cancel: {irrational_ok}"
    reference = distinct_gf(profile, order).into_ring(ring)
    head = f"closed form for {profile} to q^{order}: "
    return compare("closed-form", total.coeffs, reference.coeffs, f"{head}ok{tail}",
                   lambda k, x, y: f"{head}MISMATCH at q^{k}: closed form {x} "
                                   f"vs path counts {y}{tail}")
