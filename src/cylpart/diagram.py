"""Shape transition graphs, path counts, and distinct-parts series.

Chains of slices that grow one box at a time project onto a finite directed
graph on shapes: which rows of a slice may grow depends only on its shape,
and a slice is fixed by its shape and weight.  So the number ``a_n`` of
chains of length n out of the empty slice is the number of length-n walks
in that graph from the profile's zero shape, 1^T M^n e_0 for the integer
adjacency matrix M, and :func:`path_counts` counts them by walking the
graph.  Grouping the shapes by weight class mod the rank makes M
block-cyclic and its rank-th power block diagonal; the characteristic
polynomials of the blocks give the linear recurrences of ``a_n``, which in
turn feed the generating function for cylindric partitions into distinct
parts:

    sum over n of a_n * q^(n(n+1)/2) / (q;q)_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .core import Profile, Shape, all_shapes, shape_of_zero
from .qpoly import QPoly, _convolve
from .rings import QuadElement, Ring, ZZ, ring_of
from .series import TruncatedSeries, euler_sum, euler_top, first_mismatch
from .slices import min_slice_weight, slice_shape, slice_with, successors


class NoRecurrenceFound(Exception):
    pass


@dataclass(frozen=True)
class ShapeTransitionGraph:
    rank: int
    level: int
    nodes: tuple[Shape, ...]
    edges: frozenset[tuple[Shape, Shape]]  # (source, target), weight goes up 1
    marked: Shape | None = None

    def out_neighbors(self, s: Shape) -> list[Shape]:
        return sorted((t for f, t in self.edges if f == s), key=lambda x: x.parts)

    def to_adjacency_text(self) -> str:
        lines = []
        for s in self.nodes:
            targets = " ".join(str(t) for t in self.out_neighbors(s))
            mark = " *" if s == self.marked else ""
            lines.append(f"{s}{mark}: {targets}")
        return "\n".join(lines)


def build_graph(rank: int, level: int, profile: Profile | None = None
                ) -> ShapeTransitionGraph:
    """Directed graph on all shapes of the family, one edge per outer-corner
    addition.  Which rows of a slice may grow depends only on its shape, so
    the minimal slice of each shape stands for all of them."""
    nodes = tuple(all_shapes(rank, level))
    rep_profile = profile if profile is not None else Profile((level,) + (0,) * (rank - 1))
    edges = set()
    for sh in nodes:
        rep = slice_with(rep_profile, sh, min_slice_weight(rep_profile, sh))
        edges.update((sh, slice_shape(nxt)) for nxt in successors(rep))
    marked = shape_of_zero(profile) if profile is not None else None
    return ShapeTransitionGraph(rank, level, nodes, frozenset(edges), marked)


def weight_class_order(graph: ShapeTransitionGraph) -> tuple[list[Shape], list[int]]:
    """Shapes grouped by |shape| mod rank (class 0 first), lexicographic
    inside a class; returns (ordering, class sizes)."""
    classes: list[list[Shape]] = [[] for _ in range(graph.rank)]
    for s in sorted(graph.nodes, key=lambda x: x.parts):
        classes[s.weight % graph.rank].append(s)
    order = [s for cl in classes for s in cl]
    return order, [len(cl) for cl in classes]


def adjacency_matrix(graph: ShapeTransitionGraph
                     ) -> tuple[list[Shape], list[list[int]], list[int]]:
    """(ordering, matrix, class sizes) with entry [i][j] = 1 when an edge
    runs from node j to node i, so the matrix acts on count vectors."""
    order, sizes = weight_class_order(graph)
    idx = {s: i for i, s in enumerate(order)}
    n = len(order)
    mat = [[0] * n for _ in range(n)]
    for f, t in graph.edges:
        mat[idx[t]][idx[f]] = 1
    return order, mat, sizes


def matrix_power(mat: Sequence[Sequence[int]], k: int) -> list[list[int]]:
    n = len(mat)
    result = [[int(i == j) for j in range(n)] for i in range(n)]
    base = [list(row) for row in mat]
    while k:
        if k & 1:
            result = _matmul(result, base)
        base = _matmul(base, base)
        k >>= 1
    return result


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def diagonal_blocks(mat: Sequence[Sequence[int]], sizes: Sequence[int]
                    ) -> list[list[list[int]]]:
    """Cut a block-diagonal matrix along the class sizes; raises if any
    off-block entry is nonzero."""
    blocks = []
    start = 0
    n = len(mat)
    for size in sizes:
        stop = start + size
        for i in range(start, stop):
            for j in range(n):
                if not (start <= j < stop) and mat[i][j] != 0:
                    raise ValueError(f"matrix is not block diagonal at {(i, j)}")
        blocks.append([[mat[i][j] for j in range(start, stop)]
                       for i in range(start, stop)])
        start = stop
    return blocks


def char_poly(block: Sequence[Sequence]) -> QPoly:
    """Monic characteristic polynomial det(xI - M), computed without any
    division (Samuelson-Berkowitz), so it stays exact over int or Fraction
    entries.

    The polynomial of each leading (k+1) x (k+1) submatrix is the Toeplitz
    product of the one before with (1, -a, -R S, -R A S, ..., -R A^(k-1) S),
    where A is the leading k x k submatrix, a = M[k][k], R the row left of
    it and S the column above it.
    """
    coeffs = [1]  # highest power first
    for k in range(len(block)):
        row, col = block[k][:k], [block[i][k] for i in range(k)]
        t = [1, -block[k][k]]
        for _ in range(k):
            t.append(-sum(x * y for x, y in zip(row, col)))
            col = [sum(x * y for x, y in zip(block[i][:k], col)) for i in range(k)]
        coeffs = _convolve(t, coeffs, k + 2, 0)
    return QPoly(tuple(reversed(coeffs)))


@dataclass(frozen=True)
class PathCountTable:
    """Chain counts out of the empty slice, total and per ending shape."""

    profile: Profile
    order: int
    totals: tuple[int, ...]                       # a_n for n = 0..order
    by_shape: tuple[tuple[tuple[Shape, int], ...], ...]


def path_counts(profile: Profile, order: int) -> PathCountTable:
    """Walks of length 0..order in the profile's shape transition graph,
    out of its zero shape; layer n maps each shape to its walk count."""
    graph = build_graph(profile.rank, profile.level, profile)
    adj: dict[Shape, list[Shape]] = {s: [] for s in graph.nodes}
    for f, t in graph.edges:
        adj[f].append(t)
    layer = {shape_of_zero(profile): 1}
    totals, by_shape = [], []
    for n in range(order + 1):
        if n:
            nxt: dict[Shape, int] = {}
            for s, cnt in layer.items():
                for t in adj[s]:
                    nxt[t] = nxt.get(t, 0) + cnt
            layer = nxt
        totals.append(sum(layer.values()))
        by_shape.append(tuple(sorted(layer.items(), key=lambda kv: kv[0].parts)))
    return PathCountTable(profile, order, tuple(totals), tuple(by_shape))


@dataclass(frozen=True)
class LinearRecurrence:
    """A_0 b_n + A_1 b_{n-1} + ... + A_v b_{n-v} = 0.

    ``exceptions`` counts the leading windows that break the rule: the
    relation holds at every n >= order + exceptions.
    """

    coeffs: tuple[Fraction, ...]   # A_0..A_v, A_0 = 1
    exceptions: int

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def holds_at(self, seq: Sequence, n: int) -> bool:
        v = self.order
        if n < v:
            return False
        return sum(self.coeffs[i] * Fraction(seq[n - i]) for i in range(v + 1)) == 0

    def characteristic(self) -> QPoly:
        """Companion characteristic polynomial, highest power first in x."""
        return QPoly(tuple(reversed(self.coeffs)))

    def __str__(self) -> str:
        terms = " + ".join(f"({a})*b[n-{i}]" if i else f"({a})*b[n]"
                           for i, a in enumerate(self.coeffs))
        return f"{terms} = 0  ({self.exceptions} exceptional windows)"


def fit_recurrence(values: Sequence, modulus: int = 1, residue: int = 0,
                   max_order: int | None = None) -> LinearRecurrence:
    """Minimal-order constant-coefficient recurrence for a subsequence.

    Takes values[residue::modulus], solves for rational coefficients by
    exact elimination on the trailing windows, then scans from the front
    for the exceptional prefix.  Each candidate order v needs at least
    3v + 2 terms; raises NoRecurrenceFound past the order cap.
    """
    seq = [Fraction(v) for v in values[residue::modulus]]
    m = len(seq)
    cap = (m - 2) // 3 if max_order is None else max_order
    for v in range(cap + 1):
        if m < 3 * v + 2:
            break
        sol = _solve_tail(seq, v)
        if sol is None:
            continue
        last_bad = v - 1
        for n in range(v, m):
            if seq[n] != sum(sol[i - 1] * seq[n - i] for i in range(1, v + 1)):
                last_bad = n
        exceptions = last_bad - v + 1
        # Demand enough validated windows beyond the exceptional prefix.
        if m - (v + exceptions) >= v + 2:
            coeffs = (Fraction(1),) + tuple(-c for c in sol)
            return LinearRecurrence(coeffs, exceptions)
    raise NoRecurrenceFound(f"no recurrence of order <= {cap} fits {len(seq)} terms")


def _solve_tail(seq: list[Fraction], v: int) -> list[Fraction] | None:
    """Coefficients c with seq[n] = sum c_i seq[n-i] on the trailing windows."""
    m = len(seq)
    if v == 0:
        tail = seq[max(0, m - 2):]
        return [] if all(x == 0 for x in tail) else None
    rows = [[seq[n - i] for i in range(1, v + 1)] + [seq[n]]
            for n in range(m - 1, max(v - 1, m - 2 * v - 2), -1)]
    return _solve_exact(rows, v)


def _solve_exact(rows: list[list[Fraction]], v: int) -> list[Fraction] | None:
    """Gauss elimination over Fractions; None when inconsistent; free
    variables default to zero."""
    mat = [list(r) for r in rows]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(v):
        piv = next((i for i in range(row, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        lead = mat[row][col]
        mat[row] = [x / lead for x in mat[row]]
        for i in range(len(mat)):
            if i != row and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[row])]
        pivots.append((row, col))
        row += 1
    for i in range(row, len(mat)):
        if mat[i][v] != 0:
            return None
    sol = [Fraction(0)] * v
    for r, c in pivots:
        sol[c] = mat[r][v]
    return sol


def distinct_gf(profile: Profile, order: int) -> TruncatedSeries:
    """Generating function for cylindric partitions into distinct parts:
    sum over n of a_n q^{n(n+1)/2} / (q;q)_n, truncated."""
    return euler_sum(path_counts(profile, euler_top(order)).totals, order)


@dataclass(frozen=True)
class ClosedFormReport:
    profile: Profile
    order: int
    # (index, closed-form value, path-count value) of the first bad
    # coefficient, None when every coefficient agrees.
    mismatch: tuple[int, object, object] | None
    irrational_ok: bool

    @property
    def ok(self) -> bool:
        return self.mismatch is None

    @property
    def first_mismatch(self) -> int | None:
        return None if self.mismatch is None else self.mismatch[0]

    def __str__(self) -> str:
        status = "ok" if self.ok and self.irrational_ok else "MISMATCH"
        extra = ""
        if self.mismatch is not None:
            k, x, y = self.mismatch
            extra = f" at q^{k}: closed form {x} vs path counts {y}"
        return (f"closed form for {self.profile} to q^{self.order}: {status}{extra}; "
                f"irrational parts cancel: {self.irrational_ok}")


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
                       ring: Ring | None = None) -> ClosedFormReport:
    """Check distinct_gf against residual(q) + sum of alpha * termwise
    z-derivative series.

    ``combination`` lists (alpha, beta, k) triples, evaluated as
    alpha * sum n^k beta^n q^{n(n+1)/2}/(q;q)_n; ``residual`` is a low-order
    coefficient list.  Over a quadratic field the final coefficients must
    also have vanishing irrational part.
    """
    if ring is None:
        probe = next(iter(combination), None)
        ring = ring_of(probe[0]) if probe else ZZ
    total = _closed_form_series(combination, residual, order, ring)
    reference = distinct_gf(profile, order).into_ring(ring)
    irrational_ok = not any(isinstance(x, QuadElement) and x.b != 0
                            for x in total.coeffs)
    return ClosedFormReport(profile, order,
                            first_mismatch(total.coeffs, reference.coeffs),
                            irrational_ok)


def solve_residual(profile: Profile, combination, degree_bound: int,
                   order: int, ring: Ring) -> QPoly | None:
    """Convenience mode: the residual polynomial (degree <= degree_bound)
    that reconciles the weighted products with distinct_gf, or None when
    the difference is not a polynomial of that degree."""
    total = _closed_form_series(combination, [], order, ring)
    diff = distinct_gf(profile, order).into_ring(ring) - total
    if any(diff.coeffs[i] for i in range(degree_bound + 1, order + 1)):
        return None
    return QPoly(diff.coeffs[:degree_bound + 1])
