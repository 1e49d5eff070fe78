"""Shape transition graphs, path counts, and distinct-parts series.

Chains of slices that grow one box at a time project onto a finite directed
graph on shapes, since which rows of a slice may grow depends only on its
shape.  Row i grows while l_i < l_{i-1} + c_i (cyclically), which on the
shape s = (s_1, ..., s_{r-1}) reads as the *grow rule*: row 1 grows while
s_1 < level, row i (1 < i < r) while s_i < s_{i-1}, and row r while
s_{r-1} > 0, lowering every part by 1; at rank 1 the single shape loops.
The profile only marks the start, its zero shape.  So the number ``a_n`` of
chains of length n out of the empty slice is the number of length-n walks
from there, 1^T M^n e_0 for the integer adjacency matrix M, which
:func:`path_counts` counts.  Grouping the shapes by weight class mod the
rank makes M block-cyclic and its rank-th power block diagonal, with one
characteristic polynomial per block.  The path counts feed the generating
function for cylindric partitions into distinct parts:

    sum over n of a_n * q^(n(n+1)/2) / (q;q)_n.

M is D x D for the D shapes, so Berlekamp-Massey on a_0..a_{2D-1} gives
the minimal polynomial p of a_n, and p with a_0..a_{deg p - 1} fixes every
a_n: the closed form :func:`check_closed_form` checks.  Only functions that
build series import :mod:`cylpart.series`.
"""

from __future__ import annotations

import math
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .core import InvalidInput, Profile, Shape, _Frozen, all_shapes, shape_of_zero
from .qpoly import QPoly, _convolve

if TYPE_CHECKING:
    from .series import Check, TruncatedSeries


def _grown(s: tuple[int, ...], level: int) -> list[tuple[int, ...]]:
    """The shape parts one box after the parts ``s``, by the grow rule."""
    if not s:
        return [s]
    out = [s[:i] + (v + 1,) + s[i + 1:]
           for i, v in enumerate(s) if v < (s[i - 1] if i else level)]
    if s[-1]:
        out.append(tuple([v - 1 for v in s]))
    return out


class ShapeTransitionGraph(_Frozen):
    """The shapes of one (rank, level) family as nodes, with an edge from
    each to every shape in its :meth:`out_neighbors`, one box on by the
    grow rule; ``marked`` is a profile's zero shape, or None."""

    __slots__ = ("rank", "level", "marked", "nodes")
    _fields = ("rank", "level", "marked")

    def __init__(self, rank: int, level: int, marked: Shape | None = None):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "marked", marked)
        object.__setattr__(self, "nodes", tuple(all_shapes(rank, level)))

    @property
    def edges(self) -> frozenset[tuple[Shape, Shape]]:
        return frozenset((s, t) for s in self.nodes for t in self.out_neighbors(s))

    def out_neighbors(self, s: Shape) -> list[Shape]:
        """The shapes one box after ``s``, sorted; none outside the family."""
        if s.rank != self.rank or s.parts and s.parts[0] > self.level:
            return []
        return [Shape(t) for t in sorted(_grown(s.parts, self.level))]

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
    addition by the grow rule: row 1 grows while s_1 < level, row i
    (1 < i < r) while s_i < s_{i-1}, row r while s_{r-1} > 0, lowering
    every part by 1, and at rank 1 the single shape loops.  A profile only
    marks its zero shape; one of another rank or level is ``InvalidInput``.
    """
    if profile is not None and (profile.rank, profile.level) != (rank, level):
        raise InvalidInput(f"profile {profile} has rank {profile.rank} and level "
                           f"{profile.level}, not rank {rank} and level {level}")
    marked = shape_of_zero(profile) if profile is not None else None
    return ShapeTransitionGraph(rank, level, marked)


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
    mat = [[0] * len(order) for _ in order]
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
    blocks, start, n = [], 0, len(mat)
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


class PathCountTable(_Frozen):
    """Chain counts out of the empty slice: ``totals`` holds a_n for
    n = 0..order, and ``by_shape`` the (shape, count) pairs of each n."""

    __slots__ = _fields = ("profile", "order", "totals", "by_shape")

    def __init__(self, profile: Profile, order: int, totals: tuple[int, ...],
                 by_shape: tuple[tuple[tuple[Shape, int], ...], ...]):
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "totals", totals)
        object.__setattr__(self, "by_shape", by_shape)


def path_counts(profile: Profile, order: int) -> PathCountTable:
    """Walks of length 0..order in the profile's shape transition graph,
    out of its zero shape; layer n pairs each shape it reaches with its
    walk count, in the graph's node order."""
    graph = build_graph(profile.rank, profile.level, profile)
    nodes = graph.nodes
    index = {s.parts: i for i, s in enumerate(nodes)}
    targets = [[index[t] for t in _grown(s.parts, graph.level)] for s in nodes]
    layer = [int(s == graph.marked) for s in nodes]
    totals, by_shape = [], []
    for n in range(order + 1):
        if n:
            nxt = [0] * len(nodes)
            for c, into in zip(layer, targets):
                for j in into if c else ():
                    nxt[j] += c
            layer = nxt
        totals.append(sum(layer))
        by_shape.append(tuple([(s, c) for s, c in zip(nodes, layer) if c]))
    return PathCountTable(profile, order, tuple(totals), tuple(by_shape))


def minimal_polynomial(values: Sequence) -> QPoly:
    """The monic polynomial p of least degree L with
    p_0 v_n + p_1 v_{n+1} + ... + p_L v_{n+L} = 0 at every n the values
    reach, constant term first: Berlekamp-Massey (Massey, IEEE Trans.
    Inform. Theory 15, 1969), exact once given 2D values of a recurrence of
    order at most D.  Factors of x in p stand for a leading stretch the
    recurrence does not cover.

    It runs over the integers: rational values and the starting discrepancy
    1 are scaled by the lcm of the denominators, and each update
    cross-multiplies by the previous discrepancy and drops the content; p
    is the result over its constant term.  Integer values with a recurrence
    have an integer p (Fatou's lemma); only others can give ``Fraction``.
    """
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*(d for _, d in ratios))
    seq = [n * (scale // d) for n, d in ratios]
    conn, prev = [1], [1]  # connection polynomials
    length, gap, prev_disc = 0, 1, scale
    for n in range(len(seq)):
        disc = sum(conn[i] * seq[n - i] for i in range(length + 1))
        if not disc:
            gap += 1
            continue
        old = conn
        conn = [prev_disc * c for c in conn] + [0] * (len(prev) + gap - len(conn))
        for i, x in enumerate(prev):
            conn[i + gap] -= disc * x
        content = math.gcd(*conn)
        conn = [c // content for c in conn]
        if 2 * length <= n:
            length, prev, prev_disc, gap = n + 1 - length, old, disc, 1
        else:
            gap += 1
    conn = (conn + [0] * length)[:length + 1]
    lead = conn[0]
    if any(c % lead for c in conn):
        from fractions import Fraction
        return QPoly([Fraction(c, lead) for c in reversed(conn)])
    return QPoly([c // lead for c in reversed(conn)])


def distinct_gf(profile: Profile, order: int) -> TruncatedSeries:
    """Generating function for cylindric partitions into distinct parts:
    sum over n of a_n q^{n(n+1)/2} / (q;q)_n, truncated."""
    from .series import euler_sum, euler_top
    return euler_sum(path_counts(profile, euler_top(order)).totals, order)


def check_closed_form(profile: Profile, order: int) -> Check:
    """The ``closed-form`` check: a_n rebuilt from its minimal polynomial
    p, read off a_0..a_{2D-1} for the D shapes, and a_0..a_{deg p - 1}
    alone equals the path counts through a_N, N = max(2D, the last a_n
    that :func:`distinct_gf` to q^order reads).  So at least a_{2D} is
    checked past the values p was fitted to, and the series agree to
    q^order.  Its ``mismatch`` is the index n of the first bad a_n."""
    from .series import compare, euler_top
    shapes = len(all_shapes(profile.rank, profile.level))
    top = max(2 * shapes, euler_top(order))
    totals = path_counts(profile, top).totals
    p = minimal_polynomial(totals[:2 * shapes])
    start = totals[:p.degree]
    seq = list(start)
    while len(seq) <= top:
        seq.append(-sum(c * x for c, x in zip(p.coeffs, seq[-p.degree:])))
    names = "a_0" if p.degree == 1 else f"a_0..a_{p.degree - 1}"
    tail = (f"; a_n has minimal polynomial {p.to_str('x')} and {names} = "
            f"{', '.join(map(str, start))} (found from a_0..a_{2 * shapes - 1}; "
            f"{shapes} shape{'s' * (shapes != 1)})")
    head = f"closed form for {profile} to q^{order}, through a_{top}: "
    return compare("closed-form", seq, totals, f"{head}ok{tail}",
                   lambda k, x, y: f"{head}MISMATCH at a_{k}: closed form {x} "
                                   f"vs path counts {y}{tail}")
