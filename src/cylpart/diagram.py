"""Shape transition graphs, path counts, and distinct-parts series.

Chains of slices that grow one box at a time project onto a finite directed
graph on shapes: which rows of a slice may grow depends only on its shape,
and a slice is fixed by its shape and weight.  So the number ``a_n`` of
chains of length n out of the empty slice is the number of length-n walks
in that graph from the profile's zero shape, 1^T M^n e_0 for the integer
adjacency matrix M, and :func:`path_counts` counts them by walking the
graph.  Grouping the shapes by weight class mod the rank makes M
block-cyclic and its rank-th power block diagonal, with one characteristic
polynomial per block.  The path counts feed the generating function for
cylindric partitions into distinct parts:

    sum over n of a_n * q^(n(n+1)/2) / (q;q)_n.

M is D x D for the D shapes, so a_n satisfies a linear recurrence of order
at most D, and Berlekamp-Massey on a_0..a_{2D-1} gives its minimal
polynomial p exactly.  p and a_0..a_{deg p - 1} fix every a_n, which gives
the closed form :func:`check_closed_form` checks, for every profile.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .core import Profile, Shape, _Frozen, all_shapes, shape_of_zero
from .qpoly import QPoly, _convolve
from .series import Check, TruncatedSeries, compare, euler_sum, euler_top
from .slices import min_slice_weight, slice_shape, slice_with, successors


class ShapeTransitionGraph(_Frozen):
    """Shapes as nodes; each edge is a (source, target) pair whose weight
    goes up by 1."""

    __slots__ = _fields = ("rank", "level", "nodes", "edges", "marked")

    def __init__(self, rank: int, level: int, nodes: tuple[Shape, ...],
                 edges: frozenset[tuple[Shape, Shape]], marked: Shape | None = None):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "marked", marked)

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


def minimal_polynomial(values: Sequence) -> QPoly:
    """The monic polynomial p of least degree L with
    p_0 v_n + p_1 v_{n+1} + ... + p_L v_{n+L} = 0 at every n the values
    reach, constant term first: Berlekamp-Massey over the rationals
    (Massey, IEEE Trans. Inform. Theory 15, 1969).

    A sequence known to satisfy some recurrence of order at most D is
    pinned down by its first 2D values, so p is then exact.  Factors of x
    in p stand for a leading stretch the recurrence does not cover.
    """
    # Imported here: only this check loads fractions.
    from fractions import Fraction
    seq = [Fraction(v) for v in values]
    conn, prev = [Fraction(1)], [Fraction(1)]  # connection polynomials
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


def distinct_gf(profile: Profile, order: int) -> TruncatedSeries:
    """Generating function for cylindric partitions into distinct parts:
    sum over n of a_n q^{n(n+1)/2} / (q;q)_n, truncated."""
    return euler_sum(path_counts(profile, euler_top(order)).totals, order)


def check_closed_form(profile: Profile, order: int) -> Check:
    """The ``closed-form`` check of the distinct-parts series built from
    the minimal polynomial p of the path counts a_n.

    a_n = 1^T M^n e_0 for the D x D adjacency matrix M of the D shapes, so
    a_n satisfies the recurrence of M's characteristic polynomial, of
    degree D; :func:`minimal_polynomial` of a_0..a_{2D-1} is therefore the
    exact minimal polynomial of the whole sequence.  The check rebuilds a_n
    from p and a_0..a_{deg p - 1} alone and compares its :func:`euler_sum`
    with :func:`distinct_gf`, whose path counts come from the same walk of
    the shape graph as a_0..a_{2D-1}.
    """
    shapes = len(all_shapes(profile.rank, profile.level))
    top = euler_top(order)
    totals = path_counts(profile, max(2 * shapes - 1, top)).totals
    p = minimal_polynomial(totals[:2 * shapes])
    start = totals[:p.degree]
    seq = list(start)
    while len(seq) <= top:
        seq.append(-sum(c * x for c, x in zip(p.coeffs, seq[-p.degree:])))
    names = "a_0" if p.degree == 1 else f"a_0..a_{p.degree - 1}"
    tail = (f"; a_n has minimal polynomial {p.to_str('x')} and {names} = "
            f"{', '.join(map(str, start))} (found from a_0..a_{2 * shapes - 1}; "
            f"{shapes} shape{'s' * (shapes != 1)})")
    head = f"closed form for {profile} to q^{order}: "
    return compare("closed-form", euler_sum(seq, order).coeffs,
                   euler_sum(totals, order).coeffs, f"{head}ok{tail}",
                   lambda k, x, y: f"{head}MISMATCH at q^{k}: closed form {x} "
                                   f"vs path counts {y}{tail}")
