import math
import random
from fractions import Fraction

import pytest

from cylpart import (InvalidInput, Profile, QPoly, Shape, adjacency_matrix, all_shapes,
                     build_graph, char_poly, check_closed_form,
                     count_distinct_series, diagonal_blocks, distinct_gf,
                     matrix_power, minimal_polynomial, path_counts,
                     shape_of_zero)
from cylpart import diagram
from cylpart.core import FrozenInstanceError
from cylpart.diagram import ShapeTransitionGraph, _matmul
from cylpart.slices import slice_shape, successors, zero_slice

from conftest import all_profiles
from references import (QQ, QuadraticField, minimal_polynomial_over_q, slice_graph,
                        verify_closed_form)


def laplace_char_poly(mat):
    """Independent route: cofactor expansion of det(xI - M)."""
    n = len(mat)
    entries = [[QPoly((0, 1)) if i == j else QPoly() for j in range(n)]
               for i in range(n)]
    for i in range(n):
        for j in range(n):
            entries[i][j] = entries[i][j] - QPoly((mat[i][j],))

    def det(rows, cols):
        if not rows:
            return QPoly.one()
        i = rows[0]
        total = QPoly()
        for idx, j in enumerate(cols):
            minor = det(rows[1:], cols[:idx] + cols[idx + 1:])
            term = entries[i][j] * minor
            total = total + (term if idx % 2 == 0 else -term)
        return total

    return det(tuple(range(n)), tuple(range(n)))


def slice_dp_path_counts(profile, order):
    """Independent route: the slice-level dynamic program.  Layer n holds
    every slice reached by n outer-corner steps from the empty slice, and
    is then summed by shape."""
    layer = {zero_slice(profile): 1}
    totals, by_shape = [], []
    for n in range(order + 1):
        if n:
            nxt = {}
            for s, cnt in layer.items():
                for t in successors(s):
                    nxt[t] = nxt.get(t, 0) + cnt
            layer = nxt
        totals.append(sum(layer.values()))
        shapes = {}
        for s, cnt in layer.items():
            shapes[slice_shape(s)] = shapes.get(slice_shape(s), 0) + cnt
        by_shape.append(tuple(sorted(shapes.items(), key=lambda kv: kv[0].parts)))
    return tuple(totals), tuple(by_shape)


class TestGraph:
    def test_rank3_level3(self):
        g = build_graph(3, 3, Profile.of(1, 1, 1))
        assert len(g.nodes) == 10
        assert g.marked == Shape.of(2, 1)
        assert Shape.of(2, 1) in g.out_neighbors(Shape.of(1, 1))
        assert g.out_neighbors(Shape.of(3, 3)) == [Shape.of(2, 2)]

    def test_rank2_chain(self):
        g = build_graph(2, 7)
        assert len(g.nodes) == 8
        for k in range(8):
            outs = {s.parts for s in g.out_neighbors(Shape.of(k))}
            expected = set()
            if k + 1 <= 7:
                expected.add((k + 1,))
            if k - 1 >= 0:
                expected.add((k - 1,))
            assert outs == expected

    def test_rank1(self):
        g = build_graph(1, 2)
        assert g.nodes == (Shape(()),)
        assert (Shape(()), Shape(())) in g.edges

    def test_node_count_formula(self):
        for r in range(1, 5):
            for level in range(1, 5):
                g = build_graph(r, level)
                assert len(g.nodes) == math.comb(level + r - 1, r - 1)

    def test_adjacency_text(self):
        text = build_graph(2, 2, Profile.of(1, 1)).to_adjacency_text()
        assert "(1) *" in text

    def test_grow_rule_matches_slice_successors(self):
        """The graph from shape arithmetic equals the graph of the
        successors of one slice per shape, marked or not."""
        profiles = all_profiles(4, 4) + all_profiles(5, 2)
        for profile in profiles + [None]:
            families = [(profile.rank, profile.level)] if profile else \
                sorted({(p.rank, p.level) for p in profiles})
            for rank, level in families:
                g = build_graph(rank, level, profile)
                assert (g.nodes, g.edges, g.marked) == \
                    slice_graph(rank, level, profile), (rank, level, profile)
                for s in g.nodes:
                    assert g.out_neighbors(s) == sorted(
                        (t for f, t in g.edges if f == s), key=lambda x: x.parts)

    def test_edges_do_not_depend_on_profile(self):
        for profile in all_profiles(4, 4) + all_profiles(5, 2):
            rank, level = profile.rank, profile.level
            assert build_graph(rank, level, profile).edges == \
                build_graph(rank, level).edges, profile

    def test_edges_come_from_the_grow_rule(self):
        """A graph takes its family and mark only; its nodes and edges
        follow from the family, so no graph holds edges its neighbours
        disagree with."""
        nodes = build_graph(2, 2).nodes
        with pytest.raises(TypeError):
            ShapeTransitionGraph(2, 2, nodes, frozenset())
        for rank, level in [(1, 2), (2, 3), (3, 2), (4, 3)]:
            g = ShapeTransitionGraph(rank, level)
            assert g == build_graph(rank, level)
            assert g.edges == {(s, t) for s in g.nodes for t in g.out_neighbors(s)}
            with pytest.raises(FrozenInstanceError):
                g.edges = frozenset()
        marked = ShapeTransitionGraph(3, 3, Shape.of(2, 1))
        assert marked == build_graph(3, 3, Profile.of(1, 1, 1))
        assert marked.edges == build_graph(3, 3).edges

    @pytest.mark.parametrize("rank, level", [(3, 2), (2, 3), (2, 1)])
    def test_profile_of_another_family_rejected(self, rank, level):
        with pytest.raises(InvalidInput, match=f"c=\\(1,1\\) has rank 2 and level 2, "
                                               f"not rank {rank} and level {level}"):
            build_graph(rank, level, Profile.of(1, 1))

    def test_out_neighbors_of_a_shape_outside_the_family(self):
        g = build_graph(3, 2)
        assert g.out_neighbors(Shape.of(3, 1)) == []
        assert g.out_neighbors(Shape.of(1)) == []


class TestMatrices:
    def test_rank3_level2_block_structure(self):
        g = build_graph(3, 2)
        order, mat, sizes = adjacency_matrix(g)
        assert [s.parts for s in order] == [
            (0, 0), (2, 1), (1, 0), (2, 2), (1, 1), (2, 0)]
        assert mat == [[0, 0, 0, 0, 1, 0],
                       [0, 0, 0, 0, 1, 1],
                       [1, 1, 0, 0, 0, 0],
                       [0, 1, 0, 0, 0, 0],
                       [0, 0, 1, 1, 0, 0],
                       [0, 0, 1, 0, 0, 0]]
        blocks = diagonal_blocks(matrix_power(mat, 3), sizes)
        assert blocks == [[[1, 2], [2, 3]], [[3, 2], [2, 1]], [[3, 2], [2, 1]]]
        for b in blocks:
            assert char_poly(b) == QPoly((-1, -4, 1))  # x^2 - 4x - 1

    def test_matmul_equals_triple_loop(self):
        rng = random.Random(7)
        for n in (0, 1, 2, 5, 9):
            for entry in (lambda: rng.randint(-9, 9),
                          lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))):
                a = [[entry() for _ in range(n)] for _ in range(n)]
                b = [[entry() for _ in range(n)] for _ in range(n)]
                naive = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                         for i in range(n)]
                got = _matmul(a, b)
                assert got == naive, (n, a, b)
                assert all(type(x) is type(y) for r, s in zip(got, naive)
                           for x, y in zip(r, s))

    def test_rank3_level3_char_polys_agree_up_to_x(self):
        g = build_graph(3, 3)
        _, mat, sizes = adjacency_matrix(g)
        blocks = diagonal_blocks(matrix_power(mat, 3), sizes)
        assert sorted(len(b) for b in blocks) == [3, 3, 4]
        polys = {len(b): char_poly(b) for b in blocks}
        assert polys[3] == QPoly((-8, 9, -9, 1))  # (x-8)(x^2-x+1)
        assert polys[4] == polys[3].shift(1)      # extra factor of x

    def test_rank2_level4(self):
        g = build_graph(2, 4)
        order, mat, sizes = adjacency_matrix(g)
        assert [s.parts for s in order] == [(0,), (2,), (4,), (1,), (3,)]
        assert mat == [[0, 0, 0, 1, 0],
                       [0, 0, 0, 1, 1],
                       [0, 0, 0, 0, 1],
                       [1, 1, 0, 0, 0],
                       [0, 1, 1, 0, 0]]
        sq = matrix_power(mat, 2)
        blocks = diagonal_blocks(sq, sizes)
        assert blocks[0] == [[1, 1, 0], [1, 2, 1], [0, 1, 1]]
        assert blocks[1] == [[2, 1], [1, 2]]
        # the small block factors as (x - 3)(x - 1)
        assert char_poly(blocks[1]) == QPoly((3, -4, 1))
        assert char_poly(blocks[1])(3) == 0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "eigenvalue -1 is arithmetically impossible here: the block is "
        "[[2,1],[1,2]], whose eigenvalues are 3 and 1"))
    def test_rank2_level4_negative_eigenvalue_refuted(self):
        g = build_graph(2, 4)
        _, mat, sizes = adjacency_matrix(g)
        block = diagonal_blocks(matrix_power(mat, 2), sizes)[1]
        assert char_poly(block)(-1) == 0

    def test_rank2_squares_symmetric(self):
        for level in range(1, 13):
            g = build_graph(2, level)
            _, mat, sizes = adjacency_matrix(g)
            sq = matrix_power(mat, 2)
            assert all(sq[i][j] == sq[j][i]
                       for i in range(len(sq)) for j in range(len(sq)))
            diagonal_blocks(sq, sizes)  # raises unless block diagonal

    def test_blocks_share_nonzero_spectrum(self):
        for r in range(2, 5):
            for level in range(1, 5):
                g = build_graph(r, level)
                _, mat, sizes = adjacency_matrix(g)
                blocks = diagonal_blocks(matrix_power(mat, r), sizes)
                reduced = []
                for b in blocks:
                    p = char_poly(b)
                    k = 0
                    while k < len(p.coeffs) and p.coeffs[k] == 0:
                        k += 1
                    reduced.append(tuple(p.coeffs[k:]))
                assert len(set(reduced)) == 1, (r, level)

    def test_char_poly_against_cofactor_expansion(self):
        mats = [[[2]], [[1, 2], [2, 3]], [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                [[1, 2, 0, 1], [2, 6, 2, 2], [1, 2, 1, 0], [0, 2, 1, 1]],
                [[0, 0], [0, 0]], [[1, 1], [1, 1]]]
        for m in mats:
            assert char_poly(m) == laplace_char_poly(m)

    def test_char_poly_identity_block(self):
        assert char_poly([[1, 0], [0, 1]]) == QPoly((1, -2, 1))  # (x-1)^2

    def test_char_poly_fraction_entries(self):
        F = Fraction
        mats = [[[F(1, 2)]], [[F(1, 2), F(1, 3)], [F(2), F(-3, 4)]],
                [[F(0), F(1, 5), F(2)], [F(-1, 2), F(1), F(0)], [F(3), F(1, 7), F(2, 3)]],
                [[F(1, 2), 1, 0, F(-1, 3)], [2, F(5, 6), 2, 0], [0, 1, F(1, 4), 1],
                 [F(7, 2), 0, 1, 0]]]
        for m in mats:
            assert char_poly(m) == laplace_char_poly(m)
        assert char_poly(mats[1]) == QPoly((F(-3, 8) - F(2, 3), F(1, 4), 1))

    def test_cayley_hamilton_on_full_adjacency_matrix(self):
        _, mat, _ = adjacency_matrix(build_graph(4, 4))
        n = len(mat)
        p = char_poly(mat)
        assert n == 35 and p.degree == n and p.coeffs[-1] == 1
        assert all(type(c) is int for c in p.coeffs)
        acc = [[0] * n for _ in range(n)]   # Horner: p(M) = (..(M + c)M + ..) + c_0
        for c in reversed(p.coeffs):
            acc = _matmul(acc, mat)
            for i in range(n):
                acc[i][i] += c
        assert acc == [[0] * n for _ in range(n)]


class TestPathCounts:
    def test_doubling_family(self):
        assert path_counts(Profile.of(1, 1, 1), 7).totals == \
            (1, 3, 6, 12, 24, 48, 96, 192)

    def test_rank2_level4_family(self):
        totals = path_counts(Profile.of(4, 0), 9).totals
        assert totals == (1, 1, 2, 3, 6, 9, 18, 27, 54, 81)
        for n in range(1, 5):
            assert totals[2 * n] == 2 * 3 ** (n - 1)
            assert totals[2 * n - 1] == 3 ** (n - 1)

    def test_fibonacci_family(self):
        totals = path_counts(Profile.of(2, 0, 0), 12).totals
        fib = [1, 1]
        while len(fib) < 13:
            fib.append(fib[-1] + fib[-2])
        assert list(totals) == fib

    def test_layer_sum_consistency(self):
        table = path_counts(Profile.of(1, 2, 0), 9)
        for n in range(10):
            assert table.totals[n] == sum(v for _, v in table.by_shape[n])

    def test_recurrences_hold_to_order_forty(self):
        # The minimal polynomial read off a_0..a_{2D-1} holds on every
        # window up to a_{max(40, 4D)}.
        for profile in all_profiles(3, 4):
            shapes = len(all_shapes(profile.rank, profile.level))
            top = max(40, 4 * shapes)
            table = path_counts(profile, top)
            for n in range(top + 1):
                assert table.totals[n] == sum(v for _, v in table.by_shape[n])
            p = minimal_polynomial(table.totals[:2 * shapes])
            for n in range(top + 1 - p.degree):
                assert sum(c * table.totals[n + i] for i, c in enumerate(p.coeffs)) == 0, \
                    (profile, n)

    def test_graph_walk_matches_slice_dp(self):
        profiles = set(all_profiles(3, 3) + all_profiles(4, 2) + all_profiles(2, 4)
                       + [Profile.of(level) for level in range(1, 7)])
        for profile in sorted(profiles, key=lambda p: p.parts):
            table = path_counts(profile, 14)
            assert (table.totals, table.by_shape) == \
                slice_dp_path_counts(profile, 14), profile

    def test_start_concentrated_at_zero_shape(self):
        table = path_counts(Profile.of(0, 2, 0), 4)
        assert table.by_shape[0] == ((shape_of_zero(Profile.of(0, 2, 0)), 1),)


def poly_remainder(a: QPoly, b: QPoly) -> QPoly:
    """a mod b, for a monic b."""
    rem = list(a.coeffs)
    while len(rem) >= len(b.coeffs):
        lead, shift = rem[-1], len(rem) - len(b.coeffs)
        for i, c in enumerate(b.coeffs):
            rem[shift + i] -= lead * c
        rem.pop()
    return QPoly(rem)


def family(rank, level):
    return [p for p in all_profiles(rank, level) if (p.rank, p.level) == (rank, level)]


class TestFitRecurrence:
    """The recurrence :func:`minimal_polynomial` fits: its monic
    characteristic polynomial, constant term first."""

    def test_doubling(self):
        # a_0 = 1 breaks a_n = 2 a_{n-1}; the factor x stands for it.
        p = minimal_polynomial(path_counts(Profile.of(1, 1, 1), 12).totals)
        assert p == QPoly((0, -2, 1))

    def test_constant(self):
        assert minimal_polynomial([7] * 10) == QPoly((-1, 1))

    def test_residue_classes(self):
        totals = path_counts(Profile.of(2, 0, 0), 24).totals
        for s in range(3):
            assert minimal_polynomial(totals[s::3]) == QPoly((-1, -4, 1))

    @pytest.mark.parametrize("parts, coeffs", [
        ((2, 0, 0), (-1, -1, 1)), ((4, 0), (0, -3, 0, 1)), ((3, 1), (-3, 0, 1)),
        ((3, 2, 1, 0), (25, 0, -75, 0, 60, 0, -15, 0, 1))])
    def test_known_profiles(self, parts, coeffs):
        profile = Profile(parts)
        shapes = len(all_shapes(profile.rank, profile.level))
        assert minimal_polynomial(path_counts(profile, 2 * shapes - 1).totals) == \
            QPoly(coeffs)

    def test_monic_with_integer_coefficients(self):
        for profile in all_profiles(3, 4) + family(4, 3):
            shapes = len(all_shapes(profile.rank, profile.level))
            p = minimal_polynomial(path_counts(profile, 2 * shapes - 1).totals)
            assert 1 <= p.degree <= shapes and p.coeffs[-1] == 1, profile
            assert all(type(c) is int for c in p.coeffs), profile

    def test_matches_berlekamp_massey_over_q_on_path_counts(self):
        for profile in all_profiles(4, 4):
            shapes = len(all_shapes(profile.rank, profile.level))
            totals = path_counts(profile, 2 * shapes - 1).totals
            assert minimal_polynomial(totals) == minimal_polynomial_over_q(totals), profile

    def test_matches_berlekamp_massey_over_q(self):
        """Integers, rationals and floats, short and degenerate sequences
        included, where the polynomial of least degree is not unique and
        scaling the values must not change which one is found."""
        rng = random.Random(11)
        seqs = [[], [0], [0, 0, 0], [1], [2, 1], [0, 1], [1, 0, 0, 0], [5, -3, 0, 7],
                [Fraction(-5, 3)], [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)],
                [Fraction(2, 3), 1, Fraction(-5, 7), 0, 3], [0.5, 0.25, 0.125]]
        for _ in range(300):
            n = rng.randrange(14)
            seqs.append([rng.randint(-9, 9) for _ in range(n)])
            seqs.append([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)])
            coeffs = [rng.randint(-3, 3) for _ in range(rng.randrange(1, 4))]
            values = [rng.randint(-3, 3) for _ in coeffs]
            while len(values) < n:
                values.append(sum(c * v for c, v in zip(coeffs, values[-len(coeffs):])))
            seqs.append(values)
        for seq in seqs:
            p = minimal_polynomial(seq)
            assert p == minimal_polynomial_over_q(seq), seq
            integral = all(Fraction(c).denominator == 1 for c in p.coeffs)
            assert all(type(c) is (int if integral else Fraction) for c in p.coeffs), seq

    def test_rational_result(self):
        # 2, 1 satisfies 2 v_{n+1} = v_n, and no recurrence over Z.
        p = minimal_polynomial([2, 1])
        assert p == QPoly((Fraction(-1, 2), 1))
        assert all(type(c) is Fraction for c in p.coeffs)

    def test_divides_char_poly(self):
        for rank, level in [(2, 4), (3, 2), (3, 3)]:
            _, mat, _ = adjacency_matrix(build_graph(rank, level))
            chi = char_poly(mat)
            for profile in family(rank, level):
                p = minimal_polynomial(path_counts(profile, 2 * len(mat) - 1).totals)
                assert not poly_remainder(chi, p), profile


class TestDistinctSeries:
    @pytest.mark.parametrize("profile", [
        Profile.of(1, 1, 1), Profile.of(2, 1), Profile.of(4, 0),
        Profile.of(2, 0, 0), Profile.of(0, 2, 0)])
    def test_matches_enumeration(self, profile):
        assert distinct_gf(profile, 12).coeffs == \
            count_distinct_series(profile, 12).coeffs

    def test_low_order(self):
        assert distinct_gf(Profile.of(1, 1, 1), 0).coeffs == (1,)
        assert distinct_gf(Profile.of(1, 1, 1), 3).coeffs == (1, 3, 3, 9)

    def test_matches_enumeration_every_small_family(self, small_profiles):
        for profile in small_profiles:
            assert distinct_gf(profile, 12).coeffs == \
                count_distinct_series(profile, 12).coeffs, profile


CLOSED_FORMS = {}


def _closed_form(key):
    if key in CLOSED_FORMS:
        return CLOSED_FORMS[key]
    if key == (1, 1, 1):
        value = (QQ, [(Fraction(3, 2), 2, 0)], [Fraction(-1, 2)])
    elif key == (2, 0, 0):
        K = QuadraticField(5)
        s = K.sqrt()
        value = (K, [((1 + s * Fraction(1, 5)) * Fraction(1, 2),
                      (1 + s) * Fraction(1, 2), 0),
                     ((1 - s * Fraction(1, 5)) * Fraction(1, 2),
                      (1 - s) * Fraction(1, 2), 0)], [])
    else:  # (4, 0)
        K = QuadraticField(3)
        s = K.sqrt()
        value = (K, [((2 + s) * Fraction(1, 6), s, 0),
                     ((2 - s) * Fraction(1, 6), -s, 0)], [Fraction(1, 3)])
    CLOSED_FORMS[key] = value
    return value


class TestClosedForms:
    @pytest.mark.parametrize("key", [(1, 1, 1), (2, 0, 0), (4, 0)])
    def test_verifies_to_order_25(self, key):
        ring, combination, residual = _closed_form(key)
        report = verify_closed_form(Profile(key), combination, residual, 25,
                                    ring=ring)
        assert report.ok and "irrational parts cancel: True" in report.detail

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "pairing the coefficient (2+sqrt3)/6 with the product over "
        "(1 - sqrt3 q^j) makes the q^1 coefficient -1 instead of 1"))
    def test_level4_pairing_swapped(self):
        K = QuadraticField(3)
        s = K.sqrt()
        swapped = [((2 + s) * Fraction(1, 6), -s, 0),
                   ((2 - s) * Fraction(1, 6), s, 0)]
        report = verify_closed_form(Profile.of(4, 0), swapped,
                                    [Fraction(1, 3)], 25, ring=K)
        assert report.ok

    def test_ring_holds_every_value(self):
        # An integer alpha and a beta in Q(sqrt 5): the form is computed in
        # Q(sqrt 5), and its irrational part shows at q^1.
        s = QuadraticField(5).sqrt()
        report = verify_closed_form(Profile.of(2, 0, 0), [(1, (1 + s) / 2, 0)], [], 10)
        assert report.ok is False and report.mismatch == 1
        assert report.detail.endswith("irrational parts cancel: False")

    def test_mismatch_reported_with_position(self):
        report = verify_closed_form(Profile.of(1, 1, 1),
                                    [(Fraction(3, 2), 2, 0)], [0], 10, ring=QQ)
        assert not report.ok and report.mismatch == 0
        # The closed form gives 3/2 at q^0, the path counts 1.
        assert "MISMATCH at q^0: closed form 3/2 vs path counts 1;" in report.detail


class TestCheckClosedForm:
    def test_every_small_family(self):
        for profile in all_profiles(4, 4):
            assert check_closed_form(profile, 40).ok, profile

    @pytest.mark.parametrize("parts, order", [((3, 2, 1, 0), 40), ((1, 1), 0),
                                              ((2, 1), 3), ((1, 1, 1), 400)])
    def test_walks_the_shape_graph_once(self, monkeypatch, parts, order):
        """One walk gives both a_0..a_{2D-1}, which fix the minimal
        polynomial, and the path counts of the reference series, to
        whichever of the two reaches further."""
        built = []
        build = diagram.build_graph
        monkeypatch.setattr(diagram, "build_graph",
                            lambda *args: (built.append(args), build(*args))[1])
        assert check_closed_form(Profile(parts), order).ok
        assert len(built) == 1
