import math
import random
from fractions import Fraction

import pytest

from cylpart import (LinearRecurrence, Profile, QPoly, Shape,
                     adjacency_matrix, build_graph, char_poly,
                     count_distinct_series, diagonal_blocks, distinct_gf,
                     fit_recurrence, matrix_power, path_counts, QuadraticField,
                     shape_of_zero, verify_closed_form)
from cylpart.diagram import NoRecurrenceFound, _matmul, solve_residual
from cylpart.rings import QQ
from cylpart.slices import slice_shape, successors, zero_slice

from conftest import all_profiles


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
        for profile in all_profiles(3, 4):
            table = path_counts(profile, 40)
            for n in range(41):
                assert table.totals[n] == sum(v for _, v in table.by_shape[n])
            for s in range(profile.rank):
                rec = fit_recurrence(table.totals, modulus=profile.rank,
                                     residue=s)
                seq = table.totals[s::profile.rank]
                start = rec.order + rec.exceptions
                assert all(rec.holds_at(seq, n) for n in range(start, len(seq)))

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


class TestFitRecurrence:
    def test_doubling(self):
        rec = fit_recurrence(path_counts(Profile.of(1, 1, 1), 12).totals)
        assert rec.coeffs == (Fraction(1), Fraction(-2))
        assert rec.exceptions == 1

    def test_constant(self):
        rec = fit_recurrence([7] * 10)
        assert rec.coeffs == (Fraction(1), Fraction(-1))
        assert rec.exceptions == 0

    def test_residue_classes(self):
        totals = path_counts(Profile.of(2, 0, 0), 24).totals
        for s in range(3):
            rec = fit_recurrence(totals, modulus=3, residue=s)
            assert rec.coeffs == (Fraction(1), Fraction(-4), Fraction(-1))
            assert rec.characteristic() == QPoly((-1, -4, 1))

    def test_no_recurrence(self):
        import random
        rng = random.Random(4)
        with pytest.raises(NoRecurrenceFound):
            fit_recurrence([rng.randrange(100) for _ in range(30)], max_order=3)

    def test_validates_past_exceptions(self):
        rec = LinearRecurrence((Fraction(1), Fraction(-2)), 1)
        seq = (1, 3, 6, 12, 24)
        assert not rec.holds_at(seq, 1)
        assert all(rec.holds_at(seq, n) for n in range(2, 5))


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
        assert report.ok and report.irrational_ok

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

    def test_mismatch_reported_with_position(self):
        report = verify_closed_form(Profile.of(1, 1, 1),
                                    [(Fraction(3, 2), 2, 0)], [0], 10, ring=QQ)
        assert not report.ok and report.first_mismatch == 0
        # The closed form gives 3/2 at q^0, the path counts 1.
        assert "MISMATCH at q^0: closed form 3/2 vs path counts 1;" in str(report)

    def test_solve_residual(self):
        ring, combination, residual = _closed_form((1, 1, 1))
        found = solve_residual(Profile.of(1, 1, 1), combination, 0, 20, ring)
        assert found == QPoly((Fraction(-1, 2),))
        assert solve_residual(Profile.of(1, 1, 1),
                              [(Fraction(1), 2, 0)], 0, 20, ring) is None
