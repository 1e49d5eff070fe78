"""Acceptance gate: every identity is exact, so all comparisons are
coefficientwise equalities with zero tolerance.

Run under pytest (``pytest tests/test_acceptance.py -v -s``) or directly
(``python tests/test_acceptance.py``); either way one pass/fail line prints
per criterion.
"""

import functools
import math
import sys
from fractions import Fraction

from cylpart import (LabeledDistinctPartition, Partition, Profile, QPoly,
                     QuadraticField, Shape, ShrinkMode, adjacency_matrix,
                     borodin_product, build_graph, char_poly, classify,
                     count_distinct_series, count_series, decompose,
                     delta, diagonal_blocks, distinct_gf,
                     enumerate_by_weight, enumerate_minimal_jammed,
                     enumerate_minimal_loose, family, f_truncated,
                     check_functional_equation, lemma_check, matrix_power,
                     path_counts, pivot_corrected_poly, pivot_decompose,
                     pivot_lineup_poly, pivot_reconstruct,
                     product_inv_factors, qconj_genfunc_check,
                     shrink, slice_shape, slice_with, validate,
                     verify_closed_form)
from cylpart.lineups import minimal_jammed_correction
from cylpart.oracle import count_max_at_most, count_max_exactly
from cylpart.polynomials import (largest_part_exact_series,
                                 parts_at_most_series)
from cylpart.rings import QQ, ZZ
from cylpart.series import TruncatedSeries, at_z_one

from conftest import all_profiles

_criteria = []


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number:02d} FAIL: {title}")
                raise
            print(f"criterion {number:02d} PASS: {title}")
        _criteria.append(run)
        return run
    return wrap


@criterion(1, "enumeration equals the infinite product, q^12 / q^20 at rank 2")
def test_criterion_01_product_crosscheck():
    for parts in [(2, 1), (3, 0), (1, 1, 1), (1, 2, 0), (4, 3), (2, 0, 0)]:
        profile = Profile(parts)
        order = 20 if profile.rank == 2 else 12
        counted = count_series(profile, order)
        product = borodin_product(profile, order)
        assert counted.coeffs == product.coeffs, profile


@criterion(2, "worked examples reproduce bit-exactly")
def test_criterion_02_worked_examples():
    p111 = Profile.of(1, 1, 1)
    cp = validate((Partition.of(5, 4), Partition.of(8, 2),
                   Partition.of(7, 5, 1)), p111)
    chain = decompose(cp)
    assert [s.lengths for s in chain.expanded()] == [
        (2, 2, 3), (2, 2, 2), (2, 1, 2), (2, 1, 2),
        (1, 1, 2), (0, 1, 1), (0, 1, 1), (0, 1, 0)]
    assert [slice_shape(s).parts for s in chain.expanded()] == [
        (1, 0), (2, 1), (2, 0), (2, 0), (1, 0), (1, 1), (1, 1), (2, 2)]

    mu, beta = pivot_decompose(cp)
    assert beta.to_text() == "5^(2,0),1^(2,2)"
    assert mu == Partition.of(7, 6, 5, 4, 2, 2)

    p21 = Profile.of(2, 1)
    cp2 = validate((Partition.of(15, 15, 10, 10, 6, 5),
                    Partition.of(18, 13, 6, 6)), p21)
    mu2, beta2 = pivot_decompose(cp2)
    assert [w for w, _ in beta2.entries] == [10, 6, 3]
    assert mu2.weight + beta2.weight == cp2.weight
    assert mu2 == Partition.of(10, 10, 10, 10, 9, 6, 6, 6, 4, 4, 4, 3, 1, 1, 1)

    rebuilt = pivot_reconstruct(
        Partition.of(13, 10, 10, 9, 5, 5, 3, 2),
        LabeledDistinctPartition.parse("15^(2,1),11^(3,2),10^(3,1),1^(2,2)"),
        p111)
    assert rebuilt == validate((Partition.of(9, 7, 7, 6, 1),
                                Partition.of(12, 9, 7, 3, 1),
                                Partition.of(11, 10, 7, 2, 2)), p111)

    assert delta(Profile.of(1, 1, 1), Profile.of(0, 0, 2)) == 1
    assert delta(Profile.of(0, 0, 2), Profile.of(1, 1, 1)) == 2

    big = validate((Partition.of(3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1),
                    Partition.of(3, 3, 3, 2, 2, 2, 1, 1, 1, 1),
                    Partition.of(3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1)), p111)
    _, side_a = shrink(decompose(big), ShrinkMode.AT_MOST)
    _, side_e = shrink(decompose(big), ShrinkMode.EXACT)
    assert side_a == Partition.of(9, 9, 9, 6, 6, 6, 3, 3, 3, 3)
    assert side_e == Partition.of(9, 9, 6, 6, 6, 3, 3, 3, 3)


@criterion(3, "pivot bijection is an exact roundtrip on all small instances")
def test_criterion_03_bijection_roundtrip():
    total = 0
    for profile in all_profiles(3, 3):
        bound = min(profile.rank - 1, profile.level - 1)
        pairs = set()
        pool = enumerate_by_weight(profile, 12)
        for cp in pool:
            mu, beta = pivot_decompose(cp)
            assert mu.weight + beta.weight == cp.weight
            assert all(run <= bound for run in beta.run_lengths())
            assert pivot_reconstruct(mu, beta, profile) == cp
            key = (mu.parts, beta.entries)
            assert key not in pairs
            pairs.add(key)
        total += len(pool)
    assert total > 5000, f"only {total} instances exercised"


@criterion(4, "distinct-part series, path counts, and closed forms")
def test_criterion_04_distinct_parts():
    for parts in [(2, 1), (1, 1, 1), (4, 0), (2, 0, 0)]:
        profile = Profile(parts)
        assert distinct_gf(profile, 12).coeffs == \
            count_distinct_series(profile, 12).coeffs, profile

    assert path_counts(Profile.of(1, 1, 1), 7).totals == \
        (1, 3, 6, 12, 24, 48, 96, 192)
    assert path_counts(Profile.of(4, 0), 7).totals == (1, 1, 2, 3, 6, 9, 18, 27)

    report = verify_closed_form(Profile.of(1, 1, 1),
                                [(Fraction(3, 2), 2, 0)], [Fraction(-1, 2)],
                                25, ring=QQ)
    assert report.ok and "irrational parts cancel: True" in report.detail

    K5 = QuadraticField(5)
    s5 = K5.sqrt()
    report = verify_closed_form(
        Profile.of(2, 0, 0),
        [((1 + s5 * Fraction(1, 5)) * Fraction(1, 2), (1 + s5) * Fraction(1, 2), 0),
         ((1 - s5 * Fraction(1, 5)) * Fraction(1, 2), (1 - s5) * Fraction(1, 2), 0)],
        [], 25, ring=K5)
    assert report.ok and "irrational parts cancel: True" in report.detail

    K3 = QuadraticField(3)
    s3 = K3.sqrt()
    report = verify_closed_form(
        Profile.of(4, 0),
        [((2 + s3) * Fraction(1, 6), s3, 0),
         ((2 - s3) * Fraction(1, 6), -s3, 0)],
        [Fraction(1, 3)], 25, ring=K3)
    assert report.ok and "irrational parts cancel: True" in report.detail


@criterion(5, "transfer matrices: blocks, characteristic polynomials, symmetry")
def test_criterion_05_matrix_structure():
    _, mat, sizes = adjacency_matrix(build_graph(3, 2))
    assert mat == [[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 1, 1],
                   [1, 1, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                   [0, 0, 1, 1, 0, 0], [0, 0, 1, 0, 0, 0]]
    blocks = diagonal_blocks(matrix_power(mat, 3), sizes)
    assert blocks == [[[1, 2], [2, 3]], [[3, 2], [2, 1]], [[3, 2], [2, 1]]]
    for block in blocks:
        assert char_poly(block) == QPoly((-1, -4, 1))

    _, mat3, sizes3 = adjacency_matrix(build_graph(3, 3))
    blocks3 = diagonal_blocks(matrix_power(mat3, 3), sizes3)
    polys = {len(b): char_poly(b) for b in blocks3}
    assert polys[4] == polys[3].shift(1)

    for level in range(1, 13):
        _, m2, s2 = adjacency_matrix(build_graph(2, level))
        sq = matrix_power(m2, 2)
        assert all(sq[i][j] == sq[j][i]
                   for i in range(len(sq)) for j in range(len(sq)))
        diagonal_blocks(sq, s2)

    # rank-2 level-4 family: the small block is [[2,1],[1,2]], whose
    # characteristic polynomial (x-3)(x-1) makes 3 its top eigenvalue
    _, m24, s24 = adjacency_matrix(build_graph(2, 4))
    small = diagonal_blocks(matrix_power(m24, 2), s24)[1]
    assert small == [[2, 1], [1, 2]]
    p = char_poly(small)
    assert p == QPoly((3, -4, 1)) and p(3) == 0


@criterion(6, "bounded-part numerators: positivity, value at one, enumeration")
def test_criterion_06_polynomials():
    for rank in (2, 3):
        for level in (1, 2, 3):
            fam = family(rank, level)
            count = math.comb(level + rank - 1, rank - 1)
            for n in range(7):
                for c in fam.shapes:
                    for poly, base in [(fam.parts_at_most(n, c), count),
                                       (fam.largest_part_exact(n, c), count),
                                       (fam.pivot_lineup(n, c), count - rank)]:
                        assert all(x >= 0 for x in poly.coeffs)
                        assert poly(1) == base ** n

    for profile in all_profiles(3, 3):
        for n in range(5):
            assert parts_at_most_series(profile, n, 12).coeffs == \
                count_max_at_most(profile, n, 12).coeffs, (profile, n)
            assert largest_part_exact_series(profile, n, 12).coeffs == \
                count_max_exactly(profile, n, 12).coeffs, (profile, n)
        F = f_truncated(profile, 12)
        assert at_z_one(F).coeffs == borodin_product(profile, 12).coeffs


@criterion(7, "two-variable functional equation to q^10")
def test_criterion_07_functional_equation():
    for parts in [(2, 1), (1, 1, 1)]:
        check = check_functional_equation(Profile(parts), 10)
        assert check.ok, check.detail


@criterion(8, "lineup enumeration: counts, classifications, index sets")
def test_criterion_08_lineups():
    profile = Profile.of(1, 1, 0)   # rank 3, level 2 family
    for n in range(5):
        assert len(enumerate_minimal_loose(n, profile)) == 3 ** n

    mj = classify(profile, [slice_with(profile, Shape.of(2, 2), 9),
                            slice_with(profile, Shape.of(2, 1), 5),
                            slice_with(profile, Shape.of(2, 0), 1)])
    assert mj.classification == "minimal-jammed" and mj.iota == frozenset({3})
    ml = classify(profile, [slice_with(profile, Shape.of(2, 2), 12),
                            slice_with(profile, Shape.of(2, 1), 8),
                            slice_with(profile, Shape.of(2, 0), 4)])
    assert ml.classification == "minimal-loose" and ml.iota == frozenset()
    bad = classify(profile, [slice_with(profile, Shape.of(2, 2), 3),
                             slice_with(profile, Shape.of(2, 1), 2),
                             slice_with(profile, Shape.of(2, 0), 1)])
    assert bad.classification == "none"

    p020 = Profile.of(0, 2, 0)
    assert not any(l.slices[-1].weight == 1
                   for l in enumerate_minimal_jammed(1, p020))

    p400 = Profile.of(4, 0, 0)
    texts = [l.to_text() for l in enumerate_minimal_jammed(3, p400)]
    assert any(t.startswith("5^(4,1),9^(4,2),10^(4,3)") and "iota={1,3}" in t
               for t in texts)
    assert any(t.startswith("5^(4,1),6^(4,2),10^(4,3)") and "iota={2,3}" in t
               for t in texts)

    for parts in [(1, 1, 0), (0, 2, 0), (2, 1), (1, 1, 1)]:
        prof = Profile(parts)
        b = math.comb(prof.level + prof.rank - 1, prof.rank - 1)
        for n in range(1, 4):
            assert len(enumerate_minimal_jammed(n, prof)) <= \
                (2 ** n - 1) * (b - prof.rank) ** n


@criterion(9, "pivot-chain identities and the corrected numerators, q^14")
def test_criterion_09_pivot_identities():
    for profile in all_profiles(3, 3):
        b = math.comb(profile.level + profile.rank - 1, profile.rank - 1)
        for n in range(4):
            report = lemma_check(n, profile, 14)
            assert report.ok, str(report)
            lhs = pivot_corrected_poly(profile, n)
            assert lhs == pivot_lineup_poly(profile, n) + \
                minimal_jammed_correction(n, profile), (profile, n)
            assert lhs(1) == (b - profile.rank) ** n
        report = qconj_genfunc_check(profile, 14, 3)
        assert report.ok, str(report)


@criterion(10, "Rogers-Ramanujan series equals its product to q^30")
def test_criterion_10_rogers_ramanujan():
    order = 30
    total = TruncatedSeries.zero(ZZ, order)
    n = 0
    while n * n <= order:
        total = total + TruncatedSeries.one(ZZ, order).mul_inv_poch(n).shift(n * n)
        n += 1
    product = product_inv_factors([(1, 5), (4, 5)], order)
    assert total.coeffs == product.coeffs


if __name__ == "__main__":
    failed = 0
    for run in _criteria:
        try:
            run()
        except BaseException as exc:  # noqa: BLE001 - report and keep going
            failed += 1
            print(f"  details: {type(exc).__name__}: {exc}")
    sys.exit(1 if failed else 0)
