import math
import sys
import threading
from operator import add

import pytest

from cylpart import (Profile, QPoly, Shape, borodin_product, count_bivariate,
                     delta, family, f_truncated, check_functional_equation,
                     shape_of_zero, shape_to_profile)
from cylpart.oracle import count_max_at_most, count_max_exactly
from cylpart.cli import main
from cylpart.polynomials import (PolynomialFamily, _unpack, largest_part_exact_series,
                                 parts_at_most_poly, parts_at_most_series,
                                 pivot_corrected_poly, pivot_lineup_poly)
from cylpart.qpoly import q_binomial
from cylpart.rings import ZZ, ZZ_z
from cylpart.series import (TruncatedSeries, at_z_one, inv_zq_pochhammer,
                            subst_z_mul_qpow, z_power_times)

from conftest import all_profiles, mul_one_plus
from references import min_slice_weight

SHAPE_ORDER_32 = [Shape.of(0, 0), Shape.of(1, 0), Shape.of(1, 1),
                  Shape.of(2, 0), Shape.of(2, 1), Shape.of(2, 2)]


class TestUpdateMatrix:
    def test_rank3_level2_exponents(self):
        fam = family(3, 2)
        got = [[fam.dist(c, d) for d in SHAPE_ORDER_32] for c in SHAPE_ORDER_32]
        assert got == [[0, 1, 2, 2, 3, 4],
                       [2, 0, 1, 1, 2, 3],
                       [1, 2, 0, 3, 1, 2],
                       [4, 2, 3, 0, 1, 2],
                       [3, 1, 2, 2, 0, 1],
                       [2, 3, 1, 4, 2, 0]]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "an exponent-table variant with 1 and 4 in column (1,1) of rows "
        "(0,0) and (2,2) is refuted by the minimal slices of shape (1,1) "
        "over those bases, which have weights 2 and 1"))
    def test_rank3_level2_exponent_variant_refuted(self):
        fam = family(3, 2)
        got = [[fam.dist(c, d) for d in SHAPE_ORDER_32] for c in SHAPE_ORDER_32]
        assert got[0] == [0, 1, 1, 2, 3, 4] and got[5] == [2, 3, 4, 4, 2, 0]

    def test_pivot_matrices_rank3_level2(self):
        fam = family(3, 2)
        piv = fam.pivot_shapes
        assert [s.parts for s in piv] == [(2, 0), (2, 1), (2, 2)]
        assert [[fam.dist(c, d) + 3 for d in piv] for c in piv] == \
            [[3, 4, 5], [5, 3, 4], [7, 5, 3]]
        nonpiv = [s for s in fam.shapes if s not in piv]
        assert [[fam.dist(c, d) + 3 for d in piv] for c in nonpiv] == \
            [[5, 6, 7], [4, 5, 6], [6, 4, 5]]


    @pytest.mark.parametrize("rank,level", [(1, 1), (1, 3), (2, 3), (3, 3), (4, 2)])
    def test_dist_is_delta_of_the_zero_profiles(self, rank, level):
        fam = family(rank, level)
        for a in fam.shapes:
            pa = shape_to_profile(a, level)
            for b in fam.shapes:
                assert fam.dist(a, b) == delta(pa, shape_to_profile(b, level)) \
                    == min_slice_weight(pa, b), (a, b)


class TestTables:
    @pytest.mark.parametrize("rank,level", [(2, 1), (2, 2), (2, 3),
                                            (3, 1), (3, 2), (3, 3)])
    def test_positivity_and_value_at_one(self, rank, level):
        fam = family(rank, level)
        count = math.comb(level + rank - 1, rank - 1)
        for n in range(7):
            for c in fam.shapes:
                for poly, base in [(fam.parts_at_most(n, c), count),
                                   (fam.largest_part_exact(n, c), count),
                                   (fam.pivot_lineup(n, c), count - rank)]:
                    assert all(x >= 0 for x in poly.coeffs)
                    assert poly(1) == base ** n

    def test_base_case(self):
        fam = family(3, 3)
        for c in fam.shapes:
            assert fam.parts_at_most(0, c) == QPoly.one()
            assert fam.largest_part_exact(0, c) == QPoly.one()
            assert fam.pivot_lineup(0, c) == QPoly.one()

    def test_pivot_corrected_value_at_one(self, small_profiles):
        for prof in small_profiles:
            count = math.comb(prof.level + prof.rank - 1, prof.rank - 1)
            for n in range(4):
                assert pivot_corrected_poly(prof, n)(1) == \
                    (count - prof.rank) ** n

    def test_full_degree_kept(self):
        assert parts_at_most_poly(Profile.of(2, 1, 1), 20).degree == 1620

    @pytest.mark.parametrize("order", [0, 3, 12])
    def test_truncated_tables_match_full_degree(self, small_profiles, order):
        for prof in small_profiles:
            fam = family(prof.rank, prof.level)
            for n in range(7):
                for c in fam.shapes:
                    for table in (fam.parts_at_most, fam.largest_part_exact):
                        assert table(n, c, order) == \
                            QPoly(table(n, c).truncated(order)), (prof, n, c)

    @pytest.mark.parametrize("order", [0, 3, 12])
    def test_truncated_pivot_lineup_matches_full_degree(self, small_profiles, order):
        for prof in small_profiles:
            fam = family(prof.rank, prof.level)
            for n in range(5):
                for c in fam.shapes:
                    assert fam.pivot_lineup(n, c, order) == \
                        QPoly(fam.pivot_lineup(n, c).truncated(order)), (prof, n, c)

    def test_rank_one_degenerate(self):
        fam = family(1, 2)
        assert fam.pivot_shapes == []
        assert fam.pivot_lineup(0, Shape(())) == QPoly.one()
        assert fam.pivot_lineup(2, Shape(())) == QPoly.zero()
        assert fam.parts_at_most(3, Shape(()))(1) == 1


def _accumulate(terms, order):
    """Sum of p * q^k over the pairs (p, k) in ``terms``, dropping powers of
    q above ``order``; ``order=None`` keeps every power."""
    out: list = []
    for p, k in terms:
        cs = p.coeffs
        if order is not None:
            if k > order:
                continue
            cs = cs[:order + 1 - k]
        end = k + len(cs)
        if end > len(out):
            out.extend([0] * (end - len(out)))
        out[k:end] = map(add, out[k:end], cs)
    return QPoly(out)


def reference_entries(fam, n, order=None):
    """The dict recurrence the packed tables replaced, coefficient lists
    added one int at a time: shape -> (parts_at_most, largest_part_exact,
    pivot_lineup) at n, truncated at ``order``."""
    def layers(shapes, extra, top):
        out = [dict.fromkeys(shapes, QPoly.one())]
        for k in range(1, top + 1):
            prev = out[-1]
            out.append({c: _accumulate(((prev[d], k * (fam.dist(c, d) + extra))
                                        for d in shapes), order)
                        for c in shapes})
        return out

    r = fam.rank
    full = layers(fam.shapes, 0, n)
    pivot = layers(fam.pivot_shapes, r, n)
    got = {}
    for c in fam.shapes:
        if n == 0:
            got[c] = (QPoly.one(), QPoly.one(), QPoly.one())
            continue
        exact = _accumulate(((full[n - 1][d], n * (r if d == c else fam.dist(c, d)))
                             for d in fam.shapes), order)
        if c in fam.pivot_shapes:
            lineup = pivot[n][c]
        else:
            lineup = _accumulate(((pivot[n - 1][d], n * (fam.dist(c, d) + r))
                                  for d in fam.pivot_shapes), order)
        got[c] = (full[n][c], exact, lineup)
    return got


def entries(fam, n, order=None):
    return {c: (fam.parts_at_most(n, c, order), fam.largest_part_exact(n, c, order),
                fam.pivot_lineup(n, c, order))
            for c in fam.shapes}


def slot_bytes(fam, order=None):
    """Slot width of the family's parts_at_most table at ``order``."""
    return fam._parts_at_most[order][0]


class TestPackedTables:
    @pytest.mark.parametrize("n,width", [(7, 1), (8, 2), (15, 2), (16, 3)])
    def test_byte_boundary_widths(self, n, width):
        # |S| = 2, so layer n needs n + 1 bits: slots are full at n = 7, 15.
        fam = PolynomialFamily(2, 1)
        assert len(fam.shapes) == 2
        for c in fam.shapes:
            fam.parts_at_most(n, c)
        assert slot_bytes(fam) == width
        for order in (None, 3, 40):
            assert entries(fam, n, order) == reference_entries(fam, n, order), order

    @pytest.mark.parametrize("n", range(9))
    def test_rank3_level3_against_dict_recurrence(self, n):
        fam = PolynomialFamily(3, 3)
        for order in (None, 0, 7):
            assert entries(fam, n, order) == reference_entries(fam, n, order), order

    @pytest.mark.parametrize("order", [None, 10])
    def test_growth_order_matches_one_request(self, order):
        grown = PolynomialFamily(3, 3)
        widths = []
        for n in [*range(13), 5, 20]:
            entries(grown, n, order)
            widths.append(slot_bytes(grown, order))
        once = PolynomialFamily(3, 3)
        entries(once, 20, order)
        for n in range(21):
            assert entries(grown, n, order) == entries(once, n, order), n
        # Each build widens the slots, at least doubling them after the
        # first, so 15 requests up to n = 20 build O(log 20) tables.
        builds = len(set(widths))
        assert widths == sorted(widths)
        assert builds <= 1 + math.ceil(math.log2(20)), widths
        assert len(grown._parts_at_most[order][1]) == 21

    def test_request_builds_no_layer_past_n(self):
        fam = PolynomialFamily(3, 3)
        c = fam.shapes[0]
        fam.largest_part_exact(12, c)
        assert len(fam._parts_at_most[None][1]) == 12
        fam.pivot_lineup(6, fam.pivot_shapes[0])
        assert len(fam._pivot_lineup[None][1]) == 7

    def test_empty_entries_unpack_to_zero(self):
        for width in (1, 2, 3, 9):
            assert _unpack(0, width) == QPoly.zero()
        fam = PolynomialFamily(1, 2)
        for n in range(1, 5):
            for order in (None, 0, 6):
                assert fam.pivot_lineup(n, Shape(()), order) == QPoly.zero()
        fam = PolynomialFamily(3, 3)
        for n in range(1, 4):
            for c in fam.shapes:
                assert fam.largest_part_exact(n, c, 0) == QPoly.zero()
                assert fam.pivot_lineup(n, c, 0) == QPoly.zero()
                assert fam.parts_at_most(n, c, 0) == QPoly.one()

    def test_poly_csv_rows_match_dict_recurrence(self, capsys):
        assert main(["poly", "P", "--profile", "2,1", "--n", "6", "--format", "csv"]) == 0
        fam = family(2, 3)   # profile (2,1): rank 2, level 3
        want = [["rank", "level", "n", "shape", "value_at_1", "min_coefficient"]]
        for n in range(7):
            ref = reference_entries(fam, n)
            for sh in fam.shapes:
                poly = ref[sh][0]
                want.append([2, 3, n, f"({'-'.join(map(str, sh.parts))})",
                             poly(1), min(poly.coeffs)])
        assert capsys.readouterr().out.splitlines() == \
            [",".join(map(str, row)) for row in want]


class TestThreadedExtension:
    def test_concurrent_extension_matches_serial(self):
        serial = PolynomialFamily(3, 3)
        want = [{c: (serial.parts_at_most(n, c), serial.pivot_lineup(n, c))
                 for c in serial.shapes} for n in range(9)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # Without the lock a layer is duplicated in only some trials;
            # 60 trials make a miss unlikely.
            for _ in range(60):
                fam = PolynomialFamily(3, 3)
                start = threading.Barrier(4)

                def extend():
                    start.wait(timeout=30)
                    for c in fam.shapes:
                        fam.parts_at_most(8, c)
                        fam.pivot_lineup(8, c)

                threads = [threading.Thread(target=extend) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                got = [{c: (fam.parts_at_most(n, c), fam.pivot_lineup(n, c))
                        for c in fam.shapes} for n in range(9)]
                assert got == want
        finally:
            sys.setswitchinterval(old_interval)


class TestAgainstEnumeration:
    @pytest.mark.parametrize("profile", [
        Profile.of(2, 1), Profile.of(3, 0), Profile.of(1, 1, 1),
        Profile.of(0, 2, 0), Profile.of(1, 2, 0)])
    def test_bounded_series(self, profile):
        for n in range(5):
            assert parts_at_most_series(profile, n, 12).coeffs == \
                count_max_at_most(profile, n, 12).coeffs
            assert largest_part_exact_series(profile, n, 12).coeffs == \
                count_max_exactly(profile, n, 12).coeffs

    def test_two_variable_series(self):
        for profile in [Profile.of(1, 1, 1), Profile.of(2, 1)]:
            F = f_truncated(profile, 10)
            assert F.coeffs == count_bivariate(profile, 10).coeffs
            assert at_z_one(F).coeffs == borodin_product(profile, 10).coeffs
            assert F.coeffs[0] == QPoly.one()

    def test_z_one_specializes_to_product(self, small_profiles):
        for profile in small_profiles[::3]:
            F = f_truncated(profile, 8)
            assert at_z_one(F).coeffs == borodin_product(profile, 8).coeffs


class TestFunctionalEquation:
    @pytest.mark.parametrize("profile", [Profile.of(2, 1), Profile.of(1, 1, 1)])
    def test_holds_to_order_ten(self, profile):
        check = check_functional_equation(profile, 10)
        assert check.ok, check.detail

    def test_more_profiles(self):
        for profile in [Profile.of(0, 2, 0), Profile.of(3, 0), Profile.of(1, 3)]:
            check = check_functional_equation(profile, 8)
            assert check.ok, check.detail

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "replacing the q^rank shift of the self term by a plain q shift "
        "breaks the identity for ranks above 1"))
    def test_plain_q_shift_variant(self):
        from cylpart.polynomials import family as fam_of
        from cylpart.core import shape_to_profile
        profile = Profile.of(2, 1)
        order = 8
        fam = fam_of(profile.rank, profile.level)
        c = shape_of_zero(profile)
        F = {d: f_truncated(shape_to_profile(d, profile.level), order)
             for d in fam.shapes}
        one_minus_z = QPoly((1, -1))
        z = QPoly((0, 1))
        lhs = F[c]
        rhs = subst_z_mul_qpow(F[c], 1).mul_inv_one_minus(1, z).scale(one_minus_z)
        for d in fam.shapes:
            k = fam.dist(c, d)
            if k == 0:
                rhs = rhs + F[d].scale(z)
            else:
                rhs = rhs + (subst_z_mul_qpow(F[d], k).mul_inv_one_minus(k, z)
                             .scale(one_minus_z).shift(k).scale(z))
        assert lhs.coeffs == rhs.coeffs


class TestSeriesOverZz:
    def test_inv_one_minus_zq_inverse_pair(self):
        z = QPoly((0, 1))
        for profile in [Profile.of(2, 1), Profile.of(1, 1, 1)]:
            F = f_truncated(profile, 10)
            for k in (1, 2, 3):
                back = mul_one_plus(F.mul_inv_one_minus(k, z), k, -z)
                assert back.coeffs == F.coeffs, (profile, k)

    def test_inv_zq_pochhammer_equals_sum(self):
        order = 12
        # the sum of z^m q^m / (q;q)_m
        total = TruncatedSeries.zero(ZZ_z, order)
        for m in range(order + 1):
            one = TruncatedSeries.one(ZZ, order)
            total = total + z_power_times(m, one.mul_inv_poch(m).shift(m))
        assert inv_zq_pochhammer(order).coeffs == total.coeffs

    @staticmethod
    def f_summed(profile, order):
        """The two-variable series as the sum of z^n times the
        largest-part-exactly-n series: the reference for f_truncated."""
        total = TruncatedSeries.zero(ZZ_z, order)
        for n in range(order + 1):
            total = total + z_power_times(n, largest_part_exact_series(profile, n, order))
        return total

    def test_f_truncated_equals_summed_rows(self):
        for profile in all_profiles(3, 3) + all_profiles(4, 2):
            for order in range(11):
                assert f_truncated(profile, order) == self.f_summed(profile, order), \
                    (profile, order)

    def test_str_names_z(self):
        assert str(inv_zq_pochhammer(2)) == "1 + (z)*q + (z + z^2)*q^2 + O(q^3)"


class TestPivotCorrected:
    def test_base_and_small_cases(self):
        prof = Profile.of(1, 1, 0)
        assert pivot_corrected_poly(prof, 0) == QPoly.one()
        got = pivot_corrected_poly(prof, 1)
        # the three singleton lineups 1^(2,0), 2^(2,1), 3^(2,2) shrink to
        # weights 1, 2, 3 with sign corrections restoring positivity
        assert got(1) == 3

    def test_agrees_with_lineup_correction(self):
        from cylpart.lineups import minimal_jammed_correction
        for profile in [Profile.of(1, 1, 0), Profile.of(0, 2, 0),
                        Profile.of(2, 1), Profile.of(1, 1, 1)]:
            for n in range(4):
                assert pivot_corrected_poly(profile, n) == \
                    pivot_lineup_poly(profile, n) + \
                    minimal_jammed_correction(n, profile)

    def test_binomial_substitution(self):
        assert q_binomial(2, 1).subst_power(3) == QPoly((1, 0, 0, 1))
