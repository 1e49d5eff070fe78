import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylpart import (Partition, Profile, RankMismatch,
                     RowCountMismatch, Shape, ViolatedInequality, all_shapes,
                     delta, delta_shapes, empty_partition, parse_cylindric,
                     parse_profile, shape_of_zero, shape_to_profile, validate)
from cylpart.core import LevelTooSmall
from cylpart.oracle import enumerate_by_weight

from conftest import all_profiles


def P(*parts):
    return Partition(tuple(parts))


class TestPartition:
    def test_basic(self):
        p = P(5, 4, 1)
        assert p.weight == 10
        assert p.part(1) == 5 and p.part(4) == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            P(1, 2)
        with pytest.raises(ValueError):
            P(3, 0)

    def test_conjugate_involution(self):
        p = P(4, 2, 2, 1)
        assert p.conjugate() == P(4, 3, 1, 1)
        assert p.conjugate().conjugate() == p


class TestValidate:
    def test_worked_example(self):
        cp = validate((P(10, 5, 4, 1), P(12, 8, 5, 3), P(7, 6, 4, 2)),
                      Profile.of(1, 2, 0))
        assert cp.weight == 67
        assert cp.max_part == 12

    def test_empty_is_valid_for_any_profile(self):
        for prof in all_profiles(3, 3):
            cp = empty_partition(prof)
            assert cp.weight == 0 and cp.max_part == 0 and cp.is_empty

    def test_short_rows_leave_inequalities_vacuous(self):
        # Both shifted comparisons run off the ends of these rows.
        cp = validate((P(1), P(2), Partition()), Profile.of(1, 2, 0))
        assert cp.weight == 3

    def test_violation_is_located(self):
        with pytest.raises(ViolatedInequality) as exc:
            validate((Partition(), Partition(), P(1)), Profile.of(1, 2, 0))
        assert (exc.value.i, exc.value.j) == (2, 1)

    def test_row_count(self):
        with pytest.raises(RowCountMismatch):
            validate((P(1),), Profile.of(1, 2, 0))

    def test_weight_and_max(self):
        cp = validate((P(5, 4), P(8, 2), P(7, 5, 1)), Profile.of(1, 1, 1))
        assert (cp.weight, cp.max_part) == (32, 8)

    def test_agrees_with_enumeration(self):
        # validate accepts exactly what the exhaustive search produces
        for prof in all_profiles(3, 3):
            if prof.level > 3:
                continue
            found = enumerate_by_weight(prof, 10)
            texts = {cp.to_text() for cp in found}
            assert len(texts) == len(found)
            for cp in found:
                assert validate(cp.rows, prof) == cp


class TestShapes:
    def test_shape_of_zero_examples(self):
        assert shape_of_zero(Profile.of(2, 1)) == Shape.of(1)
        assert shape_of_zero(Profile.of(1, 1, 1)) == Shape.of(2, 1)
        assert shape_of_zero(Profile.of(0, 3, 0)) == Shape.of(3, 0)

    def test_shape_to_profile_examples(self):
        assert shape_to_profile(Shape.of(2, 1), 3) == Profile.of(1, 1, 1)
        assert shape_to_profile(Shape.of(1), 3) == Profile.of(2, 1)
        assert shape_to_profile(Shape.of(0, 0, 0), 4) == Profile.of(4, 0, 0, 0)

    def test_roundtrip_small_families(self):
        for r in range(1, 5):
            for level in range(1, 5):
                shapes = all_shapes(r, level)
                assert len(shapes) == _binom(level + r - 1, r - 1)
                for s in shapes:
                    assert shape_of_zero(shape_to_profile(s, level)) == s

    def test_level_too_small(self):
        with pytest.raises(LevelTooSmall):
            shape_to_profile(Shape.of(4, 1), 3)


def _binom(n, k):
    import math
    return math.comb(n, k)


class TestDelta:
    def test_paper_pair(self):
        assert delta(Profile.of(1, 1, 1), Profile.of(0, 0, 2)) == 1
        assert delta(Profile.of(0, 0, 2), Profile.of(1, 1, 1)) == 2

    def test_reflexive_zero(self):
        for prof in all_profiles(3, 4):
            assert delta(prof, prof) == 0

    def test_shape_overload(self):
        assert delta_shapes(Shape.of(0, 0), Shape.of(4, 1), 5) == 5
        assert delta_shapes(Shape.of(4, 1), Shape.of(4, 2), 5) == 1
        assert delta_shapes(Shape.of(4, 2), Shape.of(4, 3), 5) == 1

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            delta(Profile.of(1, 1), Profile.of(1, 1, 1))
        with pytest.raises(RankMismatch):
            delta_shapes(Shape.of(1), Shape.of(1, 0), 3)

    def test_shapes_must_fit_the_level(self):
        with pytest.raises(LevelTooSmall):
            delta_shapes(Shape.of(4, 1), Shape.of(0, 0), 3)
        with pytest.raises(LevelTooSmall):
            delta_shapes(Shape.of(0, 0), Shape.of(4, 1), 3)

    def test_rank_one_is_zero(self):
        # Rank 1 has the one empty shape, so the max runs over nothing.
        assert delta(Profile.of(3), Profile.of(2)) == 0
        assert delta_shapes(Shape(), Shape(), 2) == 0

    def test_matches_the_profile_sum_form(self):
        # The textbook form on compositions: sum_{k>=2} (k-1)(d_k - c_k)
        # + r * max(0, max_j (c_j + ... + c_r) - (d_j + ... + d_r)).
        for c in all_profiles(4, 3):
            for d in all_profiles(4, 3):
                if c.rank != d.rank:
                    continue
                r = c.rank
                lin = sum((k - 1) * (d.parts[k - 1] - c.parts[k - 1])
                          for k in range(2, r + 1))
                worst = max([0] + [sum(c.parts[j:]) - sum(d.parts[j:])
                                   for j in range(1, r)])
                assert delta(c, d) == lin + r * worst, (c, d)
                level = max(c.level, d.level)
                assert delta_shapes(shape_of_zero(c), shape_of_zero(d), level) \
                    == delta(c, d)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_congruent(self, data):
        r = data.draw(st.integers(1, 4))
        level = data.draw(st.integers(1, 4))
        c = data.draw(st.sampled_from([p for p in all_profiles(r, level)
                                       if p.rank == r and p.level == level]))
        d = data.draw(st.sampled_from([p for p in all_profiles(r, level)
                                       if p.rank == r and p.level == level]))
        value = delta(c, d)
        assert value >= 0
        sigma, tau = shape_of_zero(c), shape_of_zero(d)
        assert value % r == (tau.weight - sigma.weight) % r


class TestAddition:
    def test_componentwise_sum_stays_valid(self):
        prof = Profile.of(1, 2, 0)
        pool = enumerate_by_weight(prof, 6)
        for a in pool[::7]:
            for b in pool[::11]:
                total = a + b
                assert validate(total.rows, prof) == total
                assert total.weight == a.weight + b.weight
                assert total.max_part <= a.max_part + b.max_part

    def test_profile_mismatch(self):
        with pytest.raises(RankMismatch):
            empty_partition(Profile.of(1, 1)) + empty_partition(Profile.of(2, 0))


class TestTextForms:
    def test_roundtrip(self):
        cp = validate((P(10, 5, 4, 1), P(12, 8, 5, 3), P(7, 6, 4, 2)),
                      Profile.of(1, 2, 0))
        text = cp.to_text()
        assert text == "c=(1,2,0) 10,5,4,1|12,8,5,3|7,6,4,2"
        assert parse_cylindric(text) == cp

    def test_rows_only_with_profile(self):
        cp = parse_cylindric("5,4|8,2|7,5,1", Profile.of(1, 1, 1))
        assert cp.rows[2] == P(7, 5, 1)

    def test_empty_partition_text(self):
        cp = empty_partition(Profile.of(1, 2, 0))
        assert parse_cylindric(cp.to_text()) == cp

    def test_parse_profile_forms(self):
        assert parse_profile("c=(1,2,0)") == Profile.of(1, 2, 0)
        assert parse_profile("1,2,0") == Profile.of(1, 2, 0)

    def test_json(self):
        cp = validate((P(2, 1), P(2)), Profile.of(1, 1))
        js = cp.to_json()
        assert js["weight"] == "5" and js["rows"] == [[2, 1], [2]]
