import sys
import threading
from collections import Counter

import pytest

from cylpart import (Partition, Profile, borodin_product, count_bivariate,
                     count_distinct_series, count_series, enumerate_by_weight,
                     validate)
from cylpart import oracle
from cylpart.core import RowCountMismatch, ViolatedInequality, check_rows
from cylpart.oracle import count_max_at_most, count_max_exactly
from cylpart.series import at_z_one
from cylpart.slices import decompose, recompose

from conftest import all_profiles


def has_distinct_parts(cp):
    """True when the multiset of all positive parts across rows has no repeats."""
    parts = [p for row in cp.rows for p in row.parts]
    return len(set(parts)) == len(parts)


class TestEnumeration:
    def test_weight_zero(self):
        for prof in [Profile.of(2, 1), Profile.of(1, 2, 0)]:
            found = enumerate_by_weight(prof, 0)
            assert len(found) == 1 and found[0].is_empty

    def test_duplicate_free_and_sorted(self):
        found = enumerate_by_weight(Profile.of(1, 1, 1), 8)
        texts = [cp.to_text() for cp in found]
        assert len(set(texts)) == len(texts)
        assert [cp.weight for cp in found] == sorted(cp.weight for cp in found)

    def test_large_example_out_of_range_but_valid(self):
        prof = Profile.of(2, 1)
        rows = (Partition.of(15, 15, 10, 10, 6, 5), Partition.of(18, 13, 6, 6))
        cp = validate(rows, prof)
        assert cp.weight == 104
        assert cp.to_text() not in {x.to_text() for x in enumerate_by_weight(prof, 20)}

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            enumerate_by_weight(Profile.of(1, 1), 40)
        # At the cap itself the census runs in full and matches the product.
        census = count_series(Profile.of(1, 1), 35, cap=35)
        assert census.coeffs == borodin_product(Profile.of(1, 1), 35).coeffs
        assert sum(census.coeffs) == 487_560

    def test_closed_under_slice_recomposition(self):
        pool = enumerate_by_weight(Profile.of(1, 2, 0), 9)
        texts = {cp.to_text() for cp in pool}
        for cp in pool:
            assert recompose(decompose(cp)).to_text() in texts


class TestCounting:
    def test_constant_term(self, small_profiles):
        for prof in small_profiles[::5]:
            assert count_series(prof, 4).coeffs[0] == 1

    def test_matches_product_small(self):
        for prof in [Profile.of(2, 1), Profile.of(4, 3), Profile.of(1, 2, 0),
                     Profile.of(0, 1, 2), Profile.of(1, 1, 1, 1)]:
            order = 8
            assert count_series(prof, order).coeffs == \
                borodin_product(prof, order).coeffs

    def test_matches_product_every_small_family(self):
        for prof in all_profiles(3, 4):
            assert count_series(prof, 12).coeffs == \
                borodin_product(prof, 12).coeffs, prof

    def test_bivariate_specializes(self):
        prof = Profile.of(1, 1, 1)
        two = count_bivariate(prof, 9)
        assert at_z_one(two).coeffs == count_series(prof, 9).coeffs
        assert two.coeffs[0].coeffs == (1,)
        for n, zpoly in enumerate(two.coeffs):
            assert zpoly.degree <= n

    def test_max_part_filters(self):
        prof = Profile.of(2, 1)
        order = 10
        total = count_series(prof, order)
        stacked = count_max_at_most(prof, 0, order)
        for n in range(1, order + 1):
            stacked = stacked + count_max_exactly(prof, n, order)
        assert stacked.coeffs == total.coeffs
        assert count_max_at_most(prof, order, order).coeffs == total.coeffs


class TestDistinct:
    def test_small_counts(self):
        assert count_distinct_series(Profile.of(1, 1, 1), 3).coeffs == (1, 3, 3, 9)

    def test_repeated_parts_rejected(self):
        cp = validate((Partition.of(10, 5, 4, 1), Partition.of(12, 8, 5, 3),
                       Partition.of(7, 6, 4, 2)), Profile.of(1, 2, 0))
        assert not has_distinct_parts(cp)

    def test_distinct_within_one_row_counts(self):
        cp = validate((Partition.of(3, 1), Partition.of(4)), Profile.of(1, 1))
        assert has_distinct_parts(cp)
        bad = validate((Partition.of(3, 3), Partition.of(4)), Profile.of(1, 1))
        assert not has_distinct_parts(bad)

    def test_constant_term(self):
        assert count_distinct_series(Profile.of(0, 2, 0), 5).coeffs[0] == 1


class TestStreamingOracle:
    def test_counts_match_a_walk_over_the_enumeration(self, small_profiles):
        order = 10
        for prof in small_profiles:
            found = enumerate_by_weight(prof, order)

            def walk(keep):
                counts = [0] * (order + 1)
                for cp in found:
                    if keep(cp):
                        counts[cp.weight] += 1
                return tuple(counts)

            assert count_series(prof, order).coeffs == walk(lambda cp: True), prof
            assert count_distinct_series(prof, order).coeffs == \
                walk(has_distinct_parts), prof
            for bound in range(order + 2):
                assert count_max_at_most(prof, bound, order).coeffs == \
                    walk(lambda cp: cp.max_part <= bound), (prof, bound)
                assert count_max_exactly(prof, bound, order).coeffs == \
                    walk(lambda cp: cp.max_part == bound), (prof, bound)
            two = count_bivariate(prof, order)
            for n, zpoly in enumerate(two.coeffs):
                tops = [cp.max_part for cp in found if cp.weight == n]
                assert zpoly.coeffs == tuple(
                    tops.count(m) for m in range(max(tops, default=-1) + 1)), (prof, n)

    def test_returned_list_is_fresh(self):
        prof = Profile.of(1, 2, 0)
        first = enumerate_by_weight(prof, 6)
        expected = list(first)
        first.clear()
        assert enumerate_by_weight(prof, 6) == expected
        again = enumerate_by_weight(prof, 6)
        again.append(again[0])
        assert enumerate_by_weight(prof, 6) == expected

    def test_threads_share_the_census(self):
        prof, order = Profile.of(1, 1, 1), 10

        def calls():
            return (count_series(prof, order).coeffs,
                    count_bivariate(prof, order).coeffs,
                    count_max_exactly(prof, 3, order).coeffs)

        oracle._census.cache_clear()
        serial = calls()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                oracle._census.cache_clear()
                barrier = threading.Barrier(4)
                results = [None] * 4

                def worker(k):
                    barrier.wait(timeout=30)
                    results[k] = calls()

                threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert results == [serial] * 4
        finally:
            sys.setswitchinterval(switch)


def _reference_check(rows, profile):
    """The checks an enumerated hit went through before ``check_rows``: a
    ``Partition`` per row, then the cyclic-inequality loop of ``validate``."""
    rows = tuple(Partition(row) for row in rows)
    r = profile.rank
    if len(rows) != r:
        raise RowCountMismatch(f"profile has rank {r} but {len(rows)} rows given")
    for i in range(r):
        upper = rows[i]
        lower = rows[(i + 1) % r]
        shift = profile.parts[(i + 1) % r]
        for j in range(1, len(lower) - shift + 1):
            if upper.part(j) < lower.part(j + shift):
                raise ViolatedInequality(i + 1, j)


def _outcome(check, rows, profile):
    try:
        check(rows, profile)
    except (ValueError, RowCountMismatch, ViolatedInequality) as exc:
        return type(exc), getattr(exc, "i", None), getattr(exc, "j", None)
    return None


def _perturbed(rows):
    """Every single-part change of +-1, every appended or dropped last part,
    and the rows without their last row."""
    yield rows[:-1]
    for i, row in enumerate(rows):
        variants = [row + (1,), row + (row[-1] + 1,) if row else (2,), row[:-1]]
        for j in range(len(row)):
            for step in (-1, 1):
                variants.append(row[:j] + (row[j] + step,) + row[j + 1:])
        for new in variants:
            yield rows[:i] + (new,) + rows[i + 1:]


class TestCheckRows:
    @pytest.mark.parametrize("parts,order", [((1, 1, 1), 6), ((2, 1), 7),
                                             ((1, 2, 0), 6), ((0, 2, 1, 1), 5),
                                             ((3,), 6)])
    def test_same_errors_as_the_validate_loop(self, parts, order):
        prof = Profile(parts)
        kinds = set()
        for cp in enumerate_by_weight(prof, order):
            rows = tuple(row.parts for row in cp.rows)
            assert check_rows(rows, prof) is None
            for bad in _perturbed(rows):
                expected = _outcome(_reference_check, bad, prof)
                assert _outcome(check_rows, bad, prof) == expected, (prof, bad)
                kinds.add(expected and expected[0])
        assert {ValueError, RowCountMismatch} <= kinds
        if prof.rank > 1:
            assert ViolatedInequality in kinds


def _reference_rows_within(cap_row, lower_row, shift, budget):
    """The row enumeration the search used before it tallied as it went:
    all partitions with weight <= budget, part j <= cap_row[j - shift - 1]
    (no cap for j <= shift, 0 beyond the caps), and part j >=
    lower_row[j-1]."""
    out = []
    min_len = len(lower_row)
    if cap_row is None:
        caps = (budget,) * budget
    else:
        caps = ((budget,) * shift + tuple(cap_row) + (0,) * budget)[:budget]
    lows = tuple(lower_row) + (0,) * budget

    def rec(prefix, j, remaining, top):
        if j > min_len:
            out.append(tuple(prefix))
        if remaining <= 0:
            return
        hi = min(caps[j - 1], remaining, top)
        for p in range(hi, max(lows[j - 1], 1) - 1, -1):
            prefix.append(p)
            rec(prefix, j + 1, remaining - p, p)
            prefix.pop()

    rec([], 1, budget, budget)
    return out


def _reference_hits(profile, max_weight, cap):
    """The former search: rows of every hit, each checked by ``check_rows``."""
    if max_weight < 0:
        return
    if max_weight > cap:
        raise ValueError(f"weight bound {max_weight} exceeds the cap {cap}")
    r = profile.rank
    c = profile.parts

    def place(rows, budget):
        i = len(rows)
        if i == 0:
            choices = _reference_rows_within(None, (), 0, budget)
        elif i < r - 1:
            choices = _reference_rows_within(rows[i - 1], (), c[i], budget)
        else:
            choices = _reference_rows_within(rows[i - 1], rows[0][c[0]:], c[i], budget)
        for row in choices:
            rows.append(row)
            if i + 1 == r:
                hit = tuple(rows)
                check_rows(hit, profile)
                yield hit
            else:
                yield from place(rows, budget - sum(row))
            rows.pop()

    yield from place([], max_weight)


def _reference_census(profile, order, cap):
    """The former census: a recount of every hit's parts."""
    tally = Counter()
    for rows in _reference_hits(profile, order, cap):
        parts = [p for row in rows for p in row]
        tally[sum(parts), max(parts, default=0), len(set(parts)) == len(parts)] += 1
    return tuple(key + (n,) for key, n in sorted(tally.items()))


def _reference_texts(profile, max_weight):
    """Text forms of the former search's hits, in the enumeration's order."""
    def key(rows):
        return sum(map(sum, rows)), "|".join(",".join(map(str, row)) for row in rows)

    hits = sorted(_reference_hits(profile, max_weight, oracle.DEFAULT_WEIGHT_CAP), key=key)
    return [validate(tuple(map(Partition, rows)), profile).to_text() for rows in hits]


class TestSearch:
    def test_every_hit_is_valid_and_carries_its_own_tallies(self):
        weight = 10
        for prof in all_profiles(3, 3) + all_profiles(4, 2):
            hits = []

            def visit(rows, total, largest, distinct):
                assert check_rows(rows, prof) is None
                parts = [p for row in rows for p in row]
                assert (total, largest, distinct) == (
                    sum(parts), max(parts, default=0),
                    len(set(parts)) == len(parts)), (prof, rows)
                hits.append(tuple(rows))

            oracle._search(prof, weight, oracle.DEFAULT_WEIGHT_CAP, visit)
            assert hits and len(set(hits)) == len(hits), prof

    def test_matches_the_former_search(self):
        cap = oracle.DEFAULT_WEIGHT_CAP
        for prof in all_profiles(4, 3) + all_profiles(5, 2):
            for order in (0, 3, 8):
                assert oracle._census(prof, order, cap) == \
                    _reference_census(prof, order, cap), (prof, order)
                assert [cp.to_text() for cp in enumerate_by_weight(prof, order)] == \
                    _reference_texts(prof, order), (prof, order)

    def test_negative_bound_gives_no_hits(self):
        for prof in [Profile.of(2, 1), Profile.of(1, 1, 1), Profile.of(3)]:
            hits = []
            oracle._search(prof, -1, oracle.DEFAULT_WEIGHT_CAP,
                           lambda *hit: hits.append(hit))
            assert hits == []
            assert enumerate_by_weight(prof, -1) == []
            assert oracle._census(prof, -1, oracle.DEFAULT_WEIGHT_CAP) == ()
            assert list(_reference_hits(prof, -1, oracle.DEFAULT_WEIGHT_CAP)) == []

    def test_bound_above_cap_raises_before_searching(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched past the cap")

        monkeypatch.setattr(oracle, "_rows_within", no_search)
        prof = Profile.of(1, 1)
        with pytest.raises(ValueError, match="exceeds the cap 5"):
            oracle._search(prof, 6, 5, no_search)
        with pytest.raises(ValueError, match="exceeds the cap"):
            enumerate_by_weight(prof, oracle.DEFAULT_WEIGHT_CAP + 1)
        with pytest.raises(ValueError, match="exceeds the cap 5"):
            count_series(prof, 6, cap=5)
        with pytest.raises(ValueError):
            list(_reference_hits(prof, 6, 5))
