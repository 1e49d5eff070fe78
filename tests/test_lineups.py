import itertools
import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import all_profiles
from cylpart import (Profile, QPoly, Shape, classify, enumerate_minimal_jammed,
                     enumerate_minimal_loose, family, lemma_check, pivot_chain_gf,
                     potential_pivot_shapes, qconj_genfunc_check, shape_of_zero,
                     slice_with)
from cylpart import lineups
from cylpart.lineups import (NotPotentialPivot, _chain_from_gaps,
                             minimal_jammed_correction)

P110 = Profile.of(1, 1, 0)
P400 = Profile.of(4, 0, 0)


def chain(profile, entries):
    """Build a chain from (weight, shape-tuple) pairs, any order."""
    slices = [slice_with(profile, Shape(s), w)
              for w, s in sorted(entries, reverse=True)]
    assert all(s is not None for s in slices)
    return slices


class TestPotentialPivots:
    def test_small_family(self):
        assert [s.parts for s in potential_pivot_shapes(3, 2)] == \
            [(2, 0), (2, 1), (2, 2)]

    def test_none_at_level_one(self):
        assert potential_pivot_shapes(2, 1) == []

    def test_a_copy_of_the_family_list(self):
        got = potential_pivot_shapes(3, 2)
        assert got == family(3, 2).pivot_shapes
        got.clear()
        assert len(family(3, 2).pivot_shapes) == 3

    def test_count_formula(self):
        for r in range(1, 5):
            for level in range(1, 6):
                got = potential_pivot_shapes(r, level)
                assert len(got) == math.comb(level + r - 1, r - 1) - r


class TestClassify:
    def test_minimal_jammed_example(self):
        lineup = classify(P110, chain(P110, [(1, (2, 0)), (5, (2, 1)), (9, (2, 2))]))
        assert lineup.classification == "minimal-jammed"
        assert lineup.iota == frozenset({3})

    def test_minimal_loose_example(self):
        lineup = classify(P110, chain(P110, [(4, (2, 0)), (8, (2, 1)), (12, (2, 2))]))
        assert lineup.classification == "minimal-loose"
        assert lineup.iota == frozenset()

    def test_tight_chain_that_fails(self):
        lineup = classify(P110, chain(P110, [(1, (2, 0)), (2, (2, 1)), (3, (2, 2))]))
        assert lineup.classification == "none"

    def test_loose_not_minimal(self):
        lineup = classify(P110, chain(P110, [(4, (2, 0)), (11, (2, 1)), (15, (2, 2))]))
        assert lineup.classification == "loose"

    def test_iota_examples_rank3_level4(self):
        a = classify(P400, chain(P400, [(5, (4, 1)), (9, (4, 2)), (10, (4, 3))]))
        b = classify(P400, chain(P400, [(5, (4, 1)), (6, (4, 2)), (10, (4, 3))]))
        c = classify(P400, chain(P400, [(5, (4, 1)), (6, (4, 2)), (7, (4, 3))]))
        assert (a.classification, sorted(a.iota)) == ("minimal-jammed", [1, 3])
        assert (b.classification, sorted(b.iota)) == ("minimal-jammed", [2, 3])
        assert c.classification == "none"

    def test_rejects_non_pivot_shape(self):
        with pytest.raises(NotPotentialPivot):
            classify(P110, chain(P110, [(1, (1, 1))]))

    def test_empty_lineup(self):
        lineup = classify(P110, [])
        assert lineup.classification == "minimal-loose" and lineup.weight == 0

    def test_text_form(self):
        lineup = classify(P110, chain(P110, [(1, (2, 0)), (5, (2, 1)), (9, (2, 2))]))
        assert lineup.to_text() == \
            "1^(2,0),5^(2,1),9^(2,2) iota={3} class=minimal-jammed"


class TestMinimalLoose:
    def test_counts(self):
        for prof in [P110, Profile.of(0, 2, 0), Profile.of(2, 1)]:
            b = math.comb(prof.level + prof.rank - 1, prof.rank - 1)
            for n in range(5):
                found = enumerate_minimal_loose(n, prof)
                assert len(found) == (b - prof.rank) ** n
                assert len({tuple(s.weight for s in l.slices) +
                            tuple(sh.parts for sh in l.shapes())
                            for l in found}) == len(found)

    def test_level2_example_present(self):
        texts = [l.to_text() for l in enumerate_minimal_loose(3, P110)]
        assert any(t.startswith("4^(2,0),8^(2,1),12^(2,2)") for t in texts)

    def test_unique_per_shape_sequence(self):
        found = enumerate_minimal_loose(2, P110)
        assert len({tuple(sh.parts for sh in l.shapes()) for l in found}) == len(found)

    def test_weight_sum_equals_recurrence_polynomial(self):
        # dual route: the layered polynomial recurrence against the literal
        # weight sum over enumerated lineups
        from cylpart import QPoly, pivot_lineup_poly
        for prof in [P110, Profile.of(0, 2, 0), Profile.of(2, 1),
                     Profile.of(1, 1, 1), Profile.of(4, 0)]:
            for n in range(4):
                total = QPoly()
                for lineup in enumerate_minimal_loose(n, prof):
                    total = total + QPoly.monomial(lineup.weight)
                assert total == pivot_lineup_poly(prof, n), (prof, n)

    def test_loose_gaps_always_build_minimal_loose_chains(self):
        for prof in all_profiles(3, 3):
            shapes = potential_pivot_shapes(prof.rank, prof.level)
            for n in range(4):
                expected = []
                for combo in itertools.product(shapes, repeat=n):
                    chain = _chain_from_gaps(prof, combo, [False] * n)
                    assert chain is not None, (prof, combo)
                    lineup = classify(prof, chain)
                    assert lineup.classification == "minimal-loose", str(lineup)
                    expected.append(lineup)
                found = enumerate_minimal_loose(n, prof)
                assert found == expected, (prof, n)
                assert [l.to_text() for l in found] == \
                    [l.to_text() for l in expected], (prof, n)


def brute_force_minimal_jammed(n, profile):
    """Every shape choice times every non-empty set of tight gaps, each
    chain built and classified from scratch: the reference for the pruned
    walk, in the order it must list its results."""
    shapes = potential_pivot_shapes(profile.rank, profile.level)
    out = []
    for combo in itertools.product(shapes, repeat=n):
        for mask in range(1, 1 << n):
            tight = [(mask >> j) & 1 == 1 for j in range(n)]
            chain = _chain_from_gaps(profile, combo, tight)
            if chain is None:
                continue
            lineup = classify(profile, chain)
            if lineup.classification == "minimal-jammed" and \
                    lineup.iota == frozenset(j + 1 for j in range(n) if tight[j]):
                out.append(lineup)
    return out


WALK_CASES = [(prof, n) for prof in all_profiles(3, 3) for n in range(4)] + \
    [(prof, n) for prof in (Profile.of(1, 1, 1, 1), P400) for n in range(3)]
# The sizes the ``lineups --kind mjl --n 3`` benchmark jobs list.
GF_CASES = [(P400, 3), (Profile.of(2, 1, 1), 3)]


class TestMinimalJammed:
    def test_weight_one_singleton_absent(self):
        p020 = Profile.of(0, 2, 0)
        found = enumerate_minimal_jammed(1, p020)
        assert not any(l.slices[-1].weight == 1 for l in found)

    def test_examples_present(self):
        texts = [l.to_text() for l in enumerate_minimal_jammed(3, P400)]
        assert any(t.startswith("5^(4,1),9^(4,2),10^(4,3)") and "iota={1,3}" in t
                   for t in texts)
        assert any(t.startswith("5^(4,1),6^(4,2),10^(4,3)") and "iota={2,3}" in t
                   for t in texts)

    def test_upper_bound(self):
        for prof in [P110, Profile.of(0, 2, 0), Profile.of(2, 1), Profile.of(1, 1, 1)]:
            b = math.comb(prof.level + prof.rank - 1, prof.rank - 1)
            for n in range(1, 4):
                found = enumerate_minimal_jammed(n, prof)
                assert len(found) <= (2 ** n - 1) * (b - prof.rank) ** n
                for lineup in found:
                    assert lineup.classification == "minimal-jammed"
                    assert lineup.iota

    def test_walk_equals_brute_force(self):
        for prof, n in WALK_CASES + GF_CASES:
            expected = brute_force_minimal_jammed(n, prof)
            found = enumerate_minimal_jammed(n, prof)
            assert found == expected, (prof, n)
            assert [l.to_text() for l in found] == \
                [l.to_text() for l in expected], (prof, n)

    def test_top_flag_once_per_lower_slice_and_row(self, monkeypatch):
        # The n <= 2 calls verify-all makes, where each lower slice is
        # visited about once; flagging every row of a step table when it
        # was listed made 4,717 calls here.
        seen = []
        flag = lineups.pivot_flag

        def counting(above, ends, below):
            seen.append((above, ends, below))
            return flag(above, ends, below)

        monkeypatch.setattr(lineups, "pivot_flag", counting)
        total = 0
        for parts in [(2, 1), (3, 1), (1, 1, 1), (1, 1, 0), (2, 1, 1), (1, 1, 1, 1)]:
            prof = Profile.of(*parts)
            for n in (1, 2):
                seen.clear()
                found = enumerate_minimal_jammed(n, prof)
                # A (lower slice, row) pair fixes both right-end tuples.
                assert len(set(seen)) == len(seen), (prof, n)
                total += len(seen)
                expected = brute_force_minimal_jammed(n, prof)
                assert found == expected, (prof, n)
                assert [l.to_text() for l in found] == \
                    [l.to_text() for l in expected], (prof, n)
        assert total == 3026

    def test_concurrent_calls_match_serial(self):
        # Each call keeps its step table to itself; the text caches are
        # shared, so the threads format their lineups too.
        def listing(prof, n):
            found = enumerate_minimal_jammed(n, prof)
            return found, [l.to_text() for l in found]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for prof, n in GF_CASES:
                serial = listing(prof, n)
                with ThreadPoolExecutor(max_workers=4) as pool:
                    futures = [pool.submit(listing, prof, n) for _ in range(4)]
                    results = [f.result(timeout=120) for f in futures]
                assert all(r == serial for r in results), (prof, n)
        finally:
            sys.setswitchinterval(interval)

    def test_text_caches_are_bounded(self):
        for cache in (lineups._piece_text, lineups._iota_text):
            maxsize = cache.cache_info().maxsize
            assert maxsize is not None and maxsize > 0

    def test_correction_equals_per_lineup_sum(self):
        for prof, n in WALK_CASES:
            total = QPoly()
            for lineup in enumerate_minimal_jammed(n, prof):
                piece = QPoly.monomial(lineup.weight)
                for j in lineup.iota:
                    piece = piece * (QPoly.one() - QPoly.monomial(prof.rank * j))
                total = total + piece
            assert minimal_jammed_correction(n, prof) == total, (prof, n)


class TestOrderBoundedSums:
    """The lineup sums the checks compare, truncated at their order, against
    the unbounded sums over every lineup."""

    PROFILES = list(dict.fromkeys(all_profiles(3, 3) + all_profiles(4, 2)
                                  + [Profile.of(1, 1, 1, 1)]))

    @pytest.mark.parametrize("n", range(4))
    def test_bounded_sums_equal_truncated_full_sums(self, n):
        for prof in self.PROFILES:
            fam = family(prof.rank, prof.level)
            full = minimal_jammed_correction(n, prof)
            loose = Counter(l.weight for l in enumerate_minimal_loose(n, prof))
            for order in range(17):
                jammed = minimal_jammed_correction(n, prof, order)
                assert jammed.degree <= order, (prof, n, order)
                assert jammed.truncated(order) == full.truncated(order), \
                    (prof, n, order)
                counts = fam.pivot_lineup(n, shape_of_zero(prof), order)
                assert counts.truncated(order) == \
                    tuple(loose[w] for w in range(order + 1)), (prof, n, order)


class TestIdentities:
    def test_chain_gf_base_case(self):
        s = pivot_chain_gf(0, P110, 8)
        assert s.coeffs == (1, 0, 0, 0, 0, 0, 0, 0, 0)

    @pytest.mark.parametrize("profile,n,order", [
        (Profile.of(1, 1, 1), 1, 12), (P110, 2, 14), (Profile.of(2, 1), 2, 14),
        (Profile.of(0, 2, 0), 3, 12), (Profile.of(3, 0), 2, 12)])
    def test_lemma(self, profile, n, order):
        report = lemma_check(n, profile, order)
        assert report.ok, str(report)

    def test_genfunc_identities(self):
        for profile in [Profile.of(1, 1, 1), Profile.of(2, 1), P110]:
            report = qconj_genfunc_check(profile, 10, 3)
            assert report.ok, str(report)

    def test_correction_vanishes_at_one(self):
        for n in range(1, 4):
            poly = minimal_jammed_correction(n, P110)
            assert poly(1) == 0 or not poly  # every term carries (1 - q^{rj})
