import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylpart import (LabeledDistinctPartition, Partition, Profile, Shape,
                     decompose, enumerate_by_weight, pivot_decompose,
                     pivot_reconstruct, slice_shape,
                     slice_with, tile, validate, validate_beta)
from cylpart.bijection import InadmissibleBeta, chain_pivots

from conftest import all_profiles
from references import validate_beta_rank2
from test_acceptance import run_lengths

P111 = Profile.of(1, 1, 1)


def box_order_pivots(profile, chain_slices, window):
    """Definition-faithful pivot detection from the box placement order:
    a chain slice of weight w is a pivot when the box placed at step w+1
    sits strictly left of the box placed at step w."""
    path = tile(profile, chain_slices, window)
    offsets = profile.offsets()
    cols = []
    for prev, cur in zip(path.slices, path.slices[1:]):
        row = next(i for i in range(profile.rank) if cur[i] != prev[i])
        cols.append(offsets[row] + cur[row])
    out = []
    for s in chain_slices:
        w = s.weight
        out.append(cols[w] < cols[w - 1])
    return out


class TestWorkedExamples:
    def test_rank_three(self):
        cp = validate((Partition.of(5, 4), Partition.of(8, 2),
                       Partition.of(7, 5, 1)), P111)
        mu, beta = pivot_decompose(cp)
        assert beta.to_text() == "5^(2,0),1^(2,2)"
        assert mu == Partition.of(7, 6, 5, 4, 2, 2)
        assert cp.weight == mu.weight + beta.weight
        assert pivot_reconstruct(mu, beta, P111) == cp

    def test_rank_two(self):
        prof = Profile.of(2, 1)
        cp = validate((Partition.of(15, 15, 10, 10, 6, 5),
                       Partition.of(18, 13, 6, 6)), prof)
        mu, beta = pivot_decompose(cp)
        assert [w for w, _ in beta.entries] == [10, 6, 3]
        assert mu == Partition.of(10, 10, 10, 10, 9, 6, 6, 6, 4, 4, 4, 3, 1, 1, 1)
        assert mu.weight + beta.weight == 104 == cp.weight
        assert pivot_reconstruct(mu, beta, prof) == cp

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "a mu variant with a second part 3 sums to 88, but weight "
        "conservation forces |mu| = 104 - 19 = 85"))
    def test_rank_two_mu_variant_with_extra_part(self):
        prof = Profile.of(2, 1)
        cp = validate((Partition.of(15, 15, 10, 10, 6, 5),
                       Partition.of(18, 13, 6, 6)), prof)
        mu, _ = pivot_decompose(cp)
        assert mu == Partition.of(10, 10, 10, 10, 9, 6, 6, 6, 4, 4, 4, 3, 3, 1, 1, 1)

    def test_reconstruction_example(self):
        beta = LabeledDistinctPartition.parse("15^(2,1),11^(3,2),10^(3,1),1^(2,2)")
        mu = Partition.of(13, 10, 10, 9, 5, 5, 3, 2)
        cp = pivot_reconstruct(mu, beta, P111)
        assert cp == validate((Partition.of(9, 7, 7, 6, 1),
                               Partition.of(12, 9, 7, 3, 1),
                               Partition.of(11, 10, 7, 2, 2)), P111)
        assert pivot_decompose(cp) == (mu, beta)

    @pytest.mark.parametrize("mu_parts", [(12,), (12, 12, 3), (10, 10), (12, 10, 3, 3)])
    def test_mu_part_equal_to_a_beta_weight(self, mu_parts):
        """A part of mu equal to a weight of beta adds one more copy of
        that pivot slice: the weight counts once for beta and once per
        such part of mu."""
        beta = LabeledDistinctPartition.parse("12^(2,1),10^(2,2)")
        mu = Partition(mu_parts)
        cp = pivot_reconstruct(mu, beta, P111)
        assert cp.weight == mu.weight + beta.weight
        assert pivot_decompose(cp) == (mu, beta)
        chain = decompose(cp)
        copies = {s.weight: mult for s, mult in chain.entries}
        for w, _ in beta.entries:
            assert copies[w] == 1 + mu_parts.count(w)

    def test_intermediate_slices_between_two_pivots(self):
        chain = [slice_with(P111, Shape.of(2, 1), 15),
                 slice_with(P111, Shape.of(3, 2), 11),
                 slice_with(P111, Shape.of(3, 1), 10),
                 slice_with(P111, Shape.of(2, 2), 1)]
        path = tile(P111, chain, 20)
        assert [path.slice_at(w).lengths for w in range(1, 11)] == [
            (0, 1, 0), (0, 1, 1), (0, 1, 2), (1, 1, 2), (1, 2, 2),
            (1, 2, 3), (2, 2, 3), (2, 3, 3), (3, 3, 3), (4, 3, 3)]

    def test_empty(self):
        cp = validate((Partition(),) * 3, P111)
        assert pivot_decompose(cp) == (Partition(), LabeledDistinctPartition())
        assert pivot_reconstruct(Partition(), LabeledDistinctPartition(), P111) == cp


class TestTiling:
    def test_default_path_has_no_pivots(self):
        assert chain_pivots(P111, []) == []
        assert box_order_pivots(P111, [], 15) == []

    def test_pivots_of_tiled_worked_chain(self):
        cp = validate((Partition.of(5, 4), Partition.of(8, 2),
                       Partition.of(7, 5, 1)), P111)
        chain = decompose(cp).distinct()
        path = tile(P111, chain, 12)
        flagged = [path.slice_at(s.weight)
                   for s, flag in zip(chain, chain_pivots(P111, chain)) if flag]
        assert [(s.weight, slice_shape(s).parts) for s in flagged] == \
            [(5, (2, 0)), (1, (2, 2))]

    def test_one_slice_per_weight(self, small_profiles):
        for prof in small_profiles[::4]:
            path = tile(prof, [], 12)
            assert len(path.slices) == 13
            tiled = [path.slice_at(w) for w in range(13)]
            assert [s.weight for s in tiled] == list(range(13))
            for a, b in zip(tiled, tiled[1:]):
                assert b.contains(a)

    def test_window_too_small(self):
        with pytest.raises(InadmissibleBeta):
            tile(P111, [slice_with(P111, Shape.of(2, 1), 15)], 10)

    def test_shorter_window_tiles_a_prefix(self, small_profiles):
        # pivot_reconstruct tiles only to the largest weight it reads
        for prof in small_profiles:
            chains = {tuple(decompose(cp).distinct())
                      for cp in enumerate_by_weight(prof, 8)}
            for chain in chains:
                top = chain[0].weight if chain else 0
                full = tile(prof, chain, top + prof.rank * prof.level + 1).slices
                for w in range(top, len(full)):
                    assert tile(prof, chain, w).slices == full[:w + 1]

    def test_box_order_agrees_with_column_rule(self):
        # dual route: space-comparison flags vs actual placement order
        for prof in [P111, Profile.of(2, 1), Profile.of(0, 2, 0), Profile.of(1, 2, 0)]:
            for cp in enumerate_by_weight(prof, 8):
                if cp.is_empty:
                    continue
                chain = decompose(cp).distinct()
                window = chain[0].weight + prof.rank * prof.level + 1
                expected = box_order_pivots(prof, chain, window)
                assert chain_pivots(prof, chain) == expected


class TestValidateBeta:
    def test_examples(self):
        ok, _ = validate_beta(
            LabeledDistinctPartition.parse("15^(2,1),11^(3,2),10^(3,1),1^(2,2)"), P111)
        assert ok
        assert validate_beta(LabeledDistinctPartition(), P111)[0]
        p020 = Profile.of(0, 2, 0)
        assert not validate_beta(LabeledDistinctPartition.parse("1^(2,1)"), p020)[0]
        assert validate_beta(LabeledDistinctPartition.parse("4^(2,1)"), p020)[0]

    def test_ladder_shapes_never_admissible(self):
        for text in ["3^(0,0)", "4^(1,0)", "5^(1,1)"]:
            beta = LabeledDistinctPartition.parse(text)
            ok, why = validate_beta(beta, P111)
            assert not ok and "never" in why

    def test_nonexistent_slice(self):
        beta = LabeledDistinctPartition.parse("2^(2,1)")  # weight residue is off
        ok, why = validate_beta(beta, P111)
        assert not ok and "no slice" in why

    @pytest.mark.parametrize("text,message", [
        ("2^(2,1)", "no slice of shape (2,1) and weight 2"),
        ("3^(0,0)", "shape (0,0) of part 3 can never be a pivot"),
        ("2^(2,0),1^(2,2)", "slices (1, 0, 1) and (0, 1, 0) do not nest"),
        ("2^(2,0),1^(3,1)", "2^(2,0) is not a pivot in this lineup"),
        # Two kinds fail, or one kind twice: the earlier kind wins, at its
        # first failing entry.
        ("8^(1,1),1^(0,0)", "no slice of shape (0,0) and weight 1"),
        ("8^(1,1),1^(1,0)", "shape (1,1) of part 8 can never be a pivot"),
        ("8^(1,1),7^(3,1)", "shape (1,1) of part 8 can never be a pivot"),
        ("9^(2,1),8^(2,0),7^(2,2)", "slices (3, 2, 3) and (2, 3, 2) do not nest"),
        ("9^(2,1),8^(2,0),7^(3,1)", "9^(2,1) is not a pivot in this lineup"),
    ])
    def test_each_diagnosis(self, text, message):
        beta = LabeledDistinctPartition.parse(text)
        assert validate_beta(beta, P111) == (False, message)
        with pytest.raises(InadmissibleBeta) as exc:
            pivot_reconstruct(Partition.of(3, 1), beta, P111)
        assert str(exc.value) == message

    def test_reconstruct_rejects_inadmissible(self):
        with pytest.raises(InadmissibleBeta):
            pivot_reconstruct(Partition(), LabeledDistinctPartition.parse("1^(2,1)"),
                              Profile.of(0, 2, 0))

    def test_text_roundtrip(self):
        text = "15^(2,1),11^(3,2),10^(3,1),1^(2,2)"
        assert LabeledDistinctPartition.parse(text).to_text() == text
        assert LabeledDistinctPartition.parse("7^(3)").entries == ((7, Shape.of(3)),)


class TestRoundtripsAndRuns:
    def test_bijection_on_enumerated_sets(self, small_profiles):
        for prof in small_profiles:
            bound = min(prof.rank - 1, prof.level - 1)
            for cp in enumerate_by_weight(prof, 9):
                mu, beta = pivot_decompose(cp)
                assert mu.weight + beta.weight == cp.weight
                assert pivot_reconstruct(mu, beta, prof) == cp
                assert all(run <= bound for run in run_lengths(beta))
                for w, sh in beta.entries:
                    assert sh.parts and sh.parts[0] >= 2

    def test_distinct_weights_map_to_distinct_pairs(self):
        prof = Profile.of(2, 1)
        seen = {}
        for cp in enumerate_by_weight(prof, 8):
            key = (pivot_decompose(cp)[0].parts,
                   tuple(pivot_decompose(cp)[1].entries))
            assert key not in seen, f"{cp} collides with {seen[key]}"
            seen[key] = cp


class TestCountingConsequence:
    def test_pair_structure_gives_product_times_gap_series(self):
        # counts for the (2,1) profile = (all partitions) x (gap-2 partitions):
        # mu is free and beta has minimal part 1 with gaps >= 2, so the
        # weight series of beta alone is sum of q^{n^2} / (q;q)_n
        from cylpart import count_series
        from cylpart.series import TruncatedSeries, product_inv_factors
        from cylpart.rings import ZZ
        order = 14
        gap_two = TruncatedSeries.zero(ZZ, order)
        n = 0
        while n * n <= order:
            gap_two = gap_two + TruncatedSeries.one(ZZ, order).mul_inv_poch(n).shift(n * n)
            n += 1
        all_parts = product_inv_factors([(1, 1)], order)
        assert (all_parts * gap_two).coeffs == \
            count_series(Profile.of(2, 1), order).coeffs


class TestGenerativeReverseDirection:
    """Build random admissible pairs directly and roundtrip them, reaching
    weights the enumeration pools never see."""

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_random_pairs_roundtrip(self, data):
        from cylpart import potential_pivot_shapes
        profile = data.draw(st.sampled_from(all_profiles(3, 3)))
        shapes = potential_pivot_shapes(profile.rank, profile.level)
        entries = []
        weight = 0
        if shapes:
            for _ in range(data.draw(st.integers(0, 3))):
                sh = data.draw(st.sampled_from(shapes))
                weight += data.draw(st.integers(1, 8))
                sl = slice_with(profile, sh, weight)
                while sl is None:
                    weight += 1
                    sl = slice_with(profile, sh, weight)
                entries.append((weight, sh))
        beta = LabeledDistinctPartition(tuple(reversed(entries)))
        if not validate_beta(beta, profile)[0]:
            return
        mu_parts = data.draw(st.lists(st.integers(1, 25), max_size=6))
        mu = Partition(tuple(sorted(mu_parts, reverse=True)))
        cp = pivot_reconstruct(mu, beta, profile)
        assert pivot_decompose(cp) == (mu, beta)
        assert cp.weight == mu.weight + beta.weight


def rank2_slice_pool(profile, max_weight):
    pool = []
    for w in range(1, max_weight + 1):
        for s in range(2, profile.level + 1):
            sl = slice_with(profile, Shape.of(s), w)
            if sl is not None:
                pool.append(sl)
    pool.sort(key=lambda sl: sl.weight)
    return pool


def rank2_chains(profile, max_weight, max_len=None):
    """All candidate chains: existing slices of pivot shapes with strictly
    decreasing weights and proper nesting, weights <= max_weight."""
    out = []
    pool = rank2_slice_pool(profile, max_weight)

    def extend(chain):
        out.append(chain)
        if max_len is not None and len(chain) >= max_len:
            return
        top = chain[0]
        for sl in pool:
            if sl.weight > top.weight and sl.contains(top) and sl != top:
                extend([sl] + chain)

    for sl in pool:
        extend([sl])
    return out


def _assert_validators_agree(profile, chain):
    beta = LabeledDistinctPartition(
        tuple((s.weight, slice_shape(s)) for s in chain))
    operational = validate_beta(beta, profile)[0]
    closed = validate_beta_rank2(beta, profile.parts[0], profile.parts[1])
    assert operational == closed, f"{profile} {beta.to_text()}"


class TestRankTwoClosedForm:
    @pytest.mark.parametrize("a,b", [(a, b)
                                     for level in range(1, 4)
                                     for a in range(level + 1)
                                     for b in [level - a]])
    def test_agrees_exhaustively_small_levels(self, a, b):
        profile = Profile.of(a, b)
        for chain in rank2_chains(profile, 12):
            _assert_validators_agree(profile, chain)

    @pytest.mark.parametrize("a,b", [(a, b)
                                     for level in (4, 5)
                                     for a in range(level + 1)
                                     for b in [level - a]])
    def test_agrees_on_pairs_and_sampled_chains_levels_4_5(self, a, b):
        import random
        profile = Profile.of(a, b)
        for chain in rank2_chains(profile, 12, max_len=2):
            _assert_validators_agree(profile, chain)
        rng = random.Random(10 * a + b)
        pool = rank2_slice_pool(profile, 12)
        for _ in range(1500):
            chain = []
            for sl in sorted(rng.sample(pool, min(len(pool), 6)),
                             key=lambda s: s.weight):
                if not chain or (sl.weight > chain[0].weight
                                 and sl.contains(chain[0]) and sl != chain[0]):
                    chain = [sl] + chain
            if len(chain) >= 3:
                _assert_validators_agree(profile, chain)

    def test_non_nesting_candidates_rejected_by_both(self):
        # Two existing slices of decreasing weight that do not nest.  No
        # such pair exists for (2,1), (3,0), (2,2), (3,1) or (4,0).
        for (a, b), pairs in (((3, 2), 13), ((4, 1), 12)):
            profile = Profile.of(a, b)
            labels = range(2, a + b + 1)
            seen = 0
            for w1, s1, w2, s2 in itertools.product(range(1, 16), labels,
                                                    range(1, 16), labels):
                if w2 >= w1:
                    continue
                upper = slice_with(profile, Shape.of(s1), w1)
                lower = slice_with(profile, Shape.of(s2), w2)
                if upper is None or lower is None or upper.contains(lower):
                    continue
                seen += 1
                beta = LabeledDistinctPartition(((w1, Shape.of(s1)),
                                                 (w2, Shape.of(s2))))
                assert not validate_beta(beta, profile)[0]
                assert not validate_beta_rank2(beta, a, b)
            assert seen == pairs

    def test_gap_rule_example(self):
        # labels (2) and (4) need a weight gap of at least 4
        prof = Profile.of(4, 0)
        for w in (2, 4):
            lower = slice_with(prof, Shape.of(2), w)
            upper = slice_with(prof, Shape.of(4), w + 3)
            if lower is None or upper is None:
                continue
            beta = LabeledDistinctPartition(((w + 3, Shape.of(4)),
                                             (w, Shape.of(2))))
            assert not validate_beta_rank2(beta, 4, 0)
            assert not validate_beta(beta, prof)[0]

    def test_proposition_instance(self):
        beta = LabeledDistinctPartition(
            ((10, Shape.of(3)), (6, Shape.of(3)), (3, Shape.of(2))))
        assert validate_beta_rank2(beta, 2, 1)
        assert validate_beta(beta, Profile.of(2, 1))[0]
        assert validate_beta_rank2(LabeledDistinctPartition(), 2, 1)
