import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylpart import (Partition, Profile, Shape, ShrinkMode, SliceChain,
                     all_shapes, decompose, enumerate_by_weight, expand, recompose,
                     shape_of_zero, shrink, slice_shape, slice_with,
                     validate, zero_slice)
from cylpart.core import InvalidInput, RankMismatch
from cylpart.slices import (ChainNotDecreasing, ChainNotStrict,
                            NotMultipleOfRank, PartTooLarge, Slice)

from conftest import all_profiles
from references import min_slice_weight, successors
from test_core import delta_shapes

P111 = Profile.of(1, 1, 1)


def bump(s, row):
    """``s`` with one box added at the end of the given 0-based row,
    through the validating constructor."""
    ln = list(s.lengths)
    ln[row] += 1
    return Slice(s.profile, tuple(ln))


def bfs_slices_by_weight(profile, max_weight):
    layers = [[zero_slice(profile)]]
    for _ in range(max_weight):
        seen = set()
        nxt = []
        for s in layers[-1]:
            for t in successors(s):
                if t.lengths not in seen:
                    seen.add(t.lengths)
                    nxt.append(t)
        layers.append(nxt)
    return layers


class TestDecompose:
    def test_running_example(self):
        cp = validate((Partition.of(5, 4), Partition.of(8, 2),
                       Partition.of(7, 5, 1)), P111)
        chain = decompose(cp)
        assert [s.lengths for s in chain.expanded()] == [
            (2, 2, 3), (2, 2, 2), (2, 1, 2), (2, 1, 2),
            (1, 1, 2), (0, 1, 1), (0, 1, 1), (0, 1, 0)]
        shapes = [slice_shape(s) for s in chain.expanded()]
        assert [s.parts for s in shapes] == [
            (1, 0), (2, 1), (2, 0), (2, 0), (1, 0), (1, 1), (1, 1), (2, 2)]
        assert shape_of_zero(P111) == Shape.of(2, 1)
        assert recompose(chain) == cp

    def test_rank_two_multiplicities(self):
        prof = Profile.of(2, 1)
        cp = validate((Partition.of(15, 15, 10, 10, 6, 5),
                       Partition.of(18, 13, 6, 6)), prof)
        chain = decompose(cp)
        assert [(s.weight, m) for s, m in chain.entries] == [
            (10, 5), (9, 1), (6, 4), (4, 3), (3, 2), (1, 3)]

    def test_empty(self):
        cp = validate((Partition(),) * 3, P111)
        chain = decompose(cp)
        assert chain.length == 0
        assert recompose(chain) == cp

    def test_roundtrip_over_enumeration(self, small_enumerations):
        for prof, partitions in small_enumerations.items():
            for cp in partitions:
                chain = decompose(cp)
                assert recompose(chain) == cp
                assert chain.weight == cp.weight
                # containment down the chain
                expanded = list(chain.expanded())
                for a, b in zip(expanded, expanded[1:]):
                    assert a.contains(b)

    def test_chain_validation(self):
        s2 = slice_with(P111, Shape.of(2, 1), 6)
        s1 = slice_with(P111, Shape.of(2, 2), 4)
        with pytest.raises(ChainNotDecreasing):
            SliceChain(P111, ((s1, 1), (s2, 1)))  # s1 does not contain s2
        with pytest.raises(ChainNotDecreasing):
            SliceChain(P111, ((s2, 0),))


class TestShapesAndSuccessors:
    def test_zero_slice_shape(self, small_profiles):
        for prof in small_profiles:
            assert slice_shape(zero_slice(prof)) == shape_of_zero(prof)

    def test_weight_one_shapes_rank_two(self):
        prof = Profile.of(2, 1)
        shapes = {slice_shape(s).parts for s in successors(zero_slice(prof))}
        assert shapes == {(0,), (2,)}

    def test_successors_add_one_box(self):
        for prof in [P111, Profile.of(0, 2, 0), Profile.of(4, 0)]:
            for s in bfs_slices_by_weight(prof, 5)[4]:
                for t in successors(s):
                    assert t.weight == s.weight + 1
                    assert t.contains(s)
                    assert sum(a != b for a, b in zip(t.lengths, s.lengths)) == 1

    def test_successors_are_the_valid_bumps(self, small_profiles):
        # Reference: bump every row through the validating constructor and
        # keep the bumps it accepts.
        for prof in small_profiles + [Profile.of(2, 0, 1, 1), Profile.of(1, 0, 2, 0)]:
            for layer in bfs_slices_by_weight(prof, 5):
                for s in layer:
                    expected = []
                    for i in range(prof.rank):
                        try:
                            expected.append(bump(s, i))
                        except ValueError:
                            pass
                    got = successors(s)
                    assert got == expected, s
                    for t in got:
                        assert Slice(prof, t.lengths) == t

    def test_three_successors_from_zero_shape_slice(self):
        s = slice_with(P111, Shape.of(2, 1), 3)
        assert len(successors(s)) == 3

    def test_shape_weight_congruence(self, small_profiles):
        for prof in small_profiles:
            z = shape_of_zero(prof)
            for layer in bfs_slices_by_weight(prof, 8):
                for s in layer:
                    assert (slice_shape(s).weight - z.weight) % prof.rank \
                        == s.weight % prof.rank

    def test_at_most_one_slice_per_shape_and_weight(self, small_profiles):
        for prof in small_profiles:
            for w, layer in enumerate(bfs_slices_by_weight(prof, 10)):
                shapes = [slice_shape(s).parts for s in layer]
                assert len(set(shapes)) == len(shapes)
                for s in layer:
                    assert slice_with(prof, slice_shape(s), w) == s

    def test_min_weight_agrees_with_search(self):
        for prof in [P111, Profile.of(1, 1, 0), Profile.of(4, 0), Profile.of(0, 2, 0)]:
            first_seen = {}
            for w, layer in enumerate(bfs_slices_by_weight(prof, 10)):
                for s in layer:
                    first_seen.setdefault(slice_shape(s), w)
            for shape, w in first_seen.items():
                assert min_slice_weight(prof, shape) == w
                assert delta_shapes(shape_of_zero(prof), shape, prof.level) == w

    def test_every_shape_has_a_slice_of_every_admissible_weight(self):
        """slice_with returns None exactly below the minimal weight or off
        its residue class mod the rank, and otherwise a slice of the
        requested shape and weight; so every shape of the family, the
        graph's nodes, has a representative."""
        for prof in all_profiles(4, 5):
            r = prof.rank
            for shape in all_shapes(r, prof.level):
                base = min_slice_weight(prof, shape)
                for w in range(base + 3 * r):
                    s = slice_with(prof, shape, w)
                    if w < base or (w - base) % r:
                        assert s is None, (prof, shape, w)
                    else:
                        assert s is not None, (prof, shape, w)
                        assert (slice_shape(s), s.weight) == (shape, w)
                        assert s == Slice(prof, s.lengths)


    def test_no_slice_of_a_shape_past_the_level(self):
        """A shape whose first part exceeds the level has no slice: the
        lengths the weight formula gives for it break a slice inequality."""
        checked = 0
        for prof in all_profiles(4, 3):
            r = prof.rank
            for shape in all_shapes(r, prof.level + 2):
                if not shape.parts or shape.parts[0] <= prof.level:
                    continue
                for w in range(4 * r + 8):
                    assert slice_with(prof, shape, w) is None, (prof, shape, w)
                    checked += 1
        assert checked > 1000
        assert slice_with(Profile.of(0, 0, 0, 1), Shape.of(2, 1, 1), 1) is None

    def test_shape_of_another_rank_is_a_rank_mismatch(self):
        for prof, shape in [(P111, Shape.of(2)), (P111, Shape.of(2, 1, 0)),
                            (Profile.of(3), Shape.of(1))]:
            with pytest.raises(RankMismatch, match=f"shape rank {len(shape.parts) + 1} "
                                                   f"vs profile rank {prof.rank}"):
                slice_with(prof, shape, 6)


class TestShrinkExpand:
    CP = validate((Partition.of(3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1),
                   Partition.of(3, 3, 3, 2, 2, 2, 1, 1, 1, 1),
                   Partition.of(3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1)), P111)

    def test_at_most_mode(self):
        tight, side = shrink(decompose(self.CP), ShrinkMode.AT_MOST)
        assert side == Partition.of(9, 9, 9, 6, 6, 6, 3, 3, 3, 3)
        assert [t.lengths for t in tight] == [(2, 0, 1), (1, 0, 1), (0, 0, 0)]

    def test_exact_mode_keeps_max(self):
        tight, side = shrink(decompose(self.CP), ShrinkMode.EXACT)
        assert side == Partition.of(9, 9, 6, 6, 6, 3, 3, 3, 3)
        assert [t.lengths for t in tight] == [(3, 1, 2), (2, 1, 2), (1, 1, 1)]
        assert all(t.weight > 0 for t in tight)

    def test_weight_bookkeeping_and_tight_gaps(self):
        chain = decompose(self.CP)
        for mode in ShrinkMode:
            tight, side = shrink(chain, mode)
            assert chain.weight == sum(t.weight for t in tight) + side.weight
        tight, _ = shrink(chain, ShrinkMode.AT_MOST)
        shapes = [slice_shape(t) for t in tight] + [shape_of_zero(P111)]
        weights = [t.weight for t in tight] + [0]
        for j in range(len(tight)):
            assert weights[j] - weights[j + 1] == \
                delta_shapes(shapes[j + 1], shapes[j], P111.level)

    def test_fixed_point(self):
        tight, side = shrink(decompose(self.CP), ShrinkMode.AT_MOST)
        nonzero = [t for t in tight if not t.is_zero]
        runs = tuple((t, len(list(copies))) for t, copies in itertools.groupby(nonzero))
        tight2, side2 = shrink(SliceChain(P111, runs), ShrinkMode.AT_MOST)
        assert len(side2) == 0
        assert [t.lengths for t in tight2] == [t.lengths for t in nonzero]

    def test_expand_inverts(self):
        chain = decompose(self.CP)
        for mode in ShrinkMode:
            tight, side = shrink(chain, mode)
            back = expand(tight, side, mode)
            assert [s.lengths for s in back] == [s.lengths for s in chain.expanded()]

    def test_expand_empty_side_is_identity(self):
        tight, _ = shrink(decompose(self.CP), ShrinkMode.EXACT)
        assert [s.lengths for s in expand(tight, Partition(), ShrinkMode.EXACT)] \
            == [s.lengths for s in tight]

    def test_expand_input_validation(self):
        tight, _ = shrink(decompose(self.CP), ShrinkMode.EXACT)
        with pytest.raises(NotMultipleOfRank):
            expand(tight, Partition.of(4), ShrinkMode.EXACT)
        with pytest.raises(PartTooLarge):
            expand(tight, Partition.of(12), ShrinkMode.EXACT)

    def test_expand_rejects_a_slice_of_another_profile(self):
        mixed = [Slice(P111, (4, 4, 4)), Slice(Profile.of(2, 1, 0), (2, 1, 0))]
        with pytest.raises(InvalidInput, match=r"a slice on c=\(2,1,0\) in a tight "
                                               r"chain on c=\(1,1,1\)"):
            expand(mixed, Partition.of(6), ShrinkMode.AT_MOST)
        # A slice past the largest side part is returned as it is, unchecked;
        # an equal profile built apart passes.
        assert expand(mixed, Partition.of(3), ShrinkMode.AT_MOST)[1] is mixed[1]
        twin = [mixed[0], Slice(Profile((1, 1, 1)), (1, 1, 1))]
        assert [s.lengths for s in expand(twin, Partition.of(6), ShrinkMode.AT_MOST)] \
            == [(5, 5, 5), (2, 2, 2)]

    def test_exact_needs_nonzero_smallest(self):
        with pytest.raises(ChainNotStrict, match="EXACT mode needs a nonzero smallest slice"):
            shrink(SliceChain(P111, ()), ShrinkMode.EXACT)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_roundtrips(self, data):
        prof = data.draw(st.sampled_from(all_profiles(3, 3)))
        pool = enumerate_by_weight(prof, 10)
        cp = data.draw(st.sampled_from(pool))
        if cp.max_part == 0:
            return
        chain = decompose(cp)
        mode = data.draw(st.sampled_from(list(ShrinkMode)))
        tight, side = shrink(chain, mode)
        assert chain.weight == sum(t.weight for t in tight) + side.weight
        back = expand(tight, side, mode)
        assert [s.lengths for s in back] == [s.lengths for s in chain.expanded()]
