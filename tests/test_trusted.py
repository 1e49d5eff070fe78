"""Values the package builds without re-validation must equal the validated
ones, the linear shrink/expand must match the quadratic definition, and
public constructors must keep rejecting bad input."""

import ast
import copy
import importlib
import itertools
import pathlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cylpart
from cylpart import (CylindricPartition, InvalidInput, LabeledDistinctPartition,
                     Partition, Profile, RowCountMismatch, Shape, ShrinkMode, Slice,
                     SliceChain, ViolatedInequality, all_shapes,
                     decompose, expand, parse_cylindric,
                     pivot_decompose, pivot_reconstruct, recompose,
                     shape_of_zero, shrink, slice_shape, slice_with,
                     validate, zero_slice)
from cylpart.bijection import InadmissibleBeta, _tiled_at
from cylpart.core import FrozenInstanceError, _Frozen, _space_columns, _trusted
from cylpart.cli import main
from cylpart.oracle import hits
from cylpart.slices import ChainNotDecreasing, NotMultipleOfRank, PartTooLarge, _chain_runs

from conftest import all_profiles
from references import (QuadraticField, chain_pivots_reference, classify,
                        resolve_beta_reference, successors)

P111 = Profile.of(1, 1, 1)
SRC = pathlib.Path(cylpart.__file__).parent


class TestTrustedValuesAreValid:
    def test_over_enumeration(self, small_enumerations):
        for prof, partitions in small_enumerations.items():
            zero_shape = shape_of_zero(prof)
            assert zero_shape == Shape(zero_shape.parts)
            built = set()   # every slice built, each validated once below
            for cp in partitions:
                checked = validate(tuple(Partition(row.parts) for row in cp.rows), prof)
                assert cp == checked
                chain = decompose(cp)
                assert chain == SliceChain(prof, chain.entries)
                assert recompose(chain) == checked
                built.update(chain.distinct())
                mu, beta = pivot_decompose(cp)
                assert mu == Partition(mu.parts)
                assert beta == LabeledDistinctPartition(beta.entries)
                if cp.max_part == 0:
                    continue
                for mode in ShrinkMode:
                    tight, side = shrink(chain, mode)
                    assert side == Partition(side.parts)
                    built.update(tight, expand(tight, side, mode))
                window = chain.distinct()[0].weight + prof.rank
                # The constructor checks every slice the path tiles.
                built.update(Slice(prof, lengths)
                             for lengths in tiled(prof, chain.distinct(), window))
            for s in built:
                assert s == Slice(s.profile, s.lengths)
                shape = slice_shape(s)
                assert shape == Shape(shape.parts)


def partition_of_multiset(values):
    """The partition with the given parts, in any order."""
    return Partition(tuple(sorted(values, reverse=True)))


def shrink_reference(slices, mode):
    """The quadratic definition: step j removes f_j from every earlier slice."""
    profile = slices[0].profile
    r, n = profile.rank, len(slices)
    work = [list(s.lengths) for s in slices] + [[0] * r]
    side_parts = []
    for j in range(1, n + 1):
        f = min(work[j - 1][i] - work[j][i] for i in range(r))
        if j == n and mode is ShrinkMode.EXACT and \
                slice_shape(slices[-1]) == shape_of_zero(profile):
            f -= 1
        for jj in range(j):
            for i in range(r):
                work[jj][i] -= f
        side_parts.extend([r * j] * f)
    return [tuple(w) for w in work[:n]], partition_of_multiset(side_parts)


def expand_reference(tight, side):
    r = tight[0].profile.rank
    work = [list(s.lengths) for s in tight]
    for p in side.parts:
        for jj in range(p // r):
            for i in range(r):
                work[jj][i] += 1
    return [tuple(w) for w in work]


def expand_error_reference(tight, side):
    """The error :func:`expand` raises, as (class, message), or None: an
    empty tight chain takes no side part, and each side part, in order,
    must be a multiple of the rank and then at most rank * n."""
    if not tight:
        return (PartTooLarge, "side partition given but the tight chain is "
                              "empty") if side.parts else None
    r, n = tight[0].profile.rank, len(tight)
    for p in side.parts:
        if p % r:
            return NotMultipleOfRank, f"side part {p} is not a multiple of {r}"
        if p > r * n:
            return PartTooLarge, f"side part {p} exceeds rank*length = {r * n}"
    return None


@st.composite
def chains(draw):
    """A weakly decreasing list of nonzero slices, largest first, grown one
    box at a time from the empty slice."""
    prof = draw(st.sampled_from(all_profiles(4, 3)))
    current = zero_slice(prof)
    grown = []
    for k, boxes in enumerate(draw(st.lists(st.integers(0, 4), min_size=1, max_size=8))):
        for _ in range(max(boxes, 1 if k == 0 else 0)):
            current = draw(st.sampled_from(successors(current)))
        grown.append(current)
    return grown[::-1]


@st.composite
def slice_chains(draw):
    """A chain of the distinct slices of :func:`chains`, each repeated one
    to three times."""
    distinct = [s for s, _ in itertools.groupby(draw(chains()))]
    mults = draw(st.lists(st.integers(1, 3), min_size=len(distinct),
                          max_size=len(distinct)))
    return SliceChain(distinct[0].profile, tuple(zip(distinct, mults)))


def space_columns_reference(outer, inner):
    """The two-pass definition: leftmost and rightmost column of the rows
    where ``outer`` reaches past ``inner``."""
    grown = [(o, i) for o, i in zip(outer, inner) if o > i]
    if not grown:
        return None
    return min(i + 1 for _, i in grown), max(o for o, _ in grown)


class TestLinearShrinkExpand:
    @given(slice_chains(), st.sampled_from(list(ShrinkMode)), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_quadratic_reference(self, chain, mode, data):
        slices = list(chain.expanded())
        tight, side = shrink(chain, mode)
        # The chain decompose builds without checks tightens the same.
        assert (tight, side) == shrink(decompose(recompose(chain)), mode)
        ref_tight, ref_side = shrink_reference(slices, mode)
        assert [t.lengths for t in tight] == ref_tight
        assert side == ref_side
        # Every copy of a run tightens to one shared slice.
        assert len({id(t) for t in tight}) == len(chain.entries)
        assert [s.lengths for s in expand(tight, side, mode)] == \
            [s.lengths for s in slices]
        # Side parts at any index, most of them inside a run.
        r, n = chain.profile.rank, chain.length
        other = partition_of_multiset(
            r * j for j in data.draw(st.lists(st.integers(1, n), max_size=6)))
        assert [s.lengths for s in expand(tight, other, mode)] == \
            expand_reference(tight, other)

    @given(slice_chains(), st.sampled_from(list(ShrinkMode)), st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_error_as_checking_side_parts_in_order(self, chain, mode, empty, data):
        """Side parts off the rank's multiples or past rank * n, in any
        order of the two, raise what a check of each part in turn raises."""
        tight = [] if empty else shrink(chain, mode)[0]
        r, n = chain.profile.rank, chain.length
        side = partition_of_multiset(r * j + extra for j, extra in data.draw(st.lists(
            st.tuples(st.integers(1, n + 3), st.sampled_from([0, 0, 1, 2])), max_size=5)))
        want = expand_error_reference(tight, side)
        got = outcome(expand, tight, side, mode)
        if want is not None:
            assert got == want
        else:
            assert [s.lengths for s in got] == \
                (expand_reference(tight, side) if tight else [])

    def test_side_part_inside_a_run(self):
        big, small = Slice(P111, (3, 2, 2)), Slice(P111, (1, 1, 1))
        chain = SliceChain(P111, ((big, 3), (small, 2)))
        tight, side = shrink(chain, ShrinkMode.EXACT)
        assert [t.lengths for t in tight] == [(2, 1, 1)] * 3 + [(1, 1, 1)] * 2
        assert side == Partition.of(9)   # f_3 = 1; EXACT takes f_5 from 1 to 0
        # 6 = rank * 2 lands between copies 2 and 3 of the first run.
        grown = expand(tight, Partition.of(6), ShrinkMode.EXACT)
        assert [s.lengths for s in grown] == \
            [(3, 2, 2), (3, 2, 2), (2, 1, 1), (1, 1, 1), (1, 1, 1)]
        assert grown[0] is grown[1] and grown[1] is not grown[2]

    def test_first_failing_pair_from_the_top_is_named(self):
        a, b, c = (Slice(P111, ln) for ln in ((1, 1, 0), (1, 0, 1), (0, 1, 1)))
        with pytest.raises(ChainNotDecreasing,
                           match=r"\(1, 1, 0\) does not strictly contain \(1, 0, 1\)"):
            SliceChain(P111, ((a, 1), (b, 1), (c, 1)))


def tiled(profile, chain, window):
    """Row lengths of the tiled path of ``chain``, in any order, at every
    weight 0..window, through the library's ``_tiled_at``."""
    lengths = [s.lengths for s in sorted(chain, key=lambda s: s.weight)]
    return tuple(_tiled_at(profile.offsets(), lengths, range(window + 1)))


def tile_reference(profile, chain, window):
    """Row lengths of the tiled path at every weight 0..window, recording a
    tuple for every box placed."""
    slices = sorted(chain, key=lambda s: s.weight)
    if slices and slices[-1].weight > window:
        raise InadmissibleBeta(
            f"window {window} below the largest chain weight {slices[-1].weight}")
    offsets, r = profile.offsets(), profile.rank
    current = [0] * r
    path = [tuple(current)]
    for target in slices:
        cells = sorted((col, i) for i in range(r)
                       for col in range(offsets[i] + current[i] + 1,
                                        offsets[i] + target.lengths[i] + 1))
        for _, i in cells:
            current[i] += 1
            path.append(tuple(current))
    boundary = [offsets[i] + current[i] for i in range(r)]
    col = min(boundary) + 1
    while len(path) - 1 < window:
        for i in range(r):
            if boundary[i] < col and len(path) - 1 < window:
                current[i] += 1
                path.append(tuple(current))
        col += 1
    return tuple(path)


def pivot_decompose_reference(cp):
    """(mu, beta) read off the slice chain as ``Slice`` values."""
    chain = decompose(cp)
    flags = chain_pivots_reference(cp.profile, chain.distinct())
    beta, mu = [], []
    for (s, mult), flag in zip(chain.entries, flags):
        if flag:
            beta.append((s.weight, slice_shape(s)))
        mu += [s.weight] * (mult - flag)
    return Partition(tuple(mu)), LabeledDistinctPartition(tuple(beta))


def pivot_reconstruct_reference(mu, beta, profile):
    """The tiled path to the largest weight, one ``Slice`` per part of mu
    and beta, summed as a ``SliceChain``."""
    chain = resolve_beta_reference(beta, profile)
    weights = sorted([w for w, _ in beta.entries] + list(mu.parts), reverse=True)
    path = tile_reference(profile, chain, weights[0] if weights else 0)
    return recompose(SliceChain(profile, tuple(
        (Slice(profile, path[w]), len(list(run)))
        for w, run in itertools.groupby(weights))))


def outcome(function, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return function(*args)
    except Exception as exc:
        return type(exc), str(exc)


def random_profile(draw, rank, level):
    """A profile of the given rank and level: the gaps between sorted cut
    points in 0..level."""
    cuts = sorted(draw(st.lists(st.integers(0, level), min_size=rank - 1,
                                max_size=rank - 1)))
    return Profile(tuple(b - a for a, b in zip([0, *cuts], [*cuts, level])))


@st.composite
def workload_partitions(draw):
    """Cylindric partitions of rank 2 to 4, level 1 to 4 and weight up to
    about 120: a chain of slices grown from the empty one a few boxes at a
    time, sometimes repeating a slice, summed."""
    prof = random_profile(draw, draw(st.integers(2, 4)), draw(st.integers(1, 4)))
    target = draw(st.integers(0, 120))
    current, grown, weight = zero_slice(prof), [], 0
    while weight < target:
        for _ in range(draw(st.integers(0 if grown else 1, 3))):
            current = draw(st.sampled_from(successors(current)))
        grown.append(current)
        weight += current.weight
    entries = tuple((s, len(list(run))) for s, run in itertools.groupby(grown[::-1]))
    return recompose(SliceChain(prof, entries))


@st.composite
def beta_candidates(draw):
    """A profile and a labeled distinct partition on it that need not be
    admissible: strictly decreasing weights, each with a shape whose parts
    reach one past the level."""
    prof = random_profile(draw, draw(st.integers(2, 4)), draw(st.integers(1, 4)))
    weights = sorted(draw(st.sets(st.integers(1, 40), max_size=4)), reverse=True)
    shapes = all_shapes(prof.rank, prof.level + 1)
    return prof, LabeledDistinctPartition(
        tuple((w, draw(st.sampled_from(shapes))) for w in weights))


def chain_runs_reference(rows):
    """The slice chain as (row lengths, multiplicity) runs, from the
    definition: slice k has, in row i, the number of parts >= k of row i
    (part k of the row's conjugate), for k = 1 up to the largest part."""
    top = max((p for row in rows for p in row.parts), default=0)
    columns = [tuple(sum(1 for p in row.parts if p >= k) for row in rows)
               for k in range(1, top + 1)]
    return [(lengths, len(list(run))) for lengths, run in itertools.groupby(columns)]


class TestChainRuns:
    def test_matches_definition_on_every_hit(self):
        profiles = all_profiles(3, 3) + all_profiles(4, 2)
        checked = 0
        for prof in profiles:
            for rows in hits(prof, 10):
                rows = [Partition(parts) for parts in rows]
                assert _chain_runs(rows) == chain_runs_reference(rows), rows
                checked += 1
        assert checked > 25000

    @given(workload_partitions())
    @settings(max_examples=300, deadline=None)
    def test_matches_definition_on_workload_mix(self, cp):
        runs = _chain_runs(cp.rows)
        assert runs == chain_runs_reference(cp.rows)
        assert sum(sum(lengths) * mult for lengths, mult in runs) == cp.weight


class TestPivotReference:
    """The pivot bijection, read on row-length tuples, against the former
    ``Slice``-based implementation."""

    @given(workload_partitions())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_on_workload_mix(self, cp):
        prof = cp.profile
        mu, beta = pivot_decompose(cp)
        assert (mu, beta) == pivot_decompose_reference(cp)
        assert pivot_reconstruct(mu, beta, prof) == cp
        assert pivot_reconstruct_reference(mu, beta, prof) == cp
        chain = decompose(cp).distinct()
        widest = max([*mu.parts, *(w for w, _ in beta.entries), 0]) + prof.rank
        for slices in (chain, resolve_beta_reference(beta, prof)):
            # The reference records one box at a time, so the path at any
            # window, below the largest chain weight too, is a prefix of it.
            path = tile_reference(prof, slices, widest)
            for window in range(widest + 1):
                assert tiled(prof, slices, window) == path[:window + 1], window

    def test_matches_reference_over_enumeration(self, small_enumerations):
        """Every partition of weight <= 12 on the small profiles gives the
        reference's (mu, beta), and that pair reconstructs the partition."""
        for prof, partitions in small_enumerations.items():
            for cp in partitions:
                mu, beta = pivot_decompose(cp)
                assert (mu, beta) == pivot_decompose_reference(cp)
                assert pivot_reconstruct(mu, beta, prof) == cp

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_tile_of_any_slice_list(self, data):
        """Tiling does not check its chain; slices that do not nest tile
        as the reference tiles them."""
        prof = random_profile(data.draw, data.draw(st.integers(2, 4)),
                              data.draw(st.integers(1, 4)))
        listed = []
        for steps in data.draw(st.lists(st.integers(0, 12), max_size=4)):
            current = zero_slice(prof)
            for _ in range(steps):
                current = data.draw(st.sampled_from(successors(current)))
            listed.append(current)
        window = data.draw(st.integers(0, 30))
        top = max([s.weight for s in listed], default=0)
        assert tiled(prof, listed, window) == \
            tile_reference(prof, listed, max(window, top))[:window + 1]

    def test_mu_and_beta_cases_random_draws_miss(self, small_enumerations):
        """Parts of mu equal to beta's weights, repeated, above the largest
        weight, or none at all, and an empty beta: each reconstructs as the
        reference does, and decomposes back to the same pair."""
        empty = LabeledDistinctPartition(())
        checked = 0
        for prof, partitions in small_enumerations.items():
            betas = {pivot_decompose(cp)[1] for cp in partitions[::7]} | {empty}
            for beta in betas:
                weights = [w for w, _ in beta.entries]
                top = max(weights, default=0)
                for parts in ([], weights, weights * 3, [1, 1, 1, 2, 2],
                              [top + 2, top + 1, top + 1], [top + 4, *weights, 1]):
                    mu = partition_of_multiset(parts)
                    got = pivot_reconstruct(mu, beta, prof)
                    assert got == pivot_reconstruct_reference(mu, beta, prof)
                    assert pivot_decompose(got) == (mu, beta)
                    checked += 1
        assert checked > 500

    @given(beta_candidates(), st.lists(st.integers(1, 40), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_same_diagnosis_of_any_beta(self, candidate, mu_parts):
        prof, beta = candidate
        mu = partition_of_multiset(mu_parts)
        got = outcome(pivot_reconstruct, mu, beta, prof)
        assert got == outcome(pivot_reconstruct_reference, mu, beta, prof)


class TestSpaceColumns:
    def test_one_pass_matches_two_pass_over_nested_slices(self, small_profiles):
        compared = 0
        for prof in small_profiles:
            layer, pool = {zero_slice(prof)}, set()
            for _ in range(6):
                pool |= layer
                layer = {t for s in layer for t in successors(s)}
            for outer, inner in itertools.product(pool, repeat=2):
                if outer.contains(inner):
                    got = _space_columns(outer.right_ends(), inner.right_ends())
                    assert got == space_columns_reference(
                        outer.right_ends(), inner.right_ends())
                    compared += got is not None
        assert compared > 1000


class TestPublicConstructorsValidate:
    def test_slice(self):
        with pytest.raises(ValueError):
            Slice(P111, (3, 0, 0))
        with pytest.raises(ValueError):
            Slice(P111, (1, 1))

    def test_partition(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_cylindric_partition(self):
        # Row 1 must dominate row 2 with its first c_2 = 1 part dropped.
        with pytest.raises(ViolatedInequality):
            CylindricPartition(P111, (Partition.of(1), Partition.of(5, 5), Partition()))
        with pytest.raises(RowCountMismatch):
            CylindricPartition(P111, (Partition.of(1),))

    def test_slice_chain(self):
        small, large = Slice(P111, (1, 1, 1)), Slice(P111, (2, 2, 2))
        with pytest.raises(ChainNotDecreasing):
            SliceChain(P111, ((small, 1), (large, 1)))
        # A slice of another profile names both profiles.
        with pytest.raises(InvalidInput, match=r"c=\(2,1,0\) in a chain on c=\(1,1,1\)"):
            SliceChain(P111, ((Slice(Profile.of(2, 1, 0), (1, 1, 1)), 1),))

    def test_tiled_path(self):
        # The constructor accepts every slice of the tiled path, one of
        # each weight.
        chain = decompose(parse_cylindric("3,1|2|2", P111)).distinct()
        assert [Slice(P111, lengths).weight for lengths in tiled(P111, chain, 12)] \
            == list(range(13))

    def test_cli_decompose_of_invalid_partition(self, capsys):
        assert main(["decompose", "--profile", "1,1,1", "1,2|1|1"]) == 2
        assert main(["decompose", "--profile", "1,1,1", "1|5,5|"]) == 2


CP = parse_cylindric("5,3,1|4,2|3,3,1", P111)


def _library_and_constructor_built():
    """For each slotted value class: (an instance the library builds on the
    trusted path, an equal one from the validating constructor, a field
    value that constructor rejects, the error it raises)."""
    chain = decompose(CP)
    mu, beta = pivot_decompose(CP)
    lengths = chain.distinct()[0].lengths
    return {
        "Partition": (mu, Partition(mu.parts), {"parts": (1, 2)}, ValueError),
        "Shape": (shape_of_zero(P111), Shape.of(2, 1), {"parts": (1, 2)},
                  ValueError),
        "CylindricPartition": (
            recompose(chain), CylindricPartition(P111, CP.rows),
            {"rows": (Partition.of(1),)}, RowCountMismatch),
        "Slice": (chain.distinct()[0], Slice(P111, lengths),
                  {"lengths": (3, 0, 0)}, ValueError),
        "SliceChain": (chain, SliceChain(P111, chain.entries),
                       {"entries": chain.entries[::-1]}, ChainNotDecreasing),
        "LabeledDistinctPartition": (
            beta, LabeledDistinctPartition(beta.entries),
            {"entries": beta.entries[::-1]}, ValueError),
    }


SLOTTED = _library_and_constructor_built()


@pytest.mark.parametrize("name", sorted(SLOTTED))
class TestSlottedValues:
    def test_library_built_equals_constructor_built(self, name):
        built, checked, _, _ = SLOTTED[name]
        assert type(built) is type(checked) and type(built).__name__ == name
        assert built == checked and hash(built) == hash(checked)
        assert repr(built) == repr(checked)

    def test_no_instance_dict(self, name):
        for value in SLOTTED[name][:2]:
            assert not hasattr(value, "__dict__")

    def test_frozen(self, name):
        for value in SLOTTED[name][:2]:
            field = type(value)._fields[0]
            with pytest.raises(FrozenInstanceError):
                setattr(value, field, getattr(value, field))
            with pytest.raises(AttributeError):
                delattr(value, field)

    def test_deepcopy_and_pickle(self, name):
        for value in SLOTTED[name][:2]:
            for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert twin is not value
                assert type(twin) is type(value) and twin == value
                assert hash(twin) == hash(value)

    def test_replace_validates(self, name):
        """The constructor, given a built value's fields with one of them
        replaced by a bad value, rejects it."""
        built, _, bad, error = SLOTTED[name]
        fields = {field: getattr(built, field) for field in type(built)._fields}
        with pytest.raises(error):
            type(built)(**{**fields, **bad})


def _every_value_class():
    """One value of each class built on ``core._Frozen``, keyed by class:
    the library's, and the quadratic-field elements of the tests'
    references."""
    from cylpart import lineups, rings, series
    from cylpart.diagram import build_graph, path_counts
    chain = decompose(CP)
    mu, beta = pivot_decompose(CP)
    values = [mu, shape_of_zero(P111), CP, P111, chain.distinct()[0], chain, beta,
              series.TruncatedSeries.one(rings.ZZ, 4),
              QuadraticField(5).sqrt(),
              build_graph(2, 2, Profile.of(1, 1)), path_counts(P111, 4),
              classify(P111, []), lineups.lemma_check(1, P111, 4)]
    return {type(value): value for value in values}


def _trusted_builders():
    """(module.name, builder, class) for every ``_trusted`` builder each
    module of the package builds with: those it makes at module level and
    those it imports from the module that makes them."""
    made, uses = {}, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) \
                    and getattr(node.value.func, "id", None) == "_trusted":
                module = importlib.import_module(f"cylpart.{path.stem}")
                made[node.targets[0].id] = getattr(module, node.value.args[0].id)
                uses.append((path.stem, node.targets[0].id))
            elif isinstance(node, ast.ImportFrom):
                uses += [(path.stem, alias.name) for alias in node.names
                         if alias.name.startswith("_new_")]
    return [(f"{stem}.{name}", getattr(importlib.import_module(f"cylpart.{stem}"), name),
             made[name]) for stem, name in uses]


def _unset_slots(value):
    """The slots of ``value`` that were never set."""
    return [name for name in type(value).__slots__ if not hasattr(value, name)]


def _derived_hold(value):
    """Whether the stored derived values equal their definitions."""
    if isinstance(value, Slice):
        return value.weight == sum(value.lengths) and _derived_hold(value.profile)
    if isinstance(value, Profile):
        return (value.rank, value.level, value.offsets()) == (
            len(value.parts), sum(value.parts),
            tuple(sum(value.parts[i + 1:]) for i in range(len(value.parts))))
    raise TypeError(value)


class TestValueClasses:
    @pytest.mark.parametrize("where,build,cls", _trusted_builders(),
                             ids=lambda x: x if isinstance(x, str) else "")
    def test_trusted_builders_set_every_slot(self, where, build, cls):
        """Every slot of a value made by a ``_trusted`` builder reads back,
        derived slots included, and equals the validated value's."""
        value = _every_value_class()[cls]
        built = build(*(getattr(value, name) for name in cls._fields))
        assert _unset_slots(built) == [], where
        assert built == value
        for name in cls.__slots__:
            assert getattr(built, name) == getattr(value, name), (where, name)

    def test_a_builder_that_skips_weight_is_caught(self, monkeypatch):
        """The slot check above fails for a builder that leaves the
        derived ``weight`` unset."""
        monkeypatch.setattr(Slice, "_derived", ())
        bare = _trusted(Slice)(P111, (1, 1, 0))
        assert _unset_slots(bare) == ["weight"]
        with pytest.raises(AttributeError):
            bare.weight

    def test_derived_values_hold_everywhere(self):
        """``Slice.weight``, ``Profile.rank`` and ``Profile.level`` equal
        their definitions however the value was made."""
        chain = decompose(CP)
        values = [Slice(P111, (2, 1, 1)), zero_slice(P111), *chain.distinct(),
                  slice_with(P111, Shape.of(2, 1), 6), P111, Profile.of(0, 3, 1, 2),
                  Profile((4,)), CP.profile]
        for s in chain.distinct():
            values += successors(s)
        for mode in ShrinkMode:
            tight, side = shrink(chain, mode)
            values += tight + expand(tight, side, mode)
        for value in values:
            for twin in (value, copy.copy(value), copy.deepcopy(value),
                         pickle.loads(pickle.dumps(value))):
                assert _unset_slots(twin) == [] and _derived_hold(twin), twin

    def test_every_class_is_covered_and_slotted(self):
        values = _every_value_class()
        assert set(values) == set(_Frozen.__subclasses__())
        assert len(values) == 13
        for cls, value in values.items():
            assert "__slots__" in vars(cls) and not hasattr(value, "__dict__"), cls
            assert set(cls._fields) <= set(cls.__slots__), cls

    @pytest.mark.parametrize("cls", sorted(_every_value_class(), key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_frozen_equal_copies_and_field_repr(self, cls):
        value = _every_value_class()[cls]
        for name in cls.__slots__:
            with pytest.raises(FrozenInstanceError):
                setattr(value, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(value, name)
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin is not value and type(twin) is cls
            assert twin == value and hash(twin) == hash(value)
        fields = ", ".join(f"{name}={getattr(value, name)!r}" for name in cls._fields)
        assert repr(value) == f"{cls.__name__}({fields})"

    def test_repr_reads_as_before(self):
        assert repr(Partition.of(3, 1)) == "Partition(parts=(3, 1))"
        assert repr(P111) == "Profile(parts=(1, 1, 1))"
        assert repr(Slice(P111, (1, 1, 0))) == \
            "Slice(profile=Profile(parts=(1, 1, 1)), lengths=(1, 1, 0))"

    def test_field_order_is_the_constructor_order(self):
        """A copy calls the constructor with the fields in ``_fields``
        order, so that order must be the constructor's."""
        import inspect
        for cls in _every_value_class():
            params = list(inspect.signature(cls.__init__).parameters)[1:]
            assert params[:len(cls._fields)] == list(cls._fields), cls


def _imports_and_trusted_uses(module: str) -> tuple[set[str], int]:
    """Package modules ``module`` imports from (``cylpart`` for the package
    itself), and how often it imports or names ``_trusted`` outside its
    definition or imports a trusted builder (a ``_new_*`` name)."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names, uses = [], 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            uses += sum(alias.name == "_trusted" or alias.name.startswith("_new_")
                        for alias in node.names)
        if isinstance(node, ast.ImportFrom) and node.level:
            names.extend([f"cylpart.{node.module}"] if node.module else
                         [f"cylpart.{alias.name}" for alias in node.names])
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module)
        elif isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and node.id == "_trusted" or \
                isinstance(node, ast.Attribute) and node.attr == "_trusted":
            uses += 1
    imported = {(name.split(".") + ["cylpart"])[1] for name in names
                if name.split(".")[0] == "cylpart"}
    return imported, uses


def _load_time_imports(source: str) -> list[str]:
    """The modules the source imports when it loads, a package module as
    ``cylpart.<name>``: imports inside a function body or under ``if
    TYPE_CHECKING`` do not count."""
    names, stack = [], list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            names += [f"cylpart.{node.module}"] if node.module else \
                [f"cylpart.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append(node.module)
        elif isinstance(node, ast.If) and isinstance(node.test, ast.Name) and \
                node.test.id == "TYPE_CHECKING":
            stack.extend(node.orelse)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))
    return names


class TestModuleBoundaries:
    def test_oracle_stays_independent(self):
        imported, _ = _imports_and_trusted_uses("oracle")
        assert imported <= {"core", "qpoly", "series", "rings"}
        assert not imported & {"slices", "bijection", "diagram", "polynomials"}

    def test_trusted_constructor_only_where_values_are_valid_by_construction(self):
        users = {path.stem for path in SRC.glob("*.py")
                 if _imports_and_trusted_uses(path.stem)[1]}
        assert "slices" in users and "oracle" in users
        assert users <= {"core", "slices", "bijection", "oracle"}

    def test_builders_made_once_at_import(self):
        """Every ``_trusted`` call is a module-level assignment of one
        private builder from one slotted class, so no value pays for making
        its builder; each builder is made once, in the module that defines
        its class, and any other module imports it from there."""
        builders = {}
        trees = {path.stem: ast.parse(path.read_text())
                 for path in sorted(SRC.glob("*.py"))}
        for module, tree in trees.items():
            assigned = {id(node.value): node.targets for node in tree.body
                        if isinstance(node, ast.Assign)}
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call) and
                        isinstance(node.func, ast.Name) and node.func.id == "_trusted"):
                    continue
                where = f"{module}.py line {node.lineno}"
                assert id(node) in assigned, f"{where}: _trusted called below module level"
                (target,) = assigned[id(node)]
                assert isinstance(target, ast.Name) and target.id.startswith("_"), where
                assert target.id not in builders, f"{where}: {target.id} made twice"
                builders[target.id] = module
                assert len(node.args) == 1 and not node.keywords, where
                assert isinstance(node.args[0], ast.Name), where
                cls = getattr(importlib.import_module(f"cylpart.{module}"),
                              node.args[0].id)
                assert isinstance(cls, type) and "__slots__" in vars(cls), where
                assert cls.__module__ == f"cylpart.{module}", where
        assert builders == {"_new_chain": "slices", "_new_cylindric": "core",
                            "_new_labeled": "bijection", "_new_partition": "core",
                            "_new_shape": "core", "_new_slice": "slices"}
        for module, tree in trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        if alias.name in builders:
                            assert node.level == 1 and \
                                node.module == builders[alias.name], (module, alias.name)

    def test_no_runtime_self_checks_in_library(self):
        """Library code states its invariants in tests, not as asserts."""
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text())
            lines = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Assert)]
            assert not lines, f"{path.name}: assert at lines {lines}"

    def test_mismatches_are_found_and_worded_in_series_only(self):
        """Every check finds its first bad coefficient through
        ``series.compare``, so one module decides how a failure reads."""
        for path in sorted(SRC.glob("*.py")):
            if path.stem == "series":
                continue
            tree = ast.parse(path.read_text())
            lines = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Call) and "first_mismatch" in
                     (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
            assert not lines, f"{path.name}: first_mismatch called at lines {lines}"

    def test_no_dataclasses_in_library(self):
        """The value classes build on ``core._Frozen``, so no job pays for
        importing ``dataclasses`` and the modules it pulls in."""
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text())
            names = [alias.name for node in ast.walk(tree)
                     if isinstance(node, ast.Import) for alias in node.names]
            names += [node.module for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and not node.level]
            assert not [n for n in names if n.split(".")[0] == "dataclasses"], path.name

    def test_no_fractions_at_load(self):
        """No module imports ``fractions`` when it loads, so only the job
        that needs exact rationals pays for importing it (and ``decimal``
        and ``numbers``, which it pulls in); a function may import it in
        its own body."""
        assert _load_time_imports("if True:\n    import fractions") == ["fractions"]
        assert _load_time_imports("def f():\n    from fractions import Fraction") == []
        for path in sorted(SRC.glob("*.py")):
            assert "fractions" not in _load_time_imports(path.read_text()), path.name

    def test_graph_and_lineups_import_few_modules_at_load(self):
        """The package modules ``diagram`` and ``lineups`` import when they
        load.  ``series`` and ``rings`` are imported only in the functions
        that need them, and ``lineups`` imports ``slices`` and ``bijection``
        nowhere, so building the shape graph or listing lineups loads none
        of them."""
        assert sorted(_load_time_imports("from . import core\nfrom .qpoly import QPoly")) == \
            ["cylpart.core", "cylpart.qpoly"]
        assert _load_time_imports("if TYPE_CHECKING:\n    from .series import Check") == []

        def package_imports(module):
            return {name for name in _load_time_imports((SRC / f"{module}.py").read_text())
                    if name.split(".")[0] == "cylpart"}

        assert package_imports("diagram") == {"cylpart.core", "cylpart.qpoly"}
        assert package_imports("lineups") == {"cylpart", "cylpart.core", "cylpart.polynomials",
                                              "cylpart.qpoly"}
        assert not _imports_and_trusted_uses("lineups")[0] & {"slices", "bijection"}
