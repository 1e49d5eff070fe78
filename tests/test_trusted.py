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
from cylpart import (CylindricPartition, LabeledDistinctPartition, Partition,
                     Profile, RowCountMismatch, Shape, ShrinkMode, Slice,
                     SliceChain, TiledPath, ViolatedInequality,
                     decompose, expand, parse_cylindric,
                     pivot_decompose, recompose,
                     shape_of_zero, shrink, slice_shape, successors, tile,
                     validate, zero_slice)
from cylpart.core import FrozenInstanceError, _Frozen, _space_columns
from cylpart.cli import main
from cylpart.slices import ChainNotDecreasing, ChainNotStrict

from conftest import all_profiles

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
                if cp.is_empty:
                    continue
                for mode in ShrinkMode:
                    tight, side = shrink(chain, mode)
                    assert side == Partition(side.parts)
                    built.update(tight, expand(tight, side, mode))
                window = chain.distinct()[0].weight + prof.rank
                path = tile(prof, chain.distinct(), window)
                built.update(path.slice_at(w) for w in range(window + 1))
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
        # A plain slice list is read as runs of length 1.
        assert (tight, side) == shrink(slices, mode)
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
        with pytest.raises(ChainNotStrict, match=r"\(1, 1, 0\) does not"):
            shrink([a, b, c], ShrinkMode.AT_MOST)


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

    def test_tiled_path(self):
        with pytest.raises(ValueError):
            TiledPath(P111, ((5, 0, 0),))
        with pytest.raises(ValueError):   # valid slice, wrong weight
            TiledPath(P111, ((0, 0, 0), (1, 1, 0)))
        chain = decompose(parse_cylindric("3,1|2|2", P111)).distinct()
        path = tile(P111, chain, 12)
        assert path == TiledPath(P111, path.slices)

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
    path = tile(P111, chain.distinct(), 20)
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
        "TiledPath": (path, TiledPath(P111, path.slices),
                      {"slices": ((5, 0, 0),)}, ValueError),
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
    """One value of each class built on ``core._Frozen``, keyed by class."""
    from cylpart import lineups, rings, series
    from cylpart.diagram import (ClosedFormReport, build_graph, fit_recurrence,
                                 path_counts)
    chain = decompose(CP)
    mu, beta = pivot_decompose(CP)
    values = [mu, shape_of_zero(P111), CP, P111, chain.distinct()[0], chain, beta,
              tile(P111, chain.distinct(), 12),
              series.TruncatedSeries.one(rings.ZZ, 4),
              rings.QuadraticField(5).sqrt(),
              build_graph(2, 2, Profile.of(1, 1)), path_counts(P111, 4),
              fit_recurrence([1, 1, 2, 3, 5, 8, 13, 21, 34, 55]),
              ClosedFormReport(P111, 5, None, True),
              lineups.classify(P111, []), lineups.lemma_check(1, P111, 4)]
    return {type(value): value for value in values}


class TestValueClasses:
    def test_every_class_is_covered_and_slotted(self):
        values = _every_value_class()
        assert set(values) == set(_Frozen.__subclasses__())
        assert len(values) == 16
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

    def test_lineup_labels_are_not_part_of_the_value(self):
        from cylpart import lineups
        s = Slice(P111, (2, 1, 1))
        derived = lineups.Lineup(P111, (s,), "none", frozenset())
        assert derived.labels == (slice_shape(s),)
        other = lineups.Lineup(P111, (s,), "none", frozenset(), (Shape.of(0, 0),))
        assert other == derived and hash(other) == hash(derived)
        assert repr(other) == repr(derived) and "labels" not in repr(other)

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
    definition."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names, uses = [], 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            uses += sum(alias.name == "_trusted" for alias in node.names)
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
        its builder; no module imports another module's builder."""
        builders = set()
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
                builders.add(target.id)
                assert len(node.args) == 1 and not node.keywords, where
                assert isinstance(node.args[0], ast.Name), where
                cls = getattr(importlib.import_module(f"cylpart.{module}"),
                              node.args[0].id)
                assert isinstance(cls, type) and "__slots__" in vars(cls), where
        assert len(builders) >= 7
        for module, tree in trees.items():
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    assert not {alias.name for alias in node.names} & builders, module

    def test_no_runtime_self_checks_in_library(self):
        """Library code states its invariants in tests, not as asserts."""
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text())
            lines = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Assert)]
            assert not lines, f"{path.name}: assert at lines {lines}"

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
