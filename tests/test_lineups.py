import ast
import itertools
import json
import math
import sys
import types
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from conftest import all_profiles
from cylpart import (Profile, QPoly, Shape, family, lemma_check,
                     minimal_jammed_lines, minimal_loose_lines, pivot_chain_gf,
                     qconj_genfunc_check, shape_of_zero, slice_with)
from cylpart import lineups
from cylpart.cli import main
from cylpart.lineups import minimal_jammed_correction
from references import (NotPotentialPivot, chain_from_gaps, classify,
                        pivot_chain_gf_reference)

P110 = Profile.of(1, 1, 0)
P400 = Profile.of(4, 0, 0)
P211 = Profile.of(2, 1, 1)


def chain(profile, entries):
    """Build a chain from (weight, shape-tuple) pairs, any order."""
    slices = [slice_with(profile, Shape(s), w)
              for w, s in sorted(entries, reverse=True)]
    assert all(s is not None for s in slices)
    return slices


def read_line(line):
    """(weight, iota, shape texts smallest slice first) of a listed line."""
    pieces, iota, _ = line.split(" ")
    pairs = [piece.split("^") for piece in pieces.replace("),", ") ").split()]
    iota = iota[len("iota={"):-1]
    return (sum(int(w) for w, _ in pairs),
            frozenset(int(j) for j in iota.split(",") if j),
            tuple(sh for _, sh in pairs))


class TestPotentialPivots:
    def test_small_family(self):
        assert [s.parts for s in family(3, 2).pivot_shapes] == \
            [(2, 0), (2, 1), (2, 2)]

    def test_none_at_level_one(self):
        assert family(2, 1).pivot_shapes == []

    def test_count_formula(self):
        for r in range(1, 5):
            for level in range(1, 6):
                got = family(r, level).pivot_shapes
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


def reference_minimal_loose(n, profile):
    """Every shape choice, its chain built with loose gaps and classified
    from scratch: the reference for the lines the library writes from the
    distances alone, in the order it must list them."""
    shapes = family(profile.rank, profile.level).pivot_shapes
    out = []
    for combo in itertools.product(shapes, repeat=n):
        chain = chain_from_gaps(profile, combo, [False] * n)
        assert chain is not None, (profile, combo)
        out.append(classify(profile, chain))
    return out


class TestMinimalLoose:
    def test_counts(self):
        for prof in [P110, Profile.of(0, 2, 0), Profile.of(2, 1)]:
            b = math.comb(prof.level + prof.rank - 1, prof.rank - 1)
            for n in range(5):
                found = minimal_loose_lines(n, prof)
                assert len(found) == (b - prof.rank) ** n
                assert len(set(found)) == len(found)

    def test_level2_example_present(self):
        texts = minimal_loose_lines(3, P110)
        assert any(t.startswith("4^(2,0),8^(2,1),12^(2,2)") for t in texts)

    def test_unique_per_shape_sequence(self):
        found = minimal_loose_lines(2, P110)
        assert len({read_line(t)[2] for t in found}) == len(found)

    def test_weight_sum_equals_recurrence_polynomial(self):
        # dual route: the layered polynomial recurrence against the literal
        # weight sum over the listed lineups
        from cylpart import pivot_lineup_poly
        for prof in [P110, Profile.of(0, 2, 0), Profile.of(2, 1),
                     Profile.of(1, 1, 1), Profile.of(4, 0)]:
            for n in range(4):
                total = QPoly()
                for line in minimal_loose_lines(n, prof):
                    total = total + QPoly.monomial(read_line(line)[0])
                assert total == pivot_lineup_poly(prof, n), (prof, n)

    def test_loose_gaps_always_build_minimal_loose_chains(self):
        for prof in all_profiles(3, 3):
            for n in range(4):
                expected = reference_minimal_loose(n, prof)
                assert all(l.classification == "minimal-loose" for l in expected)
                assert minimal_loose_lines(n, prof) == \
                    [l.to_text() for l in expected], (prof, n)


def brute_force_minimal_jammed(n, profile):
    """Every shape choice times every non-empty set of tight gaps, each
    chain built and classified from scratch: the reference for the pruned
    walk, in the order it must list its results."""
    shapes = family(profile.rank, profile.level).pivot_shapes
    out = []
    for combo in itertools.product(shapes, repeat=n):
        for mask in range(1, 1 << n):
            tight = [(mask >> j) & 1 == 1 for j in range(n)]
            chain = chain_from_gaps(profile, combo, tight)
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
        # A line lists its smallest slice first.
        assert not any(t.startswith("1^") for t in minimal_jammed_lines(1, p020))

    def test_examples_present(self):
        texts = minimal_jammed_lines(3, P400)
        assert any(t.startswith("5^(4,1),9^(4,2),10^(4,3)") and "iota={1,3}" in t
                   for t in texts)
        assert any(t.startswith("5^(4,1),6^(4,2),10^(4,3)") and "iota={2,3}" in t
                   for t in texts)

    def test_upper_bound(self):
        for prof in [P110, Profile.of(0, 2, 0), Profile.of(2, 1), Profile.of(1, 1, 1)]:
            b = math.comb(prof.level + prof.rank - 1, prof.rank - 1)
            for n in range(1, 4):
                found = minimal_jammed_lines(n, prof)
                assert len(found) <= (2 ** n - 1) * (b - prof.rank) ** n
                for line in found:
                    assert line.endswith(" class=minimal-jammed")
                    assert read_line(line)[1]

    def test_walk_equals_brute_force(self):
        for prof, n in WALK_CASES + GF_CASES:
            expected = brute_force_minimal_jammed(n, prof)
            assert minimal_jammed_lines(n, prof) == \
                [l.to_text() for l in expected], (prof, n)

    def test_space_measured_once_per_lower_slice_and_step(self, monkeypatch):
        # The n <= 2 calls verify-all makes.  Each call lists the steps out
        # of a lower slice once, in its step table, with the space between
        # the two slices and the pivot flag of the slice above: 4,717 rows
        # here.
        seen = []
        measure = lineups._space_columns

        def counting(outer, inner):
            seen.append((outer, inner))
            return measure(outer, inner)

        monkeypatch.setattr(lineups, "_space_columns", counting)
        total = 0
        for parts in [(2, 1), (3, 1), (1, 1, 1), (1, 1, 0), (2, 1, 1), (1, 1, 1, 1)]:
            prof = Profile.of(*parts)
            for n in (1, 2):
                seen.clear()
                found = minimal_jammed_lines(n, prof)
                # A pair of right ends is one (lower slice, step) pair.
                assert len(set(seen)) == len(seen), (prof, n)
                total += len(seen)
                expected = brute_force_minimal_jammed(n, prof)
                assert found == [l.to_text() for l in expected], (prof, n)
        assert total == 4717

    def test_concurrent_calls_match_serial(self):
        # Each call keeps its step table to itself; the iota text cache is
        # shared, so the threads list lines of both kinds.
        def listing(prof, n):
            return minimal_jammed_lines(n, prof), minimal_loose_lines(n, prof)

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
        maxsize = lineups._iota_text.cache_info().maxsize
        assert maxsize is not None and maxsize > 0

    def test_correction_equals_per_lineup_sum(self):
        for prof, n in WALK_CASES:
            total = QPoly()
            for line in minimal_jammed_lines(n, prof):
                weight, iota, _ = read_line(line)
                piece = QPoly.monomial(weight)
                for j in iota:
                    piece = piece * (QPoly.one() - QPoly.monomial(prof.rank * j))
                total = total + piece
            assert minimal_jammed_correction(n, prof) == total, (prof, n)


def _names_read(code):
    """The global and attribute names a code object reads, with those of
    the functions defined in it."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names_read(const)
    return names


def listed(capsys, prof, n, fmt, kind="mjl"):
    code = main(["lineups", "--kind", kind, "--n", str(n), "--profile",
                 ",".join(map(str, prof.parts)), "--format", fmt])
    return code, capsys.readouterr().out


def assert_cli_lines(capsys, prof, n, kind, texts):
    """``lineups --kind <kind>`` writes exactly ``texts`` in each format."""
    lines = "".join(f"{t}\n" for t in texts)
    payload = {"command": "lineups", "profile": list(prof.parts),
               "kind": kind, "n": n, "lineups": texts, "schema": 1}
    expected = {"text": lines, "csv": lines,
                "json": json.dumps(payload, indent=2) + "\n"}
    for fmt, out in expected.items():
        assert listed(capsys, prof, n, fmt, kind) == (0, out), (prof, n, fmt)


class TestJammedLines:
    """``lineups --kind mjl`` makes its lines straight from the walk."""

    def test_cli_lines_equal_lineup_texts(self, capsys):
        # The lines equal the reference texts: test_walk_equals_brute_force.
        for prof, n in WALK_CASES + GF_CASES:
            assert_cli_lines(capsys, prof, n, "mjl", minimal_jammed_lines(n, prof))

    def test_cli_builds_no_lineup(self, capsys):
        # The library has no lineup class, the minimal loose lines come
        # from the distances alone, and the minimal jammed walk reads
        # slices as right ends: ``lineups`` imports nothing from
        # ``slices`` or ``bijection``, in a function body either, nor
        # reaches them through the package.
        assert not hasattr(lineups, "Lineup")
        reached = set()
        for node in ast.walk(ast.parse(Path(lineups.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                reached |= {*(node.module or "").split("."),
                            *(alias.name for alias in node.names)}
            elif isinstance(node, ast.Import):
                reached |= {part for alias in node.names for part in alias.name.split(".")}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "cylpart":
                reached.add(node.attr)
        assert "oracle" in reached and not reached & {"slices", "bijection"}
        code, out = listed(capsys, P400, 3, "text")
        assert code == 0 and len(out.splitlines()) == 6946
        code, out = listed(capsys, P400, 3, "text", "mll")
        assert code == 0 and len(out.splitlines()) == 12 ** 3


class TestLooseLines:
    """``lineups --kind mll`` writes the minimal loose lines."""

    def test_cli_lines_equal_lineup_texts(self, capsys):
        for prof, n in WALK_CASES + [(P211, 3)]:
            texts = [l.to_text() for l in reference_minimal_loose(n, prof)]
            assert_cli_lines(capsys, prof, n, "mll", texts)


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
            loose = Counter(read_line(t)[0] for t in minimal_loose_lines(n, prof))
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

    def test_chain_walk_equals_brute_force(self):
        profiles = list(dict.fromkeys(all_profiles(3, 3) + all_profiles(4, 2)))
        for prof in profiles:
            for n in range(5):
                assert pivot_chain_gf(n, prof, 12) == \
                    pivot_chain_gf_reference(n, prof, 12), (prof, n)
        p111 = Profile.of(1, 1, 1)
        assert pivot_chain_gf(3, p111, 16) == pivot_chain_gf_reference(3, p111, 16)

    @pytest.mark.parametrize("profile,n,order", [
        (Profile.of(1, 1, 1), 1, 12), (P110, 2, 14), (Profile.of(2, 1), 2, 14),
        (Profile.of(0, 2, 0), 3, 12), (Profile.of(3, 0), 2, 12)])
    def test_lemma(self, profile, n, order):
        report = lemma_check(n, profile, order)
        assert report.ok, str(report)

    @pytest.mark.parametrize("parts", [(1, 0), (1,), (1, 0, 0)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_lemma_on_zeros_does_not_pass(self, parts, n):
        """A level-1 or rank-1 profile has no potential pivot shape, so no
        chain of n >= 1 pivots exists: both sides are 0 and the check
        does not apply."""
        report = lemma_check(n, Profile(parts), 12)
        assert not any(pivot_chain_gf(n, Profile(parts), 12).coeffs)
        assert report.ok is None and report.mismatch is None
        assert "the order is below the first term" in report.detail

    def test_lemma_at_n_zero_does_not_apply(self):
        """At n = 0 both sides are 1, from the empty chain alone, so the
        check compared nothing that could fail."""
        report = lemma_check(0, Profile.of(1, 1, 1), 8)
        assert report.ok is None and report.mismatch is None
        assert report.detail == ("only the empty chain was compared for "
                                 "c=(1,1,1), n=0, q^8: both sides are 1")

    def test_genfunc_at_n_zero_does_not_apply(self):
        """At n_max = 0 the z^0 column holds only the empty partition on
        the oracle's side and the empty chain on the lineups' side."""
        report = qconj_genfunc_check(Profile.of(2, 1), 10, 0)
        assert report.ok is None and report.mismatch is None
        assert report.detail == ("only the empty chain was compared for "
                                 "c=(2,1), n=0, q^10: both sides are 1")

    def test_walks_keep_their_own_pivot_code(self):
        # A pivot-rule fault in one walk shared by both sides of the lemma
        # (``left >= under_right`` -> ``left > under_right``, or
        # ``x + 1 < right`` -> ``x < right``) still passed
        # ``pivot-chain-lemma`` for n = 1-3 to q^12 on all 9 profiles tried
        # ((2,1), (3,1), (1,1,1), (1,1,0), (2,1,1), (1,1,1,1), (4,0,0), (2,2)
        # and (0,2,0)); only ``pivot-genfunc`` caught it, on 6 of them.
        # With two walks, the same fault in either walk alone fails the
        # lemma on 6 of the 9.  So neither walk calls the other, and what
        # they both call reads shapes and spaces but decides no pivot.
        chain_names = _names_read(lineups.pivot_chain_gf.__code__)
        jammed_names = _names_read(lineups._minimal_jammed.__code__)
        assert "_minimal_jammed" not in chain_names
        assert "pivot_chain_gf" not in jammed_names
        shared = {name for name in chain_names & jammed_names
                  if callable(getattr(lineups, name, None))}
        assert shared == {"family", "shape_of_zero", "_space_columns"}

    def test_genfunc_identities(self):
        for profile in [Profile.of(1, 1, 1), Profile.of(2, 1), P110]:
            report = qconj_genfunc_check(profile, 10, 3)
            assert report.ok, str(report)

    def test_correction_vanishes_at_one(self):
        for n in range(1, 4):
            poly = minimal_jammed_correction(n, P110)
            assert poly(1) == 0 or not poly  # every term carries (1 - q^{rj})
