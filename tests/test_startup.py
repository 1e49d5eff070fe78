"""What ``import cylpart`` and each subcommand load, read in fresh
interpreters, and the public names the lazy package namespace resolves."""

import argparse
import contextlib
import functools
import importlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cylpart
from cylpart import cli

SRC = str(Path(cylpart.__file__).resolve().parent.parent)

# Runs one subcommand as ``python -m cylpart`` does, with its stdout dropped.
RUN_COMMAND = """
import contextlib, io, runpy, sys
sys.argv = ["cylpart", *{argv!r}]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("cylpart", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert exc.code == 0, exc.code
"""


def all_loaded_modules(code: str) -> set[str]:
    """Every module loaded once ``code`` has run in a fresh interpreter."""
    report = "\nimport sys\nprint(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code + report], env=env,
                          capture_output=True, text=True, check=True)
    return set(done.stdout.split())


def loaded_modules(code: str) -> set[str]:
    """The cylpart modules loaded once ``code`` has run in a fresh interpreter."""
    return {m for m in all_loaded_modules(code) if m.split(".")[0] == "cylpart"}


# One small run of each subcommand.
RUNS = {
    "enumerate": ["--profile", "1,1", "--order", "2"],
    "count": ["--profile", "1,1", "--order", "2"],
    "borodin": ["--profile", "1,1", "--order", "2"],
    "decompose": ["--profile", "1,1,1", "3,1|2|2"],
    "reconstruct": ["--profile", "1,1,1", "--mu", "2"],
    "slices": ["--profile", "1,1,1", "3,1|2|2"],
    "shrink": ["--profile", "1,1,1", "3,1|2|2"],
    "stg": ["--rank", "2", "--level", "2"],
    "path-counts": ["--profile", "1,1", "--order", "3"],
    "distinct-gf": ["--profile", "1,1", "--order", "3"],
    "verify-closed-form": ["--profile", "1,1,1", "--order", "5"],
    "poly": ["P", "--profile", "1,1", "--n", "1"],
    "functional-eq": ["--profile", "1,1", "--order", "3"],
    "lineups": ["--profile", "2,1", "--n", "1"],
    "lemma-check": ["--profile", "1,1,1", "--n", "1", "--order", "4"],
    "qconj-check": ["--profile", "1,1", "--order", "3", "--n", "1"],
    "verify-all": ["--profile", "1,1", "--order", "3"],
}


# The cylpart modules each subcommand loads beyond core, which ``import
# cylpart`` always loads, and the cli: the modules its handler reaches
# through the package and those they import, in a function body too.
CLOSURES = {
    "enumerate": ("oracle",), "count": ("oracle",), "borodin": ("series",),
    "decompose": ("bijection",), "reconstruct": ("bijection",),
    "slices": ("slices",), "shrink": ("slices",),
    "stg": ("diagram",), "path-counts": ("diagram",),
    "distinct-gf": ("diagram", "series"), "verify-closed-form": ("diagram", "series"),
    "poly": ("polynomials",), "functional-eq": ("polynomials", "series"),
    "lineups": ("lineups",), "lemma-check": ("lineups", "series"),
    "qconj-check": ("lineups", "oracle"),
    "verify-all": ("verify",),
}


def test_import_loads_core_only():
    assert loaded_modules("import cylpart") == {"cylpart", "cylpart.core"}


# The subcommands that run the oracle.
ORACLE_COMMANDS = {"enumerate", "count", "qconj-check", "verify-all"}


@pytest.mark.parametrize("argv", [
    ["borodin", "--profile", "2,1", "--order", "6"],
    ["poly", "P", "--profile", "2,1", "--n", "2"],
    ["path-counts", "--profile", "1,1,1", "--order", "6"],
    ["lineups", "--kind", "mjl", "--profile", "2,1", "--n", "2"],
    ["qconj-check", "--profile", "1,1", "--order", "4", "--n", "1"],
    ["count", "--profile", "2,1", "--order", "6"],
    ["functional-eq", "--profile", "1,1", "--order", "4"],
    ["verify-closed-form", "--profile", "1,1,1", "--order", "6"],
    ["stg", "--rank", "2", "--level", "2"],
    ["slices", "--profile", "1,1,1", "3,1|2|2"],
    ["verify-all", "--profile", "1,1", "--order", "3"],
    *([command, *RUNS[command]] for command in
      ("enumerate", "decompose", "reconstruct", "shrink", "distinct-gf", "lemma-check"))])
def test_subcommand_loads_its_table_closure(argv):
    closure = loaded_modules(
        "\n".join(f"import cylpart.{name}" for name in CLOSURES[argv[0]]))
    assert loaded_modules(RUN_COMMAND.format(argv=argv)) == closure | {"cylpart.cli"}
    # Only the subcommands that run the oracle load it.
    assert ("cylpart.oracle" in closure) == (argv[0] in ORACLE_COMMANDS)


@pytest.mark.parametrize("argv", [
    ["poly", "Qtilde", "--profile", "1,1,0", "--n", "2"],
    ["lineups", "--kind", "mjl", "--profile", "4,0,0", "--n", "2"]])
def test_tables_and_listings_load_no_series(argv):
    loaded = loaded_modules(RUN_COMMAND.format(argv=argv))
    assert not loaded & {"cylpart.series", "cylpart.rings"}


def test_table_keys_are_the_subcommands():
    [subparsers] = [action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)]
    assert list(CLOSURES) == list(subparsers.choices)
    assert set(RUNS) == set(CLOSURES)


@functools.cache
def loaded_by_run(command: str) -> frozenset[str]:
    """Every module loaded once the small run of ``command`` has run in a
    fresh interpreter."""
    return frozenset(all_loaded_modules(RUN_COMMAND.format(argv=[command, *RUNS[command]])))


@pytest.mark.parametrize("command", sorted(RUNS))
def test_subcommand_runs_without_dataclasses_or_inspect(command):
    loaded = loaded_by_run(command)
    assert "cylpart.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize("command", sorted(RUNS))
def test_only_verify_closed_form_loads_fractions(command):
    """No subcommand loads fractions: verify-closed-form, the only one that
    did, finds the minimal polynomial of its path counts over the
    integers."""
    assert "fractions" not in loaded_by_run(command)


@pytest.mark.parametrize("command", ["stg", "path-counts"])
def test_graph_jobs_load_neither_slices_nor_series(command):
    """The shape graph comes from shape arithmetic, and the path counts
    build no series."""
    assert not loaded_by_run(command) & {"cylpart.slices", "cylpart.series"}


@pytest.mark.parametrize("argv", [
    ["lineups", "--kind", "mjl", "--profile", "2,1", "--n", "2"],
    ["qconj-check", *RUNS["qconj-check"]],
    ["lemma-check", *RUNS["lemma-check"]],
    ["lineups", *RUNS["lineups"]]])
def test_jammed_walk_loads_no_bijection(argv):
    """Both lineup walks read slices as right ends and decide their pivots
    with their own code, so no lineup job loads the bijection or the
    slices."""
    assert not loaded_modules(RUN_COMMAND.format(argv=argv)) & \
        {"cylpart.bijection", "cylpart.slices"}


def _parse_outcome(parser, argv):
    """(exit code, stdout, stderr) of parsing ``argv``, which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", list(CLOSURES))
def test_own_parser_matches_the_full_parser(command):
    """A subcommand's own parser prints the same help and usage errors as
    the parser of every subcommand: an error of the subcommand's parser
    and one the top-level parser reports."""
    full, own = cli.build_parser(), cli.build_parser([command])
    help_text = _parse_outcome(full, [command, "--help"])
    assert help_text[0] == 0 and help_text[1].startswith(f"usage: cylpart {command} ")
    assert _parse_outcome(own, [command, "--help"]) == help_text
    for argv in ([command, "--format", "xml"], [command, *RUNS[command], "--bogus"]):
        error = _parse_outcome(full, argv)
        assert error[0] == 2 and "error:" in error[2]
        assert _parse_outcome(own, argv) == error


# Every public name the package exported when it imported all its modules
# eagerly, by defining module.
EXPORTED = {
    "core": ["CylindricPartition", "CylpartError", "InvalidInput", "Partition",
             "Profile", "RankMismatch", "RowCountMismatch", "Shape",
             "ViolatedInequality",
             "all_shapes", "delta", "empty_partition",
             "parse_cylindric", "parse_profile", "shape_of_zero",
             "shape_to_profile", "validate"],
    "qpoly": ["QPoly", "q_binomial"],
    "rings": ["Ring", "RingMismatch", "ZZ", "ZZ_z"],
    "series": ["Check", "TruncatedSeries", "at_z_one", "borodin_product",
               "euler_sum", "product_inv_factors"],
    "oracle": ["count_bivariate", "count_distinct_series", "count_series",
               "enumerate_by_weight"],
    "slices": ["Slice", "SliceChain", "ShrinkMode", "decompose", "expand",
               "recompose", "shrink", "slice_shape", "slice_with",
               "zero_slice"],
    "bijection": ["LabeledDistinctPartition", "pivot_decompose",
                  "pivot_reconstruct"],
    "diagram": ["PathCountTable", "ShapeTransitionGraph",
                "adjacency_matrix", "build_graph", "char_poly", "check_closed_form",
                "diagonal_blocks", "distinct_gf", "matrix_power",
                "minimal_polynomial", "path_counts"],
    "polynomials": ["PolynomialFamily", "check_functional_equation", "family",
                    "f_truncated", "largest_part_exact_poly", "parts_at_most_poly",
                    "pivot_corrected_poly", "pivot_lineup_poly"],
    "lineups": ["lemma_check", "minimal_jammed_lines", "minimal_loose_lines",
                "pivot_chain_gf", "qconj_genfunc_check"],
    "verify": ["verify_all_tasks"],
}


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_exported_names_resolve_to_their_definitions(module):
    defining = importlib.import_module(f"cylpart.{module}")
    assert getattr(cylpart, module) is defining
    for name in EXPORTED[module]:
        namespace = {}
        exec(f"from cylpart import {name}", namespace)
        assert namespace[name] is getattr(defining, name), name
        assert name in dir(cylpart), name


def test_star_import_gives_every_name_and_module():
    namespace = {}
    exec("from cylpart import *", namespace)
    for module, names in EXPORTED.items():
        assert namespace[module] is importlib.import_module(f"cylpart.{module}")
        for name in names:
            assert namespace[name] is getattr(namespace[module], name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cylpart.no_such_name
    with pytest.raises(ImportError):
        exec("from cylpart import no_such_name", {})
