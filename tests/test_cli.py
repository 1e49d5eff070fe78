import contextlib
import gc
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from cylpart import (Partition, Profile, Shape, all_shapes, bijection, cli, core,
                     diagram, lineups, oracle, parse_cylindric, polynomials,
                     series, slices, validate, verify)
from cylpart.cli import main
from cylpart.qpoly import QPoly
from cylpart.rings import ZZ
from cylpart.series import TruncatedSeries

from conftest import all_profiles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestBasicCommands:
    def test_count_equals_borodin(self, capsys):
        code, counted = run_json(capsys, "count", "--profile", "2,1", "--order", "15")
        assert code == 0 and counted["schema"] == 1
        code, product = run_json(capsys, "borodin", "--profile", "2,1", "--order", "15")
        assert code == 0
        assert counted["coeffs"] == product["coeffs"]
        assert all(isinstance(c, str) for c in counted["coeffs"])

    def test_decompose_example(self, capsys):
        code, out = run_cli(capsys, "decompose", "--profile", "1,1,1", "5,4|8,2|7,5,1")
        assert code == 0
        assert out.strip() == "beta=5^(2,0),1^(2,2) mu=7,6,5,4,2,2"

    def test_reconstruct_roundtrip(self, capsys):
        code, out = run_cli(capsys, "reconstruct", "--profile", "1,1,1",
                            "--beta", "15^(2,1),11^(3,2),10^(3,1),1^(2,2)",
                            "--mu", "13,10,10,9,5,5,3,2")
        assert code == 0
        assert out.strip() == "c=(1,1,1) 9,7,7,6,1|12,9,7,3,1|11,10,7,2,2"

    def test_enumerate_count_agree(self, capsys):
        code, listed = run_json(capsys, "enumerate", "--profile", "1,1", "--order", "5")
        assert code == 0
        code, counted = run_json(capsys, "count", "--profile", "1,1", "--order", "5")
        assert sum(int(c) for c in counted["coeffs"]) == len(listed["partitions"])

    def test_slices_and_shrink(self, capsys):
        code, out = run_cli(capsys, "slices", "--profile", "2,1",
                            "15,15,10,10,6,5|18,13,6,6")
        assert code == 0 and "10^(3) x5" in out
        code, payload = run_json(capsys, "shrink", "--profile", "1,1,1",
                                 "--mode", "exact",
                                 "3,3,3,2,2,2,2,1,1,1,1,1|3,3,3,2,2,2,1,1,1,1|"
                                 "3,3,3,2,2,2,2,1,1,1,1")
        assert payload["side"] == ["9", "9", "6", "6", "6", "3", "3", "3", "3"]

    def test_stdin_partitions(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("5,4|8,2|7,5,1\n"))
        code, out = run_cli(capsys, "decompose", "--profile", "1,1,1", "-")
        assert code == 0 and "beta=5^(2,0),1^(2,2)" in out

    @pytest.mark.parametrize("command", ["decompose", "slices", "shrink"])
    def test_stdin_json_is_json_lines(self, capsys, monkeypatch, command):
        texts = ["5,4|8,2|7,5,1", "9|1,1|", "3,1|2|2"]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(texts) + "\n"))
        code, out = run_cli(capsys, command, "--profile", "1,1,1", "-",
                            "--format", "json")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        docs = [json.loads(line) for line in lines]
        assert [d["schema"] for d in docs] == [1, 1, 1]
        assert [d["command"] for d in docs] == [command] * 3
        for text, doc in zip(texts, docs):
            code, single = run_json(capsys, command, "--profile", "1,1,1", text)
            assert code == 0 and single == doc


class TestStructuredOutput:
    def test_stg_json(self, capsys):
        code, payload = run_json(capsys, "stg", "--rank", "3", "--level", "2")
        assert code == 0
        assert payload["rank_power_blocks"] == \
            [[[1, 2], [2, 3]], [[3, 2], [2, 1]], [[3, 2], [2, 1]]]
        assert payload["block_char_polys"][0] == ["-1", "-4", "1"]

    def test_path_counts_text(self, capsys):
        code, out = run_cli(capsys, "path-counts", "--profile", "1,1,1",
                            "--order", "7")
        assert code == 0
        assert out.splitlines()[-1] == "a_7 = 192"

    def test_poly_csv(self, capsys):
        code, out = run_cli(capsys, "poly", "Ptilde", "--profile", "1,1,0",
                            "--n", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "rank,level,n,shape,value_at_1,min_coefficient"
        assert all(len(line.split(",")) == 6 for line in lines)

    @pytest.mark.parametrize("argv", [
        ["count", "--profile", "2,1", "--order", "6"],
        ["borodin", "--profile", "2,1", "--order", "6"],
        ["distinct-gf", "--profile", "2,1", "--order", "6"],
        ["path-counts", "--profile", "1,1,1", "--order", "6"]])
    def test_series_csv_rows(self, capsys, argv):
        code, payload = run_json(capsys, *argv)
        values = payload.get("coeffs") or payload.get("totals")
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines() == [f"{i},{v}" for i, v in enumerate(values)]

    @pytest.mark.parametrize("command, module, name", [
        ("count", oracle, "count_series"),
        ("borodin", series, "borodin_product"),
        ("distinct-gf", diagram, "distinct_gf")])
    def test_series_command_looks_up_its_builder(self, capsys, monkeypatch,
                                                 command, module, name):
        # Looked up when the command runs, so a wrapper set later is seen.
        monkeypatch.setattr(module, name, lambda profile, order:
                            TruncatedSeries.from_coeffs(ZZ, [7], order))
        code, payload = run_json(capsys, command, "--profile", "2,1", "--order", "2")
        assert code == 0 and payload["command"] == command
        assert payload["coeffs"] == ["7", "0", "0"]

    @pytest.mark.parametrize("argv, key", [
        (["enumerate", "--profile", "1,1", "--order", "4"], "partitions"),
        (["lineups", "--profile", "1,1,0", "--kind", "mjl", "--n", "2"], "lineups")])
    def test_listing_csv_rows(self, capsys, argv, key):
        code, payload = run_json(capsys, *argv)
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0 and payload[key]
        assert out.splitlines() == payload[key]

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--profile", "1,1", "--order", "4"],
        ["count", "--profile", "2,1", "--order", "6"],
        ["borodin", "--profile", "2,1", "--order", "6"],
        ["distinct-gf", "--profile", "2,1", "--order", "6"],
        ["path-counts", "--profile", "1,1,1", "--order", "6"],
        ["poly", "P", "--profile", "2,1", "--n", "2"],
        ["lineups", "--profile", "1,1,0", "--kind", "mll", "--n", "2"],
        ["lineups", "--profile", "1,1,0", "--kind", "mjl", "--n", "2"]])
    def test_csv_rows_made_only_for_csv(self, capsys, monkeypatch, argv):
        made = []
        real_emit = cli._emit

        def spy(args, payload, text_lines, csv_rows=None):
            def rows():
                made.append(args.format)
                return csv_rows()
            real_emit(args, payload, text_lines, rows)

        monkeypatch.setattr(cli, "_emit", spy)
        for fmt in ("text", "json", "csv"):
            code, out = run_cli(capsys, *argv, "--format", fmt)
            assert code == 0 and out
        assert made == ["csv"]

    def test_listing_json_peak_is_its_text_peak(self, monkeypatch):
        # The JSON is written as it is encoded and each lineup is freed as
        # its text is made, so the JSON form needs no more memory.
        argv = ["lineups", "--kind", "mjl", "--n", "3", "--profile", "4,0,0"]
        peaks = {}
        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            assert main(argv) == 0   # fills the caches both runs share
            for fmt in ("text", "json"):
                gc.collect()   # both runs start without earlier garbage
                tracemalloc.start()
                try:
                    assert main([*argv, "--format", fmt]) == 0
                    peaks[fmt] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks["json"] <= 1.05 * peaks["text"], peaks

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_listing_written_in_chunks(self, monkeypatch, fmt):
        # One write per line is two system calls per line when stdout is
        # unbuffered; some dozens of lines go out in each write instead.
        class CountingStdout(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        out = CountingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["lineups", "--kind", "mjl", "--n", "3", "--profile", "4,0,0",
                     "--format", fmt]) == 0
        lines = out.getvalue().splitlines()
        assert len(lines) == 6946 and all(lines)
        assert out.writes <= -(-6946 // 64) + 1

    def test_lineups(self, capsys):
        code, payload = run_json(capsys, "lineups", "--profile", "1,1,0",
                                 "--kind", "mjl", "--n", "3")
        assert code == 0
        assert "1^(2,0),5^(2,1),9^(2,2) iota={3} class=minimal-jammed" \
            in payload["lineups"]


class TestVerificationCommands:
    def test_verify_closed_form(self, capsys):
        profiles = [",".join(map(str, p.parts)) for p in all_profiles(3, 2)]
        for profile in [*profiles, "1", "3,1", "3,2,1,0"]:
            code, out = run_cli(capsys, "verify-closed-form",
                                "--profile", profile, "--order", "20")
            assert code == 0 and ": ok; " in out, profile

    def test_verify_closed_form_unknown_profile(self, capsys):
        # (3,1) has no worked eigen form in the tests; its minimal
        # polynomial is x^2 - 3.
        code, out = run_cli(capsys, "verify-closed-form", "--profile", "3,1")
        assert code == 0
        assert out == ("closed form for c=(3,1) to q^25: ok; a_n has minimal "
                       "polynomial -3 + x^2 and a_0..a_1 = 1, 2 (found from "
                       "a_0..a_9; 5 shapes)\n")

    def test_functional_eq(self, capsys):
        code, out = run_cli(capsys, "functional-eq", "--profile", "2,1",
                            "--order", "8")
        assert code == 0

    def test_lemma_and_qconj(self, capsys):
        assert main(["lemma-check", "--profile", "1,1,0",
                     "--n", "2", "--order", "10"]) == 0
        capsys.readouterr()
        assert main(["qconj-check", "--profile", "2,1",
                     "--n", "2", "--order", "8"]) == 0

    def test_check_on_zeros_is_a_usage_error(self, capsys):
        """No chain of 3 pivots fits under q^3, so both sides are 0: the
        check does not pass, and says why on stderr."""
        for fmt in ("text", "json"):
            code = main(["lemma-check", "--profile", "2,1", "--n", "3",
                         "--order", "3", "--format", fmt])
            out, err = capsys.readouterr()
            assert code == 2 and out == ""
            assert err == ("error: pivot-chain-lemma: both sides are 0 up to q^3, so "
                           "nothing was compared: the order is below the first term\n")
        assert main(["lemma-check", "--profile", "2,1", "--n", "3",
                     "--order", "12"]) == 0

    @pytest.mark.parametrize("command,name", [("lemma-check", "pivot-chain-lemma"),
                                              ("qconj-check", "pivot-genfunc")])
    def test_check_at_n_zero_is_a_usage_error(self, capsys, command, name):
        """At n = 0 both sides are 1, from the empty chain alone: the check
        does not pass, and says why on stderr."""
        for fmt in ("text", "json"):
            code = main([command, "--profile", "1,1,1", "--n", "0",
                         "--order", "8", "--format", fmt])
            out, err = capsys.readouterr()
            assert code == 2 and out == ""
            assert err == (f"error: {name}: only the empty chain was compared for "
                           f"c=(1,1,1), n=0, q^8: both sides are 1\n")

    def test_verify_all_reports_zero_checks_as_not_applicable(self, capsys):
        """A level-1 profile has no potential pivot shape, so the
        pivot-chain lemma compares only zeros at every order."""
        argv = ["verify-all", "--profile", "1,0,0", "--order", "6"]
        code, out = run_cli(capsys, *argv)
        lines = out.splitlines()
        assert code == 0 and len(lines) == 10
        assert "[n/a] pivot-chain-lemma: both sides are 0 up to q^6, so nothing " \
            "was compared: the order is below the first term" in lines
        assert sum(line.startswith("[pass] ") for line in lines) == 9
        code, payload = run_json(capsys, *argv)
        assert code == 0 and payload["ok"] is True
        verdicts = {c["name"]: c["ok"] for c in payload["checks"]}
        assert verdicts.pop("pivot-chain-lemma") is None
        assert set(verdicts.values()) == {True}

    def test_verify_all_fails_when_an_applicable_check_fails(self, capsys, monkeypatch):
        """An n/a check does not hide a failure next to it."""
        real = lineups.qconj_genfunc_check

        def broken(*args):
            check = real(*args)
            return series.Check(check.name, False, "broken", 0)
        monkeypatch.setattr(lineups, "qconj_genfunc_check", broken)
        code, payload = run_json(capsys, "verify-all", "--profile", "1,0,0",
                                 "--order", "6")
        assert code == 1 and payload["ok"] is False
        verdicts = {c["name"]: c["ok"] for c in payload["checks"]}
        assert verdicts["pivot-chain-lemma"] is None and verdicts["pivot-genfunc"] is False

    def test_verify_all(self, capsys):
        code, payload = run_json(capsys, "verify-all", "--profile", "0,2,0",
                                 "--order", "10", "--jobs", "2", "--seed", "7")
        assert code == 0 and payload["ok"]
        assert len(payload["checks"]) == 10

    def test_verify_all_deterministic_across_jobs(self, capsys):
        _, a = run_json(capsys, "verify-all", "--profile", "1,1",
                        "--order", "8", "--jobs", "1", "--seed", "3")
        _, b = run_json(capsys, "verify-all", "--profile", "1,1",
                        "--order", "8", "--jobs", "3", "--seed", "3")
        assert a == b

    def test_verify_all_text_identical_across_jobs(self, capsys):
        argv = ["verify-all", "--profile", "1,1,1", "--order", "10"]
        one = run_cli(capsys, *argv, "--jobs", "1")
        two = run_cli(capsys, *argv, "--jobs", "2")
        assert one[0] == 0 and one == two

    def test_benchmark_oracle_jobs_search_once(self, capsys, monkeypatch):
        """Each benchmark job that runs the oracle searches once, to its
        order: verify-all's counts and its round trips' draws come from one
        pass, and a count of a lower order is cut from its census."""
        jobs = [argv for argv in benchmark_jobs()
                if argv[0] in ("verify-all", "count", "qconj-check")]
        assert [argv[0] for argv in jobs] == ["verify-all"] * 6 + ["count", "qconj-check"]
        searched = []
        search = oracle._search
        monkeypatch.setattr(oracle, "_search", lambda profile, weight, keep: (
            searched.append(weight), search(profile, weight, keep))[1])
        for argv in jobs:
            searched.clear()
            monkeypatch.setattr(oracle, "_censuses", {})
            code, payload = run_json(capsys, *argv)
            assert code == 0 and payload.get("ok", True), argv
            assert searched == [int(argv[argv.index("--order") + 1])], argv

    def test_round_trip_samples_do_not_depend_on_check_order(self, monkeypatch):
        # Record the partitions each round-trip check decomposes, running the
        # checks in two orders; the seed alone must fix every check's sample.
        seen = []
        pivot, slice_decompose = bijection.pivot_decompose, slices.decompose
        monkeypatch.setattr(bijection, "pivot_decompose",
                            lambda cp: (seen.append(cp), pivot(cp))[1])
        monkeypatch.setattr(slices, "decompose",
                            lambda cp: (seen.append(cp), slice_decompose(cp))[1])
        names = ["bijection-roundtrip", "slices-roundtrip", "tight-packing-roundtrip"]

        def samples(order):
            tasks = {task.__name__.replace("_", "-"): task
                     for task in verify.verify_all_tasks(Profile.of(2, 1), 10, 7)}
            out = {}
            for name in order:
                seen.clear()
                check = tasks[name]()
                assert check.ok and check.name == name, check
                out[name] = list(seen)
            return out

        forward, backward = samples(names), samples(names[::-1])
        assert [len(forward[n]) for n in names] == [400, 400, 300]
        assert forward == backward

    @pytest.mark.parametrize("parts, order, seed", [
        ((2, 1), 10, 7), ((1, 1, 1), 9, 3), ((1, 0, 0), 6, 12345), ((3,), 12, 1)])
    def test_drawn_partitions_are_valid_hits(self, monkeypatch, parts, order, seed):
        # verify-all builds only what it draws, from the oracle's raw hits:
        # each drawn partition must equal the validated value of its rows.
        profile = Profile(parts)
        drawn = []
        build = oracle._partitions
        monkeypatch.setattr(oracle, "_partitions", lambda prof, found: (
            drawn.append(build(prof, found)), drawn[-1])[1])
        verify.verify_all_tasks(profile, order, seed)
        found = oracle.hits(profile, min(order, 10))
        non_empty = [rows for rows in found if any(rows)]
        assert [len(d) for d in drawn] == [min(len(found), 400), min(len(found), 400),
                                           min(len(non_empty), 300)]
        hits = set(found)
        for cp in (cp for sample in drawn for cp in sample):
            rows = tuple(row.parts for row in cp.rows)
            assert rows in hits
            assert cp == validate(tuple(map(Partition, rows)), profile), rows
        assert all(cp.max_part for cp in drawn[2])


class TestUsageErrors:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_partition_text(self, capsys):
        code, out = run_cli(capsys, "decompose", "--profile", "1,1,1", "9|1,1|")
        assert code == 0
        assert out == "beta=3^(3,3),1^(3,1) mu=1,1,1,1,1,1,1\n"
        assert main(["decompose", "--profile", "1,1,1", "1|4|x"]) == 2
        assert main(["decompose", "--profile", "1,1,1", "1|1,1,1|"]) == 2
        err = capsys.readouterr().err
        assert "cylindric inequality violated" in err

    @pytest.mark.parametrize("argv", [
        ["functional-eq", "--profile", "1,1,1", "--order", "-1"],
        ["count", "--profile", "2,1", "--order", "-3"],
        ["poly", "P", "--profile", "2,1", "--n", "-1"]])
    def test_negative_order_or_n_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("order", ["0", "-1"])
    def test_verify_all_order_below_one_rejected(self, capsys, order):
        # At order 0 the round trips would pass on the empty partition alone.
        with pytest.raises(SystemExit) as exc:
            main(["verify-all", "--profile", "1,1", "--order", order])
        assert exc.value.code == 2
        assert f"must be at least 1, got {order}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--rank", "3", "--level", "3"], "--rank 3 disagrees with the rank 2"),
        (["--level", "4"], "--level 4 disagrees with the level 3")])
    def test_stg_flags_must_match_profile(self, capsys, flags, message):
        assert main(["stg", "--profile", "2,1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err
        code, _ = run_cli(capsys, "stg", "--profile", "2,1", "--rank", "2",
                          "--level", "3")
        assert code == 0

    @pytest.mark.parametrize("argv, code, out, err", [
        # An empty field or an unbalanced or doubled parenthesis is a usage
        # error, in a partition, a profile, --mu or --beta.
        (["slices", "c=(1,1) 3,,1|2"], 2, "", "empty field"),
        (["slices", "c=(1,1) 3,1,|2"], 2, "", "empty field"),
        (["decompose", "c=(1,1 3|2"], 2, "", "parentheses"),
        (["decompose", "c=((1,1)) 3|2"], 2, "", "parentheses"),
        (["decompose", "c=(1,1)) 3|2"], 2, "", "parentheses"),
        (["count", "--profile", "1,2,0,", "--order", "3"], 2, "", "empty field"),
        (["count", "--profile", "(1,1", "--order", "3"], 2, "", "parentheses"),
        (["reconstruct", "--profile", "1,1,1", "--mu", "3,,1"], 2, "", "empty field"),
        (["reconstruct", "--profile", "1,1,1", "--mu", "3,1,"], 2, "", "empty field"),
        (["reconstruct", "--profile", "1,1,1", "--beta", "5^(2,,0)"], 2, "",
         "empty field"),
        (["reconstruct", "--profile", "1,1,1", "--beta", "5^((2,0))"], 2, "",
         "parentheses"),
        (["reconstruct", "--profile", "1,1,1", "--beta", "5^(2,0"], 2, "",
         "parentheses"),
        # Empty rows, the empty partition and the empty rank-1 shape parse.
        (["slices", "c=(1,1,1) 3||2"], 0,
         "2^(2,0) x2 [1,0,1]\n1^(3,1) x1 [1,0,0]\n", ""),
        (["decompose", "--profile", "(1,1,1)", "3||2"], 0,
         "beta=1^(3,1) mu=2,2\n", ""),
        (["decompose", "c=(1,1) "], 0, "beta=- mu=-\n", ""),
        (["reconstruct", "--profile", "1", "--beta", "7^()"], 2, "",
         "shape () of part 7 can never be a pivot"),
        (["reconstruct", "--profile", "1,1,1", "--mu", "3,1"], 0,
         "c=(1,1,1) |1|2,1\n", "")])
    def test_malformed_text_is_a_usage_error(self, capsys, argv, code, out, err):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == out and err in captured.err

    def test_invalid_partition_rejected(self, capsys):
        # top row must dominate the shifted second row: 1 >= 5 fails
        code = main(["decompose", "--profile", "1,1,1", "1|5,5|"])
        assert code == 2

    def test_missing_profile_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--order", "3"])
        assert exc.value.code == 2
        assert "--profile" in capsys.readouterr().err

    def test_seed_only_on_verify_all(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--profile", "1,1", "--seed", "3"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        code, payload = run_json(capsys, "verify-all", "--profile", "1,1",
                                 "--order", "6", "--seed", "3")
        assert code == 0 and payload["ok"]

    @pytest.mark.parametrize("argv", [
        ["decompose", "--profile", "1,1,1", "5,4|8,2|7,5,1"],
        ["reconstruct", "--profile", "1,1,1"],
        ["slices", "--profile", "2,1", "15,15,10,10,6,5|18,13,6,6"],
        ["shrink", "--profile", "1,1,1", "5,4|8,2|7,5,1"],
        ["stg", "--rank", "3", "--level", "2"],
        ["verify-closed-form", "--profile", "2,0,0"],
        ["functional-eq", "--profile", "2,1"],
        ["lemma-check", "--profile", "1,1,0"],
        ["qconj-check", "--profile", "2,1"],
        ["verify-all", "--profile", "1,1"]])
    def test_csv_only_where_rows_are_written(self, capsys, argv):
        cli.build_parser().parse_args([*argv, "--format", "json"])
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, value", [
        (["verify-all", "--profile", "1,1", "--jobs", "-4"], "-4"),
        (["count", "--profile", "1,1", "--jobs", "0"], "0")])
    def test_jobs_below_one_rejected(self, capsys, argv, value):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --jobs: must be at least 1, got {value}" in err

    def test_closed_stdout_exits_141_quietly(self):
        # The listing (about 350 kB) outgrows the pipe, so the writer is
        # still writing when the reader closes its end after one line.
        src = str(Path(cli.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "cylpart", "lineups", "--kind", "mjl",
             "--n", "3", "--profile", "4,0,0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src})
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert err == b""
        assert first.endswith(b"class=minimal-jammed\n")

    @pytest.mark.parametrize("argv, err", [
        (["decompose", "--profile", "2,1", "x"],
         "invalid literal for int() with base 10: 'x'"),
        (["reconstruct", "--profile", "2,1", "--beta", "3^x"],
         "invalid literal for int() with base 10: 'x'"),
        (["reconstruct", "--profile", "2,1", "--mu", "1.5"],
         "invalid literal for int() with base 10: '1.5'"),
        (["count", "--profile", "2,1", "--order", "31"],
         "weight bound 31 exceeds the oracle's limit of 30"),
        (["stg", "--rank", "0", "--level", "2"], "rank and level must be positive"),
        (["borodin", "--profile", "2,-1"], "profile parts must be non-negative: (2, -1)")])
    def test_invalid_input_exits_2(self, capsys, argv, err):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {err}\n"

    @pytest.mark.parametrize("check", [
        lambda: Partition((3, 0)), lambda: Partition((1, 2)),
        lambda: Profile(()), lambda: Profile((2, -1)), lambda: Profile((0, 0)),
        lambda: Shape((1, 2)), lambda: Shape((-1,)), lambda: all_shapes(0, 2),
        lambda: core._int_fields("1,x"), lambda: core._int_fields("1,,2"),
        lambda: core._unwrap("((1))"), lambda: parse_cylindric("3|2"),
        lambda: bijection.LabeledDistinctPartition(((0, Shape((1,))),)),
        lambda: bijection.LabeledDistinctPartition(((1, Shape((1,))),
                                                    (2, Shape((1,))))),
        lambda: bijection.LabeledDistinctPartition.parse("x^(1)"),
        lambda: oracle.count_series(Profile((1, 1)), 31),
        lambda: slices.Slice(Profile((1, 1)), (1,)),
        lambda: slices.Slice(Profile((1, 1)), (-1, 0)),
        lambda: slices.Slice(Profile((1, 0)), (0, 1)),
        lambda: slices.Slice(Profile((0, 1)), (2, 0)),
        lambda: polynomials.family(2, 2).parts_at_most(-1, Shape((1,))),
        lambda: polynomials.family(2, 2).largest_part_exact(-1, Shape((1,))),
        lambda: polynomials.family(2, 2).pivot_lineup(-1, Shape((1,))),
        lambda: polynomials.family(2, 2).pivot_corrected(-1, Shape((1,)))],
        ids=["partition-zero", "partition-rising", "profile-empty",
             "profile-negative", "profile-level-0", "shape-rising", "shape-negative",
             "all-shapes-rank-0", "int-fields-word", "int-fields-empty",
             "unwrap-doubled", "cylindric-no-profile", "beta-zero-weight",
             "beta-rising", "beta-parse-word", "oracle-cap", "slice-length-count",
             "slice-negative", "slice-row-too-long", "slice-wraparound",
             "poly-parts-at-most-n", "poly-largest-part-n", "poly-pivot-lineup-n",
             "poly-pivot-corrected-n"])
    def test_input_checks_raise_invalid_input(self, check):
        # A usage error, and still a ValueError for callers that catch one.
        with pytest.raises(core.InvalidInput) as exc:
            check()
        assert isinstance(exc.value, core.CylpartError)
        assert isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("module, name", [(cli, "cmd_stg"),
                                              (diagram, "diagonal_blocks")])
    def test_bare_value_error_exits_3(self, capsys, monkeypatch, module, name):
        # A bare ValueError is a broken invariant of the program, as
        # diagonal_blocks raises on a matrix that is not block diagonal, not
        # a fault of the input.
        def broken(*args):
            raise ValueError("matrix is not block diagonal at (0, 1)")

        monkeypatch.setattr(module, name, broken)
        assert main(["stg", "--rank", "2", "--level", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("internal error: ValueError: matrix is not block "
                                "diagonal at (0, 1)\n")

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_series", boom)
        assert main(["count", "--profile", "2,1", "--order", "3"]) == 3
        err = capsys.readouterr().err.strip()
        assert err == "internal error: RuntimeError: boom"


def _bump_series(fn, k):
    def bumped(*args, **kwargs):
        ts = fn(*args, **kwargs)
        coeffs = list(ts.coeffs)
        coeffs[k] += 1
        return TruncatedSeries.from_coeffs(ts.ring, coeffs, ts.order)
    return bumped


def _bump_bivariate(fn, k, m):
    def bumped(*args, **kwargs):
        two = fn(*args, **kwargs)
        polys = list(two.coeffs)
        polys[k] = polys[k] + QPoly((0,) * m + (1,))
        return TruncatedSeries(two.ring, two.order, tuple(polys))
    return bumped


def _bump_totals(fn, k):
    def bumped(profile, order):
        table = fn(profile, order)
        totals = list(table.totals)
        totals[k] += 1
        return diagram.PathCountTable(profile, order, tuple(totals), table.by_shape)
    return bumped


# verify-all checks that read a function besides the check named for it:
# the pivot generating-function check compares with the oracle's
# bivariate counts too, the bounded-polynomials check reads its counts
# from their z columns, and the two-variable check builds the same
# two-variable series as the functional equation.
ALSO_READ_BY = {"count_bivariate": {"pivot-genfunc", "bounded-polynomials"},
                "f_truncated": {"two-variable-series"}}


class TestMismatchDetails:
    """A perturbed coefficient fails its check, which names the index and
    both values."""

    @pytest.mark.parametrize("check,module,name,bump,expected", [
        ("count-vs-product", oracle, "count_series", lambda f: _bump_series(f, 4),
         "first mismatch at q^4: oracle 14 vs product 13; "
         "the oracle enumerated 222 partitions up to q^8"),
        ("distinct-vs-oracle", diagram, "distinct_gf", lambda f: _bump_series(f, 5),
         "first mismatch at q^5: oracle 8 vs path counts 9; "
         "the oracle enumerated 221 partitions up to q^8, 73 into distinct parts"),
        ("bounded-polynomials", polynomials, "parts_at_most_series",
         lambda f: _bump_series(f, 3),
         "parts<= 0 numerator mismatch at q^3: polynomial 1 vs oracle 0"),
        ("two-variable-series", oracle, "count_bivariate",
         lambda f: _bump_bivariate(f, 6, 2),
         "largest-part refinement disagrees with the oracle at q^6 z^2: "
         "series 10 vs oracle 11"),
        ("functional-equation", polynomials, "f_truncated",
         lambda f: _bump_bivariate(f, 6, 2),
         "functional equation fails for c=(2,1) at q^6 z^2: left 11 vs right 10"),
        ("pivot-chain-lemma", lineups, "pivot_chain_gf", lambda f: _bump_series(f, 5),
         "pivot-chain count identity (first mismatch at q^5: 2 vs 1) "
         "for c=(2,1), n=2, q^8: MISMATCH"),
    ])
    def test_first_bad_coefficient(self, capsys, monkeypatch, check, module,
                                   name, bump, expected):
        monkeypatch.setattr(module, name, bump(getattr(module, name)))
        code, payload = run_json(capsys, "verify-all", "--profile", "2,1",
                                 "--order", "8")
        assert code == 1
        details = {c["name"]: (c["ok"], c["detail"]) for c in payload["checks"]}
        assert details[check] == (False, expected)
        assert {n for n, (ok, _) in details.items() if not ok} == \
            {check} | ALSO_READ_BY.get(name, set())

    def test_qconj_check_names_first_bad_z_power(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "count_bivariate",
                            _bump_bivariate(oracle.count_bivariate, 6, 2))
        code, out = run_cli(capsys, "qconj-check", "--profile", "1,1,1",
                            "--order", "8", "--n", "2")
        assert code == 1
        assert out.strip() == (
            "pivot generating-function identity (first mismatch at q^6 z^2: "
            "oracle 23 vs lineups 22) for c=(1,1,1), n=2, q^8: MISMATCH")

    @pytest.mark.parametrize("argv,module,name,bump,expected", [
        (["functional-eq", "--profile", "2,1", "--order", "8"],
         polynomials, "f_truncated", lambda f: _bump_bivariate(f, 6, 2),
         "functional equation fails for c=(2,1) at q^6 z^2: left 11 vs right 10"),
        (["lemma-check", "--profile", "1,1,0", "--n", "2", "--order", "10"],
         lineups, "pivot_chain_gf", lambda f: _bump_series(f, 5),
         "pivot-chain count identity (first mismatch at q^5: 2 vs 1) "
         "for c=(1,1,0), n=2, q^10: MISMATCH"),
        # The minimal polynomial is read from a_0..a_5, so a bad a_6 shows
        # only where the closed form meets the path counts past them.
        (["verify-closed-form", "--profile", "1,1", "--order", "28"],
         diagram, "path_counts", lambda f: _bump_totals(f, 6),
         "closed form for c=(1,1) to q^28: MISMATCH at q^21: "
         "closed form 326 vs path counts 327; a_n has minimal polynomial "
         "-2 + x^2 and a_0..a_1 = 1, 2 (found from a_0..a_5; 3 shapes)"),
    ])
    def test_check_subcommand_names_first_bad_coefficient(
            self, capsys, monkeypatch, argv, module, name, bump, expected):
        monkeypatch.setattr(module, name, bump(getattr(module, name)))
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert out == expected + "\n"

    def test_passing_checks_report_their_work(self, capsys):
        _, payload = run_json(capsys, "verify-all", "--profile", "2,1",
                              "--order", "8")
        details = {c["name"]: c["detail"] for c in payload["checks"]}
        assert details["count-vs-product"].endswith(
            "the oracle enumerated 221 partitions up to q^8")
        assert details["distinct-vs-oracle"].endswith("73 into distinct parts")


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def benchmark_jobs() -> list[list[str]]:
    """The verify and gf command lines of the benchmark, as its CLI runner
    completes them before the format flags."""
    workloads = json.loads((PERFBENCH / "spec.json").read_text())["workloads"]
    return [[*job, *(["--seed", "1"] if job[0] == "verify-all" else [])]
            for name in ("verify", "gf") for job in workloads[name]["jobs"]]


@pytest.fixture(scope="class")
def job_runs():
    """Each benchmark job run once in process: (argv, exit code, stdout)."""
    runs = []
    for argv in benchmark_jobs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*argv, "--format", "json", "--jobs", "1"])
        runs.append((argv, code, out.getvalue()))
    return runs


class TestBenchmarkJobs:
    def test_spec_jobs_parse_and_dispatch(self):
        # The command lines the benchmark runs, completed as its CLI runner
        # completes them, must parse and reach their subcommand's handler.
        jobs = benchmark_jobs()
        assert jobs
        series_commands = {"count", "borodin", "distinct-gf"}
        parser = cli.build_parser()
        for job in jobs:
            args = parser.parse_args([*job, "--format", "json", "--jobs", "1"])
            handler = ("cmd_series" if job[0] in series_commands
                       else "cmd_" + job[0].replace("-", "_"))
            assert args.fn is getattr(cli, handler), job

    def test_json_jobs_print_one_indented_document(self, job_runs):
        for job, code, out in job_runs:
            assert code == 0, job
            assert out == json.dumps(json.loads(out), indent=2) + "\n", job

    def test_jobs_pass_the_benchmark_checker(self, job_runs):
        # An output the benchmark would count as failed fails here first.
        spec = importlib.util.spec_from_file_location("perfbench_checker",
                                                      PERFBENCH / "checker.py")
        checker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checker)
        refs = checker.load_refs()
        for job, code, out in job_runs:
            assert checker.check_job(job, code, out.encode(), refs) is None, job
