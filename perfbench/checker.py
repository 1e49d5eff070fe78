"""Output checks for the cylpart CLI jobs of the benchmark.

``check_job`` returns None when a job's output is right and a one-line
reason when it is not.  Each check uses properties of the identities or
coefficient lists recorded in ``refs.json``; none of them reruns the
program.  To record the references again (only when a job's arguments
change), run from the root of the checkout:

    python3 perfbench/checker.py --record
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")

VERIFY_ALL_CHECKS = frozenset({
    "count-vs-product", "distinct-vs-oracle", "bijection-roundtrip",
    "slices-roundtrip", "tight-packing-roundtrip", "bounded-polynomials",
    "two-variable-series", "functional-equation", "pivot-chain-lemma",
    "pivot-genfunc"})
# Checks whose detail reports the work done ("... on N partitions").
WORK_COUNT = re.compile(r"\bon (\d+) partitions\b")
COUNTED_CHECKS = ("bijection-roundtrip", "slices-roundtrip", "tight-packing-roundtrip")
# Jobs checked against a recorded coefficient list: subcommand -> JSON key.
RECORDED = {"count": "coeffs", "borodin": "coeffs", "distinct-gf": "coeffs",
            "path-counts": "totals"}


def job_key(argv: list[str]) -> str:
    return " ".join(argv)


def _options(argv: list[str]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(len(argv) - 1)
            if argv[i].startswith("--")}


def _profile(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _shapes(rank: int, level: int) -> int:
    return math.comb(level + rank - 1, rank - 1)


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)


def check_job(argv: list[str], returncode: int, stdout: bytes, refs: dict) -> str | None:
    """None when the job's output is right, else why it is not."""
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if out.get("schema") != 1:
        return "missing schema 1"
    command, opts = argv[0], _options(argv)
    if command == "verify-all":
        return _check_verify_all(out)
    if command in ("verify-closed-form", "functional-eq", "lemma-check", "qconj-check"):
        return None if out.get("ok") is True else f"{command} reports ok={out.get('ok')}"
    if command == "poly":
        return _check_poly(argv[1], _profile(opts["profile"]), int(opts["n"]), out)
    if command == "path-counts" and _profile(opts["profile"]) == (1, 1, 1):
        return _check_path_counts_111(out)
    if command in RECORDED:
        expected = refs.get(job_key(argv))
        if expected is None:
            return "no recorded reference for this job"
        got = out.get(RECORDED[command])
        return None if got == expected else _first_difference(got, expected)
    if command == "lineups":
        return _check_jammed(_profile(opts["profile"]), int(opts["n"]), out)
    if command == "stg":
        return _check_stg(int(opts["rank"]), int(opts["level"]), out)
    return f"no checker for {command}"


def _first_difference(got, expected) -> str:
    if not isinstance(got, list) or len(got) != len(expected):
        return "coefficient list has the wrong length"
    k = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
    return f"coefficient {k}: got {got[k]}, recorded {expected[k]}"


def _check_verify_all(out: dict) -> str | None:
    checks = out.get("checks", [])
    names = {c.get("name") for c in checks}
    if names != VERIFY_ALL_CHECKS or len(checks) != len(VERIFY_ALL_CHECKS):
        return f"expected the {len(VERIFY_ALL_CHECKS)} named checks, got {sorted(names)}"
    for c in checks:
        if c.get("ok") is not True:
            return f"check {c['name']} failed: {c.get('detail')}"
        if not c.get("detail"):
            return f"check {c['name']} has no detail"
        if c["name"] in COUNTED_CHECKS:
            m = WORK_COUNT.search(c["detail"])
            if m is None or int(m.group(1)) < 1:
                return f"check {c['name']} reports no work: {c['detail']}"
    return None if out.get("ok") is True else "verify-all reports ok=false"


def _check_poly(kind: str, profile: tuple[int, ...], n: int, out: dict) -> str | None:
    """Coefficients are non-negative and the value at q=1 is base^n: base is
    the number of shapes for P and Peq (each step sums over all shapes) and
    the number of potential pivot shapes, |shapes| - rank, for Qtilde."""
    coeffs = [int(c) for c in out.get("coeffs", [])]
    if any(c < 0 for c in coeffs):
        return "negative coefficient"
    rank, level = len(profile), sum(profile)
    base = _shapes(rank, level) - (rank if kind == "Qtilde" else 0)
    if kind not in ("P", "Peq", "Qtilde"):
        return f"no value-at-one rule for {kind}"
    if sum(coeffs) != base ** n:
        return f"value at q=1 is {sum(coeffs)}, expected {base}^{n}"
    return None


def _check_path_counts_111(out: dict) -> str | None:
    """For c=(1,1,1) the chain counts are 1, 3, 6, 12, ...: 3 * 2^(n-1)."""
    totals = [int(v) for v in out.get("totals", [])]
    expected = [1] + [3 * 2 ** (n - 1) for n in range(1, len(totals))]
    if not totals or totals != expected:
        return _first_difference([str(v) for v in totals], [str(v) for v in expected])
    return None


def _check_jammed(profile: tuple[int, ...], n: int, out: dict) -> str | None:
    """At most (2^n - 1)(b - r)^n minimal jammed lineups, all classified so."""
    found = out.get("lineups", [])
    rank, level = len(profile), sum(profile)
    bound = (2 ** n - 1) * (_shapes(rank, level) - rank) ** n
    if not found or len(found) > bound:
        return f"{len(found)} lineups, expected 1..{bound}"
    if any(not line.endswith("class=minimal-jammed") for line in found):
        return "a lineup is not classified minimal-jammed"
    return None


def _check_stg(rank: int, level: int, out: dict) -> str | None:
    """One node per shape, classes partition the nodes, one block per class."""
    nodes = out.get("nodes", [])
    if len(nodes) != _shapes(rank, level):
        return f"{len(nodes)} nodes, expected {_shapes(rank, level)}"
    if sum(out.get("class_sizes", [])) != len(nodes):
        return "class sizes do not add up to the node count"
    if len(out.get("rank_power_blocks", [])) != rank:
        return "expected one diagonal block per weight class"
    if len(out.get("adjacency", [])) != len(nodes):
        return "adjacency matrix has the wrong size"
    return None


def record(jobs: list[list[str]]):
    """Write refs.json from the current program's outputs."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.getcwd(), "src"))
    refs = {}
    for argv in jobs:
        if argv[0] in RECORDED and not (argv[0] == "path-counts"
                                        and _profile(_options(argv)["profile"]) == (1, 1, 1)):
            out = subprocess.run([sys.executable, "-m", "cylpart", *argv, "--format", "json"],
                                 env=env, capture_output=True, check=True).stdout
            refs[job_key(argv)] = json.loads(out)[RECORDED[argv[0]]]
    with open(REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 perfbench/checker.py --record")
    with open(os.path.join(HERE, "spec.json")) as fh:
        spec = json.load(fh)
    record([job for w in spec["workloads"].values() for job in w.get("jobs", [])])
