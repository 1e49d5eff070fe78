#!/usr/bin/env python3
"""Self-test of the benchmark's checks.  Run from the root of the checkout:

    python3 perfbench/selftest.py

It shows that the checker can fail: a corrupted recorded reference, and a
broken pivot_reconstruct in the round trip, each give failed_frac > 0,
while the true references and the real library give failed_frac = 0.  It
also checks that BENCHMARK.json names exactly the metrics run.py reports.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def failed_frac(errors: list) -> float:
    return sum(e is not None for e in errors) / len(errors)


def recorded_jobs(spec: dict) -> list[list[str]]:
    return [job for w in spec["workloads"].values() for job in w.get("jobs", [])
            if checker.job_key(job) in checker.load_refs()]


def cli_reference_test(spec: dict) -> list[str]:
    refs = checker.load_refs()
    corrupted = copy.deepcopy(refs)
    for coeffs in corrupted.values():
        coeffs[len(coeffs) // 2] = str(int(coeffs[len(coeffs) // 2]) + 1)
    true_errors, bad_errors = [], []
    for argv in recorded_jobs(spec):
        code, out, *_ = workloads.run_child(
            [sys.executable, "-m", "cylpart", *argv, "--format", "json", "--jobs", "1"],
            os.devnull)
        true_errors.append(checker.check_job(argv, code, out, refs))
        bad_errors.append(checker.check_job(argv, code, out, corrupted))
    problems = []
    print(f"recorded references, {len(true_errors)} jobs: failed_frac "
          f"{failed_frac(true_errors)} true, {failed_frac(bad_errors)} corrupted")
    if failed_frac(true_errors) != 0:
        problems.append(f"true references rejected: {true_errors}")
    if failed_frac(bad_errors) <= 0:
        problems.append("a corrupted reference was accepted")
    return problems


def roundtrip_test() -> list[str]:
    workload = workloads.RoundtripWorkload("roundtrip", 0, os.devnull)
    sample = workload.inputs[:50]
    bijection = workload.cylpart.bijection
    true_errors = [workload.operation(cp) for cp in sample]
    real = bijection.pivot_reconstruct
    empty = workload.cylpart.core.empty_partition
    bijection.pivot_reconstruct = lambda mu, beta, profile: empty(profile)
    try:
        bad_errors = [workload.operation(cp) for cp in sample]
    finally:
        bijection.pivot_reconstruct = real
    print(f"round trip, {len(sample)} operations: failed_frac {failed_frac(true_errors)} "
          f"real, {failed_frac(bad_errors)} with a broken pivot_reconstruct")
    problems = []
    if failed_frac(true_errors) != 0:
        problems.append(f"real round trips rejected: {true_errors}")
    if failed_frac(bad_errors) <= 0:
        problems.append("a broken pivot_reconstruct went unnoticed")
    return problems


def metric_names_test() -> list[str]:
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    reported = set(spans.layer_metrics(spans.combine([])))
    reported |= {"cli.output_bytes", "trace.coverage", "trace.overhead_frac"}
    declared = {m["name"] for m in bench["per_layer"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    expected_e2e = {"wall_s", "cpu_s", "setup_s", "peak_rss_mb", "op_p50_ms", "op_p99_ms"}
    problems = []
    if reported != declared:
        problems.append(f"per-layer names differ: {sorted(reported ^ declared)}")
    if e2e != expected_e2e:
        problems.append(f"end-to-end names differ: {sorted(e2e ^ expected_e2e)}")
    if any(spans.unit_of(m["name"]) != m["unit"] for m in bench["per_layer"]):
        problems.append("a per-layer unit differs from run.py's")
    print(f"BENCHMARK.json: {len(declared)} per-layer and {len(e2e)} end-to-end metrics")
    return problems


def main() -> int:
    if not os.path.isfile(os.path.join("src", "cylpart", "__init__.py")):
        print("error: run from the root of a cylpart checkout", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "spec.json")) as fh:
        spec = json.load(fh)
    problems = cli_reference_test(spec) + roundtrip_test() + metric_names_test()
    for p in problems:
        print(f"FAILED: {p}")
    print("selftest ok" if not problems else "selftest FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
