#!/usr/bin/env python3
"""Every workload, end to end and per layer, in one command.

Run from the root of the checkout:

    python3 perfbench/report.py [--seed N] [--seconds S]

For each workload of BENCHMARK.json it runs perfbench/run.py twice, with
tracing off and on.  It prints every end-to-end metric by name with its
unit and sample count, then the per-layer metrics of the traced runs
(including trace.coverage and trace.overhead_frac) side by side, and writes
both, with the layer-to-end-to-end map of spec.json, to
.bench_out/report-seed<N>.json.  Exits 1 if a run fails or an output is
wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(os.getcwd(), ".bench_out")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    with open(os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")) as fh:
        return json.load(fh)


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "spec.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    timed = {w: run(w, args.seed, args.seconds, 0) for w in workloads}
    traced = {w: run(w, args.seed, args.seconds, 1) for w in workloads}

    any_env = next(iter(timed.values()))["environment"]
    print(f"seed={args.seed} seconds={args.seconds} python={any_env['python']} "
          f"nproc={any_env['nproc']} revision={any_env['git_revision']}")
    print(f"\n{'workload':<10} {'metric':<12} {'value':>14} {'unit':<6} samples")
    for w, result in timed.items():
        for name, m in result["metrics"].items():
            print(f"{w:<10} {name:<12} {m['value']:>14.6g} {m['unit']:<6} {m['samples']}")
        print(f"{w:<10} {'failed_frac':<12} {result['failed_frac']:>14.6g} {'1':<6} "
              f"{result['attempted']}")

    print(f"\n{'per-layer metric (traced run)':<30} {'unit':<6}"
          + "".join(f"{w:>14}" for w in workloads))
    for entry in bench["per_layer"]:
        name = entry["name"]
        row = "".join(f"{traced[w]['metrics'][name]['value']:>14.6g}" for w in workloads)
        print(f"{name:<30} {entry['unit']:<6}{row}")

    failures = {w: r["failures"] for w, r in {**timed, **traced}.items() if r["failed"]}
    report = {
        "seed": args.seed, "seconds": args.seconds, "environment": any_env,
        "end_to_end": {w: {**r["metrics"],
                           "failed_frac": {"value": r["failed_frac"], "unit": "1",
                                           "samples": r["attempted"]}}
                       for w, r in timed.items()},
        "per_layer": {w: r["metrics"] for w, r in traced.items()},
        "layer_map": spec["layer_map"],
        "failures": failures,
    }
    path = os.path.join(OUT, f"report-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nwrote {os.path.relpath(path)}; traces under .bench_out/trace-*/")
    for w, lines in failures.items():
        for line in lines:
            print(f"FAILED {w}: {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
