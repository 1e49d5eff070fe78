#!/usr/bin/env python3
"""The cylpart benchmark: one workload, one seed, one run.

Run from the root of a cylpart checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: passes over
the workload's fixed job list repeat until ``--seconds`` is used up (at
least three), and each timing is a median over passes (per job for the CLI
workloads).  Timings are reported at the reference host speed: each job, or
block of 1000 round-trip operations, runs between two runs of a fixed
reference process (``reference.py``), and its time is scaled by
REFERENCE_S over their mean.  This takes out the drift of a shared host's
speed, which moves plain timings by up to about 40% between minutes; the
plain timings are printed next to them and kept in the result file.  ``--trace 1`` runs
one untraced and one traced pass and reports the per-layer metrics.  The
workloads, metrics and the layer-to-end-to-end map are defined in
``perfbench/spec.json``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The lines before it
list each metric with its sample count.  The full result, with samples,
seed and environment, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
HARD_LIMIT_S = 150.0      # never start a pass that would end later than this
SETUP_REPEATS = 21


def load_spec() -> dict:
    with open(os.path.join(HERE, "spec.json")) as fh:
        return json.load(fh)


def environment() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "git_revision": rev}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def make_workload(spec: dict, name: str, seed: int):
    entry = spec["workloads"][name]
    if entry["kind"] == "cli":
        return workloads.CliWorkload(name, entry["jobs"], seed, OUT)
    return workloads.RoundtripWorkload(name, seed, OUT)


def measure_setup(spec: dict, name: str, seed: int):
    """Median fresh-process ``import cylpart`` plus median input build, as
    measured and at the reference host speed (reference processes run
    before, amid and after the imports)."""
    stderr_path = os.path.join(OUT, "setup.stderr")
    imports, refs = [], []
    for i in range(SETUP_REPEATS):
        if i % (SETUP_REPEATS // 2) == 0:
            refs.append(workloads.reference_time(stderr_path))
        code, _, wall, _, _ = workloads.run_child([sys.executable, "-c", "import cylpart"],
                                                  stderr_path)
        if code != 0:
            raise SystemExit("error: `import cylpart` failed; see .bench_out/setup.stderr")
        imports.append(wall)
    builds = []
    for _ in range(3):
        start = time.perf_counter()
        workload = make_workload(spec, name, seed)
        builds.append(time.perf_counter() - start)
    raw = statistics.median(imports) + statistics.median(builds)
    return workload, raw * workloads.REFERENCE_S / statistics.median(refs), raw, len(imports)


def timed_run(workload, seconds: float, limit: float) -> list:
    """Passes until ``seconds`` is used up, at least MIN_PASSES, and none
    that would end after ``limit``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass(len(passes)))
        elapsed = time.perf_counter() - start
        estimate = statistics.median(p.wall_s for p in passes)
        if elapsed + estimate > limit:
            break
        if len(passes) >= MIN_PASSES and elapsed + estimate > seconds:
            break
    return passes


def per_job_medians(passes: list, values) -> list[float]:
    """Each CLI job's median over the passes of ``values(pass)``."""
    by_job: dict[int, list[float]] = {}
    for p in passes:
        for k, value in zip(p.order, values(p)):
            by_job.setdefault(k, []).append(value)
    return [statistics.median(v) for v in by_job.values()]


def end_to_end(passes: list, setup_s: float, setup_n: int, cli: bool,
               corrected: bool = True) -> dict:
    """name -> (value, unit, samples); times at the reference host speed
    unless ``corrected`` is false.

    A CLI pass is a handful of jobs: its wall and CPU time are the sums of
    each job's median over the passes, which is steadier than the median
    of the pass totals when the host's speed drifts during a run.  One CLI
    operation is one job, so the latency percentiles are taken over the
    per-job medians (p99 is the slowest job).  A round-trip pass is 3000
    short operations: its times are medians over passes and its
    percentiles are over every operation of the run.
    """
    def walls(p):
        return p.corrected() if corrected else list(p.latencies)

    if cli:
        latencies = per_job_medians(passes, walls)
        cpus = per_job_medians(passes, lambda p: [c * f for c, f in zip(p.cpus, p.factors)]
                               if corrected else list(p.cpus))
        wall, cpu = sum(latencies), sum(cpus)
    else:
        latencies = [t for p in passes for t in walls(p)]
        wall = statistics.median(sum(walls(p)) for p in passes)
        cpu = statistics.median(p.cpu_s * sum(walls(p)) / p.wall_s for p in passes)
    return {
        "wall_s": (wall, "s", len(passes)),
        "cpu_s": (cpu, "s", len(passes)),
        "setup_s": (setup_s, "s", setup_n),
        "peak_rss_mb": (statistics.median(p.rss_kb / 1024 for p in passes), "MB", len(passes)),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms", len(latencies)),
        "op_p99_ms": (percentile(latencies, 99) * 1e3, "ms", len(latencies)),
    }


def traced_run(workload, name: str, seed: int) -> tuple[list, dict]:
    """One untraced pass, then one traced pass; per-layer metrics."""
    plain = workload.run_pass(0)
    trace_dir = os.path.join(OUT, f"trace-{name}-seed{seed}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    if isinstance(workload, workloads.CliWorkload):
        traced = workload.run_pass(0, trace_dir=trace_dir)
        summaries, covered = [], []
        for k in traced.order:
            path = os.path.join(trace_dir, f"job{k}.bin")
            if not os.path.exists(path):
                traced.errors.append(f"{' '.join(workload.jobs[k])}: no trace written")
                covered.append(0.0)
                continue
            summaries.append(spans.read_summary(path))
            covered.append(sum(summaries[-1]["covered_s"].values()))
    else:
        tracer = spans.Tracer()
        tracer.install()
        traced = workload.run_pass(0, tracer=tracer)
        tracer.stop_gc()
        tracer.write(os.path.join(trace_dir, "roundtrip.bin"))
        summaries = [tracer.summary()]
        covered = [summaries[0]["covered_s"].get(str(k), 0.0)
                   for k in range(len(traced.latencies))]
    # The share of each job's (or operation's) wall time under a top-level span.
    coverage = [c / wall for c, wall in zip(covered, traced.latencies)]
    total = spans.combine(summaries)
    metrics = spans.layer_metrics(total)
    metrics["cli.output_bytes"] = traced.out_bytes
    metrics["trace.coverage"] = statistics.median(coverage)
    metrics["trace.overhead_frac"] = sum(traced.corrected()) / sum(plain.corrected()) - 1
    with open(os.path.join(trace_dir, "summary.json"), "w") as fh:
        json.dump({"total": total, "coverage_by_job": coverage}, fh, indent=1)
    return [plain, traced], metrics


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description="cylpart benchmark: one run of one workload")
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "cylpart", "__init__.py")):
        print("error: src/cylpart not found; run from the root of a cylpart checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    begin = time.perf_counter()
    workload, setup_s, setup_raw, setup_n = measure_setup(spec, args.workload, args.seed)
    budget = HARD_LIMIT_S - (time.perf_counter() - begin)
    cli = isinstance(workload, workloads.CliWorkload)
    if args.trace:
        passes, metrics = traced_run(workload, args.workload, args.seed)
        detail = {name: (value, spans.unit_of(name), 1) for name, value in metrics.items()}
        measured = {}
    else:
        passes = timed_run(workload, args.seconds, budget)
        detail = end_to_end(passes, setup_s, setup_n, cli)
        measured = end_to_end(passes, setup_raw, setup_n, cli, corrected=False)
    attempted = sum(len(p.latencies) for p in passes)
    failures = [line for p in passes for line in p.errors]
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(passes), "environment": environment(),
        "pass_wall_s": [p.wall_s for p in passes],
        "job_wall_s": {k: [wall for p in passes for j, wall in zip(p.order, p.latencies) if j == k]
                       for k in sorted({j for p in passes for j in p.order})},
        "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": sorted(set(failures))[:20],
        "metrics": {name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in detail.items()},
        "measured_metrics": {name: {"value": v, "unit": u, "samples": n}
                             for name, (v, u, n) in measured.items()},
        "speed_factors": [statistics.median(p.factors) for p in passes if p.factors],
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} python={result['environment']['python']} "
          f"nproc={result['environment']['nproc']}")
    for name, (value, unit, samples) in detail.items():
        raw = f"  (as measured {measured[name][0]:.6g})" if name in measured else ""
        print(f"  {name:<30} {value:>16.6g} {unit:<6} samples={samples}{raw}")
    print(f"  {'failed_frac':<30} {result['failed_frac']:>16.6g} {'1':<6} "
          f"samples={attempted}")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": {name: {"value": v, "unit": u}
                                  for name, (v, u, _) in detail.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
