"""The benchmark's workloads: CLI job lists and the in-process round trip.

A workload is built from the benchmark seed alone.  ``run_pass`` runs its
fixed job list once and returns a ``Pass``: the latency of every job or
operation, CPU time, peak RSS and the failures the checks found.
"""

from __future__ import annotations

import os
import random
import resource
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass, field

import checker

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
JOB_TIMEOUT_S = 120.0
# Host-speed correction: a time measured between reference processes that
# took r1 and r2 seconds is also reported as time * REFERENCE_S / mean(r1,
# r2), the time on a host that runs the reference in REFERENCE_S (about its
# time on the host the benchmark was defined on).
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.py")
REFERENCE_S = 0.25
ROUNDTRIP_BLOCK = 1000    # round-trip operations per reference run


@dataclass
class Pass:
    """One pass over a workload's fixed job list."""

    latencies: array = field(default_factory=lambda: array("d"))  # s, in run order
    factors: array = field(default_factory=lambda: array("d"))    # speed factor of each
    order: list[int] = field(default_factory=list)                # cli: job index of each
    cpus: array = field(default_factory=lambda: array("d"))       # cli: CPU s of each
    cpu_s: float = 0.0                                            # roundtrip: CPU s of pass
    rss_kb: int = 0
    out_bytes: int = 0
    errors: list[str] = field(default_factory=list)               # one line per failure

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    def corrected(self) -> list[float]:
        """Latencies at the reference host speed."""
        return [t * f for t, f in zip(self.latencies, self.factors)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], stderr_path: str) -> tuple[int, bytes, float, float, int]:
    """Run one process to completion: (exit code, stdout, wall s, cpu s, max RSS KB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def reference_time(stderr_path: str) -> float:
    """Wall time of one fresh reference process."""
    code, _, wall, _, _ = run_child([sys.executable, REFERENCE], stderr_path)
    if code != 0:
        raise RuntimeError(f"reference process failed; see {stderr_path}")
    return wall


def bracket_factors(refs: list[float], counts: list[int]) -> array:
    """Speed factor of every job or operation: a block of counts[i] of them
    ran between reference runs refs[i] and refs[i + 1], and its factor is
    REFERENCE_S over their mean."""
    factors = array("d")
    for i, count in enumerate(counts):
        factors.extend([2 * REFERENCE_S / (refs[i] + refs[i + 1])] * count)
    return factors


class CliWorkload:
    """Each job is a fresh ``python -m cylpart ... --format json --jobs 1``
    process, as CLI users pay cold caches on every call.  The seed fixes the
    job order of every pass and the sampling seed given to verify-all."""

    def __init__(self, name: str, jobs: list[list[str]], seed: int, out_dir: str):
        self.name = name
        self.seed = seed
        self.out_dir = out_dir
        self.refs = checker.load_refs()
        rng = random.Random(f"{name}:{seed}")
        self.jobs = [job + (["--seed", str(rng.randrange(2 ** 31))]
                            if job[0] == "verify-all" else [])
                     for job in jobs]

    def _order(self, pass_index: int) -> list[int]:
        order = list(range(len(self.jobs)))
        random.Random(f"{self.name}:{self.seed}:{pass_index}").shuffle(order)
        return order

    def run_pass(self, pass_index: int, trace_dir: str | None = None) -> Pass:
        """Run every job once; with ``trace_dir`` each runs under the tracer
        and leaves its trace there as job<k>.bin."""
        result = Pass()
        stderr_path = os.path.join(self.out_dir, "job.stderr")
        refs = [reference_time(stderr_path)]
        for k in self._order(pass_index):
            argv = self.jobs[k]
            cli = [*argv, "--format", "json", "--jobs", "1"]
            if trace_dir is None:
                cmd = [sys.executable, "-m", "cylpart", *cli]
            else:
                cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "tracechild.py"),
                       os.path.join(trace_dir, f"job{k}.bin"), *cli]
            code, out, wall, cpu, rss = run_child(cmd, stderr_path)
            error = checker.check_job(argv, code, out, self.refs)
            if code != 0:
                with open(stderr_path, errors="replace") as fh:
                    error += f" ({fh.read().strip()[-300:]})"
            result.latencies.append(wall)
            result.order.append(k)
            result.cpus.append(cpu)
            result.rss_kb = max(result.rss_kb, rss)
            result.out_bytes += len(out)
            if error is not None:
                result.errors.append(f"{checker.job_key(argv)}: {error}")
            refs.append(reference_time(stderr_path))
        result.factors = bracket_factors(refs, [1] * len(self.jobs))
        return result


# -- round trip -----------------------------------------------------------

def random_profile(rng: random.Random, rank: int, level: int) -> tuple[int, ...]:
    parts = [0] * rank
    for _ in range(level):
        parts[rng.randrange(rank)] += 1
    return tuple(parts)


def random_rows(rng: random.Random, profile: tuple[int, ...], target: int
                ) -> tuple[tuple[int, ...], ...]:
    """Rows of a random cylindric partition of weight about ``target``.

    Grows a chain of slices from the empty one, one valid box at a time
    (row i may grow while l_i < l_{i-1} + c_i, cyclically), sometimes
    repeating a slice, and sums the chain: part j of row i counts the
    slices whose row i has at least j boxes.  Uses no cylpart code.
    """
    r = len(profile)
    lengths = [0] * r
    chain: list[tuple[int, ...]] = []
    weight = 0
    while weight < target:
        if not chain or rng.random() < 0.6:
            for _ in range(rng.randint(1, 3)):
                growable = [i for i in range(r)
                            if lengths[i] + 1 <= lengths[i - 1] + profile[i]]
                lengths[rng.choice(growable)] += 1
        chain.append(tuple(lengths))
        weight += sum(lengths)
    return tuple(tuple(sum(1 for s in chain if s[i] >= j)
                       for j in range(1, max(s[i] for s in chain) + 1))
                 for i in range(r))


class RoundtripWorkload:
    """Cylindric partitions of rank 2 to 4, level 1 to 4 and weight about
    10 to 120, drawn from the seed; one operation is a pivot round trip, a
    slice round trip and a shrink/expand round trip in both modes.  Every
    pass runs the same inputs in the same order."""

    SIZE = 3000

    def __init__(self, name: str, seed: int, out_dir: str):
        self.name = name
        self.seed = seed
        self.out_dir = out_dir
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        import cylpart
        self.cylpart = cylpart
        # The library's memo caches, emptied before each pass so that every
        # pass sees them as a fresh process would.
        caches = {id(obj): obj for module in vars(cylpart).values()
                  if isinstance(module, type(cylpart))
                  for obj in vars(module).values() if hasattr(obj, "cache_clear")}
        self.caches = list(caches.values())
        self.inputs = self.generate()

    def generate(self) -> list:
        """Every seed gets the same mix of ranks, levels and target weights
        (input k: rank 2 + k mod 3, level 1 + (k div 3) mod 4, targets evenly
        spread over 10..120), so the work per pass hardly depends on the
        seed; the seed draws the profiles, the partitions and their order."""
        rng = random.Random(f"{self.name}:{self.seed}")
        core = self.cylpart.core
        inputs = []
        for k in range(self.SIZE):
            profile = random_profile(rng, 2 + k % 3, 1 + (k // 3) % 4)
            target = 10 + (k * 7919 % self.SIZE) * 111 // self.SIZE
            rows = random_rows(rng, profile, target)
            inputs.append(core.validate((core.Partition(row) for row in rows),
                                        core.Profile(profile)))
        rng.shuffle(inputs)
        return inputs

    def operation(self, cp) -> str | None:
        """One round trip; None when every inverse gives the input back.
        Calls go through the module attributes, so a tracer sees them."""
        bijection, slices = self.cylpart.bijection, self.cylpart.slices
        mu, beta = bijection.pivot_decompose(cp)
        if bijection.pivot_reconstruct(mu, beta, cp.profile) != cp:
            return f"pivot round trip broke on {cp.to_text()}"
        chain = slices.decompose(cp)
        if slices.recompose(chain) != cp:
            return f"slice round trip broke on {cp.to_text()}"
        expanded = [s.lengths for s in chain.expanded()]
        for mode in slices.ShrinkMode:
            tight, side = slices.shrink(chain, mode)
            if sum(t.weight for t in tight) + side.weight != chain.weight:
                return f"shrink lost weight on {cp.to_text()}"
            if [s.lengths for s in slices.expand(tight, side, mode)] != expanded:
                return f"expand did not invert shrink ({mode.value}) on {cp.to_text()}"
        return None

    def run_pass(self, pass_index: int, tracer=None) -> Pass:
        """Every input once, in input order; with ``tracer`` each operation's
        spans carry its input index as the job id."""
        result = Pass()
        clock = time.perf_counter
        for cache in self.caches:
            cache.cache_clear()
        if tracer is not None:
            tracer.cache_start()
        stderr_path = os.path.join(self.out_dir, "reference.stderr")
        refs, counts = [], []
        cpu = time.process_time()
        for k, cp in enumerate(self.inputs):
            if k % ROUNDTRIP_BLOCK == 0:
                cpu_ref = time.process_time()
                refs.append(reference_time(stderr_path))
                counts.append(0)
                cpu += time.process_time() - cpu_ref
            counts[-1] += 1
            if tracer is not None:
                tracer.job = k
            start = clock()
            try:
                error = self.operation(cp)
            except Exception as exc:   # a failed operation, counted and reported
                error = f"{type(exc).__name__}: {exc}"
            result.latencies.append(clock() - start)
            if error is not None:
                result.errors.append(f"input {k}: {error}")
        result.cpu_s = time.process_time() - cpu
        refs.append(reference_time(stderr_path))
        result.factors = bracket_factors(refs, counts)
        if tracer is not None:
            tracer.cache_stop()
        result.rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return result
