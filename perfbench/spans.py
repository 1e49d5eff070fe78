"""Layer tracing for cylpart, installed from outside the program.

``Tracer.install()`` wraps every public function of the eleven cylpart
modules, plus the public methods, constructors and arithmetic operators of
their public classes, and rebinds each wrapper at every site where the name is looked
up: the defining module, each module that imported it with
``from .x import y``, the ``cylpart`` package namespace and
``cli._POLY_KINDS``.  Nothing under ``src/`` is edited.

A span is opened only where a call crosses from one layer into another, so
a layer's own helper calls add a call count but no span.  Spans live in
flat arrays in memory and are written out when the traced process ends.  A
layer's self time is the duration of its spans minus the time their child
spans cover.
"""

from __future__ import annotations

import gc
import importlib
import json
import math
import time
import types
from array import array

LAYERS = ("core", "qpoly", "rings", "series", "oracle", "slices",
          "bijection", "diagram", "polynomials", "lineups", "cli")
# Dunder methods that do a layer's work: construction and validation of
# its values, and arithmetic.
DUNDERS = ("__init__", "__post_init__", "__add__", "__radd__", "__sub__",
           "__rsub__", "__mul__", "__rmul__", "__truediv__", "__neg__",
           "__pow__", "__call__")
# O(1) accessors called per coefficient, part or row inside the layers'
# inner loops (millions of calls per job).  A wrapper costs more than the
# call itself, so they stay unwrapped and their time counts toward the
# calling span.
UNWRAPPED = {"qpoly.QPoly.coefficient", "core.Partition.part",
             "core.Profile.offsets", "slices.Slice.right_ends",
             "slices.Slice.contains", "polynomials.PolynomialFamily.dist"}
COUNTERS = ("oracle.partitions", "oracle.count_walks", "polynomials.max_degree",
            "qpoly.mul_coeff_ops", "series.mul_coeff_ops", "rings.quad_ops",
            "bijection.tiled_slices", "lineups.jammed_tried",
            "lineups.jammed_kept")
CACHES = {"polynomials.family": ("polynomials", "family"),
          "slices.slice_with": ("slices", "slice_with")}
SPAN_COLUMNS = (("name", "i"), ("layer", "b"), ("start", "d"), ("end", "d"),
                ("parent", "i"), ("job", "i"))


class Tracer:
    """Spans, per-layer call and error counts, work counters and GC pauses
    of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.columns = {col: array(code) for col, code in SPAN_COLUMNS}
        self.calls = [0] * len(LAYERS)
        self.errors = [0] * len(LAYERS)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.cache = {key: [0, 0] for key in CACHES}
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self.job = 0
        self._open: list[tuple[int, int]] = []   # (layer, span index)
        self._last_error: list[object] = [None] * len(LAYERS)
        self._gc_started = 0.0
        self._caches: dict[str, object] = {}
        self._cache_base: dict[str, tuple[int, int]] = {}

    # -- recording -----------------------------------------------------

    def _error(self, layer: int, exc: BaseException):
        # An exception passing through several functions of one layer
        # leaves that layer once.
        if self._last_error[layer] is not exc:
            self._last_error[layer] = exc
            self.errors[layer] += 1

    def _wrap(self, fn, name: str, layer: int, before=None, after=None):
        name_id = len(self.names)
        self.names.append(name)
        calls, opened = self.calls, self._open
        clock = time.perf_counter
        c = self.columns
        s_name, s_layer, s_start = c["name"], c["layer"], c["start"]
        s_end, s_parent, s_job = c["end"], c["parent"], c["job"]

        def traced(*args, **kwargs):
            calls[layer] += 1
            if before is not None:
                before(args, kwargs)
            if opened and opened[-1][0] == layer:
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    self._error(layer, exc)
                    raise
            else:
                index = len(s_start)
                s_name.append(name_id)
                s_layer.append(layer)
                s_parent.append(opened[-1][1] if opened else -1)
                s_job.append(self.job)
                s_end.append(0.0)
                opened.append((layer, index))
                s_start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    self._error(layer, exc)
                    raise
                finally:
                    s_end[index] = clock()
                    opened.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase: str, info: dict):
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    # -- work counters -------------------------------------------------

    def _hooks(self, modules: dict) -> dict:
        """Qualified name -> (before, after) counter hooks."""
        counters = self.counters
        QPoly = getattr(modules["qpoly"], "QPoly", ())

        def partitions(args, kwargs, result):
            counters["oracle.partitions"] += len(result)

        def count_walk(args, kwargs):
            counters["oracle.count_walks"] += 1

        def max_degree(args, kwargs, result):
            if isinstance(result, QPoly):
                counters["polynomials.max_degree"] = max(
                    counters["polynomials.max_degree"], result.degree)

        def qpoly_mul(args, kwargs):
            # Computed from operand sizes: one product per coefficient pair.
            a, b = args
            size = len(b.coeffs) if isinstance(b, QPoly) else 1
            counters["qpoly.mul_coeff_ops"] += len(a.coeffs) * size

        def series_mul(args, kwargs):
            # Computed: coefficient pairs (i, j) with i + j <= order.
            n = args[0].order + 1
            counters["series.mul_coeff_ops"] += n * (n + 1) // 2

        def quad_op(args, kwargs):
            counters["rings.quad_ops"] += 1

        def tiled(args, kwargs, result):
            counters["bijection.tiled_slices"] += len(result.slices)

        def jammed(args, kwargs, result):
            # Candidates tried: every shape choice times every non-empty
            # set of tightened gaps, |shapes|^n * (2^n - 1).
            bound = {**dict(zip(("n", "profile"), args)), **kwargs}
            n, profile = bound["n"], bound["profile"]
            shapes = math.comb(profile.level + profile.rank - 1,
                               profile.rank - 1) - profile.rank
            counters["lineups.jammed_tried"] += shapes ** n * ((1 << n) - 1)
            counters["lineups.jammed_kept"] += len(result)

        hooks = {"oracle.enumerate_by_weight": (None, partitions),
                 "bijection.tile": (None, tiled),
                 "lineups.enumerate_minimal_jammed": (None, jammed)}
        for name in ("count_series", "count_bivariate", "count_distinct_series",
                     "count_max_at_most", "count_max_exactly"):
            hooks[f"oracle.{name}"] = (count_walk, None)
        # The numerators callers ask for; the per-shape table entries that
        # back them are not counted.
        for name in ("parts_at_most_poly", "largest_part_exact_poly",
                     "pivot_lineup_poly", "pivot_corrected_poly"):
            hooks[f"polynomials.{name}"] = (None, max_degree)
        for name in ("__mul__", "__rmul__"):
            hooks[f"qpoly.QPoly.{name}"] = (qpoly_mul, None)
            hooks[f"series.TruncatedSeries.{name}"] = (series_mul, None)
            hooks[f"series.BivariateTruncated.{name}"] = (series_mul, None)
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__", "__truediv__", "__neg__"):
            hooks[f"rings.QuadElement.{name}"] = (quad_op, None)
        return hooks

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap cylpart's public callables at every lookup site."""
        package = importlib.import_module("cylpart")
        modules = {layer: importlib.import_module(f"cylpart.{layer}")
                   for layer in LAYERS}
        hooks = self._hooks(modules)
        for key, (layer, name) in CACHES.items():
            self._caches[key] = getattr(modules[layer], name, None)
        wrapped: dict[int, tuple[object, object]] = {}   # id(original) -> pair

        def wrap(fn, layer, qualname):
            name = f"{layer}.{qualname}"
            before, after = hooks.get(name, (None, None))
            return self._wrap(fn, name, LAYERS.index(layer), before, after)

        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, layer, wrap)
                elif callable(obj):
                    wrapped[id(obj)] = (obj, wrap(obj, layer, name))
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                pair = wrapped.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(module, name, pair[1])
        kinds = getattr(modules["cli"], "_POLY_KINDS", {})
        for key, fn in list(kinds.items()):
            pair = wrapped.get(id(fn))
            if pair is not None and pair[0] is fn:
                kinds[key] = pair[1]
        gc.callbacks.append(self._on_gc)

    @staticmethod
    def _wrap_class(cls: type, layer: str, wrap):
        for name, attr in list(vars(cls).items()):
            qualname = f"{cls.__name__}.{name}"
            if (name.startswith("_") and name not in DUNDERS) or \
                    f"{layer}.{qualname}" in UNWRAPPED:
                continue
            if isinstance(attr, types.FunctionType):
                setattr(cls, name, wrap(attr, layer, qualname))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(wrap(attr.__func__, layer, qualname)))
            elif isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(wrap(attr.__func__, layer, qualname)))

    def stop_gc(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _cache_counts(self) -> dict[str, tuple[int, int]]:
        out = {}
        for key, fn in self._caches.items():
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            out[key] = (info.hits, info.misses) if info else (0, 0)
        return out

    def cache_start(self):
        """Remember the cache counters, so ``cache_stop`` adds only the delta."""
        self._cache_base = self._cache_counts()

    def cache_stop(self):
        for key, (hits, misses) in self._cache_counts().items():
            hits0, misses0 = self._cache_base.get(key, (0, 0))
            self.cache[key][0] += hits - hits0
            self.cache[key][1] += misses - misses0

    # -- summary and output --------------------------------------------

    def summary(self) -> dict:
        """Per-layer totals plus, per job, the seconds under a top-level span."""
        c = self.columns
        self_s = [0.0] * len(LAYERS)
        covered: dict[int, float] = {}
        for layer, start, end, parent, job in zip(c["layer"], c["start"], c["end"],
                                                  c["parent"], c["job"]):
            duration = end - start
            self_s[layer] += duration
            if parent >= 0:
                self_s[c["layer"][parent]] -= duration
            else:
                covered[job] = covered.get(job, 0.0) + duration
        return {"calls": list(self.calls), "errors": list(self.errors),
                "self_s": self_s, "counters": dict(self.counters),
                "cache": {k: list(v) for k, v in self.cache.items()},
                "gc_pause_s": self.gc_pause_s, "gc_collections": self.gc_collections,
                "covered_s": {str(job): s for job, s in covered.items()},
                "spans": len(c["start"])}

    def write(self, path: str):
        """One JSON header line (the summary and span names), then the span
        columns as raw arrays in SPAN_COLUMNS order."""
        header = self.summary()
        header["names"] = self.names
        header["columns"] = [[col, code] for col, code in SPAN_COLUMNS]
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col, _ in SPAN_COLUMNS:
                self.columns[col].tofile(fh)


def read_summary(path: str) -> dict:
    with open(path, "rb") as fh:
        return json.loads(fh.readline())


def combine(summaries: list[dict]) -> dict:
    """Add up the summaries of several processes or passes."""
    total = {"calls": [0] * len(LAYERS), "errors": [0] * len(LAYERS),
             "self_s": [0.0] * len(LAYERS), "counters": dict.fromkeys(COUNTERS, 0),
             "cache": {key: [0, 0] for key in CACHES}, "gc_pause_s": 0.0,
             "gc_collections": 0, "spans": 0}
    for s in summaries:
        for key in ("calls", "errors", "self_s"):
            total[key] = [a + b for a, b in zip(total[key], s[key])]
        for key, value in s["counters"].items():
            if key == "polynomials.max_degree":
                total["counters"][key] = max(total["counters"][key], value)
            else:
                total["counters"][key] += value
        for key, (hits, misses) in s["cache"].items():
            total["cache"][key][0] += hits
            total["cache"][key][1] += misses
        for key in ("gc_pause_s", "gc_collections", "spans"):
            total[key] += s[key]
    return total


UNITS = {"calls": "count", "self_s": "s", "errors": "count",
         "oracle.partitions": "count", "oracle.count_walks": "count",
         "polynomials.max_degree": "degree", "polynomials.family_hit_ratio": "ratio",
         "slices.slice_with_hit_ratio": "ratio", "qpoly.mul_coeff_ops": "count",
         "series.mul_coeff_ops": "count", "rings.quad_ops": "count",
         "bijection.tiled_slices": "count", "lineups.jammed_kept_ratio": "ratio",
         "cli.output_bytes": "bytes", "gc.pause_s": "s", "gc.collections": "count",
         "trace.coverage": "ratio", "trace.overhead_frac": "ratio"}


def unit_of(metric: str) -> str:
    return UNITS.get(metric) or UNITS[metric.split(".", 1)[1]]


def layer_metrics(total: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from combined summaries
    (``trace.*`` and ``cli.output_bytes`` are added by the caller)."""
    metrics = {}
    for i, layer in enumerate(LAYERS):
        metrics[f"{layer}.calls"] = total["calls"][i]
        metrics[f"{layer}.self_s"] = total["self_s"][i]
        metrics[f"{layer}.errors"] = total["errors"][i]
    c = total["counters"]
    metrics.update({
        "oracle.partitions": c["oracle.partitions"],
        "oracle.count_walks": c["oracle.count_walks"],
        "polynomials.max_degree": c["polynomials.max_degree"],
        "polynomials.family_hit_ratio": _ratio(*total["cache"]["polynomials.family"]),
        "slices.slice_with_hit_ratio": _ratio(*total["cache"]["slices.slice_with"]),
        "qpoly.mul_coeff_ops": c["qpoly.mul_coeff_ops"],
        "series.mul_coeff_ops": c["series.mul_coeff_ops"],
        "rings.quad_ops": c["rings.quad_ops"],
        "bijection.tiled_slices": c["bijection.tiled_slices"],
        "lineups.jammed_kept_ratio": (c["lineups.jammed_kept"] / c["lineups.jammed_tried"]
                                      if c["lineups.jammed_tried"] else 0.0),
        "gc.pause_s": total["gc_pause_s"],
        "gc.collections": total["gc_collections"],
    })
    return metrics


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0
