"""Span tracing from outside the program.

`Tracer.install` replaces chosen public functions of the diarkit modules
with wrappers, in every diarkit module namespace that binds them, so a
caller's lookup (`diarkit.clustering.eigh` inside `spectral_cluster`,
`diarkit.cli.aggregate` inside the CLI, `diarkit.io.read_embeddings_csv`
through `formats.`) reaches the wrapper. Nothing under `src/` changes.

While a traced op runs, each wrapped call records a span: name, start,
end, parent span and op id. Spans stay in memory and are written to a
file once, when the run ends. A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

# Span name -> (defining module, function name). Hot per-window helpers
# such as `numerics.l2_normalize` are left out: thousands of spans per op
# would cost more than the work they time.
SPANS = {
    "cli.main": ("diarkit.cli", "main"),
    "io.read_embeddings_csv": ("diarkit.io", "read_embeddings_csv"),
    "io.read_regions_csv": ("diarkit.io", "read_regions_csv"),
    "io.parse_rttm": ("diarkit.io", "parse_rttm"),
    "io.write_rttm": ("diarkit.io", "write_rttm"),
    "aggregation.segmentize": ("diarkit.aggregation", "segmentize"),
    "aggregation.aggregate": ("diarkit.aggregation", "aggregate"),
    "aggregation.regions_from_windows": ("diarkit.aggregation", "regions_from_windows"),
    "clustering.spectral_cluster": ("diarkit.clustering", "spectral_cluster"),
    "clustering.build_affinity": ("diarkit.clustering", "build_affinity"),
    "clustering.refine_chain": ("diarkit.clustering", "refine_chain"),
    "clustering.refine_threshold": ("diarkit.clustering", "refine_threshold"),
    "clustering.refine_symmetrize": ("diarkit.clustering", "refine_symmetrize"),
    "clustering.refine_diffuse": ("diarkit.clustering", "refine_diffuse"),
    "clustering.refine_row_max_normalize": ("diarkit.clustering", "refine_row_max_normalize"),
    "clustering.estimate_k_eigengap": ("diarkit.clustering", "estimate_k_eigengap"),
    "clustering.spectral_embed": ("diarkit.clustering", "spectral_embed"),
    "clustering.kmeans": ("diarkit.clustering", "kmeans"),
    "clustering.estimate_k_elbow": ("diarkit.clustering", "estimate_k_elbow"),
    "clustering.mscd_table": ("diarkit.clustering", "mscd_table"),
    "clustering.run_online": ("diarkit.clustering", "run_online"),
    "numerics.eigh": ("diarkit.numerics", "eigh"),
    "numerics.gaussian_blur": ("diarkit.numerics", "gaussian_blur"),
    "numerics.optimal_assignment": ("diarkit.numerics", "optimal_assignment"),
    "core.annotation_from_clusters": ("diarkit.core", "annotation_from_clusters"),
    "metrics.der": ("diarkit.metrics", "der"),
    "metrics.scoring_region": ("diarkit.metrics", "scoring_region"),
    "metrics.map_speakers": ("diarkit.metrics", "map_speakers"),
    "metrics.combine_reports": ("diarkit.metrics", "combine_reports"),
}

# Spans some workloads never call. A per-function self time that reads 0
# on every run of a workload cannot be told from one never measured, so
# these are printed only inside their layer's total; the result file lists
# every span's self time.
NOT_EVERY_OP = {
    "io.read_regions_csv",  # sweep reads no regions
    "io.write_rttm",  # sweep writes no hypothesis
    "aggregation.regions_from_windows",  # only sweep derives regions
    "clustering.estimate_k_elbow",  # only corpus-mixed runs k-means and naive
    "clustering.mscd_table",
    "clustering.run_online",
}
LAYERS = ("io", "aggregation", "clustering", "numerics", "metrics")

# Spans whose heap peak a Tracer(alloc=True) measures with tracemalloc
# (numpy reports its buffers to it). tracemalloc slows every Python
# allocation, so the run measures it in a separate op whose times are
# not used.
ALLOC_SPANS = {"clustering.spectral_cluster"}

ROOT = "bench.op"


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _aggregate_counts(args, kwargs, result) -> dict:
    """Segments in and out of `aggregate`, and the speech the dropped ones held."""
    segments = _arg(args, kwargs, 1, "segments")
    kept = {(se.interval.start, se.interval.end) for se in result}
    dropped_s = sum(iv.end - iv.start for iv in segments if (iv.start, iv.end) not in kept)
    return {"segments": len(segments), "kept": len(result), "dropped_s": dropped_s}


def _spectral_counts(args, kwargs, result) -> dict:
    """n, the chosen k, and how many n x n arrays the result keeps alive.

    Reads the result by attribute name with fallbacks, so a changed result
    type lowers a count instead of failing the run.
    """
    n = len(_arg(args, kwargs, 0, "embeddings"))
    clustering = getattr(result, "clustering", result)
    labels = getattr(clustering, "labels", ())
    k = getattr(clustering, "k", None) or len(set(int(x) for x in labels))
    retained = set()
    for value in vars(result).values() if hasattr(result, "__dict__") else ():
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if getattr(item, "shape", None) == (n, n):
                retained.add(id(item))
    return {"n": n, "k": k, "retained": len(retained)}


# Span name -> function of (args, kwargs, result) giving that call's counts.
COUNTERS = {
    "io.read_embeddings_csv": lambda args, kwargs, result: {"windows": len(result)},
    "aggregation.aggregate": _aggregate_counts,
    "clustering.spectral_cluster": _spectral_counts,
}


class Tracer:
    """Spans and call records of traced ops; inactive outside them."""

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        # each span: [name, start, end, parent index or -1, op id]
        self.spans: list[list] = []
        # span name -> list of (op id, counts dict, peak alloc bytes or None)
        self.calls: dict[str, list] = defaultdict(list)
        self.ops = 0
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every SPANS function that exists; a missing one just reads 0."""
        modules = [m for k, m in sys.modules.items()
                   if k == "diarkit" or k.startswith("diarkit.")]
        for name, (module_name, attr) in SPANS.items():
            original = getattr(sys.modules[module_name], attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                keys = [k for k, v in vars(module).items() if v is original]
                for key in keys:
                    self._patched.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        alloc = self.alloc and name in ALLOC_SPANS
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1], tracer._op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if alloc:
                tracemalloc.start()
            peak = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._stack.pop()
            counts = count(args, kwargs, result) if count else {}
            tracer.calls[name].append((tracer._op, counts, peak))
            return result

        return wrapper

    def run_op(self, fn):
        """Run fn() as one traced op under a root span; return its result."""
        op = self.ops
        self.ops += 1
        span = [ROOT, 0.0, 0.0, -1, op]
        self._stack = [len(self.spans)]
        self.spans.append(span)
        self._op = op
        span[1] = time.perf_counter()
        try:
            return fn()
        finally:
            span[2] = time.perf_counter()
            self._op = None
            self._stack = []

    def self_times(self) -> dict[str, float]:
        """Summed self seconds per span name over all traced ops."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
        return dict(totals)

    def total_times(self) -> dict[str, float]:
        """Summed span durations (self plus children) per span name."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            totals[name] += end - start
        return dict(totals)

    def write(self, path: Path) -> None:
        spans = [
            {"id": i, "name": name, "start": start, "end": end,
             "parent": parent if parent >= 0 else None, "op": op}
            for i, (name, start, end, parent, op) in enumerate(self.spans)
        ]
        path.write_text(json.dumps({"spans": spans}) + "\n")
