"""The benchmark's tracer wraps diarkit functions by name (bench/tracing.py):
renaming or deleting one would zero its span silently, so Tier-1 checks them."""

import importlib
import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from diarkit.clustering import SpectralParams, spectral_cluster

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# spans the tracer still lists for functions the library has since deleted
DELETED = {"clustering.refine_chain"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module: str, name: str):
    return getattr(importlib.import_module(module), name, None)


def test_every_span_target_resolves():
    spans = load_tracing().SPANS
    missing = {span for span, target in spans.items() if not callable(resolve(*target))}
    assert missing <= DELETED


def test_counted_arguments_keep_their_names():
    # the counters read these arguments by position, or by name when passed by keyword
    tracing = load_tracing()
    for span, (index, name) in [
        ("aggregation.aggregate", (1, "segments")),
        ("clustering.spectral_cluster", (0, "embeddings")),
    ]:
        assert span in tracing.COUNTERS
        parameters = list(inspect.signature(resolve(*tracing.SPANS[span])).parameters)
        assert parameters[index] == name


def test_spectral_cluster_calls_each_traced_stage_once(monkeypatch):
    # each stage's span times calls through these names: a chain that ran a
    # private kernel instead would read 0 there without failing
    spans = load_tracing().SPANS
    stages = ["clustering.build_affinity", "numerics.gaussian_blur", "clustering.refine_threshold",
              "clustering.refine_symmetrize", "clustering.refine_diffuse", "numerics.eigh",
              "clustering.kmeans"]
    calls = Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "diarkit"]
    for span in stages:
        original = resolve(*spans[span])

        def counted(*args, _span=span, _original=original, **kwargs):
            calls[_span] += 1
            return _original(*args, **kwargs)

        # every namespace that binds the function, as the tracer patches them
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                monkeypatch.setattr(module, key, counted)
    rng = np.random.default_rng(0)
    x = np.repeat(np.eye(3, 8), 20, axis=0) + 0.1 * rng.standard_normal((60, 8))
    assert spectral_cluster(x, SpectralParams()).clustering.k == 3
    assert calls == Counter(stages)
