"""The benchmark's tracer wraps diarkit functions by name (bench/tracing.py):
renaming or deleting one would zero its span silently, so Tier-1 checks them."""

import importlib
import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import diarkit.pipeline
from diarkit.clustering import SpectralParams, spectral_cluster, spectral_grid
from diarkit.core import Annotation, Segment, TimeInterval
from diarkit.metrics import EvalOptions, der
from diarkit.pipeline import DiarizeConfig, cluster

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# spans the tracer still lists for functions the library has since deleted or
# made private
DELETED = {
    "clustering.refine_chain",
    "clustering.build_affinity",
    "clustering.refine_threshold",
    "clustering.refine_symmetrize",
    "clustering.refine_diffuse",
    "clustering.refine_row_max_normalize",
    "clustering.mscd_table",
    "numerics.gaussian_blur",
    "metrics.map_speakers",
    "clustering.estimate_k_eigengap",
    "clustering.spectral_embed",
}


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


def count_calls(monkeypatch, stages) -> Counter:
    """Count calls to each span's function through every namespace that binds it,
    as the tracer patches them."""
    spans = load_tracing().SPANS
    calls = Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "diarkit"]
    for span in stages:
        original = resolve(*spans[span])

        def counted(*args, _span=span, _original=original, **kwargs):
            calls[_span] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                monkeypatch.setattr(module, key, counted)
    return calls


def three_groups() -> np.ndarray:
    rng = np.random.default_rng(0)
    return np.repeat(np.eye(3, 8), 20, axis=0) + 0.1 * rng.standard_normal((60, 8))


def test_spectral_cluster_calls_each_traced_stage_once(monkeypatch):
    # the kmeans span times calls through its name: a chain that ran a private
    # kernel instead would read 0 there without failing. The blurred affinity,
    # the three stages of the chain (threshold + symmetrize, diffusion, the
    # closing row-max pass), the solve, the eigen-gap k and the re-embedding
    # are private, with no span that the library reaches (numerics.eigh is
    # the public solver, which the chain does not call); their time is
    # spectral_cluster's own.
    called = ["clustering.kmeans"]
    calls = count_calls(monkeypatch, called)
    assert spectral_cluster(three_groups(), SpectralParams()).clustering.k == 3
    assert calls == Counter(called)


def test_kmeans_cluster_calls_the_elbow_once(monkeypatch):
    # the elbow's span times the k-means baseline's whole search
    calls = count_calls(monkeypatch, ["clustering.estimate_k_elbow"])
    assert cluster(three_groups(), DiarizeConfig("kmeans")).k >= 2
    assert calls == Counter(["clustering.estimate_k_elbow"])


def test_two_stage_cluster_calls_spectral_cluster_and_kmeans_once(monkeypatch):
    # above the cap, the spectral_cluster span and its n and k counters time
    # stage 2, and the kmeans span its last step: stage 1 runs no kmeans call
    monkeypatch.setattr(diarkit.pipeline, "TWO_STAGE_CAP", 50)
    monkeypatch.setattr(diarkit.clustering, "PRECLUSTER_COUNT", 20)
    stages = ["clustering.spectral_cluster", "clustering.kmeans"]
    calls = count_calls(monkeypatch, stages)
    assert len(cluster(three_groups(), DiarizeConfig()).labels) == 60
    assert calls == Counter(stages)


def test_spectral_grid_calls_kmeans_once_per_config(monkeypatch):
    # the sweep clusters through spectral_grid; the kmeans span times each config's last step
    calls = count_calls(monkeypatch, ["clustering.kmeans"])
    grid = [SpectralParams(), SpectralParams(sigma=0.5), SpectralParams(p_percentile=90.0)]
    assert [r.clustering.k for r in spectral_grid(three_groups(), grid)] == [3, 3, 3]
    assert calls == Counter({"clustering.kmeans": 3})


def test_der_calls_each_traced_scoring_stage_once(monkeypatch):
    # the matching's span times der's call through this name; der builds its
    # region in ticks, so metrics.scoring_region (the public wrapper) reads 0
    stages = ["numerics.optimal_assignment"]
    calls = count_calls(monkeypatch, stages)

    def annotation(*segments):
        return Annotation("rec", [Segment(TimeInterval(s, e), spk) for s, e, spk in segments])

    reference = annotation((0.0, 4.0, "A"), (4.0, 8.0, "B"), (6.0, 9.0, "C"))
    hypothesis = annotation((0.0, 5.0, "x"), (5.0, 9.0, "y"))
    assert der(reference, hypothesis, EvalOptions()).total > 0
    assert calls == Counter(stages)
