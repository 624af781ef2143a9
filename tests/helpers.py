"""End-to-end pipeline glue shared by integration and acceptance tests."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import diarkit
from diarkit import (
    EvalOptions,
    SpectralParams,
    SynthScenario,
    annotation_from_clusters,
    der,
    generate,
    spectral_cluster,
)
from diarkit.pipeline import DiarizeConfig, cluster, segment_embeddings

# Dev-tuned spectral settings for the synthetic corpus: the affinities are
# already clean, so the pre-threshold smoothing is disabled; everything
# else stays at its default.
TUNED_SPECTRAL = {"sigma": 0.0, "p_percentile": 95.0}


def child_env(**overrides: str) -> dict[str, str]:
    """This process's environment for a fresh interpreter, with PYTHONPATH
    pinned to the diarkit these tests import (a relative entry no longer
    resolves from another working directory)."""
    env = {**os.environ, **overrides}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(diarkit.__file__).resolve().parent.parent)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def run_python(code: str, **env_overrides: str) -> str:
    """stdout of `python -c code` in a fresh interpreter (see child_env)."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env=child_env(**env_overrides),
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def refinement_stages(embeddings, params: SpectralParams) -> list:
    """(stage name, matrix) for each stage spectral_cluster forms on the
    embeddings, in order, each matrix copied before the next stage
    overwrites it."""
    stages = []
    spectral_cluster(embeddings, params, observe=lambda name, m: stages.append((name, m.copy())))
    return stages


def prepare(scenario: SynthScenario):
    """Scenario -> (reference annotation, (segment matrix, intervals))."""
    reference, windows, regions = generate(scenario)
    return reference, segment_embeddings(windows, regions)


def _labels(segments, config: DiarizeConfig):
    result = cluster(segments[0], config)
    return result.labels, result.k


def labels_spectral(segments, **overrides):
    params = SpectralParams(seed=0, **{**TUNED_SPECTRAL, **overrides})
    return _labels(segments, DiarizeConfig(spectral=params))


def labels_kmeans_elbow(segments, seed: int = 0):
    return _labels(segments, DiarizeConfig("kmeans", spectral=SpectralParams(seed=seed)))


def labels_naive(segments, threshold: float = 0.5):
    return _labels(segments, DiarizeConfig("naive", threshold=threshold))


def score_total(reference, segments, labels, collar: float = 0.0):
    hypothesis = annotation_from_clusters(reference.recording_id, segments[1], labels)
    return der(reference, hypothesis, EvalOptions(collar=collar))
