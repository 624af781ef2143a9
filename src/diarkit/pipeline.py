"""The diarize path, wired once: windows -> segments -> clusters -> hypothesis.

The CLI's diarize and sweep subcommands and library callers go through
these functions; nothing else chains the stages. `segment_embeddings`
returns the (n, d) matrix the clusterers take and the n intervals their
labels belong to. `diarize_grid` runs many configs on one recording,
building its affinity and blur once per sigma below the cap (through
`spectral_grid`). This module alone decides when spectral clustering runs
in two stages (more than TWO_STAGE_CAP segments; see `cluster`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import DEFAULT_MAX_SEGMENT_LEN, aggregate, regions_from_windows, segmentize
from .clustering import (
    SpectralParams,
    check_threshold,
    estimate_k_elbow,
    run_online,
    spectral_cluster,
    spectral_grid,
    two_stage_cluster,
)
from .core import Annotation, ClusteringResult, InvalidInputError, annotation_from_clusters

ALGORITHMS = ("spectral", "kmeans", "naive")
# Spectral clustering of more segments than this runs in two stages: the
# smallest n of a 1000-2500 grid at which two stages were faster on every
# held-out recording of all three scenario kinds (README, "Spectral clustering").
# It exceeds clustering.PRECLUSTER_COUNT, the rows stage 2 clusters.
TWO_STAGE_CAP = 1250


@dataclass(frozen=True)
class DiarizeConfig:
    """Settings of one diarize run, with the CLI's defaults.

    `spectral` also gives k-means its speaker-count bounds and its seed;
    `threshold` is the naive online clusterer's.
    """

    algorithm: str = "spectral"
    spectral: SpectralParams = SpectralParams()
    threshold: float = 0.5

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise InvalidInputError(f"unknown algorithm {self.algorithm!r}")
        check_threshold(self.threshold)


def segment_embeddings(windows, regions, max_len: float = DEFAULT_MAX_SEGMENT_LEN):
    """Cut the speech regions (if None, the union of the windows) into segments
    of at most max_len seconds and average the window vectors inside each:
    (x, intervals), the (n, d) float64 matrix of the segment means and their n
    sorted, disjoint intervals, row i of x belonging to intervals[i]."""
    if regions is None:
        regions = regions_from_windows(windows)
    seg_embs = aggregate(windows, segmentize(regions, max_len))
    return np.stack([se.embedding for se in seg_embs]), [se.interval for se in seg_embs]


def _one_stage(x) -> bool:
    """Whether spectral clustering of x runs in one stage: at most TWO_STAGE_CAP
    rows, or no rows at all, which spectral_cluster's check then refuses."""
    try:
        return len(x) <= TWO_STAGE_CAP
    except TypeError:  # a scalar or None
        return True


def cluster(x, config: DiarizeConfig, observe=None) -> ClusteringResult:
    """Cluster the rows of an (n, d) segment matrix with the configured algorithm.

    Spectral clustering of more than TWO_STAGE_CAP rows is
    `two_stage_cluster`: a pre-clustering to a few hundred centroids,
    spectral clustering of those at sigma 0, and a resegmentation pass over
    the rows. Up to the cap it is `spectral_cluster` alone. `observe` goes
    to the one `spectral_cluster` call, so above the cap it sees stage 2's
    chain; the other algorithms never call it.
    """
    params = config.spectral
    if config.algorithm == "spectral":
        if _one_stage(x):
            return spectral_cluster(x, params, observe).clustering
        return two_stage_cluster(x, params, observe)
    if config.algorithm == "naive":
        return run_online(x, config.threshold)
    return estimate_k_elbow(x, params.max_clusters, min_clusters=params.min_clusters,
                            seed=params.seed)


def diarize(recording_id: str, segments, config: DiarizeConfig = DiarizeConfig(),
            observe=None) -> Annotation:
    """One recording's (x, intervals) pair from segment_embeddings to its
    hypothesis; `observe` sees the refinement stages, as in `cluster`."""
    x, intervals = segments
    return annotation_from_clusters(recording_id, intervals, cluster(x, config, observe).labels)


def diarize_grid(recording_id: str, segments, configs) -> list[Annotation]:
    """`diarize` of the (x, intervals) pair under each config, in order. Up
    to TWO_STAGE_CAP segments, the spectral configs go to one `spectral_grid`
    call, which builds one blurred affinity per sigma. Above the cap, and for
    other algorithms, each config runs as in `diarize`."""
    x, intervals = segments
    shared = [i for i, c in enumerate(configs) if c.algorithm == "spectral" and _one_stage(x)]
    results = spectral_grid(x, [configs[i].spectral for i in shared])
    labels = {i: result.clustering.labels for i, result in zip(shared, results)}
    return [annotation_from_clusters(recording_id, intervals,
                                     labels[i] if i in labels else cluster(x, c).labels)
            for i, c in enumerate(configs)]
