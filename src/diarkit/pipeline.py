"""The diarize path, wired once: windows -> segments -> clusters -> hypothesis.

The CLI's diarize and sweep subcommands and library callers go through
these functions; nothing else chains the stages. `stack_segments` is the one
place segments become the matrix the clusterers take and their intervals.
`diarize_grid` runs many configs on one recording, building its affinity and
blur once per sigma below the cap (through `spectral_grid`). This module
alone decides when spectral clustering runs in two stages (more than
TWO_STAGE_CAP segments; see `cluster`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import DEFAULT_MAX_SEGMENT_LEN, aggregate, regions_from_windows, segmentize
from .clustering import (
    SpectralParams,
    check_threshold,
    embedding_matrix,
    estimate_k_elbow,
    kmeans,
    run_online,
    spectral_cluster,
    spectral_grid,
    two_stage_cluster,
)
from .core import (Annotation, ClusteringResult, InvalidInputError, TimeInterval,
                   annotation_from_clusters)

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
    of at most max_len seconds and average the window vectors inside each."""
    if regions is None:
        regions = regions_from_windows(windows)
    return aggregate(windows, segmentize(regions, max_len))


def stack_segments(seg_embs) -> tuple[np.ndarray, list[TimeInterval]]:
    """segment_embeddings' output as the (n, d) matrix the clusterers take and
    the n intervals their labels belong to. The vectors are checked here,
    by embedding_matrix: ragged, non-numeric or non-finite ones are refused."""
    return embedding_matrix([se.embedding for se in seg_embs]), [se.interval for se in seg_embs]


def cluster(x, config: DiarizeConfig, observe=None) -> ClusteringResult:
    """Cluster the rows of an (n, d) segment matrix with the configured algorithm.

    Spectral clustering of more than TWO_STAGE_CAP rows is
    `two_stage_cluster`: a pre-clustering to a few hundred centroids,
    spectral clustering of those at sigma 0, and a resegmentation pass over
    the rows. Up to the cap it is `spectral_cluster` alone. `observe` goes
    to the one `spectral_cluster` call, so above the cap it sees stage 2's
    chain; the other algorithms never call it.

    k-means clamps the speaker bounds to n, as spectral clustering does. When
    that leaves only k = 1 it returns one cluster, otherwise the elbow search's
    own clustering at its k in [max(2, min_clusters), max_clusters].
    """
    params = config.spectral
    if config.algorithm == "spectral":
        if len(x) <= TWO_STAGE_CAP:
            return spectral_cluster(x, params, observe).clustering
        return two_stage_cluster(x, params, observe)
    if config.algorithm == "naive":
        return run_online(x, config.threshold)
    n = len(x)
    min_c, max_c = min(params.min_clusters, n), min(params.max_clusters, n)
    if max_c == 1:
        return kmeans(x, 1, seed=params.seed)
    return estimate_k_elbow(x, max_c, min_clusters=min_c, seed=params.seed)


def diarize(recording_id: str, seg_embs, config: DiarizeConfig = DiarizeConfig(),
            observe=None) -> Annotation:
    """One recording's segment embeddings (from segment_embeddings) to its
    hypothesis; `observe` sees the refinement stages, as in `cluster`."""
    x, intervals = stack_segments(seg_embs)
    return annotation_from_clusters(recording_id, intervals, cluster(x, config, observe).labels)


def diarize_grid(recording_id: str, seg_embs, configs) -> list[Annotation]:
    """`diarize` under each config, in order. The segments are stacked once;
    up to TWO_STAGE_CAP segments, the spectral configs go to one
    `spectral_grid` call, which builds one blurred affinity per sigma. Above
    the cap, and for other algorithms, each config runs as in `diarize`."""
    x, intervals = stack_segments(seg_embs)
    shared = [i for i, c in enumerate(configs)
              if c.algorithm == "spectral" and len(x) <= TWO_STAGE_CAP]
    results = spectral_grid(x, [configs[i].spectral for i in shared])
    labels = {i: result.clustering.labels for i, result in zip(shared, results)}
    return [annotation_from_clusters(recording_id, intervals,
                                     labels[i] if i in labels else cluster(x, c).labels)
            for i, c in enumerate(configs)]
