"""The diarize path, wired once: windows -> segments -> clusters -> hypothesis.

The CLI's diarize and sweep subcommands and library callers go through
these functions; nothing else chains the stages. `stack_segments` is the one
place segments become the matrix the clusterers take and their intervals.
`diarize_grid` runs many configs on one recording, building its affinity and
blur once per sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregation import DEFAULT_MAX_SEGMENT_LEN, aggregate, regions_from_windows, segmentize
from .clustering import (
    NaiveOnlineClusterer,
    SpectralParams,
    blurred_affinity,
    cluster_blurred,
    embedding_matrix,
    estimate_k_elbow,
    kmeans,
    run_online,
    spectral_cluster,
)
from .core import (Annotation, ClusteringResult, InvalidInputError, TimeInterval,
                   annotation_from_clusters)

ALGORITHMS = ("spectral", "kmeans", "naive")


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
        NaiveOnlineClusterer(self.threshold)  # validates the threshold


def segment_embeddings(windows, regions, max_len: float = DEFAULT_MAX_SEGMENT_LEN):
    """Cut the speech regions (if None, the union of the windows) into segments
    of at most max_len seconds and average the window vectors inside each."""
    if regions is None:
        regions = regions_from_windows(windows)
    return aggregate(windows, segmentize(regions, max_len))


def stack_segments(seg_embs) -> tuple[np.ndarray, list[TimeInterval]]:
    """segment_embeddings' output as the (n, d) matrix the clusterers take and
    the n intervals their labels belong to."""
    return embedding_matrix([se.embedding for se in seg_embs]), [se.interval for se in seg_embs]


def cluster(x, config: DiarizeConfig) -> ClusteringResult:
    """Cluster the rows of an (n, d) segment matrix with the configured algorithm.

    k-means clamps the speaker bounds to n, as spectral clustering does. When
    that leaves only k = 1 it returns one cluster, otherwise the elbow search's
    own clustering at its k in [max(2, min_clusters), max_clusters].
    """
    params = config.spectral
    if config.algorithm == "spectral":
        return spectral_cluster(x, params).clustering
    if config.algorithm == "naive":
        return run_online(NaiveOnlineClusterer(config.threshold), x)
    n = len(x)
    min_c, max_c = min(params.min_clusters, n), min(params.max_clusters, n)
    if max_c == 1:
        return kmeans(x, 1, seed=params.seed)
    return estimate_k_elbow(x, max_c, min_clusters=min_c, seed=params.seed)


def diarize(recording_id: str, seg_embs, config: DiarizeConfig = DiarizeConfig()) -> Annotation:
    """One recording's segment embeddings (from segment_embeddings) to its hypothesis."""
    x, intervals = stack_segments(seg_embs)
    return annotation_from_clusters(recording_id, intervals, cluster(x, config).labels)


def diarize_grid(recording_id: str, seg_embs, configs) -> list[Annotation]:
    """`diarize` under each config, in order. The segments are stacked once;
    spectral configs share one blurred affinity per sigma, which cluster_blurred
    copies for each, and only the current sigma's is held: two n x n matrices
    at a time. Other algorithms run as in `diarize`."""
    x, intervals = stack_segments(seg_embs)
    labels = {i: cluster(x, c).labels for i, c in enumerate(configs) if c.algorithm != "spectral"}
    spectral = [i for i, c in enumerate(configs) if c.algorithm == "spectral"]
    for sigma in dict.fromkeys(configs[i].spectral.sigma for i in spectral):
        blurred = blurred_affinity(x, sigma)
        for i in spectral:
            if configs[i].spectral.sigma == sigma:
                labels[i] = cluster_blurred(blurred, configs[i].spectral).clustering.labels
        del blurred  # before the next sigma's matrix is built
    return [annotation_from_clusters(recording_id, intervals, labels[i])
            for i in range(len(configs))]
