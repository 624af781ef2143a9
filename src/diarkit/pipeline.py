"""The diarize path, wired once: windows -> segments -> clusters -> hypothesis.

The CLI's diarize and sweep subcommands and library callers go through
these functions; nothing else chains the stages. `diarize_grid` runs many
configs on one recording, building its affinity and blur once per sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

from .aggregation import DEFAULT_MAX_SEGMENT_LEN, aggregate, regions_from_windows, segmentize
from .clustering import (
    KMeansParams,
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
from .core import Annotation, ClusteringResult, InvalidInputError, annotation_from_clusters

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


def cluster(seg_embs, config: DiarizeConfig) -> ClusteringResult:
    """Cluster segment embeddings with the configured algorithm.

    k-means takes k = 1 for a single segment, otherwise the elbow k over
    [min_clusters, min(max_clusters, n)].
    """
    params = config.spectral
    if config.algorithm == "spectral":
        return spectral_cluster(seg_embs, params).clustering
    if config.algorithm == "naive":
        return run_online(NaiveOnlineClusterer(config.threshold), seg_embs)
    n = len(seg_embs)
    k = 1 if n == 1 else estimate_k_elbow(
        seg_embs, min(params.max_clusters, n), KMeansParams(seed=params.seed),
        min_clusters=params.min_clusters,
    )
    return kmeans(seg_embs, KMeansParams(k=k, seed=params.seed))


def diarize(recording_id: str, seg_embs, config: DiarizeConfig = DiarizeConfig()) -> Annotation:
    """One recording's segment embeddings (from segment_embeddings) to its hypothesis."""
    labels = cluster(seg_embs, config).labels
    return annotation_from_clusters(recording_id, [se.interval for se in seg_embs], labels)


def diarize_grid(recording_id: str, seg_embs, configs) -> list[Annotation]:
    """`diarize` under each config, in order. The segment matrix is stacked once;
    spectral configs share one blurred affinity per sigma (their thresholds copy
    it), and only the current sigma's is held. Other algorithms run as in `diarize`."""
    labels = {i: cluster(seg_embs, c).labels
              for i, c in enumerate(configs) if c.algorithm != "spectral"}
    spectral = [i for i, c in enumerate(configs) if c.algorithm == "spectral"]
    x = embedding_matrix(seg_embs) if spectral else None
    for sigma in dict.fromkeys(configs[i].spectral.sigma for i in spectral):
        blurred = blurred_affinity(x, sigma)
        for i in spectral:
            if configs[i].spectral.sigma == sigma:
                labels[i] = cluster_blurred(blurred, configs[i].spectral).clustering.labels
        del blurred  # before the next sigma's matrix is built
    intervals = [se.interval for se in seg_embs]
    return [annotation_from_clusters(recording_id, intervals, labels[i])
            for i in range(len(configs))]
