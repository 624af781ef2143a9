"""The names the `diarkit` package exports. Everything else is imported from
its module; a new export is a deliberate edit of this list."""

import diarkit

EXPORTS = [
    "Annotation",
    "ClusteringResult",
    "DEFAULT_MAX_CLUSTERS",
    "DegenerateAffinityError",
    "DerReport",
    "EvalOptions",
    "InvalidInputError",
    "NumericError",
    "ParseError",
    "Segment",
    "SegmentEmbedding",
    "SpectralParams",
    "SpectralResult",
    "SynthScenario",
    "TimeInterval",
    "Windows",
    "aggregate",
    "annotation_from_clusters",
    "combine_reports",
    "der",
    "estimate_k_elbow",
    "generate",
    "kmeans",
    "parse_rttm",
    "parse_uem",
    "read_embeddings_csv",
    "read_regions_csv",
    "regions_from_windows",
    "run_online",
    "scoring_region",
    "segmentize",
    "spectral_cluster",
    "spectral_grid",
    "write_embeddings_csv",
    "write_pgm_heatmap",
    "write_regions_csv",
    "write_rttm",
]


def test_exports_are_the_listed_names():
    assert EXPORTS == sorted(EXPORTS)
    assert diarkit.__all__ == EXPORTS
