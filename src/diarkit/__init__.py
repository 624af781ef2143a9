"""Speaker diarization downstream of a neural embedder.

Takes window-level speaker embeddings, aggregates them into segment
embeddings, clusters the segments (spectral with a refined affinity
matrix, spherical k-means with an elbow criterion, or a naive online
clusterer), and scores hypotheses against references with DER.
"""

from types import ModuleType as _ModuleType

from .aggregation import (
    Windows,
    aggregate,
    regions_from_windows,
    segmentize,
)
from .clustering import (
    DEFAULT_MAX_CLUSTERS,
    SpectralParams,
    estimate_k_elbow,
    kmeans,
    run_online,
    spectral_cluster,
    spectral_grid,
)
from .core import (
    Annotation,
    ClusteringResult,
    DegenerateAffinityError,
    InvalidInputError,
    NumericError,
    ParseError,
    Segment,
    SegmentEmbedding,
    TimeInterval,
    annotation_from_clusters,
)
from .io import (
    parse_rttm,
    parse_uem,
    read_embeddings_csv,
    read_regions_csv,
    write_embeddings_csv,
    write_pgm_heatmap,
    write_regions_csv,
    write_rttm,
)
from .metrics import (
    DerReport,
    EvalOptions,
    combine_reports,
    der,
    scoring_region,
)
from .synth import (
    SynthScenario,
    generate,
)

__version__ = "0.1.0"

# every name imported above, listed once
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
