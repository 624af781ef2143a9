import numpy as np
import pytest

from diarkit import (
    InvalidInputError,
    SpectralParams,
    SynthScenario,
    aggregate,
    generate,
    regions_from_windows,
    segmentize,
)
from diarkit.pipeline import DiarizeConfig, cluster, segment_embeddings


class TestDiarizeConfig:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(InvalidInputError):
            DiarizeConfig(algorithm="agglomerative")

    def test_threshold_checked_for_every_algorithm(self):
        with pytest.raises(InvalidInputError):
            DiarizeConfig(algorithm="spectral", threshold=1.5)


class TestSegmentEmbeddings:
    def test_default_regions_are_the_window_union(self):
        _, windows, _ = generate(SynthScenario(n_speakers=2, duration=20, seed=3))
        expected = aggregate(windows, segmentize(regions_from_windows(windows), 0.3))
        got = segment_embeddings(windows, None, 0.3)
        assert [se.interval for se in got] == [se.interval for se in expected]
        assert all(np.array_equal(a.embedding, b.embedding) for a, b in zip(got, expected))


class TestCluster:
    def test_kmeans_respects_speaker_bounds(self):
        x = np.array([[1.0, 0.0]] * 10 + [[-1.0, 0.0]] * 10)
        params = SpectralParams(min_clusters=3, max_clusters=5)
        result = cluster(x, DiarizeConfig("kmeans", spectral=params))
        assert 3 <= result.k <= 5
