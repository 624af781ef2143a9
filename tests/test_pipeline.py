import tracemalloc

import numpy as np
import pytest

import diarkit.clustering
import diarkit.pipeline
from diarkit import (
    InvalidInputError,
    SegmentEmbedding,
    SpectralParams,
    SynthScenario,
    TimeInterval,
    aggregate,
    generate,
    kmeans,
    regions_from_windows,
    segmentize,
)
from diarkit.pipeline import (
    DiarizeConfig,
    cluster,
    diarize,
    diarize_grid,
    segment_embeddings,
    stack_segments,
)


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


class TestStackSegments:
    def test_matrix_and_intervals_in_order(self):
        _, windows, regions = generate(SynthScenario(n_speakers=2, duration=20, seed=3))
        segs = segment_embeddings(windows, regions)
        x, intervals = stack_segments(segs)
        assert x.tobytes() == np.stack([se.embedding for se in segs]).tobytes()
        assert intervals == [se.interval for se in segs]

    def test_no_segments_rejected(self):
        with pytest.raises(InvalidInputError, match="no embeddings given"):
            stack_segments([])


class TestCluster:
    def test_kmeans_respects_speaker_bounds(self):
        x = np.array([[1.0, 0.0]] * 10 + [[-1.0, 0.0]] * 10)
        params = SpectralParams(min_clusters=3, max_clusters=5)
        result = cluster(x, DiarizeConfig("kmeans", spectral=params))
        assert 3 <= result.k <= 5

    @pytest.mark.parametrize("kind", ["separated", "imbalanced", "hierarchical"])
    def test_kmeans_clusters_each_k_once(self, monkeypatch, kind):
        # the elbow search's own run at its k is the answer: no second kmeans
        _, windows, regions = generate(
            SynthScenario(n_speakers=4, duration=30, scenario_kind=kind, seed=11)
        )
        x, _ = stack_segments(segment_embeddings(windows, regions))
        calls = 0
        lloyd = diarkit.clustering._lloyd

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return lloyd(*args, **kwargs)

        monkeypatch.setattr(diarkit.clustering, "_lloyd", counted)
        params = SpectralParams(seed=2)
        result = cluster(x, DiarizeConfig("kmeans", spectral=params))
        assert calls == diarkit.clustering._RESTARTS * min(params.max_clusters, len(x))
        # the two-step path: the elbow's k, then kmeans at that k
        expected = kmeans(x, result.k, seed=params.seed)
        assert np.array_equal(result.labels, expected.labels)


class TestDiarizeGrid:
    def test_same_hypotheses_as_diarize(self):
        _, windows, regions = generate(SynthScenario(n_speakers=3, duration=60, seed=4))
        segs = segment_embeddings(windows, regions)
        configs = [
            DiarizeConfig(spectral=SpectralParams(sigma=1.0, p_percentile=90)),
            DiarizeConfig("naive", threshold=0.3),
            DiarizeConfig(spectral=SpectralParams(sigma=0.5, p_percentile=95)),
            DiarizeConfig(spectral=SpectralParams(sigma=1.0, p_percentile=95)),
            DiarizeConfig("kmeans"),
        ]
        got = diarize_grid("rec", segs, configs)
        assert [list(a) for a in got] == [list(diarize("rec", segs, c)) for c in configs]

    def test_segments_stacked_once(self, monkeypatch):
        _, windows, regions = generate(SynthScenario(n_speakers=3, duration=30, seed=4))
        segs = segment_embeddings(windows, regions)
        configs = [
            DiarizeConfig(spectral=SpectralParams(sigma=1.0)),
            DiarizeConfig("kmeans"),
            DiarizeConfig("naive", threshold=0.3),
            DiarizeConfig(spectral=SpectralParams(sigma=0.5)),
            DiarizeConfig("kmeans", spectral=SpectralParams(seed=1)),
        ]
        expected = [list(diarize("rec", segs, c)) for c in configs]
        stacked = []
        stack = diarkit.pipeline.stack_segments

        def counted(seg_embs):
            stacked.append(len(seg_embs))
            return stack(seg_embs)

        monkeypatch.setattr(diarkit.pipeline, "stack_segments", counted)
        got = diarize_grid("rec", segs, configs)
        assert stacked == [len(segs)]
        assert [list(a) for a in got] == expected

    def test_errors_as_in_diarize(self):
        segs = [SegmentEmbedding(TimeInterval(0.0, 0.4), np.array([1.0, 0.0]))]
        with pytest.raises(InvalidInputError, match="at least 2 segments"):
            diarize_grid("rec", segs, [DiarizeConfig()])
        assert diarize_grid("rec", segs, []) == []

    @pytest.mark.parametrize("n", [1000, 1500])
    def test_peak_memory_three_matrices(self, n):
        # the shared blurred matrix beside the two that each stage holds
        rng = np.random.default_rng(0)
        centers = rng.standard_normal((4, 16))
        x = centers[np.arange(n) * 4 // n] + 0.6 * rng.standard_normal((n, 16))
        segs = [SegmentEmbedding(TimeInterval(0.4 * i, 0.4 * (i + 1)), v) for i, v in enumerate(x)]
        configs = [DiarizeConfig(spectral=SpectralParams(p_percentile=p)) for p in (90, 95, 98)]
        tracemalloc.start()
        try:
            hypotheses = diarize_grid("rec", segs, configs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(a.labels()) for a in hypotheses] == [4, 4, 4]
        assert peak <= 3.1 * 8 * n * n
