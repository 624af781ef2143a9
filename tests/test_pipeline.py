import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import diarkit.clustering
import diarkit.pipeline
from diarkit import (
    ClusteringResult,
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
    spectral_cluster,
)
from diarkit.clustering import precluster, resegment
from diarkit.pipeline import (
    DiarizeConfig,
    cluster,
    diarize,
    diarize_grid,
    segment_embeddings,
    stack_segments,
)
from helpers import run_python


class TestDiarizeConfig:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(InvalidInputError):
            DiarizeConfig(algorithm="agglomerative")

    def test_threshold_checked_for_every_algorithm(self):
        with pytest.raises(InvalidInputError):
            DiarizeConfig(algorithm="spectral", threshold=1.5)

    # the open interval (-1, 1) that run_online checks, at the config too
    @pytest.mark.parametrize("threshold", [1.0, -1.0, math.nan])
    def test_naive_threshold_out_of_range_rejected(self, threshold):
        with pytest.raises(InvalidInputError, match=r"^threshold must lie in \(-1, 1\), got "):
            DiarizeConfig("naive", threshold=threshold)

    def test_naive_threshold_inside_range_accepted(self):
        for threshold in (-0.999, 0.0, 0.999):
            assert DiarizeConfig("naive", threshold=threshold).threshold == threshold


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

    # a SegmentEmbedding holds its vector as given: stacking is where it is checked
    @staticmethod
    def stacked(*vectors):
        return stack_segments([SegmentEmbedding(TimeInterval(i, i + 1.0), v)
                               for i, v in enumerate(vectors)])[0]

    def test_int_vectors_coerced_to_float(self):
        x = self.stacked([1, 2, 3], (4, 5, 6))
        assert x.dtype == np.float64
        assert x.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    @pytest.mark.parametrize(
        "vectors, message",
        [
            (([1.0, 0.0], [1.0, float("nan")]), "^embeddings contain non-finite entries$"),
            (([1.0, 0.0], [float("inf"), 0.0]), "^embeddings contain non-finite entries$"),
            ((3.0,), r"^expected an \(n, d\) embedding matrix, got shape \(1,\)$"),
            (([1.0, 0.0], 3.0), "share one dimension"),
            (([1.0, 0.0], [1.0]), "share one dimension"),
            (([1.0, 0.0], ["a", 0.0]), "of numbers"),
        ],
        ids=["nan", "inf", "scalar", "scalar_among_vectors", "ragged", "not_a_number"],
    )
    def test_bad_vectors_rejected(self, vectors, message):
        with pytest.raises(InvalidInputError, match=message):
            self.stacked(*vectors)


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
        # one run at k = 1, where every restart would land on the rows' normalized sum
        assert calls == 1 + diarkit.clustering._RESTARTS * (min(params.max_clusters, len(x)) - 1)
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
    def test_peak_memory_three_matrices(self, monkeypatch, n):
        # the shared blurred matrix beside the two that each stage holds, in
        # the one-stage grid
        monkeypatch.setattr(diarkit.pipeline, "TWO_STAGE_CAP", n)
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


def three_speakers(seed: int = 4):
    _, windows, regions = generate(SynthScenario(n_speakers=3, duration=120, seed=seed))
    return segment_embeddings(windows, regions)


@pytest.fixture
def two_stage(monkeypatch):
    """Two stages from 100 segments on, through 40 centroids: the path long
    recordings take, at a cost the tests can pay."""
    monkeypatch.setattr(diarkit.pipeline, "TWO_STAGE_CAP", 99)
    monkeypatch.setattr(diarkit.clustering, "PRECLUSTER_COUNT", 40)


def _stage_two_labels(x, params):
    """Each segment its centroid's stage-2 label, before the pass."""
    assignment, centroids = precluster(x, seed=params.seed)
    stage2 = spectral_cluster(centroids, replace(params, sigma=0.0)).clustering
    return stage2.labels[assignment]


class TestTwoStage:
    def test_up_to_the_cap_cluster_is_spectral_cluster(self, monkeypatch):
        x, _ = stack_segments(three_speakers())
        monkeypatch.setattr(diarkit.pipeline, "TWO_STAGE_CAP", len(x))
        params = SpectralParams(seed=2)
        got = cluster(x, DiarizeConfig(spectral=params))
        want = spectral_cluster(x, params).clustering
        assert got.k == want.k
        assert np.array_equal(got.labels, want.labels)

    @pytest.mark.usefixtures("two_stage")
    def test_above_the_cap_the_stages_compose(self):
        x, _ = stack_segments(three_speakers())
        params = SpectralParams(sigma=2.0, seed=3)
        got = cluster(x, DiarizeConfig(spectral=params))
        assignment, centroids = precluster(x, seed=3)
        assert len(centroids) == 40
        stage2 = spectral_cluster(centroids, SpectralParams(sigma=0.0, seed=3)).clustering
        want = resegment(x, ClusteringResult(stage2.labels[assignment]), min_clusters=2)
        assert got.k == want.k == 3
        assert np.array_equal(got.labels, want.labels)

    @pytest.mark.usefixtures("two_stage")
    def test_above_the_cap_the_speaker_bounds_hold(self):
        # stage 2 is forced to one cluster more than the three speakers, one of
        # them short; the pass would empty one of the four, and must not take k
        # below the bound
        _, windows, regions = generate(SynthScenario(n_speakers=3, duration=120,
                                                     scenario_kind="imbalanced", seed=5))
        x, _ = stack_segments(segment_embeddings(windows, regions))
        params = SpectralParams(min_clusters=4, max_clusters=4)
        unbounded = resegment(x, ClusteringResult(_stage_two_labels(x, params)))
        assert unbounded.k < 4
        assert cluster(x, DiarizeConfig(spectral=params)).k == 4

    @pytest.mark.usefixtures("two_stage")
    def test_grid_is_diarize_per_config(self):
        segs = three_speakers()
        sigmas = [0.0, 0.5, 1.0, 2.0]
        configs = [DiarizeConfig(spectral=SpectralParams(sigma=s)) for s in sigmas] + [
            DiarizeConfig(spectral=SpectralParams(p_percentile=90)),
            DiarizeConfig("naive", threshold=0.3),
            DiarizeConfig(spectral=SpectralParams(sigma=1.0, seed=5)),
            DiarizeConfig("kmeans"),
        ]
        got = [list(a) for a in diarize_grid("rec", segs, configs)]
        assert got == [list(diarize("rec", segs, c)) for c in configs]
        # sigma has no effect above the cap
        assert all(row == got[0] for row in got[: len(sigmas)])

    def test_stages_are_those_of_the_matrix_cluster_solves(self, monkeypatch):
        x, _ = stack_segments(three_speakers())

        def observed(config):
            stages = []
            cluster(x, config, lambda name, m: stages.append((name, m.copy())))
            return stages

        monkeypatch.setattr(diarkit.pipeline, "TWO_STAGE_CAP", len(x))
        stages = observed(DiarizeConfig())
        assert [name for name, _ in stages] == ["blur", "symmetrize", "diffuse", "refined"]
        assert {m.shape for _, m in stages} == {(len(x), len(x))}
        monkeypatch.setattr(diarkit.pipeline, "TWO_STAGE_CAP", len(x) - 1)
        monkeypatch.setattr(diarkit.clustering, "PRECLUSTER_COUNT", 40)
        solved = []
        eigh = diarkit.clustering.eigh

        def capture(m, *args, **kwargs):
            solved.append(np.array(m))
            return eigh(m, *args, **kwargs)

        monkeypatch.setattr(diarkit.clustering, "eigh", capture)
        *_, (name, m) = observed(DiarizeConfig(spectral=SpectralParams(sigma=1.0)))
        assert name == "refined"
        (want,) = solved
        assert m.shape == (40, 40)
        assert np.array_equal(m, want)

    def test_only_spectral_clustering_calls_the_observer(self):
        x, _ = stack_segments(three_speakers())
        calls = []
        for config in (DiarizeConfig("kmeans"), DiarizeConfig("naive", threshold=0.3)):
            cluster(x, config, lambda name, m: calls.append(name))
        assert calls == []

    def test_no_n_by_n_matrix_above_the_cap(self):
        # 3000 segments: one n x n float64 matrix would be 72 MB
        n = 3000
        rng = np.random.default_rng(1)
        centers = rng.standard_normal((4, 16))
        x = centers[np.arange(n) * 4 // n] + 0.6 * rng.standard_normal((n, 16))
        assert n > diarkit.pipeline.TWO_STAGE_CAP
        tracemalloc.start()
        try:
            result = cluster(x, DiarizeConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.k == 4
        assert peak <= 0.1 * 8 * n * n


# Two-stage labels of a 5-minute, 4-speaker synth (n = 692) with the cap
# below n, printed as JSON.
TWO_STAGE_IN_CHILD = """
import json
import diarkit.pipeline as pipeline
from diarkit import SynthScenario, generate
_, windows, regions = generate(SynthScenario(n_speakers=4, duration=300.0, seed=11))
x = pipeline.stack_segments(pipeline.segment_embeddings(windows, regions))[0]
pipeline.TWO_STAGE_CAP = 600
result = pipeline.cluster(x, pipeline.DiarizeConfig())
print(json.dumps({"n": len(x), "k": result.k, "labels": result.labels.tolist()}))
"""


def test_two_stage_labels_do_not_depend_on_blas_threads():
    # as test_speaker_count_does_not_depend_on_blas_threads below the cap
    one, two = (
        json.loads(run_python(TWO_STAGE_IN_CHILD, OPENBLAS_NUM_THREADS=threads))
        for threads in ("1", "2")
    )
    assert one["n"] == two["n"] == 692
    assert one["k"] == two["k"] == 4
    assert one["labels"] == two["labels"]
