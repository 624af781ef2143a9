import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diarkit.clustering
import diarkit.pipeline
from diarkit import (
    ClusteringResult,
    InvalidInputError,
    SpectralParams,
    SynthScenario,
    TimeInterval,
    Windows,
    aggregate,
    generate,
    kmeans,
    regions_from_windows,
    segmentize,
    spectral_cluster,
)
from diarkit.clustering import (PRECLUSTER_ITERS, _TOL, _lloyd, _resegment, blurred_affinity,
                                spectral_grid, two_stage_cluster)
from diarkit.numerics import eigh, l2_normalize_rows
from diarkit.pipeline import (
    ALGORITHMS,
    DiarizeConfig,
    cluster,
    diarize,
    diarize_grid,
    segment_embeddings,
)
from helpers import capture_solves, run_python


# Times on a 1/8 s grid, so window centers (on the 1/16 grid) land on
# segment bounds; no component is near zero, so no window vector is.
GRID = 8.0
COMPONENTS = st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def windows_and_regions(draw):
    """Windows sorted by start, and sorted disjoint regions (touching or not)
    over the same span."""
    dim = draw(st.integers(1, 4))
    rows = sorted(draw(st.lists(
        st.tuples(st.integers(0, 40), st.integers(1, 8),
                  st.lists(COMPONENTS, min_size=dim, max_size=dim)),
        min_size=1, max_size=30,
    )), key=lambda row: row[0])
    windows = Windows([s / GRID for s, _, _ in rows],
                      [(s + length) / GRID for s, length, _ in rows],
                      [vector for _, _, vector in rows])
    bounds = sorted(draw(st.lists(st.integers(0, 50), min_size=2, max_size=12, unique=True)))
    pairs = list(zip(bounds, bounds[1:]))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    regions = [TimeInterval(a / GRID, b / GRID) for (a, b), k in zip(pairs, keep) if k]
    return windows, regions


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

    @pytest.mark.parametrize("threshold", ["0.5", None], ids=["string", "none"])
    def test_threshold_refuses_non_numbers(self, threshold):
        # for the config and for run_online, which both go through check_threshold
        message = f"^threshold must be a real number, got {threshold!r}$"
        with pytest.raises(InvalidInputError, match=message):
            DiarizeConfig("naive", threshold=threshold)
        with pytest.raises(InvalidInputError, match=message):
            diarkit.clustering.run_online(np.eye(2), threshold)

    def test_threshold_takes_numpy_floats(self):
        segments = three_speakers()
        hypotheses = [list(diarize("rec", segments, DiarizeConfig("naive", threshold=t)))
                      for t in (np.float32(0.5), 0.5)]
        assert hypotheses[0] == hypotheses[1]
        messages = []
        for threshold in (np.float32(1.0), 1.0):
            with pytest.raises(InvalidInputError) as info:
                DiarizeConfig("naive", threshold=threshold)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


class TestSegmentEmbeddings:
    def test_default_regions_are_the_window_union(self):
        _, windows, _ = generate(SynthScenario(n_speakers=2, duration=20, seed=3))
        expected = aggregate(windows, segmentize(regions_from_windows(windows), 0.3))
        x, intervals = segment_embeddings(windows, None, 0.3)
        assert intervals == [se.interval for se in expected]
        assert x.tobytes() == np.stack([se.embedding for se in expected]).tobytes()

    def test_matrix_and_intervals_in_order(self):
        _, windows, regions = generate(SynthScenario(n_speakers=2, duration=20, seed=3))
        expected = aggregate(windows, segmentize(regions, 0.4))
        x, intervals = segment_embeddings(windows, regions)
        assert x.dtype == np.float64 and x.flags.c_contiguous
        assert x.shape == (len(expected), windows.vectors.shape[1])
        assert x.tobytes() == np.stack([se.embedding for se in expected]).tobytes()
        assert intervals == [se.interval for se in expected]

    @settings(deadline=None)
    @given(windows_and_regions(), st.booleans(), st.floats(0.05, 2.0))
    def test_rows_are_the_means_of_their_windows(self, case, union, max_len):
        windows, regions = case
        regions = regions_from_windows(windows) if union else regions
        pieces = segmentize(regions, max_len)
        # a plain loop: the unit vectors of the windows centered in each piece
        centers = [(s + e) / 2 for s, e in zip(windows.starts, windows.ends)]
        units = [v / np.linalg.norm(v) for v in windows.vectors]
        means = {}
        for piece in pieces:
            inside = [u for c, u in zip(centers, units) if piece.start <= c < piece.end]
            if inside:
                means[piece] = sum(inside[1:], inside[0]) / len(inside)
        if not means:
            message = "every segment was empty" if pieces else "no segments to aggregate into"
            with pytest.raises(InvalidInputError, match=message):
                segment_embeddings(windows, None if union else regions, max_len)
            return
        x, intervals = segment_embeddings(windows, None if union else regions, max_len)
        expected = aggregate(windows, pieces)
        assert x.tobytes() == np.stack([se.embedding for se in expected]).tobytes()
        assert intervals == list(means)
        assert x.shape == (len(intervals), windows.vectors.shape[1])
        assert all(a.end <= b.start for a, b in zip(intervals, intervals[1:]))
        for row, interval in zip(x, intervals):
            assert np.max(np.abs(row - means[interval])) <= 1e-12


class TestDiarizeChecksTheMatrix:
    """segment_embeddings hands over aggregate's means as they are: each
    clusterer's embedding_matrix checks the matrix where it enters
    clustering, for `cluster` and `diarize` alike."""

    @staticmethod
    def diarized(vectors, algorithm):
        intervals = [TimeInterval(i, i + 1.0) for i in range(len(vectors))]
        return diarize("rec", (list(vectors), intervals), DiarizeConfig(algorithm))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_int_vectors_coerced_to_float(self, algorithm):
        ints = np.eye(3, dtype=int)[[0, 0, 1, 1, 2, 2]].tolist()
        floats = np.array(ints, dtype=np.float64)
        assert list(self.diarized(ints, algorithm)) == list(self.diarized(floats, algorithm))

    @pytest.mark.parametrize("algorithm", ["kmeans", "naive"])
    def test_no_segments_rejected(self, algorithm):
        with pytest.raises(InvalidInputError, match="^no embeddings given$"):
            self.diarized([], algorithm)
        with pytest.raises(InvalidInputError, match="^no embeddings given$"):
            cluster([], DiarizeConfig(algorithm))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize(
        "vectors, message",
        [
            (([1.0, 0.0], [1.0, float("nan")]), "^embeddings contain non-finite entries$"),
            (([1.0, 0.0], [float("inf"), 0.0]), "^embeddings contain non-finite entries$"),
            (([1.0, 0.0], 3.0), "share one dimension"),
            (([1.0, 0.0], [1.0]), "share one dimension"),
            (([1.0, 0.0], ["a", 0.0]), "of numbers"),
        ],
        ids=["nan", "inf", "scalar_among_vectors", "ragged", "not_a_number"],
    )
    def test_bad_vectors_rejected(self, algorithm, vectors, message):
        with pytest.raises(InvalidInputError, match=message):
            self.diarized(vectors, algorithm)
        with pytest.raises(InvalidInputError, match=message):
            cluster(list(vectors), DiarizeConfig(algorithm))

    @pytest.mark.parametrize("given", [3.0, None], ids=["scalar", "none"])
    @pytest.mark.parametrize("call", [
        lambda x: cluster(x, DiarizeConfig()),
        lambda x: diarize_grid("rec", (x, []), [DiarizeConfig()]),
        lambda x: spectral_cluster(x, SpectralParams()),
        lambda x: spectral_grid(x, [SpectralParams()]),
        lambda x: blurred_affinity(x, 1.0),
        lambda x: two_stage_cluster(x, SpectralParams()),
        lambda x: cluster(x, DiarizeConfig("kmeans")),
        lambda x: cluster(x, DiarizeConfig("naive")),
    ], ids=["cluster", "diarize_grid", "spectral_cluster", "spectral_grid", "blurred_affinity",
            "two_stage_cluster", "kmeans", "naive"])
    def test_no_rows_rejected(self, call, given):
        # every entry point checks its input before it reads a row count
        message = r"^expected an \(n, d\) embedding matrix, got shape \(\)$"
        with pytest.raises(InvalidInputError, match=message):
            call(given)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_scalar_rejected(self, algorithm):
        # a row of scalars is refused before spectral clustering counts its segments
        message = r"^expected an \(n, d\) embedding matrix, got shape \(1,\)$"
        with pytest.raises(InvalidInputError, match=message):
            self.diarized([3.0], algorithm)


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
        x, _ = segment_embeddings(windows, regions)
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
        segments = segment_embeddings(windows, regions)
        configs = [
            DiarizeConfig(spectral=SpectralParams(sigma=1.0, p_percentile=90)),
            DiarizeConfig("naive", threshold=0.3),
            DiarizeConfig(spectral=SpectralParams(sigma=0.5, p_percentile=95)),
            DiarizeConfig(spectral=SpectralParams(sigma=1.0, p_percentile=95)),
            DiarizeConfig("kmeans"),
        ]
        got = diarize_grid("rec", segments, configs)
        assert [list(a) for a in got] == [list(diarize("rec", segments, c)) for c in configs]

    def test_every_config_clusters_the_callers_matrix(self, monkeypatch):
        _, windows, regions = generate(SynthScenario(n_speakers=3, duration=30, seed=4))
        segments = segment_embeddings(windows, regions)
        configs = [
            DiarizeConfig(spectral=SpectralParams(sigma=1.0)),
            DiarizeConfig("kmeans"),
            DiarizeConfig("naive", threshold=0.3),
            DiarizeConfig(spectral=SpectralParams(sigma=0.5)),
            DiarizeConfig("kmeans", spectral=SpectralParams(seed=1)),
        ]
        expected = [list(diarize("rec", segments, c)) for c in configs]
        received = []
        for name in ("cluster", "spectral_grid"):
            def recorded(x, *args, real=getattr(diarkit.pipeline, name)):
                received.append(x)
                return real(x, *args)

            monkeypatch.setattr(diarkit.pipeline, name, recorded)
        got = diarize_grid("rec", segments, configs)
        # one spectral_grid call for both spectral configs, one cluster call for each other
        assert len(received) == 4
        assert all(x is segments[0] for x in received)
        assert [list(a) for a in got] == expected

    def test_errors_as_in_diarize(self):
        segments = (np.array([[1.0, 0.0]]), [TimeInterval(0.0, 0.4)])
        with pytest.raises(InvalidInputError, match="at least 2 segments"):
            diarize_grid("rec", segments, [DiarizeConfig()])
        assert diarize_grid("rec", segments, []) == []

    @pytest.mark.parametrize("n", [1000, 1500])
    def test_peak_memory_three_matrices(self, monkeypatch, n):
        # the shared blurred matrix beside the two that each stage holds, in
        # the one-stage grid
        monkeypatch.setattr(diarkit.pipeline, "TWO_STAGE_CAP", n)
        rng = np.random.default_rng(0)
        centers = rng.standard_normal((4, 16))
        x = centers[np.arange(n) * 4 // n] + 0.6 * rng.standard_normal((n, 16))
        intervals = [TimeInterval(0.4 * i, 0.4 * (i + 1)) for i in range(n)]
        configs = [DiarizeConfig(spectral=SpectralParams(p_percentile=p)) for p in (90, 95, 98)]
        tracemalloc.start()
        try:
            hypotheses = diarize_grid("rec", (x, intervals), configs)
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


def _precluster(x, seed):
    """Stage 1: each row's centroid and the unit centroids of one seeded
    _lloyd run on the unit rows, as many as the fixture's PRECLUSTER_COUNT."""
    return _lloyd(l2_normalize_rows(x), diarkit.clustering.PRECLUSTER_COUNT,
                  np.random.default_rng(seed), PRECLUSTER_ITERS, _TOL)[:2]


def _stage_two_labels(x, params):
    """Each segment its centroid's stage-2 label, before the pass."""
    assignment, centroids = _precluster(x, params.seed)
    return spectral_cluster(centroids, replace(params, sigma=0.0)).labels[assignment]


class TestTwoStage:
    def test_the_cap_exceeds_the_centroid_count(self):
        # so the pipeline never reaches two_stage_cluster's size refusal
        assert diarkit.pipeline.TWO_STAGE_CAP > diarkit.clustering.PRECLUSTER_COUNT

    def test_up_to_the_cap_cluster_is_spectral_cluster(self, monkeypatch):
        x, _ = three_speakers()
        monkeypatch.setattr(diarkit.pipeline, "TWO_STAGE_CAP", len(x))
        params = SpectralParams(seed=2)
        got = cluster(x, DiarizeConfig(spectral=params))
        want = spectral_cluster(x, params)
        assert got.k == want.k
        assert np.array_equal(got.labels, want.labels)

    @pytest.mark.usefixtures("two_stage")
    def test_above_the_cap_the_stages_compose(self):
        x, _ = three_speakers()
        params = SpectralParams(sigma=2.0, seed=3)
        got = cluster(x, DiarizeConfig(spectral=params))
        assignment, centroids = _precluster(x, seed=3)
        assert len(centroids) == 40
        stage2 = spectral_cluster(centroids, SpectralParams(sigma=0.0, seed=3))
        want = _resegment(l2_normalize_rows(x), ClusteringResult(stage2.labels[assignment]), 2)
        assert got.k == want.k == 3
        assert np.array_equal(got.labels, want.labels)

    @pytest.mark.usefixtures("two_stage")
    def test_above_the_cap_the_speaker_bounds_hold(self):
        # stage 2 is forced to one cluster more than the three speakers, one of
        # them short; the pass would empty one of the four, and must not take k
        # below the bound
        _, windows, regions = generate(SynthScenario(n_speakers=3, duration=120,
                                                     scenario_kind="imbalanced", seed=5))
        x, _ = segment_embeddings(windows, regions)
        params = SpectralParams(min_clusters=4, max_clusters=4)
        stage_two = ClusteringResult(_stage_two_labels(x, params))
        unbounded = _resegment(l2_normalize_rows(x), stage_two, 1)
        assert unbounded.k < 4
        assert cluster(x, DiarizeConfig(spectral=params)).k == 4

    @pytest.mark.usefixtures("two_stage")
    def test_grid_is_diarize_per_config(self):
        segments = three_speakers()
        sigmas = [0.0, 0.5, 1.0, 2.0]
        configs = [DiarizeConfig(spectral=SpectralParams(sigma=s)) for s in sigmas] + [
            DiarizeConfig(spectral=SpectralParams(p_percentile=90)),
            DiarizeConfig("naive", threshold=0.3),
            DiarizeConfig(spectral=SpectralParams(sigma=1.0, seed=5)),
            DiarizeConfig("kmeans"),
        ]
        got = [list(a) for a in diarize_grid("rec", segments, configs)]
        assert got == [list(diarize("rec", segments, c)) for c in configs]
        # sigma has no effect above the cap
        assert all(row == got[0] for row in got[: len(sigmas)])

    def test_stages_are_those_of_the_matrix_cluster_solves(self, monkeypatch):
        x, _ = three_speakers()

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
        # stage 2's one solve is of the last matrix the observer saw
        solves = capture_solves(monkeypatch)
        *_, (name, m) = observed(DiarizeConfig(spectral=SpectralParams(sigma=1.0)))
        assert name == "refined"
        ((solved, count),) = solves
        assert m.shape == (40, 40)
        values, _ = eigh(m, count=count)
        assert values.tobytes() == solved.tobytes()

    def test_only_spectral_clustering_calls_the_observer(self):
        x, _ = three_speakers()
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
x, _ = pipeline.segment_embeddings(windows, regions)
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
