import contextlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import diarkit.clustering
from diarkit import (
    DEFAULT_MAX_CLUSTERS,
    ClusteringResult,
    DegenerateAffinityError,
    EigenDecomposition,
    InvalidInputError,
    NaiveOnlineClusterer,
    SegmentEmbedding,
    SpectralParams,
    SynthScenario,
    TimeInterval,
    build_affinity,
    eigh,
    estimate_k_eigengap,
    estimate_k_elbow,
    gaussian_blur,
    generate,
    kmeans,
    mscd_table,
    refine_diffuse,
    refine_row_max_normalize,
    refine_stages,
    refine_symmetrize,
    refine_threshold,
    run_online,
    spectral_cluster,
    spectral_embed,
)
from diarkit.clustering import (
    EIG_FLOOR,
    _draw,
    _lloyd,
    _row_max_normalize_symmetrize,
    blurred_affinity,
    cluster_blurred,
    embedding_matrix,
)
from diarkit.numerics import _TILE, gram, l2_normalize_rows, nearest_rank_index
from diarkit.pipeline import segment_embeddings
from helpers import run_python
from oracles import lloyd_oracle, sort_threshold

BLOCK = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 1.0],
    ]
)


def same_partition(a, b) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    for x, y in zip(a.tolist(), b.tolist()):
        if forward.setdefault(x, y) != y or backward.setdefault(y, x) != x:
            return False
    return True


@st.composite
def lloyd_inputs(draw) -> tuple[list, int]:
    """(rows, k) for one k-means run: 1-24 rows drawn from a pool of at most 6
    made of +-0, +-1, 0.5 and random components, so duplicate rows, antipodes,
    signed zeros and k = n are common."""
    d = draw(st.integers(1, 4))
    component = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]) | st.floats(-1, 1)
    pool = draw(st.lists(st.tuples(*[component] * d), min_size=1, max_size=6))
    pool = [p for p in pool if max(map(abs, p)) > 1e-3] or [(1.0,) * d]
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=24))
    return rows, draw(st.integers(1, len(rows)))


def planted_points(rng, directions, per_cluster, noise_deg):
    """Noisy unit vectors around each direction, plus their true labels."""
    dim = directions.shape[1]
    points, labels = [], []
    scale = math.tan(math.radians(noise_deg)) if noise_deg > 0 else 0.0
    for idx, mean in enumerate(directions):
        for _ in range(per_cluster):
            z = rng.standard_normal(dim)
            z -= (z @ mean) * mean
            v = mean + scale * z / max(np.linalg.norm(z), 1e-12)
            points.append(v / np.linalg.norm(v))
            labels.append(idx)
    return np.array(points), np.array(labels)


def segment_objects(x) -> list[SegmentEmbedding]:
    return [SegmentEmbedding(TimeInterval(0.4 * i, 0.4 * (i + 1)), v) for i, v in enumerate(x)]


class TestEmbeddingMatrix:
    def test_any_array_like_of_rows(self):
        rows = [[1, 0.5], [0.0, 2.0]]
        for given in (rows, tuple(np.array(r) for r in rows), np.array(rows, dtype=np.float32)):
            x = embedding_matrix(given)
            assert x.dtype == np.float64
            assert np.array_equal(x, rows)

    def test_a_copy(self):
        given = np.eye(2)
        x = embedding_matrix(given)
        x[0, 0] = 5.0
        assert given[0, 0] == 1.0

    @pytest.mark.parametrize(
        "given, message",
        [
            ([[1.0, 0.0], [1.0]], "share one dimension"),
            ([], "^no embeddings given$"),
            (np.zeros((0, 3)), "^empty embedding matrix$"),
            ([[1.0, np.nan]], "^embeddings contain non-finite entries$"),
            ([1.0, 2.0], r"^expected an \(n, d\) embedding matrix, got shape \(2,\)$"),
        ],
        ids=["ragged", "none", "empty", "non_finite", "one_row_of_scalars"],
    )
    def test_rejected(self, given, message):
        with pytest.raises(InvalidInputError, match=message):
            embedding_matrix(given)

    @pytest.mark.parametrize(
        "call",
        [
            embedding_matrix,
            build_affinity,
            lambda x: blurred_affinity(x, 1.0),
            lambda x: spectral_cluster(x, SpectralParams()),
            lambda x: kmeans(x, 2),
            lambda x: estimate_k_elbow(x, 3),
            lambda x: mscd_table(x, 3),
            lambda x: run_online(NaiveOnlineClusterer(), x),
            lambda x: NaiveOnlineClusterer().step(x[0]),
        ],
        ids=["embedding_matrix", "build_affinity", "blurred_affinity", "spectral_cluster",
             "kmeans", "estimate_k_elbow", "mscd_table", "run_online", "step"],
    )
    def test_segment_objects_rejected(self, call):
        # the clusterers take the matrix; pipeline.stack_segments builds it
        segments = segment_objects(np.eye(3)[[0, 0, 1, 1, 2, 2]])
        with pytest.raises(InvalidInputError, match="of numbers"):
            call(segments)


class TestBuildAffinity:
    def test_identical_vectors(self):
        a = build_affinity(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert np.allclose(a, np.ones((2, 2)))

    def test_orthogonal_pair(self):
        a = build_affinity(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(a, np.zeros((2, 2)))

    def test_three_vector_example(self):
        s = 1 / math.sqrt(2)
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        mid = (e1 + e2) / np.linalg.norm(e1 + e2)
        a = build_affinity(np.stack([e1, e2, mid]))
        expected = np.array([[s, 0, s], [0, s, s], [s, s, s]])
        assert np.max(np.abs(a - expected)) < 1e-12

    def test_diagonal_is_row_max(self):
        rng = np.random.default_rng(30)
        a = build_affinity(rng.normal(size=(12, 5)))
        for i in range(12):
            off = np.delete(a[i], i)
            assert a[i, i] == off.max()

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(9, 6))
        a = build_affinity(x)
        b = build_affinity(x * 41.5)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_too_few_embeddings_rejected(self):
        with pytest.raises(InvalidInputError):
            build_affinity(np.array([[1.0, 0.0]]))

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInputError):
            build_affinity(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestRefineThreshold:
    def test_soft_scaling(self):
        m = np.array(
            [
                [0.9, 0.5, 0.1],
                [0.5, 0.1, 0.9],
                [0.1, 0.9, 0.5],
            ]
        )
        out = refine_threshold(m, 50, 0.01)
        # per row: nearest-rank p50 = 0.5; only 0.1 lies strictly below
        expected = np.array(
            [
                [0.9, 0.5, 0.001],
                [0.5, 0.001, 0.9],
                [0.001, 0.9, 0.5],
            ]
        )
        assert np.max(np.abs(out - expected)) < 1e-15

    def test_constant_rows_unchanged(self):
        m = np.full((4, 4), 0.7)
        for p in (10, 50, 95):
            assert np.array_equal(refine_threshold(m, p, 0.01), m)

    def test_hard_zeroing(self):
        m = np.array([[0.9, 0.5, 0.1]] * 3)
        out = refine_threshold(m, 50, 0.0)
        assert np.array_equal(out[0], [0.9, 0.5, 0.0])

    def test_rows_independent(self):
        rng = np.random.default_rng(32)
        m = rng.uniform(size=(6, 6))
        out = refine_threshold(m, 80, 0.01)
        for i in range(6):
            row_only = refine_threshold(np.tile(m[i], (6, 1)), 80, 0.01)
            assert np.array_equal(out[i], row_only[0])

    # in blocks of 2**16 entries these are one block, two and nineteen,
    # the last block of each short
    @pytest.mark.parametrize("n", [1, 257, 1100])
    def test_blocks_match_sort_oracle(self, n):
        rng = np.random.default_rng(n)
        matrices = [
            rng.integers(-2, 3, size=(n, n)).astype(np.float64),  # many ties
            rng.choice([0.0, -0.0, 0.5, -0.5], size=(n, n)),
            rng.standard_normal((n, n)),
        ]
        for m in matrices:
            before = m.copy()
            for p, soft in ((0.5, 0.01), (50, 0.0), (95, 0.01), (99.9, -2.0)):
                expected = sort_threshold(m, nearest_rank_index(p, n), soft)
                assert refine_threshold(m, p, soft).tobytes() == expected.tobytes()
            assert m.tobytes() == before.tobytes()

    def test_p_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            refine_threshold(np.eye(3), 0, 0.01)
        with pytest.raises(InvalidInputError):
            refine_threshold(np.eye(3), 100, 0.01)


class TestRefineSymmetrize:
    def test_symmetric_unchanged(self):
        m = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert np.array_equal(refine_symmetrize(m), m)

    def test_elementwise_max(self):
        out = refine_symmetrize(np.array([[0.0, 1.0], [0.2, 0.0]]))
        assert np.array_equal(out, [[0.0, 1.0], [1.0, 0.0]])

    def test_idempotent(self):
        rng = np.random.default_rng(33)
        m = rng.normal(size=(7, 7))
        once = refine_symmetrize(m)
        assert np.array_equal(refine_symmetrize(once), once)
        assert np.array_equal(once, once.T)


class TestRefineDiffuse:
    def test_identity(self):
        assert np.array_equal(refine_diffuse(np.eye(3)), np.eye(3))

    def test_hand_example(self):
        out = refine_diffuse(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert np.allclose(out, [[1.25, 1.0], [1.0, 1.25]])

    def test_output_symmetric_psd(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            m = rng.normal(size=(8, 8))
            out = refine_diffuse(m)
            assert np.max(np.abs(out - out.T)) < 1e-10
            evals = np.linalg.eigvalsh(out)
            assert evals.min() >= -1e-10


class TestRefineRowMaxNormalize:
    def test_hand_example(self):
        out = refine_row_max_normalize(np.array([[1.25, 1.0], [1.0, 1.25]]))
        assert np.allclose(out, [[1.0, 0.8], [0.8, 1.0]])

    def test_per_row_division(self):
        out = refine_row_max_normalize(np.array([[2.0, 4.0], [0.5, 0.25]]))
        assert np.array_equal(out, [[0.5, 1.0], [1.0, 0.5]])

    def test_idempotent_and_max_exactly_one(self):
        rng = np.random.default_rng(35)
        m = rng.uniform(0.1, 2.0, size=(9, 9))
        out = refine_row_max_normalize(m)
        assert np.array_equal(out.max(axis=1), np.ones(9))
        assert np.array_equal(refine_row_max_normalize(out), out)

    def test_nonpositive_row_rejected(self):
        with pytest.raises(DegenerateAffinityError):
            refine_row_max_normalize(np.array([[1.0, 0.5], [-0.2, -0.1]]))


IN_PLACE_STAGES = {
    "blur": lambda m, **out: gaussian_blur(m, 1.0, **out),
    "threshold": lambda m, **out: refine_threshold(m, 95, 0.01, **out),
    "symmetrize": refine_symmetrize,
    "diffuse": refine_diffuse,
}


class TestStagesWriteIntoOut:
    """spectral_cluster runs every stage with out= its input: the same bits."""

    @pytest.mark.parametrize("stage", IN_PLACE_STAGES)
    @pytest.mark.parametrize("n", [1, _TILE + 1, 2 * _TILE + 1, 600])
    def test_out_is_the_input_or_another_matrix(self, stage, n):
        run = IN_PLACE_STAGES[stage]
        rng = np.random.default_rng(n)
        m = rng.uniform(-1.0, 1.0, (n, n))
        m[rng.uniform(size=(n, n)) < 0.1] = -0.0  # signed zeros, which max orders
        m[rng.uniform(size=(n, n)) < 0.1] = 0.0
        before = m.tobytes()
        expected = run(m).tobytes()
        other = np.empty((n, n))
        assert run(m, out=other) is other
        assert other.tobytes() == expected
        assert m.tobytes() == before
        assert run(m, out=m) is m
        assert m.tobytes() == expected

    def test_in_place_stages_make_no_n_by_n_temporary(self):
        # tracemalloc peaks at n = 2000: blur 0.07 n^2 of float64, threshold
        # 0.03, symmetrize 0.01 (0.125 more while finiteness was read through
        # an n x n boolean mask), diffuse 0.13 (gram's block of 256 rows)
        n = 2000
        m = np.random.default_rng(2).uniform(0.0, 1.0, (n, n))
        for stage, run in IN_PLACE_STAGES.items():
            tracemalloc.start()
            try:
                run(m, out=m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= (0.15 if stage == "diffuse" else 0.1) * 8 * n * n, stage


class TestRefineChain:
    def test_block_matrix_fixed_point(self):
        params = SpectralParams(sigma=0.0, p_percentile=50, soft_multiplier=0.0)
        stages = dict(refine_stages(BLOCK, params))
        # blur(0) and threshold leave the blocks; diffusion doubles them;
        # row-max normalization rescales back to the exact block matrix
        assert np.array_equal(stages["rownorm"], BLOCK)
        assert np.array_equal(stages["diffuse"], 2 * BLOCK)

    def test_snapshot_count_and_final(self):
        rng = np.random.default_rng(36)
        a = build_affinity(rng.normal(size=(10, 4)))
        stages = list(refine_stages(a, SpectralParams()))
        assert [name for name, _ in stages] == [
            "blur", "threshold", "symmetrize", "diffuse", "rownorm"
        ]
        assert np.array_equal(stages[-1][1].max(axis=1), np.ones(10))

    def test_non_square_or_non_finite_rejected(self):
        bad = np.ones((4, 4))
        bad[1, 2] = np.inf
        for m in (np.ones((2, 3)), bad):
            with pytest.raises(InvalidInputError):
                list(refine_stages(m, SpectralParams()))

    def test_neutral_settings_reduce_to_diffuse_normalize(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(6, 3))
        g = x @ x.T  # symmetric PSD
        params = SpectralParams(sigma=0.0, p_percentile=50, soft_multiplier=1.0)
        final = dict(refine_stages(g, params))["rownorm"]
        expected = refine_row_max_normalize(refine_diffuse(g))
        assert np.max(np.abs(final - expected)) < 1e-12


@pytest.fixture(scope="module")
def synth_segments():
    """Segment embeddings of a 2-min 3-speaker synth: 279 rows, past two tiles."""
    _, windows, regions = generate(SynthScenario(n_speakers=3, duration=120.0, seed=3))
    with contextlib.redirect_stderr(io.StringIO()):  # aggregate's drop warning
        segments = segment_embeddings(windows, regions)
    return np.stack([s.embedding for s in segments])


def raised(f, m) -> tuple[type, str]:
    with pytest.raises(InvalidInputError) as info:
        f(m)
    return type(info.value), str(info.value)


class TestRowMaxNormalizeSymmetrize:
    """cluster_blurred's closing pass against refine_row_max_normalize, then (R + Rᵀ)/2."""

    @pytest.mark.parametrize("n", [_TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1, None])
    def test_bit_equal_to_rownorm_then_symmetrize(self, synth_segments, n):
        stages = dict(refine_stages(build_affinity(synth_segments[:n]), SpectralParams()))
        y, r = stages["diffuse"], stages["rownorm"]
        out = _row_max_normalize_symmetrize(y)
        assert np.shares_memory(out, y)
        assert out.tobytes() == ((r + r.T) * 0.5).tobytes()

    def test_errors_as_rownorm_and_in_its_order(self):
        x = np.random.default_rng(52).uniform(0.1, 1.0, size=(_TILE + 1, 4))
        degenerate = x.copy()
        degenerate[_TILE] = 0.0  # row and column TILE of its Gram matrix are 0
        nan, both = gram(x), gram(degenerate)
        for m in (nan, both):
            m[_TILE - 1, 2] = m[2, _TILE - 1] = np.nan
        for bad, error in [
            (gram(degenerate), DegenerateAffinityError),
            (nan, InvalidInputError),
            (both, InvalidInputError),  # non-finite before the row maxima
        ]:
            before = bad.copy(order="F")
            expected = raised(refine_row_max_normalize, bad)
            assert expected[0] is error
            assert raised(_row_max_normalize_symmetrize, bad) == expected
            assert np.array_equal(bad, before, equal_nan=True)

    def test_refine_stages_composes_the_public_stages(self, synth_segments):
        params = SpectralParams()
        a = build_affinity(synth_segments)
        m = gaussian_blur(a, params.sigma)
        expected = [("blur", m)]
        for name, stage in [
            ("threshold", lambda m: refine_threshold(m, params.p_percentile, params.soft_multiplier)),
            ("symmetrize", refine_symmetrize),
            ("diffuse", refine_diffuse),
            ("rownorm", refine_row_max_normalize),
        ]:
            m = stage(m)
            expected.append((name, m))
        got = list(refine_stages(a, params))
        assert [name for name, _ in got] == [name for name, _ in expected]
        assert all(g.tobytes() == e.tobytes() for (_, g), (_, e) in zip(got, expected))

    @pytest.mark.parametrize("n", [_TILE - 1, _TILE + 1])
    def test_labels_are_kmeans_of_the_re_embedding(self, synth_segments, n):
        # normalized once, by kmeans: spectral_embed's rows go in as they are
        params = SpectralParams()
        x = synth_segments[:n]
        r = dict(refine_stages(build_affinity(x), params))["rownorm"]
        decomp = eigh((r + r.T) * 0.5, count=params.max_clusters + 1)
        k = estimate_k_eigengap(decomp.values, params.min_clusters, params.max_clusters)
        expected = kmeans(spectral_embed(decomp, k), k, seed=params.seed)
        got = cluster_blurred(blurred_affinity(x, params.sigma), params).clustering
        assert got.k == expected.k == k
        assert np.array_equal(got.labels, expected.labels)

    def test_cluster_blurred_solves_the_symmetrized_rownorm(self, synth_segments):
        params = SpectralParams()
        r = dict(refine_stages(build_affinity(synth_segments), params))["rownorm"]
        expected = eigh((r + r.T) * 0.5, count=params.max_clusters + 1)
        assert spectral_cluster(synth_segments, params).eigenvalues.tobytes() == (
            expected.values.tobytes()
        )


class TestEstimateKEigengap:
    def test_two_block_values(self):
        values = [2.0, 2.0, EIG_FLOOR, EIG_FLOOR]
        assert estimate_k_eigengap(values, 1, 3) == 2

    def test_all_equal_tie_breaks_small(self):
        assert estimate_k_eigengap([3.0, 3.0, 3.0, 3.0], 1, 3) == 1

    def test_gap_at_three(self):
        assert estimate_k_eigengap([3.0, 1.0, 0.9, EIG_FLOOR], 2, 3) == 3

    def test_denominator_clamped_at_floor(self):
        # negative tail would flip the ratio sign without clamping
        assert estimate_k_eigengap([2.0, 1.0, -0.5], 1, 2) == 2

    def test_result_within_range(self):
        rng = np.random.default_rng(38)
        for _ in range(100):
            n = int(rng.integers(3, 20))
            values = np.sort(rng.uniform(0, 5, size=n))[::-1]
            lo = int(rng.integers(1, n - 1))
            hi = int(rng.integers(lo, n + 3))
            k = estimate_k_eigengap(values, lo, hi)
            assert lo <= k <= min(hi, n - 1)

    def test_empty_range_rejected(self):
        with pytest.raises(InvalidInputError):
            estimate_k_eigengap([2.0, 1.0], 2, 5)  # hi = min(5, 1) < lo

    def test_unsorted_rejected(self):
        with pytest.raises(InvalidInputError):
            estimate_k_eigengap([1.0, 2.0, 0.5], 1, 2)


class TestSpectralEmbed:
    def test_full_k_keeps_unit_rows(self):
        rng = np.random.default_rng(39)
        a = rng.normal(size=(6, 6))
        decomp = eigh(a + a.T)
        rows = spectral_embed(decomp, 6)
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)

    def test_block_matrix_rows(self):
        decomp = eigh(BLOCK)
        rows = spectral_embed(decomp, 2)
        assert np.allclose(rows[0], rows[1])
        assert np.allclose(rows[2], rows[3])
        assert abs(rows[0] @ rows[2]) < 1e-10

    def test_k1_rows_collapse_to_unit_scalars(self):
        # kmeans' one normalization of the re-embedding leaves each row +-1
        decomp = eigh(BLOCK)
        rows = l2_normalize_rows(spectral_embed(decomp, 1))
        assert np.allclose(np.abs(rows), 1.0)

    def test_zero_row_replaced_by_first_axis(self):
        decomp = EigenDecomposition(
            values=np.array([1.0, 0.5]), vectors=np.eye(2)
        )
        rows = spectral_embed(decomp, 1)
        assert np.array_equal(rows, [[1.0], [1.0]])

    def test_k_out_of_range_rejected(self):
        decomp = eigh(BLOCK)
        with pytest.raises(InvalidInputError):
            spectral_embed(decomp, 0)
        with pytest.raises(InvalidInputError):
            spectral_embed(decomp, 5)


class TestKMeans:
    def test_exact_separation(self):
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        result = kmeans(x, 2, seed=0)
        assert result.labels[0] == result.labels[1] != result.labels[2]

    def test_k1_single_cluster(self):
        rng = np.random.default_rng(40)
        result = kmeans(rng.normal(size=(8, 3)), 1, seed=0)
        assert result.k == 1
        assert np.array_equal(result.labels, np.zeros(8, dtype=int))

    def test_planted_orthogonal_recovery_every_seed(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
            points, truth = planted_points(rng, q.T, per_cluster=20, noise_deg=10)
            result = kmeans(points, 3, seed=seed)
            assert same_partition(result.labels, truth)

    def test_deterministic(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(30, 5))
        a = kmeans(x, 4, seed=9)
        b = kmeans(x, 4, seed=9)
        assert np.array_equal(a.labels, b.labels)

    def test_k_exceeding_points_rejected(self):
        with pytest.raises(InvalidInputError):
            kmeans(np.eye(3), 4)

    def test_missing_k_rejected(self):
        # k has no default: the elbow search is the way to have it chosen
        with pytest.raises(TypeError):
            kmeans(np.eye(3))

    def test_duplicate_points_still_fill_k_clusters(self):
        x = np.array([[1.0, 0.0]] * 5 + [[0.0, 1.0]])
        result = kmeans(x, 3, seed=0)
        assert result.k == 3
        assert len(np.unique(result.labels)) == 3

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(60, 6))
        u = x / np.linalg.norm(x, axis=1, keepdims=True)
        for seed in range(5):
            _, _, _, history = _lloyd(
                u, 4, np.random.default_rng(seed), max_iters=300, tol=0.0
            )
            assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    # 4 copies of one row and 1 other at k = 4: the seeding draws a copy twice,
    # so the first assignment leaves clusters empty and needs the repair
    REPAIR_ROWS = ((1.0, 0.0),) * 4 + ((0.0, 1.0),)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=lloyd_inputs(), tol=st.sampled_from([0.0, 1e-6]), seed=st.integers(0, 2**32 - 1))
    @example(case=(REPAIR_ROWS, 4), tol=0.0, seed=0)
    @example(case=(((-0.0, 1.0), (0.0, -1.0), (1.0, -0.0), (-1.0, 0.0)), 4), tol=1e-6, seed=1)
    @example(case=(((1.0, 0.0), (-1.0, -0.0)), 1), tol=0.0, seed=2)  # a zero sum
    def test_lloyd_matches_the_per_cluster_oracle(self, case, tol, seed):
        # the vectorized step against the one-cluster-at-a-time loop it replaced:
        # labels, objective, history and generator state bit for bit, centroids
        # by value (0.0 == -0.0)
        rows, k = case
        u = l2_normalize_rows(np.array(rows, dtype=np.float64))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        labels, centroids, obj, history = _lloyd(u, k, got_rng, 300, tol)
        want = lloyd_oracle(u, k, want_rng, 300, tol)
        assert labels.dtype == want[0].dtype and np.array_equal(labels, want[0])
        assert np.array_equal(centroids, want[1])
        assert [h.hex() for h in [obj, *history]] == [h.hex() for h in [want[2], *want[3]]]
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_repair_example_runs_the_repair(self, monkeypatch):
        calls = 0
        repair = diarkit.clustering._repair_empty

        def counted(*args):
            nonlocal calls
            calls += 1
            return repair(*args)

        monkeypatch.setattr(diarkit.clustering, "_repair_empty", counted)
        u = np.array(self.REPAIR_ROWS)
        labels, _, _, _ = _lloyd(u, 4, np.random.default_rng(0), 300, 0.0)
        assert calls >= 1
        assert np.bincount(labels, minlength=4).all()

    def test_draw_is_generator_choice(self):
        # _draw repeats rng.choice(n, p=weights / total)'s algorithm: a numpy
        # release that changes choice's draw or its use of the generator fails here
        for seed in range(500):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 40))
            weights = rng.random(n) ** 3
            weights[rng.random(n) < 0.4] = 0.0
            weights[rng.integers(n)] += 0.5  # at least one non-zero weight
            got, want = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
            for _ in range(3):
                expected = int(want.choice(n, p=weights / float(weights.sum())))
                assert _draw(got, weights) == expected
                assert got.bit_generator.state == want.bit_generator.state

    def test_draw_over_zero_weights_is_uniform_integer(self):
        for seed in range(50):
            got, want = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _draw(got, np.zeros(7)) == int(want.integers(7))
            assert got.bit_generator.state == want.bit_generator.state


class TestEstimateKElbow:
    def test_antipodal_groups(self):
        x = np.array([[1.0, 0.0]] * 10 + [[-1.0, 0.0]] * 10)
        assert estimate_k_elbow(x, 4, seed=0).k == 2

    def test_identical_points_tie_break(self):
        x = np.array([[1.0, 0.0]] * 6)
        assert estimate_k_elbow(x, 4, seed=0).k == 2

    def test_agrees_with_numeric_mscd_table(self):
        # the chosen k must be the argmax of the backward differences of
        # the independently retrievable MSCD table
        rng = np.random.default_rng(43)
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        points, _ = planted_points(rng, q.T, per_cluster=15, noise_deg=5)
        k = estimate_k_elbow(points, 6, seed=3).k
        table = mscd_table(points, 6, seed=3)
        drops = {kk: table[kk - 1] - table[kk] for kk in range(2, 7)}
        best = min(kk for kk in drops if drops[kk] == max(drops.values()))
        assert k == best

    def test_mscd_k1_closed_form(self):
        # one tight group: MSCD(1) is the squared mean cosine distance to it
        x = np.tile([1.0, 0.0], (12, 1))
        table = mscd_table(x, 2, seed=0)
        assert table[1] == 0.0

    def test_min_clusters_respected(self):
        x = np.array([[1.0, 0.0]] * 10 + [[-1.0, 0.0]] * 10)
        k = estimate_k_elbow(x, 5, min_clusters=3, seed=0).k
        assert 3 <= k <= 5

    def test_empty_range_rejected(self):
        with pytest.raises(InvalidInputError):
            estimate_k_elbow(np.eye(4), 2, min_clusters=3, seed=0)

    def test_max_clusters_above_n_rejected(self):
        with pytest.raises(InvalidInputError):
            mscd_table(np.eye(3), 4, seed=0)


class TestSpectralCluster:
    def test_two_planted_speakers(self):
        # p=50 keeps the same-speaker half of each row; the default 95
        # is tuned for hundreds of segments, not 20
        for seed in range(5):
            rng = np.random.default_rng(44 + seed)
            q, _ = np.linalg.qr(rng.standard_normal((8, 2)))
            points, truth = planted_points(rng, q.T, per_cluster=10, noise_deg=5)
            result = spectral_cluster(points, SpectralParams(p_percentile=50, seed=0))
            assert result.clustering.k == 2
            assert same_partition(result.clustering.labels, truth)

    def test_n2_forced_to_min_clusters(self):
        x = np.array([[1.0, 0.0], [0.8, 0.6]])
        result = spectral_cluster(x, SpectralParams(min_clusters=2, seed=0))
        assert result.clustering.k == 2
        assert sorted(result.clustering.labels.tolist()) == [0, 1]

    def test_hierarchical_four_speakers_single_seed(self):
        rng = np.random.default_rng(45)
        basis, _ = np.linalg.qr(rng.standard_normal((16, 6)))
        gamma, alpha = math.radians(70), math.radians(25)
        g = [basis[:, 0], math.cos(gamma) * basis[:, 0] + math.sin(gamma) * basis[:, 1]]
        dirs = np.stack(
            [
                math.cos(alpha) * g[s % 2] + math.sin(alpha) * basis[:, 2 + s]
                for s in range(4)
            ]
        )
        points, truth = planted_points(rng, dirs, per_cluster=25, noise_deg=8)
        result = spectral_cluster(points, SpectralParams(seed=1))
        assert result.clustering.k == 4
        assert same_partition(result.clustering.labels, truth)

    def test_permutation_equivariance_without_blur(self):
        rng = np.random.default_rng(46)
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
        points, _ = planted_points(rng, q.T, per_cluster=9, noise_deg=12)
        params = SpectralParams(sigma=0.0, seed=5)
        base = spectral_cluster(points, params).clustering.labels
        perm = rng.permutation(len(points))
        permuted = spectral_cluster(points[perm], params).clustering.labels
        assert same_partition(base[perm], permuted)

    def test_deterministic(self):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(25, 6))
        a = spectral_cluster(x, SpectralParams(seed=2))
        b = spectral_cluster(x, SpectralParams(seed=2))
        assert np.array_equal(a.clustering.labels, b.clustering.labels)
        assert a.clustering.k == b.clustering.k

    def test_diagnostics_shapes(self):
        rng = np.random.default_rng(48)
        x = rng.normal(size=(12, 4))
        result = spectral_cluster(x, SpectralParams(seed=0))
        # the leading max_clusters + 1 that the eigen-gap rule reads
        assert result.eigenvalues.shape == (DEFAULT_MAX_CLUSTERS + 1,)

    def test_partial_eigensolve_matches_dense(self):
        for per_cluster in (175, 275):  # n = 700 and 1100
            rng = np.random.default_rng(50)
            q, _ = np.linalg.qr(rng.standard_normal((16, 4)))
            points, truth = planted_points(rng, q.T, per_cluster=per_cluster, noise_deg=40)
            params = SpectralParams(seed=0)
            partial = spectral_cluster(points, params)
            # the same refined matrix, solved whole by the dense solver
            refined = dict(refine_stages(build_affinity(points), params))["rownorm"]
            values, vectors = np.linalg.eigh(0.5 * (refined + refined.T))
            count = params.max_clusters + 1
            order = np.argsort(-values, kind="stable")[:count]
            dense = EigenDecomposition(values=values[order], vectors=vectors[:, order])
            dense_k = estimate_k_eigengap(dense.values, params.min_clusters, params.max_clusters)
            dense_emb = spectral_embed(dense, dense_k)
            dense_labels = kmeans(dense_emb, dense_k).labels
            assert partial.eigenvalues.shape == dense.values.shape == (count,)
            assert np.max(np.abs(partial.eigenvalues - dense.values)) <= 1e-10
            assert partial.clustering.k == dense_k == 4
            assert same_partition(partial.clustering.labels, dense_labels)
            assert same_partition(partial.clustering.labels, truth)

    @pytest.mark.parametrize("n", [1000, 1500])
    def test_peak_memory_at_most_five_matrices(self, n):
        # one stage matrix at a time, the affinity freed after the blur: about
        # 4.1 n^2 float64 arrays at the peak (6.0 while every snapshot was kept)
        rng = np.random.default_rng(0)
        centers = rng.standard_normal((4, 16))
        x = centers[np.arange(n) * 4 // n] + 0.6 * rng.standard_normal((n, 16))
        tracemalloc.start()
        try:
            result = spectral_cluster(x, SpectralParams(seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.clustering.k == 4
        assert peak <= 5 * 8 * n * n

    @pytest.mark.parametrize("n, arrays", [(1000, 2.3), (1500, 2.2), (2000, 2.2)])
    def test_peak_memory_two_matrices(self, n, arrays):
        # every stage holds its input and its output, the threshold and the
        # symmetry check working in row blocks beside them
        rng = np.random.default_rng(0)
        centers = rng.standard_normal((4, 16))
        x = centers[np.arange(n) * 4 // n] + 0.6 * rng.standard_normal((n, 16))
        tracemalloc.start()
        try:
            result = spectral_cluster(x, SpectralParams(seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.clustering.k == 4
        assert peak <= arrays * 8 * n * n

    @pytest.mark.parametrize("n", [1500, 2000])
    def test_peak_memory_one_matrix(self, n):
        # every stage writes into the affinity's own matrix: 1.20 n^2 float64
        # arrays at n = 1500 and 1.15 at n = 2000, gram's block of 256 rows
        # beside it (2.06 and 2.03 while each stage made a new matrix)
        rng = np.random.default_rng(0)
        centers = rng.standard_normal((4, 16))
        x = centers[np.arange(n) * 4 // n] + 0.6 * rng.standard_normal((n, 16))
        tracemalloc.start()
        try:
            result = spectral_cluster(x, SpectralParams(seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.clustering.k == 4
        assert peak <= 1.3 * 8 * n * n

    def test_single_segment_rejected(self):
        with pytest.raises(InvalidInputError):
            spectral_cluster(np.array([[1.0, 0.0]]), SpectralParams())

    def test_blurred_matrix_left_unchanged(self):
        # the matrix a grid of percentiles shares: each threshold copies it
        rng = np.random.default_rng(51)
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        points, _ = planted_points(rng, q.T, per_cluster=40, noise_deg=30)
        blurred = blurred_affinity(points, 1.0)
        before = blurred.copy()
        for p in (50.0, 80.0, 95.0):
            params = SpectralParams(p_percentile=p, seed=0)
            result = cluster_blurred(blurred, params)
            assert np.array_equal(blurred, before)
            expected = spectral_cluster(points, params)
            assert np.array_equal(result.clustering.labels, expected.clustering.labels)
            assert np.array_equal(result.eigenvalues, expected.eigenvalues)

    def test_bounds_respected_on_random_inputs(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            n = int(rng.integers(2, 15))
            x = rng.normal(size=(n, 4))
            params = SpectralParams(min_clusters=2, max_clusters=5, seed=0)
            result = spectral_cluster(x, params)
            assert min(2, n) <= result.clustering.k <= min(5, n)


class TestSpectralParams:
    def test_invalid_rejected(self):
        with pytest.raises(InvalidInputError):
            SpectralParams(sigma=-1)
        with pytest.raises(InvalidInputError):
            SpectralParams(p_percentile=100)
        with pytest.raises(InvalidInputError):
            SpectralParams(min_clusters=0)
        with pytest.raises(InvalidInputError):
            SpectralParams(min_clusters=5, max_clusters=3)
        with pytest.raises(InvalidInputError):
            SpectralParams(seed=-1)

    def test_kmeans_params_invalid_rejected(self):
        x = np.eye(3)
        with pytest.raises(InvalidInputError, match="k must be >= 1, got 0"):
            kmeans(x, 0)
        for call in (lambda: kmeans(x, 2, seed=-1), lambda: estimate_k_elbow(x, 3, seed=-1),
                     lambda: mscd_table(x, 3, seed=-1)):
            with pytest.raises(InvalidInputError, match="seed must be >= 0, got -1"):
                call()


class TestNaiveOnline:
    def test_first_embedding_creates_cluster_zero(self):
        clusterer = NaiveOnlineClusterer(threshold=0.5)
        assert clusterer.step([1.0, 0.0]) == 0

    def test_orthogonal_splits(self):
        clusterer = NaiveOnlineClusterer(threshold=0.5)
        e1, e2 = [1.0, 0.0], [0.0, 1.0]
        assert [clusterer.step(v) for v in (e1, e1, e2)] == [0, 0, 1]

    def test_join_updates_centroid(self):
        clusterer = NaiveOnlineClusterer(threshold=0.5)
        s = 1 / math.sqrt(2)
        assert clusterer.step([1.0, 0.0]) == 0
        assert clusterer.step([1.0, 1.0]) == 0  # cos = 0.7071 >= 0.5
        centroid = clusterer._sums[0] / 2  # mean of the two members
        assert np.allclose(centroid, [(1 + s) / 2, s / 2])

    def test_below_threshold_founds_new_cluster(self):
        clusterer = NaiveOnlineClusterer(threshold=0.9)
        assert clusterer.step([1.0, 0.0]) == 0
        assert clusterer.step([1.0, 1.0]) == 1  # cos = 0.7071 < 0.9

    def test_ties_go_to_lowest_label(self):
        clusterer = NaiveOnlineClusterer(threshold=0.1)
        clusterer.step([1.0, 0.0])
        clusterer.step([0.0, 1.0])  # cos 0 < 0.1: new cluster
        # equidistant from both centroids: joins cluster 0
        assert clusterer.step([1.0, 1.0]) == 0

    def test_prefix_property(self):
        rng = np.random.default_rng(50)
        stream = rng.normal(size=(40, 5))
        full = NaiveOnlineClusterer(threshold=0.3)
        full_labels = [full.step(v) for v in stream]
        for cut in (1, 7, 23, 40):
            fresh = NaiveOnlineClusterer(threshold=0.3)
            prefix_labels = [fresh.step(v) for v in stream[:cut]]
            assert prefix_labels == full_labels[:cut]

    def test_zero_vector_rejected(self):
        clusterer = NaiveOnlineClusterer(threshold=0.5)
        with pytest.raises(InvalidInputError):
            clusterer.step([0.0, 0.0])

    def test_threshold_validated(self):
        with pytest.raises(InvalidInputError):
            NaiveOnlineClusterer(threshold=1.0)
        with pytest.raises(InvalidInputError):
            NaiveOnlineClusterer(threshold=-1.0)

    def test_run_online_dense_result(self):
        rng = np.random.default_rng(51)
        result = run_online(NaiveOnlineClusterer(threshold=0.4), rng.normal(size=(20, 4)))
        assert isinstance(result, ClusteringResult)
        assert set(result.labels.tolist()) == set(range(result.k))

    def test_constant_stub_satisfies_contract(self):
        class Stub:
            def step(self, embedding) -> int:
                return 0

        result = run_online(Stub(), np.random.default_rng(52).normal(size=(5, 3)))
        assert result.k == 1


# One spectral_cluster call on a 5-minute, 4-speaker synth (n = N_THREADED),
# printed as JSON: floats round-trip exactly.
SPECTRAL_IN_CHILD = """
import json
from diarkit import SpectralParams, SynthScenario, generate, spectral_cluster
from diarkit.pipeline import segment_embeddings, stack_segments
_, windows, regions = generate(SynthScenario(n_speakers=4, duration=300.0, seed=11))
x = stack_segments(segment_embeddings(windows, regions))[0]
result = spectral_cluster(x, SpectralParams(seed=0))
print(json.dumps({
    "n": len(x),
    "k": result.clustering.k,
    "labels": result.clustering.labels.tolist(),
    "eigenvalues": result.eigenvalues.tolist(),
}))
"""
N_THREADED = 692


def test_speaker_count_does_not_depend_on_blas_threads():
    # The Gram products (dgemm) and the eigensolver's matvec (dsymv) may split
    # their sums by thread count; a process's count is fixed at its start,
    # so each setting runs in its own interpreter.
    one, two = (
        json.loads(run_python(SPECTRAL_IN_CHILD, OPENBLAS_NUM_THREADS=threads))
        for threads in ("1", "2")
    )
    assert one["n"] == two["n"] == N_THREADED
    assert one["k"] == two["k"]
    assert one["labels"] == two["labels"]
    a, b = np.array(one["eigenvalues"]), np.array(two["eigenvalues"])
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
