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
    InvalidInputError,
    SegmentEmbedding,
    SpectralParams,
    SynthScenario,
    TimeInterval,
    estimate_k_elbow,
    generate,
    kmeans,
    run_online,
    spectral_cluster,
    spectral_grid,
)
from diarkit.clustering import (
    _MAX_ITERS,
    _RESTARTS,
    _TOL,
    EIG_FLOOR,
    PRECLUSTER_COUNT,
    PRECLUSTER_ITERS,
    RESEGMENT_PENALTY,
    RESEGMENT_ROUNDS,
    _best_run,
    _draw,
    _elbow_runs,
    _lloyd,
    _resegment,
    _row_max_normalize_symmetrize,
    _threshold_symmetrize,
    _viterbi,
    blurred_affinity,
    embedding_matrix,
    estimate_k_eigengap,
    spectral_embed,
    two_stage_cluster,
)
from diarkit.numerics import (_TILE, EigenDecomposition, eigh, gram, l2_normalize_rows,
                              nearest_rank_index)
from diarkit.pipeline import segment_embeddings
from helpers import refinement_stages, run_python
from oracles import (affinity, best_path_oracle, blur, dense_refined, lloyd_oracle,
                     online_oracle, resegment_oracle, row_max_normalize, sort_threshold,
                     symmetrize)

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
            lambda x: blurred_affinity(x, 1.0),
            lambda x: refinement_stages(x, SpectralParams()),
            lambda x: spectral_cluster(x, SpectralParams()),
            lambda x: spectral_grid(x, [SpectralParams()]),
            lambda x: kmeans(x, 2),
            lambda x: estimate_k_elbow(x, 3),
            lambda x: run_online(x, 0.5),
        ],
        ids=["embedding_matrix", "blurred_affinity", "refinement_stages", "spectral_cluster",
             "spectral_grid", "kmeans", "estimate_k_elbow", "run_online"],
    )
    def test_segment_objects_rejected(self, call):
        # the clusterers take the matrix; pipeline.stack_segments builds it
        segments = segment_objects(np.eye(3)[[0, 0, 1, 1, 2, 2]])
        with pytest.raises(InvalidInputError, match="of numbers"):
            call(segments)


class TestAffinity:
    """The affinity blurred_affinity blurs, as it is at sigma 0."""

    @staticmethod
    def affinity(x) -> np.ndarray:
        return blurred_affinity(x, 0.0)

    def test_identical_vectors(self):
        a = self.affinity(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert np.allclose(a, np.ones((2, 2)))

    def test_orthogonal_pair(self):
        a = self.affinity(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(a, np.zeros((2, 2)))

    def test_three_vector_example(self):
        s = 1 / math.sqrt(2)
        e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        mid = (e1 + e2) / np.linalg.norm(e1 + e2)
        a = self.affinity(np.stack([e1, e2, mid]))
        expected = np.array([[s, 0, s], [0, s, s], [s, s, s]])
        assert np.max(np.abs(a - expected)) < 1e-12

    def test_diagonal_is_row_max(self):
        rng = np.random.default_rng(30)
        a = self.affinity(rng.normal(size=(12, 5)))
        for i in range(12):
            off = np.delete(a[i], i)
            assert abs(a[i, i] - off.max()) <= 1e-15

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(9, 6))
        a = self.affinity(x)
        b = self.affinity(x * 41.5)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_too_few_embeddings_rejected(self):
        with pytest.raises(InvalidInputError, match="needs at least 2 segments"):
            self.affinity(np.array([[1.0, 0.0]]))

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInputError):
            self.affinity(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestThresholdSymmetrize:
    @staticmethod
    def mirrored(m: np.ndarray) -> np.ndarray:
        """m's upper triangle copied below it: exactly symmetric, signed zeros too."""
        return np.where(np.tri(len(m), k=-1, dtype=bool), m.T, m)

    # symmetric, and so is its threshold: per row, nearest-rank p50 = 0.5
    # and only 0.1 lies strictly below it
    SOFT_EXAMPLE = np.array([[0.9, 0.5, 0.1], [0.5, 0.1, 0.9], [0.1, 0.9, 0.5]])

    def test_soft_scaling(self):
        out = _threshold_symmetrize(self.SOFT_EXAMPLE.copy(), 50, 0.01)
        expected = np.array([[0.9, 0.5, 0.001], [0.5, 0.001, 0.9], [0.001, 0.9, 0.5]])
        assert np.max(np.abs(out - expected)) < 1e-15

    def test_hard_zeroing(self):
        out = _threshold_symmetrize(self.SOFT_EXAMPLE.copy(), 50, 0.0)
        assert np.array_equal(out, [[0.9, 0.5, 0.0], [0.5, 0.0, 0.9], [0.0, 0.9, 0.5]])

    def test_constant_rows_unchanged(self):
        m = np.full((4, 4), 0.7)
        for p in (10, 50, 95):
            assert np.array_equal(_threshold_symmetrize(m.copy(), p, 0.01), m)

    # in blocks of 2**16 entries 300 rows are two blocks and 1100 nineteen,
    # the last block of each short
    @pytest.mark.parametrize("soft", [0.0, 0.01, -0.5, 2.0])
    @pytest.mark.parametrize("p", [50.0, 95.0])
    @pytest.mark.parametrize("n", [1, 2, 7, _TILE + 1, 300, 1100])
    @pytest.mark.parametrize("repeated", [False, True])
    def test_bit_equal_to_threshold_then_symmetrize(self, soft, p, n, repeated):
        rng = np.random.default_rng(n)
        # entries of either sign and signed zeros, from few values, so every row
        # holds ties at its cut; or only three distinct rows, each repeated
        m = self.mirrored(rng.choice([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0], size=(n, n)))
        if repeated:
            kinds = rng.integers(0, min(3, n), n)
            m = m[np.ix_(kinds, kinds)]
        expected = symmetrize(sort_threshold(m, nearest_rank_index(p, n), soft)).tobytes()
        got = _threshold_symmetrize(m, p, soft)
        assert got is m
        assert got.tobytes() == expected

    @pytest.mark.parametrize("soft", [0.0, 0.01, -0.5, 2.0])
    def test_bit_equal_on_a_blurred_affinity(self, soft):
        rng = np.random.default_rng(34)
        b = blurred_affinity(rng.standard_normal((300, 8)), 1.0)
        expected = symmetrize(sort_threshold(b, nearest_rank_index(95.0, 300), soft)).tobytes()
        assert _threshold_symmetrize(b.copy(), 95.0, soft).tobytes() == expected


@st.composite
def factor_rows(draw) -> np.ndarray:
    """2-40 rows of 1-4 numbers drawn from a pool of at most 5 rows, so
    duplicate rows are common."""
    d = draw(st.integers(1, 4))
    component = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]) | st.floats(-1, 1)
    pool = draw(st.lists(st.tuples(*[component] * d), min_size=1, max_size=5))
    pool = [p for p in pool if max(map(abs, p)) > 1e-3] or [(1.0,) * d]
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=2, max_size=40)))


class TestBlurredAffinity:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(x=factor_rows(), sigma=st.sampled_from([0.0, 0.3, 1.0, 2.5]))
    def test_the_dense_blur_from_the_factor(self, x, sigma):
        # n below 2 radius + 1 (17 at sigma 2.5) reflects the kernel more than
        # once; the two round differently: at most 7.8e-16 over 30000 fuzzed cases
        b = blurred_affinity(x, sigma)
        assert b.flags.c_contiguous
        assert b.tobytes() == np.ascontiguousarray(b.T).tobytes()
        assert np.max(np.abs(b - blur(affinity(x), sigma))) <= 1e-15

    # the fuzzed rows stop at 40; these straddle the 64-row blocks of the row
    # maxima and gram's tiles of 128 and blocks of 256 rows
    @pytest.mark.parametrize("sigma", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("n", [63, 64, 65, _TILE - 1, _TILE, _TILE + 1,
                                   2 * _TILE - 1, 2 * _TILE, 2 * _TILE + 1, 300])
    def test_the_dense_blur_across_block_edges(self, n, sigma):
        # at most 3.5e-16 over these cases, at d = 8 and d = 64
        x = np.random.default_rng(n).standard_normal((n, 64))
        b = blurred_affinity(x, sigma)
        assert b.flags.c_contiguous
        assert b.tobytes() == np.ascontiguousarray(b.T).tobytes()
        assert np.max(np.abs(b - blur(affinity(x), sigma))) <= 1e-15

    def test_bad_sigma_rejected(self):
        for sigma in (-1.0, math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="sigma must be finite and >= 0"):
                blurred_affinity(np.eye(3), sigma)


class TestRefineChain:
    def test_block_matrix_fixed_point(self):
        e1, e2 = [1.0, 0.0], [0.0, 1.0]
        params = SpectralParams(sigma=0.0, p_percentile=50, soft_multiplier=0.0)
        stages = dict(refinement_stages(np.array([e1, e1, e2, e2]), params))
        # the affinity is the block matrix; blur(0) and threshold leave the
        # blocks; diffusion doubles them; row-max normalization rescales back
        # to the exact block matrix
        assert np.array_equal(stages["blur"], BLOCK)
        assert np.array_equal(stages["symmetrize"], BLOCK)
        assert np.array_equal(stages["diffuse"], 2 * BLOCK)
        assert np.array_equal(stages["refined"], BLOCK)

    def test_stage_names_and_one_matrix(self, monkeypatch):
        # the observer is a side channel: called once per stage, in order,
        # always with the one matrix, the last time with the one eigh solves
        x, params = np.random.default_rng(36).normal(size=(10, 4)), SpectralParams()
        plain = spectral_cluster(x, params)
        solved, stages = [], []
        original = diarkit.clustering.eigh

        def capture(m, *args, **kwargs):
            solved.append(m)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(diarkit.clustering, "eigh", capture)
        observed = spectral_cluster(x, params, observe=lambda name, m: stages.append((name, m)))
        assert observed.clustering.labels.tobytes() == plain.clustering.labels.tobytes()
        assert observed.clustering.k == plain.clustering.k
        assert observed.eigenvalues.tobytes() == plain.eigenvalues.tobytes()
        assert [name for name, _ in stages] == ["blur", "symmetrize", "diffuse", "refined"]
        assert all(m is stages[0][1] for _, m in stages)
        final = stages[-1][1]
        assert solved == [final] and solved[0] is final
        assert final.tobytes() == np.ascontiguousarray(final.T).tobytes()

    def test_bad_embeddings_rejected(self):
        bad = np.ones((4, 3))
        bad[1, 2] = np.inf
        for x, message in [(np.ones((1, 3)), "needs at least 2 segments"),
                           (bad, "non-finite")]:
            with pytest.raises(InvalidInputError, match=message):
                refinement_stages(x, SpectralParams())

    def test_neutral_settings_reduce_to_diffuse_normalize(self):
        rng = np.random.default_rng(37)
        x = rng.normal(size=(6, 3))
        params = SpectralParams(sigma=0.0, p_percentile=50, soft_multiplier=1.0)
        *_, (_, final) = refinement_stages(x, params)
        a = affinity(x)
        r = row_max_normalize(a @ a)
        assert np.max(np.abs(final - (r + r.T) * 0.5)) < 1e-12


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
    """The refinement chain's closing pass against row_max_normalize, then (R + Rᵀ)/2."""

    def test_hand_example(self):
        out = _row_max_normalize_symmetrize(np.array([[1.25, 1.0], [1.0, 1.25]]))
        assert np.allclose(out, [[1.0, 0.8], [0.8, 1.0]])

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [_TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1, None])
    def test_bit_equal_to_rownorm_then_symmetrize(self, synth_segments, n, order):
        stages = dict(refinement_stages(synth_segments[:n], SpectralParams()))
        y = np.array(stages["diffuse"], order=order)
        r = row_max_normalize(y)
        out = _row_max_normalize_symmetrize(y)
        assert np.shares_memory(out, y)
        assert out.tobytes() == ((r + r.T) * 0.5).tobytes()

    def test_errors_and_their_order(self):
        # the first row whose maximum is not positive is named, and y is left
        # as it was; the chain's matrices are finite by construction, so no
        # finiteness check runs here (non-finite embeddings are refused where
        # they enter: TestRefineChain::test_bad_embeddings_rejected)
        x = np.random.default_rng(52).uniform(0.1, 1.0, size=(_TILE + 1, 4))
        degenerate = x.copy()
        degenerate[_TILE] = 0.0  # row and column TILE of its Gram matrix are 0
        for bad, expected in [
            (gram(degenerate),
             (DegenerateAffinityError, f"row {_TILE} has max 0.000e+00 <= 0; cannot normalize")),
            (np.array([[1.0, -0.2], [-0.2, -0.1]]),
             (DegenerateAffinityError, "row 1 has max -1.000e-01 <= 0; cannot normalize")),
        ]:
            before = bad.copy(order="F")
            assert raised(_row_max_normalize_symmetrize, bad) == expected
            assert np.array_equal(bad, before)

    def test_stages_against_the_dense_stages(self, synth_segments):
        # each stage bit for bit from the one before it by its dense oracle,
        # the blur from the factor to a tolerance (see TestBlurredAffinity)
        params = SpectralParams()
        stages = refinement_stages(synth_segments, params)
        assert [name for name, _ in stages] == ["blur", "symmetrize", "diffuse", "refined"]
        (_, b), (_, s), (_, y), (_, refined) = stages
        assert np.max(np.abs(b - blur(affinity(synth_segments), params.sigma))) <= 1e-15
        kth = nearest_rank_index(params.p_percentile, len(b))
        assert s.tobytes() == symmetrize(sort_threshold(b, kth, params.soft_multiplier)).tobytes()
        assert np.asfortranarray(y).tobytes() == np.asfortranarray(s @ s.T).tobytes()
        r = row_max_normalize(y)
        assert refined.tobytes() == ((r + r.T) * 0.5).tobytes()

    @pytest.mark.parametrize("n", [_TILE - 1, _TILE + 1])
    def test_labels_are_kmeans_of_the_re_embedding(self, synth_segments, n):
        # normalized once, by kmeans: spectral_embed's rows go in as they are
        params = SpectralParams()
        x = synth_segments[:n]
        *_, (_, refined) = refinement_stages(x, params)
        decomp = eigh(refined, count=params.max_clusters + 1)
        k = estimate_k_eigengap(decomp.values, params.min_clusters, params.max_clusters)
        expected = kmeans(spectral_embed(decomp, k), k, seed=params.seed)
        got = spectral_cluster(x, params).clustering
        assert got.k == expected.k == k
        assert np.array_equal(got.labels, expected.labels)

    def test_spectral_cluster_solves_the_dense_chains_matrix(self, synth_segments):
        # the factored blur rounds differently from the dense chain, so the
        # eigenvalues agree to a tolerance, not bit for bit: they differed by at
        # most 2.8e-14 here (values up to 41), 35 times inside the bound
        params = SpectralParams()
        dense = dense_refined(synth_segments, params.sigma, params.p_percentile,
                              params.soft_multiplier)
        expected = eigh(dense, count=params.max_clusters + 1)
        k = estimate_k_eigengap(expected.values, params.min_clusters, params.max_clusters)
        got = spectral_cluster(synth_segments, params)
        assert np.max(np.abs(got.eigenvalues - expected.values)) <= 1e-12
        assert got.clustering.k == k
        assert np.array_equal(got.clustering.labels,
                              kmeans(spectral_embed(expected, k), k, seed=params.seed).labels)


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

    # rows summing to exactly zero: at k = 1 each restart keeps its seeded centroid
    ZERO_SUM_ROWS = ((1.0, 0.0), (-1.0, -0.0)) * 2 + ((0.8, 0.6), (-0.8, -0.6))

    @staticmethod
    def every_restart_at_k1(u, seed):
        rng = np.random.default_rng(seed)
        return [_lloyd(u, 1, rng, _MAX_ITERS, _TOL) for _ in range(_RESTARTS)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=lloyd_inputs(), seed=st.integers(0, 2**32 - 1))
    @example(case=(ZERO_SUM_ROWS, 1), seed=1)
    def test_best_run_at_k1_is_the_best_of_every_restart(self, case, seed):
        u = l2_normalize_rows(np.array(case[0], dtype=np.float64))
        labels, _, obj, _ = min(self.every_restart_at_k1(u, seed), key=lambda run: run[2])
        got_labels, got_obj = _best_run(u, 1, seed)
        assert np.array_equal(got_labels, labels)
        assert got_obj.hex() == obj.hex()

    def test_zero_sum_restarts_differ_at_k1(self):
        # where the rows' sum has no direction the seeded centroid survives, so
        # the restarts are not all alike: at seed 1 the first is not the best
        u = l2_normalize_rows(np.array(self.ZERO_SUM_ROWS))
        objectives = [run[2] for run in self.every_restart_at_k1(u, 1)]
        assert objectives[0] > min(objectives)
        assert _best_run(u, 1, 1)[1] == min(objectives)

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
        # the MSCD table of the search's runs
        rng = np.random.default_rng(43)
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        points, _ = planted_points(rng, q.T, per_cluster=15, noise_deg=5)
        k = estimate_k_elbow(points, 6, seed=3).k
        table = {kk: mscd for kk, (_, mscd) in enumerate(_elbow_runs(points, 6, 3), start=1)}
        drops = {kk: table[kk - 1] - table[kk] for kk in range(2, 7)}
        best = min(kk for kk in drops if drops[kk] == max(drops.values()))
        assert k == best

    def test_mscd_k1_closed_form(self):
        # one tight group: MSCD(1) is the squared mean cosine distance to it
        x = np.tile([1.0, 0.0], (12, 1))
        _, mscd = _elbow_runs(x, 2, 0)[0]
        assert mscd == 0.0

    def test_min_clusters_respected(self):
        x = np.array([[1.0, 0.0]] * 10 + [[-1.0, 0.0]] * 10)
        k = estimate_k_elbow(x, 5, min_clusters=3, seed=0).k
        assert 3 <= k <= 5

    def test_empty_range_rejected(self):
        with pytest.raises(InvalidInputError):
            estimate_k_elbow(np.eye(4), 2, min_clusters=3, seed=0)

    def test_max_clusters_above_n_rejected(self):
        with pytest.raises(InvalidInputError, match=r"max_clusters must lie in \[1, 3\], got 4"):
            estimate_k_elbow(np.eye(3), 4, seed=0)


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

    @pytest.mark.parametrize("per_cluster", [20, 40, 80])
    def test_exactly_repeated_embeddings(self, per_cluster):
        # three clusters of one vector each: the refined affinity repeats
        # eigenvalues (at 20 per cluster 19.40 twice, 18.42, 0.87, 0.25 twice,
        # then zeros), one of them at the edge of the nine pairs solved
        x = np.repeat(np.eye(3, 8), per_cluster, axis=0)
        params = SpectralParams()
        *_, (_, refined) = refinement_stages(x, params)
        dense = np.linalg.eigh(refined)[0][::-1][: params.max_clusters + 1]
        result = spectral_cluster(x, params)
        assert np.max(np.abs(result.eigenvalues - dense)) <= 1e-12 * dense[0]
        assert result.clustering.k == estimate_k_eigengap(dense, params.min_clusters,
                                                          params.max_clusters)

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
            *_, (_, refined) = refinement_stages(points, params)
            values, vectors = np.linalg.eigh(refined)
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

    def test_grid_is_spectral_cluster_per_config(self, monkeypatch):
        # two sigmas and three percentiles, interleaved: one blurred matrix
        # per sigma, built in first-seen order, each config solved in a copy
        rng = np.random.default_rng(51)
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        points, _ = planted_points(rng, q.T, per_cluster=40, noise_deg=30)
        grid = [SpectralParams(sigma=sigma, p_percentile=p, seed=0)
                for p in (50.0, 80.0, 95.0) for sigma in (1.0, 0.5)]
        built = []
        build = diarkit.clustering.blurred_affinity

        def counted(embeddings, sigma):
            built.append(sigma)
            return build(embeddings, sigma)

        monkeypatch.setattr(diarkit.clustering, "blurred_affinity", counted)
        results = spectral_grid(points, grid)
        monkeypatch.undo()
        assert built == [1.0, 0.5]
        assert len(results) == len(grid)
        for result, params in zip(results, grid):
            expected = spectral_cluster(points, params)
            assert result.clustering.k == expected.clustering.k
            assert result.clustering.labels.tobytes() == expected.clustering.labels.tobytes()
            assert result.eigenvalues.tobytes() == expected.eigenvalues.tobytes()

    def test_grid_edges(self):
        assert spectral_grid(np.eye(3), []) == []
        with pytest.raises(InvalidInputError, match="needs at least 2 segments"):
            spectral_grid(np.array([[1.0, 0.0]]), [SpectralParams()])

    def test_bounds_respected_on_random_inputs(self):
        rng = np.random.default_rng(49)
        for _ in range(10):
            n = int(rng.integers(2, 15))
            x = rng.normal(size=(n, 4))
            params = SpectralParams(min_clusters=2, max_clusters=5, seed=0)
            result = spectral_cluster(x, params)
            assert min(2, n) <= result.clustering.k <= min(5, n)


class TestPrecluster:
    def test_one_seeded_lloyd_run(self, monkeypatch):
        # two_stage_cluster's stage 1: stage 2 clusters the centroids of one
        # seeded _lloyd run on the unit rows, and _resegment starts from its labels
        monkeypatch.setattr(diarkit.clustering, "PRECLUSTER_COUNT", 30)
        clustered = []
        original = diarkit.clustering.spectral_cluster

        def capture(embeddings, *args):
            clustered.append(np.array(embeddings))
            return original(embeddings, *args)

        monkeypatch.setattr(diarkit.clustering, "spectral_cluster", capture)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 6))
        params = SpectralParams(seed=5)
        got = two_stage_cluster(x, params)
        u = l2_normalize_rows(x)
        want_labels, want_centroids, _, _ = _lloyd(u, 30, np.random.default_rng(5),
                                                   PRECLUSTER_ITERS, _TOL)
        (centroids,) = clustered
        assert np.array_equal(centroids, want_centroids)
        assert set(want_labels.tolist()) == set(range(30))
        assert np.allclose(np.linalg.norm(centroids, axis=1), 1.0, atol=1e-15)
        stage2 = original(centroids, SpectralParams(sigma=0.0, seed=5)).clustering
        want = _resegment(u, ClusteringResult(stage2.labels[want_labels]), 2)
        assert np.array_equal(got.labels, want.labels)

    def test_bad_arguments_rejected(self, monkeypatch):
        monkeypatch.setattr(diarkit.clustering, "PRECLUSTER_COUNT", 5)
        with pytest.raises(InvalidInputError, match="4 rows for 5 pre-cluster centroids"):
            two_stage_cluster(np.eye(4), SpectralParams())
        with pytest.raises(InvalidInputError, match="seed"):
            two_stage_cluster(np.eye(5), SpectralParams(seed=-1))

    def test_fewer_rows_than_centroids_rejected(self):
        x = np.random.default_rng(6).standard_normal((PRECLUSTER_COUNT - 1, 4))
        with pytest.raises(InvalidInputError, match=f"{PRECLUSTER_COUNT - 1} rows for "
                                                    f"{PRECLUSTER_COUNT} pre-cluster centroids"):
            two_stage_cluster(x, SpectralParams())


class TestResegment:
    @pytest.mark.parametrize("case", range(150))
    def test_matches_every_path_oracle(self, case):
        rng = np.random.default_rng(2000 + case)
        n, k, d = int(rng.integers(2, 8)), int(rng.integers(1, 4)), int(rng.integers(2, 6))
        k = min(k, n)
        labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        rng.shuffle(labels)
        x = rng.standard_normal((n, d)) + 2.0 * rng.standard_normal((k, d))[labels]
        got = _resegment(l2_normalize_rows(x), ClusteringResult(labels), 1)
        want = resegment_oracle(x, labels, RESEGMENT_PENALTY, RESEGMENT_ROUNDS)
        assert got.labels.tolist() == want
        assert got.k == max(want) + 1

    @pytest.mark.parametrize("case", range(200))
    def test_viterbi_stays_put_on_a_tie(self, case):
        # small integer scores: many paths tie exactly, and every total is exact
        rng = np.random.default_rng(case)
        n, k = int(rng.integers(1, 8)), int(rng.integers(1, 4))
        scores = rng.integers(0, 4, (n, k)).astype(np.float64)
        last = int(rng.integers(k))
        got = _viterbi(scores, RESEGMENT_PENALTY, last)
        assert got.tolist() == best_path_oracle(scores, RESEGMENT_PENALTY, last)

    def test_viterbi_hand_ties(self):
        # [0, 0], [0, 1] and [1, 1] all total 2: the last segment keeps its
        # label, and the first stays with it rather than change
        tied = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert _viterbi(tied, 2.0, 0).tolist() == [0, 0]
        assert _viterbi(tied, 2.0, 1).tolist() == [1, 1]
        # gaining more than the penalty changes label
        assert _viterbi(np.array([[0.0, 0.0], [0.0, 2.5]]), 2.0, 0).tolist() == [1, 1]
        assert _viterbi(np.array([[3.0, 0.0], [0.0, 2.5]]), 2.0, 0).tolist() == [0, 1]

    def test_every_row_on_its_centroid_leaves_labels(self):
        # R = 1 exactly: kappa has no finite value, so the labels stay as they are,
        # though a change of speaker at every segment costs the most
        x = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]] * 4)
        labels = np.array([0, 1] * 4)
        got = _resegment(l2_normalize_rows(x), ClusteringResult(labels), 1)
        assert got.labels.tolist() == labels.tolist()
        assert got.k == 2

    def test_no_cluster_with_a_direction_leaves_labels(self):
        # each cluster's rows cancel: R = 0 and kappa = 0 would score every label
        # alike, and the path would take the last segment's label throughout
        x = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        labels = np.array([0, 1, 0, 1])
        got = _resegment(l2_normalize_rows(x), ClusteringResult(labels), 1)
        assert got.labels.tolist() == labels.tolist()

    def test_one_cluster(self):
        x = np.random.default_rng(4).standard_normal((30, 5))
        got = _resegment(l2_normalize_rows(x), ClusteringResult(np.zeros(30, dtype=int)), 1)
        assert got.k == 1
        assert got.labels.tolist() == [0] * 30

    def test_an_emptied_cluster_goes_and_the_rest_are_renumbered(self):
        # segment 5, drawn around cluster 0's direction, alone is cluster 1: two
        # changes of speaker cost more than its better fit, so cluster 1 empties
        # and cluster 2 becomes 1
        rng = np.random.default_rng(0)
        a = np.array([1.0, 0.0, 0.0]) + 0.2 * rng.standard_normal((10, 3))
        b = np.array([0.0, 0.0, 1.0]) + 0.2 * rng.standard_normal((6, 3))
        x = np.vstack([a, b])
        labels = np.array([0] * 5 + [1] + [0] * 4 + [2] * 6)
        got = _resegment(l2_normalize_rows(x), ClusteringResult(labels), 1)
        assert got.labels.tolist() == [0] * 10 + [1] * 6
        assert got.k == 2
        # unless that takes k below min_clusters: then the round is not taken
        kept = _resegment(l2_normalize_rows(x), ClusteringResult(labels), 3)
        assert kept.labels.tolist() == labels.tolist()
        assert kept.k == 3
        # a bound the input does not meet lets no round lower k further
        assert _resegment(l2_normalize_rows(x), ClusteringResult(labels), 4).k == 3


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

    # the paper's multiplier is 0.01; above 1 (1e160 at n = 60) the diffusion
    # could overflow, so the range is checked here, where the chain's knobs enter
    @pytest.mark.parametrize("soft", [-0.01, 1.5, 1e160, math.inf, math.nan])
    def test_soft_multiplier_outside_the_unit_interval_rejected(self, soft):
        with pytest.raises(InvalidInputError, match=r"^soft_multiplier must lie in \[0, 1\], got "):
            SpectralParams(soft_multiplier=soft)

    def test_soft_multiplier_ends_accepted(self):
        assert [SpectralParams(soft_multiplier=v).soft_multiplier for v in (0, 1)] == [0, 1]

    def test_kmeans_params_invalid_rejected(self):
        x = np.eye(3)
        with pytest.raises(InvalidInputError, match="k must be >= 1, got 0"):
            kmeans(x, 0)
        for call in (lambda: kmeans(x, 2, seed=-1), lambda: estimate_k_elbow(x, 3, seed=-1)):
            with pytest.raises(InvalidInputError, match="seed must be >= 0, got -1"):
                call()


class TestNaiveOnline:
    @staticmethod
    def labels(rows, threshold: float) -> list[int]:
        return run_online(np.array(rows, dtype=np.float64), threshold).labels.tolist()

    def test_first_embedding_creates_cluster_zero(self):
        assert self.labels([[1.0, 0.0]], 0.5) == [0]

    def test_orthogonal_splits(self):
        e1, e2 = [1.0, 0.0], [0.0, 1.0]
        assert self.labels([e1, e1, e2], 0.5) == [0, 0, 1]

    def test_join_updates_centroid(self):
        # [1, 1] joins e1 (cos 0.7071 >= 0.5) and turns the centroid to 22.5
        # degrees, so the row at 80.5 degrees joins it too (cos 0.530); to e1
        # alone its cosine, 0.165, would found a second cluster
        late = [math.cos(math.radians(80.5)), math.sin(math.radians(80.5))]
        assert self.labels([[1.0, 0.0], late], 0.5) == [0, 1]
        assert self.labels([[1.0, 0.0], [1.0, 1.0], late], 0.5) == [0, 0, 0]

    def test_below_threshold_founds_new_cluster(self):
        assert self.labels([[1.0, 0.0], [1.0, 1.0]], 0.9) == [0, 1]  # cos = 0.7071 < 0.9

    def test_ties_go_to_lowest_label(self):
        # [1, 1] is equidistant from both centroids (cos 0 < 0.1 split them): it joins 0
        assert self.labels([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], 0.1) == [0, 1, 0]

    def test_prefix_property(self):
        rng = np.random.default_rng(50)
        stream = rng.normal(size=(40, 5))
        full_labels = self.labels(stream, 0.3)
        for cut in (1, 7, 23, 40):
            assert self.labels(stream[:cut], 0.3) == full_labels[:cut]

    def test_row_scale_does_not_change_labels(self):
        # rows are normalized once: only their directions count
        rng = np.random.default_rng(52)
        stream = rng.normal(size=(30, 4))
        scaled = stream * rng.uniform(1e-3, 1e3, size=(30, 1))
        assert self.labels(scaled, 0.3) == self.labels(stream, 0.3)

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInputError, match="^cannot normalize a zero vector$"):
            run_online(np.array([[1.0, 0.0], [0.0, 0.0]]), 0.5)

    @pytest.mark.parametrize("threshold", [1.0, -1.0, math.nan])
    def test_threshold_validated(self, threshold):
        with pytest.raises(InvalidInputError, match=r"^threshold must lie in \(-1, 1\), got "):
            run_online(np.eye(2), threshold)

    def test_run_online_dense_result(self):
        rng = np.random.default_rng(51)
        result = run_online(rng.normal(size=(20, 4)), 0.4)
        assert isinstance(result, ClusteringResult)
        assert set(result.labels.tolist()) == set(range(result.k))

    def test_one_cluster_when_every_row_joins_the_first(self):
        result = run_online(np.tile([1.0, 2.0, 0.5], (5, 1)), 0.5)
        assert result.k == 1
        assert result.labels.tolist() == [0] * 5

    @pytest.mark.parametrize("threshold", [-0.5, 0.0, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cached_norms_give_the_oracle_labels(self, threshold, seed):
        # each cluster sum's norm is kept and recomputed only when a row joins it
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        centers = rng.normal(size=(6, d))
        x = centers[rng.integers(6, size=300)] + rng.normal(scale=0.6, size=(300, d))
        assert self.labels(x, threshold) == online_oracle(x, threshold)


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
    # numpy's BLAS may split the sums of the Gram products and of the
    # eigensolver's matrix-vector products by thread count; a process's count
    # is fixed at its start, so each setting runs in its own interpreter.
    one, two = (
        json.loads(run_python(SPECTRAL_IN_CHILD, OPENBLAS_NUM_THREADS=threads))
        for threads in ("1", "2")
    )
    assert one["n"] == two["n"] == N_THREADED
    assert one["k"] == two["k"]
    assert one["labels"] == two["labels"]
    a, b = np.array(one["eigenvalues"]), np.array(two["eigenvalues"])
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(a))
