import math
import tracemalloc

import numpy as np
import pytest

from diarkit import (
    DEFAULT_MAX_CLUSTERS,
    ClusteringResult,
    DegenerateAffinityError,
    EigenDecomposition,
    InvalidInputError,
    KMeansParams,
    NaiveOnlineClusterer,
    SpectralParams,
    build_affinity,
    eigh,
    estimate_k_eigengap,
    estimate_k_elbow,
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
from diarkit.clustering import _lloyd, blurred_affinity, cluster_blurred
from diarkit.numerics import nearest_rank_index
from oracles import sort_threshold

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


class TestEstimateKEigengap:
    def test_two_block_values(self):
        floor = 1e-10
        values = [2.0, 2.0, floor, floor]
        assert estimate_k_eigengap(values, 1, 3, floor) == 2

    def test_all_equal_tie_breaks_small(self):
        assert estimate_k_eigengap([3.0, 3.0, 3.0, 3.0], 1, 3) == 1

    def test_gap_at_three(self):
        floor = 1e-10
        assert estimate_k_eigengap([3.0, 1.0, 0.9, floor], 2, 3, floor) == 3

    def test_denominator_clamped_at_floor(self):
        # negative tail would flip the ratio sign without clamping
        assert estimate_k_eigengap([2.0, 1.0, -0.5], 1, 2, 1e-10) == 2

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
        decomp = eigh(BLOCK)
        rows = spectral_embed(decomp, 1)
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
        result = kmeans(x, KMeansParams(k=2, seed=0))
        assert result.labels[0] == result.labels[1] != result.labels[2]

    def test_k1_single_cluster(self):
        rng = np.random.default_rng(40)
        result = kmeans(rng.normal(size=(8, 3)), KMeansParams(k=1, seed=0))
        assert result.k == 1
        assert np.array_equal(result.labels, np.zeros(8, dtype=int))

    def test_planted_orthogonal_recovery_every_seed(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
            points, truth = planted_points(rng, q.T, per_cluster=20, noise_deg=10)
            result = kmeans(points, KMeansParams(k=3, seed=seed))
            assert same_partition(result.labels, truth)

    def test_deterministic(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(30, 5))
        a = kmeans(x, KMeansParams(k=4, seed=9))
        b = kmeans(x, KMeansParams(k=4, seed=9))
        assert np.array_equal(a.labels, b.labels)

    def test_k_exceeding_points_rejected(self):
        with pytest.raises(InvalidInputError):
            kmeans(np.eye(3), KMeansParams(k=4))

    def test_missing_k_rejected(self):
        with pytest.raises(InvalidInputError):
            kmeans(np.eye(3), KMeansParams())

    def test_duplicate_points_still_fill_k_clusters(self):
        x = np.array([[1.0, 0.0]] * 5 + [[0.0, 1.0]])
        result = kmeans(x, KMeansParams(k=3, seed=0))
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


class TestEstimateKElbow:
    def test_antipodal_groups(self):
        x = np.array([[1.0, 0.0]] * 10 + [[-1.0, 0.0]] * 10)
        assert estimate_k_elbow(x, 4, KMeansParams(seed=0)).k == 2

    def test_identical_points_tie_break(self):
        x = np.array([[1.0, 0.0]] * 6)
        assert estimate_k_elbow(x, 4, KMeansParams(seed=0)).k == 2

    def test_agrees_with_numeric_mscd_table(self):
        # the chosen k must be the argmax of the backward differences of
        # the independently retrievable MSCD table
        rng = np.random.default_rng(43)
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)))
        points, _ = planted_points(rng, q.T, per_cluster=15, noise_deg=5)
        params = KMeansParams(seed=3)
        k = estimate_k_elbow(points, 6, params).k
        table = mscd_table(points, 6, params)
        drops = {kk: table[kk - 1] - table[kk] for kk in range(2, 7)}
        best = min(kk for kk in drops if drops[kk] == max(drops.values()))
        assert k == best

    def test_mscd_k1_closed_form(self):
        # one tight group: MSCD(1) is the squared mean cosine distance to it
        x = np.tile([1.0, 0.0], (12, 1))
        table = mscd_table(x, 2, KMeansParams(seed=0))
        assert table[1] == 0.0

    def test_min_clusters_respected(self):
        x = np.array([[1.0, 0.0]] * 10 + [[-1.0, 0.0]] * 10)
        k = estimate_k_elbow(x, 5, KMeansParams(seed=0), min_clusters=3).k
        assert 3 <= k <= 5

    def test_empty_range_rejected(self):
        with pytest.raises(InvalidInputError):
            estimate_k_elbow(np.eye(4), 2, KMeansParams(seed=0), min_clusters=3)

    def test_max_clusters_above_n_rejected(self):
        with pytest.raises(InvalidInputError):
            mscd_table(np.eye(3), 4, KMeansParams(seed=0))


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
            dense_k = estimate_k_eigengap(
                dense.values, params.min_clusters, params.max_clusters, params.eig_floor
            )
            dense_emb = spectral_embed(dense, dense_k)
            dense_labels = kmeans(dense_emb, KMeansParams(k=dense_k)).labels
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
            SpectralParams(eig_floor=0.0)
        with pytest.raises(InvalidInputError):
            SpectralParams(seed=-1)

    def test_kmeans_params_invalid_rejected(self):
        with pytest.raises(InvalidInputError):
            KMeansParams(k=0)
        with pytest.raises(InvalidInputError):
            KMeansParams(restarts=0)
        with pytest.raises(InvalidInputError):
            KMeansParams(max_iters=0)
        with pytest.raises(InvalidInputError):
            KMeansParams(seed=-1)


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
