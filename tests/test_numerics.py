import math
import tracemalloc

import numpy as np
import pytest

from scipy.sparse.linalg import ArpackNoConvergence, eigsh

import diarkit.numerics
from diarkit import (
    InvalidInputError,
    NumericError,
    SpectralParams,
    build_affinity,
    cosine_distance,
    cosine_similarity,
    eigh,
    estimate_k_eigengap,
    gaussian_blur,
    l2_normalize,
    nearest_rank_percentile,
    optimal_assignment,
    refine_stages,
)
from diarkit.numerics import gram, l2_normalize_rows
from oracles import brute_force_assignment, direct_blur


class TestL2Normalize:
    def test_unit_output(self):
        v = l2_normalize([3.0, 4.0])
        assert np.allclose(v, [0.6, 0.8])

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInputError):
            l2_normalize([0.0, 0.0])

    def test_already_unit(self):
        v = l2_normalize([1.0, 0.0])
        assert np.array_equal(v, [1.0, 0.0])


class TestL2NormalizeRows:
    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 16, 17, 64, 256])
    def test_bit_identical_to_per_vector_norm(self, dim):
        # each row over np.linalg.norm of that row on its own, bit for bit
        rng = np.random.default_rng(dim)
        x = rng.standard_normal((2000, dim)) * rng.uniform(0.01, 100.0, (2000, 1))
        expected = np.stack([row / np.linalg.norm(np.array(row)) for row in x])
        assert l2_normalize_rows(x).tobytes() == expected.tobytes()
        assert l2_normalize(x[0]).tobytes() == expected[0].tobytes()

    def test_zero_row_rejected(self):
        with pytest.raises(InvalidInputError):
            l2_normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestGram:
    @pytest.mark.parametrize(
        "layout",
        [
            lambda x: x,
            np.asfortranarray,
            lambda x: np.repeat(np.repeat(x, 2, axis=0), 3, axis=1)[::2, ::3],
        ],
        ids=["c_order", "f_order", "strided"],
    )
    # 300 rows take more than one block of the triangle copy
    @pytest.mark.parametrize("shape", [(40, 7), (33, 33), (5, 64), (300, 5)])
    def test_equals_matmul(self, layout, shape):
        x = np.random.default_rng(shape[0]).standard_normal(shape) * 3.0
        expected = x @ x.T
        g = gram(layout(x.copy()))
        assert g.shape == expected.shape
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(g - expected)) <= 1e-12 * scale


class TestCosineSimilarity:
    def test_identical_vectors(self):
        assert cosine_similarity([1, 0], [1, 0]) == 1.0

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_45_degrees(self):
        # 1/sqrt(2), hand-computed
        assert abs(cosine_similarity([1, 1], [1, 0]) - 0.7071067811865475) < 1e-12

    def test_clamped_to_range(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = rng.normal(size=8)
            s = cosine_similarity(a, a * 7.3)
            assert -1.0 <= s <= 1.0
            assert abs(s - 1.0) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(InvalidInputError):
            cosine_similarity([0, 0], [1, 0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            cosine_similarity([1, 0], [1, 0, 0])


class TestCosineDistance:
    def test_identical(self):
        assert cosine_distance([1, 0], [1, 0]) == 0.0

    def test_antipodal(self):
        assert cosine_distance([1, 0], [-1, 0]) == 1.0

    def test_45_degrees(self):
        # (1 - 1/sqrt(2)) / 2, hand-computed
        assert abs(cosine_distance([1, 1], [1, 0]) - 0.14644660940672624) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            d = cosine_distance(rng.normal(size=5), rng.normal(size=5))
            assert 0.0 <= d <= 1.0


class TestGaussianBlur:
    def test_sigma_zero_is_identity(self):
        rng = np.random.default_rng(13)
        m = rng.normal(size=(6, 6))
        assert np.array_equal(gaussian_blur(m, 0.0), m)

    def test_constant_matrix_preserved(self):
        m = np.full((5, 5), 3.25)
        for sigma in (0.5, 1.0, 2.0):
            assert np.max(np.abs(gaussian_blur(m, sigma) - 3.25)) < 1e-12

    def test_center_impulse_value(self):
        # independently convolved by direct_blur: with reflected borders the
        # impulse re-enters the 7x7 support, so the center exceeds the bare
        # kernel center weight (0.15924112569070245)
        m = np.zeros((3, 3))
        m[1, 1] = 1.0
        out = gaussian_blur(m, 1.0)
        assert abs(out[1, 1] - 0.16639576981137386) < 1e-12

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(14)
        for sigma in (0.4, 1.0, 1.7):
            m = rng.normal(size=(7, 7))
            assert np.max(np.abs(gaussian_blur(m, sigma) - direct_blur(m, sigma))) < 1e-10
        # kernel radius ceil(3 sigma) >= the matrix size: borders reflect repeatedly
        for size, sigma in ((1, 1.0), (2, 1.0), (3, 2.0), (4, 1.7), (5, 3.0)):
            m = rng.normal(size=(size, size))
            assert np.max(np.abs(gaussian_blur(m, sigma) - direct_blur(m, sigma))) < 1e-10

    def test_linear(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(6, 6))
        y = rng.normal(size=(6, 6))
        lhs = gaussian_blur(2.5 * x + 0.3 * y, 1.0)
        rhs = 2.5 * gaussian_blur(x, 1.0) + 0.3 * gaussian_blur(y, 1.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_kernel_radius_exceeding_matrix_size(self):
        # sigma=2 -> radius 6 on a 3x3 input must still work and keep constants
        m = np.full((3, 3), 1.5)
        assert np.max(np.abs(gaussian_blur(m, 2.0) - 1.5)) < 1e-12

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidInputError):
            gaussian_blur(np.eye(3), -1.0)


class TestNearestRankPercentile:
    def test_median_of_three(self):
        # ceil(0.5 * 3) - 1 = 1
        assert nearest_rank_percentile([0.1, 0.5, 0.9], 50) == 0.5

    def test_singleton(self):
        for p in (0, 17.5, 50, 100):
            assert nearest_rank_percentile([7.0], p) == 7.0

    def test_p100_is_max(self):
        assert nearest_rank_percentile([0.1, 0.5, 0.9], 100) == 0.9

    def test_p0_clamps_to_min(self):
        assert nearest_rank_percentile([0.9, 0.1, 0.5], 0) == 0.1

    def test_unsorted_input(self):
        assert nearest_rank_percentile([0.9, 0.1, 0.5], 50) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            nearest_rank_percentile([], 50)

    def test_out_of_range_p_rejected(self):
        with pytest.raises(InvalidInputError):
            nearest_rank_percentile([1.0], 101)
        with pytest.raises(InvalidInputError):
            nearest_rank_percentile([1.0], -1)

    def test_matches_sorted_indexing_on_random_rows(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            row = rng.normal(size=n)
            p = float(rng.uniform(0, 100))
            expected = np.sort(row)[min(n - 1, max(0, math.ceil(p / 100 * n) - 1))]
            assert nearest_rank_percentile(row, p) == expected


class TestEigh:
    def test_identity(self):
        d = eigh(np.eye(3))
        assert np.allclose(d.values, [1, 1, 1])

    def test_diagonal(self):
        d = eigh(np.array([[2.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(d.values, [2, 1])
        assert np.allclose(np.abs(d.vectors), np.eye(2))

    def test_ones_matrix(self):
        # characteristic polynomial by hand: eigenvalues 2 and 0
        d = eigh(np.ones((2, 2)))
        assert np.allclose(d.values, [2.0, 0.0], atol=1e-12)
        top = d.vectors[:, 0]
        assert np.allclose(top, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)

    def test_descending_order(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(8, 8))
        d = eigh(a + a.T)
        assert np.all(np.diff(d.values) <= 1e-12)

    def test_sign_convention(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            a = rng.normal(size=(6, 6))
            d = eigh(a + a.T)
            for j in range(6):
                col = d.vectors[:, j]
                assert col[int(np.argmax(np.abs(col)))] >= 0

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 51))
            a = rng.normal(size=(n, n))
            m = a + a.T
            d = eigh(m)
            scale = max(1.0, np.max(np.abs(m)))
            # eigen residual
            residual = m @ d.vectors - d.vectors * d.values
            assert np.max(np.abs(residual)) <= 1e-8 * scale
            # orthonormal columns
            gram = d.vectors.T @ d.vectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-8
            # full reconstruction
            recon = (d.vectors * d.values) @ d.vectors.T
            assert np.max(np.abs(recon - m)) <= 1e-8 * scale
            # trace preservation
            assert abs(d.values.sum() - np.trace(m)) <= 1e-8 * scale

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            eigh(m)

    def test_tiny_asymmetry_tolerated(self):
        m = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
        eigh(m)

    # in blocks of 2**16 entries: two row blocks at n = 257 and nineteen at
    # n = 1100; (n-1, n-2) lies in the last block only, (0, n-1) off the
    # diagonal blocks
    @pytest.mark.parametrize("n", [257, 1100])
    @pytest.mark.parametrize("i, j", [(-1, -2), (0, -1)], ids=["last_block", "off_diagonal"])
    def test_asymmetry_found_in_any_row_block(self, n, i, j):
        rng = np.random.default_rng(n)
        b = rng.standard_normal((n, 3))
        m = b @ b.T
        m = 0.5 * (m + m.T)
        bad = m.copy()
        bad[i, j] += 1e-6
        with pytest.raises(InvalidInputError, match="asymmetric"):
            eigh(bad, count=1)
        m[i, j] += 1e-12
        eigh(m, count=1)


def refined_affinity(n: int, seed: int) -> np.ndarray:
    """The symmetrized refined affinity of n points around 4 centers."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((4, 16))
    x = centers[np.arange(n) * 4 // n] + 0.6 * rng.standard_normal((n, 16))
    refined = dict(refine_stages(build_affinity(x), SpectralParams()))["rownorm"]
    return 0.5 * (refined + refined.T)


@pytest.fixture(scope="module")
def large_refined():
    """A refined 4-cluster affinity with its full dense decomposition."""
    m = refined_affinity(1050, 21)
    return m, eigh(m)


class TestEighPartial:
    COUNT = 9

    def test_dense_path_returns_count_pairs(self, large_refined):
        m, dense = large_refined
        assert dense.values.shape == (m.shape[0],)
        # count = n takes the dense path too: the full solve, as it is
        n = 60
        small = m[:n, :n]
        full, top = eigh(small), eigh(small, count=n)
        assert top.values.shape == (n,)
        assert top.vectors.shape == (n, n)
        assert np.array_equal(top.values, full.values)
        assert np.array_equal(top.vectors, full.vectors)

    def test_c_and_f_order_agree_without_copy(self):
        n = 1500
        c = refined_affinity(n, 22)
        results = []
        for m in (c, np.asfortranarray(c)):
            tracemalloc.start()
            try:
                results.append(eigh(m, count=self.COUNT))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # the matvec reads the input where it lies: no n x n copy
            assert peak <= 0.1 * 8 * n * n
        a, b = results
        assert np.max(np.abs(a.values - b.values)) <= 1e-10
        assert np.max(np.abs(a.vectors - b.vectors)) <= 1e-10

    @pytest.mark.parametrize("n", range(COUNT + 1, 61))
    def test_partial_solve_at_small_n(self, n, monkeypatch):
        arpack_calls = []

        def counted_eigsh(*args, **kwargs):
            arpack_calls.append(n)
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(diarkit.numerics, "eigsh", counted_eigsh)
        m = refined_affinity(n, n)
        d = eigh(m, count=self.COUNT)
        assert arpack_calls == [n]
        dense = np.linalg.eigh(m)[0][::-1][: self.COUNT]
        assert np.max(np.abs(d.values - dense)) <= 1e-10
        assert estimate_k_eigengap(d.values, 2, 8) == estimate_k_eigengap(dense, 2, 8)

    def test_residual_and_orthonormality(self, large_refined):
        m, _ = large_refined
        d = eigh(m, count=self.COUNT)
        assert d.values.shape == (self.COUNT,)
        assert d.vectors.shape == (m.shape[0], self.COUNT)
        scale = max(1.0, np.max(np.abs(m)))
        residual = m @ d.vectors - d.vectors * d.values
        assert np.max(np.abs(residual)) <= 1e-8 * scale
        gram = d.vectors.T @ d.vectors
        assert np.max(np.abs(gram - np.eye(self.COUNT))) <= 1e-8

    def test_matches_dense(self, large_refined):
        m, dense = large_refined
        d = eigh(m, count=self.COUNT)
        assert np.all(np.diff(d.values) <= 0)
        assert np.max(np.abs(d.values - dense.values[: self.COUNT])) <= 1e-10

    def test_sign_convention(self, large_refined):
        m, _ = large_refined
        d = eigh(m, count=self.COUNT)
        for j in range(self.COUNT):
            col = d.vectors[:, j]
            assert col[int(np.argmax(np.abs(col)))] >= 0

    def test_bit_identical_repeats(self, large_refined):
        m, _ = large_refined
        a = eigh(m, count=self.COUNT)
        b = eigh(m, count=self.COUNT)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)

    def test_count_out_of_range_rejected(self):
        for count in (0, -1, 4):
            with pytest.raises(InvalidInputError):
                eigh(np.eye(3), count=count)

    def test_non_convergence_is_numeric_error(self, large_refined, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(diarkit.numerics, "eigsh", no_convergence)
        m, _ = large_refined
        with pytest.raises(NumericError):
            eigh(m, count=self.COUNT)


class TestOptimalAssignment:
    def test_maximize_example(self):
        pairs = optimal_assignment([[5, 1], [2, 4]], maximize=True)
        assert set(pairs) == {(0, 0), (1, 1)}

    def test_identity_weights(self):
        pairs = optimal_assignment(np.eye(4), maximize=True)
        assert set(pairs) == {(i, i) for i in range(4)}

    def test_antidiagonal(self):
        pairs = optimal_assignment([[0, 9], [9, 0]], maximize=True)
        assert set(pairs) == {(0, 1), (1, 0)}

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            r = int(rng.integers(1, 7))
            c = int(rng.integers(1, 7))
            m = rng.normal(size=(r, c))
            for maximize in (False, True):
                pairs = optimal_assignment(m, maximize=maximize)
                assert len(pairs) == min(r, c)
                total = sum(m[i, j] for i, j in pairs)
                best = brute_force_assignment(m, maximize)
                assert abs(total - best) < 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            optimal_assignment([[np.nan, 1.0], [1.0, 0.0]])
