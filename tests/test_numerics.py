import math
import re
import tracemalloc

import numpy as np
import pytest

from diarkit import (
    InvalidInputError,
    NumericError,
    SpectralParams,
)
from diarkit.clustering import _estimate_k_eigengap
from diarkit.numerics import (_TILE, blurred_gram, eigh, gram, l2_normalize_rows,
                              optimal_assignment, upper_tiles)
from helpers import refinement_stages
from oracles import (
    blur,
    brute_force_assignment,
    cosine_distance,
    cosine_similarity,
    direct_blur,
    nearest_rank_percentile,
    scipy_assignment_total,
)


def assert_one_syrk(g, x):
    """g is numpy's x @ x.T (one syrk, its triangle mirrored): bit for bit up to
    512 rows of x, within 1e-15 of its largest entry above that, where no
    block size from 64 to 1024 matched it bit for bit."""
    expected = x @ x.T
    if len(x) <= 512:
        assert np.asfortranarray(g).tobytes() == np.asfortranarray(expected).tobytes()
    else:
        assert np.max(np.abs(g - expected)) <= 1e-15 * np.max(np.abs(expected))


class TestL2NormalizeRows:
    def test_unit_output(self):
        u = l2_normalize_rows(np.array([[3.0, 4.0], [1.0, 0.0]]))
        assert np.allclose(u[0], [0.6, 0.8])
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0)

    def test_already_unit(self):
        rows = np.array([[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]])
        assert np.array_equal(l2_normalize_rows(rows), rows)

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 16, 17, 64, 256])
    def test_bit_identical_to_per_vector_norm(self, dim):
        # each row over np.linalg.norm of that row on its own, bit for bit
        rng = np.random.default_rng(dim)
        x = rng.standard_normal((2000, dim)) * rng.uniform(0.01, 100.0, (2000, 1))
        expected = np.stack([row / np.linalg.norm(np.array(row)) for row in x])
        assert l2_normalize_rows(x).tobytes() == expected.tobytes()

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


    # sizes on both sides of gram's 256-row block and of a short last block
    # joined to the one before (512 + 1..4 rows)
    @pytest.mark.parametrize("n", [*range(255, 261), *range(511, 517)])
    def test_in_place_equals_fresh(self, n):
        x = np.random.default_rng(n).uniform(0.0, 1.0, (n, n))
        fresh = gram(x)
        assert fresh.flags.f_contiguous
        y = x.copy()
        assert gram(y, out=y) is y
        assert y.tobytes() == fresh.tobytes()
        expected = x @ x.T
        assert np.max(np.abs(fresh - expected)) <= 1e-15 * np.max(expected)

    def test_identity_and_positive_semidefinite(self):
        assert np.array_equal(gram(np.eye(3)), np.eye(3))
        rng = np.random.default_rng(34)
        for _ in range(20):
            assert np.linalg.eigvalsh(gram(rng.normal(size=(8, 8)))).min() >= -1e-10

    @pytest.mark.parametrize("n", [1, _TILE + 1, 2 * _TILE + 1, 600])
    def test_out_is_the_input_or_another_matrix(self, n):
        # the refinement chain diffuses with out= its input: the same bits
        m = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
        before = m.tobytes()
        expected = gram(m).tobytes()
        other = np.empty((n, n), order="F")
        assert gram(m, out=other) is other
        assert other.tobytes() == expected
        assert m.tobytes() == before
        assert gram(m, out=m) is m
        assert np.asfortranarray(m).tobytes() == expected

    def test_in_place_makes_no_n_by_n_temporary(self):
        # tracemalloc peak at n = 2000: 0.13 n^2 of float64, the block of 256 rows
        n = 2000
        m = np.random.default_rng(2).uniform(0.0, 1.0, (n, n))
        tracemalloc.start()
        try:
            gram(m, out=m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.15 * 8 * n * n

    @pytest.mark.parametrize("n", [*range(255, 261), *range(511, 517)])
    def test_rows_by_dims_bit_equal_to_one_syrk(self, n):
        # the affinity's shape: n unit rows of d = 64
        x = l2_normalize_rows(np.random.default_rng(n).standard_normal((n, 64)))
        assert_one_syrk(gram(x), x)


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


class TestBlurredGram:
    """The 2-D blur of x xᵀ + diag(diagonal), built from the factor x."""

    def test_sigma_zero_is_the_gram_matrix_plus_the_diagonal(self):
        rng = np.random.default_rng(13)
        x, diagonal = rng.normal(size=(6, 3)), rng.normal(size=6)
        assert np.array_equal(blurred_gram(x, diagonal, 0.0), x @ x.T + np.diag(diagonal))

    def test_constant_matrix_preserved(self):
        x = np.full((5, 1), math.sqrt(3.25))
        for sigma in (0.5, 1.0, 2.0):
            assert np.max(np.abs(blurred_gram(x, np.zeros(5), sigma) - 3.25)) < 1e-12

    def test_center_impulse_value(self):
        # independently convolved by direct_blur: with reflected borders the
        # impulse re-enters the 7x7 support, so the center exceeds the bare
        # kernel center weight (0.15924112569070245)
        out = blurred_gram(np.zeros((3, 1)), np.array([0.0, 1.0, 0.0]), 1.0)
        assert abs(out[1, 1] - 0.16639576981137386) < 1e-12

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(14)
        # kernel radius ceil(3 sigma) >= the matrix size for the last five:
        # borders reflect repeatedly
        for size, sigma in ((7, 0.4), (7, 1.0), (7, 1.7), (1, 1.0), (2, 1.0), (3, 2.0),
                            (4, 1.7), (5, 3.0)):
            x, diagonal = rng.normal(size=(size, 3)), rng.normal(size=size)
            expected = direct_blur(x @ x.T + np.diag(diagonal), sigma)
            assert np.max(np.abs(blurred_gram(x, diagonal, sigma) - expected)) < 1e-10

    # 3 and 8 rows are the kernel radius ceil(3 sigma) of 1.0 and 2.5; 127-129
    # rows straddle a tile; 129 and 257 rows leave gram a last block of 1 row,
    # which joins the one before
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 127, 128, 129, 131, 197, 257, 300])
    @pytest.mark.parametrize("d", [1, 8])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_scipy_gaussian_filter(self, sigma, n, d, order):
        # the dense blur this one replaced was bit for bit scipy's filter; the
        # two round differently, by at most a few ulps of the largest entry
        # (5 over these cases). The factor's layout does not change a bit.
        rng = np.random.default_rng(n)
        x, diagonal = rng.uniform(-1.0, 1.0, (n, d)), rng.uniform(0.0, 1.0, n)
        dense = x @ x.T + np.diag(diagonal)
        b = blurred_gram(np.asarray(x, order=order), diagonal, sigma)
        assert b.tobytes() == b.T.tobytes()
        assert b.tobytes() == blurred_gram(np.ascontiguousarray(x), diagonal, sigma).tobytes()
        assert np.max(np.abs(b - blur(dense, sigma))) <= 8 * np.spacing(np.abs(dense).max())

    def test_negative_sigma_rejected(self):
        with pytest.raises(InvalidInputError):
            blurred_gram(np.eye(3), np.zeros(3), -1.0)


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
        values, _ = eigh(np.eye(3))
        assert np.allclose(values, [1, 1, 1])

    def test_diagonal(self):
        values, vectors = eigh(np.array([[2.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(values, [2, 1])
        assert np.allclose(np.abs(vectors), np.eye(2))

    def test_ones_matrix(self):
        # characteristic polynomial by hand: eigenvalues 2 and 0
        values, vectors = eigh(np.ones((2, 2)))
        assert np.allclose(values, [2.0, 0.0], atol=1e-12)
        top = vectors[:, 0]
        assert np.allclose(top, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-12)

    def test_descending_order(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(8, 8))
        values, _ = eigh(a + a.T)
        assert np.all(np.diff(values) <= 1e-12)

    def test_sign_convention(self):
        # bit for bit numpy's columns in descending order, each flipped, column
        # by column, when its first largest-magnitude entry is negative
        rng = np.random.default_rng(18)
        for _ in range(20):
            a = rng.normal(size=(6, 6))
            _, vectors = eigh(a + a.T)
            raw_values, raw = np.linalg.eigh(a + a.T)
            for j, i in enumerate(np.argsort(-raw_values, kind="stable")):
                col = vectors[:, j]
                assert col[int(np.argmax(np.abs(col)))] >= 0
                given = raw[:, i]
                expected = -given if given[int(np.argmax(np.abs(given)))] < 0 else given
                assert col.tobytes() == expected.tobytes()

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(2, 51))
            a = rng.normal(size=(n, n))
            m = a + a.T
            values, vectors = eigh(m)
            scale = max(1.0, np.max(np.abs(m)))
            # eigen residual
            residual = m @ vectors - vectors * values
            assert np.max(np.abs(residual)) <= 1e-8 * scale
            # orthonormal columns
            gram = vectors.T @ vectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-8
            # full reconstruction
            recon = (vectors * values) @ vectors.T
            assert np.max(np.abs(recon - m)) <= 1e-8 * scale
            # trace preservation
            assert abs(values.sum() - np.trace(m)) <= 1e-8 * scale

    def test_asymmetric_rejected(self):
        m = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            eigh(m)

    def test_tiny_asymmetry_tolerated(self):
        m = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
        eigh(m)

    # (n-1, n-2) lies in the last diagonal tile, (0, n-1) in the top right
    # tile, whose mirror is the bottom left
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


# Sizes around the edges of the square tiles that the transposed passes walk.
TILE_EDGES = [1, 2, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1, 700]


def symmetric(n: int) -> np.ndarray:
    b = np.random.default_rng(n).standard_normal((n, 3))
    m = b @ b.T
    return 0.5 * (m + m.T)


class TestTiledPasses:
    @pytest.mark.parametrize("n", TILE_EDGES)
    def test_tiles_and_mirrors_cover_each_entry_once(self, n):
        seen = np.zeros((n, n), dtype=int)
        for rows, cols in upper_tiles(n):
            seen[rows, cols] += 1
            if rows != cols:
                seen[cols, rows] += 1
        assert np.all(seen == 1)

    @pytest.mark.parametrize("n", TILE_EDGES)
    def test_gram_bitwise_symmetric(self, n):
        x = np.random.default_rng(n).standard_normal((n, 5))
        g = gram(x)
        assert g.flags.f_contiguous
        assert g.tobytes() == g.T.tobytes()
        assert_one_syrk(g, x)

    @pytest.mark.parametrize("n", TILE_EDGES[1:])  # an entry below the diagonal
    @pytest.mark.parametrize("where", ["corner", "tile_edge"])
    def test_eigh_check_reads_lower_tiles(self, n, where):
        # (n-1, 0) lies in the bottom left tile; (TILE, TILE-1) just below the
        # first diagonal tile; both below the diagonal for n <= TILE
        i, j = (n - 1, 0) if where == "corner" else (min(_TILE, n - 1), min(_TILE, n - 1) - 1)
        bad = symmetric(n)
        bad[i, j] += 1e-6
        text = f"matrix is asymmetric beyond tolerance ({abs(bad[i, j] - bad[j, i]):.3e})"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(text)}$"):
            eigh(bad)
        bad[i, j] = np.nan
        with pytest.raises(InvalidInputError, match="^matrix contains non-finite entries$"):
            eigh(bad)

    # the check reads finiteness from each tile's difference with its mirror
    @pytest.mark.parametrize("n", [5, 2 * _TILE + 1])
    @pytest.mark.parametrize(
        "entries",
        [
            {(-1, 0): np.inf, (0, -1): np.inf},  # inf - inf: a mirrored pair
            {(-1, 0): -np.inf, (0, -1): -np.inf},
            {(-1, 0): np.inf, (0, -1): -np.inf},
            {(0, -1): np.nan},  # above the diagonal only
            {(-1, 0): np.nan},  # below it only
            {(-1, -1): np.nan},  # on the diagonal
            {(-1, -1): np.inf},
            {(0, 0): -np.inf},
        ],
    )
    def test_eigh_check_finds_non_finite_entries(self, n, entries):
        bad = symmetric(n)
        for (i, j), value in entries.items():
            bad[i, j] = value
        for count in (None, 1):
            with pytest.raises(InvalidInputError, match="^matrix contains non-finite entries$"):
                eigh(bad, count=count)

    def test_eigh_check_non_finite_after_an_asymmetric_tile(self):
        # the first tile is asymmetric, the last holds a NaN: non-finite is reported
        n = 2 * _TILE + 1
        bad = symmetric(n)
        bad[1, 0] += 1.0
        bad[-1, -2] = np.nan
        with pytest.raises(InvalidInputError, match="^matrix contains non-finite entries$"):
            eigh(bad)
        bad[-1, -2] = bad[-2, -1]
        with pytest.raises(InvalidInputError, match="asymmetric"):
            eigh(bad)

    def test_eigh_check_finite_pair_whose_difference_overflows(self):
        # both entries are finite: asymmetric by inf, not non-finite, and no warning
        bad = np.zeros((3, 3))
        bad[0, 2], bad[2, 0] = 1e308, -1e308
        text = r"^matrix is asymmetric beyond tolerance \(inf\)$"
        with pytest.raises(InvalidInputError, match=text):
            eigh(bad)


def refined_affinity(n: int, seed: int) -> np.ndarray:
    """The refined affinity of n points around 4 centers, as spectral_cluster solves it."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((4, 16))
    x = centers[np.arange(n) * 4 // n] + 0.6 * rng.standard_normal((n, 16))
    *_, (_, refined) = refinement_stages(x, SpectralParams())
    return refined


@pytest.fixture(scope="module")
def large_refined():
    """A refined 4-cluster affinity with its full dense decomposition."""
    m = refined_affinity(1050, 21)
    return m, eigh(m)


class TestEighPartial:
    COUNT = 9

    def test_dense_path_returns_count_pairs(self, large_refined, monkeypatch):
        m, (dense, _) = large_refined
        assert dense.shape == (m.shape[0],)
        # count = n takes the dense path too: the full solve, as it is
        n = 60
        small = m[:n, :n]
        (full, full_vectors), (top, top_vectors) = eigh(small), eigh(small, count=n)
        assert top.shape == (n,)
        assert top_vectors.shape == (n, n)
        assert np.array_equal(top, full)
        assert np.array_equal(top_vectors, full_vectors)
        # and so does a count above the Lanczos step bound: its leading pairs
        monkeypatch.setattr("diarkit.numerics._LANCZOS_STEPS", self.COUNT - 1)
        capped, capped_vectors = eigh(small, count=self.COUNT)
        assert np.array_equal(capped, full[: self.COUNT])
        assert np.array_equal(capped_vectors, full_vectors[:, : self.COUNT])

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
        (a, a_vectors), (b, b_vectors) = results
        assert np.max(np.abs(a - b)) <= 1e-10
        assert np.max(np.abs(a_vectors - b_vectors)) <= 1e-10

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_both_paths_solve_the_lower_triangle(self, order):
        # an upper triangle off by less than the symmetry tolerance: the
        # partial and the dense path both solve the matrix its mirror gives
        m = refined_affinity(300, 26)
        lower = np.tril(m) + np.tril(m, -1).T
        skewed = np.array(lower + np.triu(np.full(m.shape, 5e-11), 1), order=order)
        exact = np.linalg.eigh(lower)[0][::-1][: self.COUNT]
        for values in (eigh(skewed, count=self.COUNT)[0], eigh(skewed)[0][: self.COUNT]):
            assert np.max(np.abs(values - exact)) <= 1e-12 * exact[0]

    @pytest.mark.parametrize("n", range(COUNT + 1, 61))
    def test_partial_solve_at_small_n(self, n, monkeypatch):
        m = refined_affinity(n, n)
        values, _ = eigh(m, count=self.COUNT)
        dense = np.linalg.eigh(m)[0][::-1][: self.COUNT]
        assert np.max(np.abs(values - dense)) <= 1e-10
        assert _estimate_k_eigengap(values, 2, 8) == _estimate_k_eigengap(dense, 2, 8)
        # it was the partial solver: held to as many Lanczos steps as pairs
        # wanted, it does not converge
        monkeypatch.setattr("diarkit.numerics._LANCZOS_STEPS", self.COUNT)
        with pytest.raises(NumericError, match=f"no convergence in {self.COUNT} steps$"):
            eigh(m, count=self.COUNT)

    def assert_matches_dense(self, m, count=COUNT):
        values, vectors = eigh(m, count=count)
        dense = np.linalg.eigh(m)[0][::-1][:count]
        scale = max(1.0, dense[0])
        assert np.max(np.abs(values - dense)) <= 1e-12 * scale
        assert np.max(np.abs(m @ vectors - vectors * values)) <= 1e-8 * scale
        assert np.max(np.abs(vectors.T @ vectors - np.eye(count))) <= 1e-8

    def test_every_eigenvalue_doubled(self):
        # two equal blocks: each eigenvalue twice, one copy in each block; a
        # Krylov space started from ones stays symmetric across them, and
        # would miss every second copy
        block = refined_affinity(150, 31)
        m = np.zeros((300, 300))
        m[:150, :150] = m[150:, 150:] = block
        self.assert_matches_dense(m)

    def test_gram_of_three_exact_clusters(self):
        # rank 3: the Krylov space is invariant after three steps (breakdown),
        # and the six zero eigenvalues come from fresh start vectors
        centers = np.random.default_rng(3).standard_normal((3, 16))
        x = np.repeat(centers, [40, 50, 60], axis=0)
        self.assert_matches_dense(x @ x.T)

    @pytest.mark.parametrize("diagonal, count", [
        # 36 distinct eigenvalues: a Krylov space is invariant after 36 steps,
        # the first check (4 per pair wanted), with the second 36 not found yet
        (np.r_[np.arange(1.0, 37.0), 36.0], 9),
        ([9.0, 9, 8, 7, 6, 5, 4, 3, 2], 2),
        # every eigenvalue twice beside 600 zeros: the second copies appear only
        # after some 70 steps, and only while the basis stays orthogonal
        (np.r_[np.arange(1.0, 37.0), np.arange(1.0, 37.0), np.zeros(600)], 9),
    ], ids=["36-and-36-again", "9-twice", "each-twice-and-zeros"])
    def test_diagonal_with_repeated_eigenvalues(self, diagonal, count):
        self.assert_matches_dense(np.diag(diagonal), count)

    def test_residual_and_orthonormality(self, large_refined):
        m, _ = large_refined
        values, vectors = eigh(m, count=self.COUNT)
        assert values.shape == (self.COUNT,)
        assert vectors.shape == (m.shape[0], self.COUNT)
        scale = max(1.0, np.max(np.abs(m)))
        residual = m @ vectors - vectors * values
        assert np.max(np.abs(residual)) <= 1e-8 * scale
        gram = vectors.T @ vectors
        assert np.max(np.abs(gram - np.eye(self.COUNT))) <= 1e-8

    def test_matches_dense(self, large_refined):
        m, (dense, _) = large_refined
        values, _ = eigh(m, count=self.COUNT)
        assert np.all(np.diff(values) <= 0)
        assert np.max(np.abs(values - dense[: self.COUNT])) <= 1e-10

    def test_sign_convention(self, large_refined):
        m, _ = large_refined
        _, vectors = eigh(m, count=self.COUNT)
        for j in range(self.COUNT):
            col = vectors[:, j]
            assert col[int(np.argmax(np.abs(col)))] >= 0

    def test_bit_identical_repeats(self, large_refined):
        m, _ = large_refined
        a, a_vectors = eigh(m, count=self.COUNT)
        b, b_vectors = eigh(m, count=self.COUNT)
        assert np.array_equal(a, b)
        assert np.array_equal(a_vectors, b_vectors)

    def test_count_out_of_range_rejected(self):
        for count in (0, -1, 4):
            with pytest.raises(InvalidInputError):
                eigh(np.eye(3), count=count)

    def test_non_convergence_is_numeric_error(self, large_refined, monkeypatch):
        monkeypatch.setattr("diarkit.numerics._LANCZOS_STEPS", 12)
        m, _ = large_refined
        with pytest.raises(NumericError, match="^eigen-decomposition failed: no convergence in "
                                               "12 steps$"):
            eigh(m, count=self.COUNT)


class TestOptimalAssignment:
    def test_maximize_example(self):
        pairs = optimal_assignment([[5, 1], [2, 4]])
        assert set(pairs) == {(0, 0), (1, 1)}

    def test_identity_weights(self):
        pairs = optimal_assignment(np.eye(4))
        assert set(pairs) == {(i, i) for i in range(4)}

    def test_antidiagonal(self):
        pairs = optimal_assignment([[0, 9], [9, 0]])
        assert set(pairs) == {(0, 1), (1, 0)}

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            r = int(rng.integers(1, 7))
            c = int(rng.integers(1, 7))
            m = rng.normal(size=(r, c))
            pairs = optimal_assignment(m)
            assert len(pairs) == min(r, c)
            total = sum(m[i, j] for i, j in pairs)
            assert abs(total - brute_force_assignment(m)) < 1e-9

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            optimal_assignment([[np.nan, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("weights", [[1.0, 2.0], np.zeros((0, 3)), np.ones((2, 2, 2))],
                             ids=["1d", "empty", "3d"])
    def test_malformed_shapes_rejected(self, weights):
        with pytest.raises(InvalidInputError, match="^expected a non-empty 2-D matrix"):
            optimal_assignment(weights)

    def test_shift_and_power_of_two_scale_keep_the_pairs(self):
        # every full matching has min(r, c) edges: one constant added to every
        # weight, or an exact rescaling, cannot move the optimum
        rng = np.random.default_rng(26)
        for shape in [(4, 4), (3, 6), (6, 3)]:
            m = rng.integers(-1000, 1000, size=shape).astype(np.float64)
            pairs = optimal_assignment(m)
            assert optimal_assignment(m + 2.0**40) == pairs
            assert optimal_assignment(m - 7.0) == pairs
            assert optimal_assignment(m * 2.0**-30) == pairs

    def test_transpose_swaps_the_pairs(self):
        # real weights: the optimum is unique, so the transposed matrix's
        # pairs are the same edges read from the other side
        rng = np.random.default_rng(27)
        for shape in [(5, 5), (2, 7), (7, 2)]:
            m = rng.normal(size=shape)
            swapped = sorted((j, i) for i, j in optimal_assignment(m))
            assert optimal_assignment(m.T) == swapped

    @staticmethod
    def assert_optimal(m):
        """min(r, c) pairs, rows ascending, columns distinct, and the oracle's
        total: exactly on integer matrices, on real ones within 1e-9 of the
        largest total one could reach."""
        m = np.asarray(m, dtype=np.float64)
        pairs = optimal_assignment(m)
        rows = [i for i, _ in pairs]
        cols = [j for _, j in pairs]
        assert len(pairs) == min(m.shape)
        assert rows == sorted(set(rows))
        assert len(set(cols)) == len(cols)
        assert all(0 <= i < m.shape[0] and 0 <= j < m.shape[1] for i, j in pairs)
        total = sum(m[i, j] for i, j in pairs)
        best = scipy_assignment_total(m)
        if np.array_equal(m, np.round(m)):
            assert total == best
        else:
            assert abs(total - best) <= 1e-9 * min(m.shape) * np.abs(m).max()

    def test_random_real_and_integer_matrices_match_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            shape = tuple(int(s) for s in rng.integers(1, 9, size=2))
            self.assert_optimal(rng.normal(scale=10.0, size=shape))
            # overlaps in 1e-7 s ticks: up to 20 minutes of speech per pair
            self.assert_optimal(rng.integers(0, 12 * 10**9, size=shape))

    def test_ties(self):
        rng = np.random.default_rng(22)
        self.assert_optimal(np.zeros((5, 5)))
        self.assert_optimal(np.zeros((3, 7)))
        base = rng.integers(0, 5, size=(3, 4))
        self.assert_optimal(base[[0, 0, 1, 1, 2]])  # duplicate rows
        self.assert_optimal(base[:, [0, 1, 1, 3, 3, 2]])  # duplicate columns
        self.assert_optimal(np.full((4, 6), 7.0))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (3, 5), (5, 3), (2, 9), (9, 2)])
    def test_shapes(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        self.assert_optimal(rng.normal(size=shape))
        self.assert_optimal(rng.integers(-9, 10, size=shape))

    def test_negative_costs(self):
        rng = np.random.default_rng(23)
        for shape in [(4, 4), (3, 6), (6, 3)]:
            self.assert_optimal(-rng.uniform(1.0, 100.0, size=shape))
            self.assert_optimal(rng.integers(-50, -1, size=shape))
            self.assert_optimal(rng.integers(-50, 50, size=shape))

    @pytest.mark.parametrize("speakers", [120, 1002])
    def test_naive_clusterer_overlap_size(self, speakers):
        # a 4-speaker reference against the naive clusterer's hypothesis
        # speakers (about 120 on a 5-min synth, 1002 on a noisy 20-min one):
        # each reference speaker's ticks spread over a third of them
        rng = np.random.default_rng(24)
        overlap = np.zeros((4, speakers))
        for row in overlap:
            cols = rng.choice(speakers, size=speakers // 3, replace=False)
            row[cols] = rng.integers(1, 3 * 10**8, size=speakers // 3)
        for m in (overlap, overlap.T):
            self.assert_optimal(m)
            assert optimal_assignment(m) == optimal_assignment(m)

    def test_spans_at_the_ends_of_the_float_range(self):
        # the solver's costs are the weights' distances below their maximum,
        # and its potentials reach (min(r, c) + 1) times their span: a span
        # beyond the float range, or far below the weights' magnitude
        rng = np.random.default_rng(25)
        for shape in [(2, 2), (2, 5), (5, 2)] * 3:  # two pairs: the totals stay finite
            self.assert_optimal(rng.uniform(-8e307, 8e307, size=shape))
        self.assert_optimal([[0.0, 1e-17], [1e-17, 0.0]])
        self.assert_optimal([[1e15, 1e15 + 1], [1e15 + 1, 1e15]])
