"""Vector and matrix primitives used across the pipeline.

Unit rows, Gram products and the eigensolver's matvec on scipy's BLAS
(not numpy's: two OpenBLAS thread pools slow each other, see README), the
2-D Gaussian blur of a Gram matrix from its factor, the nearest-rank
percentile index, symmetric eigen-decomposition (full, or partial top-k
when fewer than all pairs are asked for) with a deterministic
ordering/sign convention, and maximum-weight assignment
(scipy.sparse.csgraph's matching). Both eigensolver paths read the lower
triangle of their input only. The n x n passes work in row blocks or tiles,
and the Gram product can write into its own input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.linalg.blas import dgemm, dsymv, dsyrk
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .core import InvalidInputError, NumericError

# Norms below this are treated as zero vectors (no meaningful direction).
ZERO_NORM_TOL = 1e-12


def l2_normalize_rows(x: np.ndarray) -> np.ndarray:
    """Each row of a finite (m, d) matrix divided by its L2 norm, in one pass.
    Raises InvalidInputError if a row's norm is below ZERO_NORM_TOL.

    Bit for bit row / np.linalg.norm(row), row by row: the stacked product
    takes each row's squared norm with the dot product np.linalg.norm uses
    on one vector (np.linalg.norm(x, axis=1) sums in another order, and its
    last bits differ).
    """
    norms = np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])
    if np.any(norms < ZERO_NORM_TOL):
        raise InvalidInputError("cannot normalize a zero vector")
    return x / norms[:, None]


def _gaussian_weights(sigma: float) -> np.ndarray:
    """The truncated, normalized Gaussian kernel at offsets 0..ceil(3*sigma); the
    kernel is symmetric. At most 1e-15, scipy.ndimage's cut-off, it is [1.0]."""
    if sigma <= 1e-15:
        return np.ones(1)
    radius = math.ceil(3 * sigma)
    offsets = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * offsets**2)
    return (kernel / kernel.sum())[radius:]


def _reflected(lo: int, hi: int, n: int) -> np.ndarray:
    """Indices lo..hi-1 mapped into [0, n) by reflection, repeated as often as
    needed (-1 -> 0, n -> n - 1)."""
    i = np.arange(lo, hi) % (2 * n)
    return np.where(i < n, i, 2 * n - 1 - i)


def _correlate_symmetric(padded: np.ndarray, weights: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out_i = w_0 x_i + sum over j of (x_{i-j} + x_{i+j}) w_j down axis 0, where
    padded holds len(weights) - 1 extra rows at each end. The pairs are added
    from the farthest in, the sum scipy.ndimage.correlate1d takes for a
    symmetric kernel."""
    radius = weights.size - 1
    size = out.shape[0]
    np.multiply(padded[radius : radius + size], weights[0], out=out)
    pair = np.empty_like(out)
    for j in range(radius, 0, -1):
        np.add(padded[radius - j : radius - j + size], padded[radius + j : radius + j + size],
               out=pair)
        pair *= weights[j]
        out += pair
    return out


def nearest_rank_index(p: float, n: int) -> int:
    """Index of the nearest-rank p-percentile in a sorted length-n array."""
    if not math.isfinite(p) or not (0.0 <= p <= 100.0):
        raise InvalidInputError(f"percentile must lie in [0, 100], got {p}")
    if n < 1:
        raise InvalidInputError("percentile of an empty collection")
    return min(n - 1, max(0, math.ceil(p / 100.0 * n) - 1))


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues sorted descending; column j of `vectors` pairs with values[j].

    Sign convention: in each eigenvector, the entry of largest magnitude
    (first such index on ties) is non-negative.
    """

    values: np.ndarray
    vectors: np.ndarray


# Inputs are required to be symmetric up to this absolute tolerance.
SYMMETRY_TOL = 1e-10

# Blocked passes over an n x n matrix take this many entries (512 KiB of
# float64) at a time, so their temporaries stay small beside the matrix.
# At 2**18 entries a blocked row threshold still peaked at 2.24 n^2 arrays
# at n = 1500; at 2**16 it peaked at 2.07.
_BLOCK_ENTRIES = 1 << 16


def row_block(width: int) -> int:
    """How many rows of a `width`-column matrix one block pass takes (>= 1)."""
    return max(1, _BLOCK_ENTRIES // max(1, width))


# Passes that read a matrix against its transpose walk square tiles of this
# side, each beside its mirror: the two (2 x 128 KiB of float64) stay in
# cache, where the transpose of a row block strides over every row of the
# matrix. A quarter of _BLOCK_ENTRIES: at n = 2800 on 2 vCPUs, 128 beat 64
# and 256 on each tiled pass.
_TILE = math.isqrt(_BLOCK_ENTRIES // 4)


def upper_tiles(n: int) -> Iterator[tuple[slice, slice]]:
    """(rows, cols) of each square tile of an n x n matrix on or above the diagonal.

    With its mirror [cols, rows] (the tile itself when rows == cols), every
    entry is covered once.
    """
    for lo in range(0, n, _TILE):
        rows = slice(lo, lo + _TILE)
        for left in range(lo, n, _TILE):
            yield rows, slice(left, left + _TILE)


# Rows of x that each step of `gram` multiplies by the rest: two tiles, so
# the tiled copies meet the block edges, and its BLAS results, up to 256 x n,
# stay small beside the n x n output. A short last block joins the one before
# it: a dgemm with only 1-4 columns to its right (n = 257-260, 513-516)
# moved entries by an ulp or two from one dsyrk's.
_GRAM_ROWS = 2 * _TILE


def gram(x, out=None) -> np.ndarray:
    """x xᵀ, exactly symmetric, into `out` (which may be x itself when x is
    square); without `out`, a new F-ordered matrix.

    A block of rows at a time on scipy's BLAS: dsyrk (half a dgemm's work)
    gives the block's diagonal tile from the view xᵀ (no copy of a C-ordered x),
    dgemm the part right of it, and the part left of it is copied from the
    rows already done. Each block is read before its rows are written, and
    later blocks read only later rows. Bit for bit one dsyrk over all of x,
    its upper triangle mirrored, while OpenBLAS runs dgemm on 2 or more
    threads; with one thread (OpenBLAS 0.3.30) an x of more than 384 columns
    can differ from it by an ulp, as its serial dgemm splits the long inner
    sum elsewhere. Either way the result is deterministic and exactly symmetric.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    g = np.empty((n, n), order="F") if out is None else out
    starts = list(range(0, n, _GRAM_ROWS))
    if len(starts) > 1 and n - starts[-1] < _GRAM_ROWS:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [n]):
        _gram_rows(x, g, lo, hi)
    return g


def _gram_rows(x: np.ndarray, g: np.ndarray, lo: int, hi: int) -> None:
    """Rows lo..hi-1 of g = x xᵀ, given rows 0..lo-1; reads x only from row lo on.
    Its BLAS results are freed on return, before the next block's are made."""
    n = g.shape[0]
    block = x[lo:hi].T
    upper = dsyrk(1.0, block, trans=1)
    right = dgemm(1.0, block, x[hi:].T, trans_a=1) if hi < n else None
    for c in range(0, lo, _TILE):  # tile by tile: the transposed copies stay in cache
        g[lo:hi, c : c + _TILE] = g[c : c + _TILE, lo:hi].T
    tile = g[lo:hi, lo:hi]
    tile[...] = upper
    np.copyto(tile, upper.T, where=np.tri(hi - lo, k=-1, dtype=bool))
    for c in range(hi, n, _TILE):
        g[lo:hi, c : c + _TILE] = right[:, c - hi : c - hi + _TILE]


# Rows of x xᵀ that each dgemm of gram_diagonal_and_row_max makes: at
# n = 2800 on 2 vCPUs, 32-128 ran alike and 23 (a row_block) took twice as long.
_ROW_MAX_ROWS = _TILE // 2


def gram_diagonal_and_row_max(x) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal of x xᵀ and each row's largest entry off it, for an x of at
    least 2 rows, from dgemm's blocks of x xᵀ: no n x n matrix. Each block is
    F-ordered, a column per row of x, so each maximum is read down a column."""
    xt = np.asarray(x, dtype=np.float64).T  # F-ordered for a C-ordered x: no copy
    n = xt.shape[1]
    diagonal, row_max = np.empty(n), np.empty(n)
    for lo in range(0, n, _ROW_MAX_ROWS):
        hi = min(lo + _ROW_MAX_ROWS, n)
        block = dgemm(1.0, xt, xt[:, lo:hi], trans_a=1)  # x x[lo:hi]ᵀ
        on = (np.arange(lo, hi), np.arange(hi - lo))
        diagonal[lo:hi] = block[on]
        block[on] = -np.inf
        block.max(axis=0, out=row_max[lo:hi])
    return diagonal, row_max


def blurred_gram(x, diagonal, sigma: float) -> np.ndarray:
    """The 2-D Gaussian blur of x xᵀ + diag(diagonal) from the factor x, as a
    new F-ordered matrix, exactly symmetric. The kernel is truncated at radius
    ceil(3 sigma) and normalized, borders reflect (the edge value repeated:
    scipy.ndimage's "reflect" mode), and a sigma of at most 1e-15 blurs
    nothing.

    The blur is linear, B = G A Gᵀ for G the reflected kernel's n x n band
    matrix, so B = (G x)(G x)ᵀ + G diag(diagonal) Gᵀ: x is blurred down its n
    rows (n x d work, not n x n), gram gives the first term, and the second,
    a band of half-width 2 radius, is added to each entry and its mirror
    alike. Equal to the dense blur in real arithmetic; in floating point the
    two round differently, by a few ulps of the entries.
    """
    x = np.asarray(x, dtype=np.float64)
    if not math.isfinite(sigma) or sigma < 0:
        raise InvalidInputError(f"sigma must be finite and >= 0, got {sigma}")
    n = x.shape[0]
    weights = _gaussian_weights(sigma)
    radius = weights.size - 1
    g = gram(_correlate_symmetric(x[_reflected(-radius, n + radius, n)], weights,
                                  np.empty(x.shape)))
    # taps[i, t] = G[i, i - radius + t]: reflection moves no index farther than its offset
    width = 2 * radius + 1
    rows = np.arange(n)
    taps = np.zeros((n, width))
    for j in range(-radius, radius + 1):
        taps[rows, _reflected(j, n + j, n) - rows + radius] += weights[abs(j)]
    # scaled[i, t] = (G diag(diagonal))[i, i - radius + t]
    padded = np.zeros(n + 2 * radius)
    padded[radius : radius + n] = diagonal
    scaled = taps * padded[rows[:, None] + np.arange(width)]
    for s in range(min(width, n)):  # the band's s-th diagonal above the main one
        band = np.einsum("it,it->i", scaled[: n - s, s:], taps[s:, : width - s])
        g[rows[: n - s], rows[s:]] += band
        if s:
            g[rows[s:], rows[: n - s]] += band
    return g


def eigh(m, count: int | None = None) -> EigenDecomposition:
    """Eigen-decomposition of a symmetric matrix with deterministic output.

    Eigenvalues come back sorted descending (stable on ties) with unit-norm,
    sign-fixed eigenvectors: the `count` largest pairs, or all n for None.
    For count < n only those are computed, by ARPACK from a fixed start
    vector (repeated calls agree) with a scipy BLAS dsymv matvec; else the
    dense solver runs. The input is solved as given, not re-symmetrized: both
    paths read only the lower triangle of m, the matvec through the
    F-ordered view mᵀ (no copy; its upper triangle) if m is C-ordered. Raises
    InvalidInputError if the input is not symmetric within 1e-10 or count
    lies outside [1, n], NumericError if the solver fails to converge.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    # finiteness and max |m - mᵀ|, a tile and its mirror at a time: no n x n temporary
    asym = 0.0
    for rows, cols in upper_tiles(n):
        upper, lower = m[rows, cols], m[cols, rows]
        if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
            raise InvalidInputError("matrix contains non-finite entries")
        diff = upper - lower.T
        asym = max(asym, float(np.abs(diff, out=diff).max()))
    if asym > SYMMETRY_TOL:
        raise InvalidInputError(f"matrix is asymmetric beyond tolerance ({asym:.3e})")
    if count is not None and not (1 <= count <= n):
        raise InvalidInputError(f"count must lie in [1, {n}], got {count}")
    try:
        if count is None or count == n:
            values, vectors = np.linalg.eigh(m)
        else:
            # dsymv reads one triangle of the F-ordered a: m's lower one either way
            if m.flags.c_contiguous:
                a, lower = m.T, 0
            else:
                a, lower = np.asfortranarray(m), 1
            op = LinearOperator(
                (n, n), matvec=lambda v: dsymv(1.0, a, v, lower=lower), dtype=np.float64
            )
            values, vectors = eigsh(op, k=count, which="LA", v0=np.ones(n))
    except (np.linalg.LinAlgError, ArpackError) as exc:
        raise NumericError(f"eigen-decomposition failed: {exc}") from exc
    order = np.argsort(-values, kind="stable")[:count]
    values = values[order]
    vectors = vectors[:, order]
    for j in range(vectors.shape[1]):
        column = vectors[:, j]
        lead = int(np.argmax(np.abs(column)))
        if column[lead] < 0:
            vectors[:, j] = -column
    return EigenDecomposition(values=values, vectors=vectors)


def optimal_assignment(weights) -> list[tuple[int, int]]:
    """Maximum-weight one-to-one assignment of size min(r, c) on an r x c matrix.

    Returns (row, col) pairs, rows ascending, maximizing the total weight.

    The solver minimizes, so it gets each entry's distance below the maximum.
    Every full matching has min(r, c) edges, so adding one constant to every
    entry leaves the optimum where it is: those costs are shifted up to
    [span, 2 span] (span = max - min, or 1 if all are equal), as the solver
    takes a zero entry for a missing edge. Integer weights spanning less than
    2**52 stay exact.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.size == 0:
        raise InvalidInputError(f"expected a non-empty 2-D matrix, got shape {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise InvalidInputError("assignment matrix contains non-finite entries")
    low, high = float(weights.min()), float(weights.max())
    if not math.isfinite(4 * (high - low)):  # costs reach 2 span; a power of two scales exactly
        weights, low, high = weights / 8, low / 8, high / 8
    span = (high - low) or 1.0
    costs = (high - weights) + span
    # every cost is >= span > 0, so the matrix is full: build it row by row
    r, c = costs.shape
    indices = np.tile(np.arange(c, dtype=np.int32), r)
    indptr = np.arange(0, r * c + 1, c, dtype=np.int32)
    matrix = csr_array((costs.ravel(), indices, indptr), shape=(r, c))
    rows, cols = min_weight_full_bipartite_matching(matrix)
    return list(zip(rows.tolist(), cols.tolist()))
