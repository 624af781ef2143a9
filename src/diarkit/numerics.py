"""Vector and matrix primitives used across the pipeline.

Unit rows, Gram products and the eigensolver's matvec on scipy's BLAS
(not numpy's: two OpenBLAS thread pools slow each other, see README), 2-D
Gaussian blur, the nearest-rank percentile index, symmetric eigen-decomposition (full,
or partial top-k when fewer than all pairs are asked for) with a
deterministic ordering/sign convention, and maximum-weight assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.linalg.blas import dgemv, dsyrk
from scipy.ndimage import gaussian_filter
from scipy.optimize import linear_sum_assignment
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .core import InvalidInputError, NumericError, as_float_vector

# Norms below this are treated as zero vectors (no meaningful direction).
ZERO_NORM_TOL = 1e-12


def l2_normalize(v) -> np.ndarray:
    """Return v / ||v||_2. Raises InvalidInputError for (near-)zero vectors."""
    v = as_float_vector(v)
    norm = float(np.linalg.norm(v))
    if norm < ZERO_NORM_TOL:
        raise InvalidInputError("cannot normalize a zero vector")
    return v / norm


def l2_normalize_rows(x: np.ndarray) -> np.ndarray:
    """l2_normalize of each row of a finite (m, d) matrix, in one pass.

    Bit for bit the same as l2_normalize row by row: the stacked product
    takes each row's squared norm with the dot product np.linalg.norm uses
    on one vector (np.linalg.norm(x, axis=1) sums in another order, and its
    last bits differ).
    """
    norms = np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])
    if np.any(norms < ZERO_NORM_TOL):
        raise InvalidInputError("cannot normalize a zero vector")
    return x / norms[:, None]


def gaussian_blur(m, sigma: float) -> np.ndarray:
    """2-D convolution with a truncated, normalized Gaussian kernel.

    Kernel radius is ceil(3*sigma) in index units; borders are handled by
    reflection (edge value repeated: scipy.ndimage's "reflect" mode, numpy's
    "symmetric" pad), which keeps constant matrices constant. sigma = 0
    returns a copy.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInputError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix contains non-finite entries")
    if not math.isfinite(sigma) or sigma < 0:
        raise InvalidInputError(f"sigma must be finite and >= 0, got {sigma}")
    if sigma == 0:
        return m.copy()
    return gaussian_filter(m, sigma, mode="reflect", radius=math.ceil(3 * sigma))


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
# At 2**18 entries `refine_threshold` still peaked at 2.24 n^2 arrays at
# n = 1500; at 2**16 it peaks at 2.07.
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


def gram(x) -> np.ndarray:
    """x xᵀ, Fortran-ordered and exactly symmetric: scipy's BLAS dsyrk (half a
    dgemm's work) fills the upper triangle from the view xᵀ (no copy of a
    C-ordered x); tiles copy it down."""
    g = dsyrk(1.0, np.asarray(x, dtype=np.float64).T, trans=1)
    for rows, cols in upper_tiles(g.shape[0]):
        if rows == cols:
            tile = g[rows, rows]
            np.copyto(tile, tile.T, where=np.tri(tile.shape[0], k=-1, dtype=bool))
        else:
            g[cols, rows] = g[rows, cols].T
    return g


def eigh(m, count: int | None = None) -> EigenDecomposition:
    """Eigen-decomposition of a symmetric matrix with deterministic output.

    Eigenvalues come back sorted descending (stable on ties) with unit-norm,
    sign-fixed eigenvectors: the `count` largest pairs, or all n for None.
    For count < n only those are computed, by ARPACK from a fixed start
    vector (repeated calls agree) with a scipy BLAS dgemv matvec; else the
    dense solver runs. The input is solved as given, not re-symmetrized: the
    dense solver reads its lower triangle, the matvec multiplies by m, or by
    its F-ordered view mᵀ (no copy) if m is C-ordered. Raises
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
            a = m.T if m.flags.c_contiguous else np.asfortranarray(m)
            op = LinearOperator((n, n), matvec=lambda v: dgemv(1.0, a, v), dtype=np.float64)
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


def optimal_assignment(cost, maximize: bool = False) -> list[tuple[int, int]]:
    """Optimal one-to-one assignment of size min(r, c) on an r x c matrix.

    Returns (row, col) pairs minimizing total cost, or maximizing total
    weight when `maximize` is set.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.size == 0:
        raise InvalidInputError(f"expected a non-empty 2-D matrix, got shape {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise InvalidInputError("assignment matrix contains non-finite entries")
    rows, cols = linear_sum_assignment(cost, maximize=maximize)
    return list(zip(rows.tolist(), cols.tolist()))
