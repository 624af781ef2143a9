"""Vector and matrix primitives used across the pipeline.

Unit rows, Gram products in row blocks (in place if asked), the 2-D
Gaussian blur of a Gram matrix from its factor, the nearest-rank
percentile index, symmetric eigen-decomposition (full, or partial top-k
by Lanczos when fewer than all pairs are asked for) with a deterministic
ordering/sign convention, and maximum-weight assignment (a numpy
Kuhn-Munkres). Both eigensolver paths solve the lower triangle of their
input. The n x n passes work in row blocks or tiles, all on numpy's BLAS.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

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
# the tiled copies meet the block edges, and its products, up to 256 x n,
# stay small beside the n x n output. A short last block joins the one before
# it: a product with only 1-4 columns right of it moved entries by an ulp or two.
_GRAM_ROWS = 2 * _TILE


def gram(x, out=None) -> np.ndarray:
    """x xᵀ, exactly symmetric, into `out` (which may be x itself when x is
    square); without `out`, a new F-ordered matrix.

    A block of rows at a time: the block times its own transpose (one syrk,
    mirrored) gives its diagonal tile, the block times the later rows the part
    right of it, and the part left of it is copied from the rows already done.
    Each block is read before its rows are written, later blocks read only later
    rows, and its products are freed first. Bit for bit x @ x.T up to 512 rows.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    g = np.empty((n, n), order="F") if out is None else out
    starts = list(range(0, n, _GRAM_ROWS))
    if len(starts) > 1 and n - starts[-1] < _GRAM_ROWS:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [n]):
        block = x[lo:hi]
        tile, right = block @ block.T, block @ x[hi:].T
        for c in range(0, lo, _TILE):  # tile by tile: the transposed copies stay in cache
            g[lo:hi, c : c + _TILE] = g[c : c + _TILE, lo:hi].T
        g[lo:hi, lo:hi] = tile
        for c in range(hi, n, _TILE):
            g[lo:hi, c : c + _TILE] = right[:, c - hi : c - hi + _TILE]
        del tile, right
    return g


# Rows of x xᵀ that each product of gram_diagonal_and_row_max makes: at
# n = 2800 on 2 vCPUs, 32-128 ran alike and 23 (a row_block) took twice as long.
_ROW_MAX_ROWS = _TILE // 2


def gram_diagonal_and_row_max(x) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal of x xᵀ and each row's largest entry off it, for an x of at
    least 2 rows, from blocks of rows of x xᵀ: no n x n matrix."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    diagonal, row_max = np.empty(n), np.empty(n)
    for lo in range(0, n, _ROW_MAX_ROWS):
        hi = min(lo + _ROW_MAX_ROWS, n)
        block = x[lo:hi] @ x.T  # rows lo..hi-1 of x xᵀ
        on = (np.arange(hi - lo), np.arange(lo, hi))
        diagonal[lo:hi] = block[on]
        block[on] = -np.inf
        block.max(axis=1, out=row_max[lo:hi])
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


# _lanczos checks its basis after _LANCZOS_FIRST vectors per wanted pair, then every
# _LANCZOS_GROW more, up to _LANCZOS_STEPS, until each wanted residual estimate is at most
# _LANCZOS_TOL of the largest |Ritz value| (each decade costs 1-2 steps).
_LANCZOS_FIRST, _LANCZOS_GROW, _LANCZOS_STEPS = 4, 6, 500
_LANCZOS_TOL, _LANCZOS_SEED = 1e-12, 0


def _lanczos(m: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The `count` largest eigenpairs (Ritz pairs) of the exactly symmetric m,
    by Lanczos with full reorthogonalization (Golub & Van Loan, "Matrix
    Computations", ch. 10). On breakdown (an invariant subspace found) the
    basis goes on from a fresh random vector, so an exactly repeated eigenvalue
    keeps its copies. Raises NumericError past _LANCZOS_STEPS vectors."""
    n, rng = m.shape[0], np.random.default_rng(_LANCZOS_SEED)
    limit = min(n, _LANCZOS_STEPS)
    alpha, beta = np.empty(limit), np.empty(limit)
    w = rng.standard_normal(n)
    q = (w / math.sqrt(w @ w))[None]  # the basis, a row per vector, grown as it is used
    j, stop, scale = 0, min(limit, _LANCZOS_FIRST * count), 0.0
    while True:
        q = np.concatenate((q, np.empty((min(stop + 1, limit) - len(q), n))))
        for j in range(j, stop):
            basis = q[: j + 1]
            w = m @ q[j]
            h = basis[-2:] @ w  # the three-term recurrence's two vectors first,
            alpha[j], scale = h[-1], max(scale, abs(h[-1]))
            w -= basis[-2:].T @ h
            w -= basis.T @ (basis @ w)  # then one pass against the whole basis
            beta[j] = norm = math.sqrt(w @ w)
            if j + 1 == limit:
                break
            if norm <= _LANCZOS_TOL * scale:  # breakdown
                beta[j], w = 0.0, rng.standard_normal(n)
                for _ in range(2):
                    w -= basis.T @ (basis @ w)
                norm = math.sqrt(w @ w)
            np.divide(w, norm, out=q[j + 1])
        j = stop
        t = np.diag(alpha[:j]) + np.diag(beta[: j - 1], 1) + np.diag(beta[: j - 1], -1)
        theta, s = np.linalg.eigh(t)
        estimate = np.abs(beta[j - 1] * s[-1, -count:]).max()
        # a block that broke down at the check (beta 0) leaves only further copies of its
        # Ritz values in the rest of the space: none of them may exceed the wanted ones
        first = np.r_[0, np.flatnonzero(beta[: j - 1] == 0) + 1][-1]
        peak = np.linalg.eigvalsh(t[first:, first:])[-1] if beta[j - 1] == 0 else -np.inf
        if j == n or max(estimate, peak - theta[-count]) <= _LANCZOS_TOL * np.abs(theta).max():
            return theta[-count:], q[:j].T @ s[:, -count:]
        if j == limit:
            raise NumericError(f"eigen-decomposition failed: no convergence in {limit} steps")
        stop = min(limit, j + _LANCZOS_GROW)


def _eigh(m: np.ndarray, count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """eigh's solve, which checks nothing: m is finite, exactly symmetric and
    float64, and count None or in [1, n], as eigh and the chain hand them over."""
    n = m.shape[0]
    try:
        if count is None or count > min(n - 1, _LANCZOS_STEPS):
            values, vectors = np.linalg.eigh(m)
        else:
            values, vectors = _lanczos(m, count)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigen-decomposition failed: {exc}") from exc
    order = np.argsort(-values, kind="stable")[:count]
    values, vectors = values[order], vectors[:, order]
    lead = np.abs(vectors).argmax(axis=0)  # the first on ties
    vectors *= np.where(vectors[lead, np.arange(lead.size)] < 0, -1.0, 1.0)
    return values, vectors


def eigh(m, count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a symmetric matrix with deterministic output:
    the `count` largest eigenpairs, or all n for None, as the pair (values,
    vectors) that np.linalg.eigh returns, in another order and sign.

    The values are sorted descending (stable on ties), and column j of
    `vectors` is the unit-norm eigenvector of values[j]. Each column's sign
    is fixed: its entry of largest magnitude (the first such on ties) is
    non-negative. For count < n (at most _LANCZOS_STEPS) only those pairs are
    computed, by `_lanczos` from a fixed-seed start vector (repeated calls
    agree); else the dense solver runs. Both solve the lower triangle of m,
    as `_eigh` solves a copy mirrored from it unless m is exactly symmetric.
    Raises InvalidInputError if m is not finite, not symmetric within 1e-10
    or count lies outside [1, n], NumericError if a solver fails.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    # finiteness and max |m - mᵀ|, a tile and its mirror at a time: no n x n temporary
    asym = 0.0
    for rows, cols in upper_tiles(n):
        upper, lower = m[rows, cols], m[cols, rows]
        with np.errstate(invalid="ignore", over="ignore"):
            diff = upper - lower.T
        # non-finite where either entry is, or where two finite ones overflow
        if not np.isfinite(diff).all():
            if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
                raise InvalidInputError("matrix contains non-finite entries")
        asym = max(asym, float(np.abs(diff, out=diff).max()))
    if asym > SYMMETRY_TOL:
        raise InvalidInputError(f"matrix is asymmetric beyond tolerance ({asym:.3e})")
    if count is not None and not (1 <= count <= n):
        raise InvalidInputError(f"count must lie in [1, {n}], got {count}")
    return _eigh(np.tril(m) + np.tril(m, -1).T if asym else m, count)


def optimal_assignment(weights) -> list[tuple[int, int]]:
    """Maximum-weight one-to-one assignment of size min(r, c) on an r x c matrix.

    Returns (row, col) pairs, rows ascending, maximizing the total weight.

    Kuhn-Munkres (Kuhn 1955; Munkres 1957) on each entry's distance below the
    maximum as its cost, by shortest augmenting paths: the smaller side's
    lines are matched one at a time, each by a Dijkstra search over the
    reduced costs that row and column potentials keep >= 0, its inner step
    vectorized over the larger side: O(s² l) work for sides s <= l, in
    O(s²) numpy steps. At DER's sizes it is as fast as
    scipy.sparse.csgraph's matching (random integer weights, 2 vCPUs):
    0.09-0.5 ms at 2 x 2 to 8 x 8 against 0.16-0.2 ms, 0.16-0.18 ms for 4
    x 1002 (4 reference speakers against a naive hypothesis) either way
    round against 0.24-0.46 ms. It is slower at sizes DER does not reach:
    5.7-5.9 against 0.3-0.4 ms at 50 x 50, 0.09-0.12 against 0.023-0.037 s
    at 500 x 500. Ties go to the lowest index, so repeated calls agree.
    One search moves a potential by at most the costs' span, so integer
    weights stay exact while (min(r, c) + 1) times their span is below
    2**53.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.size == 0:
        raise InvalidInputError(f"expected a non-empty 2-D matrix, got shape {weights.shape}")
    if not np.all(np.isfinite(weights)):
        raise InvalidInputError("assignment matrix contains non-finite entries")
    flip = weights.shape[0] > weights.shape[1]
    if flip:
        weights = weights.T
    s, l = weights.shape
    low, high = float(weights.min()), float(weights.max())
    if not math.isfinite(2 * (s + 1) * (high - low)):  # a power of two scales exactly
        scale = 2.0 ** -math.ceil(math.log2(8 * (s + 1)))
        weights, high = weights * scale, high * scale
    cost = high - weights
    u, v = np.zeros(s), np.zeros(l)  # potentials: cost - u[row] - v[col] >= 0
    row_of, col_of = np.full(l, -1), np.full(s, -1)  # -1: not matched yet
    via = np.empty(l, dtype=np.intp)  # the row before each column on its shortest path
    for start in range(s):
        # Dijkstra from row `start` over the reduced costs until it settles a free
        # column; `reach` is the last distance settled, and a settled column's
        # distance moves to `settled` (dist reads inf there)
        dist, settled = np.full(l, np.inf), np.zeros(l)
        done = np.zeros(l, dtype=bool)
        i, reach = start, 0.0
        while True:
            reduced = cost[i] - (u[i] - reach) - v
            closer = reduced < dist
            closer[done] = False
            np.copyto(dist, reduced, where=closer)
            via[closer] = i
            j = int(np.argmin(dist))
            reach = settled[j] = dist[j]
            done[j], dist[j] = True, np.inf
            if row_of[j] < 0:
                break
            i = row_of[j]
        # the potentials that keep every reduced cost >= 0 and the path's at 0
        gain = reach - settled[done]
        rows = row_of[done]
        u[start] += reach
        u[rows[rows >= 0]] += gain[rows >= 0]
        v[done] -= gain
        while True:  # flip the path's matches, from the free column back to `start`
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    pairs = [(int(i), int(j)) for i, j in enumerate(col_of)]
    return sorted((j, i) for i, j in pairs) if flip else pairs
