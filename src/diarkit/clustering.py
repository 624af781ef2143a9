"""Clustering algorithms over segment embeddings, one (n, d) matrix of them.

Offline: spherical k-means (elbow count) and spectral clustering (eigen-gap
count) on a refined cosine affinity: a sigma-only front half, blurred_affinity,
then cluster_blurred. Online: a naive threshold clusterer, one in, one out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Protocol

import numpy as np

from .core import ClusteringResult, DegenerateAffinityError, InvalidInputError
from .numerics import (
    ZERO_NORM_TOL,
    EigenDecomposition,
    all_finite,
    eigh,
    gaussian_blur,
    gram,
    l2_normalize,
    l2_normalize_rows,
    nearest_rank_index,
    row_block,
    upper_tiles,
)

DEFAULT_MAX_CLUSTERS = 8
# Floor of the eigen-gap ratio's denominator: an eigenvalue at or below zero
# past the k-th neither divides by zero nor flips the ratio's sign.
EIG_FLOOR = 1e-10
# Spherical k-means: seeded k-means++ runs per k, and each run's Lloyd
# iteration cap and least objective decrease.
_RESTARTS = 10
_MAX_ITERS = 300
_TOL = 1e-6


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")


@dataclass(frozen=True)
class SpectralParams:
    """Knobs of the spectral pipeline. Defaults are CLI-exposed, not baked in."""

    sigma: float = 1.0
    p_percentile: float = 95.0
    soft_multiplier: float = 0.01
    min_clusters: int = 2
    max_clusters: int = DEFAULT_MAX_CLUSTERS
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise InvalidInputError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not (0.0 < self.p_percentile < 100.0):
            raise InvalidInputError(
                f"p_percentile must lie in (0, 100), got {self.p_percentile}"
            )
        if not math.isfinite(self.soft_multiplier):
            raise InvalidInputError("soft_multiplier must be finite")
        if self.min_clusters < 1:
            raise InvalidInputError(f"min_clusters must be >= 1, got {self.min_clusters}")
        if self.max_clusters < self.min_clusters:
            raise InvalidInputError("max_clusters must be >= min_clusters")
        _check_seed(self.seed)


def embedding_matrix(embeddings) -> np.ndarray:
    """Any array-like of n rows of d numbers as a checked (n, d) float64 copy."""
    try:
        x = np.array(embeddings, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # ragged rows, or items that are not numbers
        raise InvalidInputError(
            f"embeddings must be rows of numbers that share one dimension: {exc}"
        ) from None
    if x.ndim != 2:
        raise InvalidInputError("no embeddings given" if x.size == 0 else
                                f"expected an (n, d) embedding matrix, got shape {x.shape}")
    if x.size == 0:
        raise InvalidInputError("empty embedding matrix")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("embeddings contain non-finite entries")
    return x


def build_affinity(embeddings) -> np.ndarray:
    """Pairwise cosine similarities; each diagonal entry takes its row's max.

    Raw cosines are kept in [-1, 1] (no shift); thresholding and
    normalization downstream handle the sign. C-ordered: gram's result seen
    through its transpose, the same matrix, since it is exactly symmetric.
    """
    x = embedding_matrix(embeddings)
    if x.shape[0] < 2:
        raise InvalidInputError("affinity needs at least 2 embeddings")
    a = gram(l2_normalize_rows(x)).T
    np.clip(a, -1.0, 1.0, out=a)
    np.fill_diagonal(a, -np.inf)
    np.fill_diagonal(a, a.max(axis=1))
    return a


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise InvalidInputError(f"expected a non-empty square matrix, got {m.shape}")
    if not all_finite(m):
        raise InvalidInputError("matrix contains non-finite entries")
    return m


# Each refine stage writes into `out` as numpy's ufuncs do: a new matrix for
# None, else the given one, which may be the stage's own input.


def refine_threshold(m, p: float, soft_multiplier: float, out=None) -> np.ndarray:
    """Per row, scale entries strictly below the row's nearest-rank p-percentile.

    soft_multiplier = 0 reproduces hard zeroing; entries at or above the
    percentile pass through unchanged. Works on `out` holding the input (no
    copy when it is the input), a block of rows at a time: `np.partition`
    finds the same k-th entry as a full sort, and the in-place product is the
    same elementwise `m * soft`.
    """
    m = _as_square(m)
    if not (0.0 < p < 100.0):
        raise InvalidInputError(f"p must lie in (0, 100), got {p}")
    if not math.isfinite(soft_multiplier):
        raise InvalidInputError("soft_multiplier must be finite")
    kth = nearest_rank_index(p, m.shape[1])
    if out is None:
        out = m.copy()
    elif out is not m:
        np.copyto(out, m)
    step = row_block(m.shape[1])
    for lo in range(0, out.shape[0], step):
        rows = out[lo : lo + step]
        cut = np.partition(rows, kth, axis=1)[:, kth]
        np.multiply(rows, soft_multiplier, out=rows, where=rows < cut[:, None])
    return out


def refine_symmetrize(m, out=None) -> np.ndarray:
    """Elementwise Y_ij = max(X_ij, X_ji), a tile and its mirror at a time. The
    tile's maxima wait aside until the mirror's are written, so out may be m."""
    m = _as_square(m)
    if out is None:
        out = np.empty(m.shape)
    for rows, cols in upper_tiles(m.shape[0]):
        tile = np.maximum(m[rows, cols], m[cols, rows].T)
        if rows != cols:
            np.maximum(m[cols, rows], m[rows, cols].T, out=out[cols, rows])
        out[rows, cols] = tile
    return out


def refine_diffuse(m, out=None) -> np.ndarray:
    """Y = X Xᵀ (Gram form: always symmetric PSD)."""
    return gram(_as_square(m), out=out)


def _positive_row_max(m: np.ndarray) -> np.ndarray:
    """Each row's maximum; DegenerateAffinityError if one is not positive."""
    row_max = m.max(axis=1)
    if np.any(row_max <= 0):
        bad = int(np.argmax(row_max <= 0))
        raise DegenerateAffinityError(
            f"row {bad} has max {row_max[bad]:.3e} <= 0; cannot normalize"
        )
    return row_max


def refine_row_max_normalize(m) -> np.ndarray:
    """Divide each row by its own maximum, making every row max exactly 1."""
    m = _as_square(m)
    return m / _positive_row_max(m)[:, None]


def _row_max_normalize_symmetrize(y: np.ndarray) -> np.ndarray:
    """(R + Rᵀ)/2 for R = refine_row_max_normalize(y), in place on y, a block of rows
    at a time: each entry becomes (y_ij/d_i + y_ij/d_j)·0.5 for row maxima d.

    Bit for bit that result, because y is gram's output, exactly symmetric: so
    y_ij = y_ji, and of y and yᵀ (the same matrix) the C-ordered one is walked.
    """
    y = _as_square(y)
    rows = y if y.flags.c_contiguous else y.T
    d = _positive_row_max(rows)
    step = row_block(d.size)
    for lo in range(0, d.size, step):
        block = rows[lo : lo + step]
        by_row = block / d[lo : lo + step, None]
        np.divide(block, d, out=block)
        block += by_row
        block *= 0.5
    return y


def _refine_blurred(
    m: np.ndarray, params: SpectralParams, out: np.ndarray | None = None
) -> Iterator[tuple[str, np.ndarray]]:
    """The refine_stages after the blur up to the diffusion: each a new matrix,
    or all in m when out is m."""
    m = refine_threshold(m, params.p_percentile, params.soft_multiplier, out=out)
    yield "threshold", m
    m = refine_symmetrize(m, out=out)
    yield "symmetrize", m
    m = refine_diffuse(m, out=out)
    yield "diffuse", m


def refine_stages(a: np.ndarray, params: SpectralParams) -> Iterator[tuple[str, np.ndarray]]:
    """Blur, threshold, symmetrize, diffuse, row-max-normalize, in that order.

    Yields (stage name, matrix) after each stage, for heatmap dumps, and
    holds only the latest matrix; the raw affinity is released once the
    blur has run.
    """
    m = gaussian_blur(a, params.sigma)
    del a
    yield "blur", m
    rest = _refine_blurred(m, params)
    del m
    for name, m in rest:
        yield name, m
    m = refine_row_max_normalize(m)
    yield "rownorm", m


def estimate_k_eigengap(values, min_clusters: int, max_clusters: int) -> int:
    """k maximizing values[k-1] / max(values[k], EIG_FLOOR) over the allowed range.

    `values` must be sorted descending. The search range is
    [min_clusters, min(max_clusters, n-1)]; ties break toward smaller k.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise InvalidInputError("need at least 2 eigenvalues")
    if np.any(np.diff(values) > 1e-10):
        raise InvalidInputError("eigenvalues must be sorted descending")
    lo = min_clusters
    hi = min(max_clusters, values.size - 1)
    if lo < 1 or lo > hi:
        raise InvalidInputError(
            f"empty cluster-count search range [{lo}, {hi}]"
        )
    best_k = lo
    best_ratio = -math.inf
    for k in range(lo, hi + 1):
        ratio = values[k - 1] / max(values[k], EIG_FLOOR)
        if ratio > best_ratio:
            best_k, best_ratio = k, ratio
    return best_k


def spectral_embed(decomp: EigenDecomposition, k: int) -> np.ndarray:
    """Rows of the top-k eigenvectors, not normalized: kmeans normalizes its input.

    Row i is the new embedding of segment i. Zero rows (possible when a
    segment has no weight in the top-k subspace) are replaced by the unit
    vector along the first coordinate.
    """
    n = decomp.vectors.shape[0]
    if not (1 <= k <= n):
        raise InvalidInputError(f"k must lie in [1, {n}], got {k}")
    rows = np.array(decomp.vectors[:, :k])
    zero = np.linalg.norm(rows, axis=1) < ZERO_NORM_TOL
    rows[zero] = 0.0
    rows[zero, 0] = 1.0
    return rows


def _cos_dist_sq(u: np.ndarray, center: np.ndarray) -> np.ndarray:
    d = (1.0 - (u @ center).clip(-1.0, 1.0)) / 2.0
    return d * d


def _draw(rng: np.random.Generator, weights: np.ndarray) -> int:
    """An index drawn with probability proportional to the non-negative weights,
    uniformly when they sum to 0.

    rng.choice(n, p=weights / total)'s own algorithm (the normalized cumulative
    sum searched at one uniform draw) without its per-call checks of p: the
    same index, and the generator left in the same state.
    """
    total = float(weights.sum())
    if total <= 0:
        return int(rng.integers(weights.size))
    cdf = np.cumsum(weights / total)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeans_pp(u: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: sample proportional to squared cosine distance."""
    n = u.shape[0]
    chosen = [int(rng.integers(n))]
    weights = np.full(n, np.inf)
    while len(chosen) < k:
        weights = np.minimum(weights, _cos_dist_sq(u, u[chosen[-1]]))
        chosen.append(_draw(rng, weights))
    return u[chosen].copy()


def _assigned_cosines(u: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each row's cosine to its own centroid, clipped to [-1, 1]."""
    return np.einsum("ij,ij->i", u, centroids.take(labels, axis=0)).clip(-1.0, 1.0)


def _objective(u: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    d = (1.0 - _assigned_cosines(u, centroids, labels)) / 2.0
    return float(np.sum(d * d))


def _repair_empty(
    u: np.ndarray, centroids: np.ndarray, labels: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """Move the point farthest from its centroid into each empty cluster, in
    cluster order; labels, centroids and the cluster sizes `counts` are updated
    in place. A donor keeps at least one member, so no cluster empties again."""
    for c in np.flatnonzero(counts == 0):
        dist = (1.0 - _assigned_cosines(u, centroids, labels)) / 2.0
        # only clusters with >= 2 members may donate a point
        dist[counts[labels] < 2] = -np.inf
        i = int(np.argmax(dist))
        counts[labels[i]] -= 1
        labels[i] = c
        counts[c] += 1
        centroids[c] = u[i]
    return labels


def _lloyd(
    u: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iters: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    """One seeded k-means run. Returns (labels, centroids, objective, history).

    The recorded objective is evaluated after each centroid update; an
    update that would increase it is rejected, so the history is
    non-increasing and the loop always terminates.

    Each cluster's sum of rows comes from one bincount over (label, column)
    cells, added in row order from 0.0 as u[labels == c].sum(axis=0) adds
    them; its norm is np.linalg.norm's dot product, in l2_normalize_rows'
    stacked form. An assignment equal to the accepted one would give the same
    centroids and objective again (a cluster the repair refills holds one row,
    whose centroid is that row's as before): the run records that objective
    once more and stops without recomputing it.
    """
    d = u.shape[1]
    cells = np.arange(d)  # a row's column offsets in the flat (k, d) sums
    flat = u.ravel()
    centroids = _kmeans_pp(u, k, rng)
    labels = None
    prev_obj = math.inf
    history: list[float] = []
    for _ in range(max_iters):
        new_labels = np.argmax(u @ centroids.T, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        # repair works on a copy: the accepted state must survive a rejected update
        new_centroids = centroids.copy()
        if not counts.all():
            new_labels = _repair_empty(u, new_centroids, new_labels, counts)
        if labels is not None and np.array_equal(labels, new_labels):
            history.append(prev_obj)  # the accepted partition again: converged
            break
        sums = np.bincount((new_labels[:, None] * d + cells).ravel(), weights=flat,
                           minlength=k * d).reshape(k, d)
        norms = np.sqrt((sums[:, None, :] @ sums[:, :, None])[:, 0])
        # a cluster whose sum has no direction keeps its previous centroid
        np.divide(sums, norms, out=new_centroids, where=norms >= ZERO_NORM_TOL)
        obj = _objective(u, new_centroids, new_labels)
        if obj > prev_obj:
            break
        labels, centroids = new_labels, new_centroids
        history.append(obj)
        improved = prev_obj - obj
        prev_obj = obj
        if improved < tol:
            break
    return labels, centroids, prev_obj, history


def _best_run(u: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, float]:
    """(labels, objective) of the lowest-objective of _RESTARTS seeded runs at k.

    Each call seeds its own generator, so a k gives the same run to kmeans
    and to the elbow search.
    """
    rng = np.random.default_rng(seed)
    runs = (_lloyd(u, k, rng, _MAX_ITERS, _TOL) for _ in range(_RESTARTS))
    labels, _, obj, _ = min(runs, key=lambda run: run[2])  # the first on a tie
    return labels, obj


def kmeans(embeddings, k: int, *, seed: int = 0) -> ClusteringResult:
    """Spherical k-means: cosine assignment, normalized-mean centroids.

    Inputs are L2-normalized first. Runs _RESTARTS seeded k-means++
    initializations (each at most _MAX_ITERS Lloyd steps, stopping once the
    objective falls by less than _TOL) and keeps the run with the lowest objective
    sum(d(x_i, c_{a(i)})^2), d being the halved cosine distance.
    """
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    _check_seed(seed)
    u = l2_normalize_rows(embedding_matrix(embeddings))
    n = u.shape[0]
    if k > n:
        raise InvalidInputError(f"k={k} exceeds the number of points ({n})")
    return ClusteringResult(labels=_best_run(u, k, seed)[0], k=k)


def _elbow_runs(embeddings, max_clusters: int, seed: int) -> list[tuple]:
    """(labels, MSCD) of kmeans' best run at each k = 1..max_clusters."""
    _check_seed(seed)
    u = l2_normalize_rows(embedding_matrix(embeddings))
    n = u.shape[0]
    if not (1 <= max_clusters <= n):
        raise InvalidInputError(f"max_clusters must lie in [1, {n}], got {max_clusters}")
    runs = (_best_run(u, k, seed) for k in range(1, max_clusters + 1))
    return [(labels, obj / n) for labels, obj in runs]


def mscd_table(embeddings, max_clusters: int, *, seed: int = 0) -> dict[int, float]:
    """Mean squared cosine distance to the assigned centroid, for k = 1..max.

    Every k is clustered with the same seed so the table is reproducible
    and directly comparable across k.
    """
    runs = _elbow_runs(embeddings, max_clusters, seed)
    return {k: mscd for k, (_, mscd) in enumerate(runs, start=1)}


def estimate_k_elbow(
    embeddings, max_clusters: int, *, min_clusters: int = 1, seed: int = 0
) -> ClusteringResult:
    """The clustering at the k with the largest drop MSCD(k-1) - MSCD(k), k >= 2.

    The search range is [max(2, min_clusters), max_clusters]; ties break
    toward smaller k. The labels are the search's own best run at that k,
    the run kmeans makes with that k and the same seed.
    """
    runs = _elbow_runs(embeddings, max_clusters, seed)
    lo = max(2, min_clusters)
    if lo > max_clusters:
        raise InvalidInputError(f"empty cluster-count search range [{lo}, {max_clusters}]")
    # runs[k - 1] is k's run; max keeps the first, so the smallest, k of a tie
    k = max(range(lo, max_clusters + 1), key=lambda k: runs[k - 2][1] - runs[k - 1][1])
    return ClusteringResult(labels=runs[k - 1][0], k=k)


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Clustering plus the eigenvalues its speaker count was read from.

    `eigenvalues` are the leading min(max_clusters, n - 1) + 1 of the
    refined affinity, descending: those the eigen-gap rule reads.
    """

    clustering: ClusteringResult
    eigenvalues: np.ndarray


def blurred_affinity(embeddings, sigma: float) -> np.ndarray:
    """spectral_cluster's front half, build_affinity then the blur in its
    matrix: p-independent."""
    if len(embeddings) < 2:
        raise InvalidInputError("spectral clustering needs at least 2 segments")
    a = build_affinity(embeddings)
    return gaussian_blur(a, sigma, out=a)


def cluster_blurred(blurred: np.ndarray, params: SpectralParams) -> SpectralResult:
    """The rest of spectral_cluster, from blurred_affinity's matrix (params.sigma unread):
    the refine_stages after the blur, with the row-max normalization and (M + Mᵀ)/2 in
    one pass, then eigen-gap k, re-embedding, k-means. They run in one copy of
    `blurred`, which is neither written nor held, so calls may share it. Cluster
    bounds are clamped to n; with no eigen-gap range left, k is the minimum."""
    return _cluster_in_place(np.array(blurred, dtype=np.float64, order="C"), params)


def _cluster_in_place(m: np.ndarray, params: SpectralParams) -> SpectralResult:
    """cluster_blurred with every stage written into m, the one n x n matrix held."""
    for _, m in _refine_blurred(m, params, out=m):
        pass
    m = _row_max_normalize_symmetrize(m)
    n = m.shape[0]
    min_c = min(params.min_clusters, n)
    max_c = min(params.max_clusters, n)
    # the eigen-gap rule reads values[0 .. min(max_c, n - 1)] and the
    # embedding at most the first max_c vectors: nothing past them is needed
    decomp = eigh(m, count=min(max_c, n - 1) + 1)
    if min_c > min(max_c, n - 1):
        k = min_c
    else:
        k = estimate_k_eigengap(decomp.values, min_c, max_c)
    emb = spectral_embed(decomp, k)
    clustering = kmeans(emb, k, seed=params.seed)
    return SpectralResult(clustering=clustering, eigenvalues=decomp.values)


def spectral_cluster(embeddings, params: SpectralParams) -> SpectralResult:
    """Spectral clustering of segment embeddings: cluster_blurred(blurred_affinity),
    without the copy, as blurred_affinity's matrix is this call's own."""
    return _cluster_in_place(blurred_affinity(embeddings, params.sigma), params)


class OnlineClusterer(Protocol):
    """One embedding in, one cluster label out, no lookahead, no revision."""

    def step(self, embedding) -> int: ...


@dataclass
class NaiveOnlineClusterer:
    """Threshold-based streaming clusterer over running centroid sums.

    Each cluster keeps the sum of its L2-normalized members; cosine to the
    sum equals cosine to the mean, so the centroid never needs explicit
    renormalization. A new embedding joins the most similar cluster if
    that similarity reaches the threshold, otherwise it founds a new
    cluster. Labels are final the moment they are emitted.
    """

    threshold: float = 0.5
    _sums: list[np.ndarray] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        if not (-1.0 < self.threshold < 1.0):
            raise InvalidInputError(
                f"threshold must lie in (-1, 1), got {self.threshold}"
            )

    def step(self, embedding) -> int:
        unit = l2_normalize(embedding)
        best_label = -1
        best_sim = -math.inf
        for label, s in enumerate(self._sums):
            norm = float(np.linalg.norm(s))
            sim = float(unit @ s) / norm if norm >= ZERO_NORM_TOL else -1.0
            if sim > best_sim:
                best_label, best_sim = label, sim
        if best_label < 0 or best_sim < self.threshold:
            self._sums.append(unit.copy())
            return len(self._sums) - 1
        self._sums[best_label] = self._sums[best_label] + unit
        return best_label


def run_online(clusterer: OnlineClusterer, embeddings) -> ClusteringResult:
    """Feed the rows of the embedding matrix through an online clusterer in order."""
    labels = [clusterer.step(e) for e in embedding_matrix(embeddings)]
    return ClusteringResult(labels=np.array(labels), k=max(labels) + 1)
