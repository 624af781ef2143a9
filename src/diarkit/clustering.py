"""Clustering algorithms over segment embeddings.

Offline: spherical k-means (elbow count) and spectral clustering (eigen-gap
count) on a refined cosine affinity: a sigma-only front half, blurred_affinity,
then cluster_blurred. Online: a naive threshold clusterer, one in, one out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Protocol

import numpy as np

from .core import (
    ClusteringResult,
    DegenerateAffinityError,
    InvalidInputError,
    as_float_vector,
)
from .numerics import (
    ZERO_NORM_TOL,
    EigenDecomposition,
    eigh,
    gaussian_blur,
    gram,
    l2_normalize,
    l2_normalize_rows,
    nearest_rank_index,
    row_block,
)

DEFAULT_MAX_CLUSTERS = 8


@dataclass(frozen=True)
class SpectralParams:
    """Knobs of the spectral pipeline. Defaults are CLI-exposed, not baked in."""

    sigma: float = 1.0
    p_percentile: float = 95.0
    soft_multiplier: float = 0.01
    min_clusters: int = 2
    max_clusters: int = DEFAULT_MAX_CLUSTERS
    eig_floor: float = 1e-10
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
        if not (self.eig_floor > 0):
            raise InvalidInputError("eig_floor must be positive")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class KMeansParams:
    """Spherical k-means settings. `kmeans` needs k; the elbow search ignores it."""

    k: int | None = None
    max_iters: int = 300
    tol: float = 1e-6
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.k is not None and self.k < 1:
            raise InvalidInputError(f"k must be >= 1, got {self.k}")
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be >= 1")
        if not (self.tol >= 0):
            raise InvalidInputError("tol must be >= 0")
        if self.restarts < 1:
            raise InvalidInputError("restarts must be >= 1")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")


def embedding_matrix(embeddings) -> np.ndarray:
    """Stack embeddings (raw vectors or objects with .embedding) into (n, d)."""
    if isinstance(embeddings, np.ndarray) and embeddings.ndim == 2:
        x = np.array(embeddings, dtype=np.float64)
        if x.shape[0] == 0 or x.shape[1] == 0:
            raise InvalidInputError("empty embedding matrix")
        if not np.all(np.isfinite(x)):
            raise InvalidInputError("embeddings contain non-finite entries")
        return x
    rows = [as_float_vector(getattr(e, "embedding", e)) for e in embeddings]
    if not rows:
        raise InvalidInputError("no embeddings given")
    dim = rows[0].size
    if any(r.size != dim for r in rows):
        raise InvalidInputError("embeddings must share one dimension")
    return np.stack(rows)


def build_affinity(embeddings) -> np.ndarray:
    """Pairwise cosine similarities; each diagonal entry takes its row's max.

    Raw cosines are kept in [-1, 1] (no shift); thresholding and
    normalization downstream handle the sign.
    """
    x = embedding_matrix(embeddings)
    if x.shape[0] < 2:
        raise InvalidInputError("affinity needs at least 2 embeddings")
    a = np.clip(gram(l2_normalize_rows(x)), -1.0, 1.0)
    np.fill_diagonal(a, -np.inf)
    np.fill_diagonal(a, a.max(axis=1))
    return a


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise InvalidInputError(f"expected a non-empty square matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix contains non-finite entries")
    return m


def refine_threshold(m, p: float, soft_multiplier: float) -> np.ndarray:
    """Per row, scale entries strictly below the row's nearest-rank p-percentile.

    soft_multiplier = 0 reproduces hard zeroing; entries at or above the
    percentile pass through unchanged. Works on one copy of the input, a
    block of rows at a time: `np.partition` finds the same k-th entry as a
    full sort, and the in-place product is the same elementwise `m * soft`.
    """
    m = _as_square(m)
    if not (0.0 < p < 100.0):
        raise InvalidInputError(f"p must lie in (0, 100), got {p}")
    if not math.isfinite(soft_multiplier):
        raise InvalidInputError("soft_multiplier must be finite")
    kth = nearest_rank_index(p, m.shape[1])
    out = m.copy()
    step = row_block(m.shape[1])
    for lo in range(0, out.shape[0], step):
        rows = out[lo : lo + step]
        cut = np.partition(rows, kth, axis=1)[:, kth]
        np.multiply(rows, soft_multiplier, out=rows, where=rows < cut[:, None])
    return out


def refine_symmetrize(m) -> np.ndarray:
    """Elementwise Y_ij = max(X_ij, X_ji)."""
    m = _as_square(m)
    return np.maximum(m, m.T)


def refine_diffuse(m) -> np.ndarray:
    """Y = X Xᵀ (Gram form: always symmetric PSD)."""
    return gram(_as_square(m))


def refine_row_max_normalize(m) -> np.ndarray:
    """Divide each row by its own maximum, making every row max exactly 1."""
    m = _as_square(m)
    row_max = m.max(axis=1)
    if np.any(row_max <= 0):
        bad = int(np.argmax(row_max <= 0))
        raise DegenerateAffinityError(
            f"row {bad} has max {row_max[bad]:.3e} <= 0; cannot normalize"
        )
    return m / row_max[:, None]


def _refine_blurred(m: np.ndarray, params: SpectralParams) -> Iterator[tuple[str, np.ndarray]]:
    """The refine_stages after the blur; m is copied by the threshold, then dropped."""
    m = refine_threshold(m, params.p_percentile, params.soft_multiplier)
    yield "threshold", m
    m = refine_symmetrize(m)
    yield "symmetrize", m
    m = refine_diffuse(m)
    yield "diffuse", m
    m = refine_row_max_normalize(m)
    yield "rownorm", m


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
    yield from rest


def estimate_k_eigengap(
    values,
    min_clusters: int,
    max_clusters: int,
    eig_floor: float = 1e-10,
) -> int:
    """k maximizing values[k-1] / max(values[k], eig_floor) over the allowed range.

    `values` must be sorted descending. The search range is
    [min_clusters, min(max_clusters, n-1)]; ties break toward smaller k.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.size < 2:
        raise InvalidInputError("need at least 2 eigenvalues")
    if np.any(np.diff(values) > 1e-10):
        raise InvalidInputError("eigenvalues must be sorted descending")
    if not (eig_floor > 0):
        raise InvalidInputError("eig_floor must be positive")
    lo = min_clusters
    hi = min(max_clusters, values.size - 1)
    if lo < 1 or lo > hi:
        raise InvalidInputError(
            f"empty cluster-count search range [{lo}, {hi}]"
        )
    best_k = lo
    best_ratio = -math.inf
    for k in range(lo, hi + 1):
        ratio = values[k - 1] / max(values[k], eig_floor)
        if ratio > best_ratio:
            best_k, best_ratio = k, ratio
    return best_k


def spectral_embed(decomp: EigenDecomposition, k: int) -> np.ndarray:
    """Rows of the top-k eigenvectors, each row L2-normalized.

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
    return l2_normalize_rows(rows)


def _cos_dist_sq(u: np.ndarray, center: np.ndarray) -> np.ndarray:
    d = (1.0 - np.clip(u @ center, -1.0, 1.0)) / 2.0
    return d * d


def _kmeans_pp(u: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: sample proportional to squared cosine distance."""
    n = u.shape[0]
    chosen = [int(rng.integers(n))]
    weights = _cos_dist_sq(u, u[chosen[0]])
    for _ in range(1, k):
        total = float(weights.sum())
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=weights / total))
        chosen.append(idx)
        weights = np.minimum(weights, _cos_dist_sq(u, u[idx]))
    return u[chosen].copy()


def _objective(u: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    sims = np.einsum("ij,ij->i", u, centroids[labels])
    d = (1.0 - np.clip(sims, -1.0, 1.0)) / 2.0
    return float(np.sum(d * d))


def _repair_empty(
    u: np.ndarray, centroids: np.ndarray, labels: np.ndarray, k: int
) -> np.ndarray:
    """Move the point farthest from its centroid into each empty cluster."""
    counts = np.bincount(labels, minlength=k)
    for c in range(k):
        while counts[c] == 0:
            sims = np.einsum("ij,ij->i", u, centroids[labels])
            dist = (1.0 - np.clip(sims, -1.0, 1.0)) / 2.0
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
    """
    centroids = _kmeans_pp(u, k, rng)
    labels = None
    prev_obj = math.inf
    history: list[float] = []
    for _ in range(max_iters):
        sims = u @ centroids.T
        new_labels = np.argmax(sims, axis=1)
        # repair works on a copy: the accepted state must survive a rejected update
        new_centroids = centroids.copy()
        new_labels = _repair_empty(u, new_centroids, new_labels, k)
        for c in range(k):
            s = u[new_labels == c].sum(axis=0)
            norm = np.linalg.norm(s)
            if norm >= ZERO_NORM_TOL:
                new_centroids[c] = s / norm
        obj = _objective(u, new_centroids, new_labels)
        if obj > prev_obj:
            break
        unchanged = labels is not None and np.array_equal(labels, new_labels)
        labels, centroids = new_labels, new_centroids
        history.append(obj)
        improved = prev_obj - obj
        prev_obj = obj
        if unchanged or improved < tol:
            break
    return labels, centroids, prev_obj, history


def _best_run(u: np.ndarray, k: int, params: KMeansParams) -> tuple[np.ndarray, float]:
    """(labels, objective) of the lowest-objective of `restarts` seeded runs at k.

    Each call seeds its own generator, so a k gives the same run to kmeans
    and to the elbow search.
    """
    rng = np.random.default_rng(params.seed)
    runs = (_lloyd(u, k, rng, params.max_iters, params.tol) for _ in range(params.restarts))
    labels, _, obj, _ = min(runs, key=lambda run: run[2])  # the first on a tie
    return labels, obj


def kmeans(embeddings, params: KMeansParams) -> ClusteringResult:
    """Spherical k-means: cosine assignment, normalized-mean centroids.

    Inputs are L2-normalized first. Runs `restarts` seeded k-means++
    initializations and keeps the run with the lowest objective
    sum(d(x_i, c_{a(i)})^2), d being the halved cosine distance.
    """
    u = l2_normalize_rows(embedding_matrix(embeddings))
    n = u.shape[0]
    k = params.k
    if k is None:
        raise InvalidInputError("kmeans needs params.k; estimate_k_elbow can choose it")
    if k > n:
        raise InvalidInputError(f"k={k} exceeds the number of points ({n})")
    return ClusteringResult(labels=_best_run(u, k, params)[0], k=k)


def _elbow_runs(embeddings, max_clusters: int, params: KMeansParams) -> list[tuple]:
    """(labels, MSCD) of kmeans' best run at each k = 1..max_clusters."""
    u = l2_normalize_rows(embedding_matrix(embeddings))
    n = u.shape[0]
    if not (1 <= max_clusters <= n):
        raise InvalidInputError(f"max_clusters must lie in [1, {n}], got {max_clusters}")
    runs = (_best_run(u, k, params) for k in range(1, max_clusters + 1))
    return [(labels, obj / n) for labels, obj in runs]


def mscd_table(embeddings, max_clusters: int, params: KMeansParams) -> dict[int, float]:
    """Mean squared cosine distance to the assigned centroid, for k = 1..max.

    Every k is clustered with the same seed so the table is reproducible
    and directly comparable across k.
    """
    runs = _elbow_runs(embeddings, max_clusters, params)
    return {k: mscd for k, (_, mscd) in enumerate(runs, start=1)}


def estimate_k_elbow(
    embeddings,
    max_clusters: int,
    params: KMeansParams,
    min_clusters: int = 1,
) -> ClusteringResult:
    """The clustering at the k with the largest drop MSCD(k-1) - MSCD(k), k >= 2.

    The search range is [max(2, min_clusters), max_clusters]; ties break
    toward smaller k. The labels are the search's own best run at that k,
    the run kmeans makes with that k and the same params.
    """
    runs = _elbow_runs(embeddings, max_clusters, params)
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
    """spectral_cluster's front half, build_affinity then the blur: p-independent."""
    if len(embeddings) < 2:
        raise InvalidInputError("spectral clustering needs at least 2 segments")
    return gaussian_blur(build_affinity(embeddings), sigma)


def cluster_blurred(blurred: np.ndarray, params: SpectralParams) -> SpectralResult:
    """The rest of spectral_cluster, from blurred_affinity's matrix (params.sigma unread):
    the refine_stages after the blur, (M + Mᵀ)/2, eigen-gap k, re-embedding, k-means.
    `blurred` is neither written nor held past the threshold's copy, so calls may share
    it. Cluster bounds are clamped to n; with no eigen-gap range left, k is the minimum."""
    stages = _refine_blurred(blurred, params)
    del blurred
    for _, m in stages:
        pass
    n = m.shape[0]
    min_c = min(params.min_clusters, n)
    max_c = min(params.max_clusters, n)
    m = m + m.T
    m *= 0.5
    # the eigen-gap rule reads values[0 .. min(max_c, n - 1)] and the
    # embedding at most the first max_c vectors: nothing past them is needed
    decomp = eigh(m, count=min(max_c, n - 1) + 1)
    if min_c > min(max_c, n - 1):
        k = min_c
    else:
        k = estimate_k_eigengap(decomp.values, min_c, max_c, params.eig_floor)
    emb = spectral_embed(decomp, k)
    clustering = kmeans(emb, KMeansParams(k=k, seed=params.seed))
    return SpectralResult(clustering=clustering, eigenvalues=decomp.values)


def spectral_cluster(embeddings, params: SpectralParams) -> SpectralResult:
    """Spectral clustering of segment embeddings: cluster_blurred(blurred_affinity)."""
    return cluster_blurred(blurred_affinity(embeddings, params.sigma), params)


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
        unit = l2_normalize(getattr(embedding, "embedding", embedding))
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
    """Feed embeddings through an online clusterer in order."""
    labels = [clusterer.step(e) for e in embeddings]
    if not labels:
        raise InvalidInputError("no embeddings given")
    return ClusteringResult(labels=np.array(labels), k=max(labels) + 1)
