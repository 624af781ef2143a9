"""Clustering algorithms over segment embeddings, one (n, d) matrix of them.

Offline: spherical k-means (elbow count) and spectral clustering (eigen-gap
count) on a refined cosine affinity: a sigma-only front half,
blurred_affinity, then one refinement chain that rewrites that matrix in
place (spectral_cluster shows each stage to an optional observer;
spectral_grid runs a grid of configs, each chain in a copy of the blurred
matrix its sigma shares; two_stage_cluster clusters many rows through a
k-means pre-clustering, spectral_cluster on its centroids and a
resegmentation pass). Online: a naive threshold clusterer over the rows in
order. Every clusterer returns a ClusteringResult, one label per row.

The chain's input is checked where it enters: embedding_matrix checks the
embeddings and SpectralParams the knobs. From there every matrix of the
chain is finite and exactly symmetric by construction, and its private
kernels, its solve (numerics._eigh) included, check nothing again.
two_stage_cluster checks and normalizes its rows once, for both stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (ClusteringResult, DegenerateAffinityError, InvalidInputError, check_integers,
                   check_reals)
from .numerics import (
    ZERO_NORM_TOL,
    _eigh,
    blurred_gram,
    gram,
    gram_diagonal_and_row_max,
    l2_normalize_rows,
    nearest_rank_index,
    row_block,
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
# Two-stage clustering's fixed policy. Pre-clustering: the centroids it
# reduces the rows to, and its Lloyd step cap. The resegmentation pass: its
# charge per change of speaker, in nats (about -ln(0.4 s / 3 s), one change
# per mean 3-s turn at 0.4-s segments), and its most rounds.
PRECLUSTER_COUNT = 250
PRECLUSTER_ITERS = 20
RESEGMENT_PENALTY = 2.0
RESEGMENT_ROUNDS = 3


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
        check_integers(min_clusters=self.min_clusters, max_clusters=self.max_clusters,
                       seed=self.seed)
        check_reals(sigma=self.sigma, p_percentile=self.p_percentile,
                    soft_multiplier=self.soft_multiplier)
        if not math.isfinite(self.sigma) or self.sigma < 0:
            raise InvalidInputError(f"sigma must be finite and >= 0, got {self.sigma}")
        if not (0.0 < self.p_percentile < 100.0):
            raise InvalidInputError(
                f"p_percentile must lie in (0, 100), got {self.p_percentile}"
            )
        # in [0, 1] every thresholded entry stays in [-1, 1] (the blurred
        # affinity's range), so each diffusion entry is at most n in magnitude
        if not 0.0 <= self.soft_multiplier <= 1.0:
            raise InvalidInputError(
                f"soft_multiplier must lie in [0, 1], got {self.soft_multiplier}"
            )
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


def _positive_row_max(m: np.ndarray) -> np.ndarray:
    """Each row's maximum; DegenerateAffinityError if one is not positive."""
    row_max = m.max(axis=1)
    if np.any(row_max <= 0):
        bad = int(np.argmax(row_max <= 0))
        raise DegenerateAffinityError(
            f"row {bad} has max {row_max[bad]:.3e} <= 0; cannot normalize"
        )
    return row_max


def _row_max_normalize_symmetrize(y: np.ndarray) -> np.ndarray:
    """(R + Rᵀ)/2 for R = y divided row by row by its row maxima d, in place on
    y, a block of rows at a time: each entry becomes (y_ij/d_i + y_ij/d_j)·0.5.

    Bit for bit that result, because y is gram's output, exactly symmetric:
    y_ij = y_ji. The chain's y is C-ordered, so each block is contiguous rows.
    """
    d = _positive_row_max(y)
    step = row_block(d.size)
    for lo in range(0, d.size, step):
        block = y[lo : lo + step]
        by_row = block / d[lo : lo + step, None]
        np.divide(block, d, out=block)
        block += by_row
        block *= 0.5
    return y


def _threshold_symmetrize(m: np.ndarray, p: float, soft_multiplier: float) -> np.ndarray:
    """max(T, Tᵀ) for the row threshold T of m, in place on a C-ordered, exactly
    symmetric m, a block of rows at a time: no transposed pass.

    T scales each entry strictly below its row's nearest-rank p-percentile c
    by soft_multiplier (0 zeroes it). With every row's cut read first, entry
    ij becomes max(s(m_ij, c_i), s(m_ij, c_j)), s applying a cut. As m_ji =
    m_ij, that is max(T_ij, T_ji), bit for bit, its own row's value first as
    np.maximum(T, Tᵀ) orders signed zeros.
    """
    n = m.shape[0]
    kth = nearest_rank_index(p, n)
    step = row_block(n)
    cut = np.empty(n)
    for lo in range(0, n, step):
        cut[lo : lo + step] = np.partition(m[lo : lo + step], kth, axis=1)[:, kth]
    for lo in range(0, n, step):
        block = m[lo : lo + step]
        soft = block * soft_multiplier
        own = np.where(block < cut[lo : lo + step, None], soft, block)
        np.copyto(block, soft, where=block < cut)
        np.maximum(own, block, out=block)
    return m


def _estimate_k_eigengap(values, min_clusters: int, max_clusters: int) -> int:
    """k maximizing values[k-1] / max(values[k], EIG_FLOOR) over [min_clusters,
    min(max_clusters, n-1)], ties toward smaller k. Unchecked: _solve hands over
    values sorted descending and a range that is not empty."""
    return max(range(min_clusters, min(max_clusters, len(values) - 1) + 1),
               key=lambda k: values[k - 1] / max(values[k], EIG_FLOOR))


def _spectral_embed(vectors: np.ndarray, k: int) -> np.ndarray:
    """Rows of the first k columns of `vectors` (eigh's eigenvectors, leading
    first), not normalized: kmeans normalizes its input.

    Row i is the new embedding of segment i. Zero rows (possible when a
    segment has no weight in the top-k subspace) are replaced by the unit
    vector along the first coordinate.
    """
    rows = np.array(vectors[:, :k])
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


def _cluster_sums(u: np.ndarray, labels: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each cluster's sum of rows, (k, d), and its norm, (k, 1).

    The sums come from one bincount over (label, column) cells, added in row
    order from 0.0 as u[labels == c].sum(axis=0) adds them; each norm is
    np.linalg.norm's dot product, in l2_normalize_rows' stacked form.
    """
    d = u.shape[1]
    cells = (labels[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(cells, weights=u.ravel(), minlength=k * d).reshape(k, d)
    return sums, np.sqrt((sums[:, None, :] @ sums[:, :, None])[:, 0])


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

    Centroids are the normalized _cluster_sums. An assignment equal to the
    accepted one would give the same centroids and objective again (a cluster
    the repair refills holds one row, whose centroid is that row's as before):
    the run records that objective once more and stops without recomputing it.
    """
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
        sums, norms = _cluster_sums(u, new_labels, k)
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
    and to the elbow search. At k = 1 every run labels each row 0 and moves
    its centroid to the rows' normalized sum, whatever row seeded it, so
    one run gives them all, unless that sum has no direction and each run
    keeps its seed.
    """
    rng = np.random.default_rng(seed)
    restarts = _RESTARTS
    if k == 1:
        _, norm = _cluster_sums(u, np.zeros(len(u), dtype=np.intp), 1)
        if norm[0, 0] >= ZERO_NORM_TOL:
            restarts = 1
    runs = (_lloyd(u, k, rng, _MAX_ITERS, _TOL) for _ in range(restarts))
    labels, _, obj, _ = min(runs, key=lambda run: run[2])  # the first on a tie
    return labels, obj


def kmeans(embeddings, k: int, *, seed: int = 0) -> ClusteringResult:
    """Spherical k-means: cosine assignment, normalized-mean centroids.

    Inputs are L2-normalized first. Runs _RESTARTS seeded k-means++
    initializations (each at most _MAX_ITERS Lloyd steps, stopping once the
    objective falls by less than _TOL) and keeps the run with the lowest objective
    sum(d(x_i, c_{a(i)})^2), d being the halved cosine distance.
    """
    check_integers(k=k, seed=seed)
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    _check_seed(seed)
    u = l2_normalize_rows(embedding_matrix(embeddings))
    n = u.shape[0]
    if k > n:
        raise InvalidInputError(f"k={k} exceeds the number of points ({n})")
    return ClusteringResult(_best_run(u, k, seed)[0])


def _viterbi(scores: np.ndarray, penalty: float, last: int) -> np.ndarray:
    """The label path z maximizing sum(scores[i, z_i]) - penalty * (changes of
    label), staying put on a tie.

    A segment keeps the next one's label wherever changing it gains no more,
    the last segment keeps label `last` if that ties for the best, and among
    tied other labels the lowest wins. Each step is scalar Python: with a
    handful of labels that is faster than numpy's per-call cost, and the
    backtrack finds a step's best label only where the path changes label.
    """
    rows = scores.tolist()
    total = rows[0]
    steps = []
    for row in rows[1:]:
        switch = max(total) - penalty
        steps.append((total, switch))
        total = [s + (t if t >= switch else switch) for s, t in zip(row, total)]
    top = max(total)
    z = [last if total[last] == top else total.index(top)]
    for prev, switch in reversed(steps):
        z.append(z[-1] if prev[z[-1]] >= switch else prev.index(max(prev)))
    return np.array(z[::-1], dtype=np.intp)


def _resegment(u: np.ndarray, clustering: ClusteringResult, min_clusters: int) -> ClusteringResult:
    """A von Mises-Fisher HMM pass over the unit rows u of segments in time
    order, one label each: each segment's label again, by its row's fit and
    its neighbours'.

    Each round takes every cluster's centroid c_j as the normalized sum of its
    unit rows u_i, R as the mean of u_i . c_{z_i}, and the concentration
    kappa = R (d - R^2) / (1 - R^2) (Banerjee et al., JMLR 2005), then relabels
    by _viterbi on kappa u_i . c_j less RESEGMENT_PENALTY per change. A
    cluster the round empties goes, and the rest are renumbered in order. At
    most RESEGMENT_ROUNDS rounds, while labels change. Labels stay as they
    are when R is not below 1 (every row on its centroid: kappa has no finite
    value) or not above 0 (no cluster's sum has a direction), and a round that
    would leave fewer than min(min_clusters, the input's k) clusters is not
    taken: the pass keeps the speaker bounds its input meets.
    """
    z = clustering.labels
    floor = min(min_clusters, int(z.max()) + 1)
    for _ in range(RESEGMENT_ROUNDS):
        sums, norms = _cluster_sums(u, z, int(z.max()) + 1)
        centroids = np.divide(sums, norms, out=np.zeros_like(sums), where=norms >= ZERO_NORM_TOL)
        r = float(np.mean(_assigned_cosines(u, centroids, z)))
        if not 0.0 < r < 1.0:
            break
        kappa = r * (u.shape[1] - r * r) / (1.0 - r * r)
        path = _viterbi(kappa * (u @ centroids.T), RESEGMENT_PENALTY, int(z[-1]))
        kept, new = np.unique(path, return_inverse=True)
        if len(kept) < floor or np.array_equal(new, z):
            break
        z = new
    return ClusteringResult(z)


def estimate_k_elbow(
    embeddings, max_clusters: int, *, min_clusters: int = 1, seed: int = 0
) -> ClusteringResult:
    """The clustering at the k with the largest drop MSCD(k-1) - MSCD(k), k >= 2.

    The bounds are clamped to n, as spectral clustering does. When that
    leaves only k = 1 (max_clusters = 1, or one row) the result is the k = 1
    run, the labels kmeans(x, 1) gives; otherwise the search range is
    [max(2, min_clusters), max_clusters], clamped, and ties break toward
    smaller k. The labels are the search's own best run at that k, the run
    kmeans makes with that k and the same seed; MSCD(k) is that run's
    objective over n.
    """
    check_integers(max_clusters=max_clusters, min_clusters=min_clusters, seed=seed)
    if max_clusters < max(1, min_clusters):
        raise InvalidInputError(
            f"cluster-count range [{min_clusters}, {max_clusters}] holds no k >= 1"
        )
    _check_seed(seed)
    u = l2_normalize_rows(embedding_matrix(embeddings))
    n = u.shape[0]
    # runs[k - 1] is k's (labels, objective), up to hi = min(max_clusters, n);
    # as min_clusters <= max_clusters, min(min_clusters, n) is min(min_clusters, hi)
    runs = [_best_run(u, k, seed) for k in range(1, min(max_clusters, n) + 1)]
    mscd = [obj / n for _, obj in runs]
    hi = len(runs)
    if hi == 1:
        return ClusteringResult(runs[0][0])
    # max keeps the first, so the smallest, k of a tie
    k = max(range(max(2, min(min_clusters, hi)), hi + 1), key=lambda k: mscd[k - 2] - mscd[k - 1])
    return ClusteringResult(runs[k - 1][0])


def blurred_affinity(embeddings, sigma: float) -> np.ndarray:
    """The refinement chain's first matrix, p-independent: the cosine affinity
    of the embeddings, each diagonal entry taking its row's largest cosine off
    it, blurred in 2-D by the truncated Gaussian of radius ceil(3 sigma) with
    reflected borders. C-ordered and exactly symmetric.

    The affinity is U Uᵀ + diag(delta) for the unit rows U, delta_i taking
    row i's diagonal to its largest off-diagonal cosine (clipped to [-1, 1]),
    so blurred_gram builds its blur from the rank-d factor: no n x n affinity.
    """
    x = embedding_matrix(embeddings)
    if len(x) < 2:
        raise InvalidInputError("spectral clustering needs at least 2 segments")
    u = l2_normalize_rows(x)
    squares, row_max = gram_diagonal_and_row_max(u)
    return blurred_gram(u, row_max.clip(-1.0, 1.0) - squares, sigma).T


def _unobserved(name: str, m: np.ndarray) -> None:
    pass


def _solve(m: np.ndarray, params: SpectralParams, observe) -> ClusteringResult:
    """The refinement chain on a blurred affinity m (C-ordered and exactly
    symmetric, as blurred_affinity makes it), each stage written into m and
    shown to observe(stage name, m), then eigen-gap k, re-embedding and
    k-means on its last matrix.

    After the blur: the row threshold and symmetrization in one pass,
    diffusion (the Gram product), then the row-max normalization R and
    (R + Rᵀ)/2 in another; that last matrix is the one _eigh solves. The
    count and k it passes on are valid by construction.
    """
    observe("blur", m)
    observe("symmetrize", _threshold_symmetrize(m, params.p_percentile, params.soft_multiplier))
    observe("diffuse", gram(m, out=m))
    observe("refined", _row_max_normalize_symmetrize(m))
    n = m.shape[0]
    min_c = min(params.min_clusters, n)
    max_c = min(params.max_clusters, n)
    # the eigen-gap rule reads values[0 .. min(max_c, n - 1)] and the
    # embedding at most the first max_c vectors: nothing past them is needed
    values, vectors = _eigh(m, count=min(max_c, n - 1) + 1)
    k = min_c if min_c > min(max_c, n - 1) else _estimate_k_eigengap(values, min_c, max_c)
    return kmeans(_spectral_embed(vectors, k), k, seed=params.seed)


def spectral_cluster(embeddings, params: SpectralParams, observe=None) -> ClusteringResult:
    """Spectral clustering of segment embeddings: blurred_affinity, then the
    refinement chain in that matrix, eigen-gap k, re-embedding and k-means.
    Cluster bounds are clamped to n; with no eigen-gap range left, k is the
    minimum. observe(stage name, matrix), if given, is called after each
    stage (blur, symmetrize, diffuse, refined) with the one n x n matrix the
    chain rewrites in place, so it holds the stage only until observe
    returns; the last is the matrix that is solved."""
    return _solve(blurred_affinity(embeddings, params.sigma), params, observe or _unobserved)


def spectral_grid(embeddings, grid) -> list[ClusteringResult]:
    """spectral_cluster under each SpectralParams of the sequence grid, in
    order, bit for bit. The blurred affinity is built once per distinct
    sigma, and each config's chain runs in a copy of it; only the current
    sigma's matrix is held, so at most two n x n matrices at a time."""
    results = {}
    for sigma in dict.fromkeys(params.sigma for params in grid):
        blurred = blurred_affinity(embeddings, sigma)
        for i, params in enumerate(grid):
            if params.sigma == sigma:
                results[i] = _solve(blurred.copy(), params, _unobserved)
        del blurred  # before the next sigma's matrix is built
    return [results[i] for i in range(len(grid))]


def two_stage_cluster(embeddings, params: SpectralParams, observe=None) -> ClusteringResult:
    """Spectral clustering in two stages, with no n x n matrix (after Wang et
    al., arXiv:2210.13690).

    The rows are checked and unit-normalized once. One seeded spherical
    k-means run (_lloyd, at most PRECLUSTER_ITERS steps) reduces them to
    PRECLUSTER_COUNT centroids, every one of which some row takes;
    spectral_cluster clusters those at sigma 0, observe seeing its chain
    (centroids have no time order: no blur); each row takes its centroid's
    label; and _resegment revisits the rows in time order without taking k
    below min_clusters.
    """
    u = l2_normalize_rows(embedding_matrix(embeddings))
    if len(u) < PRECLUSTER_COUNT:
        raise InvalidInputError(f"{len(u)} rows for {PRECLUSTER_COUNT} pre-cluster centroids")
    assignment, centroids, _, _ = _lloyd(u, PRECLUSTER_COUNT, np.random.default_rng(params.seed),
                                         PRECLUSTER_ITERS, _TOL)
    stage2 = spectral_cluster(centroids, replace(params, sigma=0.0), observe)
    return _resegment(u, ClusteringResult(stage2.labels[assignment]), params.min_clusters)


def check_threshold(threshold: float) -> None:
    """The naive online clusterer's cosine threshold: a real number in (-1, 1)."""
    check_reals(threshold=threshold)
    if not (-1.0 < threshold < 1.0):
        raise InvalidInputError(f"threshold must lie in (-1, 1), got {threshold}")


def run_online(embeddings, threshold: float) -> ClusteringResult:
    """Naive online clustering of the rows of the embedding matrix, in order.

    Each cluster keeps the running sum of its unit rows; cosine to the sum
    equals cosine to the mean, so the centroid is never renormalized. A row
    joins the most similar cluster (the lowest label on a tie) if that
    similarity reaches the threshold, and founds a new cluster otherwise.
    A row's label depends only on the rows before it.
    """
    check_threshold(threshold)
    sums: list[np.ndarray] = []
    norms: list[float] = []  # each sum's norm, recomputed only when a row joins it
    labels = []
    for unit in l2_normalize_rows(embedding_matrix(embeddings)):
        best_label = -1
        best_sim = -math.inf
        for label, (s, norm) in enumerate(zip(sums, norms)):
            sim = float(unit @ s) / norm if norm >= ZERO_NORM_TOL else -1.0
            if sim > best_sim:
                best_label, best_sim = label, sim
        if best_label < 0 or best_sim < threshold:
            best_label = len(sums)
            sums.append(unit.copy())
            norms.append(float(np.linalg.norm(unit)))
        else:
            sums[best_label] = sums[best_label] + unit
            norms[best_label] = float(np.linalg.norm(sums[best_label]))
        labels.append(best_label)
    return ClusteringResult(np.array(labels))
