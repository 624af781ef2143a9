"""Independent reference implementations used to pin expected values.

Everything here is deliberately written with a different strategy from
the package code: direct 2-D convolution, or scipy.ndimage's separable
filter, instead of blurring a Gram matrix's factor, the refinement chain's
stages as plain dense matrices instead of one matrix rewritten in place,
midpoint slicing in floats instead of integer-tick coverage counts, exhaustive
permutation search or scipy.optimize's Hungarian-type solver instead of the
package's bipartite matching, one vector pair at a time instead of whole
matrices, one cluster at a time in k-means, every label path instead of the
Viterbi recursion, every cluster norm recomputed for every row in online
clustering. Slow but obviously correct on small inputs.
The synthetic generator's self-check, `angular_stats`, lives here too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.ndimage import gaussian_filter
from scipy.optimize import linear_sum_assignment

from diarkit import (
    Annotation,
    EvalOptions,
    InvalidInputError,
    ParseError,
    Segment,
    SegmentEmbedding,
    TimeInterval,
    Windows,
)
from diarkit.numerics import ZERO_NORM_TOL, l2_normalize_rows, nearest_rank_index


def float_vector(values) -> np.ndarray:
    """values as a finite 1-D float64 vector of dimension >= 1."""
    try:
        v = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"expected a 1-D vector of numbers: {exc}") from None
    if v.ndim != 1 or v.size < 1:
        raise InvalidInputError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("vector contains non-finite entries")
    return v


def unit_vector(values) -> np.ndarray:
    """One vector over its own np.linalg.norm; InvalidInputError if that is zero."""
    v = float_vector(values)
    norm = float(np.linalg.norm(v))
    if norm < ZERO_NORM_TOL:
        raise InvalidInputError("cannot normalize a zero vector")
    return v / norm


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between a and b, clamped to [-1, 1]."""
    a = float_vector(a)
    b = float_vector(b)
    if a.shape != b.shape:
        raise InvalidInputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < ZERO_NORM_TOL or nb < ZERO_NORM_TOL:
        raise InvalidInputError("cosine similarity undefined for zero vectors")
    cos = float(np.dot(a, b)) / (na * nb)
    return min(1.0, max(-1.0, cos))


def cosine_distance(a, b) -> float:
    """d(a, b) = (1 - cos(a, b)) / 2, in [0, 1]."""
    return (1.0 - cosine_similarity(a, b)) / 2.0


def nearest_rank_percentile(row, p: float) -> float:
    """Nearest-rank percentile: sorted[ceil(p/100 * n) - 1], no interpolation."""
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1 or row.size == 0:
        raise InvalidInputError("percentile requires a non-empty 1-D vector")
    ordered = np.sort(row)
    return float(ordered[nearest_rank_index(p, row.size)])


def brute_force_assignment(matrix: np.ndarray) -> float:
    """Largest total over all one-to-one assignments of size min(r, c)."""
    m = np.asarray(matrix, dtype=np.float64)
    r, c = m.shape
    best = -math.inf
    if r <= c:
        for cols in itertools.permutations(range(c), r):
            best = max(best, sum(m[i, j] for i, j in enumerate(cols)))
    else:
        for rows in itertools.permutations(range(r), c):
            best = max(best, sum(m[i, j] for j, i in enumerate(rows)))
    return best


def scipy_assignment_total(matrix: np.ndarray) -> float:
    """Maximum one-to-one assignment total by scipy.optimize.linear_sum_assignment:
    the package's solver before it moved to scipy.sparse.csgraph, and an
    oracle at sizes exhaustive search cannot reach."""
    m = np.asarray(matrix, dtype=np.float64)
    rows, cols = linear_sum_assignment(m, maximize=True)
    return float(m[rows, cols].sum())


def direct_blur(m: np.ndarray, sigma: float) -> np.ndarray:
    """Direct (non-separable) truncated-Gaussian convolution, reflected borders."""
    m = np.asarray(m, dtype=np.float64)
    if sigma == 0:
        return m.copy()
    radius = math.ceil(3.0 * sigma)
    size = 2 * radius + 1
    kernel = np.empty((size, size))
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            kernel[dy + radius, dx + radius] = math.exp(
                -(dx * dx + dy * dy) / (2.0 * sigma * sigma)
            )
    kernel /= kernel.sum()
    padded = np.pad(m, radius, mode="symmetric")
    rows, cols = m.shape
    out = np.zeros_like(m)
    for y in range(rows):
        for x in range(cols):
            patch = padded[y : y + size, x : x + size]
            out[y, x] = float(np.sum(patch * kernel))
    return out


def mirrored_syrk(x: np.ndarray) -> np.ndarray:
    """x xᵀ as BLAS dsyrk computes its upper triangle, mirrored whole onto the lower."""
    upper = dsyrk(1.0, np.asarray(x, dtype=np.float64).T, trans=1)
    return np.where(np.tri(upper.shape[0], k=-1, dtype=bool), upper.T, upper)


def sort_threshold(m: np.ndarray, kth: int, soft: float) -> np.ndarray:
    """Threshold every row at its k-th smallest entry, read from a full sort."""
    return np.where(m < np.sort(m, axis=1)[:, [kth]], m * soft, m)


def affinity(x) -> np.ndarray:
    """Pairwise cosines of the rows of x, clipped to [-1, 1], each diagonal
    entry set to its row's largest cosine off the diagonal."""
    a = np.clip(mirrored_syrk(l2_normalize_rows(np.asarray(x, dtype=np.float64))), -1.0, 1.0)
    np.fill_diagonal(a, -np.inf)
    np.fill_diagonal(a, a.max(axis=1))
    return a


def blur(m: np.ndarray, sigma: float) -> np.ndarray:
    """2-D Gaussian blur, the kernel truncated at radius ceil(3 sigma), borders
    reflected (the edge value repeated)."""
    return gaussian_filter(np.asarray(m, dtype=np.float64), sigma, mode="reflect",
                           radius=math.ceil(3 * sigma))


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Elementwise max(m_ij, m_ji)."""
    return np.maximum(m, m.T)


def row_max_normalize(m: np.ndarray) -> np.ndarray:
    """Each row divided by its own maximum."""
    return m / m.max(axis=1)[:, None]


def dense_refined(x, sigma: float, p: float, soft: float) -> np.ndarray:
    """The refined affinity (R + Rᵀ)/2 of the rows of x, each stage of the chain
    a new dense matrix: affinity, blur, row threshold, symmetrize, diffuse
    (the Gram product), row-max normalization R."""
    m = blur(affinity(x), sigma)
    m = symmetrize(sort_threshold(m, nearest_rank_index(p, m.shape[1]), soft))
    r = row_max_normalize(mirrored_syrk(m))
    return (r + r.T) * 0.5


def _cos_dist_sq(u: np.ndarray, center: np.ndarray) -> np.ndarray:
    d = (1.0 - np.clip(u @ center, -1.0, 1.0)) / 2.0
    return d * d


def kmeans_pp_oracle(u: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
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


def repair_empty_oracle(
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


def lloyd_oracle(
    u: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iters: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, float, list[float]]:
    """One seeded k-means run, one cluster at a time: each centroid update
    sums u[labels == c], and the run stops on an assignment it has already
    accepted only after recomputing that assignment's centroids and
    objective. Returns (labels, centroids, objective, history).
    """
    centroids = kmeans_pp_oracle(u, k, rng)
    labels = None
    prev_obj = math.inf
    history: list[float] = []
    for _ in range(max_iters):
        sims = u @ centroids.T
        new_labels = np.argmax(sims, axis=1)
        # repair works on a copy: the accepted state must survive a rejected update
        new_centroids = centroids.copy()
        new_labels = repair_empty_oracle(u, new_centroids, new_labels, k)
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


def best_path_oracle(scores: np.ndarray, penalty: float, last: int) -> list[int]:
    """The label path z maximizing sum(scores[i, z_i]) - penalty * (changes of
    label), from every one of the k^n paths.

    Each path's total is summed from its first segment on, the penalty taken
    off before each segment's score is added, as the Viterbi recursion adds
    them. Among paths of the highest total, read from the last segment back,
    the last keeps label `last` and each other segment the next one's label
    where one can, and the lowest label wins otherwise: staying put on a tie.
    """
    n, k = scores.shape

    def total(path) -> float:
        t = float(scores[0, path[0]])
        for i in range(1, n):
            t = float(scores[i, path[i]]) + (t - penalty * (path[i] != path[i - 1]))
        return t

    def preference(path) -> list[int]:
        nexts = [last] + list(path[:0:-1])  # what each segment, last first, would keep
        return [0 if label == keep else 1 + label for label, keep in zip(path[::-1], nexts)]

    paths = itertools.product(range(k), repeat=n)
    return list(min(paths, key=lambda path: (-total(path), preference(path))))


def resegment_oracle(x: np.ndarray, labels, penalty: float, rounds: int) -> list[int]:
    """The resegmentation pass with one cluster and one row at a time and
    best_path_oracle for the Viterbi step: centroids are each cluster's
    normalized row sum, R the mean clipped cosine of each row to its own,
    kappa = R (d - R^2) / (1 - R^2); labels are kept when R is not in (0, 1),
    and an emptied cluster is dropped, the rest renumbered in order."""
    u = np.array([unit_vector(row) for row in x])
    z = [int(v) for v in labels]
    for _ in range(rounds):
        k = max(z) + 1
        centroids = np.zeros((k, u.shape[1]))
        for c in range(k):
            s = u[np.array(z) == c].sum(axis=0)
            if np.linalg.norm(s) >= ZERO_NORM_TOL:
                centroids[c] = s / np.linalg.norm(s)
        r = sum(min(1.0, max(-1.0, float(u[i] @ centroids[z[i]]))) for i in range(len(z))) / len(z)
        if not 0.0 < r < 1.0:
            break
        kappa = r * (u.shape[1] - r * r) / (1.0 - r * r)
        scores = np.array([[kappa * float(row @ c) for c in centroids] for row in u])
        path = best_path_oracle(scores, penalty, z[-1])
        kept = sorted(set(path))
        new = [kept.index(label) for label in path]
        if new == z:
            break
        z = new
    return z


def online_oracle(x: np.ndarray, threshold: float) -> list[int]:
    """run_online's labels with every cluster sum's norm recomputed for every
    row: each row joins the cluster whose sum it has the highest cosine to
    (the lowest label on a tie) if that cosine reaches the threshold, and
    founds a new cluster otherwise."""
    sums: list[np.ndarray] = []
    labels = []
    for unit in l2_normalize_rows(np.asarray(x, dtype=np.float64)):
        best_label, best_sim = -1, -math.inf
        for label, s in enumerate(sums):
            norm = float(np.linalg.norm(s))
            sim = float(unit @ s) / norm if norm >= ZERO_NORM_TOL else -1.0
            if sim > best_sim:
                best_label, best_sim = label, sim
        if best_label < 0 or best_sim < threshold:
            best_label = len(sums)
            sums.append(unit.copy())
        else:
            sums[best_label] = sums[best_label] + unit
        labels.append(best_label)
    return labels


def aggregate_oracle(windows, segments) -> list[SegmentEmbedding]:
    """aggregate one window at a time: a searchsorted per center, each vector
    over its own np.linalg.norm, and a running sum per segment.

    Only the averaging: segment checks and the drop warning are left out.
    """
    starts = np.array([seg.start for seg in segments])
    sums: list[np.ndarray | None] = [None] * len(segments)
    counts = [0] * len(segments)
    for start, end, vector in zip(windows.starts.tolist(), windows.ends.tolist(), windows.vectors):
        center = 0.5 * (start + end)
        idx = int(np.searchsorted(starts, center, side="right")) - 1
        if idx < 0 or not segments[idx].start <= center < segments[idx].end:
            continue
        vector = np.array(vector)
        norm = float(np.linalg.norm(vector))
        if norm < 1e-12:
            raise InvalidInputError("cannot normalize a zero vector")
        unit = vector / norm
        sums[idx] = unit if sums[idx] is None else sums[idx] + unit
        counts[idx] += 1
    out = [
        SegmentEmbedding(seg, total / count)
        for seg, total, count in zip(segments, sums, counts)
        if count
    ]
    if not out:
        raise InvalidInputError("every segment was empty: no window centers fell inside")
    return out


def _cell(token: str, what: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad {what}: {token!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what}: {token!r}", line)
    return value


def embeddings_csv_rows(text: str) -> list[tuple[float, float, list[float]]]:
    """Embeddings CSV data rows read and checked one line at a time.

    Raises ParseError for the first bad line. The header checks are left to
    the package reader.
    """
    lines = text.splitlines()
    width = len(lines[0].split(","))
    rows = []
    prev_start = -math.inf
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise ParseError(f"expected {width} cells, got {len(cells)}", lineno)
        start = _cell(cells[0], "start", lineno)
        end = _cell(cells[1], "end", lineno)
        vector = [_cell(c, "component", lineno) for c in cells[2:]]
        if start < prev_start:
            raise ParseError("rows must be sorted by start time", lineno)
        prev_start = start
        try:
            TimeInterval(start, end)
        except InvalidInputError as exc:
            raise ParseError(str(exc), lineno) from None
        rows.append((start, end, vector))
    if not rows:
        raise ParseError("no data rows", len(lines))
    return rows


def _boundaries(reference: Annotation, hypothesis: Annotation, opts: EvalOptions) -> list[float]:
    points: set[float] = set()
    for ann in (reference, hypothesis):
        for seg in ann:
            points.add(seg.interval.start)
            points.add(seg.interval.end)
    for seg in reference:
        for b in (seg.interval.start, seg.interval.end):
            points.add(b - opts.collar)
            points.add(b + opts.collar)
    if opts.uem is not None:
        for iv in opts.uem:
            points.add(iv.start)
            points.add(iv.end)
    return sorted(points)


def der_oracle(
    reference: Annotation, hypothesis: Annotation, opts: EvalOptions
) -> dict[str, float]:
    """Midpoint-slicing DER with the speaker mapping found by brute force.

    Returns fa/miss/confusion/ref_speech in seconds. Total matched time is
    maximized over every one-to-one label mapping; confusion equals
    co-active time minus that maximum, so the result does not depend on
    which maximizing mapping is picked.
    """
    cuts = _boundaries(reference, hypothesis, opts)
    if opts.uem is not None:
        region_test = lambda t: any(iv.start <= t < iv.end for iv in opts.uem)
    else:
        lo = min(seg.interval.start for seg in reference)
        hi = max(seg.interval.end for seg in reference)
        region_test = lambda t: lo <= t < hi

    ref_labels = sorted({seg.speaker for seg in reference})
    hyp_labels = sorted({seg.speaker for seg in hypothesis})

    slices = []  # (length, active ref set, active hyp set)
    for left, right in zip(cuts, cuts[1:]):
        if right <= left:
            continue
        mid = (left + right) / 2.0
        if not region_test(mid):
            continue
        if opts.collar > 0 and any(
            b - opts.collar <= mid < b + opts.collar
            for seg in reference
            for b in (seg.interval.start, seg.interval.end)
        ):
            continue
        active_ref = {seg.speaker for seg in reference
                      if seg.interval.start <= mid < seg.interval.end}
        if opts.exclude_overlap and len(active_ref) >= 2:
            continue
        active_hyp = {seg.speaker for seg in hypothesis
                      if seg.interval.start <= mid < seg.interval.end}
        slices.append((right - left, active_ref, active_hyp))

    def matched_total(mapping: dict[str, str]) -> float:
        total = 0.0
        for length, active_ref, active_hyp in slices:
            total += length * sum(
                1 for r, h in mapping.items() if r in active_ref and h in active_hyp
            )
        return total

    best_matched = 0.0
    nr, nh = len(ref_labels), len(hyp_labels)
    if nr and nh:
        if nr <= nh:
            for cols in itertools.permutations(hyp_labels, nr):
                best_matched = max(best_matched, matched_total(dict(zip(ref_labels, cols))))
        else:
            for rows in itertools.permutations(ref_labels, nh):
                best_matched = max(best_matched, matched_total(dict(zip(rows, hyp_labels))))

    miss = fa = both = ref_speech = 0.0
    for length, active_ref, active_hyp in slices:
        r, h = len(active_ref), len(active_hyp)
        ref_speech += r * length
        miss += max(0, r - h) * length
        fa += max(0, h - r) * length
        both += min(r, h) * length
    return {
        "fa": fa,
        "miss": miss,
        "confusion": both - best_matched,
        "ref_speech": ref_speech,
    }


def overlap_milliseconds(
    reference: Annotation, hypothesis: Annotation, opts: EvalOptions
) -> np.ndarray:
    """Integer co-active durations per (ref label, hyp label), in ms.

    Labels are taken in sorted order on both axes. Millisecond rounding
    makes the matrix exact for annotations on a 0.1 s grid, so permutation
    search over it has no float ties.
    """
    ref_labels = sorted({seg.speaker for seg in reference})
    hyp_labels = sorted({seg.speaker for seg in hypothesis})
    matrix = np.zeros((len(ref_labels), len(hyp_labels)))
    cuts = _boundaries(reference, hypothesis, opts)
    for left, right in zip(cuts, cuts[1:]):
        if right <= left:
            continue
        mid = (left + right) / 2.0
        for i, r in enumerate(ref_labels):
            if not any(
                seg.interval.start <= mid < seg.interval.end
                for seg in reference if seg.speaker == r
            ):
                continue
            for j, h in enumerate(hyp_labels):
                if any(
                    seg.interval.start <= mid < seg.interval.end
                    for seg in hypothesis
                    if seg.speaker == h
                ):
                    matrix[i, j] += right - left
    return np.rint(matrix * 1000.0)


def random_der_case(rng: np.random.Generator):
    """Random (reference, hypothesis, opts) on a 0.1 s grid.

    May produce cases with an empty scoring region or no reference speech
    inside it; callers skip those by catching the scorer's error.
    """

    def annotation(rec_id, prefix, max_speakers, max_segments, allow_empty):
        n_speakers = int(rng.integers(1, max_speakers + 1))
        labels = [f"{prefix}{i}" for i in range(n_speakers)]
        lo = 0 if allow_empty else 1
        n_segments = int(rng.integers(lo, max_segments + 1))
        segments = []
        for _ in range(n_segments):
            start = int(rng.integers(0, 180)) / 10.0
            dur = int(rng.integers(2, 40)) / 10.0
            segments.append(
                Segment(
                    TimeInterval(start, start + dur),
                    labels[int(rng.integers(n_speakers))],
                )
            )
        if not allow_empty and rng.random() < 0.5:
            # thin to a non-overlapping subset half the time
            segments.sort(key=lambda s: (s.interval.start, s.interval.end))
            kept, cursor = [], -1.0
            for seg in segments:
                if seg.interval.start >= cursor:
                    kept.append(seg)
                    cursor = seg.interval.end
            segments = kept
        return Annotation.create(rec_id, segments)

    reference = annotation("case", "A", 4, 20, allow_empty=False)
    hypothesis = annotation("case", "H", 5, 20, allow_empty=True)
    uem = None
    if rng.random() < 0.4:
        start = int(rng.integers(0, 100)) / 10.0
        dur = int(rng.integers(20, 150)) / 10.0
        uem = [TimeInterval(start, start + dur)]
    opts = EvalOptions(
        collar=float(rng.choice([0.0, 0.25, 0.3])),
        exclude_overlap=bool(rng.random() < 0.5),
        uem=uem,
    )
    return reference, hypothesis, opts


@dataclass(frozen=True)
class SpeakerStats:
    """Empirical direction statistics for one planted speaker."""

    speaker: str
    count: int
    mean_direction: np.ndarray
    spread_deg: float


def angular_stats(windows: Windows, reference: Annotation) -> dict[str, SpeakerStats]:
    """Per-speaker empirical mean direction and mean angular deviation.

    Windows are attributed to the first reference segment containing their
    center time. Used as a generator self-check: the empirical mean
    should sit within a couple of degrees of the planted direction.
    """
    centers = 0.5 * (windows.starts + windows.ends)
    owner = np.full(len(windows), -1)
    for j, seg in reversed(list(enumerate(reference))):
        owner[(seg.interval.start <= centers) & (centers < seg.interval.end)] = j
    attributed = np.flatnonzero(owner >= 0)
    speakers = np.array([seg.speaker for seg in reference])[owner[attributed]]
    unit = l2_normalize_rows(windows.vectors[attributed])
    _, first = np.unique(speakers, return_index=True)
    stats: dict[str, SpeakerStats] = {}
    for speaker in speakers[np.sort(first)].tolist():
        vecs = unit[speakers == speaker]
        mean = unit_vector(np.sum(vecs, axis=0))
        cosines = np.clip(vecs @ mean, -1.0, 1.0)
        spread = float(np.degrees(np.mean(np.arccos(cosines))))
        stats[speaker] = SpeakerStats(
            speaker=speaker, count=len(vecs), mean_direction=mean, spread_deg=spread
        )
    return stats
