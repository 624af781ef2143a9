"""Window-level embeddings to segment-level embeddings.

Speech regions (VAD output) are chopped into short non-overlapping
segments; each segment embedding is the mean of the L2-normalized window
vectors whose centers fall inside it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    InvalidInputError,
    SegmentEmbedding,
    TimeInterval,
    as_float_vector,
    interval_union,
)
from .numerics import l2_normalize

log = logging.getLogger(__name__)

DEFAULT_MAX_SEGMENT_LEN = 0.4
# Pieces shorter than this are merged into their left neighbor (or the
# whole region is dropped): nothing that short can carry a window center.
MIN_PIECE_LEN = 0.01


@dataclass(frozen=True, eq=False)
class WindowEmbedding:
    """One sliding-window extent and its embedding vector."""

    interval: TimeInterval
    embedding: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "embedding", as_float_vector(self.embedding))


@dataclass(frozen=True)
class SpeechRegion:
    """A maximal span of detected speech."""

    interval: TimeInterval


def _check_disjoint(intervals: Sequence[TimeInterval], what: str) -> None:
    prev_end = -float("inf")
    for interval in intervals:
        if interval.start < prev_end:
            raise InvalidInputError(f"{what} must be sorted and non-overlapping")
        prev_end = interval.end


def segmentize(
    regions: Sequence[SpeechRegion],
    max_len: float = DEFAULT_MAX_SEGMENT_LEN,
) -> list[TimeInterval]:
    """Split speech regions left-to-right into pieces of at most max_len seconds.

    The final piece of a region is the remainder; remainders shorter than
    0.01 s are merged into the preceding piece, and regions shorter than
    0.01 s are dropped entirely.
    """
    if not (max_len > 0) or not np.isfinite(max_len):
        raise InvalidInputError(f"max_len must be positive, got {max_len}")
    _check_disjoint([region.interval for region in regions], "speech regions")
    out: list[TimeInterval] = []
    for region in regions:
        start, end = region.interval.start, region.interval.end
        pieces: list[tuple[float, float]] = []
        t = start
        while end - t > max_len:
            pieces.append((t, t + max_len))
            t += max_len
        pieces.append((t, end))
        if pieces[-1][1] - pieces[-1][0] < MIN_PIECE_LEN:
            last = pieces.pop()
            if pieces:
                prev = pieces.pop()
                pieces.append((prev[0], last[1]))
            # else: region itself is shorter than the minimum; drop it
        out.extend(TimeInterval(s, e) for s, e in pieces)
    return out


def aggregate(
    windows: Sequence[WindowEmbedding],
    segments: Sequence[TimeInterval],
) -> list[SegmentEmbedding]:
    """Average L2-normalized window vectors into one embedding per segment.

    A window belongs to the segment whose half-open interval
    [start, end) contains the window's center time. The mean is not
    re-normalized. Segments that receive no windows are dropped (a single
    warning reports how many); if every segment is empty that is an error.
    """
    if not segments:
        raise InvalidInputError("no segments to aggregate into")
    _check_disjoint(segments, "segments")
    dim = None
    prev_start = -float("inf")
    for w in windows:
        if dim is None:
            dim = w.embedding.size
        elif w.embedding.size != dim:
            raise InvalidInputError("window embeddings must share one dimension")
        if w.interval.start < prev_start:
            raise InvalidInputError("windows must be sorted by start time")
        prev_start = w.interval.start

    starts = np.array([seg.start for seg in segments])
    sums: list[np.ndarray | None] = [None] * len(segments)
    counts = [0] * len(segments)
    for w in windows:
        center = w.interval.center
        idx = int(np.searchsorted(starts, center, side="right")) - 1
        if idx < 0 or not segments[idx].contains(center):
            continue
        unit = l2_normalize(w.embedding)
        sums[idx] = unit if sums[idx] is None else sums[idx] + unit
        counts[idx] += 1

    out: list[SegmentEmbedding] = []
    dropped = 0
    for seg, total, count in zip(segments, sums, counts):
        if count == 0:
            dropped += 1
            continue
        out.append(SegmentEmbedding(seg, total / count))
    if dropped:
        log.warning("dropped %d of %d segments that contained no window centers",
                    dropped, len(segments))
    if not out:
        raise InvalidInputError("every segment was empty: no window centers fell inside")
    return out


def regions_from_windows(windows: Sequence[WindowEmbedding]) -> list[SpeechRegion]:
    """Union of window extents as sorted, non-overlapping speech regions."""
    spans = interval_union((w.interval.start, w.interval.end) for w in windows)
    return [SpeechRegion(TimeInterval(s, e)) for s, e in spans]
