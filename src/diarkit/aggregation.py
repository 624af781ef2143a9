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

from .core import InvalidInputError, SegmentEmbedding, TimeInterval
from .numerics import l2_normalize_rows

log = logging.getLogger(__name__)

DEFAULT_MAX_SEGMENT_LEN = 0.4
# Pieces shorter than this are merged into their left neighbor (or the
# whole region is dropped): nothing that short can carry a window center.
MIN_PIECE_LEN = 0.01


class InvalidWindowError(InvalidInputError):
    """A window row breaks the Windows invariants; `row` is its index."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True, eq=False)
class Windows:
    """The sliding windows of one recording: window i spans [starts[i], ends[i])
    seconds and carries vectors[i].

    Checked here and nowhere else: all values finite, 0 <= start < end, rows
    sorted by start, one dimension d >= 1. The arrays are read-only copies.
    """

    starts: np.ndarray
    ends: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        names = ("starts", "ends", "vectors")
        try:
            arrays = [np.array(getattr(self, name), dtype=np.float64) for name in names]
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"window arrays must be numeric: {exc}") from None
        starts, ends, vectors = arrays
        m = vectors.shape[0] if vectors.ndim == 2 and vectors.shape[1] else -1
        if starts.shape != (m,) or ends.shape != (m,):
            raise InvalidInputError(
                "windows need starts (m,), ends (m,) and vectors (m, d >= 1), got "
                f"{starts.shape}, {ends.shape} and {vectors.shape}"
            )
        # one row per check, in the order a bad window reports them
        failed = np.stack([
            ~(np.isfinite(starts) & np.isfinite(ends) & np.isfinite(vectors).all(axis=1)),
            starts < np.r_[-np.inf, starts[:-1]],
            starts < 0,
            ~(ends > starts),
        ])
        if failed.any():
            i = int(np.argmax(failed.any(axis=0)))
            start, end = float(starts[i]), float(ends[i])
            messages = (
                "window values must be finite",
                "rows must be sorted by start time",
                f"negative interval start {start}",
                f"interval end must exceed start, got [{start}, {end}]",
            )
            raise InvalidWindowError(messages[int(np.argmax(failed[:, i]))], i)
        for name, a in zip(names, arrays):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.starts)


def _check_disjoint(intervals: Sequence[TimeInterval], what: str) -> None:
    prev_end = -float("inf")
    for interval in intervals:
        if interval.start < prev_end:
            raise InvalidInputError(f"{what} must be sorted and non-overlapping")
        prev_end = interval.end


def segmentize(
    regions: Sequence[TimeInterval],
    max_len: float = DEFAULT_MAX_SEGMENT_LEN,
) -> list[TimeInterval]:
    """Split speech regions left-to-right into pieces of at most max_len seconds.

    The final piece of a region is the remainder; remainders shorter than
    0.01 s are merged into the preceding piece, and regions shorter than
    0.01 s are dropped entirely. max_len itself must be at least 0.01 s.
    """
    if not (0 < max_len < np.inf):
        raise InvalidInputError(f"max_len must be finite and positive, got {max_len}")
    if max_len < MIN_PIECE_LEN:  # else the piece count is unbounded
        raise InvalidInputError(f"max_len must be at least {MIN_PIECE_LEN} s, got {max_len}")
    _check_disjoint(regions, "speech regions")
    out: list[TimeInterval] = []
    for region in regions:
        start, end = region.start, region.end
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
    windows: Windows,
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
    seg_starts, seg_ends = np.array([(seg.start, seg.end) for seg in segments]).T
    centers = 0.5 * (windows.starts + windows.ends)
    idx = np.searchsorted(seg_starts, centers, side="right") - 1
    inside = (idx >= 0) & (centers < seg_ends[np.maximum(idx, 0)])
    # -0.0 is the additive identity, so a one-window sum is that unit vector
    sums = np.full((len(segments), windows.vectors.shape[1]), -0.0)
    np.add.at(sums, idx[inside], l2_normalize_rows(windows.vectors[inside]))
    counts = np.bincount(idx[inside], minlength=len(segments))
    kept = np.flatnonzero(counts)
    if kept.size < len(segments):
        log.warning("dropped %d of %d segments that contained no window centers",
                    len(segments) - kept.size, len(segments))
    if not kept.size:
        raise InvalidInputError("every segment was empty: no window centers fell inside")
    means = sums[kept] / counts[kept, None]
    return [SegmentEmbedding(segments[i], mean) for i, mean in zip(kept.tolist(), means)]


def regions_from_windows(windows: Windows) -> list[TimeInterval]:
    """Union of window extents as sorted, non-overlapping speech regions."""
    # rows are sorted by start: a region opens at a start past every end so
    # far (touching extents merge) and closes at the last end before the next
    reach = np.maximum.accumulate(windows.ends)
    opens = np.flatnonzero(windows.starts > np.r_[-np.inf, reach[:-1]])
    closes = reach[np.r_[opens[1:], len(windows)] - 1] if len(windows) else reach
    spans = zip(windows.starts[opens].tolist(), closes.tolist())
    return [TimeInterval(s, e) for s, e in spans]
