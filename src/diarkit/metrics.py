"""Diarization error rate scoring.

Conventions: a no-score collar around every reference boundary, optional
exclusion of overlapped reference speech, optional UEM restriction, and
an optimal one-to-one reference/hypothesis speaker mapping. All timeline
arithmetic happens on an integer grid of 0.1 microsecond ticks so that
reports are bit-reproducible and free of float-boundary double counting.
Both the scoring region and the scores count, over the slices between
consecutive span ends, the timelines that cover each (`_pieces`, `_depth`).
Ticks are int64, and input that would leave that range is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Annotation, InvalidInputError, TimeInterval
from .numerics import optimal_assignment

TICKS_PER_SECOND = 10_000_000
_INT64_MAX = 2**63 - 1


def _seconds(ticks: int) -> float:
    return ticks / TICKS_PER_SECOND


@dataclass(frozen=True)
class EvalOptions:
    """Scoring conventions: collar seconds, overlap exclusion, optional UEM."""

    collar: float = 0.25
    exclude_overlap: bool = True
    uem: tuple[TimeInterval, ...] | None = None

    def __post_init__(self):
        if not (0 <= self.collar < np.inf):
            raise InvalidInputError(f"collar must be finite and >= 0, got {self.collar}")
        if self.collar * TICKS_PER_SECOND >= 2**63:
            raise InvalidInputError(f"collar {self.collar} s leaves the int64 tick range")
        if self.uem is not None:
            object.__setattr__(self, "uem", tuple(self.uem))


@dataclass(frozen=True)
class DerReport:
    """FA / Miss / Confusion durations plus their rates against reference speech."""

    fa_seconds: float
    miss_seconds: float
    confusion_seconds: float
    ref_speech_seconds: float
    fa: float
    miss: float
    confusion: float
    total: float

    @classmethod
    def from_seconds(
        cls,
        fa_seconds: float,
        miss_seconds: float,
        confusion_seconds: float,
        ref_speech_seconds: float,
    ) -> "DerReport":
        for name, value in (
            ("fa", fa_seconds),
            ("miss", miss_seconds),
            ("confusion", confusion_seconds),
        ):
            if value < 0:
                raise InvalidInputError(f"{name}_seconds must be >= 0, got {value}")
        if ref_speech_seconds <= 0:
            raise InvalidInputError("ref_speech_seconds must be positive")
        fa = fa_seconds / ref_speech_seconds * 100.0
        miss = miss_seconds / ref_speech_seconds * 100.0
        confusion = confusion_seconds / ref_speech_seconds * 100.0
        return cls(
            fa_seconds=fa_seconds,
            miss_seconds=miss_seconds,
            confusion_seconds=confusion_seconds,
            ref_speech_seconds=ref_speech_seconds,
            fa=fa,
            miss=miss,
            confusion=confusion,
            total=fa + miss + confusion,
        )


def _tick_spans(intervals: Sequence[TimeInterval], limit: int = _INT64_MAX) -> np.ndarray:
    """(start, end) ticks per interval as an m x 2 int64 array, each rounded half
    to even; InvalidInputError past limit, which each caller sets so that its
    own arithmetic stays inside int64."""
    seconds = np.array([(iv.start, iv.end) for iv in intervals], dtype=np.float64).reshape(-1, 2)
    ticks = np.rint(seconds * TICKS_PER_SECOND)
    if ticks.size and int(ticks.max()) > limit:
        raise InvalidInputError(f"cannot score times past {limit / TICKS_PER_SECOND:.6g} s: "
                                "they leave the int64 tick range")
    return ticks.astype(np.int64)


def _pieces(rows, spans: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ticks of the spans, sorted, and each row's union as pieces.

    spans[i] is the (start, end) of a span in row rows[i]; spans of one row
    may overlap or touch. Returns `bounds`, each piece's row, and the indices
    in bounds of each piece's start and end as a 2 x pieces array; a row's
    pieces are disjoint. Sorted by row, then tick, a running sum of +1 per
    start and -1 per end counts the row's open spans (each row's sum is 0).
    """
    bounds, at = np.unique(spans.ravel(), return_inverse=True)
    rows = np.repeat(np.asarray(rows, dtype=np.intp), 2)
    order = np.lexsort((at, rows))
    rows, at = rows[order], at[order]
    opens = np.cumsum(np.tile([1, -1], len(spans))[order])[:-1] > 0
    opens &= at[:-1] < at[1:]
    return bounds, rows[:-1][opens], np.stack([at[:-1][opens], at[1:][opens]])


def _depth(bounds: np.ndarray, at: np.ndarray, which: np.ndarray) -> np.ndarray:
    """How many of the pieces at[:, which] cover each slice between bounds."""
    starts, ends = (np.bincount(i, minlength=bounds.size) for i in at[:, which])
    return np.cumsum(starts - ends)[:-1]


def _rows(annotation: Annotation, first: int = 0) -> tuple[list[str], list[int]]:
    """The sorted speaker labels, and each segment's row: first + its label's index."""
    labels = sorted({seg.speaker for seg in annotation})
    index = {label: first + i for i, label in enumerate(labels)}
    return labels, [index[seg.speaker] for seg in annotation]


def scoring_region(reference: Annotation, opts: EvalOptions) -> list[TimeInterval]:
    """Where scoring happens: UEM (or annotation extent) minus collars and overlap.

    A collar of +/- opts.collar is cut around every reference segment
    boundary; with exclude_overlap, spans where two or more reference
    speakers talk at once are cut as well. Of the slices cut by the base
    (row 0), the collar strips (row 1) and, with exclude_overlap, each
    reference speaker, those the base covers, no strip does and at most one
    speaker does are kept; each run of kept slices is one interval.
    InvalidInputError if a time plus the collar leaves int64 ticks.
    """
    if len(reference) == 0:
        raise InvalidInputError("reference annotation is empty")
    collar = round(opts.collar * TICKS_PER_SECOND)
    segments = _tick_spans([seg.interval for seg in reference], _INT64_MAX - collar)
    extent = np.array([[segments.min(), segments.max()]])
    spans = [extent if opts.uem is None else _tick_spans(opts.uem)]
    rows = [0] * len(spans[0])
    if collar:  # at collar 0 there are no strips
        spans.append(segments.reshape(-1, 1) + [-collar, collar])
        rows += [1] * segments.size
    if opts.exclude_overlap:
        spans.append(segments)
        rows += _rows(reference, first=2)[1]
    bounds, row, at = _pieces(rows, np.vstack(spans))
    kept = ((_depth(bounds, at, row == 0) > 0) & (_depth(bounds, at, row == 1) == 0)
            & (_depth(bounds, at, row >= 2) <= 1))
    runs = np.flatnonzero(np.diff(kept, prepend=False, append=False)).reshape(-1, 2)
    ticks = bounds.tolist()
    return [TimeInterval(_seconds(ticks[s]), _seconds(ticks[e])) for s, e in runs.tolist()]


def map_speakers(
    ref_labels: Sequence[str],
    hyp_labels: Sequence[str],
    overlap_matrix,
) -> dict[str, str]:
    """Reference-to-hypothesis mapping maximizing total matched duration."""
    overlap = np.asarray(overlap_matrix, dtype=np.float64)
    if overlap.shape != (len(ref_labels), len(hyp_labels)):
        raise InvalidInputError(
            f"overlap matrix shape {overlap.shape} does not match "
            f"{len(ref_labels)} x {len(hyp_labels)} labels"
        )
    if overlap.size == 0:
        return {}
    if np.any(overlap < 0):
        raise InvalidInputError("overlap durations must be >= 0")
    pairs = optimal_assignment(overlap)
    return {ref_labels[i]: hyp_labels[j] for i, j in pairs}


def der(reference: Annotation, hypothesis: Annotation, opts: EvalOptions) -> DerReport:
    """Score a hypothesis against a reference under the given conventions.

    Slices are cut at every reference, hypothesis and region tick, and one
    outside the region counts as lasting 0. With nr reference and nh
    hypothesis speakers covering a slice, co-active time gains min(nr, nh)
    times its duration; miss is reference time minus co-active time, false
    alarm hypothesis time minus it. A pair's overlap is the reference
    speaker's running region time differenced over the hypothesis speaker's
    pieces, so memory grows with segments, not hypothesis speakers x slices.
    Speakers are mapped one-to-one to maximize matched time; a speaker with
    no time in the region only adds a zero row or column, which leaves that
    maximum unchanged. Confusion is co-active time minus the time the
    mapped pairs share; the denominator is reference speech inside the
    region. InvalidInputError if the speakers on one side times the largest
    time leave int64 ticks, where a duration total could wrap.
    """
    if reference.recording_id != hypothesis.recording_id:
        raise InvalidInputError(
            f"recording ids differ: {reference.recording_id!r} "
            f"vs {hypothesis.recording_id!r}"
        )
    region = scoring_region(reference, opts)
    if not region:
        raise InvalidInputError("scoring region is empty")
    ref_labels, ref_rows = _rows(reference)
    n_ref = len(ref_labels)  # the region's row; the hypothesis speakers' rows follow
    hyp_labels, hyp_rows = _rows(hypothesis, first=n_ref + 1)
    spans = _tick_spans(
        [*(seg.interval for seg in reference), *region, *(seg.interval for seg in hypothesis)],
        _INT64_MAX // max(n_ref, len(hyp_labels)),
    )
    bounds, row, at = _pieces(ref_rows + [n_ref] * len(region) + hyp_rows, spans)
    hyp = row > n_ref
    dur = np.diff(bounds) * _depth(bounds, at, row == n_ref)  # 0 outside the region
    nr, nh = _depth(bounds, at, row < n_ref), _depth(bounds, at, hyp)
    ref_ticks = int(nr @ dur)
    if ref_ticks == 0:
        raise InvalidInputError("no reference speech inside the scoring region")
    coactive = int(np.minimum(nr, nh) @ dur)
    before = np.zeros((n_ref, bounds.size), dtype=np.int64)  # region time before each bound
    for r in range(n_ref):
        np.cumsum(_depth(bounds, at, row == r) * dur, out=before[r, 1:])
    overlap = np.zeros((n_ref, len(hyp_labels)), dtype=np.int64)
    np.add.at(overlap.T, row[hyp] - n_ref - 1, (before[:, at[1, hyp]] - before[:, at[0, hyp]]).T)
    mapping = map_speakers(ref_labels, hyp_labels, overlap)
    matched = sum(int(overlap[ref_labels.index(r), hyp_labels.index(h)])
                  for r, h in mapping.items())
    return DerReport.from_seconds(
        fa_seconds=_seconds(int(nh @ dur) - coactive),
        miss_seconds=_seconds(ref_ticks - coactive),
        confusion_seconds=_seconds(coactive - matched),
        ref_speech_seconds=_seconds(ref_ticks),
    )


def combine_reports(reports: Sequence[DerReport]) -> DerReport:
    """Corpus aggregate: pool the seconds fields, then recompute the rates."""
    if not reports:
        raise InvalidInputError("no reports to combine")
    return DerReport.from_seconds(
        fa_seconds=sum(r.fa_seconds for r in reports),
        miss_seconds=sum(r.miss_seconds for r in reports),
        confusion_seconds=sum(r.confusion_seconds for r in reports),
        ref_speech_seconds=sum(r.ref_speech_seconds for r in reports),
    )
