"""Diarization error rate scoring.

Conventions: a no-score collar around every reference boundary, optional
exclusion of overlapped reference speech, optional UEM restriction, and
an optimal one-to-one reference/hypothesis speaker mapping. All timeline
arithmetic happens on an integer grid of 0.1 microsecond ticks so that
reports are bit-reproducible and free of float-boundary double counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, TypeVar

import numpy as np

from .core import Annotation, InvalidInputError, TimeInterval, interval_union
from .numerics import optimal_assignment

TICKS_PER_SECOND = 10_000_000

Ticks = list[tuple[int, int]]
K = TypeVar("K")


def _tick(t: float) -> int:
    return int(round(t * TICKS_PER_SECOND))


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


def _speaker_tick_timelines(annotation: Annotation) -> dict[str, Ticks]:
    per_speaker: dict[str, list[tuple[int, int]]] = {}
    for seg in annotation:
        per_speaker.setdefault(seg.speaker, []).append(
            (_tick(seg.interval.start), _tick(seg.interval.end))
        )
    return {spk: interval_union(ivs) for spk, ivs in per_speaker.items()}


def _slices(timelines: dict[K, Ticks]) -> Iterator[tuple[int, int, list[K]]]:
    """Constant-speaker-set slices (start, end, active keys) where any key is active.

    Each timeline is sorted and disjoint; the slices come out sorted and
    disjoint and together cover the union of the timelines.
    """
    keys = list(timelines)
    # at equal ticks ends (-1) sort before starts, so a touching pair hands over
    events = sorted(
        (t, delta, i)
        for i, timeline in enumerate(timelines.values())
        for s, e in timeline
        for t, delta in ((s, 1), (e, -1))
    )
    active: set[K] = set()
    prev = 0
    for t, delta, i in events:
        if active and t > prev:
            yield prev, t, list(active)
        prev = t
        if delta > 0:
            active.add(keys[i])
        else:
            active.discard(keys[i])


def scoring_region(reference: Annotation, opts: EvalOptions) -> list[TimeInterval]:
    """Where scoring happens: UEM (or annotation extent) minus collars and overlap.

    A collar of +/- opts.collar is cut around every reference segment
    boundary; with exclude_overlap, spans where two or more reference
    speakers talk at once are cut as well. One sweep over the base, the
    collar strips and (with exclude_overlap) each reference speaker keeps
    the slices where the base is active, no strip is, and at most one
    speaker is.
    """
    if len(reference) == 0:
        raise InvalidInputError("reference annotation is empty")
    if opts.uem is not None:
        base = interval_union((_tick(iv.start), _tick(iv.end)) for iv in opts.uem)
    else:
        extent = reference.extent()
        base = [(_tick(extent.start), _tick(extent.end))]
    # tuple keys, so no speaker label can take the base's or the strips' place
    timelines = {("base",): base}
    collar = _tick(opts.collar)
    if collar:  # at collar 0 there are no strips
        boundaries = {_tick(t) for seg in reference for t in (seg.interval.start, seg.interval.end)}
        timelines[("strip",)] = interval_union((b - collar, b + collar) for b in boundaries)
    if opts.exclude_overlap:
        timelines.update(_speaker_tick_timelines(reference))
    kept = interval_union(
        (s, e) for s, e, active in _slices(timelines)
        if ("base",) in active and ("strip",) not in active and len(active) <= 2
    )
    return [TimeInterval(_seconds(s), _seconds(e)) for s, e in kept]


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

    Both annotations are swept once over their constant-speaker-set
    slices, with the scoring region as one more timeline; slices outside
    it are skipped. Per slice, miss is unmatched reference depth, false
    alarm is unmatched hypothesis depth, co-active time is the lesser
    depth, and each active reference/hypothesis pair gains the slice's
    duration in the overlap matrix. Speakers are mapped one-to-one to
    maximize matched time; a speaker with no time in the region only adds
    a zero row or column, which leaves that maximum unchanged. Confusion
    is co-active time minus the time the mapped pairs share. The
    denominator is reference speech inside the region.
    """
    if reference.recording_id != hypothesis.recording_id:
        raise InvalidInputError(
            f"recording ids differ: {reference.recording_id!r} "
            f"vs {hypothesis.recording_id!r}"
        )
    region = [
        (_tick(iv.start), _tick(iv.end)) for iv in scoring_region(reference, opts)
    ]
    if not region:
        raise InvalidInputError("scoring region is empty")
    ref_tl = _speaker_tick_timelines(reference)
    hyp_tl = _speaker_tick_timelines(hypothesis)
    ref_labels = sorted(ref_tl)
    hyp_labels = sorted(hyp_tl)
    # side 0 keys the reference rows, side 1 the hypothesis columns, side 2 the region
    timelines = {(0, i): ref_tl[r] for i, r in enumerate(ref_labels)}
    timelines.update({(1, j): hyp_tl[h] for j, h in enumerate(hyp_labels)})
    timelines[2, 0] = region
    overlap = [[0] * len(hyp_labels) for _ in ref_labels]
    miss = fa = coactive = ref_ticks = 0
    for start, end, active in _slices(timelines):
        if (2, 0) not in active:
            continue
        dur = end - start
        rows = [i for side, i in active if side == 0]
        cols = [j for side, j in active if side == 1]
        nr, nh = len(rows), len(cols)
        ref_ticks += nr * dur
        miss += max(0, nr - nh) * dur
        fa += max(0, nh - nr) * dur
        coactive += min(nr, nh) * dur
        for i in rows:
            for j in cols:
                overlap[i][j] += dur
    if ref_ticks == 0:
        raise InvalidInputError("no reference speech inside the scoring region")
    mapping = map_speakers(ref_labels, hyp_labels, overlap)
    matched = sum(overlap[ref_labels.index(r)][hyp_labels.index(h)] for r, h in mapping.items())
    confusion = coactive - matched
    return DerReport.from_seconds(
        fa_seconds=_seconds(fa),
        miss_seconds=_seconds(miss),
        confusion_seconds=_seconds(confusion),
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
