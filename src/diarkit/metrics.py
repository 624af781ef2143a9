"""Diarization error rate scoring.

Conventions: a no-score collar around every reference boundary, optional
exclusion of overlapped reference speech, optional UEM restriction, and
an optimal one-to-one reference/hypothesis speaker mapping. All timeline
arithmetic happens on an integer grid of 0.1 microsecond ticks so that
reports are bit-reproducible and free of float-boundary double counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Annotation, InvalidInputError, TimeInterval, interval_union
from .numerics import optimal_assignment

TICKS_PER_SECOND = 10_000_000

Ticks = list[tuple[int, int]]


def _tick(t: float) -> int:
    return int(round(t * TICKS_PER_SECOND))


def _seconds(ticks: int) -> float:
    return ticks / TICKS_PER_SECOND


def _subtract(a: Ticks, b: Ticks) -> Ticks:
    """a minus b; both sorted and disjoint."""
    out: Ticks = []
    j = 0
    for s, e in a:
        cur = s
        while j < len(b) and b[j][1] <= cur:
            j += 1
        k = j
        while k < len(b) and b[k][0] < e:
            bs, be = b[k]
            if bs > cur:
                out.append((cur, bs))
            cur = max(cur, be)
            if be >= e:
                break
            k += 1
        if cur < e:
            out.append((cur, e))
    return out


def _intersect(a: Ticks, b: Ticks) -> Ticks:
    out: Ticks = []
    i = j = 0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if s < e:
            out.append((s, e))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _total(intervals: Ticks) -> int:
    return sum(e - s for s, e in intervals)


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


def _overlap_regions(timelines: dict[str, Ticks]) -> Ticks:
    """Ticks where at least two distinct speakers are simultaneously active."""
    events: list[tuple[int, int]] = []
    for timeline in timelines.values():
        for s, e in timeline:
            events.append((s, 1))
            events.append((e, -1))
    events.sort()
    out: list[tuple[int, int]] = []
    active = 0
    prev = None
    i = 0
    while i < len(events):
        t = events[i][0]
        if prev is not None and active >= 2 and t > prev:
            out.append((prev, t))
        while i < len(events) and events[i][0] == t:
            active += events[i][1]
            i += 1
        prev = t
    return interval_union(out)


def scoring_region(reference: Annotation, opts: EvalOptions) -> list[TimeInterval]:
    """Where scoring happens: UEM (or annotation extent) minus collars and overlap.

    A collar of +/- opts.collar is cut around every reference segment
    boundary; with exclude_overlap, spans where two or more reference
    speakers talk at once are cut as well.
    """
    if len(reference) == 0:
        raise InvalidInputError("reference annotation is empty")
    if opts.uem is not None:
        base = interval_union((_tick(iv.start), _tick(iv.end)) for iv in opts.uem)
    else:
        extent = reference.extent()
        base = [(_tick(extent.start), _tick(extent.end))]
    collar = _tick(opts.collar)
    if collar > 0:
        cuts = []
        for seg in reference:
            for boundary in (seg.interval.start, seg.interval.end):
                b = _tick(boundary)
                cuts.append((b - collar, b + collar))
        base = _subtract(base, interval_union(cuts))
    if opts.exclude_overlap:
        base = _subtract(base, _overlap_regions(_speaker_tick_timelines(reference)))
    return [TimeInterval(_seconds(s), _seconds(e)) for s, e in base if e > s]


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
    pairs = optimal_assignment(overlap, maximize=True)
    return {ref_labels[i]: hyp_labels[j] for i, j in pairs}


def der(reference: Annotation, hypothesis: Annotation, opts: EvalOptions) -> DerReport:
    """Score a hypothesis against a reference under the given conventions.

    Both annotations are restricted to the scoring region. Speakers are
    mapped one-to-one to maximize matched time; per constant-speaker-set
    slice, miss is unmatched reference depth, false alarm is unmatched
    hypothesis depth, and confusion is co-active time whose mapped labels
    disagree. The denominator is reference speech inside the region.
    """
    if reference.recording_id != hypothesis.recording_id:
        raise InvalidInputError(
            f"recording ids differ: {reference.recording_id!r} "
            f"vs {hypothesis.recording_id!r}"
        )
    region = [
        (_tick(iv.start), _tick(iv.end)) for iv in scoring_region(reference, opts)
    ]
    if _total(region) == 0:
        raise InvalidInputError("scoring region is empty")
    ref_tl = {
        spk: _intersect(tl, region)
        for spk, tl in _speaker_tick_timelines(reference).items()
    }
    hyp_tl = {
        spk: _intersect(tl, region)
        for spk, tl in _speaker_tick_timelines(hypothesis).items()
    }
    ref_tl = {spk: tl for spk, tl in ref_tl.items() if tl}
    hyp_tl = {spk: tl for spk, tl in hyp_tl.items() if tl}
    if not ref_tl:
        raise InvalidInputError("no reference speech inside the scoring region")

    ref_labels = sorted(ref_tl)
    hyp_labels = sorted(hyp_tl)
    overlap = np.zeros((len(ref_labels), len(hyp_labels)))
    for i, r in enumerate(ref_labels):
        for j, h in enumerate(hyp_labels):
            overlap[i, j] = _total(_intersect(ref_tl[r], hyp_tl[h]))
    mapping = map_speakers(ref_labels, hyp_labels, overlap)
    mapped_pairs = set(mapping.items())

    # sweep over constant-speaker-set slices
    events: list[tuple[int, int, str, int]] = []
    for spk, timeline in ref_tl.items():
        for s, e in timeline:
            events.append((s, 0, spk, 1))
            events.append((e, 0, spk, -1))
    for spk, timeline in hyp_tl.items():
        for s, e in timeline:
            events.append((s, 1, spk, 1))
            events.append((e, 1, spk, -1))
    events.sort(key=lambda ev: ev[0])

    miss = fa = confusion = ref_ticks = 0
    active_ref: set[str] = set()
    active_hyp: set[str] = set()
    prev = None
    i = 0
    while i < len(events):
        t = events[i][0]
        if prev is not None and t > prev and (active_ref or active_hyp):
            dur = t - prev
            nr, nh = len(active_ref), len(active_hyp)
            ref_ticks += nr * dur
            miss += max(0, nr - nh) * dur
            fa += max(0, nh - nr) * dur
            ncorrect = sum(
                1 for r, h in mapped_pairs if r in active_ref and h in active_hyp
            )
            confusion += (min(nr, nh) - ncorrect) * dur
        while i < len(events) and events[i][0] == t:
            _, side, spk, delta = events[i]
            group = active_ref if side == 0 else active_hyp
            if delta > 0:
                group.add(spk)
            else:
                group.discard(spk)
            i += 1
        prev = t

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
