"""Shared domain types for the diarization pipeline.

Everything here is an immutable value object. Times are real-valued
seconds throughout; cluster ids are dense integers and only become
speaker label strings ("spk0", "spk1", ...) at RTTM export time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


class InvalidInputError(ValueError):
    """An operation received input that violates its preconditions."""


class DegenerateAffinityError(InvalidInputError):
    """An affinity matrix row cannot be normalized (all-dissimilar or invalid)."""


class NumericError(RuntimeError):
    """A numeric routine failed to converge."""


class ParseError(ValueError):
    """Malformed file content. Carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class TimeInterval:
    """Half-open time span [start, end) in seconds, end > start, start >= 0."""

    start: float
    end: float

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise InvalidInputError(f"non-finite interval [{self.start}, {self.end}]")
        if self.start < 0:
            raise InvalidInputError(f"negative interval start {self.start}")
        if self.end <= self.start:
            raise InvalidInputError(
                f"interval end must exceed start, got [{self.start}, {self.end}]"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


def interval_union(spans: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of (start, end) pairs as sorted, disjoint pairs: empty pairs
    (end <= start) are skipped, overlapping or touching ones merged."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted((s, e) for s, e in spans if e > s):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


@dataclass(frozen=True)
class Segment:
    """A time interval and the speaker label it carries."""

    interval: TimeInterval
    speaker: str

    def __post_init__(self):
        if not self.speaker:
            raise InvalidInputError("speaker label must be non-empty")


@dataclass(frozen=True)
class Annotation:
    """Speaker-labeled segments of one recording, sorted by start time.

    Reference annotations may contain overlapping segments (simultaneous
    speakers); hypotheses produced by this package never do.
    """

    recording_id: str
    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.recording_id:
            raise InvalidInputError("recording_id must be non-empty")
        object.__setattr__(self, "segments", tuple(self.segments))
        prev = -math.inf
        for seg in self.segments:
            if seg.interval.start < prev:
                raise InvalidInputError("annotation segments must be sorted by start")
            prev = seg.interval.start

    @classmethod
    def create(cls, recording_id: str, segments: Sequence[Segment]) -> "Annotation":
        """Build an annotation, sorting the segments by start time."""
        ordered = sorted(segments, key=lambda s: s.interval.start)
        return cls(recording_id, tuple(ordered))

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    def labels(self) -> list[str]:
        """Distinct speaker labels in first-appearance order."""
        seen: dict[str, None] = {}
        for seg in self.segments:
            seen.setdefault(seg.speaker, None)
        return list(seen)

    def extent(self) -> TimeInterval:
        """Span from the first segment start to the last segment end."""
        if not self.segments:
            raise InvalidInputError("empty annotation has no extent")
        start = self.segments[0].interval.start
        end = max(seg.interval.end for seg in self.segments)
        return TimeInterval(start, end)


@dataclass(frozen=True, eq=False)
class SegmentEmbedding:
    """One speech segment and its embedding vector, as given: the vectors are
    checked where they enter clustering (pipeline.stack_segments)."""

    interval: TimeInterval
    embedding: np.ndarray


@dataclass(frozen=True, eq=False)
class ClusteringResult:
    """Dense integer cluster id per segment; every id in [0, k) occurs."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if self.k < 1:
            raise InvalidInputError(f"cluster count must be >= 1, got {self.k}")
        if labels.ndim != 1 or labels.size == 0:
            raise InvalidInputError("labels must be a non-empty 1-D array")
        present = np.unique(labels)
        if present[0] < 0 or present[-1] >= self.k:
            raise InvalidInputError("cluster ids must lie in [0, k)")
        if present.size != self.k:
            raise InvalidInputError("every cluster id in [0, k) must occur at least once")


def annotation_from_clusters(
    recording_id: str,
    intervals: Sequence[TimeInterval],
    labels: Sequence[int],
) -> Annotation:
    """Turn clustered segments into a hypothesis annotation.

    Cluster ids are rendered "spk0", "spk1", ... in first-appearance order.
    Adjacent same-cluster segments that touch exactly are merged into one
    output segment; output segments never overlap.
    """
    if len(intervals) != len(labels):
        raise InvalidInputError("one label per interval required")
    order = sorted(range(len(intervals)), key=lambda i: intervals[i].start)
    name_of: dict[int, str] = {}
    merged: list[tuple[float, float, str]] = []
    for interval, label in ((intervals[i], labels[i]) for i in order):
        label = int(label)
        if label not in name_of:
            name_of[label] = f"spk{len(name_of)}"
        name = name_of[label]
        if merged and merged[-1][2] == name and abs(interval.start - merged[-1][1]) < 1e-9:
            merged[-1] = (merged[-1][0], interval.end, name)
        else:
            merged.append((interval.start, interval.end, name))
    # merged in start order, which the constructor checks: no sort again
    segments = tuple(Segment(TimeInterval(s, e), name) for s, e, name in merged)
    return Annotation(recording_id, segments)
