"""Shared domain types for the diarization pipeline.

Everything here is an immutable value object. Times are real-valued
seconds throughout; cluster ids are dense integers and only become
speaker label strings ("spk0", "spk1", ...) at RTTM export time.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class InvalidInputError(ValueError):
    """An operation received input that violates its preconditions."""


class DegenerateAffinityError(InvalidInputError):
    """An affinity matrix row cannot be normalized (all-dissimilar or invalid)."""


class NumericError(RuntimeError):
    """A numeric routine failed to converge."""


def check_integers(**values) -> None:
    """InvalidInputError naming the first keyword whose value is not an
    integer; numpy integers are integers (operator.index)."""
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None


def check_reals(**values) -> None:
    """InvalidInputError naming the first keyword whose value is not a real
    number; numpy floats and integers are real (numbers.Real)."""
    for name, value in values.items():
        if not isinstance(value, numbers.Real):
            raise InvalidInputError(f"{name} must be a real number, got {value!r}")


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
    """Speaker-labeled segments of one recording, sorted stably by start time:
    segments that start together keep their given order.

    Reference annotations may contain overlapping segments (simultaneous
    speakers); hypotheses produced by this package never do.
    """

    recording_id: str
    segments: tuple[Segment, ...]

    def __post_init__(self):
        if not self.recording_id:
            raise InvalidInputError("recording_id must be non-empty")
        ordered = sorted(self.segments, key=lambda s: s.interval.start)
        object.__setattr__(self, "segments", tuple(ordered))

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


@dataclass(frozen=True, eq=False)
class SegmentEmbedding:
    """One speech segment and its embedding vector, as given: the vectors are
    checked where they enter clustering (clustering.embedding_matrix)."""

    interval: TimeInterval
    embedding: np.ndarray


@dataclass(frozen=True, eq=False)
class ClusteringResult:
    """Dense integer cluster id per segment: k ids, each of 0 .. k - 1 occurring."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.ndim != 1 or labels.size == 0:
            raise InvalidInputError("labels must be a non-empty 1-D array")
        present = np.unique(labels)
        if present[0] != 0 or present[-1] != present.size - 1:
            raise InvalidInputError("cluster ids must be 0 .. k - 1, each occurring at least once")

    @property
    def k(self) -> int:
        return int(self.labels.max()) + 1


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
    segments = tuple(Segment(TimeInterval(s, e), name) for s, e, name in merged)
    return Annotation(recording_id, segments)
