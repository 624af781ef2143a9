"""Deterministic synthetic conversations with planted speaker geometry.

Produces a reference annotation, window-level embeddings, and speech
regions for three scenario kinds: well-separated speakers, an imbalanced
conversation dominated by one speaker, and a hierarchical layout (two
groups of mutually similar speakers). Everything derives from a single
seed, so outputs are byte-identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregation import Windows
from .core import Annotation, InvalidInputError, Segment, TimeInterval
from .numerics import l2_normalize_rows

WINDOW_SIZE = 0.24
WINDOW_STEP = 0.12

SCENARIO_KINDS = ("separated", "imbalanced", "hierarchical")

# Sub-streams of the master seed, so speaker geometry can be rebuilt
# independently of the turn and noise draws.
_STREAM_DIRECTIONS = 0
_STREAM_TURNS = 1
_STREAM_NOISE = 2

# Turns truncated at the conversation end to less than this are dropped.
_MIN_TURN = 1e-3

TURN_MEAN = 3.0  # seconds; turn lengths are exponential with this mean
IMBALANCE_RATIO = 0.8  # the dominant speaker's share of turns in "imbalanced"
GROUP_ANGLE_DEG = 70.0  # between the two group directions in "hierarchical"
SPEAKER_ANGLE_DEG = 25.0  # each speaker's tilt from its group's direction


@dataclass(frozen=True)
class SynthScenario:
    """Parameters of a planted-speaker conversation."""

    n_speakers: int
    duration: float
    dim: int = 16
    scenario_kind: str = "separated"
    within_noise_deg: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.n_speakers < 1:
            raise InvalidInputError(f"n_speakers must be >= 1, got {self.n_speakers}")
        if not (0 < self.duration < math.inf):
            raise InvalidInputError(f"duration must be finite and positive, got {self.duration}")
        if self.dim < 1:
            raise InvalidInputError(f"dim must be >= 1, got {self.dim}")
        if self.scenario_kind not in SCENARIO_KINDS:
            raise InvalidInputError(
                f"scenario_kind must be one of {SCENARIO_KINDS}, got {self.scenario_kind!r}"
            )
        if not (0.0 <= self.within_noise_deg <= 90.0):
            raise InvalidInputError("within_noise_deg must lie in [0, 90]")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if self.scenario_kind == "hierarchical":
            if self.n_speakers + 2 > self.dim:
                raise InvalidInputError(
                    f"hierarchical geometry needs dim >= n_speakers + 2 "
                    f"({self.n_speakers + 2}), got dim={self.dim}"
                )
        elif self.n_speakers > self.dim:
            raise InvalidInputError(
                f"cannot place {self.n_speakers} orthogonal speakers in dim={self.dim}"
            )


def _orthonormal_columns(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((dim, count)))
    return q


def _speaker_directions(scenario: SynthScenario) -> np.ndarray:
    """Planted unit mean direction per speaker, reproducible from the seed alone.

    separated/imbalanced: mutually orthogonal random directions.
    hierarchical: two group directions separated by GROUP_ANGLE_DEG;
    speaker i is tilted SPEAKER_ANGLE_DEG away from group i % 2 along its
    own orthogonal offset axis.
    """
    rng = np.random.default_rng([scenario.seed, _STREAM_DIRECTIONS])
    n, dim = scenario.n_speakers, scenario.dim
    if scenario.scenario_kind in ("separated", "imbalanced"):
        return _orthonormal_columns(rng, dim, n).T.copy()
    basis = _orthonormal_columns(rng, dim, n + 2)
    gamma = math.radians(GROUP_ANGLE_DEG)
    groups = np.stack([
        basis[:, 0],
        math.cos(gamma) * basis[:, 0] + math.sin(gamma) * basis[:, 1],
    ])
    alpha = math.radians(SPEAKER_ANGLE_DEG)
    directions = np.empty((n, dim))
    for s in range(n):
        offset = basis[:, 2 + s]
        directions[s] = math.cos(alpha) * groups[s % 2] + math.sin(alpha) * offset
    return directions


def _mean_chi(k: int) -> float:
    """E[chi_k]: mean norm of a k-dimensional standard Gaussian."""
    return math.exp(
        0.5 * math.log(2.0) + math.lgamma((k + 1) / 2.0) - math.lgamma(k / 2.0)
    )


def _next_speaker(
    rng: np.random.Generator, scenario: SynthScenario, prev: int | None
) -> int:
    n = scenario.n_speakers
    if n == 1:
        return 0
    if scenario.scenario_kind == "imbalanced":
        # speaker 0 dominates; the rest share the remaining turns uniformly
        if rng.random() < IMBALANCE_RATIO:
            return 0
        return 1 + int(rng.integers(n - 1))
    if prev is None:
        return int(rng.integers(n))
    draw = int(rng.integers(n - 1))
    return draw if draw < prev else draw + 1


def _draw_turns(scenario: SynthScenario) -> list[tuple[float, float, int]]:
    rng = np.random.default_rng([scenario.seed, _STREAM_TURNS])
    turns: list[tuple[float, float, int]] = []
    t = 0.0
    prev: int | None = None
    while t < scenario.duration:
        speaker = _next_speaker(rng, scenario, prev)
        length = float(rng.exponential(TURN_MEAN))
        end = min(t + length, scenario.duration)
        if end - t >= _MIN_TURN:
            turns.append((t, end, speaker))
        prev = speaker
        t = end + float(rng.uniform(0.0, 0.5))
    return turns


def generate(scenario: SynthScenario) -> tuple[Annotation, Windows, list[TimeInterval]]:
    """Draw one conversation: reference annotation, window embeddings, regions.

    Turn lengths are exponential with mean TURN_MEAN, separated by
    uniform silences of up to half a second. Within each turn, windows of
    240 ms advance by 120 ms; each window vector is the speaker direction
    plus isotropic tangent noise scaled so the expected angular deviation
    is about within_noise_deg, then normalized.
    """
    directions = _speaker_directions(scenario)
    turns = _draw_turns(scenario)
    rng = np.random.default_rng([scenario.seed, _STREAM_NOISE])
    # tangent noise scale targeting the requested mean angular deviation
    scale = 0.0
    if scenario.within_noise_deg > 0:
        scale = math.tan(math.radians(scenario.within_noise_deg))
        scale /= _mean_chi(scenario.dim - 1) if scenario.dim > 1 else 1.0

    segments: list[Segment] = []
    regions: list[TimeInterval] = []
    starts, vectors = [np.empty(0)], [np.empty((0, scenario.dim))]
    for start, end, speaker in turns:
        interval = TimeInterval(start, end)
        segments.append(Segment(interval, f"S{speaker}"))
        regions.append(interval)
        offsets = np.arange(int((end - start) / WINDOW_STEP) + 2) * WINDOW_STEP
        turn_starts = start + offsets[start + offsets + WINDOW_SIZE <= end + 1e-9]
        mean = directions[speaker]
        vecs = np.tile(mean, (turn_starts.size, 1))
        if scale > 0 and scenario.dim > 1:
            z = rng.standard_normal(vecs.shape)
            tangent = z - (z[:, None, :] @ mean[:, None])[:, 0] * mean
            vecs = l2_normalize_rows(mean + scale * tangent)
        starts.append(turn_starts)
        vectors.append(vecs)
    starts = np.concatenate(starts)
    windows = Windows(starts, starts + WINDOW_SIZE, np.concatenate(vectors))
    reference = Annotation(f"synth-{scenario.scenario_kind}-{scenario.seed}", segments)
    return reference, windows, regions
