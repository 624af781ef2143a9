import math

import numpy as np
import pytest

from diarkit import (
    EvalOptions,
    InvalidInputError,
    SpectralParams,
    SynthScenario,
    der,
    generate,
)
from diarkit.pipeline import DiarizeConfig, cluster, diarize, segment_embeddings
from diarkit.synth import (GROUP_ANGLE_DEG, SPEAKER_ANGLE_DEG, WINDOW_SIZE, WINDOW_STEP,
                           _speaker_directions)
from oracles import angular_stats


def angle_deg(u, v) -> float:
    return math.degrees(math.acos(float(np.clip(np.dot(u, v), -1.0, 1.0))))


class TestScenarioValidation:
    def test_basic_fields(self):
        with pytest.raises(InvalidInputError):
            SynthScenario(n_speakers=0, duration=10)
        with pytest.raises(InvalidInputError):
            SynthScenario(n_speakers=2, duration=0)
        with pytest.raises(InvalidInputError):
            SynthScenario(n_speakers=2, duration=10, scenario_kind="other")
        with pytest.raises(InvalidInputError):
            SynthScenario(n_speakers=2, duration=10, within_noise_deg=95)

    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_non_finite_duration_rejected(self, duration):
        # an infinite duration would draw turns without end
        with pytest.raises(InvalidInputError, match="duration must be finite and positive"):
            SynthScenario(n_speakers=2, duration=duration)

    def test_negative_seed_rejected(self):
        # numpy's generators take only non-negative seeds
        with pytest.raises(InvalidInputError, match="^seed must be >= 0, got -1$"):
            SynthScenario(n_speakers=2, duration=10.0, seed=-1)
        SynthScenario(n_speakers=2, duration=10.0, seed=0)

    @pytest.mark.parametrize("field", ["n_speakers", "dim", "seed"])
    def test_integer_fields_refuse_non_integers(self, field):
        # a float would fail inside generate with a bare TypeError
        with pytest.raises(InvalidInputError, match=f"^{field} must be an integer, got 2.5$"):
            SynthScenario(**{"n_speakers": 2, "duration": 10.0, field: 2.5})

    @pytest.mark.parametrize("value", ["10", None], ids=["string", "none"])
    @pytest.mark.parametrize("field", ["duration", "within_noise_deg"])
    def test_float_fields_refuse_non_numbers(self, field, value):
        # a comparison would raise a bare TypeError
        with pytest.raises(InvalidInputError,
                           match=f"^{field} must be a real number, got {value!r}$"):
            SynthScenario(**{"n_speakers": 2, "duration": 10.0, field: value})

    @pytest.mark.parametrize("field, value, outside", [
        ("duration", 10.0, -10.0), ("within_noise_deg", 10.0, 100.0),
    ])
    def test_float_fields_take_numpy_floats(self, field, value, outside):
        plain = generate(SynthScenario(**{"n_speakers": 2, "duration": 10.0, field: value}))
        wide = generate(SynthScenario(**{"n_speakers": 2, "duration": 10.0,
                                         field: np.float32(value)}))
        assert wide[0] == plain[0] and wide[2] == plain[2]
        assert np.array_equal(wide[1].vectors, plain[1].vectors)
        messages = []
        for v in (np.float32(outside), outside):
            with pytest.raises(InvalidInputError) as info:
                SynthScenario(**{"n_speakers": 2, "duration": 10.0, field: v})
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("field", ["n_speakers", "dim", "seed"])
    def test_integer_fields_take_numpy_integers(self, field):
        plain = generate(SynthScenario(**{"n_speakers": 2, "duration": 10.0, field: 3}))
        wide = generate(SynthScenario(**{"n_speakers": 2, "duration": 10.0, field: np.int64(3)}))
        assert wide[0] == plain[0] and wide[2] == plain[2]
        assert np.array_equal(wide[1].vectors, plain[1].vectors)

    def test_separated_needs_enough_dimensions(self):
        with pytest.raises(InvalidInputError):
            SynthScenario(n_speakers=5, duration=10, dim=4)
        SynthScenario(n_speakers=4, duration=10, dim=4)  # boundary is fine

    def test_hierarchical_needs_two_spare_dimensions(self):
        with pytest.raises(InvalidInputError):
            SynthScenario(
                n_speakers=4, duration=10, dim=5, scenario_kind="hierarchical"
            )
        SynthScenario(n_speakers=4, duration=10, dim=6, scenario_kind="hierarchical")


class TestSpeakerDirections:
    def test_separated_orthonormal(self):
        dirs = _speaker_directions(SynthScenario(n_speakers=4, duration=10, seed=7))
        gram = dirs @ dirs.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10

    def test_hierarchical_angles_match_parameters(self):
        scenario = SynthScenario(
            n_speakers=4,
            duration=10,
            dim=16,
            scenario_kind="hierarchical",
            seed=2,
        )
        dirs = _speaker_directions(scenario)
        tilt, groups = math.radians(SPEAKER_ANGLE_DEG), math.radians(GROUP_ANGLE_DEG)
        within = math.degrees(math.acos(math.cos(tilt) ** 2))
        across = math.degrees(math.acos(math.cos(tilt) ** 2 * math.cos(groups)))
        # speakers 0,2 share a group, as do 1,3
        assert angle_deg(dirs[0], dirs[2]) == pytest.approx(within, abs=1e-8)
        assert angle_deg(dirs[1], dirs[3]) == pytest.approx(within, abs=1e-8)
        for a, b in [(0, 1), (0, 3), (2, 1), (2, 3)]:
            assert angle_deg(dirs[a], dirs[b]) == pytest.approx(across, abs=1e-8)

    def test_directions_depend_only_on_geometry_inputs(self):
        a = _speaker_directions(SynthScenario(n_speakers=3, duration=10, seed=5))
        b = _speaker_directions(SynthScenario(n_speakers=3, duration=500, seed=5))
        assert np.array_equal(a, b)


class TestGenerate:
    def test_same_seed_byte_identical(self):
        scenario = SynthScenario(n_speakers=3, duration=60, seed=11)
        ref_a, win_a, reg_a = generate(scenario)
        ref_b, win_b, reg_b = generate(scenario)
        assert ref_a == ref_b
        assert reg_a == reg_b
        assert len(win_a) == len(win_b)
        assert np.array_equal(win_a.starts, win_b.starts)
        assert np.array_equal(win_a.ends, win_b.ends)
        assert np.array_equal(win_a.vectors, win_b.vectors)

    def test_different_seed_differs(self):
        ref_a, _, _ = generate(SynthScenario(n_speakers=3, duration=60, seed=0))
        ref_b, _, _ = generate(SynthScenario(n_speakers=3, duration=60, seed=1))
        assert ref_a.segments != ref_b.segments

    def test_segments_tile_regions_exactly(self):
        reference, _, regions = generate(SynthScenario(n_speakers=2, duration=90, seed=3))
        assert len(reference) == len(regions)
        previous_end = -1.0
        for seg, region in zip(reference, regions):
            assert seg.interval == region
            assert seg.interval.start > previous_end
            previous_end = seg.interval.end
        assert previous_end <= 90 + 1e-9

    def test_window_centers_inside_matching_segments(self):
        reference, windows, _ = generate(SynthScenario(n_speakers=3, duration=60, seed=4))
        assert len(windows) > 100
        for start, end in zip(windows.starts.tolist(), windows.ends.tolist()):
            assert end - start == pytest.approx(WINDOW_SIZE, abs=1e-12)
            center = 0.5 * (start + end)
            hosts = [s for s in reference if s.interval.start <= center < s.interval.end]
            assert len(hosts) == 1

    def test_window_step_within_turn(self):
        reference, windows, _ = generate(SynthScenario(n_speakers=1, duration=20, seed=5))
        seg = reference.segments[0]
        centers = 0.5 * (windows.starts + windows.ends)
        inside = (seg.interval.start <= centers) & (centers < seg.interval.end)
        starts = windows.starts[inside].tolist()
        assert starts[0] == pytest.approx(seg.interval.start, abs=1e-12)
        for a, b in zip(starts, starts[1:]):
            assert b - a == pytest.approx(WINDOW_STEP, abs=1e-12)

    def test_zero_noise_windows_equal_planted_direction(self):
        scenario = SynthScenario(n_speakers=3, duration=60, within_noise_deg=0, seed=6)
        reference, windows, _ = generate(scenario)
        directions = _speaker_directions(scenario)
        for start, end, vector in zip(windows.starts, windows.ends, windows.vectors):
            center = 0.5 * (start + end)
            host = next(s for s in reference if s.interval.start <= center < s.interval.end)
            planted = directions[int(host.speaker[1:])]
            assert np.array_equal(vector, planted)

    def test_labels_and_recording_id(self):
        reference, _, _ = generate(SynthScenario(n_speakers=3, duration=120, seed=7))
        assert reference.recording_id == "synth-separated-7"
        assert set(reference.labels()) == {"S0", "S1", "S2"}

    def test_imbalanced_time_share(self):
        scenario = SynthScenario(
            n_speakers=3,
            duration=600,
            scenario_kind="imbalanced",
            seed=8,
        )
        reference, _, _ = generate(scenario)
        per_speaker = {}
        for seg in reference:
            per_speaker[seg.speaker] = per_speaker.get(seg.speaker, 0.0) + seg.interval.duration
        share = per_speaker["S0"] / sum(per_speaker.values())
        assert 0.7 < share < 0.9

    def test_single_speaker_spectral_recovers_k1(self):
        scenario = SynthScenario(n_speakers=1, duration=30, seed=9)
        reference, windows, regions = generate(scenario)
        assert reference.labels() == ["S0"]
        config = DiarizeConfig(spectral=SpectralParams(min_clusters=1, seed=0))
        x, _ = segment_embeddings(windows, regions)
        assert cluster(x, config).k == 1

    def test_separated_three_speakers_end_to_end(self):
        scenario = SynthScenario(n_speakers=3, duration=120, within_noise_deg=5, seed=0)
        reference, windows, regions = generate(scenario)
        segments = segment_embeddings(windows, regions)
        hypothesis = diarize(reference.recording_id, segments, DiarizeConfig())
        assert len(hypothesis.labels()) == 3
        report = der(reference, hypothesis, EvalOptions(collar=0.0))
        assert report.confusion < 2.0


class TestAngularStats:
    def test_mean_and_spread_at_ten_degrees(self):
        scenario = SynthScenario(
            n_speakers=2, duration=300, within_noise_deg=10, seed=12
        )
        reference, windows, _ = generate(scenario)
        directions = _speaker_directions(scenario)
        stats = angular_stats(windows, reference)
        assert set(stats) == {"S0", "S1"}
        for label, entry in stats.items():
            assert entry.count >= 500
            planted = directions[int(label[1:])]
            assert angle_deg(entry.mean_direction, planted) <= 2.0
            assert 8.0 <= entry.spread_deg <= 12.0

    def test_zero_noise_spread_is_zero(self):
        scenario = SynthScenario(n_speakers=2, duration=60, within_noise_deg=0, seed=13)
        reference, windows, _ = generate(scenario)
        stats = angular_stats(windows, reference)
        for entry in stats.values():
            assert entry.spread_deg < 1e-5
