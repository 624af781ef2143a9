import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from diarkit import (
    Annotation,
    DerReport,
    EvalOptions,
    InvalidInputError,
    Segment,
    TimeInterval,
    combine_reports,
    der,
    scoring_region,
)
from diarkit.metrics import TICKS_PER_SECOND, map_speakers
from oracles import der_oracle, overlap_milliseconds, random_der_case


def ann(rec_id, *spans):
    return Annotation(
        rec_id, [Segment(TimeInterval(a, b), spk) for a, b, spk in spans]
    )


class TestScoringRegion:
    def test_collar_trims_boundaries(self):
        region = scoring_region(ann("r", (0, 10, "A")), EvalOptions(collar=0.25))
        assert region == [TimeInterval(0.25, 9.75)]

    def test_zero_collar_keeps_extent(self):
        region = scoring_region(ann("r", (0, 10, "A")), EvalOptions(collar=0.0))
        assert region == [TimeInterval(0.0, 10.0)]

    def test_overlap_excluded(self):
        reference = ann("r", (0, 6, "A"), (4, 10, "B"))
        region = scoring_region(reference, EvalOptions(collar=0.0))
        assert region == [TimeInterval(0, 4), TimeInterval(6, 10)]

    def test_overlap_kept_when_disabled(self):
        reference = ann("r", (0, 6, "A"), (4, 10, "B"))
        region = scoring_region(
            reference, EvalOptions(collar=0.0, exclude_overlap=False)
        )
        assert region == [TimeInterval(0, 10)]

    def test_uem_overrides_extent(self):
        region = scoring_region(
            ann("r", (0, 10, "A")),
            EvalOptions(collar=0.0, uem=[TimeInterval(2, 8)]),
        )
        assert region == [TimeInterval(2, 8)]

    def test_interior_boundaries_trimmed(self):
        # the non-speech gap stays scorable except for the collar strips
        reference = ann("r", (0, 4, "A"), (6, 10, "A"))
        region = scoring_region(reference, EvalOptions(collar=0.5))
        assert region == [
            TimeInterval(0.5, 3.5),
            TimeInterval(4.5, 5.5),
            TimeInterval(6.5, 9.5),
        ]

    @pytest.mark.parametrize("collar", [0.0, 0.25])
    @pytest.mark.parametrize("exclude_overlap", [True, False])
    def test_empty_uem_leaves_nothing(self, collar, exclude_overlap):
        # at collar 0 with overlap kept, the region is cut from no span at all
        opts = EvalOptions(collar=collar, exclude_overlap=exclude_overlap, uem=[])
        assert scoring_region(ann("r", (0, 10, "A")), opts) == []

    def test_empty_reference_rejected(self):
        with pytest.raises(InvalidInputError):
            scoring_region(Annotation("r", ()), EvalOptions())


class TestDerHandCases:
    def test_perfect_hypothesis(self):
        x = ann("r", (0, 10, "A"), (12, 15, "B"))
        for collar in (0.0, 0.25):
            report = der(x, x, EvalOptions(collar=collar))
            assert report.total == 0.0

    def test_truncated_hypothesis_collar_zero(self):
        report = der(
            ann("r", (0, 10, "A")), ann("r", (0, 9, "X")), EvalOptions(collar=0.0)
        )
        assert report.miss_seconds == 1.0
        assert report.ref_speech_seconds == 10.0
        assert report.total == 10.0

    def test_truncated_hypothesis_collar_quarter(self):
        report = der(
            ann("r", (0, 10, "A")), ann("r", (0, 9, "X")), EvalOptions(collar=0.25)
        )
        assert report.miss_seconds == pytest.approx(0.75, abs=1e-12)
        assert report.ref_speech_seconds == pytest.approx(9.5, abs=1e-12)
        assert report.total == pytest.approx(7.894736842105263, abs=1e-9)

    def test_false_alarm_in_gap(self):
        reference = ann("r", (0, 2, "A"), (4, 6, "A"))
        report = der(reference, ann("r", (0, 6, "X")), EvalOptions(collar=0.0))
        assert report.fa_seconds == 2.0
        assert report.miss_seconds == 0.0
        assert report.total == 50.0

    def test_confusion_on_mapped_mismatch(self):
        reference = ann("r", (0, 4, "A"), (4, 10, "B"))
        hypothesis = ann("r", (0, 6, "X"), (6, 10, "Y"))
        report = der(reference, hypothesis, EvalOptions(collar=0.0))
        assert report.confusion_seconds == 2.0
        assert report.total == 20.0

    def test_unmapped_hyp_label_scores_as_confusion(self):
        reference = ann("r", (0, 10, "A"))
        hypothesis = ann("r", (0, 6, "X"), (6, 10, "Y"))
        report = der(reference, hypothesis, EvalOptions(collar=0.0))
        assert report.confusion_seconds == 4.0
        assert report.fa_seconds == 0.0
        assert report.total == 40.0

    def test_uem_restricts_scoring(self):
        report = der(
            ann("r", (0, 10, "A")),
            ann("r", (0, 5, "X")),
            EvalOptions(collar=0.0, uem=[TimeInterval(2, 8)]),
        )
        assert report.miss_seconds == 3.0
        assert report.ref_speech_seconds == 6.0
        assert report.total == 50.0

    def test_empty_hypothesis_is_pure_miss(self):
        report = der(
            ann("r", (0, 10, "A"), (12, 14, "B")),
            Annotation("r", ()),
            EvalOptions(collar=0.0),
        )
        assert report.fa == 0.0
        assert report.confusion == 0.0
        assert report.miss == 100.0

    def test_recording_id_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            der(ann("a", (0, 1, "A")), ann("b", (0, 1, "A")), EvalOptions())

    def test_empty_scoring_region_rejected(self):
        with pytest.raises(InvalidInputError):
            der(
                ann("r", (0, 1, "A")),
                ann("r", (0, 1, "X")),
                EvalOptions(collar=0.0, uem=[TimeInterval(5, 6)]),
            )

    def test_no_reference_speech_in_region_rejected(self):
        with pytest.raises(InvalidInputError):
            der(
                ann("r", (0, 1, "A")),
                ann("r", (2, 3, "X")),
                EvalOptions(collar=0.0, uem=[TimeInterval(1.5, 4)]),
            )


class TestTickRange:
    # 922337203685.4774 s is 2**63 - 2048 ticks, the last float time below the
    # end of int64; the next float, 922337203685.4775 s, is 2**63 ticks
    LAST, PAST = 922337203685.4774, 922337203685.4775
    WHOLE = EvalOptions(collar=0.0, exclude_overlap=False)

    def test_the_last_time_below_int64_scores_exactly(self):
        report = der(ann("r", (0, self.LAST, "A")), ann("r", (0, self.LAST, "X")), self.WHOLE)
        assert report.ref_speech_seconds == (2**63 - 2048) / TICKS_PER_SECOND
        assert report.total == 0.0

    @pytest.mark.parametrize("score", [scoring_region, lambda r, opts: der(r, r, opts)],
                             ids=["scoring_region", "der"])
    def test_a_time_past_int64_is_refused(self, score):
        with pytest.raises(InvalidInputError, match="leave the int64 tick range"):
            score(ann("r", (0, self.PAST, "A")), self.WHOLE)

    @pytest.mark.parametrize("collar, refusal", [
        (0.0, None),
        (1e-4, None),
        (1e-3, "cannot score times past 9.22337e\\+11 s"),
        (LAST, "cannot score times past 0.0002047 s"),
        (PAST, "collar 922337203685.4775 s leaves the int64 tick range"),
        (1e300, "collar 1e\\+300 s leaves the int64 tick range"),
    ])
    def test_the_collar_strips_must_fit(self, collar, refusal):
        # a strip ends at the last boundary plus the collar: 1e-4 s is 1000 ticks
        # and fits in the last 2047, 1e-3 s is 10000 and does not; a collar that
        # is itself past int64 is refused as the options are made
        reference = ann("r", (0, self.LAST, "A"))
        if refusal is not None:
            with pytest.raises(InvalidInputError, match=refusal):
                scoring_region(reference, EvalOptions(collar=collar))
            return
        opts = EvalOptions(collar=collar)
        c = round(collar * TICKS_PER_SECOND)
        assert scoring_region(reference, opts) == [
            TimeInterval(c / TICKS_PER_SECOND, (2**63 - 2048 - c) / TICKS_PER_SECOND)
        ]

    # 461168601842.7387 s is 2**62 - 1024 ticks, 461168601842.7388 s is 2**62:
    # two speakers' time in one total fits for the first and not the second
    @pytest.mark.parametrize("end, ref_speakers, hyp_speakers, fits", [
        (461168601842.7387, 1, 2, True),
        (461168601842.7387, 2, 1, True),
        (461168601842.7388, 1, 2, False),
        (461168601842.7388, 2, 1, False),
        (461168601842.7388, 1, 1, True),
    ])
    def test_speakers_per_side_times_the_span_must_fit(self, end, ref_speakers, hyp_speakers,
                                                       fits):
        reference = ann("r", *[(0, end, f"A{i}") for i in range(ref_speakers)])
        hypothesis = ann("r", *[(0, end, f"X{i}") for i in range(hyp_speakers)])
        if not fits:
            with pytest.raises(InvalidInputError, match="leave the int64 tick range"):
                der(reference, hypothesis, self.WHOLE)
            return
        ticks = round(end * TICKS_PER_SECOND)
        report = der(reference, hypothesis, self.WHOLE)
        assert report.ref_speech_seconds == ref_speakers * ticks / TICKS_PER_SECOND
        assert report.fa_seconds == (hyp_speakers - 1) * ticks / TICKS_PER_SECOND
        assert report.miss_seconds == (ref_speakers - 1) * ticks / TICKS_PER_SECOND
        assert report.confusion_seconds == 0.0


class TestManyHypothesisSpeakers:
    # 120 reference turns of 9.6 s (speakers A0-A3 in turn) and 2880 0.4-s
    # hypothesis segments tiling them, each turn's 24 spread over 1000
    # speakers, as naive clustering at a high threshold makes; every 10th
    # segment is repeated inside itself, which leaves its speaker's union
    TURNS, PIECES, SPEAKERS = 120, 24, 1000
    PIECE_TICKS = 4_000_000

    def case(self):
        reference = ann("r", *[(10 * i, 10 * i + 9.6, f"A{i % 4}") for i in range(self.TURNS)])
        spans, overlap = [], np.zeros((4, self.SPEAKERS), dtype=np.int64)
        for p in range(self.TURNS * self.PIECES):
            i, j, k = p // self.PIECES, p % self.PIECES, p % self.SPEAKERS
            start = round(10 * i + 0.4 * j, 1)
            spans.append((start, round(start + 0.4, 1), f"X{k:03d}"))
            if p % 10 == 0:
                spans.append((round(start + 0.1, 1), round(start + 0.3, 1), f"X{k:03d}"))
            overlap[i % 4, k] += self.PIECE_TICKS
        return reference, ann("r", *spans), overlap

    def test_scores_exactly(self):
        reference, hypothesis, overlap = self.case()
        rows, cols = linear_sum_assignment(overlap, maximize=True)
        matched = int(overlap[rows, cols].sum())
        ref_ticks = self.TURNS * self.PIECES * self.PIECE_TICKS
        report = der(reference, hypothesis, EvalOptions(collar=0.0))
        assert report.ref_speech_seconds == ref_ticks / TICKS_PER_SECOND
        assert report.fa_seconds == report.miss_seconds == 0.0
        assert report.confusion_seconds == (ref_ticks - matched) / TICKS_PER_SECOND

    @pytest.mark.parametrize("collar", [0.0, 0.25])
    def test_memory_follows_segments_not_speakers_times_slices(self, collar):
        # about 0.9 MiB; a speakers x slices table of the hypothesis would
        # hold 1000 x 3575 entries, 3.4 MiB even as bools
        reference, hypothesis, _ = self.case()
        opts = EvalOptions(collar=collar)
        tracemalloc.start()
        try:
            der(reference, hypothesis, opts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


class TestMapSpeakers:
    def test_diagonal_dominant_identity(self):
        matrix = np.array([[5.0, 1.0, 0.0], [1.0, 6.0, 2.0], [0.0, 0.0, 4.0]])
        mapping = map_speakers(["A", "B", "C"], ["X", "Y", "Z"], matrix)
        assert mapping == {"A": "X", "B": "Y", "C": "Z"}

    def test_off_diagonal_example(self):
        mapping = map_speakers(["A", "B"], ["X", "Y"], np.array([[5.0, 1.0], [2.0, 4.0]]))
        assert mapping == {"A": "X", "B": "Y"}

    def test_crossed_assignment(self):
        mapping = map_speakers(["A", "B"], ["X", "Y"], np.array([[1.0, 5.0], [4.0, 2.0]]))
        assert mapping == {"A": "Y", "B": "X"}

    def test_rectangular_more_hyp(self):
        mapping = map_speakers(["A"], ["X", "Y"], np.array([[3.0, 7.0]]))
        assert mapping == {"A": "Y"}

    def test_rectangular_more_ref(self):
        mapping = map_speakers(["A", "B"], ["X"], np.array([[5.0], [7.0]]))
        assert mapping == {"B": "X"}

    def test_empty_inputs(self):
        assert map_speakers([], ["X"], np.zeros((0, 1))) == {}
        assert map_speakers(["A"], [], np.zeros((1, 0))) == {}

    def test_negative_durations_rejected(self):
        with pytest.raises(InvalidInputError):
            map_speakers(["A"], ["X"], np.array([[-1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            map_speakers(["A", "B"], ["X"], np.array([[1.0, 2.0]]))

    def test_beats_every_permutation(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            nr = int(rng.integers(1, 7))
            nh = int(rng.integers(1, 7))
            matrix = np.rint(rng.uniform(0, 50, size=(nr, nh)))
            ref = [f"A{i}" for i in range(nr)]
            hyp = [f"X{j}" for j in range(nh)]
            mapping = map_speakers(ref, hyp, matrix)
            total = sum(matrix[ref.index(r), hyp.index(h)] for r, h in mapping.items())
            size = min(nr, nh)
            for rows in itertools.permutations(range(nr), size):
                for cols in itertools.permutations(range(nh), size):
                    assert total >= sum(matrix[i, j] for i, j in zip(rows, cols))


class TestDerReport:
    def test_percentages_reproduce_ratios_exactly(self):
        report = DerReport(
            fa_seconds=1.3, miss_seconds=0.7, confusion_seconds=2.1, ref_speech_seconds=9.5
        )
        assert report.fa == 1.3 / 9.5 * 100.0
        assert report.miss == 0.7 / 9.5 * 100.0
        assert report.confusion == 2.1 / 9.5 * 100.0
        assert report.total == report.fa + report.miss + report.confusion

    def test_invalid_inputs_rejected(self):
        nan, inf = math.nan, math.inf
        for seconds in [(-0.1, 0, 0, 10), (0, 0, 0, 0), (nan, 0, 0, 10), (0, nan, 0, 10),
                        (0, 0, inf, 10), (0, -inf, 0, 10), (0, 0, 0, nan), (0, 0, 0, inf),
                        (0, 0, 0, -inf)]:
            with pytest.raises(InvalidInputError):
                DerReport(*seconds)
        # the rates follow from the seconds and cannot be given
        with pytest.raises(TypeError):
            DerReport(fa_seconds=-1.0, miss_seconds=0.0, confusion_seconds=0.0,
                      ref_speech_seconds=0.0, fa=99.0, miss=0.0, confusion=0.0, total=5.0)

    def test_equality_and_hash_follow_the_four_fields(self):
        report = DerReport(1.3, 0.7, 2.1, 9.5)
        assert report == DerReport(1.3, 0.7, 2.1, 9.5)
        assert hash(report) == hash(DerReport(1.3, 0.7, 2.1, 9.5))
        for i in range(4):
            seconds = [1.3, 0.7, 2.1, 9.5]
            seconds[i] += 1.0
            assert DerReport(*seconds) != report

    def test_combine_pools_seconds(self):
        first = DerReport(0, 1.0, 0, 10.0)
        second = DerReport(0, 0, 0, 5.0)
        pooled = combine_reports([first, second])
        assert pooled.miss_seconds == 1.0
        assert pooled.ref_speech_seconds == 15.0
        assert pooled.total == 1.0 / 15.0 * 100.0

    @given(st.lists(st.tuples(*[st.floats(0, 1e4)] * 3, st.floats(1e-3, 1e4)),
                    min_size=1, max_size=5))
    def test_combine_is_the_report_of_the_summed_seconds(self, rows):
        combined = combine_reports([DerReport(*row) for row in rows])
        assert combined == DerReport(*(sum(column) for column in zip(*rows)))

    def test_combine_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            combine_reports([])


class TestEvalOptions:
    def test_negative_collar_rejected(self):
        with pytest.raises(InvalidInputError):
            EvalOptions(collar=-0.1)

    def test_non_finite_collar_rejected(self):
        for collar in (math.inf, math.nan):
            with pytest.raises(InvalidInputError, match="collar must be finite and >= 0"):
                EvalOptions(collar=collar)

    def test_uem_stored_as_tuple(self):
        opts = EvalOptions(uem=[TimeInterval(0, 1)])
        assert opts.uem == (TimeInterval(0, 1),)


class TestInvariants:
    def test_identity_zero_on_random_annotations(self):
        rng = np.random.default_rng(61)
        checked = 0
        while checked < 15:
            reference, _, opts = random_der_case(rng)
            try:
                report = der(reference, reference, opts)
            except InvalidInputError:
                continue
            assert report.total == 0.0
            assert report.fa_seconds == 0.0
            assert report.miss_seconds == 0.0
            assert report.confusion_seconds == 0.0
            checked += 1

    def test_ref_speech_non_increasing_in_collar(self):
        reference = ann("r", (0, 5, "A"), (6, 9, "B"), (11, 20, "A"))
        hypothesis = ann("r", (0, 20, "X"))
        previous = float("inf")
        for collar in (0.0, 0.1, 0.25, 0.5, 1.0):
            report = der(reference, hypothesis, EvalOptions(collar=collar))
            assert report.ref_speech_seconds <= previous
            previous = report.ref_speech_seconds

    def test_oracle_equivalence_sample(self):
        # a small slice of the acceptance sweep, for fast regression signal
        rng = np.random.default_rng(62)
        checked = 0
        while checked < 25:
            reference, hypothesis, opts = random_der_case(rng)
            try:
                report = der(reference, hypothesis, opts)
            except InvalidInputError:
                continue
            expected = der_oracle(reference, hypothesis, opts)
            assert report.fa_seconds == pytest.approx(expected["fa"], abs=1e-9)
            assert report.miss_seconds == pytest.approx(expected["miss"], abs=1e-9)
            assert report.confusion_seconds == pytest.approx(
                expected["confusion"], abs=1e-9
            )
            assert report.ref_speech_seconds == pytest.approx(
                expected["ref_speech"], abs=1e-9
            )
            checked += 1

    def test_mapping_matches_overlap_oracle(self):
        rng = np.random.default_rng(63)
        checked = 0
        while checked < 10:
            reference, hypothesis, opts = random_der_case(rng)
            if len(hypothesis) == 0:
                continue
            try:
                matrix = overlap_milliseconds(reference, hypothesis, opts)
            except InvalidInputError:
                continue
            if matrix.size == 0:
                continue
            ref_labels = sorted({seg.speaker for seg in reference})
            hyp_labels = sorted({seg.speaker for seg in hypothesis})
            mapping = map_speakers(ref_labels, hyp_labels, matrix)
            total = sum(
                matrix[ref_labels.index(r), hyp_labels.index(h)]
                for r, h in mapping.items()
            )
            from oracles import brute_force_assignment

            assert total == brute_force_assignment(matrix)
            checked += 1


def annotations(prefix: str, min_size: int):
    """Annotations of up to 12 segments on a 0.1 s grid, over up to 4 speakers."""
    segment = st.tuples(st.integers(0, 180), st.integers(1, 40), st.integers(0, 3))
    return st.lists(segment, min_size=min_size, max_size=12).map(
        lambda spans: Annotation(
            "rec",
            [Segment(TimeInterval(s / 10, (s + d) / 10), f"{prefix}{k}") for s, d, k in spans],
        )
    )


OPTIONS = st.builds(
    EvalOptions, collar=st.sampled_from([0.0, 0.25, 0.3]), exclude_overlap=st.booleans()
)
# as OPTIONS, sometimes restricted to a UEM of 1-3 spans on the same grid,
# which may overlap or touch
UEM = st.lists(st.tuples(st.integers(0, 100), st.integers(5, 150)), min_size=1, max_size=3).map(
    lambda spans: [TimeInterval(s / 10, (s + d) / 10) for s, d in spans]
)
OPTIONS_WITH_UEM = st.builds(
    EvalOptions,
    collar=st.sampled_from([0.0, 0.25, 0.3]),
    exclude_overlap=st.booleans(),
    uem=st.one_of(st.none(), UEM),
)


def scored(reference, hypothesis, opts):
    """der, or a rejected example when the reference leaves nothing to score."""
    try:
        return der(reference, hypothesis, opts)
    except InvalidInputError:
        reject()


UNIT = 0.05  # seconds: every boundary, collar and UEM end below is a whole number of units


def units(t: float) -> int:
    u = round(t / UNIT)
    assert abs(t - u * UNIT) < 1e-9
    return u


class TestScoringRegionProperties:
    @pytest.mark.parametrize("collar", [0.0, 0.25])
    @pytest.mark.parametrize("exclude_overlap", [True, False])
    @pytest.mark.parametrize("uem", [False, True], ids=["extent", "uem"])
    @settings(deadline=None, max_examples=40)
    @given(reference=annotations("A", 1), uem_span=UEM)
    def test_matches_the_unit_set_oracle(self, collar, exclude_overlap, uem, reference, uem_span):
        # the region, as a set of UNIT cells, is the base minus every cell within
        # the collar of a boundary and, with exclude_overlap, every cell where two
        # or more speakers talk
        opts = EvalOptions(collar=collar, exclude_overlap=exclude_overlap,
                           uem=uem_span if uem else None)
        segs = [(units(seg.interval.start), units(seg.interval.end), seg.speaker)
                for seg in reference]
        if uem:
            base = {u for span in uem_span for u in range(units(span.start), units(span.end))}
        else:
            base = set(range(min(s for s, _, _ in segs), max(e for _, e, _ in segs)))
        c = units(collar)
        strips = {u for s, e, _ in segs for b in (s, e) for u in range(b - c, b + c)}
        expected = {
            u for u in base - strips
            if not exclude_overlap or len({spk for s, e, spk in segs if s <= u < e}) <= 1
        }
        spans = [(units(iv.start), units(iv.end)) for iv in scoring_region(reference, opts)]
        assert {u for s, e in spans for u in range(s, e)} == expected
        # sorted, and apart: touching spans come out merged
        assert all(end < start for (_, end), (start, _) in zip(spans, spans[1:]))


class TestDerProperties:
    @settings(deadline=None)
    @given(annotations("A", 1), OPTIONS)
    def test_reference_against_itself_is_zero(self, reference, opts):
        report = scored(reference, reference, opts)
        assert report.fa_seconds == report.miss_seconds == report.confusion_seconds == 0.0
        assert report.total == 0.0

    @settings(deadline=None)
    @given(annotations("A", 1), annotations("H", 0), OPTIONS, st.data())
    def test_hypothesis_renaming_leaves_der_unchanged(self, reference, hypothesis, opts, data):
        labels = hypothesis.labels()
        new_names = data.draw(st.permutations([f"x{i}" for i in range(len(labels))]))
        renamed = dict(zip(labels, new_names))
        relabeled = Annotation(
            "rec", [Segment(seg.interval, renamed[seg.speaker]) for seg in hypothesis]
        )
        assert scored(reference, relabeled, opts) == scored(reference, hypothesis, opts)

    @settings(deadline=None)
    @given(annotations("A", 1), annotations("H", 0), OPTIONS)
    def test_components_non_negative_and_summed(self, reference, hypothesis, opts):
        report = scored(reference, hypothesis, opts)
        assert min(report.fa_seconds, report.miss_seconds, report.confusion_seconds) >= 0
        assert min(report.fa, report.miss, report.confusion) >= 0
        assert report.ref_speech_seconds > 0
        assert report.total == report.fa + report.miss + report.confusion

    @settings(deadline=None)
    @given(annotations("A", 1), annotations("H", 0), OPTIONS_WITH_UEM)
    def test_agrees_with_oracle(self, reference, hypothesis, opts):
        report = scored(reference, hypothesis, opts)
        expected = der_oracle(reference, hypothesis, opts)
        assert report.fa_seconds == pytest.approx(expected["fa"], abs=1e-9)
        assert report.miss_seconds == pytest.approx(expected["miss"], abs=1e-9)
        assert report.confusion_seconds == pytest.approx(expected["confusion"], abs=1e-9)
        assert report.ref_speech_seconds == pytest.approx(expected["ref_speech"], abs=1e-9)

    @settings(deadline=None)
    @given(annotations("A", 1), annotations("H", 0), OPTIONS_WITH_UEM)
    def test_speaker_outside_the_region_changes_nothing(self, reference, hypothesis, opts):
        # one more hypothesis speaker, wholly inside collar strips or outside the UEM
        spans = [
            (max(b - opts.collar, 0.0), b + opts.collar)
            for seg in reference for b in (seg.interval.start, seg.interval.end)
        ]
        if opts.uem is not None:  # every gap of the UEM, and 5 s past its end
            union = scoring_region(reference, EvalOptions(0.0, False, opts.uem))
            ends = [t for iv in union for t in (iv.start, iv.end)]
            spans += list(zip([0.0, *ends[1::2]], [*ends[::2], ends[-1] + 5.0]))
        outside = [Segment(TimeInterval(s, e), "ghost") for s, e in spans if e > s]
        assume(outside)
        padded = Annotation("rec", [*hypothesis, *outside])
        assert scored(reference, padded, opts) == scored(reference, hypothesis, opts)
