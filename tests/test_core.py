import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit import (
    Annotation,
    ClusteringResult,
    InvalidInputError,
    Segment,
    SegmentEmbedding,
    TimeInterval,
    annotation_from_clusters,
)


class TestTimeInterval:
    def test_duration(self):
        assert TimeInterval(1.0, 3.0).duration == 2.0

    def test_end_must_exceed_start(self):
        with pytest.raises(InvalidInputError):
            TimeInterval(1.0, 1.0)
        with pytest.raises(InvalidInputError):
            TimeInterval(2.0, 1.0)

    def test_negative_start_rejected(self):
        with pytest.raises(InvalidInputError):
            TimeInterval(-0.5, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            TimeInterval(0.0, float("nan"))
        with pytest.raises(InvalidInputError):
            TimeInterval(0.0, float("inf"))


class TestSegment:
    def test_empty_speaker_rejected(self):
        with pytest.raises(InvalidInputError):
            Segment(TimeInterval(0, 1), speaker="")

    def test_speaker_required(self):
        with pytest.raises(TypeError):
            Segment(TimeInterval(0, 1))
        with pytest.raises(InvalidInputError, match="^speaker label must be non-empty$"):
            Segment(TimeInterval(0, 1), None)


def segment_lists(**kwargs):
    """Lists of segments on a coarse grid, where equal starts are common."""
    segment = st.builds(
        lambda start, length, speaker: Segment(TimeInterval(start, start + length), speaker),
        st.integers(0, 5), st.integers(1, 4), st.sampled_from("abc"),
    )
    return st.lists(segment, max_size=8, **kwargs)


class TestAnnotation:
    @settings(deadline=None)
    @given(segment_lists(unique_by=lambda seg: seg.interval.start), st.data())
    def test_any_order_builds_the_same_annotation(self, segments, data):
        shuffled = data.draw(st.permutations(segments))
        assert Annotation("rec", shuffled) == Annotation("rec", segments)

    @settings(deadline=None)
    @given(segment_lists())
    def test_sorted_stably_by_start(self, segments):
        ann = Annotation("rec", segments)
        starts = [seg.interval.start for seg in ann]
        assert starts == sorted(starts)
        # segments that start together keep their given order
        for start in set(starts):
            assert [seg for seg in ann if seg.interval.start == start] == [
                seg for seg in segments if seg.interval.start == start
            ]

    def test_all_segments_are_labeled(self):
        # a Segment carries a non-empty label by construction
        ann = Annotation("rec", [Segment(TimeInterval(1, 2), "b"), Segment(TimeInterval(0, 1), "a")])
        assert [seg.speaker for seg in ann] == ["a", "b"]

    def test_empty_recording_id_rejected(self):
        with pytest.raises(InvalidInputError):
            Annotation("", (Segment(TimeInterval(0, 1), "a"),))

    def test_labels_first_appearance_order(self):
        ann = Annotation(
            "rec",
            [
                Segment(TimeInterval(0, 1), "b"),
                Segment(TimeInterval(1, 2), "a"),
                Segment(TimeInterval(2, 3), "b"),
            ],
        )
        assert ann.labels() == ["b", "a"]

    def test_overlapping_reference_segments_allowed(self):
        ann = Annotation(
            "rec",
            [
                Segment(TimeInterval(0, 5), "a"),
                Segment(TimeInterval(3, 8), "b"),
            ],
        )
        assert len(ann) == 2


class TestSegmentEmbedding:
    def test_vector_kept_as_given(self):
        # checking and float coercion happen where the stacked vectors enter clustering
        vector = [1, 2, 3]
        se = SegmentEmbedding(TimeInterval(0, 1), vector)
        assert se.embedding is vector
        assert se.interval == TimeInterval(0, 1)


class TestClusteringResult:
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=20))
    def test_k_counts_the_distinct_labels(self, ids):
        # renumber the drawn ids densely, in order of their value
        labels = np.unique(ids, return_inverse=True)[1]
        assert ClusteringResult(labels).k == len(set(ids))

    @pytest.mark.parametrize("labels", [
        [0, 2, 2],  # id 1 never occurs
        [1, 1],  # nor does 0
        [-1, 0],
        [],
        [[0, 1], [1, 0]],
    ], ids=["gapped", "no-zero", "negative", "empty", "2-D"])
    def test_labels_other_than_0_to_k_minus_1_rejected(self, labels):
        with pytest.raises(InvalidInputError):
            ClusteringResult(np.array(labels, dtype=np.int64))

    def test_valid(self):
        r = ClusteringResult(np.array([1, 0, 1]))
        assert r.k == 2
        assert r.labels.tolist() == [1, 0, 1]


class TestAnnotationFromClusters:
    def test_labels_named_in_first_appearance_order(self):
        ann = annotation_from_clusters(
            "rec",
            [TimeInterval(0, 1), TimeInterval(2, 3), TimeInterval(4, 5)],
            [7, 3, 7],
        )
        assert [seg.speaker for seg in ann] == ["spk0", "spk1", "spk0"]

    def test_touching_same_cluster_segments_merge(self):
        ann = annotation_from_clusters(
            "rec",
            [TimeInterval(0.0, 0.4), TimeInterval(0.4, 0.8), TimeInterval(0.8, 1.0)],
            [0, 0, 1],
        )
        assert len(ann) == 2
        assert ann.segments[0].interval == TimeInterval(0.0, 0.8)
        assert ann.segments[1].speaker == "spk1"

    def test_gap_prevents_merge(self):
        ann = annotation_from_clusters(
            "rec", [TimeInterval(0, 1), TimeInterval(2, 3)], [0, 0]
        )
        assert len(ann) == 2

    def test_hypothesis_never_overlaps(self):
        ann = annotation_from_clusters(
            "rec",
            [TimeInterval(0, 1), TimeInterval(1, 2), TimeInterval(2, 3)],
            [0, 1, 0],
        )
        for a, b in zip(ann.segments, ann.segments[1:]):
            assert a.interval.end <= b.interval.start

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            annotation_from_clusters("rec", [TimeInterval(0, 1)], [0, 1])
