import numpy as np
import pytest

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


class TestAnnotation:
    def test_create_sorts_by_start(self):
        ann = Annotation.create(
            "rec",
            [
                Segment(TimeInterval(5, 6), "b"),
                Segment(TimeInterval(0, 1), "a"),
            ],
        )
        assert [seg.interval.start for seg in ann] == [0, 5]

    def test_unsorted_segments_rejected(self):
        with pytest.raises(InvalidInputError):
            Annotation(
                "rec",
                (
                    Segment(TimeInterval(5, 6), "b"),
                    Segment(TimeInterval(0, 1), "a"),
                ),
            )

    def test_all_segments_are_labeled(self):
        # a Segment carries a non-empty label by construction
        ann = Annotation.create("rec", [Segment(TimeInterval(1, 2), "b"), Segment(TimeInterval(0, 1), "a")])
        assert [seg.speaker for seg in ann] == ["a", "b"]

    def test_empty_recording_id_rejected(self):
        with pytest.raises(InvalidInputError):
            Annotation("", (Segment(TimeInterval(0, 1), "a"),))

    def test_labels_first_appearance_order(self):
        ann = Annotation.create(
            "rec",
            [
                Segment(TimeInterval(0, 1), "b"),
                Segment(TimeInterval(1, 2), "a"),
                Segment(TimeInterval(2, 3), "b"),
            ],
        )
        assert ann.labels() == ["b", "a"]

    def test_extent_spans_first_start_to_last_end(self):
        ann = Annotation.create(
            "rec",
            [
                Segment(TimeInterval(1, 9), "a"),
                Segment(TimeInterval(2, 3), "b"),
            ],
        )
        extent = ann.extent()
        assert extent.start == 1 and extent.end == 9

    def test_overlapping_reference_segments_allowed(self):
        ann = Annotation.create(
            "rec",
            [
                Segment(TimeInterval(0, 5), "a"),
                Segment(TimeInterval(3, 8), "b"),
            ],
        )
        assert len(ann) == 2


class TestSegmentEmbedding:
    def test_vector_kept_as_given(self):
        # checking and float coercion happen once, in pipeline.stack_segments
        vector = [1, 2, 3]
        se = SegmentEmbedding(TimeInterval(0, 1), vector)
        assert se.embedding is vector
        assert se.interval == TimeInterval(0, 1)


class TestClusteringResult:
    def test_dense_ids_required(self):
        with pytest.raises(InvalidInputError):
            ClusteringResult(np.array([0, 2, 2]), k=3)  # id 1 never occurs

    def test_ids_must_be_in_range(self):
        with pytest.raises(InvalidInputError):
            ClusteringResult(np.array([0, 3]), k=2)
        with pytest.raises(InvalidInputError):
            ClusteringResult(np.array([-1, 0]), k=1)

    def test_valid(self):
        r = ClusteringResult(np.array([1, 0, 1]), k=2)
        assert r.k == 2


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
