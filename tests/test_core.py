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
    def test_duration_and_center(self):
        iv = TimeInterval(1.0, 3.0)
        assert iv.duration == 2.0
        assert iv.center == 2.0

    def test_contains_is_half_open(self):
        iv = TimeInterval(1.0, 3.0)
        assert iv.contains(1.0)
        assert iv.contains(2.999)
        assert not iv.contains(3.0)
        assert not iv.contains(0.999)

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

    def test_overlaps(self):
        a = TimeInterval(0.0, 2.0)
        assert a.overlaps(TimeInterval(1.0, 3.0))
        assert not a.overlaps(TimeInterval(2.0, 3.0))  # touching is not overlap


class TestSegment:
    def test_empty_speaker_rejected(self):
        with pytest.raises(InvalidInputError):
            Segment(TimeInterval(0, 1), speaker="")

    def test_unlabeled_allowed(self):
        assert Segment(TimeInterval(0, 1)).speaker is None


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

    def test_all_segments_must_be_labeled(self):
        with pytest.raises(InvalidInputError):
            Annotation("rec", (Segment(TimeInterval(0, 1)),))

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
    def test_vector_coerced_to_float(self):
        se = SegmentEmbedding(TimeInterval(0, 1), [1, 2, 3])
        assert se.embedding.dtype == np.float64

    def test_non_finite_vector_rejected(self):
        with pytest.raises(InvalidInputError):
            SegmentEmbedding(TimeInterval(0, 1), [1.0, float("nan")])

    def test_scalar_rejected(self):
        with pytest.raises(InvalidInputError):
            SegmentEmbedding(TimeInterval(0, 1), 3.0)


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
