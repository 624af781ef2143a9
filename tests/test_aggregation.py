import itertools
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diarkit import (
    InvalidInputError,
    TimeInterval,
    Windows,
    aggregate,
    regions_from_windows,
    segmentize,
)
from diarkit.aggregation import InvalidWindowError
from oracles import aggregate_oracle


def windows(*rows):
    """A Windows batch from (start, end, vector) rows."""
    starts, ends, vectors = zip(*rows)
    return Windows(starts, ends, vectors)


class TestSegmentize:
    def test_even_split_with_remainder(self):
        out = segmentize([TimeInterval(0.0, 1.0)], max_len=0.4)
        assert [(iv.start, iv.end) for iv in out] == [(0.0, 0.4), (0.4, 0.8), (0.8, 1.0)]

    def test_exact_fit(self):
        out = segmentize([TimeInterval(0.0, 0.4)], max_len=0.4)
        assert [(iv.start, iv.end) for iv in out] == [(0.0, 0.4)]

    def test_tiny_remainder_merges_into_previous_piece(self):
        out = segmentize([TimeInterval(0.0, 0.401)], max_len=0.4)
        assert [(iv.start, iv.end) for iv in out] == [(0.0, 0.401)]

    def test_region_shorter_than_minimum_dropped(self):
        assert segmentize([TimeInterval(0.0, 0.005)], max_len=0.4) == []

    def test_multiple_regions(self):
        out = segmentize([TimeInterval(0.0, 0.5), TimeInterval(1.0, 1.3)], max_len=0.4)
        assert [(iv.start, iv.end) for iv in out] == [(0.0, 0.4), (0.4, 0.5), (1.0, 1.3)]

    def test_union_preserved(self):
        regions = [TimeInterval(0.0, 1.7), TimeInterval(2.0, 2.35), TimeInterval(5.5, 9.01)]
        pieces = segmentize(regions, max_len=0.4)
        # pieces tile each region: contiguous within a region, exact outer bounds
        by_region = {}
        for piece in pieces:
            for r in regions:
                if r.start <= piece.start and piece.end <= r.end + 1e-12:
                    by_region.setdefault((r.start, r.end), []).append(piece)
        for (start, end), tiles in by_region.items():
            assert tiles[0].start == start
            assert abs(tiles[-1].end - end) < 1e-12
            for a, b in zip(tiles, tiles[1:]):
                assert a.end == b.start
        assert len(by_region) == len(regions)

    def test_piece_lengths_bounded(self):
        rng = np.random.default_rng(21)
        t = 0.0
        regions = []
        for _ in range(20):
            start = t + rng.uniform(0.05, 0.5)
            end = start + rng.uniform(0.011, 3.0)
            regions.append(TimeInterval(start, end))
            t = end
        for piece in segmentize(regions, max_len=0.4):
            assert piece.duration <= 0.4 + 0.01 + 1e-9

    def test_overlapping_regions_rejected(self):
        with pytest.raises(InvalidInputError):
            segmentize([TimeInterval(0, 1), TimeInterval(0.5, 2)], max_len=0.4)

    def test_nonpositive_max_len_rejected(self):
        with pytest.raises(InvalidInputError):
            segmentize([TimeInterval(0, 1)], max_len=0.0)

    def test_max_len_below_the_shortest_piece_rejected(self):
        # without a floor, 1e-300 cut pieces until memory ran out
        with pytest.raises(InvalidInputError, match="^max_len must be at least 0.01 s, got 0.001$"):
            segmentize([TimeInterval(0, 1)], max_len=0.001)
        pieces = segmentize([TimeInterval(0, 1)], max_len=0.01)  # the floor itself is allowed
        assert (pieces[0].start, pieces[-1].end) == (0.0, 1.0)


class TestAggregate:
    def test_single_window(self):
        out = aggregate(windows((0.0, 0.24, [1, 0])), [TimeInterval(0.0, 0.4)])
        assert len(out) == 1
        assert np.allclose(out[0].embedding, [1, 0])

    def test_normalize_then_average(self):
        # [2,0] and [0,3] normalize to [1,0] and [0,1]; mean [0.5, 0.5]
        out = aggregate(
            windows((0.0, 0.1, [2, 0]), (0.1, 0.2, [0, 3])),
            [TimeInterval(0.0, 0.4)],
        )
        assert np.allclose(out[0].embedding, [0.5, 0.5])
        # mean of unit vectors is not re-normalized
        assert abs(np.linalg.norm(out[0].embedding) - 1.0) > 0.1

    def test_boundary_window_goes_right(self):
        # center at exactly 0.4: belongs to [0.4, 0.8), not [0.0, 0.4)
        segs = [TimeInterval(0.0, 0.4), TimeInterval(0.4, 0.8)]
        out = aggregate(
            windows((0.28, 0.52, [1, 0]), (0.4, 0.64, [0, 1])), segs
        )
        assert len(out) == 1
        assert out[0].interval == TimeInterval(0.4, 0.8)

    def test_empty_segments_dropped_with_warning(self, caplog):
        segs = [TimeInterval(0.0, 0.4), TimeInterval(1.0, 1.4)]
        with caplog.at_level(logging.WARNING, logger="diarkit.aggregation"):
            out = aggregate(windows((0.0, 0.24, [1, 0])), segs)
        assert len(out) == 1
        assert "dropped 1" in caplog.text

    def test_all_segments_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            aggregate(windows((5.0, 5.24, [1, 0])), [TimeInterval(0.0, 0.4)])

    def test_window_scale_invariance(self):
        rng = np.random.default_rng(22)
        batch = windows(
            *((0.12 * i, 0.12 * i + 0.24, rng.normal(size=8)) for i in range(30))
        )
        segs = [TimeInterval(0.4 * j, 0.4 * (j + 1)) for j in range(10)]
        base = aggregate(batch, segs)
        scaled = aggregate(Windows(batch.starts, batch.ends, batch.vectors * 123.0), segs)
        for a, b in zip(base, scaled):
            assert np.max(np.abs(a.embedding - b.embedding)) < 1e-12

    def test_output_sorted_non_overlapping(self):
        rng = np.random.default_rng(23)
        batch = windows(
            *((0.12 * i, 0.12 * i + 0.24, rng.normal(size=4)) for i in range(50))
        )
        segs = [TimeInterval(0.4 * j, 0.4 * (j + 1)) for j in range(16)]
        out = aggregate(batch, segs)
        for a, b in zip(out, out[1:]):
            assert a.interval.end <= b.interval.start

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(InvalidInputError):
            aggregate(
                windows((0, 0.24, [1, 0]), (0.12, 0.36, [1, 0, 0])),
                [TimeInterval(0, 0.4)],
            )

    def test_unsorted_windows_rejected(self):
        with pytest.raises(InvalidInputError):
            aggregate(
                windows((1.0, 1.24, [1, 0]), (0.0, 0.24, [1, 0])),
                [TimeInterval(0, 2)],
            )


class TestRegionsFromWindows:
    def test_overlapping_windows_merge(self):
        regions = regions_from_windows(
            windows((0.0, 0.24, [1]), (0.12, 0.36, [1]), (1.0, 1.24, [1]))
        )
        assert [(r.start, r.end) for r in regions] == [
            (0.0, 0.36),
            (1.0, 1.24),
        ]

    def test_touching_windows_merge(self):
        regions = regions_from_windows(windows((0.0, 0.5, [1]), (0.5, 1.0, [1])))
        assert len(regions) == 1

    def test_empty(self):
        assert regions_from_windows(Windows([], [], np.empty((0, 1)))) == []


class TestWindows:
    def test_arrays_are_read_only_float_copies(self):
        starts = np.array([0.0, 0.12])
        batch = Windows(starts, [0.24, 0.36], [[1, 0], [0, 1]])
        assert len(batch) == 2
        assert batch.vectors.dtype == np.float64
        starts[0] = 5.0  # the caller's array, not the batch's
        assert batch.starts[0] == 0.0
        with pytest.raises(ValueError):
            batch.starts[0] = 5.0

    @pytest.mark.parametrize(
        "rows, bad_row, message",
        [
            ([(0.0, 0.24, [1.0]), (0.1, 0.34, [np.nan])], 1, "window values must be finite"),
            ([(0.0, np.inf, [1.0])], 0, "window values must be finite"),
            ([(0.5, 0.74, [1.0]), (0.2, 0.44, [1.0])], 1, "rows must be sorted by start time"),
            ([(-0.5, 0.24, [1.0])], 0, "negative interval start -0.5"),
            ([(0.0, 0.2, [1.0]), (0.3, 0.3, [1.0])], 1,
             "interval end must exceed start, got [0.3, 0.3]"),
            # the first bad row is reported, not the first failed check
            ([(0.0, 0.2, [1.0]), (0.3, 0.1, [1.0]), (0.2, 0.4, [np.nan])], 1,
             "interval end must exceed start, got [0.3, 0.1]"),
        ],
    )
    def test_first_bad_row_named(self, rows, bad_row, message):
        with pytest.raises(InvalidWindowError) as info:
            windows(*rows)
        assert info.value.row == bad_row
        assert str(info.value) == message

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("order", list(itertools.permutations(["start", "end", "vector"])))
    def test_non_finite_start_end_and_vector_each_found(self, order, value):
        # rows 1, 2 and 3 each hold one non-finite value, in every order: the
        # first of them is reported, whichever array holds it
        starts, ends = np.arange(5) * 0.5, np.arange(5) * 0.5 + 0.24
        vectors = np.ones((5, 3))
        for row, where in enumerate(order, start=1):
            if where == "start":
                starts[row] = value
            elif where == "end":
                ends[row] = value
            else:
                vectors[row, 1] = value
        with pytest.raises(InvalidWindowError) as info:
            Windows(starts, ends, vectors)
        assert info.value.row == 1
        assert str(info.value) == "window values must be finite"

    @pytest.mark.parametrize(
        "starts, ends, vectors",
        [
            ([0.0], [0.24, 0.36], [[1.0]]),
            ([0.0], [0.24], [1.0]),
            ([0.0], [0.24], [[]]),
            ([0.0, 0.1], [0.24, 0.34], [[1.0], [1.0, 2.0]]),
            (["zero"], [0.24], [[1.0]]),
        ],
    )
    def test_bad_shapes_rejected(self, starts, ends, vectors):
        with pytest.raises(InvalidInputError):
            Windows(starts, ends, vectors)


# Times on a 1/8 s grid, so window centers (on the 1/16 grid) land on
# segment bounds; components either (signed) 0 or at least 1e-3 in
# magnitude, so a 123x scaled copy normalizes to the same direction
# within 1e-12.
GRID = 8.0
COMPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0]), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)
)


@st.composite
def windows_and_segments(draw):
    dim = draw(st.integers(1, 4))
    rows = sorted(
        draw(
            st.lists(
                st.tuples(
                    st.integers(0, 40),
                    st.integers(1, 8),
                    st.lists(COMPONENTS, min_size=dim, max_size=dim),
                ),
                min_size=1,
                max_size=30,
            )
        ),
        key=lambda row: row[0],
    )
    batch = Windows(
        [s / GRID for s, _, _ in rows],
        [(s + length) / GRID for s, length, _ in rows],
        [vector for _, _, vector in rows],
    )
    # consecutive bounds, some pairs left out: touching segments and gaps
    bounds = sorted(draw(st.lists(st.integers(0, 50), min_size=2, max_size=12, unique=True)))
    pairs = list(zip(bounds, bounds[1:]))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    segments = [TimeInterval(a / GRID, b / GRID) for (a, b), k in zip(pairs, keep) if k]
    assume(segments)
    return batch, segments


def outcome(fn, batch, segments):
    """Each kept segment and its embedding's bytes, or the error text."""
    try:
        return [(se.interval, se.embedding.tobytes()) for se in fn(batch, segments)]
    except InvalidInputError as exc:
        return str(exc)


class TestAggregateAgainstOracle:
    @settings(deadline=None)
    @given(windows_and_segments())
    def test_byte_identical_to_one_window_at_a_time(self, case):
        batch, segments = case
        expected = outcome(aggregate_oracle, batch, segments)
        assert outcome(aggregate, batch, segments) == expected
        scaled = Windows(batch.starts, batch.ends, batch.vectors * 123.0)
        assert outcome(aggregate, scaled, segments) == outcome(aggregate_oracle, scaled, segments)
        if not isinstance(expected, str):
            for a, b in zip(aggregate(batch, segments), aggregate(scaled, segments)):
                assert np.max(np.abs(a.embedding - b.embedding)) < 1e-12

    def test_boundary_center_and_outside_window(self):
        # centers 0.4 (on the bound: goes right), 0.9 (in no segment), 1.1
        batch = windows((0.28, 0.52, [1, 0]), (0.8, 1.0, [0, 1]), (1.0, 1.2, [3, 4]))
        segs = [TimeInterval(0.0, 0.4), TimeInterval(0.4, 0.8), TimeInterval(1.0, 1.4)]
        got = outcome(aggregate, batch, segs)
        assert got == outcome(aggregate_oracle, batch, segs)
        assert [interval for interval, _ in got] == segs[1:]
