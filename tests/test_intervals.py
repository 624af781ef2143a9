"""Property tests of the interval algebra against a tick-set oracle.

Spans are half-open [start, end) over integer ticks, so the set of ticks a
list of spans covers is an exact model of what the list means.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diarkit.core import interval_union
from diarkit.metrics import _depth, _pieces

# (start, start + length); a length <= 0 gives an empty pair, which
# interval_union must skip. Short lengths on a small range make spans
# that touch or share an end point common.
SPANS = st.lists(
    st.tuples(st.integers(0, 40), st.integers(-3, 12)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=10,
)


def ticks(spans) -> set[int]:
    return {t for s, e in spans for t in range(s, e)}


def assert_sorted_apart(spans) -> None:
    """Non-empty, sorted, and neither overlapping nor touching."""
    assert all(s < e for s, e in spans)
    for (_, prev_end), (start, _) in zip(spans, spans[1:]):
        assert prev_end < start


@settings(deadline=None)
@given(SPANS)
@example([(0, 5), (5, 10), (3, 3)])
def test_union_covers_exactly_the_input_ticks(spans):
    merged = interval_union(spans)
    assert ticks(merged) == ticks(spans)
    assert_sorted_apart(merged)


@settings(deadline=None)
@given(SPANS)
def test_union_is_idempotent_and_order_free(spans):
    merged = interval_union(spans)
    assert interval_union(merged) == merged
    assert interval_union(reversed(spans)) == merged


# each row's spans, which may overlap, touch or be empty (start == end)
ROWS = st.lists(
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 12)).map(lambda p: (p[0], p[0] + p[1])),
        max_size=6,
    ),
    min_size=1,
    max_size=4,
)


def pieces(timelines):
    rows = [r for r, spans in enumerate(timelines) for _ in spans]
    spans = np.array([span for spans in timelines for span in spans], dtype=np.int64)
    return _pieces(rows, spans.reshape(-1, 2))


@settings(deadline=None)
@given(ROWS)
@example([[(0, 5), (5, 10)], [(5, 8)]])
@example([[(0, 6), (2, 4), (4, 9), (9, 9)], [], [(3, 7), (3, 7)]])
def test_pieces_tile_each_rows_union(timelines):
    bounds, row, at = pieces(timelines)
    assert bounds.tolist() == sorted({t for tl in timelines for span in tl for t in span})
    starts, ends = bounds[at].reshape(2, -1).tolist()
    for r, tl in enumerate(timelines):
        mine = [(s, e) for q, s, e in zip(row.tolist(), starts, ends) if q == r]
        assert all(s < e for s, e in mine)
        # sorted and disjoint: consecutive pieces of a row may touch but not overlap
        assert all(prev_end <= start for (_, prev_end), (start, _) in zip(mine, mine[1:]))
        assert ticks(mine) == ticks(tl)


@settings(deadline=None)
@given(ROWS)
@example([[(0, 5), (5, 10)], [(5, 8)]])
@example([[(0, 6), (2, 4), (4, 9), (9, 9)], [], [(3, 7), (3, 7)]])
def test_depth_partitions_the_union_by_covering_rows(timelines):
    bounds, row, at = pieces(timelines)
    slices = list(zip(bounds.tolist(), bounds[1:].tolist()))
    each = [_depth(bounds, at, row == r).tolist() for r in range(len(timelines))]
    total = _depth(bounds, at, row >= 0).tolist()
    assert len(total) == len(slices)
    for k, (s, e) in enumerate(slices):
        # each row covers every tick of a slice or none of them, and counts 1 or 0
        for tl, depth in zip(timelines, each):
            assert set(range(s, e)) & ticks(tl) == (set(range(s, e)) if depth[k] else set())
            assert depth[k] in (0, 1)
        assert total[k] == sum(depth[k] for depth in each)
