"""Property tests of the interval algebra against a tick-set oracle.

Spans are half-open [start, end) over integer ticks, so the set of ticks a
list of spans covers is an exact model of what the list means.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from diarkit.core import interval_union
from diarkit.metrics import _slices

# (start, start + length); a length <= 0 gives an empty pair, which
# interval_union must skip. Short lengths on a small range make spans
# that touch or share an end point common.
SPANS = st.lists(
    st.tuples(st.integers(0, 40), st.integers(-3, 12)).map(lambda p: (p[0], p[0] + p[1])),
    max_size=10,
)

# sorted, disjoint spans between distinct cut points; kept neighbours touch
TIMELINE = st.lists(st.integers(0, 40), unique=True, max_size=8).map(sorted).flatmap(
    lambda cuts: st.lists(
        st.booleans(), min_size=max(len(cuts) - 1, 0), max_size=max(len(cuts) - 1, 0)
    ).map(lambda keep: [span for span, k in zip(zip(cuts, cuts[1:]), keep) if k])
)


def ticks(spans) -> set[int]:
    return {t for s, e in spans for t in range(s, e)}


def assert_sorted_disjoint(spans, strict: bool) -> None:
    """Non-empty, sorted, non-overlapping; strict also forbids touching."""
    assert all(s < e for s, e in spans)
    for (_, prev_end), (start, _) in zip(spans, spans[1:]):
        assert prev_end < start if strict else prev_end <= start


@settings(deadline=None)
@given(SPANS)
@example([(0, 5), (5, 10), (3, 3)])
def test_union_covers_exactly_the_input_ticks(spans):
    merged = interval_union(spans)
    assert ticks(merged) == ticks(spans)
    assert_sorted_disjoint(merged, strict=True)


@settings(deadline=None)
@given(SPANS)
def test_union_is_idempotent_and_order_free(spans):
    merged = interval_union(spans)
    assert interval_union(merged) == merged
    assert interval_union(reversed(spans)) == merged


@settings(deadline=None)
@given(st.dictionaries(st.sampled_from("abcd"), TIMELINE, max_size=4))
@example({"a": [(0, 5), (5, 10)], "b": [(5, 8)]})
def test_slices_partition_the_union_by_active_set(timelines):
    slices = list(_slices(timelines))
    spans = [(s, e) for s, e, _ in slices]
    assert_sorted_disjoint(spans, strict=False)
    assert ticks(spans) == set().union(*(ticks(tl) for tl in timelines.values()))
    for s, e, active in slices:
        mid = (s + e) / 2
        assert sorted(active) == sorted(k for k, tl in timelines.items() if any(a <= mid < b for a, b in tl))
