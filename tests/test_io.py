import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit import (
    Annotation,
    EvalOptions,
    InvalidInputError,
    ParseError,
    Segment,
    SynthScenario,
    TimeInterval,
    Windows,
    der,
    generate,
    parse_rttm,
    parse_uem,
    read_embeddings_csv,
    read_regions_csv,
    write_embeddings_csv,
    write_pgm_heatmap,
    write_regions_csv,
    write_rttm,
)
from oracles import embeddings_csv_rows


class TestRttm:
    def test_single_line(self):
        annotations = parse_rttm("SPEAKER rec1 1 0.00 10.00 <NA> <NA> A <NA> <NA>\n")
        assert len(annotations) == 1
        (annotation,) = annotations
        assert annotation.recording_id == "rec1"
        assert annotation.segments == (Segment(TimeInterval(0, 10), "A"),)

    def test_two_recordings_in_one_stream(self):
        text = (
            "SPEAKER rec1 1 0.0 2.0 <NA> <NA> A <NA> <NA>\n"
            "SPEAKER rec2 1 1.0 3.0 <NA> <NA> B <NA> <NA>\n"
            "SPEAKER rec1 1 5.0 1.0 <NA> <NA> B <NA> <NA>\n"
        )
        annotations = parse_rttm(text)
        assert [a.recording_id for a in annotations] == ["rec1", "rec2"]
        assert len(annotations[0]) == 2

    def test_non_speaker_lines_skipped(self):
        text = (
            "SPKR-INFO rec1 1 <NA> <NA> <NA> unknown A <NA> <NA>\n"
            "SPEAKER rec1 1 0.0 1.0 <NA> <NA> A <NA> <NA>\n"
        )
        assert len(parse_rttm(text)[0]) == 1

    def test_nonpositive_duration_rejected_with_line(self):
        text = (
            "SPEAKER rec1 1 0.0 1.0 <NA> <NA> A <NA> <NA>\n"
            "SPEAKER rec1 1 2.0 0.0 <NA> <NA> A <NA> <NA>\n"
        )
        with pytest.raises(ParseError) as info:
            parse_rttm(text)
        assert "line 2" in str(info.value)

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ParseError):
            parse_rttm("SPEAKER rec1 1 0.0 1.0 <NA> A <NA>\n")

    def test_bad_float_rejected(self):
        with pytest.raises(ParseError):
            parse_rttm("SPEAKER rec1 1 zero 1.0 <NA> <NA> A <NA> <NA>\n")

    def test_write_format(self):
        annotation = Annotation("rec1", [Segment(TimeInterval(0, 0.4), "spk0")])
        assert (
            write_rttm(annotation)
            == "SPEAKER rec1 1 0.000000 0.400000 <NA> <NA> spk0 <NA> <NA>\n"
        )

    @pytest.mark.parametrize("rec_id, label", [("my rec", "A"), ("rec1", "A\tB"), ("rec1", "A\u00a0B")])
    def test_whitespace_in_a_field_rejected(self, rec_id, label):
        # the line would not parse back as 10 fields
        annotation = Annotation(rec_id, [Segment(TimeInterval(0, 1), label)])
        with pytest.raises(InvalidInputError, match="contains whitespace"):
            write_rttm(annotation)

    def test_empty_annotation_writes_empty_text(self):
        assert write_rttm(Annotation("rec1", ())) == ""

    def test_round_trip(self):
        annotation = Annotation(
            "meeting-07",
            [
                Segment(TimeInterval(0.123456, 4.2), "alice"),
                Segment(TimeInterval(4.25, 9.87654321), "bob"),
                Segment(TimeInterval(10.0, 11.5), "alice"),
            ],
        )
        (parsed,) = parse_rttm(write_rttm(annotation))
        assert parsed.recording_id == annotation.recording_id
        assert len(parsed) == len(annotation)
        for a, b in zip(parsed, annotation):
            assert a.speaker == b.speaker
            assert a.interval.start == pytest.approx(b.interval.start, abs=1e-6)
            assert a.interval.end == pytest.approx(b.interval.end, abs=1e-6)


class TestUem:
    def test_single_line(self):
        assert parse_uem("rec1 1 0.0 60.0\n") == {"rec1": [TimeInterval(0, 60)]}

    def test_overlapping_spans_kept_as_written(self):
        parsed = parse_uem("rec1 1 5.0 20.0\nrec1 1 30.0 40.0\nrec1 1 0.0 10.0\n")
        spans = [TimeInterval(5, 20), TimeInterval(30, 40), TimeInterval(0, 10)]
        assert parsed == {"rec1": spans}
        # scoring covers their union
        union = [TimeInterval(0, 20), TimeInterval(30, 40)]
        reference = Annotation("rec1", [Segment(TimeInterval(2, 32), "A"),
                                        Segment(TimeInterval(25, 37), "B")])
        hypothesis = Annotation("rec1", [Segment(TimeInterval(1, 21), "x"),
                                         Segment(TimeInterval(21, 39), "y")])
        for collar, exclude_overlap in ((0.25, True), (0.0, False)):
            scored = [der(reference, hypothesis, EvalOptions(collar, exclude_overlap, uem))
                      for uem in (spans, union)]
            assert scored[0] == scored[1]

    def test_comments_and_blank_lines_skipped(self):
        parsed = parse_uem(";; header\n\nrec1 1 0.0 5.0\n")
        assert parsed == {"rec1": [TimeInterval(0, 5)]}

    def test_start_not_before_end_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_uem("rec1 1 7.0 7.0\n")
        assert "line 1" in str(info.value)

    def test_negative_start_rejected_with_line(self):
        # checked per line, as parse_rttm checks its lines
        with pytest.raises(ParseError, match=r"^line 2: negative interval start -1\.0$"):
            parse_uem("rec1 1 0.0 5.0\nrec1 1 -1.0 40.0\n")

    def test_empty_input(self):
        assert parse_uem("") == {}


class TestEmbeddingsCsv:
    def test_header_and_layout(self):
        windows = Windows([0], [0.24], [[0.25, -1.5]])
        text = write_embeddings_csv(windows)
        lines = text.strip().split("\n")
        assert lines[0] == "start,end,v0,v1"
        assert lines[1] == "0.0,0.24,0.25,-1.5"

    def test_round_trip_exact(self):
        _, windows, _ = generate(SynthScenario(n_speakers=2, duration=20, seed=1))
        parsed = read_embeddings_csv(write_embeddings_csv(windows))
        assert len(parsed) == len(windows)
        assert np.max(np.abs(parsed.starts - windows.starts)) < 1e-9
        assert np.max(np.abs(parsed.ends - windows.ends)) < 1e-9
        assert np.max(np.abs(parsed.vectors - windows.vectors)) < 1e-9

    def test_ragged_row_names_line(self):
        text = "start,end,v0,v1\n0.0,0.24,1.0,2.0\n0.12,0.36,1.0\n"
        with pytest.raises(ParseError) as info:
            read_embeddings_csv(text)
        assert "line 3" in str(info.value)

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError):
            read_embeddings_csv("begin,end,v0\n0.0,0.24,1.0\n")
        with pytest.raises(ParseError):
            read_embeddings_csv("start,end,a0\n0.0,0.24,1.0\n")

    def test_non_finite_value_rejected(self):
        with pytest.raises(ParseError):
            read_embeddings_csv("start,end,v0\n0.0,0.24,nan\n")

    def test_unsorted_rows_rejected(self):
        text = "start,end,v0\n1.0,1.24,1.0\n0.0,0.24,1.0\n"
        with pytest.raises(ParseError) as info:
            read_embeddings_csv(text)
        assert "line 3" in str(info.value)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0.0,0.24,NaN\n", "line 2: non-finite component: 'NaN'"),
            ("0.0,1e999,1.0\n", "line 2: non-finite end: '1e999'"),
            ("x,0.24,1.0\n", "line 2: bad start: 'x'"),
            ("-1.0,0.24,1.0\n", "line 2: negative interval start -1.0"),
            ("0.5,0.5,1.0\n", "line 2: interval end must exceed start, got [0.5, 0.5]"),
            # an earlier bad line is reported before a later one
            ("0.0,0.24,1.0\n0.3,0.2,1.0\n0.4,0.64,x\n",
             "line 3: interval end must exceed start, got [0.3, 0.2]"),
            ("0.0,0.24,1.0\n\n0.3,0.54\n0.2,0.44,1.0\n", "line 4: expected 3 cells, got 2"),
        ],
    )
    def test_error_texts(self, rows, message):
        with pytest.raises(ParseError) as info:
            read_embeddings_csv("start,end,v0\n" + rows)
        assert str(info.value) == message

    def test_bad_cell_mid_line_leaves_no_half_row(self):
        # cells parsed before the bad one must not shift the rows after it,
        # or the unsorted line 5 would be reported against another row
        text = (
            "start,end,v0,v1,v2\n0.0,0.24,1.0,2.0,3.0\n0.5,0.74,1.0,x,3.0\n"
            "1.0,1.24,1.0,2.0,3.0\n0.2,0.44,1.0,2.0,3.0\n"
        )
        with pytest.raises(ParseError) as info:
            read_embeddings_csv(text)
        assert str(info.value) == "line 3: bad component: 'x'"

    # 150-s recordings: 1064 rows, 0.37 MiB of text at d = 16 and 5.4 MiB at d = 256
    @pytest.mark.parametrize("dim", [16, 256])
    def test_peaks_as_multiples_of_the_text(self, dim):
        # the reader holds the lines and one packed float64 table, then the
        # table and the Windows copies: 1.4-1.7 times the text, where a list
        # of Python floats took 3.8-4.1; the writer holds the text twice, as
        # row-block strings and their join: 2.0-2.1 times, where nested lists
        # of Python floats took 4.6-5.0
        _, windows, _ = generate(SynthScenario(n_speakers=4, duration=150, dim=dim, seed=1))
        text = write_embeddings_csv(windows)
        calls = ((read_embeddings_csv, text, 2.0), (write_embeddings_csv, windows, 2.5))
        for call, arg, bound in calls:
            tracemalloc.start()
            try:
                call(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * len(text), call.__name__

    def test_no_rows_rejected(self):
        with pytest.raises(ParseError):
            read_embeddings_csv("start,end,v0\n")

    def test_empty_window_list_rejected(self):
        with pytest.raises(InvalidInputError):
            write_embeddings_csv(Windows([], [], np.empty((0, 2))))


class TestRegionsCsv:
    def test_round_trip(self):
        regions = [TimeInterval(0, 2.5), TimeInterval(3, 7)]
        text = write_regions_csv(regions)
        assert text.splitlines()[0] == "start,end"
        assert read_regions_csv(text) == regions

    def test_overlapping_regions_rejected(self):
        with pytest.raises(ParseError):
            read_regions_csv("start,end\n0.0,5.0\n4.0,6.0\n")

    def test_bad_interval_rejected_with_line(self):
        with pytest.raises(ParseError) as info:
            read_regions_csv("start,end\n0.0,5.0\n6.0,6.0\n")
        assert "line 3" in str(info.value)


class TestPgm:
    @staticmethod
    def pgm(tmp_path, m) -> bytes:
        path = tmp_path / "heatmap.pgm"
        write_pgm_heatmap(m, path)
        return path.read_bytes()

    def test_header_and_scaling(self, tmp_path):
        data = self.pgm(tmp_path, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[len(b"P5\n2 2\n255\n") :] == bytes([0, 255, 255, 0])

    def test_constant_matrix_is_mid_gray(self, tmp_path):
        data = self.pgm(tmp_path, np.full((3, 3), 0.7))
        assert data[-9:] == bytes([128] * 9)

    def test_identity_matrix(self, tmp_path):
        data = self.pgm(tmp_path, np.eye(3))
        pixels = data[len(b"P5\n3 3\n255\n") :]
        expected = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255])
        assert pixels == expected

    def test_affine_rounding(self, tmp_path):
        data = self.pgm(tmp_path, np.array([[0.0, 0.5, 1.0]]))
        assert data[-3:] == bytes([0, 128, 255])

    def test_range_past_the_float64_max(self, tmp_path):
        # max - min overflows to inf, so the halved matrix is mapped; a
        # RuntimeWarning would fail the test (pyproject's filterwarnings)
        data = self.pgm(tmp_path, np.array([[-1e308, 1e308], [0.0, 1.0]]))
        assert data[-4:] == bytes([0, 255, 128, 128])

    def test_write_to_disk(self, tmp_path):
        # a longer file already at the path is replaced, not overwritten in part
        path = tmp_path / "affinity.pgm"
        path.write_bytes(b"x" * 100)
        write_pgm_heatmap(np.array([[0.0, 1.0]]), path)
        assert path.read_bytes() == b"P5\n2 1\n255\n" + bytes([0, 255])

    # min and max are NaN or infinite exactly when an entry is not finite
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, tmp_path, bad):
        with pytest.raises(InvalidInputError, match="^matrix contains non-finite entries$"):
            write_pgm_heatmap(np.array([[0.5, 1.0], [bad, 0.0]]), tmp_path / "bad.pgm")
        assert not (tmp_path / "bad.pgm").exists()

    @staticmethod
    def whole_matrix_pgm(m: np.ndarray) -> bytes:
        """The P5 bytes by the formula applied to the whole matrix at once."""
        lo, hi = m.min(), m.max()
        pixels = np.rint((m - lo) / (hi - lo) * 255.0) if hi > lo else np.full(m.shape, 128.0)
        body = np.clip(pixels, 0, 255).astype(np.uint8).tobytes()
        return f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii") + body

    def test_row_blocks_give_the_whole_matrix_formula(self, tmp_path):
        # 700 columns make row blocks of 93 rows: 400 rows are five blocks,
        # the last one short; the transposed view is an F-ordered matrix
        rng = np.random.default_rng(53)
        m = rng.standard_normal((400, 700))
        for given in (m, m.T, np.full((300, 700), -2.5)):
            assert self.pgm(tmp_path, given) == self.whole_matrix_pgm(given)

    def test_no_float_matrix_of_the_input_size(self, tmp_path):
        # the file's buffer is 1/8 of the matrix and is written as it is:
        # about 0.18 n^2 float64 at the peak, where whole-matrix temporaries took 2.1
        n = 1500
        m = np.random.default_rng(54).uniform(-1.0, 1.0, (n, n))
        tracemalloc.start()
        try:
            write_pgm_heatmap(m, tmp_path / "heatmap.pgm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * n * n


NAMES = st.text(string.ascii_letters + string.digits + "-_", min_size=1, max_size=8)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def microsecond_annotations(draw):
    """Annotations whose starts and durations lie on the 1 us grid RTTM writes."""
    spans = draw(
        st.lists(
            st.tuples(st.integers(0, 10**10), st.integers(1, 10**8), NAMES),
            min_size=1,
            max_size=8,
        )
    )
    return Annotation(
        draw(NAMES),
        [Segment(TimeInterval(s / 1e6, s / 1e6 + d / 1e6), name) for s, d, name in spans],
    )


@st.composite
def sorted_windows(draw):
    """Windows sorted by start, any finite floats, one dimension for all."""
    dim = draw(st.integers(1, 4))
    interval = st.tuples(
        st.floats(min_value=0.0, max_value=1e9), st.floats(min_value=0.0, max_value=1e9)
    ).filter(lambda p: p[0] < p[1])
    rows = draw(
        st.lists(st.tuples(interval, st.lists(FLOATS, min_size=dim, max_size=dim)), min_size=1)
    )
    rows.sort(key=lambda row: row[0][0])
    return Windows(
        [span[0] for span, _ in rows], [span[1] for span, _ in rows], [v for _, v in rows]
    )


# Cells that break a row: unparsable, non-finite, or out of order once
# they replace a start or an end; " 2.5" and "1_0" still parse.
BAD_CELLS = st.sampled_from(["nan", "-inf", "1e999", "abc", "", " 2.5", "1_0", "-1.0", "0.0"])


@st.composite
def mangled_embeddings_csv(draw):
    """A written embeddings CSV with one to three edits below the header: a
    cell replaced, dropped or added, two lines swapped, or a blank line put in."""
    lines = write_embeddings_csv(draw(sorted_windows())).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, len(lines) - 1))
        cells = lines[i].split(",")
        edit = draw(st.sampled_from(["replace", "drop", "add", "swap", "blank"]))
        if edit == "replace":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(BAD_CELLS)
        elif edit == "drop":
            cells.pop()
        elif edit == "add":
            cells.append("0.5")
        elif edit == "swap":
            j = draw(st.integers(1, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
            continue
        else:
            lines.insert(i, " ")
            continue
        lines[i] = ",".join(cells)
    return "".join(line + "\n" for line in lines)


class TestRoundTripProperties:
    @settings(deadline=None)
    @given(microsecond_annotations())
    def test_rttm(self, annotation):
        text = write_rttm(annotation)
        (parsed,) = parse_rttm(text)
        assert parsed.recording_id == annotation.recording_id
        assert [s.speaker for s in parsed] == [s.speaker for s in annotation]
        for a, b in zip(parsed, annotation):
            assert a.interval.start == b.interval.start
            assert a.interval.end == pytest.approx(b.interval.end, abs=1e-6)
        assert write_rttm(parsed) == text

    @settings(deadline=None)
    @given(sorted_windows())
    def test_embeddings_csv_exact(self, windows):
        parsed = read_embeddings_csv(write_embeddings_csv(windows))
        assert len(parsed) == len(windows)
        assert parsed.starts.tobytes() == windows.starts.tobytes()
        assert parsed.ends.tobytes() == windows.ends.tobytes()
        assert parsed.vectors.tobytes() == windows.vectors.tobytes()

    @settings(deadline=None)
    @given(mangled_embeddings_csv())
    def test_embeddings_csv_errors_as_line_by_line(self, text):
        # the first bad line, its number and its text, as a reader that
        # checks one line at a time reports them
        try:
            expected = embeddings_csv_rows(text)
        except ParseError as exc:
            expected = (str(exc), exc.line)
        try:
            parsed = read_embeddings_csv(text)
        except ParseError as exc:
            assert (str(exc), exc.line) == expected
        else:
            rows = zip(parsed.starts.tolist(), parsed.ends.tolist(), parsed.vectors.tolist())
            assert list(rows) == expected

    @settings(deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e9), unique=True, max_size=20))
    def test_regions_csv(self, bounds):
        # consecutive pairs of sorted distinct values: sorted, disjoint regions
        ordered = sorted(bounds)
        regions = [TimeInterval(s, e) for s, e in zip(ordered[::2], ordered[1::2])]
        assert read_regions_csv(write_regions_csv(regions)) == regions
