"""File formats: RTTM, UEM, embedding/region CSV, and PGM heatmaps.

Parsers are strict: malformed input raises ParseError carrying the
offending line number rather than being silently coerced.
"""

from __future__ import annotations

import math
from array import array
from pathlib import Path
from typing import Sequence

import numpy as np

from .aggregation import InvalidWindowError, Windows
from .core import Annotation, InvalidInputError, ParseError, Segment, TimeInterval
from .numerics import row_block

RTTM_FIELDS = 10


def _parse_float(token: str, what: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad {what}: {token!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what}: {token!r}", line)
    return value


def _interval(start: float, end: float, line: int) -> TimeInterval:
    """TimeInterval(start, end), its rejection as a ParseError at the line."""
    try:
        return TimeInterval(start, end)
    except InvalidInputError as exc:
        raise ParseError(str(exc), line) from None


def parse_rttm(text: str) -> list[Annotation]:
    """Parse SPEAKER lines into one Annotation per file id.

    Non-SPEAKER lines are ignored. Channels are merged: the channel field
    is parsed but does not split recordings.
    """
    segments: dict[str, list[Segment]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0] != "SPEAKER":
            continue
        if len(fields) != RTTM_FIELDS:
            raise ParseError(
                f"expected {RTTM_FIELDS} fields in a SPEAKER line, got {len(fields)}",
                lineno,
            )
        file_id, name = fields[1], fields[7]
        tbeg = _parse_float(fields[3], "start time", lineno)
        tdur = _parse_float(fields[4], "duration", lineno)
        if tdur <= 0:
            raise ParseError(f"duration must be positive, got {tdur}", lineno)
        if not name:
            raise ParseError("empty speaker name", lineno)
        interval = _interval(tbeg, tbeg + tdur, lineno)
        segments.setdefault(file_id, []).append(Segment(interval, name))
    return [Annotation(file_id, segs) for file_id, segs in segments.items()]


def write_rttm(annotation: Annotation) -> str:
    """Serialize an annotation as SPEAKER lines, times with 6 decimal places.

    The recording id and the speaker labels are whitespace-separated fields,
    so one that holds whitespace, which would not parse back, is rejected.
    """
    names = [("recording id", annotation.recording_id)]
    for what, name in names + [("speaker label", label) for label in annotation.labels()]:
        if name.split() != [name]:
            raise InvalidInputError(f"RTTM cannot hold the {what} {name!r}: it contains whitespace")
    lines = []
    for seg in annotation:
        iv = seg.interval
        lines.append(
            f"SPEAKER {annotation.recording_id} 1 {iv.start:.6f} {iv.duration:.6f} "
            f"<NA> <NA> {seg.speaker} <NA> <NA>"
        )
    return "".join(line + "\n" for line in lines)


def parse_uem(text: str) -> dict[str, list[TimeInterval]]:
    """Parse 'file channel start end' lines: each file's spans as written, in
    file order. Spans may overlap; scoring covers their union."""
    spans: dict[str, list[TimeInterval]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0].startswith(";;"):
            continue
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields, got {len(fields)}", lineno)
        start = _parse_float(fields[2], "start time", lineno)
        end = _parse_float(fields[3], "end time", lineno)
        spans.setdefault(fields[0], []).append(_interval(start, end, lineno))
    return spans


def _format_float(x: float) -> str:
    # repr gives the shortest string that parses back to the same float
    return repr(float(x))


# Cells of the embeddings table formatted at a time: the Python floats of
# one block take about 128 KiB, small beside the text even at d = 16 and
# 5 min (0.7 MiB), where a 2**16-cell block held 2 MiB of them.
_FORMAT_CELLS = 1 << 12


def write_embeddings_csv(windows: Windows) -> str:
    """Header 'start,end,v0,...,v{D-1}' plus one row per window.

    The table is formatted a row block at a time, repr per cell: the text is
    held twice at the peak, as block strings and as their join.
    """
    if not len(windows):
        raise InvalidInputError("no windows to write")
    dim = windows.vectors.shape[1]
    chunks = ["start,end," + ",".join(f"v{i}" for i in range(dim)) + "\n"]
    step = max(1, _FORMAT_CELLS // (dim + 2))
    for r in range(0, len(windows), step):
        rows = slice(r, r + step)
        block = np.column_stack((windows.starts[rows], windows.ends[rows], windows.vectors[rows]))
        chunks.append("".join(",".join(map(repr, row)) + "\n" for row in block.tolist()))
    return "".join(chunks)


def read_embeddings_csv(text: str) -> Windows:
    """Inverse of write_embeddings_csv; dimension comes from the header.

    Each cell goes through float() once, into one packed float64 buffer, and
    Windows checks the rows. The first bad line is reported, with the text a
    line-by-line check gives.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing header", 1)
    header = lines[0].split(",")
    if len(header) < 3 or header[0] != "start" or header[1] != "end":
        raise ParseError("header must be start,end,v0,...", 1)
    width = len(header)
    for i, name in enumerate(header[2:]):
        if name != f"v{i}":
            raise ParseError(f"expected column v{i}, got {name!r}", 1)
    unparsed = [math.nan] * width  # a ragged or unparsable line's row fails as non-finite
    packed = array("d")
    linenos: list[int] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        try:
            # a float() that fails stops the list before fromlist: no half row
            packed.fromlist(list(map(float, cells)) if len(cells) == width else unparsed)
        except ValueError:
            packed.fromlist(unparsed)
        linenos.append(lineno)
    if not linenos:
        raise ParseError("no data rows", len(lines))
    del lines  # Windows copies the table; the lines are split again for an error only
    table = np.frombuffer(packed, dtype=np.float64).reshape(-1, width)
    try:
        return Windows(table[:, 0], table[:, 1], table[:, 2:])
    except InvalidWindowError as exc:
        lineno = linenos[exc.row]
        cells = text.splitlines()[lineno - 1].split(",")
        if len(cells) != width:
            raise ParseError(f"expected {width} cells, got {len(cells)}", lineno) from None
        for cell, what in zip(cells, ["start", "end"] + ["component"] * (width - 2)):
            _parse_float(cell, what, lineno)  # names an unparsable or non-finite cell
        raise ParseError(str(exc), lineno) from None


def write_regions_csv(regions: Sequence[TimeInterval]) -> str:
    """Header 'start,end' plus one row per speech region."""
    lines = ["start,end"]
    for iv in regions:
        lines.append(f"{_format_float(iv.start)},{_format_float(iv.end)}")
    return "".join(line + "\n" for line in lines)


def read_regions_csv(text: str) -> list[TimeInterval]:
    """Inverse of write_regions_csv; regions must be sorted and disjoint."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "start,end":
        raise ParseError("header must be start,end", 1)
    regions: list[TimeInterval] = []
    prev_end = -math.inf
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 2:
            raise ParseError(f"expected 2 cells, got {len(cells)}", lineno)
        start = _parse_float(cells[0], "start", lineno)
        end = _parse_float(cells[1], "end", lineno)
        if start < prev_end:
            raise ParseError("regions must be sorted and non-overlapping", lineno)
        regions.append(_interval(start, end, lineno))
        prev_end = end
    return regions


def write_pgm_heatmap(matrix, path) -> None:
    """Write a matrix as a binary PGM (P5): affine map [min, max] -> [0, 255],
    each entry x to rint((x - min) / (max - min) * 255), clipped to [0, 255].

    A constant matrix maps to a uniform 128. The pixels are written a row
    block at a time into the file's own buffer: no float matrix of the
    input's size, and no bytes copy.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.size == 0:
        raise InvalidInputError(f"expected a non-empty 2-D matrix, got shape {m.shape}")
    lo, hi = float(m.min()), float(m.max())
    # a NaN entry makes both NaN, an infinite one min or max infinite
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInputError("matrix contains non-finite entries")
    if math.isinf(hi - lo):  # a range past float64's largest: map the halved matrix
        m, lo, hi = m * 0.5, lo * 0.5, hi * 0.5
    header = f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii")
    pgm = np.empty(len(header) + m.size, dtype=np.uint8)
    pgm[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    pixels = pgm[len(header) :].reshape(m.shape)
    if hi > lo:
        step = row_block(m.shape[1])
        for r in range(0, m.shape[0], step):
            block = m[r : r + step] - lo
            block /= hi - lo
            block *= 255.0
            pixels[r : r + step] = np.clip(np.rint(block, out=block), 0, 255, out=block)
    else:
        pixels[...] = 128
    Path(path).write_bytes(pgm)
