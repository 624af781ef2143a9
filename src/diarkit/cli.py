"""Command-line surface: synth, diarize, evaluate, sweep.

Exit codes: 0 success; 1 degenerate input (zero vectors, empty segments,
unnormalizable affinities, infeasible scenario geometry) or a numeric
failure (NumericError, including eigensolver non-convergence); 2 usage,
flag, or file-format errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

from . import io as formats
from .aggregation import DEFAULT_MAX_SEGMENT_LEN, MIN_PIECE_LEN
from .clustering import SpectralParams, build_affinity, refine_stages
from .core import Annotation, InvalidInputError, NumericError, ParseError
from .metrics import DerReport, EvalOptions, combine_reports, der
from .pipeline import (ALGORITHMS, DiarizeConfig, diarize, diarize_grid, segment_embeddings,
                       stack_segments)
from .synth import SCENARIO_KINDS, SynthScenario, generate


class UsageError(Exception):
    """A flag combination or value that fails validation before any work."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise UsageError(message)


@contextmanager
def _flag_values():
    """Report a value that a parameter dataclass rejects as a usage error."""
    try:
        yield
    except InvalidInputError as exc:
        raise UsageError(str(exc)) from None


def _read(path: str, parse=str):
    """parse(the text of the file at path, decoded as UTF-8 without a leading
    byte-order mark). A decode or parse error becomes a ParseError whose
    message starts with the path."""
    try:
        return parse(Path(path).read_text(encoding="utf-8-sig"))
    except (UnicodeDecodeError, ParseError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _rttm(path: str, annotation: Annotation) -> str:
    """write_rttm(annotation). A recording id or label that RTTM cannot hold
    becomes a UsageError whose message starts with the path."""
    try:
        return formats.write_rttm(annotation)
    except InvalidInputError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _dump_stages(prefix: str, seg_embs, params: SpectralParams) -> None:
    """Rebuild the raw affinity and each refinement stage; write each as a PGM."""
    affinity = build_affinity(stack_segments(seg_embs)[0])
    formats.write_pgm_heatmap(affinity, f"{prefix}_00_affinity.pgm")
    for i, (name, stage) in enumerate(refine_stages(affinity, params), start=1):
        formats.write_pgm_heatmap(stage, f"{prefix}_{i:02d}_{name}.pgm")


def cmd_diarize(args) -> int:
    _require(0 < args.max_segment_len < math.inf, "--max-segment-len must be finite and positive")
    _require(args.max_segment_len >= MIN_PIECE_LEN,
             f"--max-segment-len must be at least {MIN_PIECE_LEN} s")
    _require(not (args.dump_stages and args.algorithm != "spectral"),
             "--dump-stages applies only to --algorithm spectral")
    with _flag_values():
        spectral = SpectralParams(
            sigma=args.sigma, p_percentile=args.p_percentile,
            soft_multiplier=args.soft_multiplier, min_clusters=args.min_speakers,
            max_clusters=args.max_speakers, seed=args.seed,
        )
        config = DiarizeConfig(algorithm=args.algorithm, spectral=spectral,
                               threshold=args.threshold)
    recording_id = Path(args.embeddings).stem
    _rttm(args.out, Annotation(recording_id, ()))  # a bad id fails before any input is read

    windows = _read(args.embeddings, formats.read_embeddings_csv)
    regions = _read(args.regions, formats.read_regions_csv) if args.regions else None
    seg_embs = segment_embeddings(windows, regions, args.max_segment_len)
    hypothesis = diarize(recording_id, seg_embs, config)
    rttm = _rttm(args.out, hypothesis)  # before any file is written
    if args.dump_stages:
        _dump_stages(args.dump_stages, seg_embs, config.spectral)
    Path(args.out).write_text(rttm)
    return 0


def _report_lines(recording_id: str, report: DerReport) -> str:
    values = (f"{f.name}={getattr(report, f.name)!r}" for f in fields(report))
    return f"recording={recording_id} " + " ".join(values)


def cmd_evaluate(args) -> int:
    with _flag_values():
        opts = EvalOptions(collar=args.collar, exclude_overlap=not args.no_overlap_exclusion)
    references = _read(args.reference, formats.parse_rttm)
    if not references:
        raise InvalidInputError("reference RTTM contains no SPEAKER lines")
    hypotheses = {
        a.recording_id: a for a in _read(args.hypothesis, formats.parse_rttm)
    }
    uem_map = _read(args.uem, formats.parse_uem) if args.uem else None
    for rec in sorted(hypotheses.keys() - {a.recording_id for a in references}):
        print(f"warning: {rec} is not in the reference; ignored", file=sys.stderr)

    rows: list[tuple[str, DerReport]] = []
    for reference in sorted(references, key=lambda a: a.recording_id):
        rec = reference.recording_id
        uem = None
        if uem_map is not None:
            if rec not in uem_map:
                print(f"warning: {rec} not covered by the UEM; skipped", file=sys.stderr)
                continue
            uem = uem_map[rec]
        hypothesis = hypotheses.get(rec)
        if hypothesis is None:
            print(
                f"warning: {rec} missing from the hypothesis; scored as all miss",
                file=sys.stderr,
            )
            hypothesis = Annotation(rec, ())
        rows.append((rec, der(reference, hypothesis, replace(opts, uem=uem))))
    if not rows:
        raise InvalidInputError("nothing to score")
    overall = combine_reports([report for _, report in rows])

    width = max(9, max(len(rec) for rec, _ in rows), len("ALL"))
    print(f"{'recording':<{width}} {'fa%':>8} {'miss%':>8} {'conf%':>8} "
          f"{'total%':>8} {'ref_s':>10}")
    for rec, report in rows + [("ALL", overall)]:
        print(f"{rec:<{width}} {report.fa:8.2f} {report.miss:8.2f} "
              f"{report.confusion:8.2f} {report.total:8.2f} "
              f"{report.ref_speech_seconds:10.2f}")
    for rec, report in rows + [("ALL", overall)]:
        print(_report_lines(rec, report))
    return 0


def cmd_synth(args) -> int:
    _require(0 < args.duration < math.inf, "--duration must be finite and positive")
    _require(args.speakers >= 1, "--speakers must be >= 1")
    _require(args.dim >= 1, "--dim must be >= 1")
    _require(0 <= args.noise_deg <= 90, "--noise-deg must lie in [0, 90]")
    _require(args.seed >= 0, "--seed must be >= 0")
    scenario = SynthScenario(
        n_speakers=args.speakers,
        duration=args.duration,
        dim=args.dim,
        scenario_kind=args.scenario,
        within_noise_deg=args.noise_deg,
        seed=args.seed,
    )
    reference, windows, regions = generate(scenario)
    # name the recording after the embeddings file so diarize + evaluate line up
    recording_id = Path(args.out_embeddings).stem
    reference = Annotation(recording_id, reference.segments)
    rttm = _rttm(args.out_reference, reference)  # before any file is written
    Path(args.out_embeddings).write_text(formats.write_embeddings_csv(windows))
    Path(args.out_reference).write_text(rttm)
    Path(args.out_regions).write_text(formats.write_regions_csv(regions))
    return 0


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    _require(len(parts) == 3, "--grid must have the form a:b:step")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"--grid values must be numeric, got {text!r}") from None
    _require(all(map(math.isfinite, (a, b, step))), f"--grid values must be finite, got {text!r}")
    _require(step > 0, "--grid step must be positive")
    _require(b >= a, "--grid end must be >= start")
    values = []
    i = 0
    while (v := a + i * step) <= b + 1e-9:
        values.append(v)
        i += 1
    return values


def cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid)
    with _flag_values():
        if args.param == "threshold":
            configs = [DiarizeConfig("naive", threshold=value) for value in grid]
        else:
            name = args.param.replace("-", "_")  # sigma or p_percentile
            configs = [DiarizeConfig(spectral=SpectralParams(**{name: value})) for value in grid]

    list_text = _read(args.embeddings_list)
    embedding_paths = [line.strip() for line in list_text.splitlines() if line.strip()]
    _require(bool(embedding_paths), "embeddings list is empty")
    references = {
        a.recording_id: a for a in _read(args.reference, formats.parse_rttm)
    }

    prepared = []
    for path in embedding_paths:
        rec = Path(path).stem
        if rec not in references:
            raise UsageError(f"recording {rec} is missing from the reference RTTM")
        windows = _read(path, formats.read_embeddings_csv)
        prepared.append((rec, segment_embeddings(windows, None)))

    reports: list[list[DerReport]] = [[] for _ in configs]
    for rec, seg_embs in prepared:
        for row, hypothesis in zip(reports, diarize_grid(rec, seg_embs, configs)):
            row.append(der(references[rec], hypothesis, EvalOptions()))
    results = [(value, combine_reports(row).total) for value, row in zip(grid, reports)]

    best = min(range(len(results)), key=lambda i: results[i][1])
    print(f"{args.param:>14} {'DER%':>10}")
    for i, (value, total) in enumerate(results):
        marker = "  *" if i == best else ""
        print(f"{value:14.6g} {total:10.4f}{marker}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diarkit",
        description="Speaker diarization over precomputed window embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config, spectral = DiarizeConfig(), SpectralParams()

    d = sub.add_parser("diarize", help="cluster a recording and write hypothesis RTTM")
    d.add_argument("--embeddings", required=True, help="window embeddings CSV")
    d.add_argument("--regions", help="speech regions CSV (default: union of windows)")
    d.add_argument("--algorithm", choices=ALGORITHMS, default=config.algorithm)
    d.add_argument("--max-segment-len", type=float, default=DEFAULT_MAX_SEGMENT_LEN)
    d.add_argument("--sigma", type=float, default=spectral.sigma)
    d.add_argument("--p-percentile", type=float, default=spectral.p_percentile)
    d.add_argument("--soft-multiplier", type=float, default=spectral.soft_multiplier)
    d.add_argument("--threshold", type=float, default=config.threshold,
                   help="naive online similarity threshold")
    d.add_argument("--min-speakers", type=int, default=spectral.min_clusters)
    d.add_argument("--max-speakers", type=int, default=spectral.max_clusters)
    d.add_argument("--seed", type=int, default=spectral.seed)
    d.add_argument("--out", required=True, help="hypothesis RTTM path")
    d.add_argument("--dump-stages", metavar="PREFIX",
                   help="write affinity + refinement heatmaps as PREFIX_*.pgm")
    d.set_defaults(func=cmd_diarize)

    e = sub.add_parser("evaluate", help="score hypothesis RTTM against reference RTTM")
    e.add_argument("--reference", required=True)
    e.add_argument("--hypothesis", required=True)
    e.add_argument("--collar", type=float, default=EvalOptions().collar)
    e.add_argument("--uem", help="restrict scoring to UEM spans")
    e.add_argument("--no-overlap-exclusion", action="store_true",
                   help="score overlapped reference speech too")
    e.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("synth", help="generate a synthetic conversation")
    s.add_argument("--speakers", type=int, required=True)
    s.add_argument("--duration", type=float, required=True)
    s.add_argument("--scenario", choices=SCENARIO_KINDS, default="separated")
    s.add_argument("--noise-deg", type=float, default=5.0)
    s.add_argument("--dim", type=int, default=16)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out-embeddings", required=True)
    s.add_argument("--out-reference", required=True)
    s.add_argument("--out-regions", required=True)
    s.set_defaults(func=cmd_synth)

    w = sub.add_parser("sweep", help="DER as a function of one tuning parameter")
    w.add_argument("--embeddings-list", required=True,
                   help="text file with one embeddings CSV path per line")
    w.add_argument("--reference", required=True)
    w.add_argument("--param", choices=("sigma", "p-percentile", "threshold"),
                   required=True)
    w.add_argument("--grid", required=True, metavar="A:B:STEP")
    w.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        return args.func(args)
    except (UsageError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidInputError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))
