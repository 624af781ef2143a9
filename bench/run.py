#!/usr/bin/env python3
"""diarkit benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload long-spectral --seed 1 --seconds 20 --trace 0

Run from the repository root. The benchmark generates the workload's
inputs from --seed, times ops through `diarkit.cli.main` in this process
for --seconds, checks every op's outputs, and prints a summary followed by
one JSON line with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates traced and untraced ops and reports the per-layer metrics.
bench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / "_work"
WORKLOAD_NAMES = ("long-spectral", "corpus-mixed", "tuning-sweep")
# Set-up is repeated and its median reported, so one slow disk write does
# not decide the figure.
SETUP_REPEATS = 3
MIB = 1024 * 1024


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny recordings, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def limit_blas_threads() -> tuple[int, int]:
    """Cap BLAS/OpenMP threads at the usable CPU count (or a lower setting).

    Must run before numpy is imported. Returns (nproc, threads).
    """
    nproc = len(os.sched_getaffinity(0))
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    threads = nproc
    for name in names:
        value = os.environ.get(name, "")
        if value.isdigit() and 1 <= int(value) < threads:
            threads = int(value)
    for name in names:
        os.environ[name] = str(threads)
    return nproc, threads


def parse_score(stdout: str, rec_id: str) -> dict[str, float] | None:
    """The `recording=<id> key=value ...` line of `evaluate` output, as floats."""
    prefix = f"recording={rec_id} "
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return {k: float(v) for k, v in (f.split("=") for f in line[len(prefix):].split())}
    return None


def parse_sweep(stdout: str) -> float | None:
    """DER% of the starred (best) row of `sweep` output."""
    for line in stdout.splitlines()[1:]:
        fields = line.split()
        if len(fields) == 3 and fields[2] == "*":
            return float(fields[1])
    return None


def pooled_der(scores) -> float:
    """DER % of pooled seconds, as `evaluate` computes its ALL row."""
    scores = list(scores)
    if not scores:  # every op failed; the run is already marked incorrect
        return 0.0
    errors = sum(s["fa_seconds"] + s["miss_seconds"] + s["confusion_seconds"] for s in scores)
    return 100.0 * errors / sum(s["ref_speech_seconds"] for s in scores)


class Checker:
    """Output checks for every op; remembers first results to compare against."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.hypotheses: dict[tuple[str, str], tuple[bytes, str]] = {}
        self.scores: dict[tuple[str, str], dict[str, float]] = {}
        self.speakers: dict[tuple[str, str], int] = {}
        self.sweep: tuple[str, float] | None = None

    def check(self, calls, rec_id: str | None, tag: str) -> list[str]:
        import workloads
        from diarkit import io as formats

        errors = [f"{what} exited {code}: {err.strip()[-300:]}"
                  for what, code, _, err in calls if code != 0]
        if errors:
            return errors
        if rec_id is None:
            out = calls[0][2]
            best = parse_sweep(out)
            if best is None:
                return ["sweep printed no starred row"]
            if self.sweep is None:
                self.sweep = (out, best)
            elif out != self.sweep[0]:
                errors.append(f"sweep output differs from the first op's ({tag})")
            return errors
        for what, _, out, _ in calls:
            if not what.startswith("evaluate:"):
                continue
            algorithm = what.split(":", 1)[1]
            key = (rec_id, algorithm)
            data = workloads.hypothesis_path(self.workdir, rec_id, algorithm, tag).read_bytes()
            try:
                annotations = formats.parse_rttm(data.decode())
            except ValueError as exc:
                errors.append(f"{rec_id} {algorithm}: hypothesis does not parse: {exc}")
                continue
            if [a.recording_id for a in annotations] != [rec_id]:
                errors.append(f"{rec_id} {algorithm}: hypothesis recordings "
                              f"{[a.recording_id for a in annotations]}")
                continue
            segments = annotations[0].segments
            # RTTM rounds start and duration to 1e-6 s each
            if any(b.interval.start < a.interval.end - 2e-6
                   for a, b in zip(segments, segments[1:])):
                errors.append(f"{rec_id} {algorithm}: hypothesis segments overlap")
            score = parse_score(out, rec_id)
            if score is None:
                errors.append(f"{rec_id} {algorithm}: evaluate printed no score")
                continue
            if key not in self.hypotheses:
                self.hypotheses[key] = (data, tag)
                self.scores[key] = score
                self.speakers[key] = len(annotations[0].labels())
                continue
            first_data, first_tag = self.hypotheses[key]
            if data != first_data:
                errors.append(f"{rec_id} {algorithm}: hypothesis ({tag}) differs from "
                              f"an earlier op's ({first_tag})")
            if score != self.scores[key]:
                errors.append(f"{rec_id} {algorithm}: DER differs from an earlier op's")
        return errors


class Runner:
    """Set-up, the timed op loop, and the quality pass of one benchmark run."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.checker = Checker(workdir)
        self.files = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.next_op = 0

    def setup(self) -> dict:
        import workloads

        totals, generate, write_csv = [], [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.files, timing, generated = workloads.materialize(self.workload, self.workdir)
            totals.append(time.perf_counter() - t0)
            generate.append(timing["generate_s"])
            write_csv.append(timing["write_csv_s"])
        return {
            "totals": totals,
            "median_s": statistics.median(totals),
            "generate_s": statistics.median(generate),
            "write_csv_s": statistics.median(write_csv),
            "sizes": workloads.input_sizes(self.workload, generated),
        }

    def op(self, tag: str, tracer=None) -> tuple[float, float]:
        """Run the next op; check it; return (wall seconds, audio seconds)."""
        import workloads

        wl = self.workload
        if wl.op == "sweep":
            rec_id = None
            audio = workloads.SWEEP_POINTS * sum(r.duration for r in wl.recordings)

            def body():
                return workloads.sweep_op(self.workdir)
        else:
            rec = wl.recordings[wl.order[self.next_op % len(wl.order)]]
            rec_id, audio = rec.rec_id, rec.duration

            def body():
                return workloads.diarize_op(self.files[rec_id], rec_id, wl.algorithms,
                                            self.workdir, tag)
        t0 = time.perf_counter()
        calls = tracer.run_op(body) if tracer else body()
        wall = time.perf_counter() - t0
        self.record(self.checker.check(calls, rec_id, tag))
        return wall, audio

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.failures.extend(errors)

    def timed_loop(self, seconds: float) -> tuple[list[float], list[float]]:
        """Whole passes of ops, back to back, while one more pass at the median
        pass time so far would still end within `seconds`; at least one.

        A pass visits every recording once (a sweep op already does), so
        every run times the same set of ops whatever the machine's speed.
        """
        walls, audio, passes = [], [], []
        per_pass = 1 if self.workload.op == "sweep" else len(self.workload.order)
        start = time.perf_counter()
        while not passes or time.perf_counter() - start + statistics.median(passes) <= seconds:
            for _ in range(per_pass):
                wall, audio_s = self.op("plain")
                walls.append(wall)
                audio.append(audio_s)
                self.next_op += 1
            passes.append(sum(walls[-per_pass:]))
        return walls, audio

    def traced_loop(self, seconds: float, tracer) -> tuple[list[float], list[float]]:
        """Pairs of one untraced and one traced op on the same input.

        The order inside a pair alternates so that neither side always
        runs on warmer caches.
        """
        plain, traced = [], []
        start = time.perf_counter()
        while not plain or (time.perf_counter() - start
                            + statistics.median(plain) + statistics.median(traced) <= seconds):
            for side in ((0, 1) if len(plain) % 2 == 0 else (1, 0)):
                if side:
                    traced.append(self.op("traced", tracer)[0])
                else:
                    plain.append(self.op("plain")[0])
            self.next_op += 1
        return plain, traced

    def quality_pass(self) -> dict[str, float]:
        """DER and speaker-count metrics over every recording, untimed.

        Hypotheses the timed ops produced are reused; a recording or
        algorithm they did not cover is diarized here with the CLI defaults.
        Collar-0 DER rescoring always happens here.
        """
        import workloads

        collar0 = []
        for rec in self.workload.recordings:
            for algorithm in workloads.ALGORITHMS:
                if (rec.rec_id, algorithm) not in self.checker.scores:
                    calls = workloads.diarize_op(self.files[rec.rec_id], rec.rec_id,
                                                 (algorithm,), self.workdir, "plain")
                    self.record(self.checker.check(calls, rec.rec_id, "plain"))
            hyp = workloads.hypothesis_path(self.workdir, rec.rec_id, "spectral", "plain")
            code, out, err = workloads.call_cli(
                ["evaluate", "--reference", str(self.files[rec.rec_id].reference),
                 "--hypothesis", str(hyp), "--collar", "0"])
            score = parse_score(out, rec.rec_id)
            if code != 0:
                self.record([f"{rec.rec_id}: collar-0 evaluate exited {code}: {err.strip()}"])
            elif score is None:
                self.record([f"{rec.rec_id}: collar-0 evaluate printed no score"])
            else:
                self.record([])
                collar0.append(score)

        def pooled(algorithm):
            return pooled_der(score for (_, alg), score in self.checker.scores.items()
                              if alg == algorithm)

        recs = self.workload.recordings
        matched = sum(self.checker.speakers.get((r.rec_id, "spectral")) == r.speakers
                      for r in recs)
        der = self.checker.sweep[1] if self.checker.sweep else pooled("spectral")
        return {
            "der_pct": der,
            "der_collar0_pct": pooled_der(collar0),
            "der_kmeans_pct": pooled("kmeans"),
            "der_naive_pct": pooled("naive"),
            "k_match_ratio": matched / len(recs),
        }


def layer_metrics(tracer, alloc, setup: dict, plain: list[float], traced: list[float]) -> dict:
    """Per-layer metrics of the traced ops, per op unless named otherwise.

    `alloc` is the tracer of the one op that measured heap peaks.
    """
    import tracing

    ops = max(tracer.ops, 1)
    self_s = tracer.self_times()
    total_s = tracer.total_times()
    out = {}
    for layer in tracing.LAYERS:
        layer_s = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out[f"{layer}.self_s"] = (layer_s / ops, "s")
    for name in tracing.SPANS:
        if name not in tracing.NOT_EVERY_OP:
            out[f"{name}.self_s"] = (self_s.get(name, 0.0) / ops, "s")

    def counts(name, key):
        return [c[key] for _, c, _ in tracer.calls.get(name, []) if key in c]

    ns = counts("clustering.spectral_cluster", "n")
    ks = counts("clustering.spectral_cluster", "k")
    retained = counts("clustering.spectral_cluster", "retained")
    peaks = [p for _, _, p in alloc.calls.get("clustering.spectral_cluster", []) if p]
    n_max = max(ns, default=0)
    # retained n x n arrays plus two alive during the eigensolve: the
    # symmetrized input and its eigenvector matrix
    held = max(retained, default=0) + 2
    seg_in = sum(counts("aggregation.aggregate", "segments"))
    seg_out = sum(counts("aggregation.aggregate", "kept"))
    root_total = total_s.get(tracing.ROOT, 0.0)
    out.update({
        "clustering.refine_chain.time_s": (total_s.get("clustering.refine_chain", 0.0) / ops, "s"),
        "clustering.spectral_cluster.peak_alloc_mib": (max(peaks, default=0) / MIB, "MiB"),
        "clustering.matrix_mib_computed": (8.0 * n_max * n_max * held / MIB, "MiB"),
        "clustering.n_max": (n_max, "count"),
        "clustering.k": (statistics.fmean(ks) if ks else 0.0, "count"),
        "numerics.eigh.calls": (len(tracer.calls.get("numerics.eigh", [])) / ops, "count"),
        "io.windows": (sum(counts("io.read_embeddings_csv", "windows")) / ops, "count"),
        "aggregation.segments": (seg_in / ops, "count"),
        "aggregation.segments_dropped": ((seg_in - seg_out) / ops, "count"),
        "aggregation.kept_ratio": (seg_out / seg_in if seg_in else 0.0, "ratio"),
        "aggregation.dropped_speech_s": (
            sum(counts("aggregation.aggregate", "dropped_s")) / ops, "audio_s"),
        "synth.generate.time_s": (setup["generate_s"], "s"),
        "io.write_embeddings_csv.time_s": (setup["write_csv_s"], "s"),
        "trace.overhead_ratio": (statistics.median(traced) / statistics.median(plain), "ratio"),
        "trace.span_coverage": (
            1.0 - self_s.get(tracing.ROOT, 0.0) / root_total if root_total else 0.0, "ratio"),
    })
    return out


def environment(nproc: int, threads: int, args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc,
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


def traced_run(runner: Runner, seconds: float, setup: dict, trace_path: Path):
    """--trace 1: the traced loop, its span file, then one heap-peak op."""
    import tracing

    mark = time.perf_counter()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        plain, traced = runner.traced_loop(seconds, tracer)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    phases = {"loop": time.perf_counter() - mark}
    mark = time.perf_counter()
    alloc = tracing.Tracer(alloc=True)
    alloc.install()
    try:
        runner.op("traced", alloc)
    finally:
        alloc.uninstall()
    phases["alloc_op"] = time.perf_counter() - mark
    self_s = tracer.self_times()
    samples = {"untraced_ops": len(plain), "traced_ops": len(traced),
               "untraced_s": plain, "traced_s": traced,
               "self_s_per_op": {name: self_s.get(name, 0.0) / tracer.ops
                                 for name in tracing.SPANS}}
    return layer_metrics(tracer, alloc, setup, plain, traced), samples, phases


def plain_run(runner: Runner, seconds: float, setup: dict, import_s: float):
    """--trace 0: the timed loop, then the quality pass; end-to-end metrics."""
    mark = time.perf_counter()
    walls, audio = runner.timed_loop(seconds)
    phases = {"loop": time.perf_counter() - mark}
    mark = time.perf_counter()
    quality = runner.quality_pass()
    phases["quality"] = time.perf_counter() - mark
    metrics = {
        "setup_s": (import_s + setup["median_s"], "s"),
        "rtf": (sum(walls) / sum(audio), "s/s"),
        "latency_p50_s": (statistics.median(walls), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "der_pct": (quality["der_pct"], "%"),
        "der_collar0_pct": (quality["der_collar0_pct"], "%"),
        "der_kmeans_pct": (quality["der_kmeans_pct"], "%"),
        "der_naive_pct": (quality["der_naive_pct"], "%"),
        "k_match_ratio": (quality["k_match_ratio"], "ratio"),
    }
    samples = {"timed_ops": len(walls), "op_s": walls,
               "setup_repeats": SETUP_REPEATS, "setup_s": setup["totals"]}
    return metrics, samples, phases


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "diarkit" / "__init__.py").is_file():
        print(f"error: diarkit sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc, threads = limit_blas_threads()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import diarkit.cli  # noqa: F401  (pulls in numpy, scipy and every module)
    import_s = time.perf_counter() - t0
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{stem}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workload, workdir)
        mark = time.perf_counter()
        setup = runner.setup()
        phases = {"import": import_s, "setup": time.perf_counter() - mark}
        if args.trace:
            metrics, samples, more = traced_run(runner, args.seconds, setup,
                                                WORK / f"trace-{stem}.json")
        else:
            metrics, samples, more = plain_run(runner, args.seconds, setup, import_s)
        phases.update(more)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = runner.failed
    error_rate = failed / runner.attempted
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    env = environment(nproc, threads, args)
    sizes = setup["sizes"]
    report = {"environment": env, "inputs": sizes, "samples": samples, "phases_s": phases,
              "error_rate": error_rate, "failures": runner.failures[:20], **result}
    (WORK / f"result-{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    for failure in runner.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} nproc={nproc} blas_threads={threads} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']}")
    print(f"# inputs: {sizes['recordings']} recordings, {sizes['audio_s']:.0f} s audio, "
          f"{sizes['windows']} windows, n_max={sizes['n_max']}")
    counts = {k: v for k, v in samples.items() if isinstance(v, int)}
    print(f"# samples: {json.dumps(counts)}  attempted={runner.attempted} "
          f"failed={failed} error_rate={error_rate:g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
