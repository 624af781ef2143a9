"""Acceptance gate: one test per release criterion, each printing a
[PASS]/[FAIL] line with its measured numbers and runtime budget."""

import math
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import diarkit
from diarkit import (
    EvalOptions,
    InvalidInputError,
    SpectralParams,
    SynthScenario,
    der,
    spectral_cluster,
)
from helpers import (
    child_env,
    labels_kmeans_elbow,
    labels_naive,
    labels_spectral,
    prepare,
    refinement_stages,
    score_total,
)
from diarkit.clustering import _row_max_normalize_symmetrize, blurred_affinity, estimate_k_eigengap
from diarkit.metrics import map_speakers
from diarkit.numerics import eigh, gram, nearest_rank_index
from oracles import (
    brute_force_assignment,
    der_oracle,
    overlap_milliseconds,
    random_der_case,
    row_max_normalize,
    sort_threshold,
    symmetrize,
)

BLOCK = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 1.0],
    ]
)


def report(capsys, ok: bool, name: str, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="session")
def separated_suite():
    """100 separated conversations, 2-4 speakers, scored by every algorithm."""
    t0 = time.perf_counter()
    rows = []
    for seed in range(100):
        n_speakers = 2 + seed % 3
        scenario = SynthScenario(
            n_speakers=n_speakers, duration=120, within_noise_deg=5.0, seed=seed
        )
        reference, embeddings = prepare(scenario)
        spectral_labels, k = labels_spectral(embeddings)
        naive_labels, _ = labels_naive(embeddings)
        spectral_report = score_total(reference, embeddings, spectral_labels)
        naive_report = score_total(reference, embeddings, naive_labels)
        rows.append(
            {
                "n_speakers": n_speakers,
                "k": k,
                "spectral_confusion": spectral_report.confusion,
                "spectral_total": spectral_report.total,
                "naive_total": naive_report.total,
            }
        )
    return {"rows": rows, "elapsed": time.perf_counter() - t0}


def test_refinement_chain_suite(capsys):
    t0 = time.perf_counter()
    worst = 0.0

    def check(actual, expected):
        nonlocal worst
        worst = max(worst, float(np.max(np.abs(np.asarray(actual) - expected))))

    # each hand example runs the stage the clusterer runs, or, for a matrix the
    # clusterer never forms (threshold alone, max(M, Mᵀ) or R of an asymmetric
    # matrix), its dense reference
    s = 1 / math.sqrt(2)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    mid = (e1 + e2) / np.linalg.norm(e1 + e2)
    check(
        blurred_affinity(np.stack([e1, e2, mid]), 0.0),
        np.array([[s, 0, s], [0, s, s], [s, s, s]]),
    )
    rows = np.array([[0.9, 0.5, 0.1]] * 3)
    check(
        sort_threshold(rows, nearest_rank_index(50, 3), 0.01)[0],
        np.array([0.9, 0.5, 0.001]),
    )
    check(
        sort_threshold(rows, nearest_rank_index(50, 3), 0.0)[0],
        np.array([0.9, 0.5, 0.0]),
    )
    check(
        symmetrize(np.array([[0.0, 1.0], [0.2, 0.0]])),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
    )
    check(
        gram(np.array([[1.0, 0.5], [0.5, 1.0]])),
        np.array([[1.25, 1.0], [1.0, 1.25]]),
    )
    check(
        _row_max_normalize_symmetrize(np.array([[1.25, 1.0], [1.0, 1.25]])),
        np.array([[1.0, 0.8], [0.8, 1.0]]),
    )
    check(
        row_max_normalize(np.array([[2.0, 4.0], [0.5, 0.25]])),
        np.array([[0.5, 1.0], [1.0, 0.5]]),
    )
    # the affinity of e1, e1, e2, e2 is BLOCK, a fixed point of the chain
    params = SpectralParams(sigma=0.0, p_percentile=50, soft_multiplier=0.0)
    stages = refinement_stages(np.stack([e1, e1, e2, e2]), params)
    check(stages[-1][1], BLOCK)
    stage_count_ok = len(stages) == 4

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and stage_count_ok and elapsed < 1.0
    report(
        capsys,
        ok,
        "refinement-chain suite",
        f"max example error {worst:.2e} (tol 1e-12), "
        f"{len(stages)} snapshots, {elapsed:.2f}s (limit 1s)",
    )
    assert worst <= 1e-12
    assert stage_count_ok
    assert elapsed < 1.0


def test_eigen_suite(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        m = rng.normal(size=(n, n))
        m = 0.5 * (m + m.T)
        decomp = eigh(m)
        recon = decomp.vectors @ np.diag(decomp.values) @ decomp.vectors.T
        worst = max(worst, float(np.max(np.abs(recon - m))))
        gram = decomp.vectors.T @ decomp.vectors
        worst = max(worst, float(np.max(np.abs(gram - np.eye(n)))))

    block_k = estimate_k_eigengap(eigh(BLOCK).values, 1, 3)

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and block_k == 2 and elapsed < 10.0
    report(
        capsys,
        ok,
        "eigen suite",
        f"200 matrices n in [2,50], worst residual {worst:.2e} (tol 1e-8), "
        f"two-block k={block_k}, {elapsed:.1f}s (limit 10s)",
    )
    assert worst <= 1e-8
    assert block_k == 2
    assert elapsed < 10.0


def test_der_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    checked = 0
    worst_seconds = 0.0
    mapping_mismatches = 0
    while checked < 200:
        reference, hypothesis, opts = random_der_case(rng)
        try:
            actual = der(reference, hypothesis, opts)
        except InvalidInputError:
            continue
        expected = der_oracle(reference, hypothesis, opts)
        for field, key in (
            ("fa_seconds", "fa"),
            ("miss_seconds", "miss"),
            ("confusion_seconds", "confusion"),
            ("ref_speech_seconds", "ref_speech"),
        ):
            worst_seconds = max(
                worst_seconds, abs(getattr(actual, field) - expected[key])
            )
        if len(hypothesis) > 0:
            matrix = overlap_milliseconds(reference, hypothesis, opts)
            ref_labels = sorted({seg.speaker for seg in reference})
            hyp_labels = sorted({seg.speaker for seg in hypothesis})
            mapping = map_speakers(ref_labels, hyp_labels, matrix)
            total = sum(
                matrix[ref_labels.index(r), hyp_labels.index(h)]
                for r, h in mapping.items()
            )
            if total != brute_force_assignment(matrix):
                mapping_mismatches += 1
        checked += 1

    elapsed = time.perf_counter() - t0
    ok = worst_seconds <= 1e-9 and mapping_mismatches == 0 and elapsed < 30.0
    report(
        capsys,
        ok,
        "der-oracle equivalence",
        f"200 cases, worst component gap {worst_seconds:.2e}s (tol 1e-9), "
        f"{mapping_mismatches} mapping mismatches, {elapsed:.1f}s (limit 30s)",
    )
    assert worst_seconds <= 1e-9
    assert mapping_mismatches == 0
    assert elapsed < 30.0


def test_planted_recovery(capsys, separated_suite):
    rows = separated_suite["rows"]
    recovered = [r for r in rows if r["k"] == r["n_speakers"]]
    worst_confusion = max((r["spectral_confusion"] for r in recovered), default=math.inf)
    elapsed = separated_suite["elapsed"]

    ok = len(recovered) >= 95 and worst_confusion < 2.0 and elapsed < 120.0
    report(
        capsys,
        ok,
        "planted recovery",
        f"{len(recovered)}/100 seeds recovered (need 95), worst confusion "
        f"{worst_confusion:.3f}% (bound 2%), suite took {elapsed:.1f}s (limit 120s)",
    )
    assert len(recovered) >= 95
    assert worst_confusion < 2.0
    assert elapsed < 120.0


def hierarchical_suite():
    """50 hierarchical 4-speaker conversations: two pairs 70° apart, 25° within a pair."""
    return [
        SynthScenario(
            n_speakers=4,
            duration=120,
            scenario_kind="hierarchical",
            within_noise_deg=8.0,
            seed=seed,
        )
        for seed in range(50)
    ]


def test_clustering_ordering(capsys):
    t0 = time.perf_counter()

    def suite_means(scenarios):
        spectral_totals, kmeans_totals = [], []
        for scenario in scenarios:
            reference, embeddings = prepare(scenario)
            s_labels, _ = labels_spectral(embeddings)
            k_labels, _ = labels_kmeans_elbow(embeddings)
            spectral_totals.append(score_total(reference, embeddings, s_labels).total)
            kmeans_totals.append(score_total(reference, embeddings, k_labels).total)
        return float(np.mean(spectral_totals)), float(np.mean(kmeans_totals))

    hier_spectral, hier_kmeans = suite_means(hierarchical_suite())
    imb_spectral, imb_kmeans = suite_means(
        [
            SynthScenario(
                n_speakers=3,
                duration=120,
                scenario_kind="imbalanced",
                seed=seed,
            )
            for seed in range(50)
        ]
    )

    elapsed = time.perf_counter() - t0
    ok = hier_spectral < hier_kmeans and imb_spectral < imb_kmeans and elapsed < 300.0
    report(
        capsys,
        ok,
        "offline clustering ordering",
        f"hierarchical spectral {hier_spectral:.2f}% < kmeans {hier_kmeans:.2f}%; "
        f"imbalanced spectral {imb_spectral:.2f}% < kmeans {imb_kmeans:.2f}%; "
        f"{elapsed:.1f}s (limit 300s)",
    )
    assert hier_spectral < hier_kmeans
    assert imb_spectral < imb_kmeans
    assert elapsed < 300.0


def test_online_vs_offline_ordering(capsys, separated_suite):
    rows = separated_suite["rows"]
    naive_mean = float(np.mean([r["naive_total"] for r in rows]))
    spectral_mean = float(np.mean([r["spectral_total"] for r in rows]))
    elapsed = separated_suite["elapsed"]

    ok = naive_mean >= spectral_mean and elapsed < 120.0
    report(
        capsys,
        ok,
        "online-vs-offline ordering",
        f"naive mean DER {naive_mean:.3f}% >= spectral mean DER {spectral_mean:.3f}%, "
        f"suite took {elapsed:.1f}s (limit 120s)",
    )
    assert naive_mean >= spectral_mean
    assert elapsed < 120.0


def test_online_vs_offline_hierarchical_ordering(capsys):
    # The separated suite above is easy enough for both clusterers to tie;
    # paired speakers defeat the naive threshold, so here the order is strict.
    t0 = time.perf_counter()
    naive_totals, spectral_totals = [], []
    for scenario in hierarchical_suite():
        reference, embeddings = prepare(scenario)
        s_labels, _ = labels_spectral(embeddings)
        n_labels, _ = labels_naive(embeddings)
        spectral_totals.append(score_total(reference, embeddings, s_labels).total)
        naive_totals.append(score_total(reference, embeddings, n_labels).total)
    naive_mean = float(np.mean(naive_totals))
    spectral_mean = float(np.mean(spectral_totals))
    elapsed = time.perf_counter() - t0

    ok = naive_mean > spectral_mean and elapsed < 120.0
    report(
        capsys,
        ok,
        "online-vs-offline ordering (hierarchical)",
        f"naive mean DER {naive_mean:.3f}% > spectral mean DER {spectral_mean:.3f}%, "
        f"suite took {elapsed:.1f}s (limit 120s)",
    )
    assert naive_mean > spectral_mean
    assert elapsed < 120.0


def test_cli_determinism(capsys, tmp_path):
    # The subprocesses run from temp directories, pinned to the package this
    # process imported.
    package = Path(diarkit.__file__).resolve()
    env = child_env()

    def run_python(args, cwd, what):
        proc = subprocess.run(
            [sys.executable, *args],
            capture_output=True,
            cwd=cwd,
            env=env,
            timeout=300,
        )
        if proc.returncode != 0:
            report(
                capsys,
                False,
                "cli determinism",
                f"{what} exited {proc.returncode}: {proc.stderr.decode().strip()}",
            )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    def cli(*args, cwd):
        return run_python(["-m", "diarkit", *args], cwd, f"diarkit {args[0]}")

    (tmp_path / "one").mkdir()
    imported = run_python(
        ["-c", "import diarkit; print(diarkit.__file__)"],
        tmp_path / "one",
        "import diarkit",
    )
    child_package = Path(imported.decode().strip()).resolve()
    if child_package != package:
        report(
            capsys,
            False,
            "cli determinism",
            f"subprocess imports {child_package}, tests import {package}",
        )
    assert child_package == package

    artifacts = {}
    for run in ("one", "two"):
        base = tmp_path / run
        (base / "stages").mkdir(parents=True)
        outputs = {}
        cli(
            "synth",
            "--speakers", "2",
            "--duration", "60",
            "--seed", "0",
            "--out-embeddings", str(base / "dev0.csv"),
            "--out-reference", str(base / "dev0.rttm"),
            "--out-regions", str(base / "dev0-regions.csv"),
            cwd=base,
        )
        for algorithm in ("spectral", "kmeans", "naive"):
            extra = []
            if algorithm == "spectral":
                extra = ["--dump-stages", str(base / "stages" / "s")]
            cli(
                "diarize",
                "--embeddings", str(base / "dev0.csv"),
                "--regions", str(base / "dev0-regions.csv"),
                "--algorithm", algorithm,
                "--seed", "3",
                "--out", str(base / f"hyp-{algorithm}.rttm"),
                *extra,
                cwd=base,
            )
            outputs[f"hyp-{algorithm}"] = (base / f"hyp-{algorithm}.rttm").read_bytes()
        outputs["evaluate"] = cli(
            "evaluate",
            "--reference", str(base / "dev0.rttm"),
            "--hypothesis", str(base / "hyp-spectral.rttm"),
            cwd=base,
        )
        listing = base / "dev.list"
        listing.write_text(f"{base / 'dev0.csv'}\n")
        outputs["sweep"] = cli(
            "sweep",
            "--embeddings-list", str(listing),
            "--reference", str(base / "dev0.rttm"),
            "--param", "p-percentile",
            "--grid", "90:95:5",
            cwd=base,
        )
        for f in ("dev0.csv", "dev0.rttm", "dev0-regions.csv"):
            outputs[f] = (base / f).read_bytes()
        for stage in sorted((base / "stages").iterdir()):
            outputs[stage.name] = stage.read_bytes()
        artifacts[run] = outputs

    same_keys = set(artifacts["one"]) == set(artifacts["two"])
    diffs = [
        key
        for key in artifacts["one"]
        if artifacts["one"][key] != artifacts["two"].get(key)
    ]
    ok = same_keys and not diffs
    report(
        capsys,
        ok,
        "cli determinism",
        f"{len(artifacts['one'])} artifacts from synth/diarize(x3)/evaluate/sweep, "
        f"mismatches: {diffs if diffs else 'none'}",
    )
    assert same_keys
    assert diffs == []


def test_scale_smoke(capsys):
    rng = np.random.default_rng(99)
    basis, _ = np.linalg.qr(rng.standard_normal((16, 4)))
    points = []
    scale = math.tan(math.radians(5.0))
    for idx in range(4):
        mean = basis[:, idx]
        for _ in range(250):
            z = rng.standard_normal(16)
            z -= (z @ mean) * mean
            v = mean + scale * z / np.linalg.norm(z)
            points.append(v / np.linalg.norm(v))
    embeddings = np.array(points)

    tracemalloc.start()
    t0 = time.perf_counter()
    result = spectral_cluster(embeddings, SpectralParams(seed=0))
    elapsed = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    ok = elapsed < 30.0 and peak < 1 << 30
    report(
        capsys,
        ok,
        "scale smoke",
        f"1000 segments in {elapsed:.1f}s (limit 30s), peak {peak / 2**20:.0f} MiB "
        f"(limit 1024 MiB), k={result.clustering.k}",
    )
    assert elapsed < 30.0
    assert peak < 1 << 30
