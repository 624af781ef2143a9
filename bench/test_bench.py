"""Self-test of the benchmark: every workload at a tiny size, in both modes.

    python3 -m pytest -q bench/test_bench.py    # from the repository root

Checks that each run exits 0 with a correct result whose metric names and
units are exactly those BENCHMARK.json lists, that the same seed gives the
same quality figures, and that the benchmark refuses to run without the
diarkit sources. About 15 s on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
QUALITY = ("der_pct", "der_collar0_pct", "der_kmeans_pct", "der_naive_pct", "k_match_ratio")


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_metrics_match_benchmark_json(workload, trace):
    result = result_of(run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_same_seed_same_quality():
    first, second = (result_of(run("corpus-mixed", 0, seed=5))["metrics"] for _ in range(2))
    assert {k: first[k] for k in QUALITY} == {k: second[k] for k in QUALITY}


def test_refuses_without_sources():
    bare = BENCH / "_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc = run("long-spectral", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
