from dataclasses import fields

import numpy as np
import pytest

import diarkit.cli
import diarkit.clustering
import diarkit.pipeline
from diarkit import (
    EvalOptions,
    SpectralParams,
    combine_reports,
    der,
    generate,
    parse_rttm,
    parse_uem,
    read_embeddings_csv,
    read_regions_csv,
    write_embeddings_csv,
    write_rttm,
)
from diarkit.aggregation import DEFAULT_MAX_SEGMENT_LEN
from diarkit.cli import MAX_GRID_VALUES, _parse_grid, _read, build_parser, main
from diarkit.clustering import estimate_k_eigengap
from diarkit.pipeline import ALGORITHMS, DiarizeConfig, diarize, segment_embeddings
from helpers import run_python
import test_io

E1_E1_E2_CSV = (
    "start,end,v0,v1\n"
    "0.0,0.24,1.0,0.0\n"
    "0.3,0.54,1.0,0.0\n"
    "0.6,0.84,0.0,1.0\n"
)


def run_synth(tmp_path, name, *extra):
    paths = {
        "emb": tmp_path / f"{name}.csv",
        "ref": tmp_path / f"{name}.rttm",
        "reg": tmp_path / f"{name}-regions.csv",
    }
    rc = main(
        [
            "synth",
            "--speakers", "2",
            "--duration", "60",
            "--seed", "0",
            "--out-embeddings", str(paths["emb"]),
            "--out-reference", str(paths["ref"]),
            "--out-regions", str(paths["reg"]),
            *extra,
        ]
    )
    assert rc == 0
    return paths


@pytest.fixture
def lanczos_fails(monkeypatch):
    """numerics.eigh's partial solve held to too few Lanczos steps to converge."""
    monkeypatch.setattr("diarkit.numerics._LANCZOS_STEPS", 12)


class TestDiarize:
    def test_spectral_on_synth_two_speakers(self, tmp_path):
        paths = run_synth(tmp_path, "conv")
        out = tmp_path / "hyp.rttm"
        # sigma 0: blur only smears turn boundaries on clean synthetic input
        rc = main(
            [
                "diarize",
                "--embeddings", str(paths["emb"]),
                "--regions", str(paths["reg"]),
                "--algorithm", "spectral",
                "--sigma", "0",
                "--out", str(out),
            ]
        )
        assert rc == 0
        (hypothesis,) = parse_rttm(out.read_text())
        assert hypothesis.recording_id == "conv"
        assert len(hypothesis.labels()) == 2
        assert all(label.startswith("spk") for label in hypothesis.labels())

    def test_naive_on_toy_file(self, tmp_path):
        emb = tmp_path / "toy.csv"
        emb.write_text(E1_E1_E2_CSV)
        out = tmp_path / "toy.rttm"
        rc = main(
            [
                "diarize",
                "--embeddings", str(emb),
                "--algorithm", "naive",
                "--threshold", "0.5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        (hypothesis,) = parse_rttm(out.read_text())
        assert hypothesis.labels() == ["spk0", "spk1"]

    def test_dump_stages_writes_four_files(self, tmp_path):
        paths = run_synth(tmp_path, "conv")
        out = tmp_path / "hyp.rttm"
        (tmp_path / "stages").mkdir()
        prefix = tmp_path / "stages" / "run"
        rc = main(
            [
                "diarize",
                "--embeddings", str(paths["emb"]),
                "--algorithm", "spectral",
                "--out", str(out),
                "--dump-stages", str(prefix),
            ]
        )
        assert rc == 0
        dumped = sorted(p.name for p in (tmp_path / "stages").iterdir())
        assert dumped == [
            "run_01_blur.pgm",
            "run_02_symmetrize.pgm",
            "run_03_diffuse.pgm",
            "run_04_refined.pgm",
        ]
        for name in dumped:
            assert (tmp_path / "stages" / name).read_bytes().startswith(b"P5\n")

    def test_dump_stages_shows_the_matrix_eigh_solves(self, tmp_path, monkeypatch):
        solved = []
        original = diarkit.clustering.eigh

        def capture(m, *args, **kwargs):
            solved.append(np.array(m))
            return original(m, *args, **kwargs)

        monkeypatch.setattr(diarkit.clustering, "eigh", capture)
        paths = run_synth(tmp_path, "conv")
        prefix = tmp_path / "run"
        rc = main(["diarize", "--embeddings", str(paths["emb"]), "--regions", str(paths["reg"]),
                   "--out", str(tmp_path / "hyp.rttm"), "--dump-stages", str(prefix)])
        assert rc == 0
        (m,) = solved
        data = (tmp_path / "run_04_refined.pgm").read_bytes()
        assert data == test_io.TestPgm.whole_matrix_pgm(m)
        n = len(m)
        grid = np.frombuffer(data[len(f"P5\n{n} {n}\n255\n"):], dtype=np.uint8).reshape(n, n)
        assert np.array_equal(grid, grid.T)

    def test_dump_stages_above_the_cap_shows_stage_two(self, tmp_path, monkeypatch):
        # the matrix eigh solves is the centroids': no segment x segment stage is written
        monkeypatch.setattr(diarkit.pipeline, "TWO_STAGE_CAP", 50)
        monkeypatch.setattr(diarkit.clustering, "PRECLUSTER_COUNT", 30)
        solved = []
        original = diarkit.clustering.eigh

        def capture(m, *args, **kwargs):
            solved.append(np.array(m))
            return original(m, *args, **kwargs)

        monkeypatch.setattr(diarkit.clustering, "eigh", capture)
        paths = run_synth(tmp_path, "conv")
        prefix = tmp_path / "run"
        rc = main(["diarize", "--embeddings", str(paths["emb"]), "--regions", str(paths["reg"]),
                   "--out", str(tmp_path / "hyp.rttm"), "--dump-stages", str(prefix)])
        assert rc == 0
        (m,) = solved
        assert m.shape == (30, 30)
        for name in ("blur", "symmetrize", "diffuse", "refined"):
            data = next(tmp_path.glob(f"run_*_{name}.pgm")).read_bytes()
            assert data.startswith(b"P5\n30 30\n255\n")
        expected = test_io.TestPgm.whole_matrix_pgm(m)
        assert (tmp_path / "run_04_refined.pgm").read_bytes() == expected

    @pytest.mark.parametrize("cap, counted",
                             [(None, "blurred_affinity"), (50, "two_stage_cluster")])
    def test_dump_stages_runs_the_chain_once(self, tmp_path, monkeypatch, cap, counted):
        # the stages are written from the clustering run itself: no second
        # affinity below the cap, no second pre-clustering above it
        if cap is not None:
            monkeypatch.setattr(diarkit.pipeline, "TWO_STAGE_CAP", cap)
            monkeypatch.setattr(diarkit.clustering, "PRECLUSTER_COUNT", 30)
        module = diarkit.pipeline if counted == "two_stage_cluster" else diarkit.clustering
        original, calls = getattr(module, counted), []

        def count(*args, **kwargs):
            calls.append(counted)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, counted, count)
        paths = run_synth(tmp_path, "conv")
        rc = main(["diarize", "--embeddings", str(paths["emb"]), "--regions", str(paths["reg"]),
                   "--out", str(tmp_path / "hyp.rttm"), "--dump-stages", str(tmp_path / "run")])
        assert rc == 0
        assert calls == [counted]
        assert len(list(tmp_path.glob("run_*.pgm"))) == 4

    @pytest.mark.parametrize("algorithm", ["spectral", "kmeans"])
    def test_empty_dump_stages_prefix_is_usage_error(self, tmp_path, capsys, algorithm):
        emb = tmp_path / "toy.csv"
        emb.write_text(E1_E1_E2_CSV)
        rc = main(["diarize", "--embeddings", str(emb), "--algorithm", algorithm,
                   "--out", str(tmp_path / "o.rttm"), "--dump-stages", ""])
        assert rc == 2
        assert capsys.readouterr().err == "error: --dump-stages PREFIX must not be empty\n"
        assert list(tmp_path.iterdir()) == [emb]

    def test_dump_stages_into_a_missing_directory(self, tmp_path, capsys):
        paths = run_synth(tmp_path, "conv")
        out = tmp_path / "hyp.rttm"
        rc = main(["diarize", "--embeddings", str(paths["emb"]), "--out", str(out),
                   "--dump-stages", str(tmp_path / "missing" / "run")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()
        assert not (tmp_path / "missing").exists()

    def test_rerun_byte_identical(self, tmp_path):
        paths = run_synth(tmp_path, "conv")
        outputs = []
        for run in ("one", "two"):
            out = tmp_path / f"{run}.rttm"
            rc = main(
                [
                    "diarize",
                    "--embeddings", str(paths["emb"]),
                    "--algorithm", "spectral",
                    "--seed", "7",
                    "--out", str(out),
                ]
            )
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_missing_embeddings_file_is_usage_error(self, tmp_path):
        rc = main(
            [
                "diarize",
                "--embeddings", str(tmp_path / "absent.csv"),
                "--out", str(tmp_path / "out.rttm"),
            ]
        )
        assert rc == 2

    def test_malformed_embeddings_is_usage_error(self, tmp_path):
        emb = tmp_path / "bad.csv"
        emb.write_text("start,end,v0\n0.0,0.24\n")
        rc = main(
            ["diarize", "--embeddings", str(emb), "--out", str(tmp_path / "o.rttm")]
        )
        assert rc == 2

    def test_bad_flag_value_is_usage_error(self, tmp_path):
        emb = tmp_path / "toy.csv"
        emb.write_text(E1_E1_E2_CSV)
        rc = main(
            [
                "diarize",
                "--embeddings", str(emb),
                "--algorithm", "naive",
                "--threshold", "1.5",
                "--out", str(tmp_path / "o.rttm"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "flags",
        [["--sigma", "-1"], ["--min-speakers", "3", "--max-speakers", "2"], ["--seed", "-1"]],
    )
    def test_bad_spectral_flag_is_usage_error(self, tmp_path, capsys, flags):
        # without the up-front check these would fail while clustering (exit 1)
        emb = tmp_path / "toy.csv"
        emb.write_text(E1_E1_E2_CSV)
        out = tmp_path / "o.rttm"
        rc = main(["diarize", "--embeddings", str(emb), *flags, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["2", "-0.01"])
    def test_soft_multiplier_outside_the_unit_interval_is_usage_error(self, tmp_path, capsys,
                                                                       value):
        emb = tmp_path / "toy.csv"
        emb.write_text(E1_E1_E2_CSV)
        out = tmp_path / "o.rttm"
        rc = main(["diarize", "--embeddings", str(emb), "--soft-multiplier", value,
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: soft_multiplier must lie in [0, 1], got {float(value)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "0"])
    def test_bad_max_segment_len_is_usage_error(self, tmp_path, capsys, value):
        emb = tmp_path / "toy.csv"
        emb.write_text(E1_E1_E2_CSV)
        out = tmp_path / "o.rttm"
        rc = main(["diarize", "--embeddings", str(emb), "--max-segment-len", value,
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: --max-segment-len must be finite and positive\n"
        assert not out.exists()

    def test_max_segment_len_below_the_shortest_piece_is_usage_error(self, tmp_path, capsys):
        emb = tmp_path / "toy.csv"
        emb.write_text(E1_E1_E2_CSV)
        out = tmp_path / "o.rttm"
        rc = main(["diarize", "--embeddings", str(emb), "--max-segment-len", "0.001",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: --max-segment-len must be at least 0.01 s\n"
        assert not out.exists()

    def test_kmeans_single_segment_is_one_speaker(self, tmp_path):
        emb = tmp_path / "single.csv"
        emb.write_text("start,end,v0,v1\n0.0,0.24,1.0,0.0\n")
        out = tmp_path / "o.rttm"
        rc = main(
            ["diarize", "--embeddings", str(emb), "--algorithm", "kmeans", "--out", str(out)]
        )
        assert rc == 0
        (hypothesis,) = parse_rttm(out.read_text())
        assert hypothesis.labels() == ["spk0"]

    @pytest.mark.parametrize(
        "bounds, speakers",
        [(["--min-speakers", "6"], 5), (["--min-speakers", "1", "--max-speakers", "1"], 1)],
    )
    def test_kmeans_clamps_speaker_bounds_to_segments(self, tmp_path, bounds, speakers):
        # five separate 0.3 s windows are five segments, one direction each; like
        # spectral clustering, k-means clamps the bounds to them, and a range
        # that holds only k = 1 is one speaker
        rows = [f"{i}.0,{i}.3," + ",".join("1.0" if j == i else "0.0" for j in range(5))
                for i in range(5)]
        emb = tmp_path / "five.csv"
        emb.write_text("start,end,v0,v1,v2,v3,v4\n" + "\n".join(rows) + "\n")
        out = tmp_path / "o.rttm"
        rc = main(["diarize", "--embeddings", str(emb), "--algorithm", "kmeans", *bounds,
                   "--out", str(out)])
        assert rc == 0
        (hypothesis,) = parse_rttm(out.read_text())
        assert len(hypothesis.labels()) == speakers

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_pipeline_diarize_matches_cli(self, tmp_path, algorithm):
        paths = run_synth(tmp_path, "conv")
        out = tmp_path / "hyp.rttm"
        rc = main(
            [
                "diarize",
                "--embeddings", str(paths["emb"]),
                "--regions", str(paths["reg"]),
                "--algorithm", algorithm,
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert rc == 0
        windows = read_embeddings_csv(paths["emb"].read_text())
        regions = read_regions_csv(paths["reg"].read_text())
        config = DiarizeConfig(algorithm, spectral=SpectralParams(seed=3))
        hypothesis = diarize("conv", segment_embeddings(windows, regions), config)
        assert write_rttm(hypothesis) == out.read_text()

    def test_whitespace_in_recording_id_is_usage_error(self, tmp_path, capsys):
        # refused before the input is read: its content does not parse
        emb = tmp_path / "my rec.csv"
        emb.write_text("not an embeddings CSV\n")
        out, prefix = tmp_path / "hyp.rttm", tmp_path / "stage"
        rc = main(["diarize", "--embeddings", str(emb), "--out", str(out),
                   "--dump-stages", str(prefix)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {out}: RTTM cannot hold the recording id 'my rec': it contains whitespace\n"
        )
        assert list(tmp_path.iterdir()) == [emb]

    def test_unknown_algorithm_is_usage_error(self, tmp_path, capsys):
        emb = tmp_path / "toy.csv"
        emb.write_text(E1_E1_E2_CSV)
        rc = main(
            [
                "diarize",
                "--embeddings", str(emb),
                "--algorithm", "agglomerative",
                "--out", str(tmp_path / "o.rttm"),
            ]
        )
        assert rc == 2
        capsys.readouterr()

    def test_dump_stages_requires_spectral(self, tmp_path):
        emb = tmp_path / "toy.csv"
        emb.write_text(E1_E1_E2_CSV)
        rc = main(
            [
                "diarize",
                "--embeddings", str(emb),
                "--algorithm", "naive",
                "--out", str(tmp_path / "o.rttm"),
                "--dump-stages", str(tmp_path / "s"),
            ]
        )
        assert rc == 2

    def test_degenerate_input_exits_one(self, tmp_path):
        emb = tmp_path / "single.csv"
        emb.write_text("start,end,v0,v1\n0.0,0.24,1.0,0.0\n")
        rc = main(
            [
                "diarize",
                "--embeddings", str(emb),
                "--algorithm", "spectral",
                "--out", str(tmp_path / "o.rttm"),
            ]
        )
        assert rc == 1

    def test_exactly_repeated_embeddings_exit_zero(self, tmp_path, monkeypatch):
        # no within-speaker noise: every window of a speaker is one vector, and
        # the refined affinity repeats an eigenvalue at the edge of the nine
        # pairs solved; the partial solve must equal the dense one there
        paths = run_synth(tmp_path, "still", "--speakers", "3", "--duration", "120",
                          "--noise-deg", "0", "--seed", "5")
        real, solves = diarkit.clustering.eigh, []

        def recorded(m, count=None):
            solves.append((m.copy(), real(m, count)))
            return solves[-1][1]

        monkeypatch.setattr(diarkit.clustering, "eigh", recorded)
        out = tmp_path / "o.rttm"
        rc = main(["diarize", "--embeddings", str(paths["emb"]), "--regions", str(paths["reg"]),
                   "--out", str(out)])
        assert rc == 0
        [(m, partial)] = solves
        dense = np.linalg.eigh(m)[0][::-1][: partial.values.size]
        assert partial.values.size == 9
        assert np.max(np.abs(partial.values - dense)) <= 1e-12 * dense[0]
        params = SpectralParams()
        k = estimate_k_eigengap(dense, params.min_clusters, params.max_clusters)
        assert estimate_k_eigengap(partial.values, params.min_clusters, params.max_clusters) == k
        (hypothesis,) = parse_rttm(out.read_text())
        assert len(hypothesis.labels()) == k

    def test_eigensolver_non_convergence_exits_one(self, tmp_path, lanczos_fails, capsys):
        paths = run_synth(tmp_path, "conv")
        rc = main(
            [
                "diarize",
                "--embeddings", str(paths["emb"]),
                "--regions", str(paths["reg"]),
                "--algorithm", "spectral",
                "--out", str(tmp_path / "o.rttm"),
            ]
        )
        assert rc == 1
        assert "eigen-decomposition failed" in capsys.readouterr().err

    def test_eigensolver_non_convergence_keeps_the_stages_formed(self, tmp_path, lanczos_fails,
                                                                 capsys):
        # every stage is written as it is formed, before the solve that fails;
        # the RTTM is written only once clustering succeeds
        paths = run_synth(tmp_path, "conv")
        out = tmp_path / "o.rttm"
        rc = main(["diarize", "--embeddings", str(paths["emb"]), "--regions", str(paths["reg"]),
                   "--out", str(out), "--dump-stages", str(tmp_path / "run")])
        assert rc == 1
        assert "eigen-decomposition failed" in capsys.readouterr().err
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.glob("run_*.pgm")) == [
            "run_01_blur.pgm", "run_02_symmetrize.pgm", "run_03_diffuse.pgm", "run_04_refined.pgm",
        ]


class TestEvaluate:
    def test_self_evaluation_is_zero(self, tmp_path, capsys):
        ref = tmp_path / "ref.rttm"
        ref.write_text("SPEAKER rec1 1 0.000000 10.000000 <NA> <NA> A <NA> <NA>\n")
        rc = main(["evaluate", "--reference", str(ref), "--hypothesis", str(ref)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recording=rec1" in out
        assert "total=0.0" in out

    def test_ten_vs_nine_second_case(self, tmp_path, capsys):
        ref = tmp_path / "ref.rttm"
        hyp = tmp_path / "hyp.rttm"
        ref.write_text("SPEAKER rec1 1 0.000000 10.000000 <NA> <NA> A <NA> <NA>\n")
        hyp.write_text("SPEAKER rec1 1 0.000000 9.000000 <NA> <NA> X <NA> <NA>\n")
        rc = main(
            ["evaluate", "--reference", str(ref), "--hypothesis", str(hyp), "--collar", "0"]
        )
        assert rc == 0
        assert "total=10.0" in capsys.readouterr().out

        rc = main(
            [
                "evaluate",
                "--reference", str(ref),
                "--hypothesis", str(hyp),
                "--collar", "0.25",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "total=7.894736842105263" in out
        assert "7.89" in out  # human-readable table row

    def test_missing_hypothesis_recording_scored_all_miss(self, tmp_path, capsys):
        ref = tmp_path / "ref.rttm"
        hyp = tmp_path / "hyp.rttm"
        ref.write_text(
            "SPEAKER a 1 0.000000 10.000000 <NA> <NA> A <NA> <NA>\n"
            "SPEAKER b 1 0.000000 10.000000 <NA> <NA> A <NA> <NA>\n"
        )
        hyp.write_text("SPEAKER a 1 0.000000 10.000000 <NA> <NA> X <NA> <NA>\n")
        rc = main(
            ["evaluate", "--reference", str(ref), "--hypothesis", str(hyp), "--collar", "0"]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "missing from the hypothesis" in captured.err
        assert "recording=b fa_seconds=0.0 miss_seconds=10.0" in captured.out
        assert "recording=ALL" in captured.out

    def test_hypothesis_only_recording_warned_and_ignored(self, tmp_path, capsys):
        ref = tmp_path / "ref.rttm"
        hyp = tmp_path / "hyp.rttm"
        ref.write_text("SPEAKER a 1 0.000000 10.000000 <NA> <NA> A <NA> <NA>\n")
        hyp.write_text("SPEAKER a 1 0.000000 9.000000 <NA> <NA> X <NA> <NA>\n")
        argv = ["evaluate", "--reference", str(ref), "--hypothesis", str(hyp)]
        assert main(argv) == 0
        alone = capsys.readouterr()
        assert alone.err == ""
        with hyp.open("a") as f:
            f.write("SPEAKER z 1 0.000000 5.000000 <NA> <NA> X <NA> <NA>\n"
                    "SPEAKER b 1 0.000000 5.000000 <NA> <NA> X <NA> <NA>\n")
        assert main(argv) == 0
        extra = capsys.readouterr()
        assert extra.out == alone.out
        assert extra.err == ("warning: b is not in the reference; ignored\n"
                             "warning: z is not in the reference; ignored\n")

    def test_uem_restriction(self, tmp_path, capsys):
        ref = tmp_path / "ref.rttm"
        hyp = tmp_path / "hyp.rttm"
        uem = tmp_path / "score.uem"
        ref.write_text("SPEAKER rec1 1 0.000000 10.000000 <NA> <NA> A <NA> <NA>\n")
        hyp.write_text("SPEAKER rec1 1 0.000000 5.000000 <NA> <NA> X <NA> <NA>\n")
        uem.write_text("rec1 1 2.0 8.0\n")
        rc = main(
            [
                "evaluate",
                "--reference", str(ref),
                "--hypothesis", str(hyp),
                "--collar", "0",
                "--uem", str(uem),
            ]
        )
        assert rc == 0
        assert "total=50.0" in capsys.readouterr().out

    def test_infinite_collar_is_usage_error(self, tmp_path, capsys):
        ref = tmp_path / "ref.rttm"
        ref.write_text("SPEAKER rec1 1 0.000000 1.000000 <NA> <NA> A <NA> <NA>\n")
        rc = main(["evaluate", "--reference", str(ref), "--hypothesis", str(ref),
                   "--collar", "inf"])
        assert rc == 2
        assert capsys.readouterr().err == "error: collar must be finite and >= 0, got inf\n"

    def test_collar_past_the_int64_tick_range_is_usage_error(self, tmp_path, capsys):
        ref = tmp_path / "ref.rttm"
        ref.write_text("SPEAKER rec1 1 0.000000 1.000000 <NA> <NA> A <NA> <NA>\n")
        rc = main(["evaluate", "--reference", str(ref), "--hypothesis", str(ref),
                   "--collar", "1e12"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: collar 1000000000000.0 s leaves the int64 tick range\n"

    def test_time_past_the_int64_tick_range_is_an_error(self, tmp_path, capsys):
        ref = tmp_path / "ref.rttm"
        ref.write_text("SPEAKER rec1 1 1000000000000 1 <NA> <NA> A <NA> <NA>\n")
        rc = main(["evaluate", "--reference", str(ref), "--hypothesis", str(ref)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot score times past 9.22337e+11 s")

    def test_negative_uem_start_names_file_and_line(self, tmp_path, capsys):
        ref = tmp_path / "ref.rttm"
        ref.write_text("SPEAKER r 1 0.000000 1.000000 <NA> <NA> A <NA> <NA>\n")
        uem = tmp_path / "bad.uem"
        uem.write_text("r 1 -1.0 40.0\n")
        rc = main(["evaluate", "--reference", str(ref), "--hypothesis", str(ref),
                   "--uem", str(uem)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {uem}: line 1: negative interval start -1.0\n"

    def test_negative_collar_is_usage_error(self, tmp_path):
        ref = tmp_path / "ref.rttm"
        ref.write_text("SPEAKER rec1 1 0.000000 1.000000 <NA> <NA> A <NA> <NA>\n")
        rc = main(
            [
                "evaluate",
                "--reference", str(ref),
                "--hypothesis", str(ref),
                "--collar", "-1",
            ]
        )
        assert rc == 2


class TestSynth:
    def test_same_seed_byte_identical(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = run_synth(tmp_path / "a", "conv")
        second = run_synth(tmp_path / "b", "conv")
        for key in first:
            assert first[key].read_bytes() == second[key].read_bytes()

    def test_single_speaker_reference(self, tmp_path, capsys):
        ref = tmp_path / "one.rttm"
        rc = main(
            [
                "synth",
                "--speakers", "1",
                "--duration", "30",
                "--out-embeddings", str(tmp_path / "one.csv"),
                "--out-reference", str(ref),
                "--out-regions", str(tmp_path / "one-regions.csv"),
            ]
        )
        assert rc == 0
        (annotation,) = parse_rttm(ref.read_text())
        assert annotation.labels() == ["S0"]

    def test_hierarchical_four_labels(self, tmp_path):
        ref = tmp_path / "four.rttm"
        rc = main(
            [
                "synth",
                "--speakers", "4",
                "--duration", "120",
                "--scenario", "hierarchical",
                "--out-embeddings", str(tmp_path / "four.csv"),
                "--out-reference", str(ref),
                "--out-regions", str(tmp_path / "four-regions.csv"),
            ]
        )
        assert rc == 0
        (annotation,) = parse_rttm(ref.read_text())
        assert sorted(annotation.labels()) == ["S0", "S1", "S2", "S3"]

    def test_recording_id_follows_embeddings_stem(self, tmp_path):
        paths = run_synth(tmp_path, "meeting42")
        (annotation,) = parse_rttm(paths["ref"].read_text())
        assert annotation.recording_id == "meeting42"

    def test_whitespace_in_recording_id_is_usage_error(self, tmp_path, capsys):
        rc = main(["synth", "--speakers", "2", "--duration", "30",
                   "--out-embeddings", str(tmp_path / "my rec.csv"),
                   "--out-reference", str(tmp_path / "my rec.rttm"),
                   "--out-regions", str(tmp_path / "regions.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {tmp_path / 'my rec.rttm'}: ")
        assert list(tmp_path.iterdir()) == []

    def test_invalid_flags_are_usage_errors(self, tmp_path):
        args = [
            "synth",
            "--speakers", "0",
            "--duration", "30",
            "--out-embeddings", str(tmp_path / "x.csv"),
            "--out-reference", str(tmp_path / "x.rttm"),
            "--out-regions", str(tmp_path / "x-regions.csv"),
        ]
        assert main(args) == 2


class TestSweep:
    def make_corpus(self, tmp_path):
        paths = run_synth(tmp_path, "dev0")
        listing = tmp_path / "dev.list"
        listing.write_text(f"{paths['emb']}\n")
        return listing, paths["ref"]

    def test_single_grid_point(self, tmp_path, capsys):
        listing, ref = self.make_corpus(tmp_path)
        rc = main(
            [
                "sweep",
                "--embeddings-list", str(listing),
                "--reference", str(ref),
                "--param", "p-percentile",
                "--grid", "95:95:1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if line.strip().startswith("95")]
        assert len(rows) == 1
        assert "*" in rows[0]

    def test_multi_point_marks_argmin(self, tmp_path, capsys):
        listing, ref = self.make_corpus(tmp_path)
        rc = main(
            [
                "sweep",
                "--embeddings-list", str(listing),
                "--reference", str(ref),
                "--param", "threshold",
                "--grid", "0.2:0.8:0.3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        flagged = [line for line in out.splitlines() if "*" in line]
        assert len(flagged) == 1

    def test_rerun_identical_output(self, tmp_path, capsys):
        listing, ref = self.make_corpus(tmp_path)
        args = [
            "sweep",
            "--embeddings-list", str(listing),
            "--reference", str(ref),
            "--param", "sigma",
            "--grid", "0.5:1.5:0.5",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def make_two_recordings(self, tmp_path):
        first = run_synth(tmp_path, "dev0")
        second = run_synth(tmp_path, "dev1", "--speakers", "3", "--seed", "5")
        listing = tmp_path / "dev.list"
        listing.write_text(f"{first['emb']}\n{second['emb']}\n")
        ref = tmp_path / "dev.rttm"
        ref.write_text(first["ref"].read_text() + second["ref"].read_text())
        return listing, ref, (first, second)

    @pytest.mark.parametrize("param, grid, values", [
        ("p-percentile", "86:98:4", [86.0, 90.0, 94.0, 98.0]),
        ("sigma", "0:1.5:0.5", [0.0, 0.5, 1.0, 1.5]),
    ])
    def test_rows_match_diarize_per_config(self, tmp_path, capsys, param, grid, values):
        listing, ref, recordings = self.make_two_recordings(tmp_path)
        references = {a.recording_id: a for a in parse_rttm(ref.read_text())}
        corpus = [
            (paths["emb"].stem,
             segment_embeddings(read_embeddings_csv(paths["emb"].read_text()), None))
            for paths in recordings
        ]
        totals = []
        for value in values:
            config = DiarizeConfig(spectral=SpectralParams(**{param.replace("-", "_"): value}))
            reports = [der(references[rec], diarize(rec, segs, config), EvalOptions())
                       for rec, segs in corpus]
            totals.append(combine_reports(reports).total)
        best = totals.index(min(totals))
        expected = [f"{param:>14} {'DER%':>10}"] + [
            f"{value:14.6g} {total:10.4f}" + ("  *" if i == best else "")
            for i, (value, total) in enumerate(zip(values, totals))
        ]
        capsys.readouterr()
        args = ["sweep", "--embeddings-list", str(listing), "--reference", str(ref),
                "--param", param, "--grid", grid]
        assert main(args) == 0
        assert capsys.readouterr().out.splitlines() == expected

    def test_affinity_and_blur_once_per_recording(self, tmp_path, monkeypatch):
        listing, ref, _ = self.make_two_recordings(tmp_path)
        calls = {"blurred_affinity": 0, "results": 0}
        build, grid = diarkit.clustering.blurred_affinity, diarkit.pipeline.spectral_grid

        def counted_build(*args, **kwargs):
            calls["blurred_affinity"] += 1
            return build(*args, **kwargs)

        def counted_grid(*args, **kwargs):
            results = grid(*args, **kwargs)
            calls["results"] += len(results)
            return results

        monkeypatch.setattr(diarkit.clustering, "blurred_affinity", counted_build)
        monkeypatch.setattr(diarkit.pipeline, "spectral_grid", counted_grid)
        args = ["sweep", "--embeddings-list", str(listing), "--reference", str(ref),
                "--param", "p-percentile", "--grid", "90:96:2"]
        assert main(args) == 0
        # 2 recordings x 4 grid values
        assert calls == {"blurred_affinity": 2, "results": 8}

    def test_unknown_recording_is_usage_error(self, tmp_path):
        paths = run_synth(tmp_path, "dev0")
        listing = tmp_path / "dev.list"
        listing.write_text(f"{paths['emb']}\n")
        other = tmp_path / "other.rttm"
        other.write_text("SPEAKER nope 1 0.000000 1.000000 <NA> <NA> A <NA> <NA>\n")
        rc = main(
            [
                "sweep",
                "--embeddings-list", str(listing),
                "--reference", str(other),
                "--param", "sigma",
                "--grid", "1:1:1",
            ]
        )
        assert rc == 2

    def test_empty_grid_is_usage_error(self, tmp_path):
        listing, ref = self.make_corpus(tmp_path)
        rc = main(
            [
                "sweep",
                "--embeddings-list", str(listing),
                "--reference", str(ref),
                "--param", "sigma",
                "--grid", "2:1:1",
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("grid", ["0:1:inf", "0:inf:1", "-inf:0:1",
                                      "nan:1:1", "0:nan:1", "0:1:nan"])
    def test_non_finite_grid_is_usage_error(self, tmp_path, capsys, grid):
        # an infinite end or start made the grid loop until memory ran out
        rc = main(["sweep", "--embeddings-list", str(tmp_path / "dev.list"),
                   "--reference", str(tmp_path / "ref.rttm"), "--param", "sigma",
                   f"--grid={grid}"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --grid values must be finite, got {grid!r}\n"


    @pytest.mark.parametrize("grid", ["0:1:1e-300", "0:1e300:1", "0:1000:1"])
    def test_grid_of_too_many_values_is_usage_error(self, tmp_path, capsys, grid):
        # counted before any value is made: 1e300 of them ended in a MemoryError
        rc = main(["sweep", "--embeddings-list", str(tmp_path / "dev.list"),
                   "--reference", str(tmp_path / "ref.rttm"), "--param", "sigma",
                   f"--grid={grid}"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --grid must give at most {MAX_GRID_VALUES} values, got {grid!r}\n"
        )

    @pytest.mark.parametrize("grid, count, last", [
        ("0:999:1", MAX_GRID_VALUES, 999.0), ("80:98:2", 10, 98.0), ("0.2:0.8:0.3", 3, 0.8),
        ("95:95:1", 1, 95.0),
    ])
    def test_grid_values_up_to_the_cap_parse(self, grid, count, last):
        values = _parse_grid(grid)
        assert len(values) == count
        assert values[-1] == pytest.approx(last)


class TestEntrypointPlumbing:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["diarize", "evaluate", "sweep"])
    def test_non_utf8_input_is_usage_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"start,end,v0\n0.0,0.24,\xff\xfe\n")
        ref = tmp_path / "ref.rttm"
        ref.write_text("SPEAKER bad 1 0.000000 1.000000 <NA> <NA> A <NA> <NA>\n")
        listing = tmp_path / "bad.list"
        listing.write_text(f"{bad}\n")
        argv = {
            "diarize": ["--embeddings", str(bad), "--out", str(tmp_path / "o.rttm")],
            "evaluate": ["--reference", str(bad), "--hypothesis", str(ref)],
            "sweep": ["--embeddings-list", str(listing), "--reference", str(ref),
                      "--param", "sigma", "--grid", "1:1:1"],
        }[command]
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "cell, message",
        [(b"\xff\xfe", "'utf-8' codec can't decode byte 0xff"), (b"x", "line 2: bad ")],
        ids=["non_utf8", "bad_cell"],
    )
    @pytest.mark.parametrize("command", ["diarize", "evaluate", "sweep"])
    def test_input_errors_name_their_file(self, tmp_path, capsys, command, cell, message):
        good = run_synth(tmp_path, "good")
        bad = tmp_path / "bad.csv"
        if command == "evaluate":  # the UEM: its second line is at fault
            bad.write_bytes(b"good 1 0.0 1.0\ngood 1 2.0 " + cell + b"\n")
        else:
            bad.write_bytes(b"start,end,v0\n0.0,0.24," + cell + b"\n")
        ref = tmp_path / "ref.rttm"
        ref.write_text(good["ref"].read_text()
                       + "SPEAKER bad 1 0.000000 1.000000 <NA> <NA> A <NA> <NA>\n")
        listing = tmp_path / "dev.list"
        listing.write_text(f"{good['emb']}\n{bad}\n")  # the second entry is at fault
        argv = {
            "diarize": ["--embeddings", str(bad), "--out", str(tmp_path / "o.rttm")],
            "evaluate": ["--reference", str(ref), "--hypothesis", str(ref), "--uem", str(bad)],
            "sweep": ["--embeddings-list", str(listing), "--reference", str(ref),
                      "--param", "sigma", "--grid", "1:1:1"],
        }[command]
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("parse", [str, parse_rttm, parse_uem, read_embeddings_csv,
                                       read_regions_csv])
    def test_byte_order_mark_is_ignored(self, tmp_path, parse):
        text = {
            str: "a.csv\nb.csv\n",
            parse_rttm: "SPEAKER r 1 0.0 1.0 <NA> <NA> A <NA> <NA>\n",
            parse_uem: "r 1 0.0 1.0\n",
            read_embeddings_csv: E1_E1_E2_CSV,
            read_regions_csv: "start,end\n0.0,1.0\n",
        }[parse]
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        if parse is read_embeddings_csv:  # Windows compares by identity
            assert write_embeddings_csv(_read(marked, parse)) == text
        else:
            assert _read(marked, parse) == _read(plain, parse)

    def test_defaults_are_the_library_defaults(self):
        parser = build_parser()
        d = parser.parse_args(["diarize", "--embeddings", "e.csv", "--out", "o.rttm"])
        config, spectral = DiarizeConfig(), SpectralParams()
        assert (d.algorithm, d.threshold) == (config.algorithm, config.threshold)
        assert d.max_segment_len == DEFAULT_MAX_SEGMENT_LEN
        assert (d.sigma, d.p_percentile, d.soft_multiplier) == (
            spectral.sigma, spectral.p_percentile, spectral.soft_multiplier
        )
        assert (d.min_speakers, d.max_speakers, d.seed) == (
            spectral.min_clusters, spectral.max_clusters, spectral.seed
        )
        e = parser.parse_args(["evaluate", "--reference", "r", "--hypothesis", "h"])
        assert e.collar == EvalOptions().collar

    def test_every_setting_has_a_flag(self, tmp_path, monkeypatch):
        # two runs whose flags all differ must differ in every field of the
        # SpectralParams diarize builds and of the SynthScenario synth builds
        built = []

        def diarize_spy(recording_id, seg_embs, config, observe):
            built.append(config.spectral)
            return diarize(recording_id, seg_embs, config, observe)

        def generate_spy(scenario):
            built.append(scenario)
            return generate(scenario)

        monkeypatch.setattr(diarkit.cli, "diarize", diarize_spy)
        monkeypatch.setattr(diarkit.cli, "generate", generate_spy)
        emb = tmp_path / "toy.csv"
        emb.write_text(E1_E1_E2_CSV)
        outs = [f"--out-{name}={tmp_path / name}" for name in ("embeddings", "reference", "regions")]
        for flags in (["--sigma", "0.5", "--p-percentile", "90", "--soft-multiplier", "0.02",
                       "--min-speakers", "1", "--max-speakers", "3", "--seed", "1"],
                      ["--sigma", "1.5", "--p-percentile", "80", "--soft-multiplier", "0.05",
                       "--min-speakers", "2", "--max-speakers", "4", "--seed", "2"]):
            assert main(["diarize", "--embeddings", str(emb), "--algorithm", "naive",
                         "--out", str(tmp_path / "hyp.rttm"), *flags]) == 0
        for flags in (["--speakers", "2", "--duration", "5", "--dim", "4",
                       "--scenario", "separated", "--noise-deg", "5", "--seed", "0"],
                      ["--speakers", "3", "--duration", "6", "--dim", "8",
                       "--scenario", "imbalanced", "--noise-deg", "10", "--seed", "1"]):
            assert main(["synth", *flags, *outs]) == 0
        spectral_a, spectral_b, scenario_a, scenario_b = built
        for a, b in ((spectral_a, spectral_b), (scenario_a, scenario_b)):
            assert [f.name for f in fields(a) if getattr(a, f.name) == getattr(b, f.name)] == []


def test_cli_import_loads_no_scipy():
    # scipy's import costs a fresh process several times numpy's; only the
    # spectral kernels need it, and they import it when they first run
    loaded = run_python(
        "import sys, diarkit, diarkit.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    assert loaded.strip() == "[]"


def test_every_subcommand_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with scipy unimportable, every
    # subcommand and clustering algorithm exits 0
    emb, ref, reg = (str(tmp_path / name) for name in ("s.csv", "s.rttm", "s-regions.csv"))
    (tmp_path / "s.uem").write_text("s 1 5.0 20.0\ns 1 15.0 40.0\n")
    (tmp_path / "s.list").write_text(emb + "\n")
    commands = [
        ["synth", "--speakers", "3", "--duration", "60", "--seed", "0", "--out-embeddings", emb,
         "--out-reference", ref, "--out-regions", reg],
        *(["diarize", "--embeddings", emb, "--regions", reg, "--algorithm", algorithm,
           "--out", str(tmp_path / f"{algorithm}.rttm")] for algorithm in ALGORITHMS),
        ["diarize", "--embeddings", emb, "--out", str(tmp_path / "dumped.rttm"),
         "--dump-stages", str(tmp_path / "run")],
        ["evaluate", "--reference", ref, "--hypothesis", str(tmp_path / "spectral.rttm")],
        ["evaluate", "--reference", ref, "--hypothesis", str(tmp_path / "naive.rttm"),
         "--uem", str(tmp_path / "s.uem")],
        ["sweep", "--embeddings-list", str(tmp_path / "s.list"), "--reference", ref,
         "--param", "p-percentile", "--grid", "90:96:2"],
    ]
    out = run_python(
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "from diarkit.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(argv[0], code)\n"
    )
    assert out.splitlines() == [
        "synth 0", *["diarize 0"] * (len(ALGORITHMS) + 1), "evaluate 0", "evaluate 0", "sweep 0",
    ]
    assert len(list(tmp_path.glob("run_*.pgm"))) == 4
