import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import diarkit.clustering
import diarkit.numerics
from diarkit import (
    EvalOptions,
    SpectralParams,
    combine_reports,
    der,
    parse_rttm,
    read_embeddings_csv,
    read_regions_csv,
    write_rttm,
)
from diarkit.aggregation import DEFAULT_MAX_SEGMENT_LEN
from diarkit.cli import build_parser, main
from diarkit.pipeline import ALGORITHMS, DiarizeConfig, diarize, segment_embeddings

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

    def test_dump_stages_writes_six_files(self, tmp_path):
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
            "run_00_affinity.pgm",
            "run_01_blur.pgm",
            "run_02_threshold.pgm",
            "run_03_symmetrize.pgm",
            "run_04_diffuse.pgm",
            "run_05_rownorm.pgm",
        ]
        for name in dumped:
            assert (tmp_path / "stages" / name).read_bytes().startswith(b"P5\n")

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

    def test_eigensolver_non_convergence_exits_one(self, tmp_path, monkeypatch, capsys):
        paths = run_synth(tmp_path, "conv")

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(diarkit.numerics, "eigsh", no_convergence)
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
        calls = {"build_affinity": 0, "gaussian_blur": 0, "refine_threshold": 0}
        for name in calls:
            original = getattr(diarkit.clustering, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(diarkit.clustering, name, counted)
        args = ["sweep", "--embeddings-list", str(listing), "--reference", str(ref),
                "--param", "p-percentile", "--grid", "90:96:2"]
        assert main(args) == 0
        # 2 recordings x 4 grid values
        assert calls == {"build_affinity": 2, "gaussian_blur": 2, "refine_threshold": 8}

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
