"""CLI surface: each subcommand end to end, exit codes, determinism."""

import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from apranking.tensorio import write_tensors

CLI = [sys.executable, "-m", "apranking.cli"]


def run_cli(args, cwd, **env):
    """The CLI in a fresh interpreter, with ``env`` added to the environment."""
    return run_python(CLI[1:] + args, cwd, **env)


def run_python(args, cwd, **env):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **env)
    return subprocess.run([sys.executable] + args, capture_output=True, text=True, cwd=cwd, env=env)


@pytest.fixture
def out_dir(tmp_path):
    return str(tmp_path / "out")


class TestBenchLoss:
    def test_quadlinear_curve_contains_anchor_row(self, tmp_path, out_dir):
        res = run_cli(["bench-loss", "--losses", "quadlinear", "--delta", "0.05", "--out", out_dir], tmp_path)
        assert res.returncode == 0, res.stderr
        rows = open(os.path.join(out_dir, "loss_curve_quadlinear.csv")).read().splitlines()
        header, data = rows[0], rows[1:]
        assert header == "x,value,grad"
        anchor = [r for r in data if abs(float(r.split(",")[0]) - 0.1) < 1e-9]
        assert anchor, "gap sweep must include x = 0.1"
        _, value, grad = anchor[0].split(",")
        assert float(value) == pytest.approx(5.0, abs=1e-9)
        assert float(grad) == pytest.approx(40.0, abs=1e-9)

    def test_smooth_tail_gradient(self, tmp_path, out_dir):
        res = run_cli(["bench-loss", "--losses", "smooth", "--tau", "0.01", "--out", out_dir], tmp_path)
        assert res.returncode == 0, res.stderr
        rows = open(os.path.join(out_dir, "loss_curve_smooth.csv")).read().splitlines()[1:]
        tail = [r for r in rows if abs(float(r.split(",")[0]) - 0.5) < 1e-9]
        assert float(tail[0].split(",")[2]) < 1e-18

    def test_contrast_check_in_report(self, tmp_path, out_dir):
        res = run_cli(["bench-loss", "--out", out_dir], tmp_path)
        assert res.returncode == 0
        report = json.load(open(os.path.join(out_dir, "bench_loss_report.json")))
        assert report["gradient_contrast"]["pass"] is True
        assert report["gradient_contrast"]["ratio"] > 1e15
        for name, err in report["fd_max_rel_err"].items():
            assert err < 1e-6

    def test_deterministic_report_pinned(self, tmp_path, out_dir):
        # the finite-difference check and the contrast make no BLAS call, so
        # BLAS threading cannot move these bits
        res = run_cli(["bench-loss", "--losses", "quadlinear,smooth,heaviside,triplet,contrastive",
                       "--deterministic", "--out", out_dir], tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.load(open(os.path.join(out_dir, "bench_loss_report.json")))
        assert report["fd_max_rel_err"] == {
            "contrastive": 7.484004527213983e-10,
            "quadlinear": 8.083776330936108e-09,
            "smooth": 1.6889743591338643e-08,
            "triplet": 5.838671209767374e-10,
        }
        assert report["gradient_contrast"]["ratio"] == 2.073882211434829e+21
        assert report["gradient_contrast"]["sigmoid_grad"] == 1.9287498479639178e-20

    def test_unknown_loss_usage_error(self, tmp_path, out_dir):
        res = run_cli(["bench-loss", "--losses", "nonsense", "--out", out_dir], tmp_path)
        assert res.returncode == 2

    # a sweep of no step or of no points, a non-finite bound or step, a
    # gradient check over no seeds (which would report an error of 0.0), a
    # loss parameter or seed out of its range, and a --losses list naming no
    # loss or a loss twice, checked before anything is made: a NaN margin
    # failed mid-run, an infinite one reported an error of 0.0
    @pytest.mark.parametrize("extra, message", [
        (["--gap-step", "0"], "bench-loss needs"), (["--gap-step", "-0.05"], "bench-loss needs"),
        (["--gap-min", "0.5", "--gap-max", "0.4"], "bench-loss needs"), (["--gap-step", "nan"], "bench-loss needs"),
        (["--gap-max", "inf"], "bench-loss needs"), (["--seeds", "0"], "bench-loss needs"),
        (["--seeds", "-3"], "bench-loss needs"), (["--delta", "nan"], "delta must be positive, got nan"),
        (["--margin", "nan"], "margin must be nonnegative, got nan"),
        (["--margin", "inf", "--losses", "triplet"], "margin must be nonnegative, got inf"),
        (["--seed", "-1"], "seed must be nonnegative, got -1"),
        (["--losses", ","], "unknown loss name(s) []"),
        (["--losses", "smooth,smooth"], "loss name(s) ['smooth'] given more than once in --losses"),
        (["--losses", "heaviside,smooth,heaviside"], "loss name(s) ['heaviside'] given more than once in --losses"),
        (["--gap-min=-1e308", "--gap-max=1e308", "--gap-step=1e-300"],
         "bench-loss sweeps at most 1000000 gap points; --gap-min, --gap-max and --gap-step give inf"),
        (["--gap-step", "1e-7"],
         "bench-loss sweeps at most 1000000 gap points; --gap-min, --gap-max and --gap-step give 1.2e+07"),
    ], ids=["zero-step", "negative-step", "max-below-min", "nan-step", "inf-max", "no-seeds", "negative-seeds",
            "nan-delta", "nan-margin", "inf-margin", "negative-seed", "no-loss", "repeated-loss",
            "repeated-heaviside", "overflowing-sweep", "too-many-points"])
    def test_sweep_that_runs_nothing_exits_2(self, out_dir, capsys, extra, message):
        from apranking import cli

        assert cli.main(["bench-loss", "--out", out_dir] + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not os.path.exists(out_dir)


def tiny_config(tmp_path, **overrides):
    from apranking.trainer import TrainConfig, config_to_dict
    from apranking.synthetic import SyntheticConfig
    from apranking.trainer import HeldoutConfig

    from dataclasses import replace

    cfg = TrainConfig(
        synthetic=SyntheticConfig(
            num_clips=12, num_groups=4, frames=5, patches=2, dim=8, teacher_dim=4,
            signal_dim=6, noise=0.1, nuisance_scale=3.0, seed=0,
        ),
        heldout=HeldoutConfig(num_clips=12, num_groups=4),
        groups_per_batch=2,
        clips_per_group=3,
        iterations=8,
        eval_every=0,
        seed=0,
    )
    cfg = replace(cfg, **overrides) if overrides else cfg
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return str(path)


class TestTrain:
    def test_zero_iterations_checkpoint_is_initialization(self, tmp_path, out_dir):
        # every parameter keeps its shape, the conv refiner's 0-d bias included
        config = tiny_config(tmp_path, refiner_kind="conv")
        res = run_cli(["train", "--config", config, "--iterations", "0", "--out", out_dir], tmp_path)
        assert res.returncode == 0, res.stderr
        from apranking.model import init_model
        from apranking.tensorio import read_tensors

        tensors = read_tensors(os.path.join(out_dir, "checkpoint.bin"))
        fresh = dict(init_model(8, refiner_kind="conv", seed=0, init_noise=0.02).parameters())
        assert list(tensors) == list(fresh) and tensors["conv_bias"].shape == ()
        for name, p in fresh.items():
            assert tensors[name].dtype == np.float64 and tensors[name].shape == p.shape
            np.testing.assert_array_equal(tensors[name], p.value)

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        config = tiny_config(tmp_path)
        outs = []
        for name in ("run1", "run2"):
            out = str(tmp_path / name)
            res = run_cli(
                ["train", "--config", config, "--seed", "7", "--deterministic", "--out", out],
                tmp_path,
            )
            assert res.returncode == 0, res.stderr
            outs.append(out)
        for fname in ("train_report.json", "history.csv", "checkpoint.bin"):
            a = open(os.path.join(outs[0], fname), "rb").read()
            b = open(os.path.join(outs[1], fname), "rb").read()
            assert a == b, f"{fname} differs between identical runs"

    def test_comparative_mode(self, tmp_path, out_dir):
        config = tiny_config(tmp_path)
        res = run_cli(
            ["train", "--config", config, "--losses", "quadlinear,triplet", "--out", out_dir],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        report = json.load(open(os.path.join(out_dir, "train_report.json")))
        assert report["comparative"] is True
        assert set(report["results"]) == {"quadlinear", "triplet"}
        # every run trains without the frame-level loss, and the top-level
        # config says so
        assert report["config"]["weights"]["lambda_f"] == 0.0
        for res_block in report["results"].values():
            assert "micro_ap" in res_block["metrics"]
            assert res_block["config"]["weights"]["lambda_f"] == 0.0

    def test_comparative_runs_are_trainer_variants(self, tmp_path, out_dir):
        # each comparative run trains trainer.variant of the config under its
        # loss, bit for bit; the tiny shapes give the same bits at 1, 2 and 8
        # BLAS threads, so this process's thread count does not matter
        from apranking.tensorio import read_tensors
        from apranking.trainer import config_from_dict, train, variant

        config = tiny_config(tmp_path)
        res = run_cli(
            ["train", "--config", config, "--losses", "quadlinear,triplet", "--deterministic", "--out", out_dir],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        tensors = read_tensors(os.path.join(out_dir, "checkpoint_triplet.bin"))
        params = train(variant(config_from_dict(json.load(open(config))), "triplet")).model.parameters()
        assert list(tensors) == [name for name, _ in params]
        for name, p in params:
            assert tensors[name].shape == p.shape and tensors[name].tobytes() == p.value.tobytes(), name

    def test_comparative_mode_rejects_lambda_f(self, tmp_path, out_dir):
        # comparative runs disable the frame-level loss, so a --lambda-f
        # would be dropped without a word: a usage error before the output
        # directory is made
        config = tiny_config(tmp_path)
        res = run_cli(
            ["train", "--config", config, "--losses", "quadlinear,triplet", "--lambda-f", "3", "--out", out_dir],
            tmp_path,
        )
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: --lambda-f does not apply to a comparative run")
        assert not os.path.exists(out_dir)

    def test_config_seed_kept_without_seed_flag(self, tmp_path, out_dir):
        config = tiny_config(tmp_path, seed=7)
        payload = json.load(open(config))
        payload["synthetic"]["seed"] = 5
        with open(config, "w") as fh:
            json.dump(payload, fh)
        res = run_cli(["train", "--config", config, "--iterations", "0", "--out", out_dir], tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.load(open(os.path.join(out_dir, "train_report.json")))
        assert report["seed"] == 7
        assert report["config"]["seed"] == 7
        assert report["config"]["synthetic"]["seed"] == 5

    def test_seed_flag_overrides_config_seed(self, tmp_path, out_dir):
        config = tiny_config(tmp_path, seed=7)
        res = run_cli(
            ["train", "--config", config, "--seed", "3", "--iterations", "0", "--out", out_dir], tmp_path
        )
        assert res.returncode == 0, res.stderr
        report = json.load(open(os.path.join(out_dir, "train_report.json")))
        assert report["seed"] == 3
        assert report["config"]["seed"] == 3
        assert report["config"]["synthetic"]["seed"] == 3

    # a weight, optimizer setting, margin, held-out size, seed or refiner
    # setting that is not finite or not in range is a config error, not a
    # run without that term or a failure after the output directory is made;
    # so is a --losses list naming no loss, another loss, or a loss twice (which
    # trained twice in comparative mode, frame loss off, and reported one run).
    # A nested config's value is named by its path. Fields legal alone can be
    # illegal together: label rates that overlap on the frames the config's own
    # frame loss labels, after crop and dropout (also when the comparative runs
    # turn that loss off), and a crop and dropout that leave no frame
    @pytest.mark.parametrize("extra, config, message", [
        (["--lambda-f", "nan"], {}, "lambda_f must be"),
        (["--lambda-v", "nan"], {}, "lambda_v must be"),
        (["--lambda-v", "inf"], {}, "lambda_v must be"),
        ([], {"optimizer.beta1": 1.0}, "optimizer.beta1 must be"),
        ([], {"video_loss": "triplet", "margin": float("nan")}, "margin must be nonnegative, got nan"),
        ([], {"heldout.num_clips": 0}, "heldout.num_clips must be an integer >= 1, got 0"),
        ([], {"synthetic.num_clips": 0}, "synthetic.num_clips must be an integer >= 1, got 0"),
        ([], {"qlap_frame.delta": 0.0}, "qlap_frame.delta must be positive, got 0.0"),
        ([], {"synthetic.augment.crop_rate": 1.0}, "synthetic.augment.crop_rate must be in [0, 1), got 1.0"),
        (["--seed", "-1"], {}, "seed must be nonnegative, got -1"),
        ([], {"refiner_kind": "bogus"}, "unknown refiner kind 'bogus'"),
        ([], {"downsample": 0, "weights.lambda_f": 0.0}, "downsample must be an integer >= 1, got 0"),
        (["--losses", "quadlinear,quadlinear"], {}, "loss name(s) ['quadlinear'] given more than once in --losses"),
        (["--losses", "triplet,smooth,triplet,smooth"], {},
         "loss name(s) ['smooth', 'triplet'] given more than once in --losses"),
        (["--losses", "quadlinear,heaviside"], {}, "unknown loss name(s) ['heaviside']"),
        (["--losses", ""], {}, "unknown loss name(s) []"),
        ([], {"rates.r_t": 0.6, "rates.r_b": 0.6}, "rates (0.6, 0.6) overlap on 5 candidates"),
        ([], {"synthetic.augment.crop_rate": 0.2, "rates.r_t": 0.55, "rates.r_b": 0.5},
         "rates (0.55, 0.5) overlap on 4 candidates"),
        (["--losses", "quadlinear,triplet"], {"rates.r_t": 0.6, "rates.r_b": 0.6},
         "rates (0.6, 0.6) overlap on 5 candidates"),
        ([], {"synthetic.frames": 2, "synthetic.augment.crop_rate": 0.5, "synthetic.augment.dropout_rate": 0.5},
         "synthetic.augment.dropout_rate 0.5 would remove every frame (1 of 1)"),
    ], ids=["lambda_f-nan", "lambda_v-nan", "lambda_v-inf", "beta1-one", "triplet-margin-nan", "heldout-no-clips",
            "synthetic-no-clips", "frame-delta-zero", "crop-rate-one", "negative-seed", "refiner-kind",
            "refiner-stride", "repeated-loss", "repeated-losses", "unknown-loss", "no-loss", "rates-overlap",
            "rates-overlap-after-crop", "rates-overlap-comparative", "augment-keeps-no-frame"])
    def test_config_value_out_of_range_exits_2(self, tmp_path, out_dir, extra, config, message):
        path = tiny_config(tmp_path)
        payload = json.load(open(path))
        for field, value in config.items():
            *groups, name = field.split(".")
            target = payload
            for group in groups:
                target = target[group]
            target[name] = value
        with open(path, "w") as fh:
            json.dump(payload, fh)
        res = run_cli(["train", "--config", path, "--iterations", "1", "--out", out_dir] + extra, tmp_path)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith(f"error: {message}") and res.stderr.count("\n") == 1
        assert not os.path.exists(out_dir)

    # a legal-looking value of the wrong JSON type, or a negative eval_every,
    # is a config error naming its field: not a traceback, not a different run
    @pytest.mark.parametrize("field, value, message", [
        ("optimizer.beta1", "0.9", 'optimizer.beta1 must be a number, got "0.9"'),
        ("synthetic.frames", "8", 'synthetic.frames must be an integer, got "8"'),
        ("iterations", 2.5, "iterations must be an integer, got 2.5"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("weights", None, "weights must be an object, got null"),
        ("eval_every", -1, "eval_every must be nonnegative, got -1"),
    ])
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, out_dir, capsys, field, value, message):
        from apranking import cli

        path = tiny_config(tmp_path)
        payload = json.load(open(path))
        *groups, name = field.split(".")
        target = payload
        for group in groups:
            target = target[group]
        target[name] = value
        with open(path, "w") as fh:
            json.dump(payload, fh)
        assert cli.main(["train", "--config", path, "--out", out_dir]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"
        assert not os.path.exists(out_dir)

    def test_bad_config_exits_2(self, tmp_path, out_dir):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"synthetic": {"bogus_key": 3}}))
        res = run_cli(["train", "--config", str(bad), "--out", out_dir], tmp_path)
        assert res.returncode == 2
        assert "bogus_key" in res.stderr


class TestEval:
    def test_tensor_file_micro_ap_anchor(self, tmp_path, out_dir):
        scores = np.array([[0.9, 0.1], [0.8, 0.7]])
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        path = tmp_path / "scores.tensors"
        write_tensors(path, {"scores": scores, "labels": labels})
        res = run_cli(["eval", "--scores", str(path), "--verify", "--out", out_dir], tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.load(open(os.path.join(out_dir, "eval_report.json")))
        assert report["micro_ap"] == pytest.approx(5 / 6, abs=1e-9)
        assert report["verify"]["oracle_mismatches"] == 0

    # a file cut short in its manifest, and one whose labels are not binary
    @pytest.mark.parametrize("content, named", [
        (b"apranking-tensors 1\nscores f64 1,1\n", "missing manifest terminator"),
        (b"apranking-tensors 1\nscores f64 1,1\nlabels f64 1,1\nend\n" + np.float64(0.5).tobytes() * 2, "binary"),
    ], ids=["truncated", "labels"])
    def test_bad_score_file_exits_2_and_writes_nothing(self, tmp_path, out_dir, content, named):
        path = tmp_path / "bad.tensors"
        path.write_bytes(content)
        res = run_cli(["eval", "--scores", str(path), "--out", out_dir], tmp_path)
        assert res.returncode == 2, res.stderr
        assert str(path) in res.stderr and named in res.stderr and "Traceback" not in res.stderr
        assert not os.path.exists(out_dir)

    def test_csv_header_must_be_exact(self, tmp_path, out_dir, capsys):
        from apranking import cli

        csv = tmp_path / "extra.csv"
        csv.write_text("query,score,label,note\nq,0.9,1,a\nq,0.1,0,b\n")
        assert cli.main(["eval", "--csv", str(csv), "--out", out_dir]) == 2
        assert capsys.readouterr().err == "error: CSV header must be query,score,label\n"
        assert not os.path.exists(out_dir)

    def test_csv_perfect_ranking(self, tmp_path, out_dir):
        csv = tmp_path / "scores.csv"
        csv.write_text("query,score,label\nq1,0.9,1\nq1,0.1,0\nq2,0.8,1\nq2,0.2,0\n")
        res = run_cli(["eval", "--csv", str(csv), "--out", out_dir], tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.load(open(os.path.join(out_dir, "eval_report.json")))
        assert report["map"] == 1.0 and report["micro_ap"] == 1.0

    def test_verify_over_random_files(self, tmp_path, out_dir):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal((100, 16))
        labels = (rng.uniform(size=(100, 16)) < 0.3).astype(np.float64)
        labels[:, 0] = 1.0  # every query needs a positive
        path = tmp_path / "r.tensors"
        write_tensors(path, {"scores": scores, "labels": labels})
        res = run_cli(["eval", "--scores", str(path), "--verify", "--out", out_dir], tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.load(open(os.path.join(out_dir, "eval_report.json")))
        assert report["verify"]["pass"] is True

    def test_verify_passes_on_tied_scores(self, tmp_path, out_dir):
        csv = tmp_path / "tied.csv"
        csv.write_text("query,score,label\nq,0.5,0\nq,0.5,1\nq,0.1,1\n")
        res = run_cli(["eval", "--csv", str(csv), "--verify", "--out", out_dir], tmp_path)
        assert res.returncode == 0, res.stderr
        report = json.load(open(os.path.join(out_dir, "eval_report.json")))
        assert report["ap_per_query"] == [5 / 6]  # the tied positive ranks first
        assert report["verify"] == {"oracle_mismatches": 0, "pass": True}

    def test_each_ap_computed_once(self, tmp_path, out_dir, monkeypatch):
        from math import fsum

        from apranking import cli, metrics

        # every AP comes from one rows call over the 15 scored queries
        rows_calls, single_calls = [], []
        rows, single = metrics._ap_rows, metrics.average_precision
        monkeypatch.setattr(metrics, "_ap_rows", lambda s, p: rows_calls.append(s.shape[0]) or rows(s, p))
        monkeypatch.setattr(metrics, "average_precision", lambda q: single_calls.append(1) or single(q))
        rng = np.random.default_rng(2)
        scores = rng.standard_normal((20, 9))
        labels = np.zeros((20, 9))
        labels[:, 3] = 1.0
        labels[:5] = 0.0  # five queries without a positive are skipped
        path = tmp_path / "s.tensors"
        write_tensors(path, {"scores": scores, "labels": labels})
        assert cli.main(["eval", "--scores", str(path), "--out", out_dir]) == 0
        assert rows_calls == [15] and single_calls == []
        report = json.load(open(os.path.join(out_dir, "eval_report.json")))
        assert report["map"] == fsum(report["ap_per_query"]) / 15

    def test_git_revision_looked_up_once_per_process(self, tmp_path, out_dir, monkeypatch):
        from apranking import cli

        runs = []
        real_run = subprocess.run

        def counting_run(argv, *args, **kwargs):
            runs.append(argv[0])
            return real_run(argv, *args, **kwargs)

        cli._git_rev.cache_clear()
        monkeypatch.setattr(subprocess, "run", counting_run)
        path = tmp_path / "s.tensors"
        write_tensors(path, {"scores": np.array([[0.9, 0.1]]), "labels": np.array([[1.0, 0.0]])})
        stamps = []
        for _ in range(2):
            assert cli.main(["eval", "--scores", str(path), "--deterministic", "--out", out_dir]) == 0
            stamps.append(json.load(open(os.path.join(out_dir, "eval_report.json")))["git"])
        assert runs == ["git"] and stamps[0] == stamps[1]

    # (SHA-256 of eval_per_query.csv, map, micro_ap, num_queries, num_skipped),
    # recorded with the per-query ScoredList path and the argsort micro-AP
    PINNED = {
        "scores": ("92a3308891a8b6a2463a7a3bfee0d1ee2e83487c2bf084d5e87463eb58b51256",
                   0.21590708151014773, 0.14260309880613323, 56, 4),
        "csv": ("2ae793e70bdbf9d8cc0777843849cfebf945067f8069ead3b6743a06cd811fd6",
                0.47263438015373, 0.3679012985387042, 24, 1),
    }

    @staticmethod
    def _tied_score_file(path):
        """60 x 40 scores at one decimal with signed zeros; four queries without a positive."""
        rng = np.random.default_rng(31)
        scores = np.round(rng.standard_normal((60, 40)), 1)
        scores[rng.uniform(size=scores.shape) < 0.05] = -0.0
        labels = (rng.uniform(size=scores.shape) < 0.15).astype(np.float64)
        labels[:4] = 0.0
        write_tensors(path, {"scores": scores, "labels": labels})

    @staticmethod
    def _ragged_csv(path):
        """25 queries of 1-29 tied scores, lines shuffled across queries; query
        q20 has a positive at the lowest finite score, below any finite pad."""
        rng = np.random.default_rng(32)
        lines = []
        for q in range(25):
            n = int(rng.integers(1, 30))
            scores = np.round(rng.standard_normal(n), 1)
            labels = (rng.uniform(size=n) < 0.3).astype(int)
            if q == 20:
                scores[0], labels[0] = -np.finfo(np.float64).max, 1
            lines += [f"q{q},{s!r},{l}" for s, l in zip(scores.tolist(), labels.tolist())]
        lines = [lines[i] for i in rng.permutation(len(lines))]
        path.write_text("\n".join(["query,score,label"] + lines) + "\n")

    @pytest.mark.parametrize("kind", ["scores", "csv"])
    def test_pinned_tied_and_ragged_inputs(self, tmp_path, out_dir, kind):
        import hashlib

        from apranking import cli

        path = tmp_path / f"input.{kind}"
        (self._tied_score_file if kind == "scores" else self._ragged_csv)(path)
        assert cli.main(["eval", f"--{kind}", str(path), "--verify", "--deterministic", "--out", out_dir]) == 0
        report = json.load(open(os.path.join(out_dir, "eval_report.json")))
        digest = hashlib.sha256(open(os.path.join(out_dir, "eval_per_query.csv"), "rb").read()).hexdigest()
        got = (digest, report["map"], report["micro_ap"], report["num_queries"], report["num_skipped"])
        assert got == self.PINNED[kind]
        assert report["verify"]["pass"] is True

    def test_minus_inf_with_label_0_is_padding(self, tmp_path, out_dir):
        # a tensor file padded with (-inf, 0) reports what the ragged CSV does
        from apranking import cli

        csv = tmp_path / "ragged.csv"
        csv.write_text("query,score,label\nq1,0.5,0\nq2,0.5,1\nq2,0.2,0\nq1,0.5,1\nq1,0.1,1\n")
        path = tmp_path / "padded.tensors"
        write_tensors(path, {"scores": np.array([[0.5, 0.5, 0.1], [0.5, 0.2, -np.inf]]),
                             "labels": np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])})
        reports = []
        for flag, f in (("--csv", csv), ("--scores", path)):
            assert cli.main(["eval", flag, str(f), "--verify", "--deterministic", "--out", out_dir]) == 0
            report = json.load(open(os.path.join(out_dir, "eval_report.json")))
            reports.append({k: report[k] for k in ("ap_per_query", "map", "micro_ap", "num_queries", "verify")})
        assert reports[0] == reports[1]
        assert reports[0]["ap_per_query"] == [5 / 6, 1.0]

    def test_no_positives_exits_2(self, tmp_path, out_dir):
        csv = tmp_path / "scores.csv"
        csv.write_text("query,score,label\nq1,0.9,0\n")
        res = run_cli(["eval", "--csv", str(csv), "--out", out_dir], tmp_path)
        assert res.returncode == 2

    def test_shape_mismatch_exits_2(self, tmp_path, out_dir):
        path = tmp_path / "bad.tensors"
        write_tensors(path, {"scores": np.zeros((2, 3)), "labels": np.zeros((2, 2))})
        res = run_cli(["eval", "--scores", str(path), "--out", out_dir], tmp_path)
        assert res.returncode == 2

    def test_non_binary_tensor_labels_exit_2(self, tmp_path, out_dir):
        # labels are floats in a tensor file; 0.5 and 1.7 must not truncate to 0 and 1
        path = tmp_path / "soft.tensors"
        labels = np.array([[1.0, 0.5, 0.0], [0.0, 1.7, 0.0]])
        write_tensors(path, {"scores": np.array([[0.9, 0.5, 0.1], [0.8, 0.7, 0.2]]), "labels": labels})
        res = run_cli(["eval", "--scores", str(path), "--out", out_dir], tmp_path)
        assert res.returncode == 2
        assert "labels must be binary" in res.stderr
        assert not os.path.exists(os.path.join(out_dir, "eval_report.json"))

    @pytest.mark.parametrize("row", ["q,0.5,0.5", "q,high,1"], ids=["label", "score"])
    def test_malformed_csv_field_exits_2(self, tmp_path, out_dir, row):
        csv = tmp_path / "bad.csv"
        csv.write_text(f"query,score,label\nq,0.9,1\n{row}\n")
        res = run_cli(["eval", "--csv", str(csv), "--out", out_dir], tmp_path)
        assert res.returncode == 2
        assert "line 3" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "row, reason", [("q,0.5,2", "labels must be binary"), ("q,inf,0", "scores must be finite")],
        ids=["label", "score"],
    )
    def test_rejected_csv_value_names_query_and_line(self, tmp_path, out_dir, row, reason):
        csv = tmp_path / "bad.csv"
        csv.write_text(f"query,score,label\np,0.3,1\nq,0.9,1\n{row}\n")
        res = run_cli(["eval", "--csv", str(csv), "--out", out_dir], tmp_path)
        assert res.returncode == 2
        assert reason in res.stderr and "query 'q' (first on line 3)" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "cell, reason", [(("labels", 2.0), "labels must be binary"), (("scores", np.inf), "scores must be finite")],
        ids=["label", "score"],
    )
    def test_rejected_tensor_value_names_row(self, tmp_path, out_dir, cell, reason):
        tensors = {"scores": np.array([[0.9, 0.1], [0.8, 0.7]]), "labels": np.array([[1.0, 0.0], [0.0, 1.0]])}
        tensors[cell[0]][1, 0] = cell[1]
        path = tmp_path / "bad.tensors"
        write_tensors(path, tensors)
        res = run_cli(["eval", "--scores", str(path), "--out", out_dir], tmp_path)
        assert res.returncode == 2
        assert reason in res.stderr and "row 1" in res.stderr
        assert "Traceback" not in res.stderr

    def test_tensor_named_twice_exits_2(self, tmp_path, out_dir):
        # blocks scores, labels, scores: the first scores give AP 1.0 and
        # the second 0.5, so keeping either one would be a silent choice
        path = tmp_path / "twice.tensors"
        write_tensors(
            path,
            {"scores": np.array([[0.9, 0.1]]), "labels": np.array([[1.0, 0.0]]), "scorez": np.array([[0.1, 0.9]])},
        )
        path.write_bytes(path.read_bytes().replace(b"scorez f64", b"scores f64"))
        res = run_cli(["eval", "--scores", str(path), "--out", out_dir], tmp_path)
        assert res.returncode == 2
        assert "tensor 'scores' named twice" in res.stderr and "Traceback" not in res.stderr
        assert not os.path.exists(os.path.join(out_dir, "eval_report.json"))

    def test_non_ascii_manifest_exits_2(self, tmp_path, out_dir):
        path = tmp_path / "bad.tensors"
        write_tensors(path, {"scores": np.zeros((1, 2)), "labels": np.ones((1, 2))})
        path.write_bytes(path.read_bytes().replace(b"scores f64", b"sc\xffres f64"))
        res = run_cli(["eval", "--scores", str(path), "--out", out_dir], tmp_path)
        assert res.returncode == 2
        assert "manifest is not ASCII" in res.stderr and "Traceback" not in res.stderr


class TestAblate:
    def test_k_t_sweep_with_avgpool_cross_check(self, tmp_path, out_dir):
        config = tiny_config(tmp_path)
        res = run_cli(
            ["ablate", "--axis", "k_t", "--grid", "0.0,0.03,0.1,1.0", "--config", config, "--out", out_dir],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        report = json.load(open(os.path.join(out_dir, "ablate_k_t.json")))
        assert len(report["rows"]) == 4
        full = next(r for r in report["rows"] if r["value"] == 1.0)
        assert full["map"] == report["avgpool"]["map"]
        assert full["micro_ap"] == report["avgpool"]["micro_ap"]

    # map and micro-AP of the k_t sweep and of its average-pooling row,
    # recorded from the per-pair pipeline, whose average-pooling row took the
    # temporal mean; the engine must reproduce them to the bit
    PINNED = {
        "identity": (
            {"map": 0.7292658730158731, "micro_ap": 0.5418123648288493},
            [(0.0, 1.0, 0.9967948717948718), (0.3, 0.9375, 0.9289410635453258),
             (1.0, 0.7292658730158731, 0.5418123648288493)],
        ),
        "conv": (
            {"map": 0.4280122655122655, "micro_ap": 0.2996595296202362},
            [(0.0, 0.5616071428571429, 0.36287833982183354), (0.3, 0.5616071428571429, 0.36287833982183354),
             (1.0, 0.4280122655122655, 0.2996595296202362)],
        ),
        "affine": (
            {"map": 0.6995039682539682, "micro_ap": 0.4782487294738187},
            [(0.0, 0.7299603174603174, 0.5860384948438763), (0.3, 0.7299603174603174, 0.5860384948438763),
             (1.0, 0.6995039682539682, 0.4782487294738187)],
        ),
    }

    @pytest.mark.parametrize("kind", ["identity", "conv", "affine"])
    def test_k_t_sweep_and_avgpool_pinned(self, tmp_path, out_dir, kind):
        from apranking.trainer import LossWeights

        overrides = {} if kind == "identity" else {
            "refiner_kind": kind, "downsample": 2, "weights": LossWeights(lambda_f=0.0),
        }
        config = tiny_config(tmp_path, **overrides)
        res = run_cli(
            ["ablate", "--axis", "k_t", "--grid", "0.0,0.3,1.0", "--config", config, "--out", out_dir],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        report = json.load(open(os.path.join(out_dir, "ablate_k_t.json")))
        avgpool, rows = self.PINNED[kind]
        assert report["avgpool"] == avgpool
        assert [(r["value"], r["map"], r["micro_ap"]) for r in report["rows"]] == rows

    def test_k_t_grid_with_full_rate_evaluates_each_rate_once(self, tmp_path, out_dir, monkeypatch):
        from apranking import cli, trainer

        calls = []
        real = trainer.evaluate_model
        monkeypatch.setattr(trainer, "evaluate_model", lambda *a: calls.append(a[2].k_t) or real(*a))
        config = tiny_config(tmp_path)
        grid = ["0.0", "1.0", "0.3"]
        assert cli.main(["ablate", "--axis", "k_t", "--grid", ",".join(grid), "--config", config,
                         "--out", out_dir]) == 0
        assert calls == [0.0, 1.0, 0.3]  # the avgpool row reuses the k_t = 1.0 evaluation
        report = json.load(open(os.path.join(out_dir, "ablate_k_t.json")))
        assert report["avgpool"] == {k: report["rows"][1][k] for k in ("map", "micro_ap")}

    def test_initialization_checkpoint_reproduces_untrained_rows(self, tmp_path, out_dir):
        config = tiny_config(tmp_path, refiner_kind="conv")
        res = run_cli(["train", "--config", config, "--iterations", "0", "--out", out_dir], tmp_path)
        assert res.returncode == 0, res.stderr
        reports = []
        for extra in ([], ["--checkpoint", os.path.join(out_dir, "checkpoint.bin")]):
            out = os.path.join(out_dir, f"ablate{len(extra)}")
            res = run_cli(["ablate", "--axis", "k_s", "--grid", "0.5", "--config", config, "--out", out] + extra,
                          tmp_path)
            assert res.returncode == 0, res.stderr
            reports.append(json.load(open(os.path.join(out, "ablate_k_s.json")))["rows"])
        assert reports[0] == reports[1]

    @staticmethod
    def ablate_rejecting(tmp_path, out_dir, monkeypatch, capsys, ckpt, refiner_kind="identity") -> str:
        """The error of a k_t ablation given checkpoint ``ckpt``, which must
        exit 2 before it makes the output directory or builds a corpus."""
        from apranking import cli, trainer

        monkeypatch.setattr(trainer, "generate_corpus", lambda *a: pytest.fail("a corpus was built"))
        config = tiny_config(tmp_path, refiner_kind=refiner_kind)
        argv = ["ablate", "--axis", "k_t", "--grid", "0.3", "--config", config, "--checkpoint", str(ckpt),
                "--out", out_dir]
        assert cli.main(argv) == 2
        assert not os.path.exists(out_dir)
        return capsys.readouterr().err

    @pytest.mark.parametrize("refiner_kind, tensors, named", [
        # a conv model given an identity model's checkpoint
        ("conv", {"weight": np.eye(8)}, "'conv_bias' is missing"),
        # an identity model given a conv model's checkpoint
        ("identity", {"weight": np.eye(8), "conv_weights": np.eye(3), "conv_bias": np.float64(0.0)},
         "'conv_bias' is shape ()"),
        # a head for another embedding dim
        ("identity", {"weight": np.eye(4)}, "'weight' is shape (4, 4); the model has shape (8, 8)"),
        # a tensor file may hold float32; parameters are float64
        ("identity", {"weight": np.eye(8, dtype=np.float32)}, "'weight' is float32, not float64"),
    ], ids=["missing", "extra", "shape", "dtype"])
    def test_checkpoint_not_matching_the_model_exits_2(self, tmp_path, out_dir, monkeypatch, capsys,
                                                       refiner_kind, tensors, named):
        ckpt = tmp_path / "ckpt.bin"
        write_tensors(ckpt, tensors)
        assert named in self.ablate_rejecting(tmp_path, out_dir, monkeypatch, capsys, ckpt, refiner_kind)

    def test_truncated_checkpoint_exits_2(self, tmp_path, out_dir, monkeypatch, capsys):
        ckpt = tmp_path / "ckpt.bin"
        write_tensors(ckpt, {"weight": np.eye(8)})
        ckpt.write_bytes(ckpt.read_bytes()[:50])
        assert "truncated" in self.ablate_rejecting(tmp_path, out_dir, monkeypatch, capsys, ckpt)

    def test_missing_checkpoint_exits_2(self, tmp_path, out_dir, monkeypatch, capsys):
        ckpt = tmp_path / "missing.bin"
        assert str(ckpt) in self.ablate_rejecting(tmp_path, out_dir, monkeypatch, capsys, ckpt)

    def test_binary_checkpoint_exits_2(self, tmp_path, out_dir):
        # the retired binary layout: magic, version, config digest, tensor
        # count, then per tensor its name length, name, ndim, shape, payload
        ckpt = tmp_path / "ckpt.bin"
        ckpt.write_bytes(
            b"APRKCKPT" + struct.pack("<I", 1) + bytes(32) + struct.pack("<IH", 1, 6) + b"weight"
            + struct.pack("<IQQ", 2, 8, 8) + np.eye(8).tobytes()
        )
        res = run_cli(["ablate", "--axis", "k_t", "--grid", "0.3", "--config", tiny_config(tmp_path),
                       "--checkpoint", str(ckpt), "--out", out_dir], tmp_path)
        assert res.returncode == 2, res.stderr
        assert f"error: {ckpt}: not an apranking tensor file" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize("axis", ["delta_v", "rates"])
    def test_checkpoint_on_a_trained_axis_exits_2(self, tmp_path, out_dir, axis):
        grid = "0.3:0.3" if axis == "rates" else "0.05"
        res = run_cli(["ablate", "--axis", axis, "--grid", grid, "--config", tiny_config(tmp_path),
                       "--checkpoint", str(tmp_path / "missing.bin"), "--out", out_dir], tmp_path)
        assert res.returncode == 2, res.stderr
        assert "--checkpoint applies only to the k_t and k_s axes" in res.stderr
        assert "Traceback" not in res.stderr and not os.path.exists(out_dir)

    def test_delta_v_sweep_trains_per_value(self, tmp_path, out_dir):
        config = tiny_config(tmp_path)
        res = run_cli(
            ["ablate", "--axis", "delta_v", "--grid", "0.01,0.05", "--config", config,
             "--iterations", "4", "--out", out_dir],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr
        report = json.load(open(os.path.join(out_dir, "ablate_delta_v.json")))
        assert [r["value"] for r in report["rows"]] == [0.01, 0.05]

    def test_config_iterations_kept(self, tmp_path, out_dir, monkeypatch):
        # --iterations defaults to the file's budget, and to 300 only with --preset
        from apranking import cli, trainer

        budgets, real_train = [], trainer.train
        monkeypatch.setattr(trainer, "train",
                            lambda cfg, **kw: budgets.append(cfg.iterations) or real_train(cfg, **kw))
        config = tiny_config(tmp_path, iterations=2)
        assert cli.main(["ablate", "--axis", "delta_v", "--grid", "0.01,0.05", "--config", config,
                         "--out", out_dir]) == 0
        assert budgets == [2, 2]
        assert json.load(open(os.path.join(out_dir, "ablate_delta_v.json")))["iterations"] == 2
        assert cli.main(["ablate", "--axis", "k_t", "--grid", "0.3", "--out", out_dir]) == 0
        assert json.load(open(os.path.join(out_dir, "ablate_k_t.json")))["iterations"] == 300

    def test_nan_snapshot_written_under_out(self, tmp_path, out_dir, capsys):
        # each training run writes its NaN snapshot into --out, as train does
        from apranking import cli

        argv = ["ablate", "--axis", "lambda_f", "--grid", "1e308", "--config", tiny_config(tmp_path), "--out", out_dir]
        assert cli.main(argv) == 3
        snapshot = capsys.readouterr().err.split("snapshot: ")[1].rstrip("\n")
        assert os.path.dirname(snapshot) == out_dir and os.path.isfile(snapshot)

    def test_rates_axis(self, tmp_path, out_dir):
        config = tiny_config(tmp_path)
        res = run_cli(
            ["ablate", "--axis", "rates", "--grid", "0.3:0.3,0.4:0.4", "--config", config,
             "--iterations", "4", "--out", out_dir],
            tmp_path,
        )
        assert res.returncode == 0, res.stderr

    # a bad entry after a good one: the whole grid is checked before the
    # output directory is made and before any evaluation or training
    @pytest.mark.parametrize("axis, grid, bad", [
        ("k_t", "0.1,x", "x"), ("k_s", "0.1,1.5", "1.5"), ("delta_v", "0.05,abc", "abc"),
        ("rho_f", "0.1,-1", "-1"), ("rates", "0.3:0.3,0.4", "0.4"), ("rates", "0.3:0.3,0.3:y", "0.3:y"),
    ])
    def test_bad_grid_entry_exits_2_before_anything_runs(self, tmp_path, out_dir, capsys, monkeypatch,
                                                        axis, grid, bad):
        from apranking import cli, trainer

        calls = []
        for name in ("train", "evaluate_model", "heldout_corpus", "initial_model"):
            monkeypatch.setattr(trainer, name, lambda *a, name=name, **k: calls.append(name))
        argv = ["ablate", "--axis", axis, "--grid", grid, "--config", tiny_config(tmp_path), "--out", out_dir]
        assert cli.main(argv) == 2
        assert f"error: {axis} grid entry {bad!r}: " in capsys.readouterr().err
        assert calls == [] and not os.path.exists(out_dir)

    def test_overlapping_rates_exit_2_before_anything_runs(self, tmp_path, out_dir, capsys, monkeypatch):
        # each rate is legal alone; together they overlap on the 5 frames the
        # frame loss labels, which the grid check sees before any training
        from apranking import cli, trainer

        def train(*args, **kwargs):
            raise AssertionError("ablate trained before it checked the grid")

        monkeypatch.setattr(trainer, "train", train)
        argv = ["ablate", "--axis", "rates", "--grid", "0.3:0.3,0.6:0.6", "--config", tiny_config(tmp_path),
                "--out", out_dir]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: rates grid entry '0.6:0.6': rates (0.6, 0.6) overlap on 5 candidates\n"
        assert not os.path.exists(out_dir)

    def test_empty_grid_exits_2(self, tmp_path, out_dir):
        res = run_cli(["ablate", "--axis", "k_t", "--grid", ",", "--out", out_dir], tmp_path)
        assert res.returncode == 2

    def test_unknown_axis_exits_2(self, tmp_path, out_dir):
        res = run_cli(["ablate", "--axis", "bogus", "--grid", "1", "--out", out_dir], tmp_path)
        assert res.returncode == 2


# an OS error on a path the user gave is a usage error, not a traceback
@pytest.mark.parametrize("argv", [
    ["bench-loss", "--out", "{file}"],
    ["eval", "--scores", "{dir}"],
    ["train", "--config", "{dir}"],
    ["ablate", "--axis", "k_t", "--grid", "0.3", "--checkpoint", "{dir}"],
], ids=["out-is-a-file", "scores-is-a-dir", "config-is-a-dir", "checkpoint-is-a-dir"])
def test_os_error_on_a_given_path_exits_2(tmp_path, argv):
    (tmp_path / "file").write_text("")
    argv = [a.format(file=tmp_path / "file", dir=tmp_path) for a in argv]
    res = run_cli(argv, tmp_path, APRANKING_OUT_DIR=str(tmp_path / "out"))
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert "Traceback" not in res.stderr


# a config or CSV file that is not UTF-8 is a usage error naming the file,
# before anything is written
@pytest.mark.parametrize("argv, content", [
    (["train", "--config", "{file}"], b"\xff{}"),
    (["ablate", "--axis", "delta_v", "--grid", "0.05", "--config", "{file}"], b'{"seed": "\xff"}'),
    (["eval", "--csv", "{file}"], b"query,score,label\nq1,0.5,1\nq\xff,0.2,0\n"),
], ids=["train-config", "ablate-config", "eval-csv"])
def test_non_utf8_input_exits_2(tmp_path, out_dir, capsys, argv, content):
    from apranking import cli

    path = tmp_path / "input"
    path.write_bytes(content)
    assert cli.main([a.format(file=path) for a in argv] + ["--out", out_dir]) == 2
    assert capsys.readouterr().err == f"error: {path} is not UTF-8 text (byte 0xff)\n"
    assert not os.path.exists(out_dir)


class TestOneBlasThread:
    """The benchmark pins BLAS to one thread, while these tests run OpenBLAS
    at its default thread count. The engine's fast path and a deterministic
    eval are checked here under the benchmark's setting as well."""

    ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

    def test_engine_matches_oracle(self, tmp_path):
        # the eval-sweep shape and refiner, on a batch with a partial last
        # tile and a partial last block, against the per-pair oracle
        script = tmp_path / "engine_vs_oracle.py"
        script.write_text(
            "import os\n"
            "import numpy as np\n"
            "from apranking.aggregation import (AggregationParams, PatchEmbeddings, RefinerParams,\n"
            "                                   batch_similarity_matrix, video_similarity)\n"
            "rng = np.random.default_rng(50)\n"
            "clips = [PatchEmbeddings(rng.standard_normal((8, 4, 16))) for _ in range(36)]\n"
            "refiner = RefinerParams(kind='conv', conv_weights=np.linspace(-1, 1, 9).reshape(3, 3))\n"
            "for k_t in (0.03, 0.3, 1.0):\n"
            "    params = AggregationParams(0.5, k_t)\n"
            "    got = batch_similarity_matrix(clips, params, refiner)\n"
            "    want = np.array([[video_similarity(a, b, params, refiner) for b in clips] for a in clips])\n"
            "    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want)), k_t\n"
            "print('threads', os.environ['OPENBLAS_NUM_THREADS'], 'ok')\n"
        )
        res = run_python([str(script)], tmp_path, **self.ENV)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "threads 1 ok\n"

    # argparse takes an unambiguous prefix of a flag; either spelling pins the
    # thread pools before the command first imports numpy
    @pytest.mark.parametrize("flag", ["--deterministic", "--determ"])
    def test_deterministic_pins_threads_before_numpy_loads(self, tmp_path, out_dir, flag):
        script = tmp_path / "watch_numpy.py"
        script.write_text(
            "import os, sys\n"
            "seen = []\n"
            "class Watch:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "sys.meta_path.insert(0, Watch())\n"
            "from apranking.cli import main\n"
            "code = main(['bench-loss', sys.argv[1], '--seeds', '1', '--out', sys.argv[2]])\n"
            "print(code, seen)\n"
        )
        env = {var: os.environ[var] for var in os.environ if not var.endswith("_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        res = subprocess.run([sys.executable, str(script), flag, out_dir], capture_output=True, text=True,
                             cwd=tmp_path, env=env)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "0 ['1']"

    def test_deterministic_eval_pinned(self, tmp_path, out_dir):
        import hashlib

        path = tmp_path / "input.scores"
        TestEval._tied_score_file(path)
        res = run_cli(["eval", "--scores", str(path), "--verify", "--deterministic", "--out", out_dir], tmp_path,
                      **self.ENV)
        assert res.returncode == 0, res.stderr
        report = json.load(open(os.path.join(out_dir, "eval_report.json")))
        digest = hashlib.sha256(open(os.path.join(out_dir, "eval_per_query.csv"), "rb").read()).hexdigest()
        got = (digest, report["map"], report["micro_ap"], report["num_queries"], report["num_skipped"])
        assert got == TestEval.PINNED["scores"] and report["verify"]["pass"] is True
