import json
import math
import re

import numpy as np
import pytest
import yaml

import qmlp.cli
import qmlp.inference
import qmlp.training
from qmlp.checkpoint import load_checkpoint, save_checkpoint
from qmlp.cli import build_parser, main
from qmlp.config import (
    apply_overrides,
    config_from_dict,
    load_config,
    parse_angle,
)
from qmlp.data import RawDataset
from qmlp.inference import InferencePolicy, evaluate, mode_over_shots, prediction_matrix
from qmlp.network import NetworkParams, init_network_params
from qmlp.quantum import HALF_PI
from qmlp.sweep import CSV_HEADER, ResultCorrupt, load_datasets, run_training_job, write_sweep_csv
from qmlp.training import ConfigInvalid, train

from synthdigits import write_idx_pair


class TestParseAngle:
    def test_fractions_of_pi(self):
        assert parse_angle("pi/2") == math.pi / 2
        assert parse_angle("pi") == math.pi
        assert parse_angle("5pi/19") == 5 * math.pi / 19
        assert parse_angle("9*pi/19") == 9 * math.pi / 19
        assert parse_angle("PI / 2") == math.pi / 2

    def test_plain_numbers(self):
        assert parse_angle(0.75) == 0.75
        assert parse_angle("0.75") == 0.75
        assert parse_angle(1) == 1.0

    def test_rejects_garbage(self):
        with pytest.raises(ConfigInvalid):
            parse_angle("two pies")

    def test_rejects_zero_denominator(self):
        with pytest.raises(ConfigInvalid, match="divides by zero"):
            parse_angle("pi/0")


class TestConfig:
    def test_defaults(self):
        cfg = config_from_dict({})
        assert cfg.hyper.hidden_layers == 3
        assert cfg.hyper.hidden_size == 512
        assert cfg.hyper.quantum.g == HALF_PI
        assert cfg.policy.shots == 15

    def test_full_roundtrip(self, tmp_path):
        raw = {
            "data": {"train_images": "a", "train_labels": "b", "subset_seed": 3},
            "model": {"hidden_layers": 2, "hidden_size": 128},
            "training": {"epochs": 7, "seed": 9, "train_size": 100, "val_size": 50},
            "quantum": {"a": 0.5, "g": "pi/4"},
            "inference": {"mode": "multi_shot", "shots": 5, "seed": 1},
            "sweep": {"a_values": [0, 0.5], "g_values": ["pi/2"], "seeds": [1, 2]},
            "out_dir": "somewhere",
        }
        path = tmp_path / "run.yaml"
        path.write_text(yaml.safe_dump(raw))
        cfg = load_config(path)
        assert cfg.hyper.epochs == 7
        assert cfg.hyper.quantum.a == 0.5
        assert cfg.hyper.quantum.g == math.pi / 4
        assert cfg.a_values == (0.0, 0.5)
        assert cfg.g_values == (HALF_PI,)
        assert cfg.seeds == (1, 2)
        assert cfg.out_dir == "somewhere"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalid):
            config_from_dict({"training": {"learn_rate": 0.1}})
        with pytest.raises(ConfigInvalid):
            config_from_dict({"trainings": {}})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigInvalid):
            config_from_dict({"quantum": {"g": 9.0}})
        with pytest.raises(ConfigInvalid):
            config_from_dict({"training": {"momentum": 1.5}})

    @pytest.mark.parametrize(
        "override, message",
        [
            ("quantum.a=.nan", "stretch a must be finite and >= 0, got nan"),
            ("quantum.a=.inf", "stretch a must be finite and >= 0, got inf"),
            ("training.learning_rate=.nan", "learning_rate must be finite and > 0, got nan"),
            ("training.learning_rate=.inf", "learning_rate must be finite and > 0, got inf"),
            ("training.bp_scale=.nan", "bp_scale must be finite and > 0, got nan"),
            ("training.bp_scale=.inf", "bp_scale must be finite and > 0, got inf"),
            ("training.epochs=.inf", "bad value for training.epochs"),
            ("quantum.g=pi/0", "divides by zero"),
            ("sweep.a_values=[-1.0]", "stretch a must be finite and >= 0, got -1.0"),
            ("sweep.a_values=[.nan]", "stretch a must be finite and >= 0, got nan"),
            ("sweep.g_values=[pi/2, 2.0]", "angle g must be in [0, pi/2], got 2.0"),
            ("sweep.a_values=[0.0, -0.0]", "sweep.a_values is empty or repeats a value"),
            (
                "sweep.g_values=[pi/2, 1.5707963267948966]",
                "sweep.g_values is empty or repeats a value",
            ),
            ("sweep.seeds=[3, 1, 3]", "sweep.seeds is empty or repeats a value"),
            ("sweep.g_values=[]", "sweep.g_values is empty or repeats a value"),
            ("training.epochs=2.7", "training.epochs: expected an integer, got 2.7"),
            ("inference.shots=15.9", "inference.shots: expected an integer, got 15.9"),
            ("training.batch_size=true", "training.batch_size: expected an integer, got True"),
            ("sweep.seeds=[1.5]", "sweep.seeds: expected an integer, got 1.5"),
            ("quantum.a=true", "quantum.a: expected a number, got True"),
            ("sweep.a_values=[true]", "sweep.a_values: expected a number, got True"),
            ("quantum.g=true", "angle True is not a number"),
            ("quantum.a=[0.1", "cannot parse --set 'quantum.a=[0.1'"),
            (
                "training.seed=18446744073709551616",
                "training.seed: a seed must be in [0, 2^64), got 18446744073709551616",
            ),
            ("training.seed=-1", "training.seed: a seed must be in [0, 2^64), got -1"),
            ("inference.seed=-1", "inference.seed: a seed must be in [0, 2^64), got -1"),
            ("data.subset_seed=-1", "data.subset_seed: a seed must be in [0, 2^64), got -1"),
            (
                "sweep.seeds=[0, 18446744073709551616]",
                "sweep.seeds: a seed must be in [0, 2^64), got 18446744073709551616",
            ),
        ],
    )
    def test_every_value_is_checked_on_load(self, override, message):
        with pytest.raises(ConfigInvalid, match=re.escape(message)):
            load_config(None, [override])

    def test_set_overrides(self):
        raw = apply_overrides({}, ["training.epochs=3", "quantum.a=0.25"])
        cfg = config_from_dict(raw)
        assert cfg.hyper.epochs == 3
        assert cfg.hyper.quantum.a == 0.25

    def test_seed_range_ends_are_accepted(self):
        top = (1 << 64) - 1
        cfg = load_config(None, [f"training.seed={top}", f"sweep.seeds=[0, {top}]"])
        assert cfg.hyper.seed == top and cfg.seeds == (0, top)

    def test_integral_float_loads_as_int(self):
        cfg = load_config(None, ["training.epochs=3.0", "sweep.seeds=[2.0, 5]"])
        assert cfg.hyper.epochs == 3 and type(cfg.hyper.epochs) is int
        assert cfg.seeds == (2, 5) and all(type(s) is int for s in cfg.seeds)

    def test_set_parses_yaml_scalars(self):
        raw = apply_overrides({}, ["sweep.seeds=[4, 5]", "quantum.g=pi/8"])
        cfg = config_from_dict(raw)
        assert cfg.seeds == (4, 5)
        assert cfg.hyper.quantum.g == math.pi / 8

    def test_bad_set_syntax(self):
        with pytest.raises(ConfigInvalid):
            apply_overrides({}, ["no_equals_sign"])

    def test_no_path_means_defaults_plus_overrides(self):
        cfg = load_config(None, ["training.epochs=3", "quantum.g=pi/4"])
        default = config_from_dict({})
        assert cfg.hyper.epochs == 3
        assert cfg.hyper.quantum.g == math.pi / 4
        assert cfg.hyper.hidden_size == default.hyper.hidden_size
        assert cfg.policy == default.policy
        assert load_config() == default


class TestOptionSurface:
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--threads", "2"],
            ["eval", "--checkpoint", "c.qckpt", "--threads", "2"],
            ["fetch-check", "--threads", "2"],
            ["eval", "--checkpoint", "c.qckpt", "--seed", "3"],
            ["fetch-check", "--out", "somewhere"],
            ["fetch-check", "--seed", "3"],
            ["train", "--seed", "3"],
            ["sweep", "--seed", "3"],
        ],
    )
    def test_ignored_options_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_shots_curve_below_one_is_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["eval", "--checkpoint", "c.qckpt", "--shots-curve", value])
        assert exc.value.code == 2
        assert "--shots-curve: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_threads_below_one_is_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "--threads", value])
        assert exc.value.code == 2
        assert "--threads: must be >= 1" in capsys.readouterr().err

    def test_sweep_takes_threads(self):
        args = build_parser().parse_args(["sweep", "--threads", "2"])
        assert args.threads == 2


def write_desk_config(tmp_path, idx_dir, **training):
    base = {
        "data": {
            "train_images": str(idx_dir / "train-images-idx3-ubyte"),
            "train_labels": str(idx_dir / "train-labels-idx1-ubyte"),
            "val_images": str(idx_dir / "t10k-images-idx3-ubyte"),
            "val_labels": str(idx_dir / "t10k-labels-idx1-ubyte"),
            "subset_seed": 7,
        },
        "model": {"hidden_layers": 1, "hidden_size": 16},
        "training": {
            "epochs": 1,
            "train_size": 64,
            "val_size": 32,
            "batch_size": 32,
            "seed": 3,
            **training,
        },
        "inference": {"mode": "multi_shot", "shots": 3, "seed": 5},
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(base))
    return path


def count_deterministic_passes(monkeypatch) -> list:
    """Record every predict_batch_deterministic call, wherever it is made from."""
    passes, original = [], qmlp.inference.predict_batch_deterministic

    def counted(*args):
        passes.append(args)
        return original(*args)

    monkeypatch.setattr(qmlp.inference, "predict_batch_deterministic", counted)
    monkeypatch.setattr(qmlp.training, "predict_batch_deterministic", counted)
    return passes


class TestTrainJob:
    def test_smoke_train_writes_artifacts(self, tmp_path, small_idx_dir):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        rc = main(["train", "--config", str(cfg_path)])
        assert rc == 0
        out = tmp_path / "out"
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert set(record) == {"epoch", "train_error", "val_error", "mean_loss"}
        assert (out / "checkpoint.qckpt").exists()
        result = json.loads((out / "result.json").read_text())
        assert 0.0 <= result["final_val_error"] <= 1.0

    def test_seed_and_out_flags(self, tmp_path, small_idx_dir):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        out2 = tmp_path / "other"
        rc = main(
            ["train", "--config", str(cfg_path), "--out", str(out2), "--set", "training.seed=99"]
        )
        assert rc == 0
        ckpt = out2 / "checkpoint.qckpt"
        assert ckpt.exists()
        from qmlp.checkpoint import load_checkpoint

        _, _, _, meta = load_checkpoint(ckpt)
        assert meta["seed"] == 99

    def test_checkpoint_holds_final_optimizer_state(self, tmp_path, small_idx_dir):
        cfg = load_config(write_desk_config(tmp_path, small_idx_dir, epochs=2))
        cfg = cfg.with_quantum(0.5, HALF_PI, seed=3)
        expected = train(cfg.hyper, *load_datasets(cfg)).opt.velocity
        blobs = []
        for name in ("run1", "run2"):
            run_training_job(cfg, tmp_path / name)
            blobs.append((tmp_path / name / "checkpoint.qckpt").read_bytes())
        assert blobs[0] == blobs[1]
        _, opt, epoch, _ = load_checkpoint(tmp_path / "run1" / "checkpoint.qckpt")
        assert epoch == 2
        for v, e in zip(opt.velocity, expected):
            assert np.array_equal(v, e)
            assert np.any(v != 0.0)
        assert sorted(p.name for p in (tmp_path / "run1").iterdir()) == [
            "checkpoint.qckpt", "metrics.jsonl", "result.json"
        ]

    def test_result_reuses_last_epoch_record(self, tmp_path, small_idx_dir, monkeypatch):
        epochs = 3
        cfg = load_config(write_desk_config(tmp_path, small_idx_dir, epochs=epochs))
        cfg = cfg.with_quantum(0.5, HALF_PI, seed=3)
        passes = count_deterministic_passes(monkeypatch)
        run_training_job(cfg, tmp_path / "job")
        assert len(passes) == 2 * epochs
        last = json.loads((tmp_path / "job" / "metrics.jsonl").read_text().splitlines()[-1])
        result = json.loads((tmp_path / "job" / "result.json").read_text())
        assert result["final_train_error"] == last["train_error"]
        assert result["final_val_error_deterministic"] == last["val_error"]

    @pytest.mark.parametrize("a, mode", [(0.0, "multi_shot"), (0.5, "deterministic")])
    def test_one_pass_policy_reuses_last_val_error(
        self, a, mode, tmp_path, small_idx_dir, monkeypatch
    ):
        # at the classical point every shot is the deterministic pass
        epochs = 3
        cfg = load_config(
            write_desk_config(tmp_path, small_idx_dir, epochs=epochs), [f"inference.mode={mode}"]
        )
        cfg = cfg.with_quantum(a, HALF_PI, seed=3)
        passes = count_deterministic_passes(monkeypatch)
        run_training_job(cfg, tmp_path / "job")
        assert len(passes) == 2 * epochs
        last = json.loads((tmp_path / "job" / "metrics.jsonl").read_text().splitlines()[-1])
        result = json.loads((tmp_path / "job" / "result.json").read_text())
        assert result["final_val_error"] == result["final_val_error_deterministic"]
        assert result["final_val_error"] == last["val_error"]

    def test_torn_result_is_a_named_error(self, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        assert main(["train", "--config", str(cfg_path)]) == 0
        result = tmp_path / "out" / "result.json"
        result.write_bytes(result.read_bytes()[:20])
        with pytest.raises(ResultCorrupt):
            run_training_job(load_config(cfg_path), tmp_path / "out")
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "result.json" in err

    def test_missing_data_file_reports_context(self, tmp_path, capsys):
        cfg_path = write_desk_config(tmp_path, tmp_path / "nowhere")
        rc = main(["train", "--config", str(cfg_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_bad_config_value(self, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        rc = main(["train", "--config", str(cfg_path), "--set", "quantum.g=7"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_num_classes_below_a_label(self, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        rc = main(["train", "--config", str(cfg_path), "--set", "training.num_classes=5"])
        assert rc == 1
        assert "num_classes=5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, message",
        [
            ("training.num_classes=5", "not below num_classes=5"),
            ("training.train_size=161", "requested 161 of 160 samples"),
            ("training.train_size=-5", "train_size must be >= 0, got -5"),
            ("training.val_size=0", "val_size must be >= 1, got 0"),
        ],
    )
    def test_refused_job_leaves_out_dir_as_it_was(
        self, override, message, tmp_path, small_idx_dir, capsys
    ):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        fresh, earlier = tmp_path / "fresh", tmp_path / "earlier"
        earlier.mkdir()
        (earlier / "metrics.jsonl").write_bytes(b'{"epoch": 0}\n')
        for out in (fresh, earlier):
            argv = ["train", "--config", str(cfg_path), "--out", str(out), "--set", override]
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
        assert not fresh.exists()
        assert [p.name for p in earlier.iterdir()] == ["metrics.jsonl"]
        assert (earlier / "metrics.jsonl").read_bytes() == b'{"epoch": 0}\n'

    @pytest.mark.parametrize(
        "override",
        [
            "quantum.a=.nan",
            "training.learning_rate=.nan",
            "training.learning_rate=.inf",
            "training.bp_scale=.nan",
            "quantum.g=pi/0",
            "training.epochs=2.7",
            "inference.shots=15.9",
            "training.batch_size=true",
            "quantum.a=true",
            "sweep.seeds=[1.5]",
            "quantum.a=[0.1",
            "training.seed=18446744073709551616",
            "training.seed=-1",
            "sweep.seeds=[0, 18446744073709551616]",
        ],
    )
    def test_unusable_value_is_refused(self, override, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        fresh = tmp_path / "fresh"
        argv = ["train", "--config", str(cfg_path), "--out", str(fresh), "--set", override]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not fresh.exists()

    def test_empty_validation_file_is_refused(self, tmp_path, small_idx_dir, capsys):
        empty = RawDataset(np.zeros((0, 28, 28), np.uint8), np.zeros(0, np.int64))
        write_idx_pair(small_idx_dir, empty, "t10k")
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        fresh, earlier = tmp_path / "fresh", tmp_path / "earlier"
        earlier.mkdir()
        (earlier / "metrics.jsonl").write_bytes(b'{"epoch": 0}\n')
        for out in (fresh, earlier):
            assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "empty validation set" in err
        assert not fresh.exists()
        assert (earlier / "metrics.jsonl").read_bytes() == b'{"epoch": 0}\n'

    def test_image_and_label_counts_differ(self, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        train_labels = small_idx_dir / "train-labels-idx1-ubyte"
        fresh = tmp_path / "fresh"
        argv = ["train", "--config", str(cfg_path), "--out", str(fresh),
                "--set", f"data.val_labels={train_labels}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "image/label count mismatch: 80 vs 160" in err
        assert not fresh.exists()

    def test_train_and_val_image_sizes_differ(self, tmp_path, small_idx_dir, capsys):
        small = RawDataset(np.zeros((40, 10, 10), np.uint8), np.arange(40) % 10)
        write_idx_pair(small_idx_dir, small, "t10k")
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        fresh = tmp_path / "fresh"
        assert main(["train", "--config", str(cfg_path), "--out", str(fresh)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "784 vs 100 features" in err
        assert not fresh.exists()


class TestSweep:
    def test_grid_csv_and_resume(self, tmp_path, small_idx_dir):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        args = [
            "sweep",
            "--config",
            str(cfg_path),
            "--set",
            "sweep.a_values=[0.0, 0.5]",
            "--set",
            "sweep.g_values=[pi/2]",
            "--set",
            "sweep.seeds=[3]",
        ]
        assert main(args) == 0
        csv_path = tmp_path / "out" / "sweep.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        a_col = [float(line.split(",")[0]) for line in lines[1:]]
        assert a_col == sorted(a_col)

        # resume: nothing re-runs, bytes unchanged
        cell_dirs = sorted((tmp_path / "out" / "cells").iterdir())
        before = {
            p.name: (p / "metrics.jsonl").read_bytes() for p in cell_dirs
        }
        assert main(args) == 0
        after = {p.name: (p / "metrics.jsonl").read_bytes() for p in cell_dirs}
        assert before == after

    @pytest.mark.parametrize(
        "override, message",
        [
            ("sweep.a_values=[0.0, 0.0]", "sweep.a_values is empty or repeats a value"),
            ("sweep.a_values=[]", "sweep.a_values is empty or repeats a value"),
            ("sweep.a_values=[-1.0]", "stretch a must be finite and >= 0"),
            ("sweep.a_values=[.nan]", "stretch a must be finite and >= 0"),
            ("sweep.g_values=[pi/2, 2.0]", "angle g must be in [0, pi/2], got 2.0"),
        ],
    )
    def test_bad_grid_is_refused_before_any_cell(
        self, override, message, tmp_path, small_idx_dir, capsys
    ):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        argv = ["sweep", "--config", str(cfg_path), "--threads", "2", "--set", override]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_single_cell_matches_cmd_train(self, tmp_path, small_idx_dir):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        train_out = tmp_path / "train_out"
        assert (
            main(["train", "--config", str(cfg_path), "--out", str(train_out)]) == 0
        )
        sweep_out = tmp_path / "sweep_out"
        assert (
            main(
                [
                    "sweep",
                    "--config",
                    str(cfg_path),
                    "--out",
                    str(sweep_out),
                    "--set",
                    "sweep.a_values=[0.0]",
                    "--set",
                    "sweep.g_values=[pi/2]",
                    "--set",
                    "sweep.seeds=[3]",
                ]
            )
            == 0
        )
        (cell,) = (sweep_out / "cells").iterdir()
        assert (cell / "metrics.jsonl").read_bytes() == (
            train_out / "metrics.jsonl"
        ).read_bytes()
        assert (cell / "checkpoint.qckpt").read_bytes() == (
            train_out / "checkpoint.qckpt"
        ).read_bytes()

    def test_threads_do_not_change_results(self, tmp_path, small_idx_dir):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        outs = {}
        for threads, name in ((1, "t1"), (2, "t2")):
            out = tmp_path / name
            assert (
                main(
                    [
                        "sweep",
                        "--config",
                        str(cfg_path),
                        "--out",
                        str(out),
                        "--threads",
                        str(threads),
                        "--set",
                        "sweep.a_values=[0.0, 0.4]",
                        "--set",
                        "sweep.seeds=[3]",
                    ]
                )
                == 0
            )
            outs[name] = {
                p.name: (p / "metrics.jsonl").read_bytes()
                for p in (out / "cells").iterdir()
            }
        assert outs["t1"] == outs["t2"]

    def test_csv_columns_follow_the_header(self, tmp_path):
        cols = CSV_HEADER.split(",")
        results = [
            {**{k: 0.5 + i for i, k in enumerate(cols)}, "a": 1.0, "seed": 2, "epochs": 3},
            {**{k: 0.25 * i for i, k in enumerate(cols)}, "a": 0.0, "seed": 1, "epochs": 3},
        ]
        write_sweep_csv(tmp_path / "sweep.csv", results)
        assert (tmp_path / "sweep.csv").read_text() == (
            f"{CSV_HEADER}\n0.0,0.25,1,0.75,1.0,1.25,1.5\n1.0,1.5,2,3.5,4.5,5.5,6.5\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


class TestEval:
    def test_eval_and_shots_curve(self, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        assert main(["train", "--config", str(cfg_path), "--set", "quantum.a=0.5"]) == 0
        ckpt = tmp_path / "out" / "checkpoint.qckpt"
        rc = main(
            [
                "eval",
                "--config",
                str(cfg_path),
                "--set",
                "quantum.a=0.5",
                "--checkpoint",
                str(ckpt),
                "--shots-curve",
                "4",
                "--out",
                str(tmp_path / "eval_out"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "deterministic_error=" in out
        assert "multi_shot_error=" in out
        curve = (tmp_path / "eval_out" / "shots_curve.csv").read_text().splitlines()
        assert curve[0] == "shots,error"
        assert len(curve) == 5

    @pytest.mark.parametrize("curve", [2, 4])
    def test_shots_curve_reuses_the_evaluation_matrix(
        self, curve, tmp_path, small_idx_dir, capsys, monkeypatch
    ):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        assert main(["train", "--config", str(cfg_path), "--set", "quantum.a=0.5"]) == 0
        ckpt = tmp_path / "out" / "checkpoint.qckpt"
        cfg = load_config(cfg_path, ["quantum.a=0.5"])
        params = load_checkpoint(ckpt)[0]
        val_set = load_datasets(cfg)[1]
        err = evaluate(params, val_set, cfg.policy, cfg.hyper.quantum)
        preds = prediction_matrix(params, val_set, cfg.hyper.quantum, curve, cfg.policy.seed)
        expected_csv = "shots,error\n" + "".join(
            f"{k},{float(np.mean(mode_over_shots(preds[:, :k], 10) != val_set.y))!r}\n"
            for k in range(1, curve + 1)
        )
        calls = []

        def counted(*args):
            calls.append(args)
            return prediction_matrix(*args)

        monkeypatch.setattr(qmlp.cli, "prediction_matrix", counted)
        monkeypatch.setattr(qmlp.inference, "prediction_matrix", counted)
        capsys.readouterr()
        rc = main(
            [
                "eval",
                "--config",
                str(cfg_path),
                "--set",
                "quantum.a=0.5",
                "--checkpoint",
                str(ckpt),
                "--shots-curve",
                str(curve),
                "--out",
                str(tmp_path / "eval_out"),
            ]
        )
        assert rc == 0
        assert len(calls) == 1
        assert f"multi_shot_error={err} shots=3 " in capsys.readouterr().out
        assert (tmp_path / "eval_out" / "shots_curve.csv").read_bytes() == expected_csv.encode()

    def test_classical_point_runs_one_deterministic_pass(
        self, tmp_path, small_idx_dir, capsys, monkeypatch
    ):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = tmp_path / "out" / "checkpoint.qckpt"
        passes = count_deterministic_passes(monkeypatch)
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 0
        assert len(passes) == 1
        out = capsys.readouterr().out
        det = re.search(r"deterministic_error=(\S+)", out).group(1)
        assert f"multi_shot_error={det} shots=3 a=0.0 g={HALF_PI}" in out

    def test_empty_validation_set_errors(self, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = tmp_path / "out" / "checkpoint.qckpt"
        rc = main(
            [
                "eval",
                "--config",
                str(cfg_path),
                "--checkpoint",
                str(ckpt),
                "--set",
                "training.val_size=0",
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_of_another_input_size(self, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        ckpt = tmp_path / "narrow.qckpt"
        save_checkpoint(ckpt, init_network_params(100, 16, 1, 10, np.random.default_rng(0)))
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "784 features, network expects 100" in err

    def test_checkpoint_whose_weights_do_not_chain(self, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        ckpt = tmp_path / "unchained.qckpt"
        save_checkpoint(ckpt, NetworkParams([np.zeros((3, 784)), np.zeros((5, 2))]))
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "do not chain" in err

    def test_corrupt_checkpoint(self, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        bad = tmp_path / "bad.qckpt"
        bad.write_bytes(b"garbage")
        rc = main(["eval", "--config", str(cfg_path), "--checkpoint", str(bad)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestFetchCheck:
    def test_valid_files(self, small_idx_dir, capsys):
        rc = main(
            [
                "fetch-check",
                str(small_idx_dir / "train-images-idx3-ubyte"),
                str(small_idx_dir / "train-labels-idx1-ubyte"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "images n=160 28x28 OK" in out
        assert "labels n=160 OK" in out

    def test_config_mode(self, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        assert main(["fetch-check", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().out.count("OK") == 4

    def test_bad_magic_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad-file"
        bad.write_bytes(b"\x12\x34\x56\x78" + b"\x00" * 100)
        assert main(["fetch-check", str(bad)]) == 1
        assert "unknown magic" in capsys.readouterr().err

    def test_trailing_bytes_fail(self, small_idx_dir, tmp_path, capsys):
        bad = tmp_path / "long-labels"
        bad.write_bytes((small_idx_dir / "train-labels-idx1-ubyte").read_bytes() + b"\x00\x00")
        assert main(["fetch-check", str(bad)]) == 1
        assert f"{bad}: 2 trailing bytes after label payload" in capsys.readouterr().err

    def test_truncated_fails(self, small_idx_dir, tmp_path, capsys):
        src = (small_idx_dir / "train-images-idx3-ubyte").read_bytes()
        bad = tmp_path / "trunc-images"
        bad.write_bytes(src[:-10])
        assert main(["fetch-check", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


def test_run_training_job_epochs_zero(tmp_path, small_idx_dir):
    cfg = load_config(write_desk_config(tmp_path, small_idx_dir, epochs=0))
    result = run_training_job(cfg, tmp_path / "zero")
    assert result["epochs"] == 0
    assert (tmp_path / "zero" / "metrics.jsonl").read_text() == ""
    assert 0.0 <= result["final_val_error"] <= 1.0
