import json
import math
import multiprocessing
import os
import re
import struct
import subprocess
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
import yaml

import qmlp.cli
import qmlp.inference
import qmlp.sweep
import qmlp.training
from qmlp.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from qmlp.cli import build_parser, main
from qmlp.config import (
    _SCHEMA,
    DataConfig,
    apply_overrides,
    config_from_dict,
    load_config,
    parse_angle,
)
from qmlp.data import RawDataset
from qmlp.inference import InferencePolicy, evaluate, mode_over_shots, prediction_matrix
from qmlp.network import NetworkParams, init_network_params
from qmlp.quantum import HALF_PI, QuantumConfig
from qmlp.sweep import (
    CSV_HEADER,
    CellsFailed,
    ResultCorrupt,
    ResultMismatch,
    cell_dir_name,
    load_datasets,
    run_sweep,
    run_training_job,
    write_sweep_csv,
)
from qmlp.training import ConfigInvalid, Hyperparams, train

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
            ("out_dir=", "out_dir: expected a non-empty path, got None"),
            ("out_dir=''", "out_dir: expected a non-empty path, got ''"),
            ("out_dir=[1, 2]", "out_dir: expected a non-empty path, got [1, 2]"),
            ("out_dir=7", "out_dir: expected a non-empty path, got 7"),
            ("data.train_images=", "data.train_images: expected a non-empty path, got None"),
            ("data.train_labels=[a]", "data.train_labels: expected a non-empty path, got ['a']"),
            ("data.val_images=''", "data.val_images: expected a non-empty path, got ''"),
            ("data.val_labels=3", "data.val_labels: expected a non-empty path, got 3"),
            ("sweep.a_values='05'", "bad value for sweep.a_values: expected a list, got '05'"),
            ("sweep.g_values=pi/2", "bad value for sweep.g_values: expected a list, got 'pi/2'"),
            ("sweep.seeds={1: 2}", "bad value for sweep.seeds: expected a list, got {1: 2}"),
            ("sweep.seeds='12'", "bad value for sweep.seeds: expected a list, got '12'"),
            ("a..b=1", "bad --set key 'a..b'"),
            (".x=1", "bad --set key '.x'"),
            ("model.hidden_layers=-1", "hidden_layers must be >= 0, got -1"),
            ("model.hidden_size=0", "hidden_size must be >= 1, got 0"),
        ],
    )
    def test_every_value_is_checked_on_load(self, override, message):
        with pytest.raises(ConfigInvalid, match=re.escape(message)):
            load_config(None, [override])

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read config"),
            ("training: {epochs: 3\n", "cannot parse config"),
            ("- training\n- quantum\n", "must be a mapping"),
        ],
    )
    def test_unusable_config_file_is_refused(self, text, message, tmp_path):
        path = tmp_path / "run.yaml"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigInvalid, match=message) as refused:
            load_config(path)
        assert str(path) in str(refused.value)

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

    def test_empty_section_takes_dotted_overrides(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("quantum:\ntraining:\n  epochs: 3\n")
        cfg = load_config(path, ["quantum.a=0.3"])
        assert cfg.hyper.quantum == QuantumConfig(a=0.3, g=HALF_PI)
        assert cfg.hyper.epochs == 3
        assert load_config(path, ["quantum="]) == load_config(None, ["training.epochs=3"])

    @pytest.mark.parametrize(
        "section, text",
        [("quantum", "0"), ("training", "[]"), ("quantum", "false"), ("quantum", "''")],
    )
    def test_section_that_is_not_a_mapping_is_refused(self, section, text, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(f"{section}: {text}\n")
        message = f"section '{section}' must be a mapping"
        with pytest.raises(ConfigInvalid, match=message):
            load_config(path)
        path.write_text("training:\n  epochs: 3\n")
        with pytest.raises(ConfigInvalid, match=message):
            load_config(path, [f"{section}={text}"])

    def test_set_section_keeps_the_keys_it_does_not_name(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text("quantum:\n  a: 0.3\n")
        cfg = load_config(path, ["quantum={g: pi/4}"])
        assert (cfg.hyper.quantum.a, cfg.hyper.quantum.g) == (0.3, math.pi / 4)


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
        assert meta["hyper"]["seed"] == 99

    def test_checkpoint_holds_final_optimizer_state(self, tmp_path, small_idx_dir):
        cfg = load_config(write_desk_config(tmp_path, small_idx_dir, epochs=2))
        cfg = cfg.with_quantum(0.5, HALF_PI, seed=3)
        expected = train(cfg.hyper, *load_datasets(cfg)).velocity
        blobs = []
        for name in ("run1", "run2"):
            run_training_job(cfg, tmp_path / name)
            blobs.append((tmp_path / name / "checkpoint.qckpt").read_bytes())
        assert blobs[0] == blobs[1]
        _, velocity, epoch, _ = load_checkpoint(tmp_path / "run1" / "checkpoint.qckpt")
        assert epoch == 2
        for v, e in zip(velocity, expected):
            assert np.array_equal(v, e)
            assert np.any(v != 0.0)
        assert sorted(p.name for p in (tmp_path / "run1").iterdir()) == [
            "checkpoint.qckpt", "metrics.jsonl", "result.json"
        ]

    def test_each_epoch_row_is_on_disk_when_its_epoch_ends(
        self, tmp_path, small_idx_dir, monkeypatch
    ):
        # a row left in the file's buffer would be lost with a killed run
        cfg = load_config(write_desk_config(tmp_path, small_idx_dir, epochs=3))
        log, original, seen = tmp_path / "job" / "metrics.jsonl", qmlp.sweep.train, []

        def train_reading_the_log(*args, on_epoch):
            def after(record):
                on_epoch(record)
                text = log.read_text()
                seen.append(text.endswith("\n") and [json.loads(line)["epoch"]
                                                     for line in text.splitlines()])

            return original(*args, on_epoch=after)

        monkeypatch.setattr(qmlp.sweep, "train", train_reading_the_log)
        run_training_job(cfg, tmp_path / "job")
        assert seen == [[0], [0, 1], [0, 1, 2]]

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

    @pytest.mark.parametrize(
        "override, message",
        [
            ("training.num_classes=5", "unknown config key training.num_classes"),
            ("training.train_size=161", "requested 161 of 160 samples"),
            ("out_dir=", "bad value for out_dir: expected a non-empty path, got None"),
            ("out_dir=[1, 2]", "bad value for out_dir: expected a non-empty path, got [1, 2]"),
            ("data.val_labels=", "bad value for data.val_labels"),
            ("training.train_size=-5", "train_size must be >= 0, got -5"),
            ("training.val_size=0", "val_size must be >= 1, got 0"),
            ("training={train_size: 0, epochs: 0}", "cannot train on an empty training set"),
            ("quantum=0", "section 'quantum' must be a mapping"),
            ("training=[]", "section 'training' must be a mapping"),
            ("quantum=false", "section 'quantum' must be a mapping"),
            ("quantum=''", "section 'quantum' must be a mapping"),
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

    @pytest.mark.parametrize(
        "text", ["quantum: 0", "training: []", "quantum: false", "quantum: ''"]
    )
    def test_file_section_that_is_not_a_mapping_is_refused(
        self, text, tmp_path, small_idx_dir, capsys
    ):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        raw = {**yaml.safe_load(cfg_path.read_text()), **yaml.safe_load(text)}
        cfg_path.write_text(yaml.safe_dump(raw))
        fresh = tmp_path / "fresh"
        assert main(["train", "--config", str(cfg_path), "--out", str(fresh)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be a mapping" in err
        assert not fresh.exists()

    def test_images_without_pixels_are_refused(self, tmp_path, small_idx_dir, capsys):
        for prefix, n in (("train", 160), ("t10k", 80)):
            flat = RawDataset(np.zeros((n, 0, 28), np.uint8), np.arange(n) % 10)
            write_idx_pair(small_idx_dir, flat, prefix)
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        fresh = tmp_path / "fresh"
        assert main(["train", "--config", str(cfg_path), "--out", str(fresh)]) == 1
        err = capsys.readouterr().err
        images = small_idx_dir / "train-images-idx3-ubyte"
        assert err.startswith(f"error: {images}: images of 0x28 pixels")
        assert not fresh.exists()

    JOB_CHANGES = [
        (["quantum.a=0.5"], [("hyper.quantum.a", 0.0, 0.5)]),
        (["quantum.g=pi/4"], [("hyper.quantum.g", HALF_PI, math.pi / 4)]),
        (["training.seed=4"], [("hyper.seed", 3, 4)]),
        (["training.epochs=3"], [("hyper.epochs", 1, 3)]),
        (
            ["training.learning_rate=0.5", "model.hidden_size=8"],
            [("hyper.hidden_size", 16, 8), ("hyper.learning_rate", 0.01, 0.5)],
        ),
        (["training.batch_size=16"], [("hyper.batch_size", 32, 16)]),
        (["training.bp_scale=2.0"], [("hyper.bp_scale", 1.0, 2.0)]),
        (["training.val_size=16"], [("hyper.val_size", 32, 16)]),
        (["inference.shots=5"], [("policy.shots", 3, 5)]),
        (["inference.seed=6"], [("policy.seed", 5, 6)]),
        (["data.subset_seed=8"], [("data.subset_seed", 7, 8)]),
        (
            ["data.val_labels={idx}/copy-labels"],
            [("data.val_labels", "{idx}/t10k-labels-idx1-ubyte", "{idx}/copy-labels")],
        ),
    ]

    @pytest.mark.parametrize(
        "overrides, differences", JOB_CHANGES, ids=["+".join(o) for o, _ in JOB_CHANGES]
    )
    def test_finished_out_dir_answers_only_for_its_own_job(
        self, overrides, differences, tmp_path, small_idx_dir, capsys
    ):
        labels = small_idx_dir / "t10k-labels-idx1-ubyte"
        (small_idx_dir / "copy-labels").write_bytes(labels.read_bytes())  # same data, new path
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        argv = ["train", "--config", str(cfg_path)]
        for override in overrides:
            argv += ["--set", override.format(idx=small_idx_dir)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'result.json'}: records another job (")
        named = [
            f"job.{setting}: recorded {recorded!r}, asked {asked!r}".format(idx=small_idx_dir)
            for setting, recorded, asked in differences
        ]
        assert f"({'; '.join(named)});" in err  # each differing setting, and only those
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert main(["train", "--config", str(cfg_path)]) == 0  # the same job reuses it
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_result_without_a_job_record_is_refused(self, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path)]) == 0
        result = json.loads((out / "result.json").read_text())
        del result["job"]  # as written before result.json named the whole job
        (out / "result.json").write_text(json.dumps(result, sort_keys=True) + "\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        with pytest.raises(ResultMismatch):
            run_training_job(load_config(cfg_path), out)
        capsys.readouterr()
        assert main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'result.json'}: holds no job record")
        assert "delete it to re-run this job" in err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @staticmethod
    def assert_numerics_refused(recorded, command, tmp_path, idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, idx_dir)
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg_path), "--set", "sweep.a_values=[0.0]"]
        assert main(argv) == 0
        (path,) = out.rglob("result.json")
        result = json.loads(path.read_text())
        result["job"]["numerics"] = recorded
        path.write_text(json.dumps(result, sort_keys=True) + "\n")
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {path}: records another job (job.numerics: recorded {recorded}, "
                       "asked 4); delete it or choose another output directory\n")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_numerics_1_result_is_refused(self, command, tmp_path, small_idx_dir, capsys):
        # as a float64 run recorded its job
        self.assert_numerics_refused(1, command, tmp_path, small_idx_dir, capsys)

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_numerics_2_result_is_refused(self, command, tmp_path, small_idx_dir, capsys):
        # as a run with one evaluation stream per (sample, shot) recorded its job
        self.assert_numerics_refused(2, command, tmp_path, small_idx_dir, capsys)

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_numerics_3_result_is_refused(self, command, tmp_path, small_idx_dir, capsys):
        # as a run whose weak path carried amplitude pairs recorded its job
        self.assert_numerics_refused(3, command, tmp_path, small_idx_dir, capsys)

    def test_checkpoint_meta_is_the_job_record(self, tmp_path, small_idx_dir):
        cfg = load_config(write_desk_config(tmp_path, small_idx_dir))
        run_training_job(cfg, tmp_path / "job")
        job = json.loads((tmp_path / "job" / "result.json").read_text())["job"]
        assert load_checkpoint(tmp_path / "job" / "checkpoint.qckpt")[3] == job
        # every config key but the sweep grid and out_dir, under its dataclass's field name
        objects = {"data": cfg.data, "model": cfg.hyper, "training": cfg.hyper,
                   "quantum": cfg.hyper.quantum, "inference": cfg.policy}
        records = {"data": job["data"], "model": job["hyper"], "training": job["hyper"],
                   "quantum": job["hyper"]["quantum"], "inference": job["policy"]}
        settings = [key.split(".") for key in _SCHEMA if key.split(".")[0] in records]
        assert len(settings) == 20
        for name, key in settings:
            assert records[name][key] == getattr(objects[name], key)
        assert sorted(job) == ["data", "hyper", "numerics", "policy"] and job["numerics"] == 4
        leaves = len(job["data"]) + len(job["hyper"]) - 1 + len(job["hyper"]["quantum"])
        assert leaves + len(job["policy"]) == 20  # and nothing else

    def test_diverging_run_stops_with_a_named_error(self, tmp_path, small_idx_dir):
        # numpy warns of the overflow before the loss turns non-finite, and the suite treats
        # RuntimeWarning as an error, so the CLI runs in its own interpreter
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        src = str(Path(qmlp.cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-m", "qmlp.cli", "train", "--config", str(cfg_path),
                "--set", "training.learning_rate=1e308"]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 1
        assert re.fullmatch(r"error: epoch 0, batch \d+: the loss is (inf|nan)",
                            proc.stderr.splitlines()[-1])
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == ["metrics.jsonl"]
        for line in (out / "metrics.jsonl").read_text().splitlines():
            json.loads(line, parse_constant=lambda c: pytest.fail(f"{c} in metrics.jsonl"))


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

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_cell_costs_no_other_row(self, threads, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(cfg_path), "--threads", threads,
                "--set", "sweep.a_values=[0.0, 0.4, 0.8]", "--set", "sweep.g_values=[pi/2]",
                "--set", "sweep.seeds=[3]"]
        # the first cell in grid order; a file at its directory makes its mkdir raise
        blocked = out / "cells" / cell_dir_name(0.0, HALF_PI, 3)
        blocked.parent.mkdir(parents=True)
        blocked.write_bytes(b"")
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 1 of 3 cells failed, and sweep.csv holds the other ")
        assert f"{blocked}: FileExistsError: " in err and err.count("\n") == 1
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == CSV_HEADER and [row.split(",")[0] for row in rows[1:]] == ["0.4", "0.8"]
        others = {p: (p.read_bytes(), p.stat().st_mtime_ns)
                  for p in (out / "cells").rglob("*") if p.is_file() and p != blocked}
        assert len(others) == 6  # two cells' metrics, checkpoint and result

        blocked.unlink()
        assert main(argv) == 0
        assert {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in others} == others
        assert (blocked / "result.json").exists()
        rows = (out / "sweep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["0.0", "0.4", "0.8"]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the workers must inherit the patched train by fork")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_cells_are_one_named_error(self, threads, tmp_path, small_idx_dir,
                                              monkeypatch):
        cfg = load_config(write_desk_config(tmp_path, small_idx_dir),
                          ["sweep.a_values=[0.0, 0.4, 0.8]", "sweep.g_values=[pi/2]",
                           "sweep.seeds=[3]"])
        cells = tmp_path / "out" / "cells"
        blocked, broken = (cells / cell_dir_name(a, HALF_PI, 3) for a in (0.0, 0.4))
        cells.mkdir(parents=True)
        blocked.write_bytes(b"")

        def break_one(hyper, *args, **kwargs):
            if hyper.quantum.a == 0.4:
                raise RuntimeError("boom")
            return train(hyper, *args, **kwargs)

        monkeypatch.setattr(qmlp.sweep, "train", break_one)
        with pytest.raises(CellsFailed, match="^2 of 3 cells failed") as exc:
            run_sweep(cfg, threads=threads)
        message = str(exc.value)
        assert f"{blocked}: FileExistsError: " in message
        # an error no user can cause keeps the worker's traceback
        assert f"{broken}: " in message
        assert "Traceback (most recent call last):" in message
        assert "RuntimeError: boom" in message
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert rows[0] == CSV_HEADER and [row.split(",")[0] for row in rows[1:]] == ["0.8"]

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the workers must inherit the patched train by fork")
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_killed_worker_costs_only_unfinished_cells(
        self, threads, tmp_path, small_idx_dir, monkeypatch, capsys
    ):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        out = tmp_path / "out"
        a_values = ["0.0", "0.4", "0.8", "1.2"]
        argv = ["sweep", "--config", str(cfg_path), "--threads", threads,
                "--set", f"sweep.a_values=[{', '.join(a_values)}]",
                "--set", "sweep.g_values=[pi/2]", "--set", "sweep.seeds=[3]"]
        dirs = {a: out / "cells" / cell_dir_name(float(a), HALF_PI, 3) for a in a_values}

        def killed_in_last_cell(hyper, *args, **kwargs):
            if hyper.quantum.a == 1.2:
                os._exit(9)  # as an OOM kill would end the worker, mid-cell
            if hyper.quantum.a == 0.8:  # unfinished when the pool breaks, so it runs again
                time.sleep(1.0)
            return train(hyper, *args, **kwargs)

        monkeypatch.setattr(qmlp.sweep, "train", killed_in_last_cell)
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == CSV_HEADER
        finished = {row.split(",")[0] for row in rows[1:]}
        failed = {a for a in a_values if f"{dirs[a]}: " in err}
        assert failed == {"1.2"}  # every other cell ran once more, alone, and finished
        assert err.startswith(f"error: {len(failed)} of 4 cells failed, and sweep.csv holds ")
        assert err.count("\n") == 1 and f"{dirs['1.2']}: BrokenProcessPool: " in err
        for a in a_values:
            assert (a in finished) + err.count(f"{dirs[a]}: ") == 1
        others = {p: (p.read_bytes(), p.stat().st_mtime_ns)
                  for a in finished for p in dirs[a].iterdir()}
        assert len(others) == 3 * len(finished)  # metrics, checkpoint and result

        monkeypatch.undo()
        assert main(argv) == 0
        assert {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in others} == others
        assert all((dirs[a] / "result.json").exists() for a in failed)
        rows = (out / "sweep.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == a_values

    def test_pool_has_no_more_workers_than_cells(self, tmp_path, small_idx_dir, monkeypatch):
        # the fork start method forks every worker at the first submit; this pool forks none
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(qmlp.sweep, "ProcessPoolExecutor", SerialPool)
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        argv = ["sweep", "--config", str(cfg_path), "--threads", "64",
                "--set", "sweep.a_values=[0.0, 0.5]", "--set", "sweep.g_values=[pi/2]",
                "--set", "sweep.seeds=[3]"]
        assert main(argv) == 0
        assert workers == [2]
        assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize(
        "override, message",
        [
            ("sweep.a_values=[0.0, 0.0]", "sweep.a_values is empty or repeats a value"),
            ("sweep.a_values=[]", "sweep.a_values is empty or repeats a value"),
            ("sweep.a_values=[-1.0]", "stretch a must be finite and >= 0"),
            ("sweep.a_values=[.nan]", "stretch a must be finite and >= 0"),
            ("sweep.g_values=[pi/2, 2.0]", "angle g must be in [0, pi/2], got 2.0"),
            ("sweep.seeds={1: 2}", "bad value for sweep.seeds: expected a list, got {1: 2}"),
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

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_rerun_with_another_setting_changes_no_byte(
        self, threads, tmp_path, small_idx_dir, capsys
    ):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(cfg_path), "--threads", threads,
                "--set", "sweep.a_values=[0.0, 0.4]", "--set", "sweep.seeds=[3]"]
        assert main(argv) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(argv + ["--set", "training.momentum=0.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "result.json: records another job (" in err
        assert "job.hyper.momentum: recorded 0.9, asked 0.5" in err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_partly_finished_sweep_under_another_job_writes_nothing(
        self, tmp_path, small_idx_dir, capsys
    ):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(cfg_path),
                "--set", "sweep.a_values=[0.0, 0.4]", "--set", "sweep.seeds=[3]"]
        assert main(argv) == 0
        cells = sorted((out / "cells").iterdir())
        (cells[0] / "result.json").unlink()  # as a sweep killed inside its first cell leaves it
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(argv + ["--set", "training.momentum=0.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cells[1] / 'result.json'}: records another job (")
        assert "job.hyper.momentum: recorded 0.9, asked 0.5" in err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

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
    def test_float64_checkpoint_evaluates_as_float32(self, tmp_path, small_idx_dir, capsys,
                                                     monkeypatch):
        # a checkpoint as a float64 run wrote it: float64 weights, a numerics-1 job record
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        cfg = load_config(cfg_path, ["quantum.a=0.5"])
        val_set = load_datasets(cfg)[1]
        rng = np.random.default_rng(40)
        W = [rng.uniform(-0.1, 0.1, size=(16, val_set.X.shape[1])),
             rng.uniform(-0.3, 0.3, size=(10, 16))]
        ckpt = tmp_path / "float64.qckpt"
        save_checkpoint(ckpt, NetworkParams(W), epoch=1, meta={"numerics": 1})
        loaded = []

        def recording_load(path):
            loaded.append(load_checkpoint(path))
            return loaded[-1]

        monkeypatch.setattr(qmlp.cli, "load_checkpoint", recording_load)
        argv = ["eval", "--config", str(cfg_path), "--set", "quantum.a=0.5",
                "--checkpoint", str(ckpt)]
        assert main(argv) == 0
        ((params, velocity, _, _),) = loaded
        for w, lw in zip(W, params.W):
            assert lw.dtype == np.float32 and np.array_equal(lw, w.astype(np.float32))
        narrowed = NetworkParams([w.astype(np.float32) for w in W])
        det = evaluate(narrowed, val_set, InferencePolicy.deterministic())
        multi = evaluate(narrowed, val_set, cfg.policy, quantum=cfg.hyper.quantum)
        assert capsys.readouterr().out.splitlines() == [
            f"deterministic_error={det}", f"multi_shot_error={multi} shots=3 a=0.5 g={HALF_PI}"]

    @staticmethod
    def assert_old_checkpoint_evaluates(recorded, quantum, tmp_path, idx_dir, capsys):
        """A checkpoint whose meta records `numerics: recorded` evaluates as the current one."""
        cfg_path = write_desk_config(tmp_path, idx_dir)
        sets = [f"quantum.{key}={value}" for key, value in quantum.items()]
        overrides = [arg for s in sets for arg in ("--set", s)]
        assert main(["train", "--config", str(cfg_path), *overrides]) == 0
        ckpt = tmp_path / "out" / "checkpoint.qckpt"
        params, velocity, epoch, meta = load_checkpoint(ckpt)
        old = tmp_path / f"numerics{recorded}.qckpt"
        save_checkpoint(old, params, velocity, epoch, {**meta, "numerics": recorded})
        outputs = []
        for path in (ckpt, old):
            capsys.readouterr()
            argv = ["eval", "--config", str(cfg_path), *overrides, "--checkpoint", str(path)]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert meta["numerics"] == 4 and outputs[0] == outputs[1]
        assert outputs[0].startswith("deterministic_error=")

    def test_numerics_2_checkpoint_evaluates(self, tmp_path, small_idx_dir, capsys):
        self.assert_old_checkpoint_evaluates(2, {"a": 0.5}, tmp_path, small_idx_dir, capsys)

    def test_numerics_3_checkpoint_evaluates(self, tmp_path, small_idx_dir, capsys):
        # at a weak-path point, where numerics 4 changed the arithmetic
        self.assert_old_checkpoint_evaluates(3, {"a": 0.5, "g": 1.2}, tmp_path, small_idx_dir,
                                             capsys)

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
            f"{k},{float(np.mean(mode_over_shots(preds, 10)[:, k - 1] != val_set.y))!r}\n"
            for k in range(1, curve + 1)
        )
        calls = []

        def counted(*args):
            calls.append(args)
            return prediction_matrix(*args)

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

    def test_classical_shots_curve_is_the_deterministic_error(
        self, tmp_path, small_idx_dir, capsys, monkeypatch
    ):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = tmp_path / "out" / "checkpoint.qckpt"
        passes = count_deterministic_passes(monkeypatch)

        def refuse(*args, **kwargs):
            raise AssertionError("stochastic pass at the classical point")

        monkeypatch.setattr(qmlp.inference, "prediction_matrix", refuse)
        monkeypatch.setattr(qmlp.inference, "quantum_forward_batch", refuse)
        capsys.readouterr()
        argv = ["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                "--shots-curve", "5", "--out", str(tmp_path / "eval_out")]
        assert main(argv) == 0
        assert len(passes) == 1
        det = re.search(r"deterministic_error=(\S+)", capsys.readouterr().out).group(1)
        curve = (tmp_path / "eval_out" / "shots_curve.csv").read_text()
        assert curve == "shots,error\n" + "".join(f"{k},{det}\n" for k in range(1, 6))

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

    def test_checkpoint_of_another_output_width(self, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        ckpt = tmp_path / "five.qckpt"
        save_checkpoint(ckpt, init_network_params(784, 16, 1, 5, np.random.default_rng(0)))
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "output layer is 5 wide, not 10" in err

    def test_checkpoint_whose_weights_do_not_chain(self, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        ckpt = tmp_path / "unchained.qckpt"
        save_checkpoint(ckpt, NetworkParams([np.zeros((3, 784)), np.zeros((5, 2))]))
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "do not chain" in err

    @pytest.mark.parametrize(
        "overrides, rc",
        [(["quantum.a=0.5"], 1), ([], 0), (["quantum.a=0.5", "inference.mode=deterministic"], 0)],
    )
    def test_checkpoint_of_unequal_hidden_widths(
        self, overrides, rc, tmp_path, small_idx_dir, capsys
    ):
        # the quantum pass reuses one qubit per neuron; a deterministic pass needs none
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        ckpt = tmp_path / "uneven.qckpt"
        rng = np.random.default_rng(41)
        W = [rng.uniform(-0.1, 0.1, size=s) for s in ((8, 784), (4, 8), (10, 4))]
        save_checkpoint(ckpt, NetworkParams(W))
        sets = [arg for s in overrides for arg in ("--set", s)]
        assert main(["eval", "--config", str(cfg_path), *sets, "--checkpoint", str(ckpt)]) == rc
        err = capsys.readouterr().err
        assert ("hidden widths [8, 4] differ" in err) == (rc == 1)

    def test_corrupt_checkpoint(self, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        bad = tmp_path / "bad.qckpt"
        bad.write_bytes(b"garbage")
        rc = main(["eval", "--config", str(cfg_path), "--checkpoint", str(bad)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_eval_reads_only_the_validation_files(self, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        assert main(["train", "--config", str(cfg_path), "--set", "quantum.a=0.5"]) == 0
        ckpt = tmp_path / "out" / "checkpoint.qckpt"
        argv = ["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                "--set", "quantum.a=0.5"]
        missing = tmp_path / "nonexistent"
        printed = []
        for extra in (
            [],
            ["--set", f"data.train_images={missing}", "--set", f"data.train_labels={missing}"],
            ["--set", "training.train_size=161"],
        ):
            capsys.readouterr()
            assert main(argv + extra) == 0
            printed.append(capsys.readouterr().out)
        assert "multi_shot_error=" in printed[0]
        assert printed[1] == printed[0] and printed[2] == printed[0]

    def test_checkpoint_shape_that_overflows_int64(self, tmp_path, small_idx_dir, capsys):
        cfg_path = write_desk_config(tmp_path, small_idx_dir)
        side = 1 << 32  # side * side wraps to 0 in int64
        header = json.dumps({"epoch": 0, "meta": {}, "weights": [[side, side]],
                             "velocity": [[side, side]]}).encode()
        ckpt = tmp_path / "huge.qckpt"
        ckpt.write_bytes(MAGIC + struct.pack("<II", VERSION, len(header)) + header)
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr().err == f"error: {ckpt}: truncated payload\n"


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

    def test_no_files_fails(self, capsys):
        assert main(["fetch-check"]) == 1
        assert capsys.readouterr().err == "error: no files given (pass paths or --config)\n"

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


def test_checked_in_benchmark_config():
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "benchmark.yaml")
    assert cfg.data == DataConfig(
        train_images="data/mnist/train-images-idx3-ubyte",
        train_labels="data/mnist/train-labels-idx1-ubyte",
        val_images="data/mnist/t10k-images-idx3-ubyte",
        val_labels="data/mnist/t10k-labels-idx1-ubyte",
        subset_seed=7,
    )
    assert cfg.hyper == Hyperparams(
        hidden_layers=3,
        hidden_size=512,
        learning_rate=0.01,
        momentum=0.9,
        batch_size=64,
        epochs=500,
        train_size=5000,
        val_size=10000,
        quantum=QuantumConfig(a=0.0, g=HALF_PI),
        seed=1,
        bp_scale=1.0,
    )
    assert cfg.policy == InferencePolicy(mode="multi_shot", shots=15, seed=2024)
    assert cfg.a_values == (0.0, 0.0316227766, 0.1, 0.316227766, 0.4641588834, 1.0, 3.16227766)
    assert cfg.g_values == (HALF_PI,)
    assert cfg.seeds == (1,)
    assert cfg.out_dir == "runs/benchmark"
