"""Command-line interface: train, sweep, eval, fetch-check."""

from __future__ import annotations

import argparse
import struct
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from .checkpoint import CheckpointCorrupt, load_checkpoint
from .config import RunConfig, load_config
from .inference import (
    EmptyDataset,
    InferencePolicy,
    evaluate,
    mode_over_shots,
    prediction_matrix,
)
from .sweep import ResultCorrupt, load_datasets, run_sweep, run_training_job
from .training import ConfigInvalid

_KNOWN_ERRORS = (
    ConfigInvalid,
    CheckpointCorrupt,
    ResultCorrupt,
    EmptyDataset,
    data_mod.MagicMismatch,
    data_mod.TruncatedFile,
    data_mod.LabelOutOfRange,
    data_mod.SubsetTooLarge,
    OSError,
)


def _job_config(args) -> RunConfig:
    """The run config of train and sweep: --seed and --out applied last."""
    sets = list(args.set or [])
    if args.seed is not None:
        sets.append(f"training.seed={args.seed}")
    cfg = load_config(args.config, sets)
    return replace(cfg, out_dir=str(args.out)) if args.out else cfg


def cmd_train(args) -> int:
    cfg = _job_config(args)
    out_dir = Path(cfg.out_dir)
    result = run_training_job(cfg, out_dir)
    for key in (
        "final_train_error",
        "final_val_error",
        "final_val_error_deterministic",
        "best_val_error",
        "wall_time_s",
    ):
        print(f"{key}={result[key]}")
    print(f"artifacts in {out_dir}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _job_config(args)
    results = run_sweep(cfg, threads=args.threads)
    print(f"{len(results)} cells done; table at {Path(cfg.out_dir) / 'sweep.csv'}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config, args.set or ())
    params, _opt, _epoch, _meta = load_checkpoint(args.checkpoint)
    _train_set, val_set = load_datasets(cfg)
    quantum = cfg.hyper.quantum
    det = evaluate(params, val_set, InferencePolicy.deterministic())
    print(f"deterministic_error={det}")
    if cfg.policy.mode == "multi_shot":
        err = evaluate(params, val_set, cfg.policy, quantum=quantum)
        print(f"multi_shot_error={err} shots={cfg.policy.shots} a={quantum.a} g={quantum.g}")
    if args.shots_curve:
        preds = prediction_matrix(
            params, val_set, quantum, args.shots_curve, cfg.policy.seed
        )
        lines = ["shots,error"]
        for k in range(1, args.shots_curve + 1):
            errs = mode_over_shots(preds[:, :k], params.output_size)
            lines.append(f"{k},{float(np.mean(errs != val_set.y))!r}")
        out_dir = Path(args.out or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        curve_path = out_dir / "shots_curve.csv"
        curve_path.write_text("\n".join(lines) + "\n")
        print(f"shots curve written to {curve_path}")
    return 0


def _check_idx_file(path: str) -> str:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4:
        raise data_mod.TruncatedFile(f"{path}: too short for a magic word")
    (magic,) = struct.unpack(">I", blob[:4])
    if magic == data_mod.IMAGE_MAGIC:
        images = data_mod.parse_idx_images(blob)
        expected = 16 + images.size
        if len(blob) != expected:
            raise data_mod.TruncatedFile(
                f"{path}: {len(blob) - expected} trailing bytes after image payload"
            )
        n, rows, cols = images.shape
        return f"{path}: images n={n} {rows}x{cols} OK"
    if magic == data_mod.LABEL_MAGIC:
        labels = data_mod.parse_idx_labels(blob)
        expected = 8 + len(labels)
        if len(blob) != expected:
            raise data_mod.TruncatedFile(
                f"{path}: {len(blob) - expected} trailing bytes after label payload"
            )
        return f"{path}: labels n={len(labels)} OK"
    raise data_mod.MagicMismatch(f"{path}: unknown magic {magic:#010x}")


def cmd_fetch_check(args) -> int:
    paths = list(args.paths)
    if not paths and args.config:
        cfg = load_config(args.config, args.set or ())
        paths = [
            cfg.data.train_images,
            cfg.data.train_labels,
            cfg.data.val_images,
            cfg.data.val_labels,
        ]
    if not paths:
        print("error: no files given (pass paths or --config)", file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        try:
            print(_check_idx_file(path))
        except _KNOWN_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmlp",
        description="Binarized MLP with tunable quantum-measurement activations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, summary, func, job=False):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="YAML run configuration")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config entry, e.g. --set quantum.a=0.5",
        )
        if job:
            p.add_argument("--out", help="output directory (overrides config out_dir)")
            p.add_argument("--seed", type=int, help="override the training seed")
        p.set_defaults(func=func)
        return p

    add("train", "train one model and write its artifacts", cmd_train, job=True)

    p_sweep = add("sweep", "train every (a, g, seed) grid cell", cmd_sweep, job=True)
    p_sweep.add_argument("--threads", type=int, default=1, help="worker processes")

    p_eval = add("eval", "evaluate a checkpoint on the validation set", cmd_eval)
    p_eval.add_argument("--out", help="directory for shots_curve.csv (default: .)")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument(
        "--shots-curve",
        type=int,
        metavar="MAX",
        help="also write error vs shots for 1..MAX",
    )

    p_check = add("fetch-check", "validate IDX files by magic and size", cmd_fetch_check)
    p_check.add_argument("paths", nargs="*", help="IDX files to validate")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _KNOWN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
