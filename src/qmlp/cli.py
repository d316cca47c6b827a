"""Command-line interface: train, sweep, eval, fetch-check."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import data as data_mod
from .checkpoint import load_checkpoint, write_atomic
from .config import RunConfig, load_config
from .inference import InferencePolicy, evaluate, vote_errors
from .network import QmlpError, ShapeMismatch
from .sweep import load_val_set, run_sweep, run_training_job


def _job_config(args) -> RunConfig:
    """The run config of train and sweep: --out applied last."""
    cfg = load_config(args.config, args.set or ())
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
    params = load_checkpoint(args.checkpoint)[0]
    if params.output_size != data_mod.NUM_CLASSES:
        raise ShapeMismatch(f"{args.checkpoint}: output layer is {params.output_size} wide, "
                            f"not {data_mod.NUM_CLASSES}")
    val_set = load_val_set(cfg)
    quantum, policy, curve = cfg.hyper.quantum, cfg.policy, args.shots_curve
    multi = policy.mode == "multi_shot"
    det = evaluate(params, val_set, InferencePolicy.deterministic())
    print(f"deterministic_error={det}")
    # errors[k - 1] is the k-shot vote's error; one matrix of width max(shots, curve) gives all
    width = max(policy.shots if multi else 0, curve or 0)
    errors = vote_errors(params, val_set, quantum, width, policy.seed, det) if width else []
    if multi:
        err = errors[policy.shots - 1]
        print(f"multi_shot_error={err} shots={policy.shots} a={quantum.a} g={quantum.g}")
    if curve:
        lines = ["shots,error"] + [f"{k},{e!r}" for k, e in enumerate(errors[:curve], 1)]
        out_dir = Path(args.out or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        curve_path = out_dir / "shots_curve.csv"
        write_atomic(curve_path, ("\n".join(lines) + "\n").encode("utf-8"))
        print(f"shots curve written to {curve_path}")
    return 0


def _check_idx_file(path: str) -> str:
    array = data_mod.read_idx(path, data_mod.parse_idx)
    if array.ndim == 3:
        n, rows, cols = array.shape
        return f"{path}: images n={n} {rows}x{cols} OK"
    return f"{path}: labels n={len(array)} OK"


def cmd_fetch_check(args) -> int:
    paths = list(args.paths)
    if not paths and args.config:
        data = load_config(args.config, args.set or ()).data
        paths = [data.train_images, data.train_labels, data.val_images, data.val_labels]
    if not paths:
        print("error: no files given (pass paths or --config)", file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        try:
            print(_check_idx_file(path))
        except (QmlpError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


def positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


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
        p.set_defaults(func=func)
        return p

    add("train", "train one model and write its artifacts", cmd_train, job=True)

    p_sweep = add("sweep", "train every (a, g, seed) grid cell", cmd_sweep, job=True)
    p_sweep.add_argument("--threads", type=positive_int, default=1, help="worker processes")

    p_eval = add("eval", "evaluate a checkpoint on the validation set", cmd_eval)
    p_eval.add_argument("--out", help="directory for shots_curve.csv (default: .)")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument(
        "--shots-curve",
        type=positive_int,
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
    except (QmlpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
