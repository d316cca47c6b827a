"""Child-process entry points of the benchmark.

    child.py prep   --dir D --train-n N --val-n N --seed S [--checkpoint-config Y]
    child.py setup  --config Y [--checkpoint C] [--trace-out F]
    child.py sweep  --trace-out F --spans-out F -- <qmlp cli arguments>

`prep` writes the synthetic corpus (and, for evaluation, a trained
checkpoint) once per seed; nothing it does is timed. `setup` performs a
workload's set-up in a fresh interpreter and prints the CLOCK_MONOTONIC
time at which it finished, so the parent can time it from process start.
`sweep` runs the qmlp CLI in-process under the tracer.

The parent sets PYTHONPATH to the checkout's src/ and pins BLAS threads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

from common import TESTS


def cmd_prep(args) -> int:
    directory = Path(args.dir)
    corpus = directory / "corpus"
    if not corpus.is_dir():
        sys.path.insert(0, str(TESTS))
        from synthdigits import make_raw_dataset, write_idx_pair

        tmp = directory / "corpus.tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        # even/odd generator seeds keep train and validation corpora apart
        write_idx_pair(tmp, make_raw_dataset(args.train_n, 2 * args.seed), "train")
        write_idx_pair(tmp, make_raw_dataset(args.val_n, 2 * args.seed + 1), "t10k")
        os.replace(tmp, corpus)
    if args.checkpoint_config:
        ckpt = Path(args.checkpoint)
        if not ckpt.is_file():
            from qmlp import checkpoint, config, sweep, training

            cfg = config.load_config(args.checkpoint_config)
            train_set, val_set = sweep.load_datasets(cfg)
            metrics = training.train(cfg.hyper, train_set, val_set)
            tmp = ckpt.with_suffix(".tmp")
            checkpoint.save_checkpoint(tmp, metrics.params, epoch=cfg.hyper.epochs)
            os.replace(tmp, ckpt)
    return 0


def cmd_setup(args) -> int:
    t0 = time.perf_counter()
    import qmlp.cli  # noqa: F401  (the import a user of the CLI pays)
    import_s = time.perf_counter() - t0

    from qmlp import checkpoint, config, sweep

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer().install()
    cfg = config.load_config(args.config)
    sweep.load_datasets(cfg)
    if args.checkpoint:
        checkpoint.load_checkpoint(args.checkpoint)
    done = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
        out = tracer.summary()
        out["cli.import_s"] = import_s
        Path(args.trace_out).write_text(json.dumps(out))
    print(json.dumps({"done_monotonic": done}))
    return 0


def cmd_sweep(args) -> int:
    import qmlp.cli
    from tracing import Tracer

    tracer = Tracer().install()
    try:
        rc = tracer.call("bench.op", qmlp.cli.main, args.cli)
    finally:
        tracer.uninstall()
    Path(args.trace_out).write_text(json.dumps(tracer.summary()))
    tracer.write_spans(args.spans_out)
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("prep")
    p.add_argument("--dir", required=True)
    p.add_argument("--train-n", type=int, required=True)
    p.add_argument("--val-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--checkpoint-config")
    p.add_argument("--checkpoint")
    p.set_defaults(func=cmd_prep)
    p = sub.add_parser("setup")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--trace-out")
    p.set_defaults(func=cmd_setup)
    p = sub.add_parser("sweep")
    p.add_argument("--trace-out", required=True)
    p.add_argument("--spans-out", required=True)
    p.add_argument("cli", nargs=argparse.REMAINDER)
    p.set_defaults(func=cmd_sweep)
    args = parser.parse_args(argv)
    if getattr(args, "cli", None) and args.cli[0] == "--":
        args.cli = args.cli[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
