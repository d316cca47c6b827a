"""Training jobs and (a, g, seed) sweep orchestration.

Each cell of a sweep trains one model on the same fixed data subset and
owns one output directory containing:

    metrics.jsonl   one JSON record per epoch (no timestamps, so two
                    identical runs produce identical bytes)
    checkpoint.qckpt  final weights + optimizer state (deterministic bytes)
    result.json     summary row for the sweep CSV (includes wall time)

checkpoint.qckpt, result.json and sweep.csv are written through a
temporary file and a rename, a cell's result.json last; a job refused for
its config or data touches no file. A cell whose result.json already
exists is skipped wholesale, so re-running a finished sweep rewrites
nothing and a crashed sweep resumes where it stopped; a result.json that
does not parse raises ResultCorrupt. Cells are independent, which is what
makes --threads > 1 safe and result-invariant.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path

from .checkpoint import save_checkpoint, write_atomic
from .config import DataConfig, RunConfig
from .data import encode_dataset, load_raw_dataset, subset
from .inference import InferencePolicy, evaluate
from .network import QmlpError
from .rng import mix64
from .training import check_datasets, train, training_error

CSV_HEADER = "a,g,seed,final_val_error,final_train_error,best_val_error,wall_time_s"


class ResultCorrupt(QmlpError):
    """A run directory's result.json exists but does not parse."""


@lru_cache(maxsize=4)
def _load_encoded(data: DataConfig, train_size: int, val_size: int):
    train_raw = load_raw_dataset(data.train_images, data.train_labels)
    val_raw = load_raw_dataset(data.val_images, data.val_labels)
    train_raw = subset(train_raw, train_size, data.subset_seed)
    if val_size < val_raw.count:
        # dedicated val stream so the val subset is also sweep-invariant
        val_raw = subset(val_raw, val_size, mix64(data.subset_seed, 1))
    return encode_dataset(train_raw), encode_dataset(val_raw)


def load_datasets(cfg: RunConfig):
    return _load_encoded(cfg.data, cfg.hyper.train_size, cfg.hyper.val_size)


def run_training_job(cfg: RunConfig, out_dir) -> dict:
    """Train one model under cfg.hyper and write its artifacts to out_dir."""
    out_dir = Path(out_dir)
    result_path = out_dir / "result.json"
    if result_path.exists():
        try:
            return json.loads(result_path.read_text())
        except ValueError as exc:
            raise ResultCorrupt(
                f"{result_path}: unreadable ({exc}); delete it to re-run this job"
            ) from exc
    train_set, val_set = load_datasets(cfg)
    check_datasets(cfg.hyper, train_set, val_set)  # a refused job leaves out_dir as it was
    out_dir.mkdir(parents=True, exist_ok=True)

    metrics_path = out_dir / "metrics.jsonl"
    start = time.perf_counter()
    with open(metrics_path, "w", encoding="utf-8") as log:
        metrics = train(
            cfg.hyper,
            train_set,
            val_set,
            on_epoch=lambda rec: log.write(
                json.dumps(asdict(rec), sort_keys=True) + "\n"
            ),
        )
    wall = time.perf_counter() - start

    save_checkpoint(
        out_dir / "checkpoint.qckpt",
        metrics.params,
        metrics.opt,
        epoch=cfg.hyper.epochs,
        meta={"a": cfg.hyper.quantum.a, "g": cfg.hyper.quantum.g, "seed": cfg.hyper.seed},
    )

    if metrics.records:  # the last epoch measured these weights deterministically
        train_err, det_val = metrics.records[-1].train_error, metrics.records[-1].val_error
    else:
        train_err = training_error(metrics.params, train_set)
        det_val = evaluate(metrics.params, val_set, InferencePolicy.deterministic())
    if cfg.policy.deterministic_at(cfg.hyper.quantum):
        final_val = det_val
    else:
        final_val = evaluate(metrics.params, val_set, cfg.policy, quantum=cfg.hyper.quantum)
    val_errors = [r.val_error for r in metrics.records]
    result = {
        "a": cfg.hyper.quantum.a,
        "g": cfg.hyper.quantum.g,
        "seed": cfg.hyper.seed,
        "final_val_error": final_val,
        "final_val_error_deterministic": det_val,
        "final_train_error": train_err,
        # best over the per-epoch curve (per-epoch measurement policy)
        "best_val_error": min(val_errors) if val_errors else det_val,
        "wall_time_s": wall,
        "epochs": cfg.hyper.epochs,
    }
    write_atomic(result_path, (json.dumps(result, sort_keys=True) + "\n").encode("utf-8"))
    return result


def cell_dir_name(a: float, g: float, seed: int) -> str:
    return f"a{a!r}_g{g!r}_s{seed}"


def run_cells(cfg: RunConfig, cells, out_dir, threads: int = 1):
    """Run (a, g, seed) cells under out_dir/cells/, possibly in parallel."""
    cfgs = [cfg.with_quantum(a, g, seed) for a, g, seed in cells]
    dirs = [Path(out_dir) / "cells" / cell_dir_name(a, g, seed) for a, g, seed in cells]
    if threads > 1 and len(cfgs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run_training_job, cfgs, dirs))
    return list(map(run_training_job, cfgs, dirs))


def write_sweep_csv(path, results):
    """Write one CSV_HEADER row per result, sorted by (a, g, seed)."""
    rows = sorted(results, key=lambda r: (r["a"], r["g"], r["seed"]))
    lines = [CSV_HEADER] + [",".join(str(r[k]) for k in CSV_HEADER.split(",")) for r in rows]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def run_sweep(cfg: RunConfig, threads: int = 1):
    """Train the full a_values x g_values x seeds grid under cfg.out_dir and write sweep.csv."""
    out_dir = Path(cfg.out_dir)
    cells = [(a, g, s) for a in cfg.a_values for g in cfg.g_values for s in cfg.seeds]
    results = run_cells(cfg, cells, out_dir, threads=threads)
    write_sweep_csv(out_dir / "sweep.csv", results)
    return results
