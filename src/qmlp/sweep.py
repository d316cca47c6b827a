"""Training jobs and (a, g, seed) sweep orchestration.

Each cell of a sweep trains one model on the same fixed data subset and
owns one output directory containing:

    metrics.jsonl   one JSON record per epoch (no timestamps, so two
                    identical runs produce identical bytes)
    checkpoint.qckpt  final weights + optimizer state (deterministic bytes)
    result.json     summary row for the sweep CSV (includes wall time)

checkpoint.qckpt and result.json are written through a temporary file and
a rename, and result.json last. A cell whose result.json already exists is
skipped wholesale, so re-running a finished sweep rewrites nothing and a
crashed sweep resumes where it stopped; a result.json that does not parse
raises ResultCorrupt. Cells are independent, which is what makes
--threads > 1 safe and result-invariant.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache
from pathlib import Path

from .checkpoint import save_checkpoint, write_atomic
from .config import RunConfig
from .data import encode_dataset, load_raw_dataset, subset
from .inference import InferencePolicy, evaluate
from .rng import mix64
from .training import train, training_error

CSV_HEADER = "a,g,seed,final_val_error,final_train_error,best_val_error,wall_time_s"


class ResultCorrupt(ValueError):
    """A run directory's result.json exists but does not parse."""


@lru_cache(maxsize=4)
def _load_encoded(train_images, train_labels, val_images, val_labels,
                  train_size, val_size, subset_seed):
    train_raw = load_raw_dataset(train_images, train_labels)
    val_raw = load_raw_dataset(val_images, val_labels)
    train_raw = subset(train_raw, train_size, subset_seed)
    if val_size < val_raw.count:
        # dedicated val stream so the val subset is also sweep-invariant
        val_raw = subset(val_raw, val_size, mix64(subset_seed, 1))
    return encode_dataset(train_raw), encode_dataset(val_raw)


def load_datasets(cfg: RunConfig):
    return _load_encoded(
        cfg.data.train_images,
        cfg.data.train_labels,
        cfg.data.val_images,
        cfg.data.val_labels,
        cfg.hyper.train_size,
        cfg.hyper.val_size,
        cfg.data.subset_seed,
    )


def _epoch_dict(record) -> dict:
    return {
        "epoch": record.epoch,
        "train_error": record.train_error,
        "val_error": record.val_error,
        "mean_loss": record.mean_loss,
    }


def run_training_job(cfg: RunConfig, out_dir, resume: bool = True) -> dict:
    """Train one model under cfg.hyper and write its artifacts to out_dir."""
    out_dir = Path(out_dir)
    result_path = out_dir / "result.json"
    if resume and result_path.exists():
        try:
            return json.loads(result_path.read_text())
        except ValueError as exc:
            raise ResultCorrupt(
                f"{result_path}: unreadable ({exc}); delete it to re-run this job"
            ) from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    train_set, val_set = load_datasets(cfg)

    metrics_path = out_dir / "metrics.jsonl"
    start = time.perf_counter()
    with open(metrics_path, "w", encoding="utf-8") as log:
        metrics = train(
            cfg.hyper,
            train_set,
            val_set,
            on_epoch=lambda rec: log.write(
                json.dumps(_epoch_dict(rec), sort_keys=True) + "\n"
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

    final_val = evaluate(metrics.params, val_set, cfg.policy, quantum=cfg.hyper.quantum)
    det_val = evaluate(metrics.params, val_set, InferencePolicy.deterministic())
    val_errors = [r.val_error for r in metrics.records]
    result = {
        "a": cfg.hyper.quantum.a,
        "g": cfg.hyper.quantum.g,
        "seed": cfg.hyper.seed,
        "final_val_error": final_val,
        "final_val_error_deterministic": det_val,
        "final_train_error": training_error(metrics.params, train_set),
        # best over the per-epoch curve (per-epoch measurement policy)
        "best_val_error": min(val_errors) if val_errors else det_val,
        "wall_time_s": wall,
        "epochs": cfg.hyper.epochs,
    }
    write_atomic(result_path, (json.dumps(result, sort_keys=True) + "\n").encode("utf-8"))
    return result


def cell_dir_name(a: float, g: float, seed: int) -> str:
    return f"a{a!r}_g{g!r}_s{seed}"


def _run_cell(args):
    cfg, a, g, seed, out_dir = args
    return run_training_job(cfg.with_quantum(a, g, seed), Path(out_dir))


def run_cells(cfg: RunConfig, cells, out_dir, threads: int = 1):
    """Run (a, g, seed) cells under out_dir/cells/, possibly in parallel."""
    out_dir = Path(out_dir)
    jobs = [
        (cfg, a, g, seed, str(out_dir / "cells" / cell_dir_name(a, g, seed)))
        for a, g, seed in cells
    ]
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_run_cell, jobs))
    else:
        results = [_run_cell(job) for job in jobs]
    return results


def sweep_rows(results) -> list:
    rows = sorted(results, key=lambda r: (r["a"], r["g"], r["seed"]))
    return [
        f'{r["a"]!r},{r["g"]!r},{r["seed"]},{r["final_val_error"]!r},'
        f'{r["final_train_error"]!r},{r["best_val_error"]!r},{r["wall_time_s"]!r}'
        for r in rows
    ]


def write_sweep_csv(path, results):
    lines = [CSV_HEADER] + sweep_rows(results)
    Path(path).write_text("\n".join(lines) + "\n")


def run_sweep(cfg: RunConfig, out_dir=None, threads: int = 1):
    """Train the full a_values x g_values x seeds grid and write sweep.csv."""
    out_dir = Path(out_dir if out_dir is not None else cfg.out_dir)
    cells = [(a, g, s) for a in cfg.a_values for g in cfg.g_values for s in cfg.seeds]
    results = run_cells(cfg, cells, out_dir, threads=threads)
    write_sweep_csv(out_dir / "sweep.csv", results)
    return results
