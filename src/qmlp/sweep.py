"""Training jobs and (a, g, seed) sweep orchestration.

Each cell of a sweep trains one model on the same fixed data subset and
owns one output directory containing:

    metrics.jsonl   one JSON record per epoch (no timestamps, so two
                    identical runs produce identical bytes)
    checkpoint.qckpt  final weights + velocity; its meta is the job record
    result.json     sweep CSV row, wall time, and the job record (every job setting)

checkpoint.qckpt, result.json and sweep.csv are written through a
temporary file and a rename, a cell's result.json last; a job refused for
its config or data touches no file. A cell whose result.json already
exists is skipped wholesale, so re-running a finished sweep rewrites
nothing and a crashed sweep resumes where it stopped; a result.json that
does not parse raises ResultCorrupt, and one whose job record is not the
asked job's, or that holds none, raises ResultMismatch; a sweep checks
every cell's result.json before it trains any cell. Every cell trains in
a worker process, one at a time at --threads 1; cells are independent, so
--threads changes no result, and a cell that raises stops no other. A
worker that dies breaks the pool, so each cell that was running or queued
runs once more, alone, and fails only if its worker dies again: sweep.csv
holds the finished cells' rows, and CellsFailed then names each failed
cell, so a re-run trains only the failed cells.
"""

from __future__ import annotations

import json
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
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
NUMERICS = 4  # version of the arithmetic and streams behind a job's artifacts; see README


class ResultCorrupt(QmlpError):
    """A run directory's result.json exists but does not parse."""


class ResultMismatch(QmlpError):
    """A run directory's result.json records another job, or no job record."""


class CellsFailed(QmlpError):
    """One or more sweep cells raised; sweep.csv holds the other cells' rows."""


@lru_cache(maxsize=4)
def _train_split(data: DataConfig, size: int):
    raw = load_raw_dataset(data.train_images, data.train_labels)
    return encode_dataset(subset(raw, size, data.subset_seed))


@lru_cache(maxsize=4)
def _val_split(data: DataConfig, size: int):
    raw = load_raw_dataset(data.val_images, data.val_labels)
    if size < raw.count:  # dedicated val stream so the val subset is also sweep-invariant
        raw = subset(raw, size, mix64(data.subset_seed, 1))
    return encode_dataset(raw)


def load_val_set(cfg: RunConfig):
    """The encoded validation split alone; the training files are not read."""
    return _val_split(cfg.data, cfg.hyper.val_size)


def load_datasets(cfg: RunConfig):
    """The encoded (training, validation) splits, each cached on its own."""
    return _train_split(cfg.data, cfg.hyper.train_size), load_val_set(cfg)


def _settings(value, name="job") -> dict:
    """The leaves of a nested job record, by dotted name."""
    if not isinstance(value, dict):
        return {name: value}
    return {k: v for key, sub in value.items() for k, v in _settings(sub, f"{name}.{key}").items()}


def _job(cfg: RunConfig) -> dict:
    """The job record: every setting of cfg but the sweep grid and out_dir, and NUMERICS."""
    return {"data": asdict(cfg.data), "hyper": asdict(cfg.hyper), "policy": asdict(cfg.policy),
            "numerics": NUMERICS}


def _finished_result(result_path: Path, job: dict):
    """The result in result_path if it records `job`, or None if there is no such file.

    Raises ResultCorrupt if it does not parse, ResultMismatch if it records
    another job or no job record.
    """
    if not result_path.exists():
        return None
    try:
        result = json.loads(result_path.read_text())
        recorded = result.get("job")
    except (ValueError, AttributeError) as exc:
        raise ResultCorrupt(
            f"{result_path}: unreadable ({exc!r}); delete it to re-run this job"
        ) from exc
    if not isinstance(recorded, dict):
        raise ResultMismatch(f"{result_path}: holds no job record, so its job cannot be "
                             "checked; delete it to re-run this job")
    if recorded != job:
        old, new = _settings(recorded), _settings(job)
        diff = "; ".join(f"{k}: recorded {old.get(k)!r}, asked {new.get(k)!r}"
                         for k in sorted(old.keys() | new.keys()) if old.get(k) != new.get(k))
        raise ResultMismatch(f"{result_path}: records another job ({diff}); "
                             "delete it or choose another output directory")
    return result


def run_training_job(cfg: RunConfig, out_dir) -> dict:
    """Train one model under cfg.hyper and write its artifacts to out_dir."""
    out_dir = Path(out_dir)
    result_path = out_dir / "result.json"
    job = _job(cfg)
    result = _finished_result(result_path, job)
    if result is not None:
        return result
    train_set, val_set = load_datasets(cfg)
    check_datasets(train_set, val_set)  # a refused job leaves out_dir as it was
    out_dir.mkdir(parents=True, exist_ok=True)

    metrics_path = out_dir / "metrics.jsonl"
    start = time.perf_counter()
    with open(metrics_path, "w", encoding="utf-8") as log:
        metrics = train(  # each epoch's row reaches the file as the epoch ends
            cfg.hyper,
            train_set,
            val_set,
            on_epoch=lambda rec: print(
                json.dumps(asdict(rec), sort_keys=True), file=log, flush=True
            ),
        )
    wall = time.perf_counter() - start

    save_checkpoint(
        out_dir / "checkpoint.qckpt", metrics.params, metrics.velocity, cfg.hyper.epochs, job
    )

    if metrics.records:  # the last epoch measured these weights deterministically
        train_err, det_val = metrics.records[-1].train_error, metrics.records[-1].val_error
    else:
        train_err = training_error(metrics.params, train_set)
        det_val = evaluate(metrics.params, val_set, InferencePolicy.deterministic())
    final_val = evaluate(metrics.params, val_set, cfg.policy, cfg.hyper.quantum, det=det_val)
    val_errors = [r.val_error for r in metrics.records]
    result = {
        "a": cfg.hyper.quantum.a, "g": cfg.hyper.quantum.g, "seed": cfg.hyper.seed,
        "epochs": cfg.hyper.epochs, "job": job,
        "final_val_error": final_val,
        "final_val_error_deterministic": det_val,
        "final_train_error": train_err,
        # best over the per-epoch curve (per-epoch measurement policy)
        "best_val_error": min(val_errors) if val_errors else det_val,
        "wall_time_s": wall,
    }
    write_atomic(result_path, (json.dumps(result, sort_keys=True) + "\n").encode("utf-8"))
    return result


def cell_dir_name(a: float, g: float, seed: int) -> str:
    return f"a{a!r}_g{g!r}_s{seed}"


def _outcome(out_dir: Path, future):
    """The cell's result, or the error it raised as text, so that one failing
    cell stops no other; an error no user can cause keeps its traceback."""
    try:
        return future.result()
    except (QmlpError, OSError, BrokenProcessPool) as exc:
        return f"{out_dir}: {type(exc).__name__}: {exc}"
    except Exception:
        return f"{out_dir}: {traceback.format_exc()}"


def _run_in_pool(workers: int, jobs) -> list:
    """The futures of run_training_job on each (cfg, out_dir) of jobs, all done."""
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [pool.submit(run_training_job, c, d) for c, d in jobs]


def run_cells(cfg: RunConfig, cells, out_dir, threads: int = 1):
    """Run (a, g, seed) cells under out_dir/cells/ in up to `threads` worker
    processes, and write out_dir/sweep.csv from the cells that finish.

    Every finished cell's result.json is checked against its job before any
    cell trains, so a sweep re-run under another job stops with every byte
    unchanged instead of mixing two jobs' cells. A cell that raises stops no
    other cell. A dead worker breaks the pool, so every cell that had not
    finished then runs once more, alone in a fresh one-worker pool, and only
    a cell whose worker dies again fails. After sweep.csv is written,
    CellsFailed names each failed cell's directory and error.
    """
    cfgs = [cfg.with_quantum(a, g, seed) for a, g, seed in cells]
    dirs = [Path(out_dir) / "cells" / cell_dir_name(a, g, seed) for a, g, seed in cells]
    for cell_cfg, cell_dir in zip(cfgs, dirs):
        _finished_result(cell_dir / "result.json", _job(cell_cfg))
    futures = _run_in_pool(min(threads, len(cfgs)), zip(cfgs, dirs))
    # a dead worker breaks the whole pool: each cell it took down runs once more, alone
    futures = [_run_in_pool(1, [(c, d)])[0] if isinstance(f.exception(), BrokenProcessPool)
               else f for c, d, f in zip(cfgs, dirs, futures)]
    outcomes = [_outcome(d, f) for d, f in zip(dirs, futures)]
    results = [r for r in outcomes if isinstance(r, dict)]
    write_sweep_csv(Path(out_dir) / "sweep.csv", results)
    failed = [r for r in outcomes if isinstance(r, str)]
    if failed:
        raise CellsFailed(f"{len(failed)} of {len(outcomes)} cells failed, and sweep.csv "
                          "holds the other cells' rows: " + "; ".join(failed))
    return results


def write_sweep_csv(path, results):
    """Write one CSV_HEADER row per result, sorted by (a, g, seed)."""
    rows = sorted(results, key=lambda r: (r["a"], r["g"], r["seed"]))
    lines = [CSV_HEADER] + [",".join(str(r[k]) for k in CSV_HEADER.split(",")) for r in rows]
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def run_sweep(cfg: RunConfig, threads: int = 1):
    """Train the full a_values x g_values x seeds grid under cfg.out_dir and write sweep.csv."""
    cells = [(a, g, s) for a in cfg.a_values for g in cfg.g_values for s in cfg.seeds]
    return run_cells(cfg, cells, cfg.out_dir, threads=threads)
