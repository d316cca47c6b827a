"""The benchmark's four workloads, their output checks and their metrics.

Every workload is one closed-loop caller: each epoch, evaluation or sweep
starts after the previous one returns. Only `sweep-desk` runs work in
parallel, through `qmlp sweep --threads 2` (two workers, one per core of
the 2-core reference machine).

    train-classical  3x512 epoch at a=0, g=pi/2; quantum and rng idle
    train-stretch    the same epoch at a=0.316227766: projective path
    eval-combined    15-shot evaluation at a=0.4641588834, g=9pi/19: weak path
    sweep-desk       `qmlp sweep` over a 2x2 desk grid of 2x128 networks

A workload's "op" is its unit of work: one epoch (train-*), one 15-shot
`inference.evaluate` (eval-combined) or one `qmlp sweep` command
(sweep-desk). Per-layer times and counts are reported per op, except the
set-up layers (data.load_datasets, config.load, cli.import,
checkpoint.load_checkpoint), which are per set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from qmlp import checkpoint, config, inference, network, quantum, rng, sweep, training
from qmlp.data import EncodedDataset

from common import BENCH, ROOT, WORK, child_env, quantile, timing
from tracing import LAYERED, Tracer

_now = time.perf_counter

# (a, g) points named in the paper's best-setting table.
CLASSICAL = (0.0, "pi/2")
STRETCH = (0.316227766, "pi/2")
COMBINED = (0.4641588834, "9pi/19")
# The desk grid: a in {0, 0.316227766} x g in {pi/2, 5pi/19} gives the
# classical, best-stretch and best-weak cells plus one combined cell.
DESK_A = [0.0, 0.316227766]
DESK_G = ["pi/2", "5pi/19"]

SET_UPS = 7          # set-up repetitions whose median is setup_s
TRAIN_EPOCHS = 2     # epochs per training.train call (one closed-loop call)
SWEEP_THREADS = 2
KEEP_SEEDS = 12      # seeds whose inputs stay cached in perfbench/.work

# Shapes per size. "full" is the benchmark; "tiny" exists for the smoke test.
# max_error guards quality: a broken kernel predicts at chance (0.9).
SIZES = {
    "full": {
        "corpus": (5000, 10000),
        "train": dict(layers=3, width=512, train_size=5000, val_size=10000),
        # 1,024 validation samples: a 10k x 15-shot evaluation takes ~40 s
        # on the reference machine, longer than one run may measure.
        "eval": dict(layers=3, width=512, train_size=5000, val_size=1024),
        "sweep": dict(layers=2, width=128, train_size=1000, val_size=2000, epochs=5),
        "max_error": 0.5,
    },
    "tiny": {
        "corpus": (256, 256),
        "train": dict(layers=2, width=32, train_size=256, val_size=128),
        "eval": dict(layers=2, width=32, train_size=256, val_size=64),
        "sweep": dict(layers=2, width=16, train_size=128, val_size=64, epochs=2),
        "max_error": 0.9,
    },
}

END_TO_END = {
    "op_s": ("s", "lower"),
    "samples_per_s": ("1/s", "higher"),
    "step_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def _per_layer_names():
    names = [
        "data.load_datasets_s", "data.batchplan_s",
        "rng.substream_calls", "rng.substream_s",
        "rng.default_rng_calls", "rng.default_rng_s", "rng.draw_s",
        "quantum.forward_batch_s", "quantum.forward_batch.self_s",
    ]
    for base in LAYERED:
        names += [f"{base}_s"] + [f"{base}_s.L{k}" for k in (1, 2, 3)]
    names += [
        "quantum.ry_update.exact_angle_frac",
        "network.classical_forward_batch_s", "network.softmax_cross_entropy_batch_s",
        "network.ste_backward_batch_s", "network.ste_backward.gate_pass_frac",
        "training.sgd_momentum_step_s", "training.train.self_s", "training.training_error_s",
        "inference.predict_batch_deterministic_s", "inference.evaluate_s",
        "inference.prediction_matrix_s", "inference.prediction_matrix.self_s",
        "inference.mode_over_shots_s",
        "checkpoint.save_checkpoint_s", "checkpoint.bytes_written", "checkpoint.load_checkpoint_s",
        "sweep.cell_wall_s", "sweep.worker_busy_frac",
        "cli.import_s", "config.load_s",
        "trace.overhead_frac",
    ]
    return names


def layer_unit(name: str) -> tuple:
    """(unit, better) of a per-layer metric, read off its name."""
    if name.endswith("_calls"):
        return "count", "lower"
    if name == "checkpoint.bytes_written":
        return "bytes", "lower"
    if name.endswith("_frac"):
        better = "higher" if name in ("network.ste_backward.gate_pass_frac",
                                      "sweep.worker_busy_frac") else "lower"
        return "fraction", better
    return "s", "lower"


PER_LAYER = {name: layer_unit(name) for name in _per_layer_names()}


# --- inputs -------------------------------------------------------------


@dataclass
class Context:
    workload: str
    size: str
    seed: int
    directory: Path
    config_path: Path
    shape: dict
    checkpoint: Path | None = None


def _config_dict(corpus: Path, shape: dict, seed: int, a, g, epochs: int) -> dict:
    return {
        "data": {
            "train_images": str(corpus / "train-images-idx3-ubyte"),
            "train_labels": str(corpus / "train-labels-idx1-ubyte"),
            "val_images": str(corpus / "t10k-images-idx3-ubyte"),
            "val_labels": str(corpus / "t10k-labels-idx1-ubyte"),
            "subset_seed": seed,
        },
        "model": {"hidden_layers": shape["layers"], "hidden_size": shape["width"]},
        "training": {
            "learning_rate": 0.01, "momentum": 0.9, "batch_size": 64, "epochs": epochs,
            "train_size": shape["train_size"], "val_size": shape["val_size"], "seed": seed,
        },
        "quantum": {"a": a, "g": g},
        "inference": {"mode": "multi_shot", "shots": 15, "seed": seed},
    }


def prepare(workload: str, size: str, seed: int) -> Context:
    """Write the workload's config and build its inputs (untimed, cached per seed)."""
    sizes = SIZES[size]
    directory = WORK / f"{size}-s{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    os.utime(directory)  # mark as recently used
    # keep the inputs of the most recently used seeds only (~27 MB each)
    cached = sorted(WORK.glob(f"{size}-s*"), key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in cached[KEEP_SEEDS:]:
        shutil.rmtree(stale, ignore_errors=True)
    corpus = directory / "corpus"
    kind = workload.split("-")[0]
    shape = sizes[kind]
    if workload == "train-classical":
        raw = _config_dict(corpus, shape, seed, *CLASSICAL, TRAIN_EPOCHS)
    elif workload == "train-stretch":
        raw = _config_dict(corpus, shape, seed, *STRETCH, TRAIN_EPOCHS)
    elif workload == "eval-combined":
        raw = _config_dict(corpus, shape, seed, *COMBINED, TRAIN_EPOCHS)
    else:
        raw = _config_dict(corpus, shape, seed, *CLASSICAL, shape["epochs"])
        raw["sweep"] = {"a_values": DESK_A, "g_values": DESK_G, "seeds": [seed]}
    config_path = directory / f"{workload}.yaml"
    config_path.write_text(json.dumps(raw, indent=1) + "\n")  # JSON is YAML
    ctx = Context(workload, size, seed, directory, config_path, shape)
    cmd = [
        sys.executable, str(BENCH / "child.py"), "prep", "--dir", str(directory),
        "--train-n", str(sizes["corpus"][0]), "--val-n", str(sizes["corpus"][1]),
        "--seed", str(seed),
    ]
    if workload == "eval-combined":
        # a checkpoint trained for a few epochs, so the share of neurons in
        # superposition is that of a trained network
        ctx.checkpoint = directory / "eval-combined.qckpt"
        cmd += ["--checkpoint-config", str(config_path), "--checkpoint", str(ctx.checkpoint)]
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return ctx


def timed_setup(ctx: Context, trace_out: Path | None = None) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, str(BENCH / "child.py"), "setup", "--config", str(ctx.config_path)]
    if ctx.checkpoint is not None:
        cmd += ["--checkpoint", str(ctx.checkpoint)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    start = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True,
                          capture_output=True, text=True)
    done = json.loads(proc.stdout.strip().splitlines()[-1])["done_monotonic"]
    return done - start


def traced_setup(ctx: Context) -> dict:
    out = ctx.directory / f"{ctx.workload}.setup-trace.json"
    timed_setup(ctx, trace_out=out)
    return json.loads(out.read_text())


# --- measurement helpers ------------------------------------------------


def repeat(seconds: float, op, min_ops: int) -> list:
    """Run op back to back until another would overrun `seconds` (at least min_ops)."""
    results, durations = [], []
    start = _now()
    while True:
        t = _now()
        results.append(op())
        durations.append(_now() - t)
        spent = _now() - start
        if len(results) >= min_ops and spent + statistics.median(durations) > seconds:
            return results


@contextmanager
def stamps_after(module, name: str, stamps: list):
    """Append a perf_counter stamp after each call of module.name (not a span)."""
    original = getattr(module, name)

    def stamped(*args, **kwargs):
        result = original(*args, **kwargs)
        stamps.append(_now())
        return result

    setattr(module, name, stamped)
    try:
        yield
    finally:
        setattr(module, name, original)


def params_digest(params) -> str:
    h = hashlib.sha256()
    for w in params.W:
        h.update(np.ascontiguousarray(w, dtype="<f8").tobytes())
    return h.hexdigest()


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one run produced: ops attempted/failed, checks, metrics."""

    ops: int = 0
    failed_ops: int = 0
    checks: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    gated: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return self.ops + len(self.checks)

    @property
    def failed(self) -> int:
        return self.failed_ops + sum(not ok for ok in self.checks.values())


def layer_metrics(summary: dict, ops: int, setup: dict, extra: dict) -> dict:
    """Per-layer metrics from a traced phase (per op) and a traced set-up."""
    spans, counters = summary["spans"], summary["counters"]
    setup_spans = setup["spans"]

    def total(name):
        return spans.get(name, {}).get("s", 0.0) / ops

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0) / ops

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / ops

    def ratio(num, den):
        return counters.get(num, 0.0) / counters[den] if counters.get(den) else 0.0

    m = {
        "data.load_datasets_s": setup_spans.get("data.load_datasets", {}).get("s", 0.0),
        "data.batchplan_s": total("data.batchplan"),
        "rng.substream_calls": calls("rng.substream"),
        "rng.substream_s": total("rng.substream"),
        "rng.default_rng_calls": calls("rng.default_rng"),
        "rng.default_rng_s": total("rng.default_rng"),
        "rng.draw_s": total("rng.draw"),
        "quantum.forward_batch_s": total("quantum.forward_batch"),
        "quantum.forward_batch.self_s": self_s("quantum.forward_batch"),
    }
    for base in LAYERED:
        m[f"{base}_s"] = sum(v["s"] for k, v in spans.items() if k.startswith(base + ".L")) / ops
        for k in (1, 2, 3):
            m[f"{base}_s.L{k}"] = total(f"{base}.L{k}")
    m.update({
        "quantum.ry_update.exact_angle_frac": ratio("ry_update.exact_angles", "ry_update.angles"),
        "network.classical_forward_batch_s": total("network.classical_forward_batch"),
        "network.softmax_cross_entropy_batch_s": total("network.softmax_cross_entropy_batch"),
        "network.ste_backward_batch_s": total("network.ste_backward_batch"),
        "network.ste_backward.gate_pass_frac": ratio(
            "ste_backward.gate_pass", "ste_backward.gate_total"),
        "training.sgd_momentum_step_s": total("training.sgd_momentum_step"),
        "training.train.self_s": self_s("training.train"),
        "training.training_error_s": total("training.training_error"),
        "inference.predict_batch_deterministic_s": total("inference.predict_batch_deterministic"),
        "inference.evaluate_s": total("inference.evaluate"),
        "inference.prediction_matrix_s": total("inference.prediction_matrix"),
        "inference.prediction_matrix.self_s": self_s("inference.prediction_matrix"),
        "inference.mode_over_shots_s": total("inference.mode_over_shots"),
        "checkpoint.save_checkpoint_s": total("checkpoint.save_checkpoint"),
        "checkpoint.bytes_written": counters.get("checkpoint.bytes_written", 0.0) / ops,
        "checkpoint.load_checkpoint_s":
            setup_spans.get("checkpoint.load_checkpoint", {}).get("s", 0.0),
        "sweep.cell_wall_s": extra.get("sweep.cell_wall_s", 0.0),
        "sweep.worker_busy_frac": extra.get("sweep.worker_busy_frac", 0.0),
        "cli.import_s": setup["cli.import_s"],
        "config.load_s": setup_spans.get("config.load", {}).get("s", 0.0),
        "trace.overhead_frac": extra["trace.overhead_frac"],
    })
    missing = set(PER_LAYER) - set(m)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {sorted(missing)}")
    return m


def _load(ctx: Context):
    cfg = config.load_config(ctx.config_path)
    train_set, val_set = sweep.load_datasets(cfg)
    return cfg, train_set, val_set


def _head(dataset: EncodedDataset, n: int) -> EncodedDataset:
    return EncodedDataset(X=dataset.X[:n], y=dataset.y[:n])


# --- train-* --------------------------------------------------------------


@dataclass
class TrainCall:
    epoch_s: list
    batch_s: list
    records: list
    digest: str
    params: object


class TrainWorkload:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.cfg, self.train_set, self.val_set = _load(ctx)
        self.hyper = self.cfg.hyper
        self.max_error = SIZES[ctx.size]["max_error"]
        # let BLAS and the allocator warm up on a one-batch run
        small = _head(self.train_set, self.hyper.batch_size)
        training.train(replace(self.hyper, epochs=1), small, small)

    def call(self, probe: bool) -> TrainCall:
        ends, stamps = [], []
        start = _now()
        with stamps_after(training, "sgd_momentum_step", stamps) if probe else nullcontext():
            metrics = training.train(self.hyper, self.train_set, self.val_set,
                                     on_epoch=lambda rec: ends.append(_now()))
        bounds = [start] + ends
        epoch_s = [b - a for a, b in zip(bounds, bounds[1:])]
        batch_s = []
        k = 0
        prev = start
        for t in stamps:
            while k + 1 < len(bounds) and t > bounds[k + 1]:
                k += 1
                prev = bounds[k]  # next epoch begins after the previous evaluation
            batch_s.append(t - prev)
            prev = t
        return TrainCall(epoch_s, batch_s, metrics.records, params_digest(metrics.params),
                         metrics.params)

    def call_ok(self, call: TrainCall, ref: TrainCall) -> bool:
        finite = all(math.isfinite(r.mean_loss) for r in call.records)
        learned = call.records[-1].val_error <= self.max_error
        return finite and learned and call.records == ref.records and call.digest == ref.digest

    def classical_bitwise(self, params) -> bool:
        """quantum_forward_batch at (0, pi/2) must equal classical_forward_batch bitwise."""
        X = self.train_set.X[: self.hyper.batch_size]
        rngs = [rng.substream(self.hyper.seed, rng.FORWARD, 0, 0, s) for s in range(len(X))]
        q = quantum.quantum_forward_batch(params, X.T, quantum.QuantumConfig(0.0), rngs)
        c = network.classical_forward_batch(params, X.T)
        return np.array_equal(q.F, c.F)

    def run(self, seconds: float) -> Outcome:
        calls = repeat(seconds, lambda: self.call(probe=True), min_ops=2)
        out = self._score(calls, calls[0])
        if self.ctx.workload == "train-classical":
            out.checks["classical_bitwise"] = self.classical_bitwise(calls[-1].params)
        epoch_s = [e for c in calls for e in c.epoch_s]
        batch_s = [b for c in calls for b in c.batch_s]
        # training time of each epoch: its batches, without its evaluation
        per_batch = math.ceil(self.train_set.count / self.hyper.batch_size)
        train_s = [sum(batch_s[i:i + per_batch]) for i in range(0, len(batch_s), per_batch)]
        rate = self.train_set.count / statistics.median(train_s)
        out.report = {
            "epoch_s": {**timing(epoch_s), "unit": "s"},
            "train_samples_per_s": {"value": rate, "unit": "1/s"},
            "batch_ms": {**timing(batch_s, 1e3), "unit": "ms"},
            "val_error": {"value": calls[0].records[-1].val_error, "unit": "fraction"},
        }
        out.gated = {
            "op_s": quantile(epoch_s, 0.5),
            "samples_per_s": rate,
            "step_ms": quantile(batch_s, 0.5) * 1e3,
        }
        return out

    def _score(self, calls, ref) -> Outcome:
        out = Outcome()
        for call in calls:
            out.ops += len(call.epoch_s)
            if not self.call_ok(call, ref):
                out.failed_ops += len(call.epoch_s)
        return out

    def run_traced(self, seconds: float, setup: dict) -> Outcome:
        plain = repeat(seconds / 2, lambda: self.call(probe=False), min_ops=1)
        tracer = Tracer()
        with tracer:
            traced = repeat(seconds / 2, lambda: tracer.call("bench.op", self.call, False), 1)
        out = self._score(plain + traced, plain[0])
        summary = tracer.summary()
        out.checks["trace_accounting"] = summary["accounting_errors"] == 0
        out.checks["setup_trace_accounting"] = setup["accounting_errors"] == 0
        tracer.write_spans(self.ctx.directory / f"{self.ctx.workload}.spans.tsv")
        plain_s = statistics.median(e for c in plain for e in c.epoch_s)
        traced_s = statistics.median(e for c in traced for e in c.epoch_s)
        epochs = sum(len(c.epoch_s) for c in traced)
        out.layers = layer_metrics(summary, epochs, setup,
                                   {"trace.overhead_frac": traced_s / plain_s - 1.0})
        return out


# --- eval-combined --------------------------------------------------------


@dataclass
class EvalCall:
    seconds: float
    shot_s: list
    error: float


class EvalWorkload:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.cfg, _train, self.val_set = _load(ctx)
        self.params = checkpoint.load_checkpoint(ctx.checkpoint)[0]
        self.quantum = self.cfg.hyper.quantum
        self.policy = self.cfg.policy
        self.max_error = SIZES[ctx.size]["max_error"]
        inference.evaluate(self.params, _head(self.val_set, 64),
                           inference.InferencePolicy.multi_shot(1, 0), quantum=self.quantum)

    def call(self, probe: bool) -> EvalCall:
        stamps = []
        start = _now()
        with stamps_after(inference, "quantum_forward_batch", stamps) if probe else nullcontext():
            error = inference.evaluate(self.params, self.val_set, self.policy, quantum=self.quantum)
        seconds = _now() - start
        bounds = [start] + stamps
        return EvalCall(seconds, [b - a for a, b in zip(bounds, bounds[1:])], error)

    def _score(self, calls) -> Outcome:
        out = Outcome(ops=len(calls))
        ref = calls[0].error
        out.failed_ops = sum(not (c.error == ref and c.error <= self.max_error) for c in calls)
        return out

    def run(self, seconds: float) -> Outcome:
        calls = repeat(seconds, lambda: self.call(probe=True), min_ops=2)
        out = self._score(calls)
        times = [c.seconds for c in calls]
        shot_s = [s for c in calls for s in c.shot_s]
        rate = self.val_set.count * self.policy.shots / statistics.median(times)
        out.report = {
            "final_eval_s": {**timing(times), "unit": "s"},
            "eval_shot_samples_per_s": {"value": rate, "unit": "1/s"},
            "shot_chunk_ms": {**timing(shot_s, 1e3), "unit": "ms"},
            "eval_error_15shot": {"value": calls[0].error, "unit": "fraction"},
            "eval_samples": {"value": self.val_set.count, "unit": "count"},
        }
        out.gated = {
            "op_s": quantile(times, 0.5),
            "samples_per_s": rate,
            "step_ms": quantile(shot_s, 0.5) * 1e3,
        }
        return out

    def run_traced(self, seconds: float, setup: dict) -> Outcome:
        plain = repeat(seconds / 2, lambda: self.call(probe=False), min_ops=1)
        tracer = Tracer()
        with tracer:
            traced = repeat(seconds / 2, lambda: tracer.call("bench.op", self.call, False), 1)
        out = self._score(plain + traced)
        summary = tracer.summary()
        out.checks["trace_accounting"] = summary["accounting_errors"] == 0
        out.checks["setup_trace_accounting"] = setup["accounting_errors"] == 0
        tracer.write_spans(self.ctx.directory / f"{self.ctx.workload}.spans.tsv")
        overhead = (statistics.median(c.seconds for c in traced)
                    / statistics.median(c.seconds for c in plain) - 1.0)
        out.layers = layer_metrics(summary, len(traced), setup, {"trace.overhead_frac": overhead})
        return out


# --- sweep-desk -----------------------------------------------------------


@dataclass
class SweepRun:
    seconds: float
    rss_kb: int
    ok: bool
    cells: dict  # cell dir name -> (wall_time_s, metrics sha256, checkpoint sha256)


def _tree_digest(directory: Path) -> dict:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


class SweepWorkload:
    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.root = ctx.directory / "sweeps"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir()
        self.count = 0
        self.expected = {
            (a, config.parse_angle(g), ctx.seed) for a in DESK_A for g in DESK_G
        }
        shape = ctx.shape
        self.cell_samples = shape["train_size"] * shape["epochs"]

    def _cli(self, out: Path, threads: int) -> list:
        return ["sweep", "--config", str(self.ctx.config_path), "--out", str(out),
                "--threads", str(threads)]

    def _spawn(self, cmd: list, log: Path):
        """Run cmd; return (exit code, wall seconds, peak RSS in KiB of it and its workers)."""
        with open(log, "wb") as err:
            start = _now()
            proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _pid, status, usage = os.wait4(proc.pid, 0)
            seconds = _now() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(log.read_text(errors="replace")[-4000:])
        return proc.returncode, seconds, usage.ru_maxrss

    def _collect(self, out: Path, rc: int, seconds: float, rss_kb: int) -> SweepRun:
        cells = {}
        ok = rc == 0
        for cell in sorted((out / "cells").glob("*")) if (out / "cells").is_dir() else []:
            try:
                wall = json.loads((cell / "result.json").read_text())["wall_time_s"]
                cells[cell.name] = (
                    wall,
                    hashlib.sha256((cell / "metrics.jsonl").read_bytes()).hexdigest(),
                    hashlib.sha256((cell / "checkpoint.qckpt").read_bytes()).hexdigest(),
                )
            except (OSError, ValueError, KeyError):
                ok = False
        ok = ok and self._csv_ok(out / "sweep.csv")
        return SweepRun(seconds, rss_kb, ok, cells)

    def _csv_ok(self, path: Path) -> bool:
        try:
            lines = path.read_text().splitlines()
        except OSError:
            return False
        if not lines or lines[0] != sweep.CSV_HEADER:
            return False
        rows = [line.split(",") for line in lines[1:]]
        try:
            keys = [(float(r[0]), float(r[1]), int(r[2])) for r in rows]
        except (IndexError, ValueError):
            return False
        return len(keys) == len(self.expected) and set(keys) == self.expected

    def sweep(self, threads: int) -> tuple:
        self.count += 1
        out = self.root / f"sweep{self.count}"
        cmd = [sys.executable, "-m", "qmlp.cli"] + self._cli(out, threads)
        rc, seconds, rss = self._spawn(cmd, self.root / f"sweep{self.count}.log")
        return out, self._collect(out, rc, seconds, rss)

    def traced_sweep(self) -> tuple:
        self.count += 1
        out = self.root / f"sweep{self.count}"
        trace_out = self.ctx.directory / f"{self.ctx.workload}.trace.json"
        cmd = [sys.executable, str(BENCH / "child.py"), "sweep", "--trace-out", str(trace_out),
               "--spans-out", str(self.ctx.directory / f"{self.ctx.workload}.spans.tsv"),
               "--"] + self._cli(out, 1)
        rc, seconds, rss = self._spawn(cmd, self.root / f"sweep{self.count}.log")
        run = self._collect(out, rc, seconds, rss)
        summary = json.loads(trace_out.read_text()) if rc == 0 else None
        return out, run, summary

    def _cells_ok(self, run: SweepRun, ref: SweepRun) -> int:
        """Cells of `run` that are missing or differ from `ref` (wall time aside)."""
        bad = 0
        for name in ref.cells:
            got = run.cells.get(name)
            if not run.ok or got is None or got[1:] != ref.cells[name][1:]:
                bad += 1
        return bad + max(0, len(self.expected) - len(ref.cells))

    def rerun_changes_nothing(self, out: Path) -> bool:
        before = _tree_digest(out)
        rc, _s, _r = self._spawn([sys.executable, "-m", "qmlp.cli"] + self._cli(out, SWEEP_THREADS),
                                 self.root / "rerun.log")
        return rc == 0 and _tree_digest(out) == before

    def run(self, seconds: float) -> Outcome:
        first_out, first = self.sweep(SWEEP_THREADS)
        out = Outcome()
        out.checks["rerun_changes_no_bytes"] = self.rerun_changes_nothing(first_out)
        remaining = seconds - first.seconds

        def op():
            path, run = self.sweep(SWEEP_THREADS)
            shutil.rmtree(path, ignore_errors=True)
            return run

        runs = [first] + repeat(remaining, op, min_ops=1)
        for run in runs:
            out.ops += len(self.expected)
            out.failed_ops += self._cells_ok(run, first)
        times = [r.seconds for r in runs]
        cell_s = [c[0] for r in runs for c in r.cells.values()]
        # The grid mixes a fast classical cell with slower quantum ones, so
        # the median single cell jumps between cell kinds; each sweep's mean
        # cell is steadier.
        mean_cell_s = statistics.median(
            statistics.mean(c[0] for c in r.cells.values()) for r in runs if r.cells)
        rate = self.cell_samples / mean_cell_s
        out.report = {
            "sweep_s": {**timing(times), "unit": "s"},
            "cell_train_ms": {**timing(cell_s, 1e3), "unit": "ms"},
            "mean_cell_train_ms": {"value": mean_cell_s * 1e3, "unit": "ms"},
            "cell_train_samples_per_s": {"value": rate, "unit": "1/s"},
        }
        out.gated = {
            "op_s": quantile(times, 0.5),
            "samples_per_s": rate,
            "step_ms": mean_cell_s * 1e3,
            "peak_rss_mb": max(r.rss_kb for r in runs) / 1024.0,
        }
        return out

    def run_traced(self, seconds: float, setup: dict) -> Outcome:
        _o2, two = self.sweep(SWEEP_THREADS)
        _o1, one = self.sweep(1)
        _ot, traced, summary = self.traced_sweep()
        out = Outcome(ops=3 * len(self.expected))
        out.failed_ops = self._cells_ok(one, two) + self._cells_ok(traced, two)
        out.checks["threads_invariant"] = self._cells_ok(one, two) == 0
        out.checks["trace_invariant"] = self._cells_ok(traced, two) == 0
        out.checks["trace_accounting"] = summary is not None and summary["accounting_errors"] == 0
        out.checks["setup_trace_accounting"] = setup["accounting_errors"] == 0
        if summary is None:
            raise RuntimeError("traced sweep failed")
        walls = [c[0] for c in two.cells.values()]
        extra = {
            "trace.overhead_frac": traced.seconds / one.seconds - 1.0,
            "sweep.cell_wall_s": statistics.mean(walls),
            "sweep.worker_busy_frac": sum(walls) / (SWEEP_THREADS * two.seconds),
        }
        out.layers = layer_metrics(summary, 1, setup, extra)
        return out


WORKLOADS = {
    "train-classical": TrainWorkload,
    "train-stretch": TrainWorkload,
    "eval-combined": EvalWorkload,
    "sweep-desk": SweepWorkload,
}


def run_workload(ctx: Context, seconds: float, trace: bool) -> Outcome:
    workload = WORKLOADS[ctx.workload](ctx)
    if trace:
        return workload.run_traced(seconds, traced_setup(ctx))
    setups = [timed_setup(ctx) for _ in range(SET_UPS)]
    out = workload.run(seconds)
    out.report["setup_s"] = {**timing(setups), "unit": "s"}
    out.gated["setup_s"] = statistics.median(setups)
    out.gated.setdefault("peak_rss_mb", peak_rss_mb_self())
    out.report["peak_rss_mb"] = {"value": out.gated["peak_rss_mb"], "unit": "MB"}
    out.report["failed_frac"] = {"value": out.failed / out.attempted, "unit": "fraction"}
    return out
