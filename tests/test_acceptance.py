"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines. Criteria 5-7 and 9 train desk-scale models (minutes); they use real
MNIST when QMLP_MNIST_DIR provides the IDX files and otherwise the
synthetic digit corpus from synthdigits.py. Criterion 8 is the full
benchmark-scale reproduction (hours); it only runs with real MNIST present
and QMLP_FULL_REPRO=1.
"""

import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qmlp.checkpoint import load_checkpoint
from qmlp.config import DataConfig, RunConfig
from qmlp.inference import InferencePolicy, evaluate, mode_over_shots, prediction_matrix
from qmlp.network import classical_forward_batch, init_network_params
from qmlp.quantum import (
    HALF_PI,
    QuantumConfig,
    quantum_forward_batch,
    ry_update,
    weak_update,
)
from qmlp.sweep import load_datasets, run_cells, run_training_job, write_sweep_csv
from qmlp.training import Hyperparams

from conftest import mnist_dir
from oracles import relaxed_forward, weak_measure_oracle
from synthdigits import write_idx_pair
from test_network import finite_difference_grads, relative_error, ste_backward_one

A_LOW = 10.0**-0.5
A_HIGH = 10.0**0.5


def _report(criterion: int, ok: bool, detail: str):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_classical_limit_equality():
    """quantum_forward_batch(a=0, g=pi/2) is bitwise classical for 1000 triples."""
    rng = np.random.default_rng(1001)
    cfg = QuantumConfig(a=0.0, g=HALF_PI)
    checked = 0
    for _ in range(1000):
        layers = int(rng.integers(1, 4))
        params = init_network_params(6, 5, layers, 3, rng)
        x = rng.uniform(0, 1, size=6)
        seed = int(rng.integers(0, 1 << 63))
        q = quantum_forward_batch(params, x[:, None], cfg, [np.random.default_rng(seed)])
        c = classical_forward_batch(params, x[:, None])
        for dq, dc in zip(q.D, c.D):
            assert np.array_equal(dq, dc)
        for zq, zc in zip(q.Z, c.Z):
            assert np.array_equal(zq, zc)
        assert np.array_equal(q.F, c.F)
        checked += 1
    _report(1, checked == 1000, f"{checked}/1000 random triples bitwise-identical (L in 1..3)")


def test_criterion_2_measurement_statistics():
    """Weak/projective outcome laws at 1e5 samples; closed form vs gate oracle."""
    rng = np.random.default_rng(1002)
    n = 100000

    # closed-form probability and post-states vs expm branch-norm oracle
    worst = 0.0
    for _ in range(100):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        g = rng.uniform(0.0, HALF_PI)
        sin_g = np.sin(g)
        p_oracle, post_plus, post_minus = weak_measure_oracle(v[0], v[1], g)
        p_closed = 0.5 * (1 + (v[0] ** 2 - v[1] ** 2) * sin_g)
        worst = max(worst, abs(p_closed - p_oracle))
        d, oa, ob = weak_update(v[0], v[1], sin_g, 0.0)
        worst = max(worst, float(np.max(np.abs(np.array([oa, ob]) - post_plus))))
        d, oa, ob = weak_update(v[0], v[1], sin_g, 1.0 - 1e-12)
        worst = max(worst, float(np.max(np.abs(np.array([oa, ob]) - post_minus))))
    assert worst < 1e-12

    # weak outcome frequencies on a 10-state x 9-g grid
    states = []
    for _ in range(10):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        states.append(v)
    for g in np.linspace(0.0, HALF_PI, 9):
        sin_g = np.sin(g)
        for alpha, beta in states:
            u = rng.random(n)
            d, _, _ = weak_update(np.full(n, alpha), np.full(n, beta), sin_g, u)
            p = 0.5 * (1 + (alpha**2 - beta**2) * sin_g)
            sigma = np.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(np.mean(d == 1.0) - p) <= max(3 * sigma, 2e-5)

    # projective law P(+1) = cos^2(theta/2) after rotating |0>
    from qmlp.quantum import projective_update

    for theta in np.linspace(0.0, np.pi, 9):
        alpha, beta = ry_update(np.ones(n), np.zeros(n), np.full(n, theta))
        d, _, _ = projective_update(alpha, beta, rng.random(n))
        p = np.cos(theta / 2) ** 2
        sigma = np.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(np.mean(d == 1.0) - p) <= max(3 * sigma, 2e-5)

    _report(
        2,
        True,
        f"oracle agreement {worst:.2e} < 1e-12; weak 10x9 grid and projective "
        f"law within 3 binomial sigma at 1e5 samples",
    )


def test_criterion_3_flip_probability_law():
    """Basis-state neuron at a=0 flips vs classical at rate (1 - sin g)/2."""
    n = 100000
    details = []
    for g in (0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8, HALF_PI):
        rng = np.random.default_rng(int(g * 1e6) + 13)
        d_prev = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        preact = rng.normal(size=n)
        target = np.where(preact >= 0, 1.0, -1.0)
        alpha = np.where(d_prev > 0, 1.0, 0.0)
        beta = np.where(d_prev > 0, 0.0, 1.0)
        alpha, beta = ry_update(alpha, beta, HALF_PI * (d_prev - target))
        d, _, _ = weak_update(alpha, beta, np.sin(g), rng.random(n))
        rate = float(np.mean(d != target))
        p = 0.5 * (1 - np.sin(g))
        sigma = np.sqrt(max(p * (1 - p), 1e-12) / n)
        assert abs(rate - p) <= max(3 * sigma, 2e-5), f"g={g}: {rate} vs {p}"
        details.append(f"g={g:.3f}: {rate:.4f}~{p:.4f}")
    _report(3, True, "; ".join(details))


def test_criterion_4_gradient_check():
    """ste_backward_batch matches central differences on 20 relaxed 8-8-8-4 nets."""
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(20):
        params = init_network_params(8, 8, 2, 4, rng)
        x = rng.uniform(0, 1, size=8)
        label = int(rng.integers(0, 4))
        analytic = ste_backward_one(params, relaxed_forward(params, x), label)
        numeric = finite_difference_grads(params, x, label, step=1e-5)
        worst = max(worst, relative_error(analytic, numeric))
    _report(4, worst < 1e-4, f"max relative error {worst:.2e} < 1e-4 over 20 instances")


# --- desk-scale training block ----------------------------------------------

DESK_SEEDS = (1, 2, 3)
DESK_CELLS = (
    [(a, HALF_PI, s) for a in (0.0, A_LOW, A_HIGH) for s in DESK_SEEDS]
    + [(0.0, g, s) for g in (np.pi / 16, 3 * np.pi / 8) for s in DESK_SEEDS]
    + [(0.5, HALF_PI, 1)]
)


@pytest.fixture(scope="module")
def desk(tmp_path_factory, synth_corpus):
    """Train all desk-scale cells once (L=2, N=128, 1000 train, 100 epochs)."""
    root = tmp_path_factory.mktemp("acceptance")
    directory = mnist_dir()
    if directory is not None:
        data = DataConfig(
            train_images=str(directory / "train-images-idx3-ubyte"),
            train_labels=str(directory / "train-labels-idx1-ubyte"),
            val_images=str(directory / "t10k-images-idx3-ubyte"),
            val_labels=str(directory / "t10k-labels-idx1-ubyte"),
            subset_seed=7,
        )
        source = "mnist"
    else:
        train_raw, val_raw = synth_corpus
        ti, tl = write_idx_pair(root, train_raw, "train")
        vi, vl = write_idx_pair(root, val_raw, "t10k")
        data = DataConfig(
            train_images=str(ti),
            train_labels=str(tl),
            val_images=str(vi),
            val_labels=str(vl),
            subset_seed=7,
        )
        source = "synthetic"
    cfg = RunConfig(
        data=data,
        hyper=Hyperparams(
            hidden_layers=2,
            hidden_size=128,
            epochs=100,
            train_size=1000,
            val_size=2000,
            batch_size=64,
            seed=1,
        ),
        policy=InferencePolicy.multi_shot(15, seed=555),
        out_dir=str(root / "out"),
    )
    results = run_cells(cfg, DESK_CELLS, root / "out", threads=min(2, os.cpu_count() or 1))
    write_sweep_csv(root / "out" / "sweep.csv", results)
    print(f"\n[acceptance] desk corpus: {source}; {len(results)} cells trained")
    return {
        "cfg": cfg,
        "root": root,
        "source": source,
        "results": {(r["a"], r["g"], r["seed"]): r for r in results},
    }


def _mean_e15(desk, a, g):
    vals = [
        r["final_val_error"]
        for (ra, rg, _), r in desk["results"].items()
        if ra == a and rg == g
    ]
    return float(np.mean(vals)), vals


@pytest.mark.slow
def test_criterion_5_stretch_sweep_trend(desk):
    """Stretch sweep at desk scale: error falls at a=10^-1/2, rises at 10^1/2."""
    e_classical, v0 = _mean_e15(desk, 0.0, HALF_PI)
    e_low, v1 = _mean_e15(desk, A_LOW, HALF_PI)
    e_high, v2 = _mean_e15(desk, A_HIGH, HALF_PI)
    detail = (
        f"mean 15-shot val error: a=0 -> {e_classical:.4f} {v0}, "
        f"a=10^-1/2 -> {e_low:.4f} {v1}, a=10^1/2 -> {e_high:.4f} {v2} "
        f"({desk['source']} corpus)"
    )
    _report(5, e_low < e_classical and e_high > e_low, detail)


@pytest.mark.slow
def test_criterion_6_weak_measurement_collapse(desk):
    """Weak-measurement sweep: near-chance at g=pi/16, near-classical at g=3pi/8."""
    e_small_g, v_small = _mean_e15(desk, 0.0, np.pi / 16)
    e_mid_g, v_mid = _mean_e15(desk, 0.0, 3 * np.pi / 8)
    e_classical, _ = _mean_e15(desk, 0.0, HALF_PI)
    detail = (
        f"g=pi/16 -> {e_small_g:.4f} {v_small} (> 0.5 collapse), "
        f"g=3pi/8 -> {e_mid_g:.4f} {v_mid} vs classical {e_classical:.4f} (within 2x)"
    )
    _report(6, e_small_g > 0.5 and e_mid_g <= 2.0 * e_classical, detail)


@pytest.mark.slow
def test_criterion_7_mode_inference_benefit(desk):
    """Shots curve on the a=0.5 model: more shots help, then plateau.

    Operationalized as: (i) 3-eval-seed-averaged 15-shot error <= the
    deterministic error; (ii) err(k) <= err(1) + 3 sigma for every k in
    1..20 (binomial sigma at the averaged scale); (iii) the mean over
    shots 11..20 is <= the mean over shots 1..10.
    """
    cfg = desk["cfg"]
    cell = desk["root"] / "out" / "cells"
    from qmlp.sweep import cell_dir_name

    params, _, _, _ = load_checkpoint(
        cell / cell_dir_name(0.5, HALF_PI, 1) / "checkpoint.qckpt"
    )
    _, val_set = load_datasets(cfg)
    quantum = QuantumConfig(a=0.5, g=HALF_PI)
    det = evaluate(params, val_set, InferencePolicy.deterministic())
    curves = []
    for eval_seed in (10, 11, 12):
        preds = prediction_matrix(params, val_set, quantum, 20, seed=eval_seed)
        curves.append(
            [
                float(np.mean(mode_over_shots(preds[:, :k], params.output_size) != val_set.y))
                for k in range(1, 21)
            ]
        )
    avg = np.mean(curves, axis=0)
    e15 = avg[14]
    p = max(avg[0], 1e-3)
    sigma = np.sqrt(p * (1 - p) / (3 * val_set.count))
    within_noise = bool(np.all(avg <= avg[0] + 3 * sigma))
    trending_down = float(np.mean(avg[10:])) <= float(np.mean(avg[:10]))
    detail = (
        f"deterministic {det:.4f}, 15-shot {e15:.4f}; curve "
        f"{[round(v, 4) for v in avg.tolist()]}"
    )
    _report(7, e15 <= det and within_noise and trending_down, detail)


@pytest.mark.fullrepro
@pytest.mark.skipif(
    mnist_dir() is None or os.environ.get("QMLP_FULL_REPRO") != "1",
    reason="needs real MNIST and QMLP_FULL_REPRO=1 (hours of CPU)",
)
def test_criterion_8_full_reproduction():
    """Benchmark-scale reproduction at the reported best settings.

    Expected: classical overfitting signature (train < 0.005, val > 0.06);
    a-only best 0.0472 +- 0.010 at a=10^-1/2; g-only best 0.0529 +- 0.010
    at g=5pi/19; combined 0.0463 +- 0.010 at (10^-1/3, 9pi/19). Tolerances
    are wide because the benchmark's weight-initialization and
    input-encoding conventions are unspecified. Runs resume from
    QMLP_FULL_REPRO_OUT (default runs/fullrepro).
    """
    directory = mnist_dir()
    out_root = Path(os.environ.get("QMLP_FULL_REPRO_OUT", "runs/fullrepro"))
    cfg = RunConfig(
        data=DataConfig(
            train_images=str(directory / "train-images-idx3-ubyte"),
            train_labels=str(directory / "train-labels-idx1-ubyte"),
            val_images=str(directory / "t10k-images-idx3-ubyte"),
            val_labels=str(directory / "t10k-labels-idx1-ubyte"),
            subset_seed=7,
        ),
        hyper=Hyperparams(),  # benchmark defaults: 3x512, 500 epochs, 5000 train
        policy=InferencePolicy.multi_shot(15, seed=555),
        out_dir=str(out_root),
    )
    points = {
        "classical": (0.0, HALF_PI),
        "a_best": (A_LOW, HALF_PI),
        "g_best": (0.0, 5 * np.pi / 19),
        "combined": (10.0 ** (-1.0 / 3.0), 9 * np.pi / 19),
    }
    results = {}
    for name, (a, g) in points.items():
        results[name] = run_training_job(
            cfg.with_quantum(a, g, seed=1), out_root / name
        )
    classical = results["classical"]
    checks = {
        "classical overfit": classical["final_train_error"] < 0.005
        and classical["final_val_error_deterministic"] > 0.06,
        "a_best": abs(results["a_best"]["final_val_error"] - 0.0472) <= 0.010,
        "g_best": abs(results["g_best"]["final_val_error"] - 0.0529) <= 0.010,
        "combined": abs(results["combined"]["final_val_error"] - 0.0463) <= 0.010,
    }
    detail = "; ".join(
        f"{name}: val={r['final_val_error']:.4f} train={r['final_train_error']:.4f}"
        for name, r in results.items()
    )
    _report(8, all(checks.values()), f"{detail}; checks={checks}")


@pytest.mark.slow
def test_criterion_9_reproducibility(desk, tmp_path):
    """Identical configs give byte-identical logs/checkpoints; threads don't matter."""
    cfg = replace(
        desk["cfg"],
        hyper=replace(desk["cfg"].hyper, epochs=12, quantum=QuantumConfig(a=0.5, g=1.2)),
    )
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        run_training_job(cfg, out)
        blobs.append(
            (
                (out / "metrics.jsonl").read_bytes(),
                (out / "checkpoint.qckpt").read_bytes(),
            )
        )
    identical = blobs[0] == blobs[1]

    cells = [(0.0, HALF_PI, 4), (0.7, 1.0, 4)]
    per_thread = {}
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        run_cells(cfg, cells, out, threads=threads)
        per_thread[threads] = {
            p.name: ((p / "metrics.jsonl").read_bytes(), (p / "checkpoint.qckpt").read_bytes())
            for p in (out / "cells").iterdir()
        }
    thread_invariant = per_thread[1] == per_thread[2]
    _report(
        9,
        identical and thread_invariant,
        f"two 12-epoch desk runs byte-identical={identical}; "
        f"--threads 1 vs 2 identical={thread_invariant}",
    )
