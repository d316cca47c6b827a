"""Smoke test of the benchmark itself at tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs once untraced and once traced; each run must pass its
output checks and emit every metric BENCHMARK.json names, with its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# issue-level names each workload reports in the lines before the result
REPORTED = {
    "train-classical": {"epoch_s", "train_samples_per_s", "batch_ms", "val_error"},
    "train-stretch": {"epoch_s", "train_samples_per_s", "batch_ms", "val_error"},
    "eval-combined": {"final_eval_s", "eval_shot_samples_per_s", "eval_error_15shot"},
    "sweep-desk": {"sweep_s"},
}
COMMON = {"setup_s", "peak_rss_mb", "failed_frac"}


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
    report = json.loads("\n".join(lines[:-1]))
    assert all(report["checks"].values()), report["checks"]
    if trace:
        bypassed = [k for k in result["metrics"]
                    if k.startswith(("quantum.", "rng.substream", "rng.default_rng", "rng.draw"))]
        if workload == "train-classical":
            assert all(result["metrics"][k]["value"] == 0 for k in bypassed)
    else:
        assert REPORTED[workload] | COMMON <= set(report["report"])
        env = report["environment"]
        for key in ("python", "numpy", "blas", "nproc", "cpu_model", "blas_threads",
                    "git_commit", "seed"):
            assert key in env


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
