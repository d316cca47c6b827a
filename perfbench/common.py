"""Paths, environment and statistics shared by the benchmark's processes.

This module imports nothing from numpy or qmlp, so run.py can pin the BLAS
thread count before either is loaded.
"""

from __future__ import annotations

import hashlib
import math
import os
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = BENCH / ".work"

# Every BLAS thread knob numpy's OpenBLAS (or an MKL/OpenMP build) reads.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Files a checkout must hold for the benchmark to build and drive qmlp.
REQUIRED = ("src/qmlp/__init__.py", "tests/synthdigits.py")


def missing_sources() -> list:
    return [rel for rel in REQUIRED if not (ROOT / rel).is_file()]


def pin_blas(env: dict) -> dict:
    """Pin BLAS to one thread in `env` (a dict like os.environ)."""
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def child_env() -> dict:
    """Environment for a child process that imports qmlp from this checkout."""
    env = pin_blas(dict(os.environ))
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def source_digest() -> str:
    """sha256 over the library sources, standing in for a commit id."""
    h = hashlib.sha256()
    for path in sorted((SRC / "qmlp").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty sequence."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def high_percentile(n: int) -> int:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p
    return 50


def timing(values, scale: float = 1.0) -> dict:
    """Median, the highest percentile backed by ten samples, and the count.

    p90 is added whenever at least ten samples lie beyond it.
    """
    out = {"p50": quantile(values, 0.5) * scale}
    for p in sorted({high_percentile(len(values)), 90 if len(values) >= 100 else 50}):
        if p > 50:
            out[f"p{p}"] = quantile(values, p / 100) * scale
    out["n"] = len(values)
    if len(values) <= 20:
        out["values"] = [v * scale for v in values]
    return out
