"""qmlp benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload train-stretch --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout. The last line of standard output
is one JSON object {"correct", "attempted", "failed", "metrics"}: with
`--trace 0` the end-to-end metrics, with `--trace 1` the per-layer ones.
The lines before it are a report with the environment, the metrics under
their workload-specific names with percentiles and sample counts, and the
outcome of every output check. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

from common import BLAS_VARS, ROOT, SRC, WORK, missing_sources, pin_blas

# Pin BLAS before anything imports numpy; keep what the caller had for the record.
CALLER_BLAS = {var: os.environ.get(var) for var in BLAS_VARS}
pin_blas(os.environ)

import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402


def environment(seed: int) -> dict:
    import numpy as np

    from common import source_digest

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       platform.processor() or "unknown")
    except OSError:
        pass
    commit = "unavailable: not a git repository"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or commit
        except OSError:
            commit = "unavailable: git not found"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f'{blas.get("name")} {blas.get("version")}',
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {
            "caller": CALLER_BLAS,
            "workload_process": os.environ["OPENBLAS_NUM_THREADS"],
            "sweep_subprocess": os.environ["OPENBLAS_NUM_THREADS"],
        },
        "git_commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train-classical", "train-stretch", "eval-combined", "sweep-desk"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shapes exist only for the smoke test")
    args = parser.parse_args(argv)

    missing = missing_sources()
    if missing:
        print(f"perfbench: {ROOT} is not a qmlp source checkout; missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qmlp

    if not os.path.abspath(qmlp.__file__).startswith(str(SRC)):
        print(f"perfbench: imported qmlp from {qmlp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    ctx = workloads.prepare(args.workload, args.size, args.seed)
    outcome = workloads.run_workload(ctx, args.seconds, bool(args.trace))
    if args.trace:
        names = workloads.PER_LAYER
        values = outcome.layers
    else:
        names = workloads.END_TO_END
        values = outcome.gated
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _b) in names.items()}
    report = {
        "workload": args.workload,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "checks": outcome.checks,
        "ops": {"attempted": outcome.ops, "failed": outcome.failed_ops},
        "report": outcome.report,
    }
    text = json.dumps(report, indent=1, sort_keys=True)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-s{args.seed}-t{args.trace}"
    (results / f"{stem}.json").write_text(text + "\n")
    print(text)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
