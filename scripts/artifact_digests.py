#!/usr/bin/env python3
"""Print the SHA-256 of every artifact of a small fixed set of qmlp jobs.

Usage: python scripts/artifact_digests.py   (no options)

A change that must keep every artifact byte-identical is checked by
running this script against each commit's `src` and diffing the outputs:

    PYTHONPATH=/path/to/old/src python scripts/artifact_digests.py > old.txt
    PYTHONPATH=src python scripts/artifact_digests.py > new.txt
    diff old.txt new.txt

Pin BLAS (OPENBLAS_NUM_THREADS=1) for both runs, on the same machine.

The script writes the synthetic corpus of tests/synthdigits.py into a
temporary directory and runs there, through `qmlp.cli.main`: `train` and
then `eval --shots-curve 20` at the four paper points on 2x128 nets and at
the combined point on a 3x32 net, whose middle layer weakly measures the
Bloch pairs carried from layer 1, and one 2x2 `sweep` at --threads 1 and
one at --threads 2 on 2x128 nets, all for 5 epochs with 15 shots. The
config names its paths relative to that directory, so the job records do
not depend on where the script ran, and nothing is written into the
checkout. It prints one `sha256  path` line per metrics.jsonl,
checkpoint.qckpt, shots_curve.csv, result.json and sweep.csv, the last two
hashed with wall_time_s removed, and sends the CLI's own output to stderr.
It exits 1 if the two sweeps' files differ.
"""

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from qmlp import cli  # noqa: E402
from synthdigits import make_raw_dataset, write_idx_pair  # noqa: E402

CONFIG = """\
data:
  train_images: data/train-images-idx3-ubyte
  train_labels: data/train-labels-idx1-ubyte
  val_images: data/t10k-images-idx3-ubyte
  val_labels: data/t10k-labels-idx1-ubyte
  subset_seed: 7
model: {hidden_layers: 2, hidden_size: 128}
training:
  learning_rate: 0.01
  momentum: 0.9
  batch_size: 64
  epochs: 5
  train_size: 1500
  val_size: 1000
  seed: 1
  bp_scale: 1.0
inference: {mode: multi_shot, shots: 15, seed: 2024}
"""

# the classical point and the paper's best stretch-only, weak-only and combined points
POINTS = {
    "classical": ("0.0", "pi/2"),
    "stretch": ("0.316227766", "pi/2"),
    "weak": ("0.0", "5pi/19"),
    "combined": ("0.4641588834", "9pi/19"),
}
# the four points on the config's 2x128 nets, and the combined point on a 3x32 net
JOBS = {name: ["--set", f"quantum.a={a}", "--set", f"quantum.g={g}"]
        for name, (a, g) in POINTS.items()}
JOBS["combined-3x32"] = [*JOBS["combined"], "--set", "model.hidden_layers=3",
                         "--set", "model.hidden_size=32"]
SWEEP = ["--set", "sweep.a_values=[0.0, 0.316227766]", "--set", "sweep.g_values=[pi/2, 5pi/19]",
         "--set", "sweep.seeds=[2]"]
ARTIFACTS = ("metrics.jsonl", "checkpoint.qckpt", "shots_curve.csv", "result.json", "sweep.csv")


def run(command, *options):
    """`qmlp command --config config.yaml *options`, its output sent to stderr;
    stop the script if it fails."""
    argv = [command, "--config", "config.yaml", *options]
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(argv)
    if code:
        sys.exit(f"qmlp {' '.join(argv)} exited {code}")


def timeless(path: Path) -> bytes:
    """The file's bytes, with wall_time_s taken out of result.json and sweep.csv."""
    data = path.read_bytes()
    if path.name == "result.json":
        result = json.loads(data)
        del result["wall_time_s"]
        # the writer's own encoding, so every other byte is the file's
        return (json.dumps(result, sort_keys=True) + "\n").encode("utf-8")
    if path.name == "sweep.csv":  # wall_time_s is the last column
        return b"".join(line.rpartition(b",")[0] + b"\n" for line in data.splitlines())
    return data


def digests(root: Path) -> dict:
    """{relative path: sha256} of every artifact under root."""
    files = sorted(p for name in ARTIFACTS for p in root.rglob(name))
    return {p.relative_to(root).as_posix(): hashlib.sha256(timeless(p)).hexdigest() for p in files}


def jobs():
    """Write the corpus and the config into the working directory, then run every job there."""
    Path("data").mkdir()
    write_idx_pair(Path("data"), make_raw_dataset(2000, seed=1), "train")
    write_idx_pair(Path("data"), make_raw_dataset(1200, seed=2), "t10k")
    Path("config.yaml").write_text(CONFIG)
    for name, options in JOBS.items():
        run("train", *options, "--out", f"train/{name}")
        run("eval", *options, "--checkpoint", f"train/{name}/checkpoint.qckpt",
            "--shots-curve", "20", "--out", f"train/{name}")
    for threads in ("1", "2"):
        run("sweep", *SWEEP, "--threads", threads, "--out", f"sweep-{threads}")


def main() -> int:
    print(f"qmlp from {Path(cli.__file__).parent}", file=sys.stderr)
    home = Path.cwd()
    with tempfile.TemporaryDirectory(prefix="qmlp-digests-") as tmp:
        os.chdir(tmp)
        try:
            jobs()
            found = digests(Path("."))
        finally:
            os.chdir(home)
    for path, digest in found.items():
        print(f"{digest}  {path}")
    one, two = ({p.partition("/")[2]: d for p, d in found.items() if p.startswith(f"sweep-{t}/")}
                for t in "12")
    if one != two:
        differ = sorted(p for p in one.keys() | two.keys() if one.get(p) != two.get(p))
        print(f"error: the --threads 1 and 2 sweeps differ: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
