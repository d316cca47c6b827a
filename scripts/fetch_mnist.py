#!/usr/bin/env python3
"""Download and unpack the four canonical MNIST IDX files.

Usage: python scripts/fetch_mnist.py [DEST_DIR]   (default: data/mnist)

The library itself never fetches anything; it reads local IDX paths from
the run config. Run `qmlp fetch-check DEST_DIR/*` afterwards to validate
the files by magic and size.
"""

import gzip
import os
import sys
import urllib.request
import zlib
from pathlib import Path

MIRRORS = [
    "https://ossci-datasets.s3.amazonaws.com/mnist/",
    "https://storage.googleapis.com/cvdf-datasets/mnist/",
]

FILES = [
    "train-images-idx3-ubyte",
    "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte",
    "t10k-labels-idx1-ubyte",
]


def fetch(name: str, dest: Path) -> None:
    """Unpack `name` into dest from the first mirror that serves it whole.

    The file is written as `<name>.part` and renamed into place, so a
    download cut short never leaves a file that a rerun takes as present.
    """
    target, part = dest / name, dest / f"{name}.part"
    if target.exists():
        print(f"{target} already present")
        return
    last_error = None
    for mirror in MIRRORS:
        url = f"{mirror}{name}.gz"
        try:
            print(f"downloading {url}")
            with urllib.request.urlopen(url, timeout=60) as response:
                part.write_bytes(gzip.decompress(response.read()))
            os.replace(part, target)
            print(f"wrote {target} ({target.stat().st_size} bytes)")
            return
        except (OSError, EOFError, zlib.error) as exc:  # the last two: a torn gzip stream
            last_error = exc
            print(f"  failed: {exc}")
        finally:
            part.unlink(missing_ok=True)
    raise SystemExit(f"could not fetch {name}: {last_error}")


def main() -> None:
    dest = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("data/mnist")
    dest.mkdir(parents=True, exist_ok=True)
    for name in FILES:
        fetch(name, dest)


if __name__ == "__main__":
    main()
