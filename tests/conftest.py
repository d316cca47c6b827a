import multiprocessing
import os
import threading
import tracemalloc
from pathlib import Path

import pytest

from qmlp.data import load_raw_dataset

from synthdigits import make_raw_dataset, write_idx_pair

_MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "val_images": "t10k-images-idx3-ubyte",
    "val_labels": "t10k-labels-idx1-ubyte",
}


@pytest.fixture(autouse=True)
def no_child_outlives_its_test():
    """Fail a test that leaves a child process running, such as a pool worker."""
    yield
    children = multiprocessing.active_children()
    assert not children, f"child processes still running: {children}"


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread running, such as an evaluation's helper."""
    before = set(threading.enumerate())
    yield
    threads = [t for t in threading.enumerate() if t not in before]
    assert not threads, f"threads still running: {threads}"


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak of memory it allocated, in bytes).

    tracemalloc counts numpy's array buffers as well as Python objects.
    """
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def mnist_dir():
    """Directory holding the four canonical MNIST IDX files, if present."""
    candidates = []
    if os.environ.get("QMLP_MNIST_DIR"):
        candidates.append(Path(os.environ["QMLP_MNIST_DIR"]))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    for cand in candidates:
        if all((cand / name).exists() for name in _MNIST_FILES.values()):
            return cand
    return None


@pytest.fixture(scope="session")
def real_mnist():
    """(train RawDataset, val RawDataset) from real MNIST, or skip."""
    directory = mnist_dir()
    if directory is None:
        pytest.skip("real MNIST IDX files not available (set QMLP_MNIST_DIR)")
    train = load_raw_dataset(
        directory / _MNIST_FILES["train_images"], directory / _MNIST_FILES["train_labels"]
    )
    val = load_raw_dataset(
        directory / _MNIST_FILES["val_images"], directory / _MNIST_FILES["val_labels"]
    )
    return train, val


@pytest.fixture(scope="session")
def synth_corpus():
    """Synthetic digit corpus: (train RawDataset 3000, val RawDataset 2000)."""
    return make_raw_dataset(3000, seed=2001), make_raw_dataset(2000, seed=2002)


@pytest.fixture()
def small_idx_dir(tmp_path):
    """Tiny synthetic corpus written as IDX files for CLI tests."""
    train = make_raw_dataset(160, seed=31)
    val = make_raw_dataset(80, seed=32)
    write_idx_pair(tmp_path, train, "train")
    write_idx_pair(tmp_path, val, "t10k")
    return tmp_path
