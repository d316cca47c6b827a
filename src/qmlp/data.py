"""MNIST IDX ingestion, reproducible subsetting, encoding, and batching.

IDX files are parsed bit-exactly: 4-byte big-endian magic (0x00000803 for
images, 0x00000801 for labels), big-endian 4-byte dimension sizes, then the
raw payload bytes. Each file is read once, and the parsed images are a
read-only view of its bytes, with no second copy. Images are kept as
uint8 grids; `encode_dataset` flattens each row-major and maps pixels to
float32 in [0, 1] by dividing by 255 in float32; the kernels compute in the
dtype of their inputs, so this (with the float32 weights) makes a run's
arithmetic float32. This package never recentres inputs to [-1, 1]: the
choice only rescales the effective regime of the stretch parameter `a` in
the first layer, but it must be held fixed for sweep results to be comparable.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .network import QmlpError, ShapeMismatch
from .rng import SHUFFLE, SUBSET, substream

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801
NUM_CLASSES = 10  # digit labels 0..9, and the width of every network's output layer


class MagicMismatch(QmlpError):
    """File does not start with the expected IDX magic word."""


class TruncatedFile(QmlpError):
    """File is shorter than its header declares."""


class LabelOutOfRange(QmlpError):
    """A label is outside 0..NUM_CLASSES-1."""


class SubsetTooLarge(QmlpError):
    """Requested more samples than the dataset contains."""


@dataclass
class RawDataset:
    """Parsed images (n, rows, cols) uint8 and labels (n,) int64."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.ndim != 3:
            raise ShapeMismatch(f"images must be (n, rows, cols), got {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise ShapeMismatch(
                f"image/label count mismatch: {len(self.images)} vs {len(self.labels)}"
            )

    @property
    def count(self) -> int:
        return len(self.labels)


@dataclass
class EncodedDataset:
    """Flattened inputs X (n, M) float32 in [0, 1] and labels y (n,) int64."""

    X: np.ndarray
    y: np.ndarray

    @property
    def count(self) -> int:
        return len(self.y)


def check_labels(labels: np.ndarray, what: str):
    """Raise LabelOutOfRange unless every entry of `labels` is a class in 0..NUM_CLASSES-1."""
    bad = np.nonzero((labels < 0) | (labels >= NUM_CLASSES))[0]
    if bad.size:
        i = bad[0]
        raise LabelOutOfRange(f"{what} {labels[i]} at index {i} is outside 0..{NUM_CLASSES - 1}")


def _magic(data: bytes) -> int:
    if len(data) < 4:
        raise TruncatedFile(f"file has {len(data)} bytes, smaller than the magic word")
    return struct.unpack(">I", data[:4])[0]


def _idx_payload(data: bytes, magic: int, kind: str, ndims: int) -> np.ndarray:
    """Check an IDX file's magic word and declared size; return its payload, shaped."""
    got = _magic(data)
    if got != magic:
        raise MagicMismatch(f"expected {kind} magic {magic:#010x}, got {got:#010x}")
    head = 4 + 4 * ndims
    if len(data) < head:
        raise TruncatedFile(f"{kind} header needs {head} bytes, file has {len(data)}")
    dims = struct.unpack(f">{ndims}I", data[4:head])
    expected = head + math.prod(dims)
    if len(data) < expected:
        raise TruncatedFile(f"header declares {expected} bytes, file has {len(data)}")
    if len(data) > expected:
        raise TruncatedFile(f"{len(data) - expected} trailing bytes after {kind} payload")
    return np.frombuffer(data, dtype=np.uint8, offset=head).reshape(dims)


def parse_idx_images(data: bytes) -> np.ndarray:
    """Parse an IDX image file into a (n, rows, cols) uint8 array with rows, cols >= 1.

    The array is a view of `data`'s buffer, read-only when `data` is bytes.
    """
    images = _idx_payload(data, IMAGE_MAGIC, "image", 3)
    if 0 in images.shape[1:]:
        raise ShapeMismatch(f"images of {images.shape[1]}x{images.shape[2]} pixels have no pixel")
    return images


def parse_idx_labels(data: bytes) -> np.ndarray:
    """Parse an IDX label file into a (n,) int64 array with entries in 0..NUM_CLASSES-1."""
    labels = _idx_payload(data, LABEL_MAGIC, "label", 1)
    check_labels(labels, "label")
    return labels.astype(np.int64)


def parse_idx(data: bytes) -> np.ndarray:
    """Parse an IDX image or label file, whichever its magic word names."""
    magic = _magic(data)
    parse = {IMAGE_MAGIC: parse_idx_images, LABEL_MAGIC: parse_idx_labels}.get(magic)
    if parse is None:
        raise MagicMismatch(f"unknown magic {magic:#010x}")
    return parse(data)


def read_idx(path, parse):
    """Read one IDX file and parse it; parse errors are re-raised with the path prepended.

    The file's bytes are read once, and the parsed images are a read-only
    view of them.
    """
    try:
        return parse(Path(path).read_bytes())
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def load_raw_dataset(images_path, labels_path) -> RawDataset:
    """Read and parse an IDX image/label file pair from local paths."""
    images = read_idx(images_path, parse_idx_images)
    labels = read_idx(labels_path, parse_idx_labels)
    try:
        return RawDataset(images=images, labels=labels)
    except ShapeMismatch as exc:
        raise ShapeMismatch(f"{images_path}, {labels_path}: {exc}") from exc


def subset(dataset: RawDataset, n: int, seed: int) -> RawDataset:
    """Draw n samples without replacement, deterministically in `seed`.

    Uses a dedicated substream so the same subset can be held fixed across
    every point of an (a, g) sweep regardless of the training seed.
    """
    if n < 0:
        raise ValueError(f"subset size must be >= 0, got {n}")
    if n > dataset.count:
        raise SubsetTooLarge(f"requested {n} of {dataset.count} samples")
    idx = substream(seed, SUBSET).permutation(dataset.count)[:n]
    return RawDataset(images=dataset.images[idx], labels=dataset.labels[idx])


def encode_dataset(dataset: RawDataset) -> EncodedDataset:
    """Flatten each image row-major and scale to float32 in [0, 1] (pixel / 255)."""
    n = dataset.count
    m = int(np.prod(dataset.images.shape[1:]))
    X = dataset.images.reshape(n, m).astype(np.float32) / np.float32(255)
    return EncodedDataset(X=X, y=dataset.labels.astype(np.int64))


@dataclass
class BatchPlan:
    """A full-epoch sample order, fixed by epoch_seed, cut into batches."""

    batch_size: int
    order: np.ndarray

    @classmethod
    def make(cls, count: int, batch_size: int, epoch_seed: int) -> "BatchPlan":
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        order = substream(epoch_seed, SHUFFLE).permutation(count)
        return cls(batch_size=batch_size, order=order)

    def batches(self):
        """Index arrays of `batch_size` samples in order; the last may be shorter."""
        for start in range(0, len(self.order), self.batch_size):
            yield self.order[start : start + self.batch_size]

