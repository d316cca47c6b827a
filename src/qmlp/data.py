"""MNIST IDX ingestion, reproducible subsetting, encoding, and batching.

IDX files are parsed bit-exactly: 4-byte big-endian magic (0x00000803 for
images, 0x00000801 for labels), big-endian 4-byte dimension sizes, then the
raw payload bytes. Images are kept as uint8 grids; `encode_dataset`
flattens each row-major and maps pixels to floats in [0, 1] by dividing
by 255. This package never recentres inputs to [-1, 1]: the choice only
rescales the effective regime of the stretch parameter `a` in the first
layer, but it must be held fixed for sweep results to be comparable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .network import QmlpError, ShapeMismatch
from .rng import SHUFFLE, SUBSET, substream

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class MagicMismatch(QmlpError):
    """File does not start with the expected IDX magic word."""


class TruncatedFile(QmlpError):
    """File is shorter than its header declares."""


class LabelOutOfRange(QmlpError):
    """A label byte is outside 0..9."""


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
    """Flattened inputs X (n, M) float64 in [0, 1] and labels y (n,) int64."""

    X: np.ndarray
    y: np.ndarray

    @property
    def count(self) -> int:
        return len(self.y)


def _check_size(data: bytes, expected: int, kind: str):
    if len(data) < expected:
        raise TruncatedFile(f"header declares {expected} bytes, file has {len(data)}")
    if len(data) > expected:
        raise TruncatedFile(f"{len(data) - expected} trailing bytes after {kind} payload")


def parse_idx_images(data: bytes) -> np.ndarray:
    """Parse an IDX image file into a (n, rows, cols) uint8 array."""
    if len(data) < 4:
        raise TruncatedFile(f"file has {len(data)} bytes, smaller than the magic word")
    (magic,) = struct.unpack(">I", data[:4])
    if magic != IMAGE_MAGIC:
        raise MagicMismatch(f"expected image magic {IMAGE_MAGIC:#010x}, got {magic:#010x}")
    if len(data) < 16:
        raise TruncatedFile(f"image header needs 16 bytes, file has {len(data)}")
    n, rows, cols = struct.unpack(">III", data[4:16])
    _check_size(data, 16 + n * rows * cols, "image")
    pixels = np.frombuffer(data, dtype=np.uint8, count=n * rows * cols, offset=16)
    return pixels.reshape(n, rows, cols).copy()


def parse_idx_labels(data: bytes) -> np.ndarray:
    """Parse an IDX label file into a (n,) int64 array with entries in 0..9."""
    if len(data) < 4:
        raise TruncatedFile(f"file has {len(data)} bytes, smaller than the magic word")
    (magic,) = struct.unpack(">I", data[:4])
    if magic != LABEL_MAGIC:
        raise MagicMismatch(f"expected label magic {LABEL_MAGIC:#010x}, got {magic:#010x}")
    if len(data) < 8:
        raise TruncatedFile(f"label header needs 8 bytes, file has {len(data)}")
    (n,) = struct.unpack(">I", data[4:8])
    _check_size(data, 8 + n, "label")
    labels = np.frombuffer(data, dtype=np.uint8, count=n, offset=8)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise LabelOutOfRange(f"label {labels[bad[0]]} at index {bad[0]} is outside 0..9")
    return labels.astype(np.int64)


def read_idx(path, parse):
    """Read one IDX file and parse it; parse errors are re-raised with the path prepended."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return parse(blob)
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
    """Flatten each image row-major and scale to [0, 1] (pixel / 255)."""
    n = dataset.count
    m = int(np.prod(dataset.images.shape[1:]))
    X = dataset.images.reshape(n, m).astype(np.float64) / 255.0
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

