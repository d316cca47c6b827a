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

from .rng import SHUFFLE, SUBSET, substream

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

NUM_CLASSES = 10


class MagicMismatch(ValueError):
    """File does not start with the expected IDX magic word."""


class TruncatedFile(ValueError):
    """File is shorter than its header declares."""


class LabelOutOfRange(ValueError):
    """A label byte is outside 0..9."""


class SubsetTooLarge(ValueError):
    """Requested more samples than the dataset contains."""


@dataclass
class RawDataset:
    """Parsed images (n, rows, cols) uint8 and labels (n,) int64."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.ndim != 3:
            raise ValueError(f"images must be (n, rows, cols), got {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise ValueError(
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
    expected = 16 + n * rows * cols
    if len(data) < expected:
        raise TruncatedFile(f"header declares {expected} bytes, file has {len(data)}")
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
    if len(data) < 8 + n:
        raise TruncatedFile(f"header declares {8 + n} bytes, file has {len(data)}")
    labels = np.frombuffer(data, dtype=np.uint8, count=n, offset=8)
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise LabelOutOfRange(f"label {labels[bad[0]]} at index {bad[0]} is outside 0..9")
    return labels.astype(np.int64)


def serialize_idx_images(images: np.ndarray) -> bytes:
    """Inverse of parse_idx_images; parsing the result is byte-identical."""
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    return struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols) + images.tobytes()


def serialize_idx_labels(labels: np.ndarray) -> bytes:
    labels = np.asarray(labels)
    return struct.pack(">II", LABEL_MAGIC, len(labels)) + labels.astype(np.uint8).tobytes()


def load_raw_dataset(images_path, labels_path) -> RawDataset:
    """Read and parse an IDX image/label file pair from local paths.

    Parse errors are re-raised with the offending path prepended.
    """
    with open(images_path, "rb") as fh:
        blob = fh.read()
    try:
        images = parse_idx_images(blob)
    except ValueError as exc:
        raise type(exc)(f"{images_path}: {exc}") from exc
    with open(labels_path, "rb") as fh:
        blob = fh.read()
    try:
        labels = parse_idx_labels(blob)
    except ValueError as exc:
        raise type(exc)(f"{labels_path}: {exc}") from exc
    return RawDataset(images=images, labels=labels)


def subset(dataset: RawDataset, n: int, seed: int) -> RawDataset:
    """Draw n samples without replacement, deterministically in `seed`.

    Uses a dedicated substream so the same subset can be held fixed across
    every point of an (a, g) sweep regardless of the training seed.
    """
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

    epoch_seed: int
    batch_size: int
    order: np.ndarray

    @classmethod
    def make(cls, count: int, batch_size: int, epoch_seed: int) -> "BatchPlan":
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        order = substream(epoch_seed, SHUFFLE).permutation(count)
        return cls(epoch_seed=epoch_seed, batch_size=batch_size, order=order)

    def batches(self):
        """Index arrays of `batch_size` samples in order; the last may be shorter."""
        for start in range(0, len(self.order), self.batch_size):
            yield self.order[start : start + self.batch_size]

