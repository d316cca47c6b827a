"""Deterministic MNIST-shaped synthetic digit corpus for tests.

28x28 uint8 grayscale digits rendered from 5x7 dot-matrix glyphs with
randomized placement, per-dot dropout, ink level, distractor strokes, blur
and pixel noise. Used by the desk-scale tests when no real MNIST IDX files
are available; generation is a pure function of (n, seed).
"""

from __future__ import annotations

import struct

import numpy as np

from qmlp.data import IMAGE_MAGIC, LABEL_MAGIC, RawDataset

_FONT = {
    0: "01110 10001 10011 10101 11001 10001 01110",
    1: "00100 01100 00100 00100 00100 00100 01110",
    2: "01110 10001 00001 00010 00100 01000 11111",
    3: "11111 00010 00100 00010 00001 10001 01110",
    4: "00010 00110 01010 10010 11111 00010 00010",
    5: "11111 10000 11110 00001 00001 10001 01110",
    6: "00110 01000 10000 11110 10001 10001 01110",
    7: "11111 00001 00010 00100 01000 01000 01000",
    8: "01110 10001 10001 01110 10001 10001 01110",
    9: "01110 10001 10001 01111 00001 00010 01100",
}

_GLYPHS = {
    digit: np.array([[int(c) for c in row] for row in spec.split()], dtype=np.float64)
    for digit, spec in _FONT.items()
}

_BLUR = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]]) / 16.0


def _blur(img: np.ndarray) -> np.ndarray:
    padded = np.pad(img, 1)
    out = np.zeros_like(img)
    for dy in range(3):
        for dx in range(3):
            out += _BLUR[dy, dx] * padded[dy : dy + 28, dx : dx + 28]
    return out


def render_digit(digit: int, rng: np.random.Generator) -> np.ndarray:
    glyph = _GLYPHS[digit] * (rng.random(_GLYPHS[digit].shape) > 0.06)
    big = np.kron(glyph, np.ones((3, 3)))  # 21 x 15
    canvas = np.zeros((28, 28))
    dy = rng.integers(1, 7)   # roughly centered, +-3 px jitter
    dx = rng.integers(4, 10)
    ink = rng.uniform(140.0, 255.0)
    canvas[dy : dy + 21, dx : dx + 15] = big * ink
    if rng.random() < 0.6:  # distractor stroke
        length = rng.integers(6, 13)
        thickness = 2
        y0 = rng.integers(0, 28 - thickness)
        x0 = rng.integers(0, 28 - length)
        level = rng.uniform(100.0, 255.0)
        if rng.random() < 0.5:
            canvas[y0 : y0 + thickness, x0 : x0 + length] = level
        else:
            canvas[x0 : x0 + length, y0 : y0 + thickness] = level
    canvas = _blur(canvas)
    canvas += rng.normal(0.0, rng.uniform(8.0, 25.0), size=canvas.shape)
    return np.clip(np.rint(canvas), 0, 255).astype(np.uint8)


def serialize_idx_images(images: np.ndarray) -> bytes:
    """Inverse of qmlp.data.parse_idx_images; parsing the result is byte-identical."""
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    return struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols) + images.tobytes()


def serialize_idx_labels(labels: np.ndarray) -> bytes:
    """Inverse of qmlp.data.parse_idx_labels."""
    labels = np.asarray(labels)
    return struct.pack(">II", LABEL_MAGIC, len(labels)) + labels.astype(np.uint8).tobytes()


def make_raw_dataset(n: int, seed: int) -> RawDataset:
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n)
    images = np.stack([render_digit(int(lab), rng) for lab in labels])
    return RawDataset(images=images, labels=labels.astype(np.int64))


def write_idx_pair(directory, dataset: RawDataset, prefix: str):
    """Serialize a dataset to <prefix>-images/-labels IDX files; return paths."""
    images_path = directory / f"{prefix}-images-idx3-ubyte"
    labels_path = directory / f"{prefix}-labels-idx1-ubyte"
    images_path.write_bytes(serialize_idx_images(dataset.images))
    labels_path.write_bytes(serialize_idx_labels(dataset.labels))
    return images_path, labels_path
