"""Deterministic binary checkpoints for resumable runs.

Layout (all multi-byte integers little-endian):

    bytes 0..7    magic b"QMLPCKPT"
    bytes 8..11   format version, uint32 (currently 1)
    bytes 12..15  header length H, uint32
    bytes 16..16+H-1  UTF-8 JSON header
    remainder     raw array payload

The JSON header is serialized with sorted keys and no whitespace, and
holds {"epoch": int, "meta": {...}, "weights": [[rows, cols], ...],
"velocity": [[rows, cols], ...]}. The payload is the weight matrices in
order followed by the velocity matrices, each C-order float64
little-endian. Identical inputs therefore produce identical bytes, which
the reproducibility tests rely on. The library computes in float32:
saving widens each entry exactly, and load_checkpoint narrows the
payload back to float32, so a float32 save -> load -> save round-trip is
byte-identical, and a file written by a float64 run loads rounded to
float32. A file holding a NaN or infinite entry, or one beyond the float32
range, does not load.

Saving and loading stream the payload one matrix at a time: each holds at
most one float64 matrix beyond the arrays it is given or returns, so a
3x512 checkpoint (14.9 MB with its velocity) is never held whole in memory.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from .network import NetworkParams, QmlpError

MAGIC = b"QMLPCKPT"
VERSION = 1


class CheckpointCorrupt(QmlpError):
    """Checkpoint file is malformed, truncated, non-finite, or of an unknown version."""


def _chunks(
    params: NetworkParams,
    velocity: list | None = None,
    epoch: int = 0,
    meta: dict | None = None,
):
    """Yield a checkpoint's bytes in order: the prefix and header, then each matrix.

    Each matrix is one C-order float64 little-endian buffer, made only when
    it is reached, so writing the chunks holds at most one widened matrix.
    A missing velocity is written as zeros.
    """
    shapes = [list(w.shape) for w in params.W]
    header = {
        "epoch": int(epoch),
        "meta": meta or {},
        "weights": shapes,
        "velocity": shapes if velocity is None else [list(v.shape) for v in velocity],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    yield MAGIC + struct.pack("<II", VERSION, len(blob)) + blob
    for arr in [*params.W, *(velocity or ())]:
        yield np.ascontiguousarray(arr, dtype="<f8")
    if velocity is None:  # zeros, each made as it is written; `arr` would keep the last alive
        for w in params.W:
            yield np.zeros(w.shape, dtype="<f8")


def write_atomic(path, data):
    """Write `data` to `path` through a temporary file in the same directory.

    `data` is bytes, or an iterable of bytes-like chunks written in order.
    The rename is atomic, so a reader (or a resumed run) sees either the
    previous file or the complete new one, never a torn write. A write that
    raises (a full disk, an interrupt, a chunk that cannot be made) removes
    the temporary file and re-raises.
    """
    chunks = [data] if isinstance(data, bytes) else data
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                del chunk  # freed before the next chunk is made
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_checkpoint(path, params, velocity=None, epoch=0, meta=None):
    write_atomic(path, _chunks(params, velocity, epoch, meta))


def load_checkpoint(path):
    """Return (params, velocity, epoch, meta), the arrays float32, or raise CheckpointCorrupt.

    The sizes the header declares are checked against the file's size before
    any matrix is read; each matrix is then read straight into one float64
    buffer and narrowed, so loading holds one float64 matrix beyond the
    arrays it returns.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(16)
        if len(prefix) < 16 or prefix[:8] != MAGIC:
            raise CheckpointCorrupt(f"{path}: not a checkpoint file (bad magic)")
        version, hlen = struct.unpack("<II", prefix[8:16])
        if version != VERSION:
            raise CheckpointCorrupt(f"{path}: unsupported checkpoint version {version}")
        if size < 16 + hlen:
            raise CheckpointCorrupt(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
            weight_shapes = [tuple(int(d) for d in s) for s in header["weights"]]
            velocity_shapes = [tuple(int(d) for d in s) for s in header["velocity"]]
            epoch = int(header["epoch"])
            meta = header["meta"]
            if not weight_shapes or any(len(s) != 2 or min(s) < 1 for s in weight_shapes):
                raise ValueError(f"weight shapes {weight_shapes} are not non-empty matrices")
            if any(w[1] != v[0] for v, w in zip(weight_shapes, weight_shapes[1:])):
                raise ValueError(f"weight shapes {weight_shapes} do not chain")
            if velocity_shapes != weight_shapes:
                raise ValueError(f"velocity shapes {velocity_shapes} differ from the weights'")
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointCorrupt(f"{path}: bad header ({exc})") from exc
        shapes = weight_shapes + velocity_shapes
        # Python ints: np.prod would wrap a huge shape around int64
        end = 16 + hlen + 8 * sum(math.prod(s) for s in shapes)
        if size < end:
            raise CheckpointCorrupt(f"{path}: truncated payload")
        if size > end:
            raise CheckpointCorrupt(f"{path}: {size - end} trailing bytes")
        nw = len(weight_shapes)
        arrays = []
        for i, shape in enumerate(shapes):
            wide = np.empty(shape, dtype="<f8")
            if fh.readinto(wide) < wide.nbytes:  # the file shrank after fstat
                raise CheckpointCorrupt(f"{path}: truncated payload")
            with np.errstate(over="ignore"):  # an entry beyond float32's range becomes inf
                arr = wide.astype(np.float32)
            if not np.isfinite(arr).all():
                name = f"weight matrix {i}" if i < nw else f"velocity matrix {i - nw}"
                raise CheckpointCorrupt(
                    f"{path}: {name} holds a NaN or infinite entry, or one beyond float32's range"
                )
            arrays.append(arr)
    return NetworkParams(arrays[:nw]), arrays[nw:], epoch, meta
