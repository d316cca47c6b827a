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
the reproducibility tests rely on.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .network import NetworkParams
from .training import OptimizerState

MAGIC = b"QMLPCKPT"
VERSION = 1


class CheckpointCorrupt(ValueError):
    """Checkpoint file is malformed, truncated, or of an unknown version."""


def checkpoint_bytes(
    params: NetworkParams,
    opt: OptimizerState | None = None,
    epoch: int = 0,
    meta: dict | None = None,
) -> bytes:
    if opt is None:
        opt = OptimizerState.zeros_like(params)
    header = {
        "epoch": int(epoch),
        "meta": meta or {},
        "weights": [list(w.shape) for w in params.W],
        "velocity": [list(v.shape) for v in opt.velocity],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<II", VERSION, len(blob)), blob]
    for arr in list(params.W) + list(opt.velocity):
        parts.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return b"".join(parts)


def write_atomic(path, data: bytes):
    """Write data to `path` through a temporary file in the same directory.

    The rename is atomic, so a reader (or a resumed run) sees either the
    previous file or the complete new one, never a torn write.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def save_checkpoint(path, params, opt=None, epoch=0, meta=None):
    write_atomic(path, checkpoint_bytes(params, opt, epoch, meta))


def load_checkpoint(path):
    """Return (params, opt, epoch, meta) or raise CheckpointCorrupt."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16 or data[:8] != MAGIC:
        raise CheckpointCorrupt(f"{path}: not a checkpoint file (bad magic)")
    version, hlen = struct.unpack("<II", data[8:16])
    if version != VERSION:
        raise CheckpointCorrupt(f"{path}: unsupported checkpoint version {version}")
    if len(data) < 16 + hlen:
        raise CheckpointCorrupt(f"{path}: truncated header")
    try:
        header = json.loads(data[16 : 16 + hlen].decode("utf-8"))
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
    offset = 16 + hlen
    arrays = []
    for shape in weight_shapes + velocity_shapes:
        nbytes = 8 * int(np.prod(shape))
        if len(data) < offset + nbytes:
            raise CheckpointCorrupt(f"{path}: truncated payload")
        arrays.append(
            np.frombuffer(data, dtype="<f8", count=int(np.prod(shape)), offset=offset)
            .reshape(shape)
            .copy()
        )
        offset += nbytes
    if offset != len(data):
        raise CheckpointCorrupt(f"{path}: {len(data) - offset} trailing bytes")
    nw = len(weight_shapes)
    params = NetworkParams(arrays[:nw])
    opt = OptimizerState(velocity=arrays[nw:])
    return params, opt, epoch, meta
