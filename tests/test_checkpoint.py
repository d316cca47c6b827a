import errno
import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest

import qmlp.checkpoint
from qmlp.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointCorrupt,
    load_checkpoint,
    save_checkpoint,
    write_atomic,
)
from qmlp.network import NetworkParams, init_network_params

from conftest import traced_peak


@pytest.fixture()
def params():
    return init_network_params(6, 4, 2, 3, np.random.default_rng(0))


def test_roundtrip_exact(tmp_path, params):
    velocity = [np.full_like(w, 0.25) for w in params.W]
    path = tmp_path / "model.qckpt"
    save_checkpoint(path, params, velocity, epoch=17, meta={"a": 0.5, "g": 1.0})
    loaded_params, loaded_velocity, epoch, meta = load_checkpoint(path)
    assert epoch == 17
    assert meta == {"a": 0.5, "g": 1.0}
    for w, lw in zip(params.W, loaded_params.W):
        assert np.array_equal(w, lw)
    for v, lv in zip(velocity, loaded_velocity):
        assert np.array_equal(v, lv)


def test_bytes_are_deterministic(tmp_path, params):
    velocity = [np.zeros_like(w) for w in params.W]
    first, second = tmp_path / "first.qckpt", tmp_path / "second.qckpt"
    save_checkpoint(first, params, velocity, epoch=3, meta={"seed": 9})
    save_checkpoint(second, params, velocity, epoch=3, meta={"seed": 9})
    assert first.read_bytes() == second.read_bytes()


def test_bad_magic(tmp_path, params):
    path = tmp_path / "bad.qckpt"
    path.write_bytes(b"NOTQMLP!" + b"\x00" * 64)
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(path)


def test_truncated_payload(tmp_path, params):
    path = tmp_path / "trunc.qckpt"
    save_checkpoint(path, params)
    path.write_bytes(path.read_bytes()[:-20])
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(path)


def test_truncated_header(tmp_path, params):
    path = tmp_path / "trunc.qckpt"
    save_checkpoint(path, params)
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(CheckpointCorrupt, match="truncated header"):
        load_checkpoint(path)


def test_shape_that_overflows_int64_is_truncation(tmp_path):
    side = 1 << 32  # side * side wraps to 0 in int64
    header = json.dumps({"epoch": 0, "meta": {}, "weights": [[side, side]],
                         "velocity": [[side, side]]}).encode()
    path = tmp_path / "huge.qckpt"
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(header)) + header)
    with pytest.raises(CheckpointCorrupt, match="truncated payload"):
        load_checkpoint(path)


def test_trailing_garbage(tmp_path, params):
    path = tmp_path / "extra.qckpt"
    save_checkpoint(path, params)
    path.write_bytes(path.read_bytes() + b"\x00\x01")
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(path)


def test_unknown_version(tmp_path, params):
    path = tmp_path / "vers.qckpt"
    save_checkpoint(path, params)
    blob = bytearray(path.read_bytes())
    blob[8] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "weights, velocity, message",
    [
        ([(3, 6), (5, 2)], [(3, 6), (5, 2)], "do not chain"),
        ([(3, 6), (5, 3)], [(3, 6), (3, 5)], "differ from the weights'"),
        ([(3, 6), (5, 3)], [(3, 6)], "differ from the weights'"),
        ([], [], "are not non-empty matrices"),
        ([(0, 6), (5, 0)], [(0, 6), (5, 0)], "are not non-empty matrices"),
    ],
)
def test_inconsistent_shapes(tmp_path, weights, velocity, message):
    params = NetworkParams([np.zeros(s) for s in weights])
    path = tmp_path / "shapes.qckpt"
    save_checkpoint(path, params, [np.zeros(s) for s in velocity])
    with pytest.raises(CheckpointCorrupt, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "array, index, value, name",
    [
        ("weights", 1, np.nan, "weight matrix 1"),
        ("weights", 0, -np.inf, "weight matrix 0"),
        ("velocity", 2, np.inf, "velocity matrix 2"),
        ("velocity", 0, np.nan, "velocity matrix 0"),
    ],
)
def test_non_finite_entry_is_refused(tmp_path, params, array, index, value, name):
    velocity = [np.full_like(w, 0.25) for w in params.W]
    (params.W if array == "weights" else velocity)[index][0, 1] = value
    path = tmp_path / "nonfinite.qckpt"
    save_checkpoint(path, params, velocity, epoch=1)
    with pytest.raises(CheckpointCorrupt, match=f"{name} holds a NaN or infinite entry"):
        load_checkpoint(path)


def test_float32_save_load_save_is_byte_identical(tmp_path, params):
    assert {w.dtype for w in params.W} == {np.dtype(np.float32)}
    velocity = [np.full_like(w, 0.1) for w in params.W]  # 0.1 is inexact in float32
    path = tmp_path / "model.qckpt"
    save_checkpoint(path, params, velocity, epoch=4, meta={"numerics": 2})
    loaded, loaded_velocity, epoch, meta = load_checkpoint(path)
    assert {a.dtype for a in loaded.W + loaded_velocity} == {np.dtype(np.float32)}
    resaved = tmp_path / "resaved.qckpt"
    save_checkpoint(resaved, loaded, loaded_velocity, epoch, meta)
    assert resaved.read_bytes() == path.read_bytes()


def test_float64_payload_loads_narrowed_to_float32(tmp_path):
    # the bytes a float64 run wrote, laid out by hand from the documented format
    rng = np.random.default_rng(3)
    weights = [rng.uniform(-1, 1, size=(4, 6)), rng.uniform(-1, 1, size=(3, 4))]
    header = {"epoch": 2, "meta": {"a": 0.0, "g": 1.0, "seed": 1},
              "weights": [[4, 6], [3, 4]], "velocity": [[4, 6], [3, 4]]}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    payload = b"".join(w.astype("<f8").tobytes() for w in weights + weights)
    path = tmp_path / "float64.qckpt"
    path.write_bytes(MAGIC + struct.pack("<II", 1, len(blob)) + blob + payload)
    loaded, velocity, epoch, meta = load_checkpoint(path)
    for w, lw, lv in zip(weights, loaded.W, velocity):
        assert lw.dtype == lv.dtype == np.float32
        assert np.array_equal(lw, w.astype(np.float32))
        assert np.array_equal(lv, w.astype(np.float32))
    assert (epoch, meta) == (2, header["meta"])


def test_entry_beyond_float32_range_is_refused(tmp_path, params):
    W = [w.astype(np.float64) for w in params.W]
    W[1][2, 0] = -1e39  # finite in the float64 payload, infinite as float32
    path = tmp_path / "wide.qckpt"
    save_checkpoint(path, NetworkParams(W), epoch=1)
    with pytest.raises(CheckpointCorrupt, match="weight matrix 1 holds a NaN or infinite entry, "
                                                "or one beyond float32's range"):
        load_checkpoint(path)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("with_velocity", [False, True])
@pytest.mark.parametrize("meta", [None, {"a": 0.5, "seed": 3}])
def test_saved_file_is_the_documented_layout(tmp_path, params, dtype, with_velocity, meta):
    W = [w.astype(dtype) for w in params.W]
    velocity = [np.full_like(w, 0.1) for w in W] if with_velocity else None
    path = tmp_path / "model.qckpt"
    save_checkpoint(path, NetworkParams(W), velocity, epoch=5, meta=meta)
    shapes = [list(w.shape) for w in W]
    header = {"epoch": 5, "meta": meta or {}, "weights": shapes, "velocity": shapes}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    matrices = W + (velocity or [np.zeros_like(w) for w in W])
    payload = b"".join(a.astype("<f8").tobytes() for a in matrices)
    expected = MAGIC + struct.pack("<II", VERSION, len(blob)) + blob + payload
    assert path.read_bytes() == expected


@pytest.fixture()
def wide_net():
    """A 784 -> 3x128 -> 10 net and a nonzero velocity: a 2.15 MB checkpoint."""
    params = init_network_params(784, 128, 3, 10, np.random.default_rng(1))
    return params, [np.full_like(w, 0.25) for w in params.W]


@pytest.mark.parametrize("with_velocity", [False, True])
def test_save_allocates_less_than_the_file(tmp_path, wide_net, with_velocity):
    params, velocity = wide_net
    path = tmp_path / "wide.qckpt"
    _, peak = traced_peak(save_checkpoint, path, params, velocity if with_velocity else None)
    assert peak < path.stat().st_size
    assert peak < 1.1 * max(8 * w.size for w in params.W)  # one float64 matrix at a time


def test_load_holds_one_float64_matrix_beyond_its_arrays(tmp_path, wide_net):
    params, velocity = wide_net
    path = tmp_path / "wide.qckpt"
    save_checkpoint(path, params, velocity, epoch=2)
    (loaded, loaded_velocity, _, _), peak = traced_peak(load_checkpoint, path)
    for a, b in zip(params.W + velocity, loaded.W + loaded_velocity):
        assert np.array_equal(a, b)
    returned = sum(a.nbytes for a in loaded.W + loaded_velocity)
    largest = max(8 * w.size for w in params.W)
    assert peak < returned + 2 * largest


def test_payload_cut_after_fstat_is_truncation(tmp_path, params, monkeypatch):
    path = tmp_path / "model.qckpt"
    save_checkpoint(path, params)
    opened = SimpleNamespace(st_size=path.stat().st_size)  # the size fstat saw
    path.write_bytes(path.read_bytes()[:-20])
    monkeypatch.setattr(qmlp.checkpoint.os, "fstat", lambda fd: opened)
    with pytest.raises(CheckpointCorrupt, match="truncated payload"):
        load_checkpoint(path)


class HalfWrite:
    """A file that writes half of what it is given, then raises `exc`."""

    def __init__(self, fh, exc):
        self.fh, self.exc = fh, exc

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise self.exc


@pytest.mark.parametrize(
    "exc", [OSError(errno.ENOSPC, "No space left on device"), KeyboardInterrupt()],
    ids=["ENOSPC", "interrupt"],
)
def test_failed_write_keeps_the_file_and_leaves_no_temp(tmp_path, monkeypatch, exc):
    path = tmp_path / "model.qckpt"
    path.write_bytes(b"previous bytes")
    monkeypatch.setattr(
        qmlp.checkpoint, "open", lambda p, mode: HalfWrite(open(p, mode), exc), raising=False
    )
    with pytest.raises(type(exc)):
        write_atomic(path, b"new bytes that never land")
    assert path.read_bytes() == b"previous bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.qckpt"]
