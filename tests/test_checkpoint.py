import numpy as np
import pytest

from qmlp.checkpoint import (
    CheckpointCorrupt,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
)
from qmlp.network import NetworkParams, init_network_params
from qmlp.training import OptimizerState


@pytest.fixture()
def params():
    return init_network_params(6, 4, 2, 3, np.random.default_rng(0))


def test_roundtrip_exact(tmp_path, params):
    opt = OptimizerState([np.full_like(w, 0.25) for w in params.W])
    path = tmp_path / "model.qckpt"
    save_checkpoint(path, params, opt, epoch=17, meta={"a": 0.5, "g": 1.0})
    loaded_params, loaded_opt, epoch, meta = load_checkpoint(path)
    assert epoch == 17
    assert meta == {"a": 0.5, "g": 1.0}
    for w, lw in zip(params.W, loaded_params.W):
        assert np.array_equal(w, lw)
    for v, lv in zip(opt.velocity, loaded_opt.velocity):
        assert np.array_equal(v, lv)


def test_bytes_are_deterministic(params):
    opt = OptimizerState.zeros_like(params)
    b1 = checkpoint_bytes(params, opt, epoch=3, meta={"seed": 9})
    b2 = checkpoint_bytes(params, opt, epoch=3, meta={"seed": 9})
    assert b1 == b2


def test_bad_magic(tmp_path, params):
    path = tmp_path / "bad.qckpt"
    path.write_bytes(b"NOTQMLP!" + b"\x00" * 64)
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(path)


def test_truncated_payload(tmp_path, params):
    blob = checkpoint_bytes(params)
    path = tmp_path / "trunc.qckpt"
    path.write_bytes(blob[:-20])
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(path)


def test_trailing_garbage(tmp_path, params):
    path = tmp_path / "extra.qckpt"
    path.write_bytes(checkpoint_bytes(params) + b"\x00\x01")
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(path)


def test_unknown_version(tmp_path, params):
    blob = bytearray(checkpoint_bytes(params))
    blob[8] = 99
    path = tmp_path / "vers.qckpt"
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
    opt = OptimizerState([np.zeros(s) for s in velocity])
    path = tmp_path / "shapes.qckpt"
    path.write_bytes(checkpoint_bytes(params, opt))
    with pytest.raises(CheckpointCorrupt, match=message):
        load_checkpoint(path)
