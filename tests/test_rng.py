import hashlib

import numpy as np

import qmlp.inference
import qmlp.training
from qmlp.data import encode_dataset
from qmlp.inference import prediction_matrix
from qmlp.network import init_network_params
from qmlp.quantum import HALF_PI, QuantumConfig
from qmlp.rng import FORWARD, INIT, SHUFFLE, SUBSET, mix64, splitmix64, substream
from qmlp.training import Hyperparams, train

from synthdigits import make_raw_dataset


def test_mix64_is_deterministic_and_64bit():
    assert mix64(1, 2, 3) == mix64(1, 2, 3)
    assert 0 <= mix64(123456789, 42) < 1 << 64


def test_mix64_sensitive_to_every_part():
    base = mix64(7, INIT, 0, 0)
    assert mix64(8, INIT, 0, 0) != base
    assert mix64(7, SUBSET, 0, 0) != base
    assert mix64(7, INIT, 1, 0) != base
    assert mix64(7, INIT, 0, 1) != base
    assert mix64(7, INIT) != mix64(7, INIT, 0)


def test_splitmix64_reference_values():
    # the first outputs of the published SplitMix64 sequence for seed 0 are
    # the finalizer applied to successive multiples of the golden constant
    golden = 0x9E3779B97F4A7C15
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(golden) == 0x6E789E6AA1B965F4
    assert splitmix64((2 * golden) & ((1 << 64) - 1)) == 0x06C45D188009454F


def test_substreams_differ_and_reproduce():
    a = substream(3, FORWARD, 0, 0, 0).random(4)
    b = substream(3, FORWARD, 0, 0, 1).random(4)
    c = substream(3, FORWARD, 0, 0, 0).random(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_vectorized_draws_match_scalar_draws():
    # quantum_forward_batch draws rng.random((L, n)) per sample; this must
    # equal L * n scalar draws for the one-draw-per-measurement contract
    g1 = substream(11, SHUFFLE)
    g2 = substream(11, SHUFFLE)
    vec = g1.random(16)
    scalars = np.array([g2.random() for _ in range(16)])
    assert np.array_equal(vec, scalars)

    g3 = substream(11, SHUFFLE)
    g4 = substream(11, SHUFFLE)
    mat = g3.random((4, 8))
    flat = g4.random(32)
    assert np.array_equal(mat.reshape(-1), flat)


class RecordedGenerator:
    """A generator that logs the bytes each of its random() calls returns."""

    def __init__(self, gen, log):
        self.gen, self.log = gen, log

    def random(self, *args, **kwargs):
        out = self.gen.random(*args, **kwargs)
        self.log.append(np.asarray(out).tobytes())
        return out

    def __getattr__(self, name):
        return getattr(self.gen, name)


def draw_digest(monkeypatch, run):
    """(SHA-256 of every random() draw run() takes from qmlp's streams, number of calls)."""
    log = []

    def recording(seed, *parts):
        return RecordedGenerator(substream(seed, *parts), log)

    for module in (qmlp.training, qmlp.inference):
        monkeypatch.setattr(module, "substream", recording)
    run()
    return hashlib.sha256(b"".join(log)).hexdigest(), len(log)


# The draw schedule is frozen: a change to these digests changes the streams of every run,
# so it comes with a new sweep.NUMERICS. The draws do not depend on BLAS, so neither do
# the digests. 3x5 nets draw an odd 15 float32 uniforms per sample and pass.


def test_training_draw_schedule_is_frozen(monkeypatch):
    hyper = Hyperparams(hidden_layers=3, hidden_size=5, batch_size=16, epochs=1, train_size=40,
                        val_size=8, quantum=QuantumConfig(a=0.316227766, g=HALF_PI), seed=5)
    train_set = encode_dataset(make_raw_dataset(40, seed=101))
    val_set = encode_dataset(make_raw_dataset(8, seed=102))
    digest = draw_digest(monkeypatch, lambda: train(hyper, train_set, val_set))
    # one FORWARD stream and one random() call per sample
    assert digest == ("b63f374a7a3a594a96f401efd811c20cecce4e8de0f6a7fa602a8b9ace08fe1a", 40)


def test_evaluation_draw_schedule_is_frozen(monkeypatch):
    params = init_network_params(784, 5, 3, 10, np.random.default_rng(0))
    data = encode_dataset(make_raw_dataset(6, seed=103))
    cfg = QuantumConfig(a=0.4641588834, g=9 * np.pi / 19)
    digest = draw_digest(monkeypatch, lambda: prediction_matrix(params, data, cfg, 3, seed=7))
    # 3 shots of 6 samples, each shot continuing its sample's stream
    assert digest == ("c201274433c8214e50f7888a3b3fc2cb4f622ffbc99da052a41a494ec9af23f0", 18)
