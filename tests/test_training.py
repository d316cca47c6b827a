import numpy as np
import pytest

from qmlp.data import EncodedDataset
from qmlp.inference import InferencePolicy
from qmlp.network import NetworkParams, init_network_params
from qmlp import training
from qmlp.quantum import HALF_PI, QuantumConfig, quantum_forward_batch
from qmlp.training import (
    ConfigInvalid,
    Hyperparams,
    OptimizerState,
    sgd_momentum_step,
    train,
)

from synthdigits import make_raw_dataset
from qmlp.data import encode_dataset


def tiny_hyper(**overrides):
    defaults = dict(
        hidden_layers=2,
        hidden_size=16,
        learning_rate=0.01,
        momentum=0.9,
        batch_size=16,
        epochs=2,
        train_size=64,
        val_size=32,
        quantum=QuantumConfig(a=0.0),
        seed=5,
    )
    defaults.update(overrides)
    return Hyperparams(**defaults)


@pytest.fixture(scope="module")
def tiny_data():
    train_set = encode_dataset(make_raw_dataset(64, seed=101))
    val_set = encode_dataset(make_raw_dataset(32, seed=102))
    return train_set, val_set


class TestSgdMomentumStep:
    def setup_method(self):
        self.params = NetworkParams([np.array([[1.0, 2.0]]), np.array([[0.5]])])
        self.opt = OptimizerState.zeros_like(self.params)

    def test_zero_momentum_is_plain_sgd(self):
        grads = [np.array([[0.2, -0.4]]), np.array([[1.0]])]
        sgd_momentum_step(self.params, self.opt, grads, lr=0.1, momentum=0.0)
        assert np.allclose(self.params.W[0], [[1.0 - 0.02, 2.0 + 0.04]])
        assert np.allclose(self.params.W[1], [[0.5 - 0.1]])

    def test_zero_grads_zero_velocity_is_identity(self):
        grads = [np.zeros((1, 2)), np.zeros((1, 1))]
        sgd_momentum_step(self.params, self.opt, grads, lr=0.1, momentum=0.9)
        assert np.allclose(self.params.W[0], [[1.0, 2.0]])
        assert np.allclose(self.params.W[1], [[0.5]])

    def test_two_steps_constant_gradient(self):
        # v1 = -lr g, v2 = -(1 + mu) lr g, total = -(2 + mu) lr g
        g = [np.array([[1.0, -2.0]]), np.array([[3.0]])]
        lr, mu = 0.05, 0.7
        w0 = [w.copy() for w in self.params.W]
        sgd_momentum_step(self.params, self.opt, g, lr, mu)
        sgd_momentum_step(self.params, self.opt, g, lr, mu)
        for k in range(2):
            assert np.allclose(self.params.W[k], w0[k] - lr * g[k] * (2 + mu))

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            sgd_momentum_step(
                self.params, self.opt, [np.zeros((2, 2)), np.zeros((1, 1))], 0.1, 0.9
            )


class TestHyperparams:
    def test_benchmark_defaults(self):
        h = Hyperparams()
        assert h.hidden_layers == 3
        assert h.hidden_size == 512
        assert h.learning_rate == 0.01
        assert h.momentum == 0.9
        assert h.batch_size == 64
        assert h.epochs == 500
        assert h.train_size == 5000
        assert h.val_size == 10000

    def test_validation(self):
        with pytest.raises(ConfigInvalid):
            tiny_hyper(learning_rate=0.0).validate()
        with pytest.raises(ConfigInvalid):
            tiny_hyper(batch_size=0).validate()
        with pytest.raises(ConfigInvalid):
            tiny_hyper(momentum=1.0).validate()
        with pytest.raises(ConfigInvalid):
            tiny_hyper(epochs=-1).validate()


class TestTrain:
    def test_zero_epochs_returns_initial_snapshot(self, tiny_data):
        train_set, val_set = tiny_data
        hyper = tiny_hyper(epochs=0)
        metrics = train(hyper, train_set, val_set)
        assert metrics.records == []
        expected = init_network_params(
            784, hyper.hidden_size, hyper.hidden_layers, 10, _init_rng(hyper.seed)
        )
        for w, e in zip(metrics.params.W, expected.W):
            assert np.array_equal(w, e)

    def test_reproducible_bitwise(self, tiny_data):
        train_set, val_set = tiny_data
        hyper = tiny_hyper(quantum=QuantumConfig(a=0.5, g=1.0))
        m1 = train(hyper, train_set, val_set)
        m2 = train(hyper, train_set, val_set)
        assert m1.records == m2.records
        for w1, w2 in zip(m1.params.W, m2.params.W):
            assert np.array_equal(w1, w2)

    def test_different_seed_differs(self, tiny_data):
        train_set, val_set = tiny_data
        m1 = train(tiny_hyper(seed=5), train_set, val_set)
        m2 = train(tiny_hyper(seed=6), train_set, val_set)
        assert any(
            not np.array_equal(w1, w2) for w1, w2 in zip(m1.params.W, m2.params.W)
        )

    def test_classical_config_equals_forced_quantum_path(self, tiny_data, monkeypatch):
        # (a=0, g=pi/2) must produce byte-identical trajectories whether the
        # forward pass goes through the classical or the quantum sampler
        train_set, val_set = tiny_data
        hyper = tiny_hyper(quantum=QuantumConfig(a=0.0, g=HALF_PI))
        m_classical = train(hyper, train_set, val_set)
        sampled = []
        monkeypatch.setattr(QuantumConfig, "is_classical", property(lambda self: False))
        monkeypatch.setattr(
            training, "quantum_forward_batch",
            lambda *args: sampled.append(1) or quantum_forward_batch(*args),
        )
        m_quantum = train(hyper, train_set, val_set)
        assert len(sampled) == hyper.epochs * 4  # every batch went through the sampler
        assert m_classical.records == m_quantum.records
        for w1, w2 in zip(m_classical.params.W, m_quantum.params.W):
            assert np.array_equal(w1, w2)

    def test_returns_optimizer_state_of_last_step(self, tiny_data, monkeypatch):
        train_set, val_set = tiny_data
        after_step = []

        def recording_step(params, opt, grads, lr, momentum):
            out = sgd_momentum_step(params, opt, grads, lr, momentum)
            after_step.append([v.copy() for v in opt.velocity])
            return out

        monkeypatch.setattr(training, "sgd_momentum_step", recording_step)
        metrics = train(tiny_hyper(quantum=QuantumConfig(a=0.5)), train_set, val_set)
        assert len(after_step) == 2 * 4
        for v, last in zip(metrics.opt.velocity, after_step[-1]):
            assert np.array_equal(v, last)
            assert np.any(v != 0.0)

    def test_metrics_shape_and_ranges(self, tiny_data):
        train_set, val_set = tiny_data
        hyper = tiny_hyper(epochs=3)
        metrics = train(hyper, train_set, val_set)
        assert len(metrics.records) == 3
        for i, rec in enumerate(metrics.records):
            assert rec.epoch == i
            assert 0.0 <= rec.train_error <= 1.0
            assert 0.0 <= rec.val_error <= 1.0
            assert np.isfinite(rec.mean_loss)

    def test_loss_finite_with_quantum_noise(self, tiny_data):
        train_set, val_set = tiny_data
        hyper = tiny_hyper(quantum=QuantumConfig(a=1.0, g=0.8), epochs=2)
        metrics = train(hyper, train_set, val_set)
        assert all(np.isfinite(r.mean_loss) for r in metrics.records)

    def test_on_epoch_callback(self, tiny_data):
        train_set, val_set = tiny_data
        seen = []
        train(tiny_hyper(epochs=2), train_set, val_set, on_epoch=seen.append)
        assert [r.epoch for r in seen] == [0, 1]

    def test_multi_shot_eval_policy(self, tiny_data):
        train_set, val_set = tiny_data
        hyper = tiny_hyper(quantum=QuantumConfig(a=0.5), epochs=1)
        metrics = train(
            hyper, train_set, val_set, eval_policy=InferencePolicy.multi_shot(3, seed=1)
        )
        assert 0.0 <= metrics.records[0].val_error <= 1.0

    def test_learning_happens_on_tiny_problem(self):
        # trivially separable inputs: the loss should drop
        rng = np.random.default_rng(0)
        y = rng.integers(0, 4, size=128)
        X = np.zeros((128, 8))
        X[np.arange(128), y] = 1.0
        data = EncodedDataset(X=X, y=y)
        hyper = tiny_hyper(
            epochs=30, train_size=128, val_size=128, batch_size=32, num_classes=4
        )
        metrics = train(hyper, data, data)
        assert metrics.records[-1].mean_loss < metrics.records[0].mean_loss
        assert metrics.records[-1].train_error < 0.2


def _init_rng(seed):
    from qmlp.rng import INIT, substream

    return substream(seed, INIT)
