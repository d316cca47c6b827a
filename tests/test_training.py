import weakref

import numpy as np
import pytest

from qmlp import inference, training
from qmlp.data import NUM_CLASSES, EncodedDataset, LabelOutOfRange
from qmlp.inference import InferencePolicy, evaluate
from qmlp.network import (
    NetworkParams,
    ShapeMismatch,
    classical_forward_batch,
    init_network_params,
    softmax_cross_entropy_batch,
    ste_backward_batch,
)
from qmlp.quantum import HALF_PI, QuantumConfig, quantum_forward_batch
from qmlp.training import (
    ConfigInvalid,
    Hyperparams,
    sgd_momentum_step,
    train,
    training_error,
)

from oracles import sgd_momentum_step_allocating, ste_backward_batch_allocating
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
        self.velocity = [np.zeros_like(w) for w in self.params.W]

    def test_zero_momentum_is_plain_sgd(self):
        grads = [np.array([[0.2, -0.4]]), np.array([[1.0]])]
        sgd_momentum_step(self.params, self.velocity, grads, lr=0.1, momentum=0.0)
        assert np.allclose(self.params.W[0], [[1.0 - 0.02, 2.0 + 0.04]])
        assert np.allclose(self.params.W[1], [[0.5 - 0.1]])

    def test_zero_grads_zero_velocity_is_identity(self):
        grads = [np.zeros((1, 2)), np.zeros((1, 1))]
        sgd_momentum_step(self.params, self.velocity, grads, lr=0.1, momentum=0.9)
        assert np.allclose(self.params.W[0], [[1.0, 2.0]])
        assert np.allclose(self.params.W[1], [[0.5]])

    def test_two_steps_constant_gradient(self):
        # v1 = -lr g, v2 = -(1 + mu) lr g, total = -(2 + mu) lr g
        g = [np.array([[1.0, -2.0]]), np.array([[3.0]])]
        lr, mu = 0.05, 0.7
        w0 = [w.copy() for w in self.params.W]
        # the step consumes its gradients, so each step gets its own copy
        sgd_momentum_step(self.params, self.velocity, [x.copy() for x in g], lr, mu)
        sgd_momentum_step(self.params, self.velocity, [x.copy() for x in g], lr, mu)
        for k in range(2):
            assert np.allclose(self.params.W[k], w0[k] - lr * g[k] * (2 + mu))

    def test_shape_mismatch(self):
        with pytest.raises(Exception):
            sgd_momentum_step(
                self.params, self.velocity, [np.zeros((2, 2)), np.zeros((1, 1))], 0.1, 0.9
            )

    @pytest.mark.parametrize("count", [1, 3])
    def test_wrong_number_of_gradients(self, count):
        grads = [np.zeros((1, 2)), np.zeros((1, 1)), np.zeros((1, 1))][:count]
        with pytest.raises(ShapeMismatch, match=f"^{count} gradients for 2 matrices$"):
            sgd_momentum_step(self.params, self.velocity, grads, 0.1, 0.9)
        assert self.params.W[0].tolist() == [[1.0, 2.0]]  # refused before any update


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
            tiny_hyper(learning_rate=0.0)
        with pytest.raises(ConfigInvalid):
            tiny_hyper(batch_size=0)
        with pytest.raises(ConfigInvalid):
            tiny_hyper(momentum=1.0)
        with pytest.raises(ConfigInvalid):
            tiny_hyper(epochs=-1)
        with pytest.raises(ConfigInvalid, match="train_size must be >= 0, got -5"):
            tiny_hyper(train_size=-5)
        with pytest.raises(ConfigInvalid, match="val_size must be >= 1, got 0"):
            tiny_hyper(val_size=0)
        assert tiny_hyper(train_size=0, epochs=0).train_size == 0


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

        def recording_step(params, velocity, grads, lr, momentum):
            sgd_momentum_step(params, velocity, grads, lr, momentum)
            after_step.append([v.copy() for v in velocity])

        monkeypatch.setattr(training, "sgd_momentum_step", recording_step)
        metrics = train(tiny_hyper(quantum=QuantumConfig(a=0.5)), train_set, val_set)
        assert len(after_step) == 2 * 4
        for v, last in zip(metrics.velocity, after_step[-1]):
            assert np.array_equal(v, last)
            assert np.any(v != 0.0)

    def test_gradients_are_freed_before_the_epoch_evaluation(self, tiny_data, monkeypatch):
        train_set, val_set = tiny_data
        last_grads, alive_at_evaluation = [], []

        def recording_backward(*args):
            grads = ste_backward_batch(*args)
            last_grads[:] = [weakref.ref(g) for g in grads]
            return grads

        def recording_error(params, data):
            alive_at_evaluation.append(sum(ref() is not None for ref in last_grads))
            return training_error(params, data)

        monkeypatch.setattr(training, "ste_backward_batch", recording_backward)
        monkeypatch.setattr(training, "training_error", recording_error)
        train(tiny_hyper(), train_set, val_set)
        assert alive_at_evaluation == [0, 0]

    @pytest.mark.parametrize(
        "poisoned_step, message",
        [(2, "epoch 0, batch 2: the loss is nan"),
         (8, "epoch 1, batch 3: the final weights are not finite")],
    )
    def test_non_finite_run_raises_diverged(self, poisoned_step, message, tiny_data, monkeypatch):
        train_set, val_set = tiny_data
        steps = []

        def poisoning_step(params, velocity, grads, lr, momentum):
            sgd_momentum_step(params, velocity, grads, lr, momentum)
            steps.append(1)
            if len(steps) == poisoned_step:
                params.W[-1][0, 0] = np.nan

        monkeypatch.setattr(training, "sgd_momentum_step", poisoning_step)
        with pytest.raises(training.Diverged, match=message):
            train(tiny_hyper(), train_set, val_set)

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

    def test_label_beyond_num_classes_is_config_error(self, tiny_data):
        train_set, val_set = tiny_data

        def last_label(data, label):
            y = data.y.copy()
            y[-1] = label
            return EncodedDataset(data.X, y)

        for label in (NUM_CLASSES, -1):
            with pytest.raises(LabelOutOfRange, match=f"training label {label} at index 63 "):
                train(tiny_hyper(), last_label(train_set, label), val_set)
            with pytest.raises(LabelOutOfRange, match=f"validation label {label} at index 31 "):
                train(tiny_hyper(), train_set, last_label(val_set, label))
        top = last_label(train_set, NUM_CLASSES - 1), last_label(val_set, NUM_CLASSES - 1)
        assert train(tiny_hyper(epochs=0), *top).records == []

    def test_learning_happens_on_tiny_problem(self):
        # trivially separable inputs: the loss should drop
        rng = np.random.default_rng(0)
        y = rng.integers(0, 4, size=128)
        X = np.zeros((128, 8))
        X[np.arange(128), y] = 1.0
        data = EncodedDataset(X=X, y=y)
        hyper = tiny_hyper(
            epochs=30, train_size=128, val_size=128, batch_size=32
        )
        metrics = train(hyper, data, data)
        assert metrics.records[-1].mean_loss < metrics.records[0].mean_loss
        assert metrics.records[-1].train_error < 0.2


# the paper's classical, best-stretch, best-weak and combined points
PAPER_POINTS = [(0.0, HALF_PI), (0.316227766, HALF_PI), (0.0, 5 * np.pi / 19),
                (0.4641588834, 9 * np.pi / 19)]


@pytest.mark.parametrize("bp_scale", [1.0, 0.37])
@pytest.mark.parametrize("cfg", [QuantumConfig(a=0.0), QuantumConfig(a=0.316227766)])
def test_in_place_step_equals_the_allocating_step_byte_for_byte(bp_scale, cfg, tiny_data,
                                                                monkeypatch):
    train_set, val_set = tiny_data
    hyper = tiny_hyper(epochs=3, bp_scale=bp_scale, quantum=cfg)
    got = train(hyper, train_set, val_set)
    monkeypatch.setattr(training, "ste_backward_batch", ste_backward_batch_allocating)
    monkeypatch.setattr(training, "sgd_momentum_step", sgd_momentum_step_allocating)
    want = train(hyper, train_set, val_set)
    assert got.records == want.records
    for a, b in zip(got.params.W + got.velocity, want.params.W + want.velocity):
        assert a.dtype == b.dtype == np.float32 and a.tobytes() == b.tobytes()


class TestFloat32:
    """Library-made inputs and weights keep a run's arithmetic in float32."""

    def test_facts_the_classical_limit_rests_on(self):
        # the pole rotation by +-pi/2 gives <Z> = +-1 exactly, so p(+1) is exactly 0 or 1
        assert np.sin(np.float32(np.pi / 2)) == 1
        assert np.sin(np.float32(-np.pi / 2)) == -1
        # at sin g = 1 the weak update takes z to the outcome d exactly: (z + d) / (1 + d z)
        z = np.float32(0.3)
        assert (z + 1) / (1 + z) == 1 and (z - 1) / (1 - z) == -1

    @pytest.mark.parametrize("a, g", PAPER_POINTS)
    def test_one_step_and_one_evaluation_stay_float32(self, a, g, tiny_data, monkeypatch):
        train_set, val_set = tiny_data
        assert train_set.X.dtype == val_set.X.dtype == np.float32
        one_batch = EncodedDataset(train_set.X[:16], train_set.y[:16])
        cfg = QuantumConfig(a=a, g=g)
        seen = {"traces": [], "dF": [], "losses": [], "grads": [], "steps": [], "draws": []}

        class RecordingDraws:
            def __init__(self, rng):
                self.rng = rng

            def random(self, size, dtype=np.float64, out=None):
                u = self.rng.random(size, dtype=dtype, out=out)
                seen["draws"].append(u)
                return u

        def recording_forward(params, D0, cfg, rngs, first=None):
            if isinstance(rngs, np.ndarray):  # a pass's draws, made before the pass
                seen["draws"].append(rngs)
            else:
                rngs = [RecordingDraws(r) for r in rngs]
            trace = quantum_forward_batch(params, D0, cfg, rngs, first=first)
            seen["traces"].append(trace)
            return trace

        def recording_classical(params, D0):
            trace = classical_forward_batch(params, D0)
            seen["traces"].append(trace)
            return trace

        def recording_loss(F, y):
            losses, dF = softmax_cross_entropy_batch(F, y)
            seen["losses"].append(losses)
            seen["dF"].append(dF)
            return losses, dF

        def recording_backward(*args):
            grads = ste_backward_batch(*args)
            seen["grads"] += grads
            return grads

        def recording_step(params, velocity, grads, lr, momentum):
            sgd_momentum_step(params, velocity, grads, lr, momentum)
            seen["steps"] += params.W + velocity

        for module in (training, inference):
            monkeypatch.setattr(module, "quantum_forward_batch", recording_forward)
            monkeypatch.setattr(module, "classical_forward_batch", recording_classical)
        monkeypatch.setattr(training, "softmax_cross_entropy_batch", recording_loss)
        monkeypatch.setattr(training, "ste_backward_batch", recording_backward)
        monkeypatch.setattr(training, "sgd_momentum_step", recording_step)
        metrics = train(tiny_hyper(epochs=1, quantum=cfg), one_batch, val_set)
        evaluate(metrics.params, val_set, InferencePolicy.multi_shot(3, 0), quantum=cfg)

        assert len(seen["steps"]) == 2 * 3 and len(seen["grads"]) == 3  # one step of 3 matrices
        arrays = [x for t in seen["traces"] for x in t.Z + t.D + [t.F]]
        arrays += seen["dF"] + seen["losses"] + seen["grads"] + seen["steps"] + seen["draws"]
        arrays += metrics.params.W + metrics.velocity
        assert {x.dtype for x in arrays} == {np.dtype(np.float32)}
        # L * n = 2 * 16 draws per sample: 16 samples in the step, 32 in each of 3 shots
        draws = 0 if cfg.is_classical else 32 * (16 + 3 * val_set.count)
        assert sum(u.size for u in seen["draws"]) == draws
        (losses,) = seen["losses"]
        assert metrics.records[0].mean_loss == float(losses.sum(dtype=np.float64)) / 16


def _init_rng(seed):
    from qmlp.rng import INIT, substream

    return substream(seed, INIT)
