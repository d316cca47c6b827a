import os
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import qmlp.inference
import qmlp.quantum
from qmlp.data import EncodedDataset, encode_dataset
from qmlp.inference import (
    EmptyDataset,
    InferencePolicy,
    evaluate,
    mode_over_shots,
    predict_batch_deterministic,
    prediction_matrix,
    vote_errors,
)
from qmlp.network import NetworkParams, init_network_params, sign
from qmlp.quantum import HALF_PI, QuantumConfig, draw, quantum_forward_batch
from qmlp.rng import EVAL, substream

from oracles import as_float64, classical_forward, exact_prediction_law, shot_predictions
from synthdigits import make_raw_dataset


# The paper's sweep points and the classical point; at g = 1.57079632 < pi/2,
# sin g rounds to 1.0, so one weak outcome has probability 0.
POINTS = [
    (0.4641588834, 9 * np.pi / 19),
    (0.0, 5 * np.pi / 19),
    (0.316227766, HALF_PI),
    (0.0, HALF_PI),
    (0.5, 1.57079632),
]

# (layers, width, _EVAL_QUBITS) by test id: a pass takes _EVAL_QUBITS // n samples, at
# least 1, where n is W[0]'s row count, the output size 10 with 0 layers; 40 samples in
# passes of 16 leave one partial pass; 3x5 draws an odd 15 float32 uniforms per shot, so
# every other shot's block starts half-way through a 64-bit output
NETS = {"3": (3, 8, 128), "0": (0, 8, 160), "3x5": (3, 5, 80), "3x5-chunk1": (3, 5, 4)}


class Block:
    """A generator stand-in whose one random() call fills `out` with a fixed block of draws."""

    def __init__(self, block):
        self.block = block

    def random(self, size, dtype, out):
        assert (size, dtype) == (self.block.shape, self.block.dtype) == (out.shape, out.dtype)
        out[...] = self.block
        return out


def per_shot_passes(params, data, cfg, shots, seed):
    """prediction_matrix as one self-contained forward pass per (16-sample chunk, shot);
    as each sample has its own draws, the chunk size is immaterial.

    Sample i's shots * L * n uniforms are drawn from its generator,
    substream(seed, EVAL, i), in one call, and shot j's pass gets the
    j-th L * n block of them.
    """
    L, n = params.num_hidden_layers, params.W[0].shape[0]
    dtype = np.result_type(params.W[0], data.X)
    draws = [substream(seed, EVAL, i).random((shots, L, n), dtype=dtype)
             for i in range(data.count)]
    preds = np.empty((data.count, shots), dtype=np.int64)
    chunk = 16
    for start in range(0, data.count, chunk):
        D0 = data.X[start : start + chunk].T
        for j in range(shots):
            blocks = [Block(d[j]) for d in draws[start : start + chunk]]
            F = quantum_forward_batch(params, D0, cfg, blocks, first=None).F
            preds[start : start + chunk, j] = np.argmax(F, axis=0)
    return preds


def final_mode(preds, num_classes=10):
    """Each row's modal class, from one bincount per row; ties go to the lowest class."""
    return np.array([np.argmax(np.bincount(row, minlength=num_classes)) for row in preds])


def const_net(logits):
    """Single-layer net whose output is `logits` for the all-ones input."""
    f = np.asarray(logits, dtype=np.float64)
    return NetworkParams([np.diag(f)]), np.ones(len(f))


def predict_one(params, x):
    return int(predict_batch_deterministic(params, np.asarray(x)[None, :])[0])


def one_sample(x):
    X = np.asarray(x, dtype=np.float64)[None, :]
    return EncodedDataset(X=X, y=np.zeros(1, dtype=np.int64))


class TestDeterministic:
    def test_repeatable(self):
        params = init_network_params(5, 4, 2, 3, np.random.default_rng(0))
        x = np.random.default_rng(1).uniform(0, 1, size=5)
        assert predict_one(params, x) == predict_one(params, x)

    def test_unique_max(self):
        params, x = const_net([0.0, 1.0, 5.0, 3.0, 2.0])
        assert predict_one(params, x) == 2

    def test_tie_breaks_to_lowest_index(self):
        params, x = const_net([2.0, 2.0, 2.0])
        assert predict_one(params, x) == 0

    def test_batch_matches_scalar(self):
        params = init_network_params(6, 4, 2, 5, np.random.default_rng(2))
        X = np.random.default_rng(3).uniform(0, 1, size=(20, 6))
        batch = predict_batch_deterministic(params, X)
        for i in range(20):
            assert batch[i] == predict_one(params, X[i])
            assert batch[i] == int(np.argmax(classical_forward(params, X[i]).f))


class TestModalClass:
    def test_simple_majority(self):
        assert mode_over_shots(np.array([[1, 1, 2]]), 4)[:, -1].tolist() == [1]

    def test_even_shot_tie_prefers_lowest(self):
        assert mode_over_shots(np.array([[3, 1, 3, 1]]), 5)[:, -1].tolist() == [1]

    def test_odd_shots_two_way_tie_impossible(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            preds = rng.integers(0, 2, size=7)
            counts = np.bincount(preds, minlength=2)
            assert counts[0] != counts[1]  # odd shots, two classes

    def test_mode_over_shots_rows(self):
        preds = np.array([[0, 0, 1], [2, 1, 1], [3, 4, 3]])
        assert mode_over_shots(preds, 5)[:, -1].tolist() == [0, 1, 3]

    def test_running_mode_is_each_prefix_mode(self):
        # few classes make ties common: 2 classes tie at every even prefix with equal counts
        rng = np.random.default_rng(24)
        ties = 0
        for n, shots, classes in [(50, 8, 2), (40, 12, 3), (30, 20, 10), (5, 1, 4)]:
            preds = rng.integers(0, classes, size=(n, shots))
            modes = mode_over_shots(preds, classes)
            assert modes.shape == (n, shots)
            for k in range(1, shots + 1):
                assert np.array_equal(modes[:, k - 1], final_mode(preds[:, :k], classes))
                counts = [np.bincount(row, minlength=classes) for row in preds[:, :k]]
                ties += sum(int(np.sum(c == c.max()) > 1) for c in counts)
        assert ties > 100


class TestPredictMode:
    def test_classical_config_equals_deterministic(self):
        params = init_network_params(6, 5, 2, 4, np.random.default_rng(5))
        X = np.random.default_rng(6).uniform(0, 1, size=(10, 6))
        data = EncodedDataset(X=X, y=np.zeros(10, dtype=np.int64))
        matrix = prediction_matrix(params, data, QuantumConfig(a=0.0, g=HALF_PI), 7, seed=6)
        modal = mode_over_shots(matrix, params.output_size)[:, -1]
        assert np.array_equal(modal, predict_batch_deterministic(params, X))

    def test_single_shot_is_single_stochastic_pass(self):
        params = init_network_params(6, 5, 2, 4, np.random.default_rng(7))
        x = np.random.default_rng(8).uniform(0, 1, size=6)
        cfg = QuantumConfig(a=0.8)
        got = prediction_matrix(params, one_sample(x), cfg, 1, seed=9)
        assert got.tolist() == [shot_predictions(params, x, cfg, 1, seed=9, index=0)]

    def test_shots_continue_the_sample_stream(self):
        # shot j of sample i takes the j-th L * n block of substream(seed, EVAL, i)
        params = init_network_params(6, 5, 1, 4, np.random.default_rng(10))
        X = np.random.default_rng(11).uniform(0, 1, size=(3, 6))
        data = EncodedDataset(X=X, y=np.zeros(3, dtype=np.int64))
        cfg = QuantumConfig(a=0.5)
        matrix = prediction_matrix(params, data, cfg, 5, seed=12)
        for i in range(3):
            assert matrix[i].tolist() == shot_predictions(params, X[i], cfg, 5, seed=12, index=i)


class TestEvaluate:
    def make_data(self, n=40):
        return encode_dataset(make_raw_dataset(n, seed=200))

    def test_all_correct_predictor(self):
        # one-hot inputs, identity-ish network that recovers the label
        y = np.arange(10).repeat(3)
        X = np.zeros((30, 10))
        X[np.arange(30), y] = 1.0
        params = NetworkParams([np.eye(10)])
        err = evaluate(params, EncodedDataset(X=X, y=y), InferencePolicy.deterministic())
        assert err == 0.0

    def test_constant_predictor_on_uniform_labels(self):
        # predicting class 0 against uniform labels errs ~0.9
        rng = np.random.default_rng(13)
        n = 4000
        y = rng.integers(0, 10, size=n)
        X = rng.uniform(0, 1, size=(n, 4))
        logits = np.zeros((10, 4))
        logits[0] = 1.0
        params = NetworkParams([logits])
        err = evaluate(params, EncodedDataset(X=X, y=y), InferencePolicy.deterministic())
        p = 0.9
        assert abs(err - p) <= 3 * np.sqrt(p * (1 - p) / n)

    def test_empty_dataset(self):
        data = EncodedDataset(X=np.zeros((0, 4)), y=np.zeros(0, dtype=np.int64))
        with pytest.raises(EmptyDataset):
            evaluate(NetworkParams([np.eye(4)]), data, InferencePolicy.deterministic())

    def test_pure_function_of_inputs(self):
        params = init_network_params(784, 8, 1, 10, np.random.default_rng(14))
        data = self.make_data()
        pol = InferencePolicy.multi_shot(shots=5, seed=77)
        cfg = QuantumConfig(a=0.5)
        assert evaluate(params, data, pol, cfg) == evaluate(params, data, pol, cfg)

    def test_multi_shot_classical_equals_deterministic(self):
        params = init_network_params(784, 8, 2, 10, np.random.default_rng(15))
        data = self.make_data()
        det = evaluate(params, data, InferencePolicy.deterministic())
        mode = evaluate(
            params, data, InferencePolicy.multi_shot(4, seed=3), QuantumConfig(a=0.0)
        )
        assert det == mode

    def test_multi_shot_at_classical_point_runs_one_pass(self, monkeypatch):
        params = init_network_params(784, 8, 2, 10, np.random.default_rng(19))
        data = self.make_data()
        cfg, policy = QuantumConfig(a=0.0), InferencePolicy.multi_shot(5, seed=8)
        matrix = prediction_matrix(params, data, cfg, policy.shots, policy.seed)
        expected = float(np.mean(mode_over_shots(matrix, 10)[:, -1] != data.y))
        calls = []

        def refuse(*args):
            raise AssertionError("prediction_matrix called at the classical point")

        def counted(*args):
            calls.append(args)
            return predict_batch_deterministic(*args)

        monkeypatch.setattr(qmlp.inference, "prediction_matrix", refuse)
        monkeypatch.setattr(qmlp.inference, "predict_batch_deterministic", counted)
        assert evaluate(params, data, policy, cfg) == expected
        assert len(calls) == 1

    def test_requires_quantum_config_for_multi_shot(self):
        params = init_network_params(784, 8, 1, 10, np.random.default_rng(16))
        with pytest.raises(ValueError):
            evaluate(params, self.make_data(), InferencePolicy.multi_shot(3))


class TestPredictionMatrix:
    def test_matches_per_sample_predict_mode(self):
        params = as_float64(init_network_params(784, 8, 2, 10, np.random.default_rng(17)))
        data = encode_dataset(make_raw_dataset(12, seed=300))
        data = EncodedDataset(X=data.X.astype(np.float64), y=data.y)
        cfg = QuantumConfig(a=0.6, g=1.2)
        shots, seed = 5, 42
        matrix = prediction_matrix(params, data, cfg, shots, seed)
        modal = mode_over_shots(matrix, 10)[:, -1]
        for i in range(data.count):
            ref = shot_predictions(params, data.X[i], cfg, shots, seed, index=i)
            assert matrix[i].tolist() == ref
            assert modal[i] == np.argmax(np.bincount(ref, minlength=10))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("layers, width, qubits", NETS.values(), ids=NETS.keys())
    @pytest.mark.parametrize("a, g", POINTS)
    def test_equals_self_contained_passes(self, a, g, layers, width, qubits, monkeypatch):
        monkeypatch.setattr(qmlp.inference, "_EVAL_QUBITS", qubits)
        params = init_network_params(784, width, layers, 10, np.random.default_rng(20))
        data = encode_dataset(make_raw_dataset(40, seed=302))
        cfg = QuantumConfig(a=a, g=g)
        got = prediction_matrix(params, data, cfg, 5, seed=21)
        assert np.array_equal(got, per_shot_passes(params, data, cfg, 5, seed=21))

    @pytest.mark.parametrize("a, g", POINTS[:2])
    def test_pass_size_does_not_change_the_matrix(self, a, g, monkeypatch):
        # a 2x8 net on 40 samples: one-sample passes, 16-sample passes with a partial last
        # one, and a single pass
        params = init_network_params(784, 8, 2, 10, np.random.default_rng(31))
        data = encode_dataset(make_raw_dataset(40, seed=307))
        cfg = QuantumConfig(a=a, g=g)
        matrices = []
        for qubits in (1, 8, 128, 320, 65_536):
            monkeypatch.setattr(qmlp.inference, "_EVAL_QUBITS", qubits)
            matrices.append(prediction_matrix(params, data, cfg, 7, seed=32))
        assert all(m.tobytes() == matrices[0].tobytes() for m in matrices[1:])

    def test_first_layer_once_per_chunk(self, monkeypatch):
        monkeypatch.setattr(qmlp.inference, "_EVAL_QUBITS", 32)  # 4 samples per 2x8 pass
        params = init_network_params(784, 8, 2, 10, np.random.default_rng(22))
        data = encode_dataset(make_raw_dataset(8, seed=303))
        cfg = QuantumConfig(a=0.4641588834, g=9 * np.pi / 19)
        expected = prediction_matrix(params, data, cfg, 3, seed=23)
        calls = {"first_layer": 0, "quantum_forward_batch": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        first = counted("first_layer", qmlp.quantum.first_layer)
        monkeypatch.setattr(qmlp.quantum, "first_layer", first)
        monkeypatch.setattr(qmlp.inference, "first_layer", first)
        monkeypatch.setattr(
            qmlp.inference,
            "quantum_forward_batch",
            counted("quantum_forward_batch", qmlp.inference.quantum_forward_batch),
        )
        assert np.array_equal(prediction_matrix(params, data, cfg, 3, seed=23), expected)
        assert calls == {"first_layer": 2, "quantum_forward_batch": 6}  # 2 chunks x 3 shots

    def test_prefix_consistency(self):
        # the first k columns are the same run regardless of requested shots; the 3x5
        # net's float32 blocks of 15 draws each end half-way through a 64-bit output
        data = encode_dataset(make_raw_dataset(6, seed=301))
        cfg = QuantumConfig(a=0.4)
        for layers, width in [(1, 8), (3, 5)]:
            params = init_network_params(784, width, layers, 10, np.random.default_rng(18))
            m3 = prediction_matrix(params, data, cfg, 3, seed=1)
            m7 = prediction_matrix(params, data, cfg, 7, seed=1)
            assert np.array_equal(m7[:, :3], m3)


class TestVoteErrors:
    def test_equals_per_prefix_votes(self):
        # bitwise the errors of one mode per prefix of the matrix, on a float32 3x5 net
        params = init_network_params(784, 5, 3, 10, np.random.default_rng(25))
        data = encode_dataset(make_raw_dataset(60, seed=304))
        assert params.W[0].dtype == data.X.dtype == np.float32
        cfg = QuantumConfig(a=0.4641588834, g=9 * np.pi / 19)
        matrix = prediction_matrix(params, data, cfg, 9, seed=26)
        expected = [float(np.mean(final_mode(matrix[:, :k]) != data.y)) for k in range(1, 10)]
        got = vote_errors(params, data, cfg, 9, seed=26)
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        policy = InferencePolicy.multi_shot(9, seed=26)
        assert evaluate(params, data, policy, cfg) == got[-1]

    @pytest.mark.parametrize("det", [None, 0.375])
    def test_classical_point_draws_nothing(self, det, monkeypatch):
        params = init_network_params(784, 8, 2, 10, np.random.default_rng(27))
        data = encode_dataset(make_raw_dataset(40, seed=305))
        expected = evaluate(params, data, InferencePolicy.deterministic()) if det is None else det
        passes = []

        def refuse(*args, **kwargs):
            raise AssertionError("stochastic pass at the classical point")

        def counted(*args):
            passes.append(args)
            return predict_batch_deterministic(*args)

        monkeypatch.setattr(qmlp.inference, "prediction_matrix", refuse)
        monkeypatch.setattr(qmlp.inference, "quantum_forward_batch", refuse)
        monkeypatch.setattr(qmlp.inference, "predict_batch_deterministic", counted)
        got = vote_errors(params, data, QuantumConfig(), 6, seed=28, det=det)
        assert got == [expected] * 6
        assert len(passes) == (det is None)

    def test_det_stands_in_for_the_deterministic_pass(self, monkeypatch):
        params = init_network_params(784, 8, 1, 10, np.random.default_rng(29))
        data = encode_dataset(make_raw_dataset(10, seed=306))

        def refuse(*args):
            raise AssertionError("deterministic pass despite det")

        monkeypatch.setattr(qmlp.inference, "predict_batch_deterministic", refuse)
        assert evaluate(params, data, InferencePolicy.deterministic(), det=0.25) == 0.25

    def test_empty_dataset(self):
        data = EncodedDataset(X=np.zeros((0, 4)), y=np.zeros(0, dtype=np.int64))
        with pytest.raises(EmptyDataset):
            vote_errors(NetworkParams([np.eye(4)]), data, QuantumConfig(a=0.5), 3, seed=0)


def tiny_net():
    """A 4 -> 2x3 -> 3 float32 net, whose 6 measurements make 64 outcome branches, and
    4 inputs on which it predicts all three classes at the classical point."""
    rng = np.random.default_rng(3)
    shapes = [((3, 4), 0.4), ((3, 3), 0.4), ((3, 3), 1.0)]
    params = NetworkParams([rng.uniform(-s, s, shape).astype(np.float32) for shape, s in shapes])
    return params, rng.uniform(0, 1, (4, 4)).astype(np.float32)


class TestExactLaw:
    """The sampled pass against the exact law of a whole net, which exact_prediction_law
    computes from the amplitude-level qubit and the raw entangling gate, with no draw."""

    @pytest.mark.parametrize("a, g", [(0.0, HALF_PI), (0.316227766, HALF_PI),
                                      (0.0, 5 * np.pi / 19), (0.4641588834, 9 * np.pi / 19)],
                             ids=["classical", "projective", "a-zero-weak", "combined"])
    def test_predictions_follow_the_law(self, a, g):
        # 1,000 copies of each input, 8 shots each: 8,000 independent samples per input
        params, X = tiny_net()
        copies, shots = 1000, 8
        data = EncodedDataset(X=np.repeat(X, copies, axis=0), y=np.zeros(4 * copies, np.int64))
        cfg = QuantumConfig(a=a, g=g)
        matrix = prediction_matrix(params, data, cfg, shots, seed=41).reshape(4, copies * shots)
        size = copies * shots
        laws = [exact_prediction_law(as_float64(params), x, cfg)[0] for x in X]
        if cfg.is_classical:  # the law is one class per input, and the inputs cover all three
            assert {int(np.argmax(law)) for law in laws} == {0, 1, 2}
        for law, preds in zip(laws, matrix):
            counts = np.bincount(preds, minlength=3)
            # 5 standard deviations of a binomial count, and one count for float32 rounding
            assert np.all(np.abs(counts - size * law) <= 5 * np.sqrt(size * law * (1 - law)) + 1)

    @pytest.mark.parametrize("a, g", [(0.316227766, HALF_PI), (0.0, 5 * np.pi / 19),
                                      (0.4641588834, 9 * np.pi / 19)],
                             ids=["projective", "a-zero-weak", "combined"])
    def test_the_vote_converges_to_the_law_s_argmax(self, a, g):
        # Over S shots the top class c out-counts class c' by a sum of S independent
        # steps in [-1, 1] of mean m' = P[c] - P[c'], so by Hoeffding the S-shot vote
        # misses c (ties included) with probability at most sum over c' of
        # exp(-S m'^2 / 2); and the share of N copies falls more than t below its mean
        # with probability at most exp(-2 N t^2), 1e-3 at the t below
        params, X = tiny_net()
        cfg = QuantumConfig(a=a, g=g)
        laws = np.array([exact_prediction_law(as_float64(params), x, cfg)[0] for x in X])
        ranked = np.sort(laws, axis=1)
        led = ranked[:, -1] - ranked[:, -2] >= 0.25  # 3 of the 4 inputs at each point
        X, laws = X[led], laws[led]
        copies, shots, small = 200, 120, 5
        data = EncodedDataset(X=np.repeat(X, copies, axis=0), y=np.zeros(len(X) * copies, np.int64))
        votes = mode_over_shots(prediction_matrix(params, data, cfg, shots, seed=43), 3)
        votes = votes.reshape(len(X), copies, shots)
        t = np.sqrt(np.log(1e3) / (2 * copies))
        assert len(X) == 3
        for law, vote in zip(laws, votes):
            share = np.mean(vote == np.argmax(law), axis=0)  # share[S - 1]: the S-shot vote's
            margins = law.max() - np.delete(law, np.argmax(law))
            for S in (small, shots):
                assert share[S - 1] >= 1 - np.exp(-S * margins**2 / 2).sum() - t
            assert share[small - 1] < share[shots - 1]

    @pytest.mark.parametrize("g", [5 * np.pi / 19, np.pi / 4, 1.2])
    def test_at_a_zero_outcomes_follow_the_sign_by_sin_g_then_sin_squared_g(self, g):
        # an outcome agrees with sign(z) by sin g; the qubit is not reset, so layer 2's
        # pole carries layer 1's outcome and its agreement is sin^2 g
        params, X = tiny_net()
        cfg = QuantumConfig(a=0.0, g=g)
        want = np.array([[np.sin(g)] * 3, [np.sin(g) ** 2] * 3])
        for x in X:
            _, agreement = exact_prediction_law(as_float64(params), x, cfg)
            assert np.allclose(agreement, want, rtol=0, atol=1e-12)
        # and the pass realizes it: 20,000 samples of the 4 inputs
        D0 = np.repeat(X, 5000, axis=0).T
        draws = np.random.default_rng(42).random((2, 3, D0.shape[1]), dtype=np.float32)
        trace = quantum_forward_batch(params, D0, cfg, draws)
        realized = [np.mean(d * sign(z), axis=1) for z, d in zip(trace.Z, trace.D[1:])]
        assert np.all(np.abs(np.array(realized) - want) < 5 / np.sqrt(D0.shape[1]))


def available_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def force_helper(monkeypatch, on: bool) -> list:
    """Force the helper thread on or off; returns a list that records, per pass's
    draws, whether they were made on the main thread."""
    on_main = []

    def recorded(*args):
        on_main.append(threading.current_thread() is threading.main_thread())
        return draw(*args)

    monkeypatch.setattr(qmlp.inference, "_spare_cpu", lambda: on)
    monkeypatch.setattr(qmlp.quantum, "draw", recorded)
    return on_main


class TestHelperThread:
    """Each pass's draws are made one pass ahead on a helper thread when a CPU would
    idle, and the matrix has the same bytes either way."""

    @pytest.mark.parametrize("helper", [False, True], ids=["serial", "helper"])
    @pytest.mark.parametrize("shots", [1, 5])
    @pytest.mark.parametrize("net", ["3", "0", "3x5"])
    @pytest.mark.parametrize("a, g", POINTS[:4], ids=["weak", "a-zero", "projective", "classical"])
    def test_matrix_bytes(self, a, g, net, shots, helper, monkeypatch):
        # 40 samples in passes of 16 leave a partial last pass
        layers, width, qubits = NETS[net]
        monkeypatch.setattr(qmlp.inference, "_EVAL_QUBITS", qubits)
        params = init_network_params(784, width, layers, 10, np.random.default_rng(33))
        data = encode_dataset(make_raw_dataset(40, seed=308))
        cfg = QuantumConfig(a=a, g=g)
        want = per_shot_passes(params, data, cfg, shots, seed=34)
        on_main = force_helper(monkeypatch, helper)
        got = prediction_matrix(params, data, cfg, shots, seed=34)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert on_main == [not helper] * (3 * shots)

    @pytest.mark.parametrize("helper", [False, True], ids=["serial", "helper"])
    def test_the_helper_hands_over_layer_major_draws(self, helper, monkeypatch):
        monkeypatch.setattr(qmlp.inference, "_EVAL_QUBITS", 32)  # 4 samples per 2x8 pass
        params = init_network_params(784, 8, 2, 10, np.random.default_rng(37))
        data = encode_dataset(make_raw_dataset(12, seed=310))
        force_helper(monkeypatch, helper)
        layer_major = []

        def recording(params, D0, cfg, draws, first=None):
            layer_major.append((draws.shape, draws.flags.c_contiguous))
            return quantum_forward_batch(params, D0, cfg, draws, first=first)

        monkeypatch.setattr(qmlp.inference, "quantum_forward_batch", recording)
        prediction_matrix(params, data, QuantumConfig(a=0.5, g=1.0), 2, seed=38)
        assert layer_major == [((2, 8, 4), True)] * (3 * 2)

    def test_vote_errors_do_not_change(self, monkeypatch):
        monkeypatch.setattr(qmlp.inference, "_EVAL_QUBITS", 80)  # passes of 16
        params = init_network_params(784, 5, 3, 10, np.random.default_rng(25))
        data = encode_dataset(make_raw_dataset(60, seed=304))
        cfg = QuantumConfig(a=0.4641588834, g=9 * np.pi / 19)
        matrix = per_shot_passes(params, data, cfg, 9, seed=26)
        want = [float(np.mean(final_mode(matrix[:, :k]) != data.y)) for k in range(1, 10)]
        for helper in (False, True):
            force_helper(monkeypatch, helper)
            got = vote_errors(params, data, cfg, 9, seed=26)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("where", ["pass", "draws"])
    def test_a_failure_reaches_the_caller_and_ends_the_helper(self, where, monkeypatch):
        monkeypatch.setattr(qmlp.inference, "_EVAL_QUBITS", 32)  # 4 samples per 2x8 pass
        params = init_network_params(784, 8, 2, 10, np.random.default_rng(35))
        data = encode_dataset(make_raw_dataset(12, seed=309))
        on_main = force_helper(monkeypatch, True)
        calls = []

        class Failed(Exception):
            pass

        def fails_fourth(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn)
                if len(calls) == 4:
                    raise Failed(where)
                return fn(*args, **kwargs)

            return wrapper

        if where == "pass":
            monkeypatch.setattr(qmlp.inference, "quantum_forward_batch",
                                fails_fourth(quantum_forward_batch))
        else:
            monkeypatch.setattr(qmlp.quantum, "draw", fails_fourth(qmlp.quantum.draw))
        before = set(threading.enumerate())
        with pytest.raises(Failed, match=f"^{where}$"):
            prediction_matrix(params, data, QuantumConfig(a=0.5, g=1.0), 3, seed=36)
        assert set(threading.enumerate()) == before
        assert on_main and not any(on_main)


class TestSpareCpu:
    """The rule for the helper: outside a multiprocessing child, with 2 or more CPUs,
    and with BLAS started on one thread."""

    def pin(self, monkeypatch, openblas, omp):
        for var, value in (("OPENBLAS_NUM_THREADS", openblas), ("OMP_NUM_THREADS", omp)):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)

    @pytest.mark.parametrize("openblas, omp, want", [
        ("1", None, True), ("1", "4", True), (None, "1", True), ("2", "1", False),
        (None, None, False), (None, "2", False),
    ])
    def test_blas_threads(self, openblas, omp, want, monkeypatch):
        if available_cpus() < 2:
            pytest.skip("one CPU available to this process")
        self.pin(monkeypatch, openblas, omp)
        assert qmlp.inference._spare_cpu() is want

    @pytest.mark.parametrize("cpus, want", [(None, False), (1, False), (2, True), (8, True)])
    def test_cpu_count_stands_in_for_the_affinity(self, cpus, want, monkeypatch):
        self.pin(monkeypatch, "1", None)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert qmlp.inference._spare_cpu() is want

    def test_false_in_a_worker_process(self, monkeypatch):
        self.pin(monkeypatch, "1", None)
        with ProcessPoolExecutor(1) as pool:
            assert pool.submit(qmlp.inference._spare_cpu).result(timeout=60) is False


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            InferencePolicy(mode="nope")
        with pytest.raises(ValueError):
            InferencePolicy(mode="multi_shot", shots=0)

    def test_default_shots_is_fifteen(self):
        assert InferencePolicy().shots == 15
