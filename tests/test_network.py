import numpy as np
import pytest
from scipy.special import log_softmax

from qmlp.network import (
    NetworkParams,
    ShapeMismatch,
    classical_forward_batch,
    htanh,
    init_network_params,
    sign,
    softmax_cross_entropy_batch,
    ste_backward_batch,
)

from oracles import (
    as_column,
    classical_forward,
    relaxed_forward,
    softmax_cross_entropy,
    ste_backward,
)


def forward_one(params, x):
    """classical_forward_batch on the one-column batch x."""
    return classical_forward_batch(params, np.asarray(x, dtype=np.float64)[:, None])


def loss_one(f, label):
    """softmax_cross_entropy_batch on one output column: (loss, df)."""
    losses, dF = softmax_cross_entropy_batch(np.asarray(f, dtype=np.float64)[:, None], [label])
    return losses[0], dF[:, 0]


class TestActivations:
    def test_sign_values(self):
        assert sign(3.2) == 1.0
        assert sign(-0.001) == -1.0
        assert sign(0.0) == 1.0  # documented tie-break

    def test_sign_elementwise(self):
        assert sign(np.array([-1.0, 0.0, 2.0])).tolist() == [-1.0, 1.0, 1.0]

    def test_htanh_values(self):
        assert htanh(0.5) == 0.5
        assert htanh(7.0) == 1.0
        assert htanh(-1.0) == -1.0

    def test_htanh_odd_bounded_lipschitz(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-5, 5, size=1000)
        y = rng.uniform(-5, 5, size=1000)
        assert np.allclose(htanh(-x), -htanh(x))
        assert np.all(np.abs(htanh(x)) <= 1.0)
        assert np.all(np.abs(htanh(x) - htanh(y)) <= np.abs(x - y) + 1e-15)


class TestForward:
    def test_single_neuron_chain(self):
        params = NetworkParams([np.array([[1.0]]), np.array([[2.0]])])
        trace = forward_one(params, np.array([0.3]))
        assert trace.Z[0].tolist() == [[0.3]]
        assert trace.D[1].tolist() == [[1.0]]
        assert trace.F.tolist() == [[2.0]]

    def test_zero_weights_tie_break(self):
        params = NetworkParams([np.zeros((3, 2)), np.eye(3)])
        trace = forward_one(params, np.array([0.5, -0.5]))
        assert trace.D[1][:, 0].tolist() == [1.0, 1.0, 1.0]

    def test_two_input_example(self):
        params = NetworkParams([np.array([[1.0, -1.0]]), np.array([[1.0]])])
        trace = forward_one(params, np.array([0.2, 0.9]))
        assert np.allclose(trace.Z[0][:, 0], [-0.7])
        assert trace.D[1][:, 0].tolist() == [-1.0]

    def test_deterministic_no_rng(self):
        rng = np.random.default_rng(3)
        params = init_network_params(6, 5, 2, 3, rng)
        X = rng.uniform(0, 1, size=(6, 4))
        t1 = classical_forward_batch(params, X)
        t2 = classical_forward_batch(params, X)
        assert np.array_equal(t1.F, t2.F)
        for d1, d2 in zip(t1.D, t2.D):
            assert np.array_equal(d1, d2)

    def test_hidden_activations_are_signs(self):
        rng = np.random.default_rng(4)
        params = init_network_params(8, 6, 3, 4, rng)
        trace = classical_forward_batch(params, rng.uniform(0, 1, size=(8, 5)))
        for d in trace.D[1:]:
            assert set(np.unique(d)).issubset({-1.0, 1.0})

    def test_shape_mismatch(self):
        params = init_network_params(6, 5, 1, 3, np.random.default_rng(0))
        with pytest.raises(ShapeMismatch):
            classical_forward_batch(params, np.zeros((7, 2)))

    def test_init_bounds(self):
        params = init_network_params(100, 50, 2, 10, np.random.default_rng(1))
        for w in params.W:
            assert np.all(np.abs(w) <= 1.0 / np.sqrt(w.shape[1]))


class TestSoftmaxCrossEntropy:
    def test_uniform_case(self):
        loss, df = loss_one(np.zeros(10), 3)
        assert np.isclose(loss, np.log(10))
        expected = np.full(10, 0.1)
        expected[3] -= 1.0
        assert np.allclose(df, expected)

    def test_saturated_case(self):
        f = np.zeros(10)
        f[2] = 1000.0
        loss, _ = loss_one(f, 2)
        assert loss < 1e-12
        assert np.isfinite(loss)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = rng.normal(size=7) * 10
            loss, df = loss_one(f, 0)
            probs = df.copy()
            probs[0] += 1.0
            assert np.isclose(probs.sum(), 1.0)
            assert np.isfinite(loss)

    def test_batch_matches_scalar(self):
        # independent reference: scipy's log-softmax, column by column
        rng = np.random.default_rng(6)
        F = rng.normal(size=(5, 9)) * 10
        y = rng.integers(0, 5, size=9)
        losses, dF = softmax_cross_entropy_batch(F, y)
        logp = log_softmax(F, axis=0)
        onehot = np.eye(5)[:, y]
        assert np.allclose(losses, -logp[y, np.arange(9)], rtol=0, atol=1e-12)
        assert np.allclose(dF, np.exp(logp) - onehot, rtol=0, atol=1e-12)


def finite_difference_grads(params, x, label, bp_scale=1.0, step=1e-5):
    """Central finite differences of the relaxed network's loss."""

    def loss_at():
        trace = relaxed_forward(params, x, bp_scale)
        return softmax_cross_entropy(trace.f, label)[0]

    grads = []
    for W in params.W:
        G = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            orig = W[idx]
            W[idx] = orig + step
            up = loss_at()
            W[idx] = orig - step
            down = loss_at()
            W[idx] = orig
            G[idx] = (up - down) / (2 * step)
        grads.append(G)
    return grads


def relative_error(gs, hs):
    num = np.sqrt(sum(np.sum((g - h) ** 2) for g, h in zip(gs, hs)))
    den = np.sqrt(sum(np.sum(h**2) for h in hs))
    return num / den


def ste_backward_one(params, trace, label, bp_scale=1.0):
    """ste_backward_batch on a one-sample trace: the gradients of that sample."""
    _, df = loss_one(trace.f, label)
    return ste_backward_batch(params, as_column(trace), df[:, None], bp_scale)


class TestSteBackward:
    def test_degenerate_linear_layer(self):
        # L = 0: dW is exactly the outer product of df and the input
        params = NetworkParams([np.array([[0.5, -0.2], [0.1, 0.3]])])
        x = np.array([0.7, -0.4])
        trace = classical_forward(params, x)
        _, df = loss_one(trace.f, 1)
        grads = ste_backward_one(params, trace, 1)
        assert np.allclose(grads[0], np.outer(df, x))

    def test_fully_clipped_hidden_layers(self):
        rng = np.random.default_rng(7)
        params = init_network_params(4, 3, 2, 2, rng)
        params.W = [w * 100.0 for w in params.W]  # push |z| far past 1
        x = np.array([0.9, 0.8, 0.7, 0.6])
        trace = classical_forward(params, x)
        assert all(np.all(np.abs(z) > 1) for z in trace.z)
        _, df = loss_one(trace.f, 0)
        grads = ste_backward_one(params, trace, 0)
        assert np.allclose(grads[-1], np.outer(df, trace.d[-1]))
        for g in grads[:-1]:
            assert np.all(g == 0.0)

    def test_matches_finite_differences_on_relaxed_net(self):
        rng = np.random.default_rng(8)
        for _ in range(3):
            params = init_network_params(8, 8, 2, 4, rng)
            x = rng.uniform(0, 1, size=8)
            label = int(rng.integers(0, 4))
            analytic = ste_backward_one(params, relaxed_forward(params, x), label)
            numeric = finite_difference_grads(params, x, label)
            assert relative_error(analytic, numeric) < 1e-4

    def test_bp_scale_changes_clip_window(self):
        rng = np.random.default_rng(9)
        params = init_network_params(6, 5, 1, 3, rng)
        x = rng.uniform(0, 1, size=6)
        trace = relaxed_forward(params, x, bp_scale=2.0)
        analytic = ste_backward_one(params, trace, 0, bp_scale=2.0)
        numeric = finite_difference_grads(params, x, 0, bp_scale=2.0)
        assert relative_error(analytic, numeric) < 1e-4

    def test_shape_mismatch(self):
        params = init_network_params(4, 3, 1, 2, np.random.default_rng(0))
        trace = classical_forward_batch(params, np.zeros((4, 3)))
        with pytest.raises(ShapeMismatch):  # rows != network outputs
            ste_backward_batch(params, trace, np.zeros((5, 3)))
        with pytest.raises(ShapeMismatch):  # columns != batch of the trace
            ste_backward_batch(params, trace, np.zeros((2, 4)))


class TestBatchedAgreement:
    def test_forward_batch_matches_per_sample(self):
        # gemm and gemv may round reductions differently, so preactivations
        # agree to ~1 ulp; the sampled activations must agree exactly
        rng = np.random.default_rng(10)
        params = init_network_params(7, 6, 2, 3, rng)
        X = rng.uniform(0, 1, size=(9, 7))
        batch = classical_forward_batch(params, X.T)
        for s in range(9):
            trace = classical_forward(params, X[s])
            assert np.allclose(batch.F[:, s], trace.f, rtol=0, atol=1e-12)
            for k in range(2):
                assert np.allclose(batch.Z[k][:, s], trace.z[k], rtol=0, atol=1e-12)
                assert np.array_equal(batch.D[k + 1][:, s], trace.d[k + 1])

    def test_backward_batch_is_mean_of_per_sample(self):
        rng = np.random.default_rng(11)
        params = init_network_params(7, 6, 2, 3, rng)
        X = rng.uniform(0, 1, size=(5, 7))
        y = rng.integers(0, 3, size=5)
        batch = classical_forward_batch(params, X.T)
        _, dF = softmax_cross_entropy_batch(batch.F, y)
        batch_grads = ste_backward_batch(params, batch, dF)
        sums = [np.zeros_like(w) for w in params.W]
        for s in range(5):
            trace = classical_forward(params, X[s])
            _, df = softmax_cross_entropy(trace.f, y[s])
            for k, g in enumerate(ste_backward(params, trace, df)):
                sums[k] += g
        for k in range(len(sums)):
            assert np.allclose(batch_grads[k], sums[k] / 5, atol=1e-13)
