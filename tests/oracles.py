"""Per-sample reference implementations that the tests compare the library against.

The library runs one batched kernel per operation (columns are samples).
The functions here compute the same things one sample, one neuron, or one
qubit at a time, written as directly from the definitions as possible, so
every batched kernel has an independent reference:

* `classical_forward`, `relaxed_forward`, `softmax_cross_entropy` and
  `ste_backward` act on a single input vector;
* `QubitState`, `rotation_angle`, `apply_ry`, `projective_measure` and
  `weak_measure` model one qubit with scalar amplitudes;
* `reference_forward` is the per-neuron scalar loop of the quantum forward
  pass in the documented draw order (layer-major, neuron ascending);
* `weak_measure_oracle` builds the weak measurement from the raw two-qubit
  entangling gate;
* `shot_predictions` replays one sample's multi-shot evaluation from the
  documented shot-seed chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from qmlp.network import BatchTrace, NetworkParams, ShapeMismatch, htanh, sign
from qmlp.quantum import HALF_PI, phi_a, projective_update, ry_update, weak_update
from qmlp.rng import EVAL, substream

# --- classical network, one sample ------------------------------------------


@dataclass
class ForwardTrace:
    """Per-layer preactivations z[k] = W[k] @ d[k], activations d, output f."""

    z: list
    d: list
    f: np.ndarray


def _check_input(params: NetworkParams, d0: np.ndarray):
    if d0.shape[0] != params.input_size:
        raise ShapeMismatch(
            f"input has length {d0.shape[0]}, network expects {params.input_size}"
        )


def classical_forward(params: NetworkParams, d0: np.ndarray) -> ForwardTrace:
    """Deterministic binarized forward pass: d[k] = sign(W[k-1] d[k-1])."""
    d0 = np.asarray(d0, dtype=np.float64)
    _check_input(params, d0)
    z_list, d_list = [], [d0]
    for k in range(params.num_hidden_layers):
        z = params.W[k] @ d_list[k]
        z_list.append(z)
        d_list.append(sign(z))
    f = params.W[-1] @ d_list[-1]
    return ForwardTrace(z=z_list, d=d_list, f=f)


def relaxed_forward(params: NetworkParams, d0: np.ndarray, bp_scale: float = 1.0) -> ForwardTrace:
    """Forward pass with the backward surrogate htanh(z / bp_scale) as activation.

    This is the network whose analytic gradient ste_backward computes; it
    exists so gradients can be checked against finite differences.
    """
    d0 = np.asarray(d0, dtype=np.float64)
    _check_input(params, d0)
    z_list, d_list = [], [d0]
    for k in range(params.num_hidden_layers):
        z = params.W[k] @ d_list[k]
        z_list.append(z)
        d_list.append(htanh(z / bp_scale))
    f = params.W[-1] @ d_list[-1]
    return ForwardTrace(z=z_list, d=d_list, f=f)


def as_column(trace: ForwardTrace) -> BatchTrace:
    """A one-sample trace as the one-column BatchTrace the batched kernels take."""
    return BatchTrace(
        Z=[z[:, None] for z in trace.z],
        D=[d[:, None] for d in trace.d],
        F=trace.f[:, None],
    )


def softmax_cross_entropy(f: np.ndarray, label: int):
    """Loss -log softmax(f)[label] and its gradient softmax(f) - onehot(label).

    Max-subtraction keeps the exponentials finite for any finite f.
    """
    shifted = f - np.max(f)
    exp = np.exp(shifted)
    total = exp.sum()
    loss = np.log(total) - shifted[label]
    df = exp / total
    df[label] -= 1.0
    return loss, df


def ste_backward(
    params: NetworkParams,
    trace: ForwardTrace,
    df: np.ndarray,
    bp_scale: float = 1.0,
):
    """Dense backprop through the trace with the clipped straight-through rule.

    The activation derivative at layer k is 1/bp_scale where
    |z[k]| <= bp_scale and 0 elsewhere. Sampled activations in the trace
    are used as-is, so the same routine serves classical, relaxed, and
    quantum traces.
    """
    if df.shape[0] != params.output_size:
        raise ShapeMismatch(
            f"df has length {df.shape[0]}, network outputs {params.output_size}"
        )
    L = params.num_hidden_layers
    grads = [None] * len(params.W)
    grads[L] = np.outer(df, trace.d[L])
    err = params.W[L].T @ df
    for k in range(L, 0, -1):
        dphi = (np.abs(trace.z[k - 1]) <= bp_scale) / bp_scale
        delta = err * dphi
        grads[k - 1] = np.outer(delta, trace.d[k - 1])
        if k > 1:
            err = params.W[k - 1].T @ delta
    return grads


# --- one qubit ----------------------------------------------------------------


@dataclass
class QubitState:
    """Real amplitudes of |0> and |1>."""

    alpha: float
    beta: float

    def norm_sq(self) -> float:
        return self.alpha * self.alpha + self.beta * self.beta

    def z_expectation(self) -> float:
        return self.alpha * self.alpha - self.beta * self.beta


@dataclass
class MeasurementOutcome:
    d: int
    post_state: QubitState


def rotation_angle(k: int, d_prev: float, preact: float, a: float) -> float:
    """Rotation angle for a layer-k neuron.

    Layer 1 rotates away from the fresh |0> state (base term 1); deeper
    layers rotate away from the previous measured activation d_prev.
    """
    base = 1.0 if k == 1 else d_prev
    return float(HALF_PI * (base - phi_a(preact, a)))


def apply_ry(state: QubitState, theta: float) -> QubitState:
    """Rotate a single qubit about the y-axis by theta."""
    a, b = ry_update(state.alpha, state.beta, theta)
    return QubitState(float(a), float(b))


def projective_measure(state: QubitState, rng: np.random.Generator) -> MeasurementOutcome:
    """Sample d = +1 with probability alpha^2; collapse to the matching basis state.

    Consumes exactly one uniform draw.
    """
    d, a, b = projective_update(state.alpha, state.beta, rng.random())
    return MeasurementOutcome(d=int(d), post_state=QubitState(float(a), float(b)))


def weak_measure(state: QubitState, g: float, rng: np.random.Generator) -> MeasurementOutcome:
    """Weakly measure via an ancilla entangled at angle g; one uniform draw.

    g = pi/2 reproduces a projective measurement; g = 0 leaves the state
    untouched and returns a fair coin.
    """
    d, a, b = weak_update(state.alpha, state.beta, np.sin(g), rng.random())
    return MeasurementOutcome(d=int(d), post_state=QubitState(float(a), float(b)))


def weak_measure_oracle(alpha, beta, g):
    """Two-qubit branch-norm oracle built from the raw entangling gate.

    Applies expm(i (g/2) z (x) y_anc) to (alpha, beta) (x) |+>, splits on
    the ancilla outcome, and returns (p_plus, post_plus, post_minus). Fully
    independent of the closed-form implementation under test.
    """
    z = np.diag([1.0, -1.0])
    y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    gate = expm(1.0j * (g / 2.0) * np.kron(z, y))
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    psi = gate @ np.kron(np.array([alpha, beta]), plus)
    branch_plus = psi[[0, 2]]   # ancilla |0>
    branch_minus = psi[[1, 3]]  # ancilla |1>
    assert np.max(np.abs(psi.imag)) < 1e-12
    p_plus = float(np.sum(np.abs(branch_plus) ** 2))
    post_plus = branch_plus.real / np.sqrt(p_plus) if p_plus > 1e-15 else None
    p_minus = 1.0 - p_plus
    post_minus = branch_minus.real / np.sqrt(p_minus) if p_minus > 1e-15 else None
    return p_plus, post_plus, post_minus


# --- quantum network, one sample ---------------------------------------------


def reference_forward(params, d0, cfg, rng):
    """Per-neuron scalar-op loop in the documented draw order."""
    L = params.num_hidden_layers
    n = params.W[0].shape[0] if L else 0
    states = [QubitState(1.0, 0.0) for _ in range(n)]
    d_list = [np.asarray(d0, dtype=np.float64)]
    z_list = []
    for k in range(1, L + 1):
        z = params.W[k - 1] @ d_list[k - 1]
        d = np.empty(n)
        for i in range(n):
            d_prev = 1.0 if k == 1 else d_list[k - 1][i]
            theta = rotation_angle(k, d_prev, z[i], cfg.a)
            states[i] = apply_ry(states[i], theta)
            if cfg.g == HALF_PI:
                out = projective_measure(states[i], rng)
            else:
                out = weak_measure(states[i], cfg.g, rng)
            states[i] = out.post_state
            d[i] = out.d
        z_list.append(z)
        d_list.append(d)
    f = params.W[-1] @ d_list[-1]
    return z_list, d_list, f


def shot_predictions(params, x, cfg, shots: int, seed: int, index: int) -> list:
    """Sample `index`'s `shots` stochastic predictions, one reference pass each.

    Shot j runs on default_rng(s_j), where s_j is the j-th uint64 draw of
    substream(seed, EVAL, index); argmax ties go to the lowest class.
    """
    seeds = substream(seed, EVAL, index).integers(0, 1 << 64, size=shots, dtype=np.uint64)
    return [
        int(np.argmax(reference_forward(params, x, cfg, np.random.default_rng(int(s)))[2]))
        for s in seeds
    ]
