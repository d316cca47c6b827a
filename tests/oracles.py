"""Per-sample reference implementations that the tests compare the library against.

The library runs one batched kernel per operation (columns are samples).
The functions here compute the same things one sample, one neuron, or one
qubit at a time, written as directly from the definitions as possible, so
every batched kernel has an independent reference:

* `classical_forward`, `relaxed_forward`, `softmax_cross_entropy` and
  `ste_backward` act on a single input vector;
* `QubitState`, `rotation_angle`, `apply_ry`, `projective_measure` and
  `weak_measure` model one qubit with scalar amplitudes, through
  `amplitude_ry_update`, `amplitude_projective_update` and
  `amplitude_weak_update`, the amplitude-level reference for the library's
  Bloch-pair and outcome kernels;
* `reference_forward` is the per-neuron scalar loop of the quantum forward
  pass in the documented draw order (layer-major, neuron ascending), on
  amplitudes;
* `weak_measure_oracle` builds the weak measurement from the raw two-qubit
  entangling gate;
* `shot_predictions` replays one sample's multi-shot evaluation from its
  one evaluation stream;
* `ry_update_allocating` and `weak_update_allocating` are the Bloch-pair
  kernels `ry_update` and `weak_update` with one expression per quantity,
  each step a new array, and `ste_backward_batch_allocating` and
  `sgd_momentum_step_allocating` are the training step's kernels written
  the same way;
* `pm1_where`, `sign_where`, `draws_by_column` and `where_forward_batch`
  are the select-and-scatter forms of the batched measurement kernels,
  against which those kernels are compared byte for byte (so the sign of
  a zero counts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from qmlp.network import BatchTrace, NetworkParams, ShapeMismatch, htanh, sign
from qmlp.quantum import HALF_PI, phi_a
from qmlp.rng import EVAL, substream


def as_float64(params: NetworkParams) -> NetworkParams:
    """A float64 copy of library-made (float32) params.

    The kernels compute in the dtype of their inputs, so on these params and
    float64 inputs they run in float64, the precision the 1e-12 oracle
    checks and the finite-difference checks need.
    """
    return NetworkParams([w.astype(np.float64) for w in params.W])


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


def ste_backward_batch_allocating(params: NetworkParams, trace: BatchTrace, dF, bp_scale=1.0):
    """ste_backward_batch with one expression per step, each a new array."""
    B = trace.D[0].shape[1]
    L = params.num_hidden_layers
    grads = [None] * len(params.W)
    grads[L] = (dF @ trace.D[L].T) / B
    err = params.W[L].T @ dF
    for k in range(L, 0, -1):
        dphi = (np.abs(trace.Z[k - 1]) <= bp_scale).astype(err.dtype) / bp_scale
        delta = err * dphi
        grads[k - 1] = (delta @ trace.D[k - 1].T) / B
        if k > 1:
            err = params.W[k - 1].T @ delta
    return grads


def sgd_momentum_step_allocating(params: NetworkParams, velocity, grads, lr, momentum):
    """sgd_momentum_step with `lr * g` as a new array, so `grads` are left as they are."""
    for w, v, g in zip(params.W, velocity, grads):
        v *= momentum
        v -= lr * g
        w += v


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
    a, b = amplitude_ry_update(state.alpha, state.beta, theta)
    return QubitState(float(a), float(b))


def projective_measure(state: QubitState, rng: np.random.Generator) -> MeasurementOutcome:
    """Sample d = +1 with probability alpha^2; collapse to the matching basis state.

    Consumes exactly one uniform draw.
    """
    d, a, b = amplitude_projective_update(state.alpha, state.beta, rng.random())
    return MeasurementOutcome(d=int(d), post_state=QubitState(float(a), float(b)))


def weak_measure(state: QubitState, g: float, rng: np.random.Generator) -> MeasurementOutcome:
    """Weakly measure via an ancilla entangled at angle g; one uniform draw.

    g = pi/2 reproduces a projective measurement; g = 0 leaves the state
    untouched and returns a fair coin.
    """
    d, a, b = amplitude_weak_update(state.alpha, state.beta, np.sin(g), rng.random())
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

    The `shots` passes run one after another on one generator,
    substream(seed, EVAL, index), each continuing its stream where the
    last stopped; argmax ties go to the lowest class.
    """
    rng = substream(seed, EVAL, index)
    return [int(np.argmax(reference_forward(params, x, cfg, rng)[2])) for _ in range(shots)]


# --- the batched measurement kernels, written with selects and scatters -------


def pm1_where(positive, dtype):
    """+1 where `positive` holds, else -1, as `dtype`, by a per-element select."""
    return np.where(positive, dtype.type(1), dtype.type(-1))


def sign_where(x):
    """+1 if x >= 0 else -1, elementwise, in the dtype of x, by a per-element select."""
    x = np.asarray(x)
    return pm1_where(x >= 0, x.dtype)


def amplitude_ry_update(alpha, beta, theta):
    """R_Y(theta) on amplitude arrays, cos(theta/2) set to 0 at |theta| = pi by a select,
    so that the angles 0 and +-pi map basis states exactly."""
    theta = np.asarray(theta)
    c = np.where(np.abs(theta) == np.pi, 0.0, np.cos(theta / 2))
    s = np.sin(theta / 2)
    return c * alpha - s * beta, s * alpha + c * beta


def amplitude_projective_update(alpha, beta, u):
    """Projective measurement of amplitude arrays: d = +1 where u < alpha^2, and the
    post-state the basis state |d>."""
    p_plus = np.asarray(alpha) ** 2
    d = pm1_where(np.asarray(u) < p_plus, p_plus.dtype)
    return d, (d > 0).astype(d.dtype), (d < 0).astype(d.dtype)


def amplitude_weak_update(alpha, beta, sin_g, u):
    """Weak measurement of amplitude arrays: d = +1 where u < (1 + <z> sin_g) / 2, and the
    amplitudes rescaled by sqrt((1 +- d sin_g) / (1 + d <z> sin_g))."""
    alpha, beta = np.asarray(alpha), np.asarray(beta)
    z = alpha * alpha - beta * beta
    p_plus = 0.5 * (1.0 + z * sin_g)
    d = pm1_where(np.asarray(u) < p_plus, p_plus.dtype)
    denom = 1.0 + d * z * sin_g
    out_a = alpha * np.sqrt((1.0 + d * sin_g) / denom)
    out_b = beta * np.sqrt((1.0 - d * sin_g) / denom)
    return d, out_a, out_b


def ry_update_allocating(z, x, theta):
    """ry_update on Bloch pairs as two expressions."""
    theta = np.asarray(theta)
    return np.cos(theta) * z - np.sin(theta) * x, np.sin(theta) * z + np.cos(theta) * x


def weak_update_allocating(z, x, sin_g, cos_g, u):
    """weak_update on Bloch pairs as one expression per quantity, each step a new array."""
    z = np.asarray(z)
    p_plus = 0.5 * (1.0 + z * sin_g)
    d = pm1_where(np.asarray(u) < p_plus, p_plus.dtype)
    denom = 1.0 + d * (z * sin_g)
    return d, (z + d * sin_g) / denom, x * cos_g / denom


def draws_by_column(sample_rngs, L, n, dtype):
    """The (L, n, B) draws of a pass: column s gets sample s's (L, n) block, one scatter each."""
    U = np.empty((L, n, len(sample_rngs)), dtype=dtype)
    for s, rng in enumerate(sample_rngs):
        U[:, :, s] = rng.random((L, n), dtype=dtype)
    return U


def where_forward_batch(params, D0, cfg, sample_rngs, amplitudes=False):
    """quantum_forward_batch (first=None) as (Z, D, F), built from the forms above.

    The same arithmetic in the same order, so its bytes must equal the kernel's;
    it measures every layer in full, where the kernel only samples the last
    layer's outcomes. With `amplitudes`, the weak path carries amplitude pairs
    through the amplitude-level reference instead: the same outcome law and
    draws, but other roundings, so its outcomes agree with the kernel's only
    where no draw falls within rounding of its outcome's probability.
    """
    dtype = np.result_type(params.W[0], D0)
    sin_g, cos_g = dtype.type(np.sin(cfg.g)), dtype.type(np.cos(cfg.g))
    L = params.num_hidden_layers
    n = params.W[0].shape[0] if L else 0
    U = draws_by_column(sample_rngs, L, n, dtype)

    def phi(Z):
        return sign_where(Z) if cfg.a == 0.0 else htanh(np.asarray(Z) / cfg.a)

    def measure(state, u):
        if amplitudes:
            return amplitude_weak_update(*state, sin_g, u)
        return weak_update_allocating(*state, sin_g, cos_g, u)

    rotate = amplitude_ry_update if amplitudes else ry_update_allocating
    prev, state = 1.0, (1.0, 0.0)
    Z_list, D_list = [], [D0]
    for k in range(1, L + 1):
        Z = params.W[k - 1] @ D_list[k - 1]
        if cfg.on_poles:
            state = prev * np.sin(HALF_PI * phi(Z))
            D = pm1_where(U[k - 1] < 0.5 * (1.0 + state * sin_g), dtype)
            if cfg.a == 0.0:
                prev = state * D
        else:
            D, *state = measure(rotate(*state, HALF_PI * (prev - phi(Z))), U[k - 1])
            prev = D
        Z_list.append(Z)
        D_list.append(D)
    return Z_list, D_list, params.W[-1] @ D_list[-1]
