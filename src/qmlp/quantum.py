"""Per-neuron single-qubit channels: rotations, projective and weak measurement.

Conventions
~~~~~~~~~~~

* Activation +1 corresponds to |0>, activation -1 to |1>. A qubit state is
  real, alpha |0> + beta |1> with alpha^2 + beta^2 = 1, and is carried as
  its Bloch pair (z, x) = (alpha^2 - beta^2, 2 alpha beta), that is
  (<Z>, <X>); a fresh qubit is (1, 0).
* The pair stays on the unit circle of the x-z plane: R_Y(theta) turns it
  by theta, and the weak-measurement update maps it in closed form with no
  square root. Complex amplitudes and <Y> would be dead weight.
* Each neuron entangles only with its own fresh ancilla, which is measured
  immediately, so the neuron marginal remains a pure single-qubit state.
  The ancilla (prepared in an equal superposition) is never represented:
  its measurement statistics and back-action are applied in closed form.
  No joint state vector is ever materialized.
* Every outcome is projective_update(z, u): +1 where the draw u < (1 + z) / 2,
  else -1, for <Z> = z. A weak measurement samples its ancilla, at z sin g.
* Every measurement consumes exactly one uniform draw from the supplied
  generator. A forward pass consumes draws layer-major, neuron index
  ascending. Both facts are reproducibility contracts. A pass holds its
  draws as one C-contiguous (L, n, B) array, which draw() returns, so each
  layer reads one contiguous (n, B) slice.

The channel is tuned by two knobs: the activation stretch `a` (a = 0 gives
hard sign targets, so rotation angles are 0 or +-pi) and the entanglement
angle `g` (g = pi/2 makes the ancilla measurement equivalent to a projective
measurement of the neuron).

Pole rule: where g = pi/2 or a = 0, measurement leaves every qubit on a pole
(|0> or |1>, up to sign), so x = 0 and only z is carried. Let s be the pole
and d_prev the last outcome, and carry t = s * d_prev (1 for |0> before
layer 1). Rotating the pole gives z = t * sin(pi/2 * phi_a(z_pre)). After a
projective measurement the qubit is |d>, so t = 1. At a = 0 the rotation
maps a pole to a pole and the weak measurement leaves it there, so
t = z * d. As sin(+-pi/2) = +-1 exactly (in float32 too, where pi/2 rounds
up to an angle whose sine rounds to 1), (a=0, g=pi/2) reproduces the
classical binarized network bit-for-bit. Only a > 0 with g < pi/2 carries
(z, x) through ry_update and weak_update; nothing there depends on exact
poles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (
    BatchTrace, ConfigInvalid, NetworkParams, ShapeMismatch, check_features, htanh, pm1, sign
)

HALF_PI = np.pi / 2


@dataclass(frozen=True)
class QuantumConfig:
    """Point on the classical <-> quantum continuum: stretch a, angle g."""

    a: float = 0.0
    g: float = HALF_PI

    def __post_init__(self):
        if not 0.0 <= self.a < np.inf:  # written so that NaN fails too
            raise ConfigInvalid(f"stretch a must be finite and >= 0, got {self.a}")
        if not 0.0 <= self.g <= HALF_PI:
            raise ConfigInvalid(f"entanglement angle g must be in [0, pi/2], got {self.g}")

    @property
    def is_classical(self) -> bool:
        return self.a == 0.0 and self.g == HALF_PI

    @property
    def on_poles(self) -> bool:
        """Whether measurement leaves every qubit on a pole (g = pi/2 or a = 0)."""
        return self.g == HALF_PI or self.a == 0.0


def phi_a(x, a: float):
    """Stretched activation htanh(x / a); the a -> 0 limit is sign(x)."""
    if a == 0.0:
        return sign(x)
    return htanh(np.asarray(x) / a)


def ry_update(z, x, theta):
    """Apply R_Y(theta) elementwise to Bloch pairs: turn (z, x) by theta.

    (z, x) -> (z cos theta - x sin theta, z sin theta + x cos theta). The
    new x is built in place in the arrays cos(theta) and sin(theta), so a
    theta that is not 0-d must have the shape of the result, and z and x
    must not be wider than its dtype.
    """
    theta = np.asarray(theta)
    c, s = np.cos(theta), np.sin(theta)
    out_z = c * z
    out_z -= s * x
    s *= z  # then s z + c x
    c *= x
    s += c
    return out_z, s


def projective_update(z, u):
    """Measurement outcomes in the dtype of z: d = +1 where u < (1 + z) / 2, else -1."""
    p_plus = np.asarray(z) + 1.0  # then bitwise 0.5 * (1 + z)
    p_plus *= 0.5
    return pm1(np.asarray(u) < p_plus, p_plus.dtype)


def weak_update(z, x, sin_g, cos_g, u):
    """Ancilla-mediated weak measurement of Bloch pairs with strength sin_g.

    The outcome d = projective_update(z sin_g, u) samples the ancilla. The
    pair becomes ((z + d sin_g) / D, x cos_g / D) with D = 1 + d z sin_g,
    twice the probability of the sampled outcome, so D > 0. The arithmetic
    is in the dtype of z; sin_g and cos_g must not be wider.
    """
    zs = np.multiply(z, sin_g)
    d = projective_update(zs, u)
    denom = d * zs  # bitwise (d z) sin_g, as d = +-1
    denom += 1.0
    out_z = d * sin_g
    out_z += z
    out_z /= denom
    out_x = np.multiply(x, cos_g, out=np.empty_like(denom))
    out_x /= denom
    return d, out_z, out_x


def _rotate(Z, cfg: QuantumConfig, prev, state):
    """Layer state before measurement: z = prev * sin(pi/2 * phi_a(Z)) on the poles
    (prev is t), else the Bloch pair `state` turned by pi/2 * (prev - phi_a(Z)) (prev
    is the last outcome). Qubits fresh in |0> have prev = 1 and state = (1, 0)."""
    if cfg.on_poles:
        return prev * np.sin(HALF_PI * phi_a(Z, cfg.a))
    theta = phi_a(Z, cfg.a)  # a fresh array; then bitwise pi/2 * (prev - phi_a(Z))
    np.subtract(prev, theta, out=theta)
    theta *= HALF_PI
    return ry_update(*state, theta)


def first_layer(params: NetworkParams, D0: np.ndarray, cfg: QuantumConfig):
    """Layer 1 up to its measurement: (Z1, state), a pure function of D0.

    Z1 = W[0] @ D0, and state is _rotate's for qubits that start in |0>.
    Only the measurement draws differ between stochastic passes over the
    same D0, so multi-shot evaluation computes this once and passes it as
    quantum_forward_batch's `first`.
    """
    check_features(params, D0)
    Z = params.W[0] @ D0
    return Z, _rotate(Z, cfg, 1.0, (1.0, 0.0))


def draw(rngs, L: int, n: int, dtype) -> np.ndarray:
    """The (L, n, B) uniforms of one forward pass, C-contiguous: column s holds
    rngs[s].random((L, n)) in dtype, so layer k's (n, B) draws are draws[k - 1].

    Each generator draws one block of L * n, layer-major and neuron
    ascending, into its own row of a sample-major scratch array, and so
    continues its stream by one pass; the result is that array copied
    layer-major.
    """
    rows = np.empty((len(rngs), L, n), dtype=dtype)
    for row, rng in zip(rows, rngs):
        rng.random((L, n), dtype=dtype, out=row)
    return np.ascontiguousarray(np.moveaxis(rows, 0, -1))


def quantum_forward_batch(
    params: NetworkParams,
    D0: np.ndarray,
    cfg: QuantumConfig,
    sample_rngs,
    first=None,
) -> BatchTrace:
    """Forward pass with one qubit per hidden neuron, reused across layers.

    Columns of D0 (M, B) are samples. Qubits start in |0>. Per layer: rotate
    each qubit by the angle computed from the previous measured activations,
    then measure it; the outcomes are the layer's activations. Where g = pi/2
    or a = 0 every qubit stays on a pole and only its z is carried (see the
    module docstring); otherwise its Bloch pair goes through ry_update and
    weak_update. Nothing reads the last layer's post-measurement state, so
    that layer only samples its outcomes.

    `sample_rngs` is B generators, or the (L, n, B) array that
    draw(sample_rngs, L, n, dtype) returns for them, with n = W[0]'s row
    count and dtype the pass's; the two forms give the same pass bit for
    bit, and the array form lets a caller draw a pass's uniforms ahead of
    it; layer k reads the array's contiguous (n, B) slice [k - 1]. Column s
    draws L * n uniforms from sample_rngs[s] up front, layer-major and
    neuron ascending, so a sample's draws do not depend on its batch; a
    generator passed to successive calls continues its stream, one block
    per call. Its matrix products may: BLAS can round a column differently
    in a batch of another width, so a batch can change an activation only
    at a near-tie, where a value lies within rounding of its threshold.
    The draws, like every array of the pass, are in the dtype of
    W[0] @ D0: float32 for float32 weights and inputs.

    `first` is first_layer(params, D0, cfg), computed here when None. A
    caller that runs several passes over the same D0 and cfg may compute it
    once and pass it to each; it is only read, and it is ignored by a net
    with no hidden layer.
    """
    check_features(params, D0)
    widths = [w.shape[0] for w in params.W[:-1]]
    if widths and any(w != widths[0] for w in widths):
        raise ShapeMismatch(
            f"quantum forward reuses one qubit per neuron; hidden widths {widths} differ"
        )
    L, n = params.num_hidden_layers, params.W[0].shape[0]
    B = D0.shape[1]
    dtype = np.result_type(params.W[0], D0)
    if isinstance(sample_rngs, np.ndarray):
        U = sample_rngs
        if U.shape != (L, n, B) or U.dtype != dtype:
            raise ShapeMismatch(f"need ({L}, {n}, {B}) {dtype} draws, got {U.shape} {U.dtype}")
    elif len(sample_rngs) != B:
        raise ShapeMismatch(f"need {B} sample generators, got {len(sample_rngs)}")
    else:
        U = draw(sample_rngs, L, n, dtype)
    # np.sin and np.cos return float64, which would widen the pass
    sin_g, cos_g = dtype.type(np.sin(cfg.g)), dtype.type(np.cos(cfg.g))
    prev = 1.0  # t = 1 after a projective measurement; the other paths set prev per layer
    Z_list, D_list = [], [D0]
    if L:
        Z, state = first_layer(params, D0, cfg) if first is None else first
    for k in range(1, L + 1):
        if k > 1:  # rotate by the angle the previous outcomes give
            Z = params.W[k - 1] @ D_list[k - 1]
            state = _rotate(Z, cfg, prev, state)
        if cfg.on_poles or k == L:  # only z is read: state is z, or the last layer's pair
            D = projective_update((state if cfg.on_poles else state[0]) * sin_g, U[k - 1])
            if cfg.a == 0.0 and k < L:  # the pole did not move; at g = pi/2 this keeps t = 1
                prev = state * D
        else:  # state is the Bloch pair (z, x)
            D, *state = weak_update(*state, sin_g, cos_g, U[k - 1])
            prev = D
        Z_list.append(Z)
        D_list.append(D)
    F = params.W[-1] @ D_list[-1]
    return BatchTrace(Z=Z_list, D=D_list, F=F)
