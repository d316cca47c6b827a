"""Per-neuron single-qubit channels: rotations, projective and weak measurement.

Conventions
~~~~~~~~~~~

* Activation +1 corresponds to |0>, activation -1 to |1>. A qubit state is
  the real amplitude pair (alpha, beta) with alpha^2 + beta^2 = 1.
* Amplitudes stay real throughout: R_Y(theta) is a real matrix in the
  computational basis, and the weak-measurement update only rescales each
  amplitude by a real factor. Complex storage would be dead weight.
* Each neuron entangles only with its own fresh ancilla, which is measured
  immediately, so the neuron marginal remains a pure single-qubit state.
  The ancilla (prepared in an equal superposition) is never represented:
  its measurement statistics and back-action are applied in closed form.
  No joint state vector is ever materialized.
* Every measurement consumes exactly one uniform draw from the supplied
  generator. A forward pass consumes draws layer-major, neuron index
  ascending. Both facts are reproducibility contracts.

The channel is tuned by two knobs: the activation stretch `a` (a = 0 gives
hard sign targets, so rotation angles are 0 or +-pi) and the entanglement
angle `g` (g = pi/2 makes the ancilla measurement equivalent to a projective
measurement of the neuron).

Pole rule: where g = pi/2 or a = 0, measurement leaves every qubit on a pole
(|0> or |1>, up to sign), so no amplitudes are stored. Let s be the pole and
d_prev the last outcome, and carry t = s * d_prev (1 for |0> before layer 1).
Rotating the pole gives <Z> = t * sin(pi/2 * phi_a(z)), and the outcome is
+1 with probability (1 + <Z> sin g) / 2. After a projective measurement the
qubit is |d>, so t = 1. At a = 0 the rotation maps a pole to a pole and the
weak measurement leaves it there, so t = <Z> * d. As sin(+-pi/2) = +-1
exactly, (a=0, g=pi/2) reproduces the classical binarized network
bit-for-bit. Only a > 0 with g < pi/2 carries amplitudes through ry_update
and weak_update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import BatchTrace, ConfigInvalid, NetworkParams, ShapeMismatch, htanh, sign

HALF_PI = np.pi / 2


@dataclass(frozen=True)
class QuantumConfig:
    """Point on the classical <-> quantum continuum: stretch a, angle g."""

    a: float
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
    return htanh(np.asarray(x, dtype=np.float64) / a)


def ry_update(alpha, beta, theta):
    """Apply R_Y(theta) elementwise to amplitude arrays.

    (alpha, beta) -> (c alpha - s beta, s alpha + c beta) with c = cos(theta/2)
    and s = sin(theta/2). The rotation angles 0 and +-pi must map basis states
    exactly on the weak-measurement path. sin(0) = 0, cos(0) = 1 and
    sin(+-pi/2) = +-1 are exact in floating point; cos(+-pi/2) = 6.1e-17 is
    the one inexact value, so it is pinned to 0. The same formula then gives
    exactly (alpha, beta), (-beta, alpha) and (beta, -alpha).
    """
    theta = np.asarray(theta, dtype=np.float64)
    c = np.where(np.abs(theta) == np.pi, 0.0, np.cos(theta / 2))
    s = np.sin(theta / 2)
    return c * alpha - s * beta, s * alpha + c * beta


def projective_update(alpha, beta, u):
    """Projectively measure: d = +1 where u < alpha^2, post-state the basis state."""
    p_plus = np.asarray(alpha) ** 2
    d = np.where(np.asarray(u) < p_plus, 1.0, -1.0)
    out_a = np.where(d > 0, 1.0, 0.0)
    out_b = np.where(d > 0, 0.0, 1.0)
    return d, out_a, out_b


def weak_update(alpha, beta, sin_g, u):
    """Ancilla-mediated weak measurement with entanglement strength sin_g.

    Outcome d = +-1 with probability (1 + d <z> sin_g) / 2 where
    <z> = alpha^2 - beta^2; the surviving amplitudes are rescaled by
    sqrt((1 +- d sin_g) / (1 + d <z> sin_g)). The denominator is twice the
    probability of the sampled outcome, so it is strictly positive.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    z = alpha * alpha - beta * beta
    p_plus = 0.5 * (1.0 + z * sin_g)
    d = np.where(np.asarray(u) < p_plus, 1.0, -1.0)
    denom = 1.0 + d * z * sin_g
    out_a = alpha * np.sqrt((1.0 + d * sin_g) / denom)
    out_b = beta * np.sqrt((1.0 - d * sin_g) / denom)
    return d, out_a, out_b


def _check_features(params: NetworkParams, D0: np.ndarray):
    if D0.shape[0] != params.input_size:
        raise ShapeMismatch(
            f"batch has {D0.shape[0]} features, network expects {params.input_size}"
        )


def _check_hidden_widths(params: NetworkParams):
    widths = params.hidden_widths()
    if widths and any(w != widths[0] for w in widths):
        raise ShapeMismatch(
            f"quantum forward reuses one qubit per neuron; hidden widths {widths} differ"
        )


def first_layer(params: NetworkParams, D0: np.ndarray, cfg: QuantumConfig):
    """Layer 1 up to its measurement: (Z1, state), a pure function of D0.

    Z1 = W[0] @ D0. Every qubit starts in |0> (t = 1), so where g = pi/2 or
    a = 0 the state is <Z> = sin(pi/2 * phi_a(Z1)); otherwise it is the
    amplitude pair (alpha, beta) of |0> rotated by pi/2 * (1 - phi_a(Z1)).
    Only the measurement draws differ between stochastic passes over the
    same D0, so multi-shot evaluation computes this once and passes it as
    quantum_forward_batch's `first`.
    """
    _check_features(params, D0)
    Z = params.W[0] @ D0
    if cfg.on_poles:
        return Z, np.sin(HALF_PI * phi_a(Z, cfg.a))
    return Z, ry_update(1.0, 0.0, HALF_PI * (1.0 - phi_a(Z, cfg.a)))


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
    or a = 0 every qubit stays on a pole and p(+1) is sampled in closed form
    (see the module docstring); otherwise the amplitudes go through ry_update
    and weak_update. Column s draws L * n uniforms from
    sample_rngs[s] up front, layer-major and neuron ascending, so a sample's
    activations do not depend on the batch it is in.

    `first` is first_layer(params, D0, cfg), computed here when None. A
    caller that runs several passes over the same D0 and cfg may compute it
    once and pass it to each; it is only read, and it is ignored by a net
    with no hidden layer.
    """
    _check_features(params, D0)
    _check_hidden_widths(params)
    L = params.num_hidden_layers
    B = D0.shape[1]
    if len(sample_rngs) != B:
        raise ShapeMismatch(f"need {B} sample generators, got {len(sample_rngs)}")
    pole = cfg.on_poles
    sin_g = np.sin(cfg.g)
    prev = 1.0  # t = 1 after a projective measurement; the other paths set prev per layer
    Z_list, D_list = [], [D0]
    if L:
        n = params.W[0].shape[0]
        U = np.empty((L, n, B))
        for s, rng in enumerate(sample_rngs):
            U[:, :, s] = rng.random((L, n))
        Z, state = first_layer(params, D0, cfg) if first is None else first
    for k in range(1, L + 1):
        if k > 1:  # rotate by the angle the previous outcomes give
            Z = params.W[k - 1] @ D_list[k - 1]
            if pole:  # prev is t = pole * last outcome
                state = prev * np.sin(HALF_PI * phi_a(Z, cfg.a))
            else:
                state = ry_update(*state, HALF_PI * (prev - phi_a(Z, cfg.a)))
        if pole:  # state is <Z>
            D = np.where(U[k - 1] < 0.5 * (1.0 + state * sin_g), 1.0, -1.0)
            if cfg.a == 0.0:  # the pole did not move; at g = pi/2 this keeps t = 1
                prev = state * D
        else:  # state is (alpha, beta)
            D, *state = weak_update(*state, sin_g, U[k - 1])
            prev = D
        Z_list.append(Z)
        D_list.append(D)
    F = params.W[-1] @ D_list[-1]
    return BatchTrace(Z=Z_list, D=D_list, F=F)
