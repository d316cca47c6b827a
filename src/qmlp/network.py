"""Classical binarized MLP: forward pass, loss, and straight-through backward.

The network is fully connected with no bias terms. Hidden activations are
sign(z) in {-1, +1} (sign(0) = +1 by convention, required for exact
classical-limit equality tests); the output head is linear. Gradients use
the clipped straight-through estimator: the sign activation is treated as
hard-tanh(z / bp_scale) when differentiating, so the activation derivative
is 1/bp_scale inside |z| <= bp_scale and 0 outside.

Weights are float32 (init_network_params casts its draws). Every kernel
computes in the dtype of its inputs, so float64 weights and inputs give
float64 traces and gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class QmlpError(ValueError):
    """A failure caused by the user's input: a config, a data file, a checkpoint.

    The CLI prints every one as `error: ...` and exits 1.
    """


class ShapeMismatch(QmlpError):
    """An array's shape is incompatible with the network's weight shapes."""


class ConfigInvalid(QmlpError):
    """A hyperparameter or run-configuration value is unusable."""


@dataclass
class NetworkParams:
    """Weight matrices W[0]..W[L]: (N, M), then (N, N) x (L-1), then (P, N)."""

    W: list

    @property
    def num_hidden_layers(self) -> int:
        return len(self.W) - 1

    @property
    def input_size(self) -> int:
        return self.W[0].shape[1]

    @property
    def output_size(self) -> int:
        return self.W[-1].shape[0]


Gradients = list  # matrices shaped like NetworkParams.W


def init_network_params(
    input_size: int,
    hidden_size: int,
    hidden_layers: int,
    output_size: int,
    rng: np.random.Generator,
) -> NetworkParams:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per matrix, as float32.

    The float64 draws are cast to float32. With +-1 activations this puts
    preactivations at order 1, which keeps the interesting stretch regime
    a ~ [0.1, 1] active.
    """
    widths = [input_size] + [hidden_size] * hidden_layers + [output_size]
    W = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        W.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)).astype(np.float32))
    return NetworkParams(W)


def pm1(positive, dtype):
    """+1 where `positive` holds, else -1, as `dtype`.

    Computed as 2 * positive - 1 in place, with no per-element select: the
    outcome masks are close to random, so a branching select mispredicts.
    """
    out = np.asarray(positive).astype(dtype)
    out *= 2
    out -= 1
    return out


def sign(x):
    """+1 if x >= 0 else -1, elementwise, in the dtype of x.

    So sign(0) = sign(-0.0) = +1 and sign(NaN) = -1 (NaN >= 0 is false).
    """
    x = np.asarray(x)
    return pm1(x >= 0, x.dtype)


def htanh(x):
    """Hard tanh: x clipped to [-1, 1]."""
    return np.clip(x, -1.0, 1.0)


@dataclass
class BatchTrace:
    """Column-major forward trace of a batch: Z[k] = W[k] @ D[k], D[0] is the
    (M, B) input, every Z/D is (width, B), and F the (P, B) output."""

    Z: list
    D: list
    F: np.ndarray


def check_features(params: NetworkParams, D0: np.ndarray):
    """Raise ShapeMismatch unless the (M, B) batch D0 has the network's M input features."""
    if D0.shape[0] != params.input_size:
        raise ShapeMismatch(f"batch has {len(D0)} features, network expects {params.input_size}")


def classical_forward_batch(params: NetworkParams, D0: np.ndarray) -> BatchTrace:
    """Deterministic binarized forward pass: D[k] = sign(W[k-1] D[k-1])."""
    check_features(params, D0)
    Z_list, D_list = [], [D0]
    for k in range(params.num_hidden_layers):
        Z = params.W[k] @ D_list[k]
        Z_list.append(Z)
        D_list.append(sign(Z))
    F = params.W[-1] @ D_list[-1]
    return BatchTrace(Z=Z_list, D=D_list, F=F)


def softmax_cross_entropy_batch(F: np.ndarray, y: np.ndarray):
    """Per-sample losses -log softmax(F)[y] (B,) and gradients dF (P, B).

    dF = softmax(F) - onehot(y) per column; max-subtraction keeps the
    exponentials finite for any finite F.
    """
    shifted = F - F.max(axis=0, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=0)
    cols = np.arange(F.shape[1])
    losses = np.log(total) - shifted[y, cols]
    dF = exp / total
    dF[y, cols] -= 1.0
    return losses, dF


def ste_backward_batch(
    params: NetworkParams,
    trace: BatchTrace,
    dF: np.ndarray,
    bp_scale: float = 1.0,
) -> Gradients:
    """Mean over the batch of per-sample clipped straight-through gradients.

    The activation derivative at layer k is 1/bp_scale where
    |Z[k]| <= bp_scale and 0 elsewhere. The sampled activations in the trace
    are used as-is, so classical and quantum traces share this backward.
    """
    B = trace.D[0].shape[1]
    if dF.shape != (params.output_size, B):
        raise ShapeMismatch(
            f"dF has shape {dF.shape}, expected {(params.output_size, B)} "
            f"(network outputs x batch)"
        )
    L = params.num_hidden_layers
    grads: Gradients = [None] * len(params.W)
    grads[L] = dF @ trace.D[L].T
    err = params.W[L].T @ dF
    for k in range(L, 0, -1):
        delta = np.abs(trace.Z[k - 1])
        np.less_equal(delta, bp_scale, out=delta)  # the gate, as 1.0 or 0.0
        if bp_scale != 1.0:  # x / 1 is x
            delta /= bp_scale
        delta *= err
        grads[k - 1] = delta @ trace.D[k - 1].T
        if k > 1:
            err = params.W[k - 1].T @ delta
    for g in grads:
        g /= B
    return grads
