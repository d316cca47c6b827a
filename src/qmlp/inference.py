"""Validation-time prediction policies: deterministic and multi-shot mode.

Deterministic inference runs the classical-limit forward pass once and
takes the argmax. Multi-shot mode inference runs the stochastic forward
`shots` times and returns the most common prediction; ties (argmax and
mode alike) resolve to the lowest class index so results are
implementation-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import EncodedDataset
from .network import ConfigInvalid, NetworkParams, QmlpError, classical_forward_batch
from .quantum import QuantumConfig, first_layer, quantum_forward_batch
from .rng import EVAL, substream

_EVAL_CHUNK = 512
_SEED_HIGH = 1 << 64


class EmptyDataset(QmlpError):
    """Evaluation was asked for an empty dataset."""


@dataclass(frozen=True)
class InferencePolicy:
    mode: str = "multi_shot"
    shots: int = 15
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("deterministic", "multi_shot"):
            raise ConfigInvalid(f"unknown inference mode {self.mode!r}")
        if self.shots < 1:
            raise ConfigInvalid(f"shots must be >= 1, got {self.shots}")

    @classmethod
    def deterministic(cls) -> "InferencePolicy":
        return cls(mode="deterministic", shots=1, seed=0)

    @classmethod
    def multi_shot(cls, shots: int = 15, seed: int = 0) -> "InferencePolicy":
        return cls(mode="multi_shot", shots=shots, seed=seed)

    def deterministic_at(self, quantum: QuantumConfig | None) -> bool:
        """Whether this policy's prediction at `quantum` is the deterministic pass.

        At the classical point (a=0, g=pi/2) every shot equals that pass bit
        for bit, so one pass gives the multi-shot error too.
        """
        return self.mode == "deterministic" or quantum.is_classical


def predict_batch_deterministic(params: NetworkParams, X: np.ndarray) -> np.ndarray:
    """Argmax of the classical-limit output for rows of X (n, M); ties go to the lowest class."""
    out = np.empty(len(X), dtype=np.int64)
    for start in range(0, len(X), _EVAL_CHUNK):
        F = classical_forward_batch(params, X[start : start + _EVAL_CHUNK].T).F
        out[start : start + _EVAL_CHUNK] = np.argmax(F, axis=0)
    return out


def prediction_matrix(
    params: NetworkParams,
    data: EncodedDataset,
    cfg: QuantumConfig,
    shots: int,
    seed: int,
) -> np.ndarray:
    """(n, shots) stochastic predictions with per-(sample, shot) substreams.

    Shot j of sample i runs on default_rng(s_ij), where s_ij is the j-th
    uint64 draw of substream(seed, EVAL, i). Shot j is therefore
    reproducible on its own, the first k columns do not depend on `shots`,
    and sorting or batching the samples differently cannot change the
    matrix. Layer 1 before its measurement does not depend on the draws, so
    it is computed once per chunk and shared by the chunk's shots.
    """
    n = data.count
    seeds = np.empty((n, shots), dtype=np.uint64)
    for i in range(n):
        seeds[i] = substream(seed, EVAL, i).integers(0, _SEED_HIGH, size=shots, dtype=np.uint64)
    preds = np.empty((n, shots), dtype=np.int64)
    for start in range(0, n, _EVAL_CHUNK):
        stop = min(start + _EVAL_CHUNK, n)
        D0 = data.X[start:stop].T
        first = first_layer(params, D0, cfg) if params.num_hidden_layers else None
        for j in range(shots):
            rngs = [np.random.default_rng(int(s)) for s in seeds[start:stop, j]]
            F = quantum_forward_batch(params, D0, cfg, rngs, first=first).F
            preds[start:stop, j] = np.argmax(F, axis=0)
    return preds


def mode_over_shots(preds: np.ndarray, num_classes: int) -> np.ndarray:
    """Row-wise modal class of a (n, shots) prediction matrix; ties go to the lowest class."""
    n, shots = preds.shape
    counts = np.zeros((n, num_classes), dtype=np.int64)
    rows = np.arange(n)
    for j in range(shots):
        np.add.at(counts, (rows, preds[:, j]), 1)
    return np.argmax(counts, axis=1)


def evaluate(
    params: NetworkParams,
    data: EncodedDataset,
    policy: InferencePolicy,
    quantum: QuantumConfig | None = None,
) -> float:
    """Fraction of samples whose prediction differs from the label."""
    if data.count == 0:
        raise EmptyDataset("cannot evaluate an empty dataset")
    if policy.mode == "multi_shot" and quantum is None:
        raise ValueError("multi_shot evaluation needs a QuantumConfig")
    if policy.deterministic_at(quantum):
        preds = predict_batch_deterministic(params, data.X)
    else:
        matrix = prediction_matrix(params, data, quantum, policy.shots, policy.seed)
        preds = mode_over_shots(matrix, params.output_size)
    return float(np.mean(preds != data.y))
