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
from .rng import EVAL, generators, mix64, seed_words

_EVAL_CHUNK = 512  # samples per deterministic pass
_EVAL_QUBITS = 65_536  # qubits per multi-shot pass, so that a weak layer's arrays stay in L2


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
    """(n, shots) stochastic predictions, one measurement stream per sample.

    Sample i draws from substream(seed, EVAL, i), and each shot continues
    that stream: shot j takes the j-th block of the L * n uniforms a
    forward pass draws per sample. The first k columns therefore do not
    depend on `shots`, and sorting or batching the samples differently
    changes no draw; it can change a matrix product in its last bit, and so
    a prediction only at a near-tie. Shot j cannot be replayed without
    drawing the j earlier blocks. A chunk holds _EVAL_QUBITS // width
    samples (at least one), where width is W[0]'s row count, so that the
    arrays of a pass stay in cache. The seed words of all n streams are
    derived once per call, and each chunk builds only its own samples'
    generators. Layer 1 before its measurement does not depend on the
    draws, so it is computed once per chunk and shared by the chunk's shots.
    """
    n = data.count
    chunk = max(1, _EVAL_QUBITS // params.W[0].shape[0])
    preds = np.empty((n, shots), dtype=np.int64)
    words = seed_words(mix64(seed, EVAL, np.arange(n, dtype=np.uint64)))
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        D0 = data.X[start:stop].T
        first = first_layer(params, D0, cfg) if params.num_hidden_layers else None
        rngs = generators(words[start:stop])
        for j in range(shots):
            F = quantum_forward_batch(params, D0, cfg, rngs, first=first).F
            preds[start:stop, j] = np.argmax(F, axis=0)
    return preds


def mode_over_shots(preds: np.ndarray, num_classes: int) -> np.ndarray:
    """Running modal class of a (n, shots) prediction matrix: column k - 1 is each row's
    mode over its first k shots; ties go to the lowest class."""
    # counts[i, k - 1, c]: how many of row i's first k shots predict class c
    counts = np.cumsum(np.eye(num_classes, dtype=np.int32)[preds], axis=1, dtype=np.int32)
    return np.argmax(counts, axis=2)


def vote_errors(params: NetworkParams, data: EncodedDataset, quantum: QuantumConfig,
                shots: int, seed: int, det: float | None = None) -> list:
    """Error of the k-shot majority vote for k = 1..shots, from one prediction matrix.

    At the classical point (a=0, g=pi/2) every shot is the deterministic pass
    bit for bit, so every entry is the deterministic error (`det` when given)
    and nothing is drawn.
    """
    if data.count == 0:
        raise EmptyDataset("cannot evaluate an empty dataset")
    if quantum.is_classical:
        return [evaluate(params, data, InferencePolicy.deterministic(), det=det)] * shots
    matrix = prediction_matrix(params, data, quantum, shots, seed)
    wrong = mode_over_shots(matrix, params.output_size) != data.y[:, None]
    return [float(e) for e in wrong.mean(axis=0)]


def evaluate(
    params: NetworkParams,
    data: EncodedDataset,
    policy: InferencePolicy,
    quantum: QuantumConfig | None = None,
    det: float | None = None,
) -> float:
    """Fraction of samples whose prediction differs from the label; `det`, when
    given, is the deterministic pass's error and stands in for that pass."""
    if data.count == 0:
        raise EmptyDataset("cannot evaluate an empty dataset")
    if policy.mode == "multi_shot":
        if quantum is None:
            raise ValueError("multi_shot evaluation needs a QuantumConfig")
        return vote_errors(params, data, quantum, policy.shots, policy.seed, det)[-1]
    if det is None:
        det = float(np.mean(predict_batch_deterministic(params, data.X) != data.y))
    return det
