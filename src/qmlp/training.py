"""SGD-with-momentum training loop with seeded, thread-invariant reproducibility.

The run seed derives every stream the loop touches (see rng.py): weight
init, the per-epoch shuffle, and one generator per (epoch, batch, sample)
for measurement sampling, whose seed words quantum.passes derives once per epoch.
Gradients are the mean of per-sample gradients over the mini-batch, reduced
in sample order; the weight update is classical heavy-ball momentum,
v <- momentum*v - lr*grad, W <- W + v.

Per-epoch training and validation errors are measured with deterministic
classical-limit forward passes; multi-shot evaluation of every epoch would be
expensive and is reserved for the final model.

The arithmetic is float32, the dtype of the encoded inputs and the initial
weights; the velocity follows the weights. Only the epoch's loss is summed
in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import NUM_CLASSES, BatchPlan, EncodedDataset, check_labels
from .inference import EmptyDataset, InferencePolicy, evaluate, predict_batch_deterministic
from .network import (
    ConfigInvalid,
    Gradients,
    NetworkParams,
    QmlpError,
    ShapeMismatch,
    classical_forward_batch,
    init_network_params,
    softmax_cross_entropy_batch,
    ste_backward_batch,
)
from .quantum import QuantumConfig, passes, quantum_forward_batch
from .rng import FORWARD, INIT, SHUFFLE, mix64, substream


@dataclass(frozen=True)
class Hyperparams:
    """Defaults mirror the benchmark configuration (3x512 net, SGD 0.01/0.9)."""

    hidden_layers: int = 3
    hidden_size: int = 512
    learning_rate: float = 0.01
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 500
    train_size: int = 5000
    val_size: int = 10000
    quantum: QuantumConfig = field(default_factory=QuantumConfig)
    seed: int = 1
    bp_scale: float = 1.0

    def __post_init__(self):
        if self.hidden_layers < 0:
            raise ConfigInvalid(f"hidden_layers must be >= 0, got {self.hidden_layers}")
        if self.hidden_size < 1:
            raise ConfigInvalid(f"hidden_size must be >= 1, got {self.hidden_size}")
        if not 0.0 < self.learning_rate < np.inf:  # written so that NaN fails too
            raise ConfigInvalid(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigInvalid(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ConfigInvalid(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigInvalid(f"epochs must be >= 0, got {self.epochs}")
        if self.train_size < 0:
            raise ConfigInvalid(f"train_size must be >= 0, got {self.train_size}")
        if self.val_size < 1:
            raise ConfigInvalid(f"val_size must be >= 1, got {self.val_size}")
        if not 0.0 < self.bp_scale < np.inf:
            raise ConfigInvalid(f"bp_scale must be finite and > 0, got {self.bp_scale}")


class Diverged(QmlpError):
    """A batch's loss or the final weights are not finite."""


@dataclass
class EpochRecord:
    epoch: int
    train_error: float
    val_error: float
    mean_loss: float


@dataclass
class RunMetrics:
    records: list
    params: NetworkParams
    velocity: list


def sgd_momentum_step(
    params: NetworkParams,
    velocity: list,
    grads: Gradients,
    lr: float,
    momentum: float,
):
    """In-place heavy-ball update of the weights and their velocity matrices.

    It consumes `grads`: each gradient is scaled by `lr` in place.
    """
    if len(grads) != len(params.W):
        raise ShapeMismatch(f"{len(grads)} gradients for {len(params.W)} matrices")
    for w, v, g in zip(params.W, velocity, grads):
        if g.shape != w.shape:
            raise ShapeMismatch(f"gradient shape {g.shape} does not match {w.shape}")
        v *= momentum
        g *= lr
        v -= g
        w += v


def training_error(params: NetworkParams, data: EncodedDataset) -> float:
    """Deterministic classical-limit error rate on a dataset."""
    preds = predict_batch_deterministic(params, data.X)
    return float(np.mean(preds != data.y))


def check_datasets(train_set: EncodedDataset, val_set: EncodedDataset):
    """Raise a QmlpError if `train` cannot run on these datasets.

    Neither set may be empty, even for 0 epochs: every run reports its training error.
    """
    if train_set.count == 0:
        raise ConfigInvalid("cannot train on an empty training set")
    if val_set.count == 0:
        raise EmptyDataset("cannot evaluate an empty validation set")
    check_labels(train_set.y, "training label")
    check_labels(val_set.y, "validation label")
    if train_set.X.shape[1] != val_set.X.shape[1]:
        raise ShapeMismatch(
            f"train and validation inputs disagree: "
            f"{train_set.X.shape[1]} vs {val_set.X.shape[1]} features"
        )


def train(
    hyper: Hyperparams,
    train_set: EncodedDataset,
    val_set: EncodedDataset,
    on_epoch=None,
) -> RunMetrics:
    """Train a network from scratch; a pure function of (hyper, datasets).

    `on_epoch` is called with each EpochRecord as it is produced, e.g. to
    append to a metrics log. The result holds the final weights and
    velocity. A batch loss or final weight that is not finite raises Diverged.
    """
    check_datasets(train_set, val_set)
    params = init_network_params(
        input_size=train_set.X.shape[1],
        hidden_size=hyper.hidden_size,
        hidden_layers=hyper.hidden_layers,
        output_size=NUM_CLASSES,
        rng=substream(hyper.seed, INIT),
    )
    velocity = [np.zeros_like(w) for w in params.W]
    records = []
    for epoch in range(hyper.epochs):
        plan = BatchPlan.make(train_set.count, hyper.batch_size, mix64(hyper.seed, SHUFFLE, epoch))
        if not hyper.quantum.is_classical:  # key j is the j-th sample of the epoch's order
            j = np.arange(train_set.count, dtype=np.uint64)
            keys = mix64(hyper.seed, FORWARD, epoch, j // hyper.batch_size, j % hyper.batch_size)
            draws = passes(params, train_set.X, keys, hyper.batch_size, 1)
        loss_sum = 0.0
        for batch, idx in enumerate(plan.batches()):
            X, y = train_set.X[idx], train_set.y[idx]
            if hyper.quantum.is_classical:
                trace = classical_forward_batch(params, X.T)
            else:
                trace = quantum_forward_batch(params, X.T, hyper.quantum, next(draws))
            losses, dF = softmax_cross_entropy_batch(trace.F, y)
            loss = float(losses.sum(dtype=np.float64))
            if not np.isfinite(loss):
                raise Diverged(f"epoch {epoch}, batch {batch}: the loss is {loss}")
            # no name holds the gradients, so they are freed before the epoch's evaluation
            sgd_momentum_step(
                params, velocity, ste_backward_batch(params, trace, dF, hyper.bp_scale),
                hyper.learning_rate, hyper.momentum,
            )
            loss_sum += loss
        record = EpochRecord(
            epoch=epoch,
            train_error=training_error(params, train_set),
            val_error=evaluate(params, val_set, InferencePolicy.deterministic()),
            mean_loss=loss_sum / train_set.count,
        )
        records.append(record)
        if on_epoch is not None:
            on_epoch(record)
    if hyper.epochs and not all(np.isfinite(w).all() for w in params.W):
        raise Diverged(f"epoch {epoch}, batch {batch}: the final weights are not finite")
    return RunMetrics(records=records, params=params, velocity=velocity)
