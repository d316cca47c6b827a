"""Binarized MLP with tunable quantum-measurement activations.

Two knobs move the network between classical and quantum operation: the
activation stretch `a` (rotation-based superposition with projective
mid-circuit measurement) and the entanglement angle `g` (weak measurement
through an ancilla). The configuration (a=0, g=pi/2) reproduces the
classical binarized network bit-for-bit. Every operation has one batched
implementation (see the submodules); batches are column-major, features x
samples.
"""

from .checkpoint import CheckpointCorrupt, load_checkpoint, save_checkpoint
from .config import RunConfig, load_config, parse_angle
from .data import (
    EncodedDataset,
    LabelOutOfRange,
    MagicMismatch,
    RawDataset,
    SubsetTooLarge,
    TruncatedFile,
    encode_dataset,
    load_raw_dataset,
    parse_idx_images,
    parse_idx_labels,
    subset,
)
from .inference import EmptyDataset, InferencePolicy, evaluate
from .network import NetworkParams, ShapeMismatch, htanh, init_network_params, sign
from .quantum import HALF_PI, QuantumConfig, phi_a
from .training import (
    ConfigInvalid,
    Hyperparams,
    OptimizerState,
    RunMetrics,
    sgd_momentum_step,
    train,
)

__version__ = "0.1.0"
