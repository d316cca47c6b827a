"""Binarized MLP with tunable quantum-measurement activations.

Two knobs move the network between classical and quantum operation: the
activation stretch `a` (rotation-based superposition with projective
mid-circuit measurement) and the entanglement angle `g` (weak measurement
through an ancilla). The configuration (a=0, g=pi/2) reproduces the
classical binarized network bit-for-bit. Every operation has one batched
implementation (see the submodules); batches are column-major, features x
samples.
"""

__version__ = "0.1.0"
