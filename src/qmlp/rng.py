"""Deterministic substream derivation for reproducible stochastic runs.

Every random decision in a run (weight init, subset selection, epoch
shuffles, measurement sampling, multi-shot inference) is drawn from its own
PCG64 generator whose seed is derived from a base seed plus a purpose tag
and integer coordinates such as (epoch, batch, sample). Python's built-in
hash() is salted per process, so the derivation uses a fixed SplitMix64
chain instead:

    h = splitmix64(seed)
    for part in parts:
        h = splitmix64(h ^ splitmix64(part))

where splitmix64 is the finalizer from Steele et al.'s SplitMix generator
(the same mixer java.util.SplittableRandom uses). The resulting 64-bit
value seeds numpy's default PCG64 bit generator; one passed to successive
calls continues its stream (each shot of a sample's multi-shot inference
takes the next block). This exact chain is part of the reproducibility
contract: results depend only on the derived (purpose, coordinates) keys.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Purpose tags. Arbitrary but fixed; changing any of these changes every
# stream in existing runs.
INIT = 0x5EED_0001      # weight initialization
SUBSET = 0x5EED_0002    # training-subset selection
SHUFFLE = 0x5EED_0003   # per-epoch batch shuffling
FORWARD = 0x5EED_0004   # measurement sampling in quantum forward passes
EVAL = 0x5EED_0005      # multi-shot inference sampling


def splitmix64(x: int) -> int:
    """One round of the SplitMix64 finalizer on a 64-bit integer."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64(seed: int, *parts: int) -> int:
    """Mix a base seed with integer key parts into one 64-bit substream seed."""
    h = splitmix64(seed & _MASK64)
    for p in parts:
        h = splitmix64(h ^ splitmix64(p & _MASK64))
    return h


def substream(seed: int, *parts: int) -> np.random.Generator:
    """A PCG64 generator for the substream keyed by (seed, *parts)."""
    return np.random.default_rng(mix64(seed, *parts))
