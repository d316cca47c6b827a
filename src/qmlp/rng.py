"""Deterministic substream derivation for reproducible stochastic runs.

Every random decision in a run is drawn from its own PCG64 generator,
np.random.default_rng(mix64(seed, *parts)), keyed by a base seed, a purpose
tag and integer coordinates. Python's built-in hash() is salted per process,
so mix64 is a fixed SplitMix64 chain instead:

    h = splitmix64(seed)
    for part in parts:
        h = splitmix64(h ^ splitmix64(part))

where splitmix64 is the finalizer from Steele et al.'s SplitMix generator.
This chain is part of the reproducibility contract: results depend only on
the keys. The streams, and the caller that mixes a key's inner mix64 first:

    stream   key                                   derived by  in
    INIT     seed, INIT                            substream   training.train
    SUBSET   subset_seed, SUBSET                   substream   data.subset, for sweep._train_split
    SUBSET   mix64(subset_seed, 1), SUBSET         substream   data.subset, for sweep._val_split
    SHUFFLE  mix64(seed, SHUFFLE, epoch), SHUFFLE  substream   BatchPlan.make, for training.train
    FORWARD  seed, FORWARD, epoch, batch, i        words       training.train, once an epoch
    EVAL     policy seed, EVAL, i                  words       prediction_matrix, once a call

The measurement streams ("words") are derived in two steps. First
seed_words(mix64(seed, *parts)), with uint64 array parts, turns every key
of an epoch or of an evaluation into PCG64 seed words in one vectorized
pass: the chain in uint64 and numpy's SeedSequence hash in uint32
arithmetic. Then a batch or chunk seeds its own rows' generators with
`generators`. Each state, and so each stream, equals
default_rng's for the same key; only its `bit_generator.seed_seq` differs,
and it cannot spawn children.
"""

from __future__ import annotations

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# Purpose tags. Arbitrary but fixed; changing any of these changes every
# stream in existing runs.
INIT = 0x5EED_0001      # weight initialization
SUBSET = 0x5EED_0002    # training-subset selection
SHUFFLE = 0x5EED_0003   # per-epoch batch shuffling
FORWARD = 0x5EED_0004   # measurement sampling in quantum forward passes
EVAL = 0x5EED_0005      # multi-shot inference sampling

# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mixing the entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def splitmix64(x):
    """One round of the SplitMix64 finalizer on a 64-bit Python int or a uint64 array."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64(seed: int, *parts):
    """Mix a base seed with key parts into one 64-bit substream seed.

    Any part may be a uint64 array; the array parts broadcast against each
    other and give one seed per element (uint64 arrays wrap where Python
    ints are masked).
    """
    h = splitmix64(seed & _MASK64)
    for p in parts:
        h = splitmix64(h ^ splitmix64(p & _MASK64))
    return h


def _hashmix(const: int, mult: int):
    """numpy's SeedSequence hashmix: xor the running constant, step it, multiply, fold."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const  # uint32 arrays wrap
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> 16)


def seed_words(values: np.ndarray) -> np.ndarray:
    """`np.random.SeedSequence(v).generate_state(4, np.uint64)` for each uint64 v, as (K, 4).

    A 64-bit entropy value is the uint32 words (low, high), and a pool of 4
    pads it with zero words, so one word-parallel pass follows numpy's
    mix_entropy and generate_state for every value at once.
    """
    low = (values & _MASK32).astype(np.uint32)
    zero = np.zeros_like(low)
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in (low, (values >> 32).astype(np.uint32), zero, zero)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    out = _hashmix(_INIT_B, _MULT_B)
    # 4 uint64 words are 8 uint32 words cycling over the pool, read little-endian in pairs
    words = np.stack([out(pool[i % _POOL_SIZE]) for i in range(8)], axis=-1)
    return words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _Words(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state for PCG64 (4 uint64 words) is already computed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds only the 4 uint64 words that PCG64 asks for")
        return self.words


def generators(words: np.ndarray) -> list:
    """One PCG64 generator per row of seed_words' (K, 4) output, each in the
    state of default_rng(key) for the key of its row."""
    return [np.random.Generator(np.random.PCG64(_Words(w))) for w in words]


def substream(seed: int, *parts: int) -> np.random.Generator:
    """A PCG64 generator for the substream keyed by (seed, *parts)."""
    return np.random.default_rng(mix64(seed, *parts))
