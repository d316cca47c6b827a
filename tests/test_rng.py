import numpy as np

from qmlp.rng import FORWARD, INIT, SHUFFLE, SUBSET, mix64, splitmix64, substream


def test_mix64_is_deterministic_and_64bit():
    assert mix64(1, 2, 3) == mix64(1, 2, 3)
    assert 0 <= mix64(123456789, 42) < 1 << 64


def test_mix64_sensitive_to_every_part():
    base = mix64(7, INIT, 0, 0)
    assert mix64(8, INIT, 0, 0) != base
    assert mix64(7, SUBSET, 0, 0) != base
    assert mix64(7, INIT, 1, 0) != base
    assert mix64(7, INIT, 0, 1) != base
    assert mix64(7, INIT) != mix64(7, INIT, 0)


def test_splitmix64_reference_values():
    # the first outputs of the published SplitMix64 sequence for seed 0 are
    # the finalizer applied to successive multiples of the golden constant
    golden = 0x9E3779B97F4A7C15
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(golden) == 0x6E789E6AA1B965F4
    assert splitmix64((2 * golden) & ((1 << 64) - 1)) == 0x06C45D188009454F


def test_substreams_differ_and_reproduce():
    a = substream(3, FORWARD, 0, 0, 0).random(4)
    b = substream(3, FORWARD, 0, 0, 1).random(4)
    c = substream(3, FORWARD, 0, 0, 0).random(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_vectorized_draws_match_scalar_draws():
    # quantum_forward_batch draws rng.random((L, n)) per sample; this must
    # equal L * n scalar draws for the one-draw-per-measurement contract
    g1 = substream(11, SHUFFLE)
    g2 = substream(11, SHUFFLE)
    vec = g1.random(16)
    scalars = np.array([g2.random() for _ in range(16)])
    assert np.array_equal(vec, scalars)

    g3 = substream(11, SHUFFLE)
    g4 = substream(11, SHUFFLE)
    mat = g3.random((4, 8))
    flat = g4.random(32)
    assert np.array_equal(mat.reshape(-1), flat)
