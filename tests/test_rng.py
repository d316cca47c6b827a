import hashlib

import numpy as np
import pytest

import qmlp.inference
import qmlp.quantum
import qmlp.training
from qmlp.config import DataConfig, RunConfig
from qmlp.data import BatchPlan, encode_dataset
from qmlp.inference import prediction_matrix
from qmlp.network import init_network_params
from qmlp.quantum import HALF_PI, QuantumConfig, quantum_forward_batch
from qmlp.rng import (
    EVAL, FORWARD, INIT, SHUFFLE, SUBSET, generators, mix64, seed_words, splitmix64, substream
)
from qmlp.sweep import load_datasets
from qmlp.training import Hyperparams, train

from synthdigits import make_raw_dataset


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


def test_splitmix64_on_uint64_arrays_equals_python_ints():
    x = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15]
    got = splitmix64(np.array(x, dtype=np.uint64))
    assert got.dtype == np.uint64 and got.tolist() == [splitmix64(v) for v in x]
    keys = mix64(9, FORWARD, 3, 2, np.arange(5, dtype=np.uint64))
    assert keys.tolist() == [mix64(9, FORWARD, 3, 2, s) for s in range(5)]


def test_seed_words_equal_numpy_seed_sequence():
    edges = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
    values = edges + [int(v) for v in np.random.default_rng(2).integers(0, 2**64, 500, np.uint64)]
    got = seed_words(np.array(values, dtype=np.uint64))
    assert got.shape == (len(values), 4) and got.dtype == np.uint64
    want = [np.random.SeedSequence(v).generate_state(4, np.uint64) for v in values]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def batch_generators(seed, parts, last):
    """The generators of the keys (seed, *parts, k) for k in `last`, as training and
    evaluation derive them: every key's words in one pass, then one PCG64 per row."""
    return generators(seed_words(mix64(seed, *parts, np.asarray(last, dtype=np.uint64))))


def batch_keys():
    """10,240 measurement keys as (seed, parts, last): training batches and evaluation chunks."""
    for seed in (0, 5, 2**64 - 1):
        for epoch in (0, 7):
            for batch in range(16):
                yield seed, (FORWARD, epoch, batch), range(64)
    for start in range(0, 4096, 512):
        yield 7, (EVAL,), range(start, start + 512)


def test_batch_form_equals_default_rng_key_for_key():
    count = 0
    for seed, parts, last in batch_keys():
        gens = batch_generators(seed, parts, last)
        assert len(gens) == len(last)
        for k, gen in zip(last, gens):
            assert gen.bit_generator.state == substream(seed, *parts, k).bit_generator.state
        count += len(gens)
    assert count >= 10_000


def test_batch_form_continues_like_default_rng():
    # a non-zero start, and successive odd-sized float32 draws as multi-shot evaluation takes
    gens = batch_generators(11, (EVAL,), range(512, 1024))
    refs = [substream(11, EVAL, i) for i in range(512, 1024)]
    for _shot in range(3):
        for gen, ref in zip(gens, refs):
            want = ref.random(15, dtype=np.float32)
            assert gen.random(15, dtype=np.float32).tobytes() == want.tobytes()
    assert batch_generators(11, (EVAL,), range(0)) == []
    assert batch_generators(11, (FORWARD, 0, 0), []) == []


def test_batch_seed_sequence_holds_only_pcg64_words():
    [gen] = batch_generators(3, (EVAL,), [9])
    seq = gen.bit_generator.seed_seq
    want = np.random.SeedSequence(mix64(3, EVAL, 9)).generate_state(4, np.uint64)
    assert np.array_equal(seq.generate_state(4, np.uint64), want)
    for n_words, dtype in [(4, np.uint32), (8, np.uint64)]:
        with pytest.raises(ValueError, match="only the 4 uint64 words"):
            seq.generate_state(n_words, dtype)


def test_substream_is_the_one_key_case():
    # array parts are uint64, so a last part outside [0, 2^64) is masked as mix64 masks it
    for parts in [(INIT,), (SUBSET,), (SHUFFLE,), (FORWARD, 1, 2, 3), (EVAL, 2**64 - 1),
                  (EVAL, -1), (EVAL, 2**64)]:
        *prefix, last = parts
        [gen] = batch_generators(13, prefix, [last & (2**64 - 1)])
        assert gen.bit_generator.state == substream(13, *parts).bit_generator.state


def test_mix64_array_parts_equal_the_scalar_chain():
    edges = np.array([0, 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)
    # any part may be an array, and the array parts broadcast: here (5, 1) against (5,)
    for seed in (0, 2**64 - 1):
        got = mix64(seed, edges[:, None], FORWARD, edges)
        assert got.dtype == np.uint64 and got.shape == (5, 5)
        assert got.tolist() == [[mix64(seed, int(p), FORWARD, int(q)) for q in edges]
                                for p in edges]
        got = mix64(seed, FORWARD, 2**64 - 1, edges, 3)
        assert got.tolist() == [mix64(seed, FORWARD, 2**64 - 1, int(p), 3) for p in edges]


def recording_forward(calls):
    """quantum_forward_batch that first logs a copy of the array of draws it is given."""

    def forward(params, D0, cfg, draws, **kwargs):
        calls.append(draws.copy())
        return quantum_forward_batch(params, D0, cfg, draws, **kwargs)

    return forward


def as_bytes(arrays):
    return [(a.shape, a.dtype, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("count, batch_size", [(40, 16), (5, 1), (7, 64)])
def test_epoch_generators_are_the_per_sample_substreams(count, batch_size, monkeypatch):
    # 40 at 16 ends on a short batch of 8; 7 at 64 is one short batch
    hyper = Hyperparams(hidden_layers=2, hidden_size=5, batch_size=batch_size, epochs=2,
                        quantum=QuantumConfig(a=0.316227766, g=HALF_PI), seed=2**64 - 1)
    calls = []
    monkeypatch.setattr(qmlp.training, "quantum_forward_batch", recording_forward(calls))
    train(hyper, encode_dataset(make_raw_dataset(count, seed=104)),
          encode_dataset(make_raw_dataset(4, seed=105)))
    sizes = [min(batch_size, count - start) for start in range(0, count, batch_size)]
    # batch b of an epoch gets the (L, n) = (2, 5) block of each of its samples' streams
    want = [np.stack([substream(hyper.seed, FORWARD, epoch, b, i).random((2, 5), dtype=np.float32)
                      for i in range(size)], axis=-1)
            for epoch in range(2) for b, size in enumerate(sizes)]
    assert as_bytes(calls) == as_bytes(want)


def test_evaluation_generators_are_the_per_sample_substreams(monkeypatch):
    # 10 qubits a pass at width 5 make chunks of 2: 7 samples fill 3 and start a 4th
    params = init_network_params(784, 5, 2, 10, np.random.default_rng(0))
    data = encode_dataset(make_raw_dataset(7, seed=106))
    cfg = QuantumConfig(a=0.4641588834, g=9 * np.pi / 19)
    calls = []
    monkeypatch.setattr(qmlp.inference, "_EVAL_QUBITS", 10)
    monkeypatch.setattr(qmlp.inference, "quantum_forward_batch", recording_forward(calls))
    want = []
    for start in range(0, 7, 2):
        refs = [substream(9, EVAL, i) for i in range(start, min(start + 2, 7))]
        for _shot in range(2):  # each shot continues the stream by one block of L * n
            want.append(np.stack([ref.random((2, 5), dtype=np.float32) for ref in refs], axis=-1))
    for helper in (False, True):  # the draws are made on this thread, or one pass ahead
        calls.clear()
        monkeypatch.setattr(qmlp.inference, "_spare_cpu", lambda helper=helper: helper)
        prediction_matrix(params, data, cfg, 2, seed=9)
        assert as_bytes(calls) == as_bytes(want)


def test_words_are_derived_once_per_epoch_and_once_per_evaluation(monkeypatch):
    derived = []

    def counting(values):
        derived.append(values.size)
        return seed_words(values)

    monkeypatch.setattr(qmlp.quantum, "seed_words", counting)
    train_set = encode_dataset(make_raw_dataset(40, seed=101))
    val_set = encode_dataset(make_raw_dataset(8, seed=102))
    for cfg, want in [(QuantumConfig(a=0.0, g=HALF_PI), []),
                      (QuantumConfig(a=0.316227766, g=HALF_PI), [40, 40, 40])]:
        derived.clear()
        train(Hyperparams(hidden_layers=2, hidden_size=5, batch_size=16, epochs=3, quantum=cfg),
              train_set, val_set)
        assert derived == want
    derived.clear()
    params = init_network_params(784, 5, 2, 10, np.random.default_rng(0))
    monkeypatch.setattr(qmlp.inference, "_EVAL_QUBITS", 10)  # 4 chunks
    prediction_matrix(params, val_set, QuantumConfig(a=0.5, g=HALF_PI), 3, seed=7)
    assert derived == [8]


class RecordedGenerator:
    """A generator that logs the bytes each of its random() calls returns."""

    def __init__(self, gen, log):
        self.gen, self.log = gen, log

    def random(self, *args, **kwargs):
        out = self.gen.random(*args, **kwargs)
        self.log.append(np.asarray(out).tobytes())
        return out

    def __getattr__(self, name):
        return getattr(self.gen, name)


def draw_digest(monkeypatch, run):
    """(SHA-256 of every random() draw run() takes from qmlp's measurement streams,
    number of calls); quantum.passes builds those streams with `generators`."""
    log = []

    def recording(words):
        return [RecordedGenerator(gen, log) for gen in generators(words)]

    monkeypatch.setattr(qmlp.quantum, "generators", recording)
    run()
    return hashlib.sha256(b"".join(log)).hexdigest(), len(log)


# The draw schedule is frozen: a change to these digests changes the streams of every run,
# so it comes with a new sweep.NUMERICS. The draws do not depend on BLAS, so neither do
# the digests. 3x5 nets draw an odd 15 float32 uniforms per sample and pass.


def test_training_draw_schedule_is_frozen(monkeypatch):
    hyper = Hyperparams(hidden_layers=3, hidden_size=5, batch_size=16, epochs=1, train_size=40,
                        val_size=8, quantum=QuantumConfig(a=0.316227766, g=HALF_PI), seed=5)
    train_set = encode_dataset(make_raw_dataset(40, seed=101))
    val_set = encode_dataset(make_raw_dataset(8, seed=102))
    digest = draw_digest(monkeypatch, lambda: train(hyper, train_set, val_set))
    # one FORWARD stream and one random() call per sample
    assert digest == ("b63f374a7a3a594a96f401efd811c20cecce4e8de0f6a7fa602a8b9ace08fe1a", 40)


def test_evaluation_draw_schedule_is_frozen(monkeypatch):
    params = init_network_params(784, 5, 3, 10, np.random.default_rng(0))
    data = encode_dataset(make_raw_dataset(6, seed=103))
    cfg = QuantumConfig(a=0.4641588834, g=9 * np.pi / 19)
    digest = draw_digest(monkeypatch, lambda: prediction_matrix(params, data, cfg, 3, seed=7))
    # 3 shots of 6 samples, each shot continuing its sample's stream
    assert digest == ("c201274433c8214e50f7888a3b3fc2cb4f622ffbc99da052a41a494ec9af23f0", 18)


# The single-key streams are frozen too: weight init, the training and validation subset
# picks, and the per-epoch shuffles. None of them touches BLAS.


def sha256(*arrays) -> str:
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def test_init_stream_is_frozen():
    W = [w for seed in (0, 1, 2**64 - 1)
         for w in init_network_params(784, 16, 3, 10, substream(seed, INIT)).W]
    assert sha256(*W) == "4240b7c2d97e1999eda75027a9b291038658ad0540f7812a313671913077a134"


def test_subset_streams_are_frozen(small_idx_dir):
    data = DataConfig(
        train_images=str(small_idx_dir / "train-images-idx3-ubyte"),
        train_labels=str(small_idx_dir / "train-labels-idx1-ubyte"),
        val_images=str(small_idx_dir / "t10k-images-idx3-ubyte"),
        val_labels=str(small_idx_dir / "t10k-labels-idx1-ubyte"),
        subset_seed=7,
    )
    # the validation pick is keyed by mix64(subset_seed, 1), then SUBSET
    train_set, val_set = load_datasets(RunConfig(data=data, hyper=Hyperparams(train_size=100,
                                                                              val_size=50)))
    assert sha256(train_set.y, train_set.X) == (
        "98d10a695dea7e05fd27aae8eb9e01e9a3a9321e9aa7ade32888951a8595df23")
    assert sha256(val_set.y, val_set.X) == (
        "d8bec115ef021439c7edf697b25652a1cd71fc8aff50f36378ceb3c68d942a07")


def test_shuffle_streams_are_frozen():
    orders = [BatchPlan.make(1000, 64, mix64(1, SHUFFLE, epoch)).order for epoch in range(3)]
    assert all(o.dtype == np.int64 for o in orders)
    assert sha256(*orders) == "dcb310a75b11bde1826640abc2595b5583e2e2f4f2ba3334124bdcb1783f423d"
