"""The benchmark's tracer and workloads still find the qmlp calls they make.

perfbench/tracing.py wraps named qmlp functions by attribute, and
perfbench/workloads.py and perfbench/child.py call qmlp directly; renaming
one of those functions or changing its call shape breaks the benchmark.
Installing the tracer and making those calls here makes such a change fail
the unit tests as well.
"""

import importlib.util
import math
import sys
import threading
from pathlib import Path

import numpy as np

from qmlp import checkpoint, inference, network, quantum, rng, sweep, training
from qmlp.data import EncodedDataset, encode_dataset

from synthdigits import make_raw_dataset

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def qmlp_attributes() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "qmlp" or name.startswith("qmlp.")
        for attr, value in vars(module).items()
    }


def test_tracer_installs_and_restores_every_hook():
    import qmlp.cli  # noqa: F401  (loads every qmlp module the tracer patches)
    from qmlp.data import BatchPlan

    tracing = load_tracing()
    default_rng, make = np.random.default_rng, BatchPlan.__dict__["make"]
    original = qmlp_attributes()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        installed = qmlp_attributes()
    finally:
        tracer.uninstall()
    assert np.random.default_rng is default_rng
    assert BatchPlan.__dict__["make"] is make
    restored = qmlp_attributes()
    assert restored.keys() == original.keys()
    assert all(restored[key] is value for key, value in original.items())
    assert any(installed[key] is not value for key, value in original.items())


def test_benchmark_call_shapes(tmp_path):
    """The direct calls of perfbench/workloads.py and perfbench/child.py, on a 1x8 net."""
    train_set = encode_dataset(make_raw_dataset(24, seed=71))
    val_set = encode_dataset(make_raw_dataset(16, seed=72))
    hyper = training.Hyperparams(hidden_layers=1, hidden_size=8, batch_size=8, epochs=2,
                                 train_size=24, val_size=16)
    ends = []
    metrics = training.train(hyper, train_set, val_set, on_epoch=lambda rec: ends.append(rec))
    assert ends == metrics.records and [r.epoch for r in metrics.records] == [0, 1]
    assert all(math.isfinite(r.mean_loss) for r in metrics.records)
    assert metrics.records[-1].val_error <= 1.0

    path = tmp_path / "bench.qckpt"
    checkpoint.save_checkpoint(path, metrics.params, epoch=hyper.epochs)
    params = checkpoint.load_checkpoint(path)[0]
    assert all(np.array_equal(w, v) for w, v in zip(params.W, metrics.params.W))

    X = train_set.X[: hyper.batch_size]
    rngs = [rng.substream(hyper.seed, rng.FORWARD, 0, 0, s) for s in range(len(X))]
    q = quantum.quantum_forward_batch(params, X.T, quantum.QuantumConfig(0.0), rngs)
    assert np.array_equal(q.F, network.classical_forward_batch(params, X.T).F)

    head = EncodedDataset(X=val_set.X[:8], y=val_set.y[:8])
    error = inference.evaluate(params, head, inference.InferencePolicy.multi_shot(1, 0),
                               quantum=quantum.QuantumConfig(a=0.5, g=1.0))
    assert 0.0 <= error <= 1.0

    # stamped by module attribute, and the sweep table's header the workload checks
    assert callable(training.sgd_momentum_step) and callable(inference.quantum_forward_batch)
    assert sweep.CSV_HEADER.startswith("a,g,seed,")


def test_tracer_times_each_layers_outcome_sampling():
    """Every layer samples its outcomes through the traced `projective_update`.

    On the pole path each layer calls it from the forward pass. On the weak path
    layers 1 and 2 call it inside `weak_update`, and the last layer, which only
    samples, calls it from the forward pass.
    """
    tracing = load_tracing()
    gen = np.random.default_rng(73)
    params = network.init_network_params(6, 8, 3, 3, gen)
    X = gen.uniform(0, 1, size=(6, 4))
    fwd = "quantum.forward_batch"
    for cfg, parents in (
        (quantum.QuantumConfig(a=0.316227766), [fwd, fwd, fwd]),
        (quantum.QuantumConfig(a=0.4641588834, g=9 * math.pi / 19),
         ["quantum.weak_update.L1", "quantum.weak_update.L2", fwd]),
    ):
        tracer = tracing.Tracer()
        with tracer:
            streams = [rng.substream(5, rng.FORWARD, s) for s in range(4)]
            quantum.quantum_forward_batch(params, X, cfg, streams)
        assert tracer.accounting_errors() == 0
        parent_of = {name: parent for name, _, _, parent, _ in tracer.spans}
        for k, parent in enumerate(parents, start=1):
            idx = parent_of[f"quantum.projective_update.L{k}"]
            assert tracer.spans[idx][0] == parent, f"layer {k} at {cfg}"


def test_evaluation_helper_calls_no_traced_name(monkeypatch):
    """With the helper thread forced on, a traced multi-shot evaluation keeps one
    span stack: the helper seeds generators and draws uniforms, which the tracer
    does not wrap, and every pass stays one `quantum.forward_batch` span."""
    tracing = load_tracing()
    params = network.init_network_params(784, 8, 2, 10, np.random.default_rng(74))
    data = encode_dataset(make_raw_dataset(40, seed=75))
    policy = inference.InferencePolicy.multi_shot(5, 3)
    cfg = quantum.QuantumConfig(a=0.4641588834, g=9 * math.pi / 19)
    monkeypatch.setattr(inference, "_EVAL_QUBITS", 128)  # 16 samples a pass: 3 passes a shot
    monkeypatch.setattr(inference, "_spare_cpu", lambda: False)
    serial = inference.evaluate(params, data, policy, quantum=cfg)
    monkeypatch.setattr(inference, "_spare_cpu", lambda: True)
    tracer = tracing.Tracer()
    opened_on, open_span = [], tracer.open

    def recording_open(name):
        opened_on.append(threading.current_thread())
        return open_span(name)

    tracer.open = recording_open
    with tracer:
        error = inference.evaluate(params, data, policy, quantum=cfg)
    assert error == serial
    assert tracer.accounting_errors() == 0
    assert set(opened_on) == {threading.main_thread()}
    names = [span[0] for span in tracer.spans]
    assert names.count("quantum.forward_batch") == 3 * 5
