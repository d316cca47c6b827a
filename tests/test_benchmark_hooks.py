"""The benchmark's tracer still finds every qmlp function it patches.

perfbench/tracing.py wraps named qmlp functions by attribute; renaming or
removing one of them breaks the benchmark. Installing and uninstalling the
tracer here makes such a change fail the unit tests as well.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

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
