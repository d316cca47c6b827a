"""Every error a user can cause derives from QmlpError, which the CLI reports."""

import importlib
import inspect
import pkgutil

import pytest

import qmlp
from qmlp.inference import InferencePolicy
from qmlp.network import ConfigInvalid, QmlpError
from qmlp.quantum import QuantumConfig


def test_every_exception_class_derives_from_qmlp_error():
    defined = {}
    for info in pkgutil.iter_modules(qmlp.__path__):
        module = importlib.import_module(f"qmlp.{info.name}")
        for obj in vars(module).values():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__):
                defined[obj.__name__] = obj
    assert set(defined) >= {
        "QmlpError", "ShapeMismatch", "ConfigInvalid", "CheckpointCorrupt", "ResultCorrupt",
        "EmptyDataset", "MagicMismatch", "TruncatedFile", "LabelOutOfRange", "SubsetTooLarge",
    }
    assert [name for name, cls in defined.items() if not issubclass(cls, QmlpError)] == []
    assert issubclass(QmlpError, ValueError)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: QuantumConfig(a=-1.0), "stretch a must be finite and >= 0, got -1.0"),
        (lambda: QuantumConfig(a=0.0, g=2.0), "angle g must be in [0, pi/2], got 2.0"),
        (lambda: InferencePolicy(shots=0), "shots must be >= 1, got 0"),
        (lambda: InferencePolicy(mode="x"), "unknown inference mode 'x'"),
    ],
)
def test_value_objects_raise_config_invalid(make, message):
    with pytest.raises(ConfigInvalid) as exc:
        make()
    assert str(exc.value).endswith(message)
