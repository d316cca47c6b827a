"""Run configuration: YAML files, dotted --set overrides, angle expressions.

Angles may be written as fractions of pi ("pi/2", "5pi/19", "9*pi/19") or
as plain numbers. Unknown keys are rejected so typos fail loudly instead
of silently training the wrong model.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace

import yaml

from .inference import InferencePolicy
from .network import ConfigInvalid
from .quantum import HALF_PI, QuantumConfig
from .training import Hyperparams

_ANGLE_RE = re.compile(
    r"^\s*(?P<num>\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(?P<den>\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE,
)


def parse_angle(value) -> float:
    """Parse "pi/2"-style fractions of pi, or any plain number, to radians."""
    if isinstance(value, bool):
        raise ConfigInvalid(f"angle {value!r} is not a number")
    if isinstance(value, (int, float)):
        return float(value)
    m = _ANGLE_RE.match(str(value))
    if m:
        num = float(m.group("num")) if m.group("num") else 1.0
        den = float(m.group("den")) if m.group("den") else 1.0
        if den == 0.0:
            raise ConfigInvalid(f"angle {value!r} divides by zero")
        return num * math.pi / den
    try:
        return float(value)
    except ValueError:
        raise ConfigInvalid(f"cannot parse angle {value!r}") from None


@dataclass(frozen=True)
class DataConfig:
    train_images: str = "data/mnist/train-images-idx3-ubyte"
    train_labels: str = "data/mnist/train-labels-idx1-ubyte"
    val_images: str = "data/mnist/t10k-images-idx3-ubyte"
    val_labels: str = "data/mnist/t10k-labels-idx1-ubyte"
    subset_seed: int = 7


@dataclass(frozen=True)
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    hyper: Hyperparams = field(default_factory=Hyperparams)
    policy: InferencePolicy = field(default_factory=InferencePolicy)
    a_values: tuple = (0.0,)
    g_values: tuple = (HALF_PI,)
    seeds: tuple = (1,)
    out_dir: str = "runs/run"

    def with_quantum(self, a: float, g: float, seed: int) -> "RunConfig":
        hyper = replace(self.hyper, quantum=QuantumConfig(a=a, g=g), seed=seed)
        return replace(self, hyper=hyper)


def _integer(value) -> int:
    """An int, or a float with no fractional part (3.0 loads as 3; 2.7 and true are refused)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _seed(value) -> int:
    """An integer seed in [0, 2^64); the SplitMix64 chain would alias any other."""
    seed = _integer(value)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"a seed must be in [0, 2^64), got {seed}")
    return seed


def _path(value) -> str:
    """A non-empty string; YAML's null, numbers and lists are no file names."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"expected a non-empty path, got {value!r}")
    return value


def _real(value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


# YAML schema: section -> {key: converter}
_SCHEMA = {
    "data": {
        "train_images": _path,
        "train_labels": _path,
        "val_images": _path,
        "val_labels": _path,
        "subset_seed": _seed,
    },
    "model": {
        "hidden_layers": _integer,
        "hidden_size": _integer,
    },
    "training": {
        "learning_rate": _real,
        "momentum": _real,
        "batch_size": _integer,
        "epochs": _integer,
        "train_size": _integer,
        "val_size": _integer,
        "seed": _seed,
        "bp_scale": _real,
    },
    "quantum": {
        "a": _real,
        "g": parse_angle,
    },
    "inference": {
        "mode": str,
        "shots": _integer,
        "seed": _seed,
    },
    "sweep": {
        "a_values": lambda v: tuple(_real(x) for x in v),
        "g_values": lambda v: tuple(parse_angle(x) for x in v),
        "seeds": lambda v: tuple(_seed(x) for x in v),
    },
}


def _convert(name: str, convert, value):
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigInvalid(f"bad value for {name}: {exc}") from exc


def _converted_section(raw: dict, section: str) -> dict:
    spec = _SCHEMA[section]
    sub = raw.get(section) or {}
    if not isinstance(sub, dict):
        raise ConfigInvalid(f"section {section!r} must be a mapping")
    out = {}
    for key, value in sub.items():
        if key not in spec:
            raise ConfigInvalid(f"unknown config key {section}.{key}")
        out[key] = _convert(f"{section}.{key}", spec[key], value)
    return out


def config_from_dict(raw: dict) -> RunConfig:
    raw = dict(raw or {})
    known = set(_SCHEMA) | {"out_dir"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigInvalid(f"unknown config section(s): {sorted(unknown)}")

    data = DataConfig(**_converted_section(raw, "data"))
    hyper_kwargs = _converted_section(raw, "model")
    hyper_kwargs.update(_converted_section(raw, "training"))
    q = _converted_section(raw, "quantum")
    sweep = _converted_section(raw, "sweep")
    for key, values in sweep.items():  # a repeat would train one cell twice, into one directory
        if not values or len(set(values)) != len(values):
            raise ConfigInvalid(f"sweep.{key} is empty or repeats a value: {list(values)}")
    quantum = QuantumConfig(a=q.get("a", 0.0), g=q.get("g", HALF_PI))
    a_values = sweep.get("a_values", (quantum.a,))
    g_values = sweep.get("g_values", (quantum.g,))
    for a in a_values:  # every cell's point, before any cell starts
        for g in g_values:
            QuantumConfig(a=a, g=g)
    hyper = Hyperparams(quantum=quantum, **hyper_kwargs)
    policy = InferencePolicy(**_converted_section(raw, "inference"))
    return RunConfig(
        data=data,
        hyper=hyper,
        policy=policy,
        a_values=a_values,
        g_values=g_values,
        seeds=sweep.get("seeds", (hyper.seed,)),
        out_dir=_convert("out_dir", _path, raw.get("out_dir", "runs/run")),
    )


def apply_overrides(raw: dict, sets) -> dict:
    """Apply --set dotted.key=value overrides onto a raw config dict."""
    for item in sets:
        if "=" not in item:
            raise ConfigInvalid(f"--set expects key=value, got {item!r}")
        dotted, text = item.split("=", 1)
        keys = dotted.strip().split(".")
        if not all(keys):
            raise ConfigInvalid(f"bad --set key {dotted!r}")
        node = raw
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigInvalid(f"--set {dotted}: {key} is not a section")
        try:
            node[keys[-1]] = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigInvalid(f"cannot parse --set {item!r}: {exc}") from exc
    return raw


def load_config(path=None, sets=()) -> RunConfig:
    """Read a YAML config (path None: an empty one) and apply --set overrides."""
    raw = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = yaml.safe_load(fh) or {}
        except OSError as exc:
            raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigInvalid(f"cannot parse config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigInvalid(f"config {path} must be a mapping")
    return config_from_dict(apply_overrides(raw, sets))
