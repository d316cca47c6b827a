"""Run configuration: YAML files, dotted --set overrides, angle expressions.

Every key is dotted ("training.epochs"); a file's sections and each --set
are flattened into those keys and checked by one table. Angles may be
written as fractions of pi ("pi/2", "5pi/19", "9*pi/19") or as plain
numbers. Unknown keys are rejected so typos fail loudly instead of
silently training the wrong model.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
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


# Every config key, dotted: a file's `section: {key: ...}` and `--set section.key=...` name it
_SCHEMA = {
    "data.train_images": _path,
    "data.train_labels": _path,
    "data.val_images": _path,
    "data.val_labels": _path,
    "data.subset_seed": _seed,
    "model.hidden_layers": _integer,
    "model.hidden_size": _integer,
    "training.learning_rate": _real,
    "training.momentum": _real,
    "training.batch_size": _integer,
    "training.epochs": _integer,
    "training.train_size": _integer,
    "training.val_size": _integer,
    "training.seed": _seed,
    "training.bp_scale": _real,
    "quantum.a": _real,
    "quantum.g": parse_angle,
    "inference.mode": str,
    "inference.shots": _integer,
    "inference.seed": _seed,
    "sweep.a_values": lambda v: tuple(_real(x) for x in v),
    "sweep.g_values": lambda v: tuple(parse_angle(x) for x in v),
    "sweep.seeds": lambda v: tuple(_seed(x) for x in v),
    "out_dir": _path,
}
_SECTIONS = {key.partition(".")[0] for key in _SCHEMA if "." in key}


def _flatten(raw: dict) -> dict:
    """Spell each section's entries as dotted keys; a null section is empty, a dotted key stays."""
    flat = {}
    for key, value in raw.items():
        if key not in _SECTIONS:
            flat[key] = value
        elif value is None or isinstance(value, dict):
            flat.update((f"{key}.{sub}", v) for sub, v in (value or {}).items())
        else:
            raise ConfigInvalid(f"section {key!r} must be a mapping")
    return flat


def config_from_dict(raw: dict) -> RunConfig:
    given = defaultdict(dict)  # section -> {key: converted value}; out_dir's section is ""
    for dotted, value in _flatten(raw or {}).items():
        if dotted not in _SCHEMA:
            raise ConfigInvalid(f"unknown config key {dotted}")
        section, _, key = dotted.rpartition(".")
        try:
            given[section][key] = _SCHEMA[dotted](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigInvalid(f"bad value for {dotted}: {exc}") from exc

    quantum = QuantumConfig(**given["quantum"])
    sweep = given["sweep"]
    for key, values in sweep.items():  # a repeat would train one cell twice, into one directory
        if not values or len(set(values)) != len(values):
            raise ConfigInvalid(f"sweep.{key} is empty or repeats a value: {list(values)}")
    a_values = sweep.get("a_values", (quantum.a,))
    g_values = sweep.get("g_values", (quantum.g,))
    for a in a_values:  # every cell's point, before any cell starts
        for g in g_values:
            QuantumConfig(a=a, g=g)
    hyper = Hyperparams(quantum=quantum, **given["model"], **given["training"])
    return RunConfig(
        data=DataConfig(**given["data"]),
        hyper=hyper,
        policy=InferencePolicy(**given["inference"]),
        a_values=a_values,
        g_values=g_values,
        seeds=sweep.get("seeds", (hyper.seed,)),
        **given[""],
    )


def apply_overrides(raw: dict, sets) -> dict:
    """Apply --set dotted.key=value overrides to a raw config; return it as dotted keys.

    `--set section={key: value}` sets the keys it names and keeps the section's others.
    """
    flat = _flatten(raw)
    for item in sets:
        if "=" not in item:
            raise ConfigInvalid(f"--set expects key=value, got {item!r}")
        dotted, text = item.split("=", 1)
        dotted = dotted.strip()
        if not all(dotted.split(".")):
            raise ConfigInvalid(f"bad --set key {dotted!r}")
        try:
            value = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigInvalid(f"cannot parse --set {item!r}: {exc}") from exc
        flat.update(_flatten({dotted: value}))
    return flat


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
