"""Span tracing of qmlp from outside: timing wrappers around public functions.

`Tracer.install()` replaces each traced function with a wrapper that opens
a span (name, start, end, parent) around the call, and `uninstall()` puts
the originals back. A function that a module pulled in with
`from .x import f` is bound in several namespaces, so every qmlp module
attribute that *is* the original function object is patched, e.g. both
`qmlp.training.ste_backward_batch` and `qmlp.network.ste_backward_batch`.

Generators handed out by `rng.substream` for measurement sampling (and by
`numpy.random.default_rng` when qmlp calls it directly) are wrapped in a
proxy whose draw methods open `rng.draw` spans; values are forwarded
unchanged, so traced runs produce the same bytes as untraced ones. The
init, subset and shuffle streams are timed as `rng.substream.other` and
their few draws are left in their caller's self time, so on the classical
workload every `quantum.*`, `rng.substream*` and `rng.draw` metric is 0.

A span's self time is its duration minus the durations of its children.
Counting done by the tracer itself (exact angles, gate passes, bytes
written) runs in `trace.bookkeeping` child spans, so it is not charged to
the traced function or its caller's self time.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter

# Per-forward-pass call order gives the layer index of these quantum kernels.
LAYERED = ("quantum.phi_a", "quantum.ry_update", "quantum.projective_update", "quantum.weak_update")


class _GenProxy:
    """Forwards to a numpy Generator, timing the draws qmlp makes on
    measurement streams (`random`, `integers`) as `rng.draw` spans."""

    __slots__ = ("_tracer", "_gen")

    def __init__(self, tracer, gen):
        self._tracer = tracer
        self._gen = gen

    def _draw(self, method, args, kwargs):
        idx = self._tracer.open("rng.draw")
        try:
            return getattr(self._gen, method)(*args, **kwargs)
        finally:
            self._tracer.close(idx)

    def random(self, *args, **kwargs):
        return self._draw("random", args, kwargs)

    def integers(self, *args, **kwargs):
        return self._draw("integers", args, kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        # one [name, start, end, parent index, summed child duration] per span
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []
        self._layer = dict.fromkeys(LAYERED, 0)
        self._undo = []

    # --- spans ----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, 0.0]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = _now()
        return idx

    def close(self, idx: int):
        end = _now()
        span = self.spans[idx]
        span[2] = end
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {span[0]} closed out of order")
        if span[3] >= 0:
            self.spans[span[3]][4] += end - span[1]

    def _innermost(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def call(self, name, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # --- wrappers -------------------------------------------------------

    def _timed(self, name, fn, count=None):
        tracer = self
        layered = name in LAYERED
        resets = name == "quantum.forward_batch"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if resets:
                tracer._layer = dict.fromkeys(LAYERED, 0)
            if layered:
                tracer._layer[name] += 1
                span_name = f"{name}.L{tracer._layer[name]}"
            idx = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                b = tracer.open("trace.bookkeeping")
                count(tracer.counters, args, kwargs)
                tracer.close(b)
            return result

        return wrapper

    def _substream(self, rng_mod):
        tracer = self
        fn = rng_mod.substream
        sampling = {rng_mod.FORWARD, rng_mod.EVAL}

        @functools.wraps(fn)
        def substream(seed, *parts):
            if parts and parts[0] in sampling:
                return _GenProxy(tracer, tracer.call("rng.substream", fn, seed, *parts))
            return tracer.call("rng.substream.other", fn, seed, *parts)

        return substream

    def _default_rng(self, fn):
        tracer = self

        @functools.wraps(fn)
        def default_rng(*args, **kwargs):
            # inside rng.substream the construction is part of that span
            if tracer._innermost() in ("rng.substream", "rng.substream.other"):
                return fn(*args, **kwargs)
            return _GenProxy(tracer, tracer.call("rng.default_rng", fn, *args, **kwargs))

        return default_rng

    def _patch_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qmlp" or mod_name.startswith("qmlp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        import qmlp.checkpoint
        import qmlp.cli
        import qmlp.config
        import qmlp.data
        import qmlp.inference
        import qmlp.network
        import qmlp.quantum
        import qmlp.rng
        import qmlp.sweep
        import qmlp.training

        targets = [
            ("data.load_datasets", qmlp.sweep.load_datasets, None),
            ("config.load", qmlp.config.load_config, None),
            ("quantum.forward_batch", qmlp.quantum.quantum_forward_batch, None),
            ("quantum.phi_a", qmlp.quantum.phi_a, None),
            ("quantum.ry_update", qmlp.quantum.ry_update, _count_exact_angles),
            ("quantum.projective_update", qmlp.quantum.projective_update, None),
            ("quantum.weak_update", qmlp.quantum.weak_update, None),
            ("network.init_network_params", qmlp.network.init_network_params, None),
            ("network.classical_forward_batch", qmlp.network.classical_forward_batch, None),
            ("network.softmax_cross_entropy_batch", qmlp.network.softmax_cross_entropy_batch, None),
            ("network.ste_backward_batch", qmlp.network.ste_backward_batch, _count_gate_passes),
            ("training.train", qmlp.training.train, None),
            ("training.sgd_momentum_step", qmlp.training.sgd_momentum_step, None),
            ("training.training_error", qmlp.training.training_error, None),
            ("inference.evaluate", qmlp.inference.evaluate, None),
            ("inference.predict_batch_deterministic",
             qmlp.inference.predict_batch_deterministic, None),
            ("inference.prediction_matrix", qmlp.inference.prediction_matrix, None),
            ("inference.mode_over_shots", qmlp.inference.mode_over_shots, None),
            ("checkpoint.save_checkpoint", qmlp.checkpoint.save_checkpoint, _count_bytes_written),
            ("checkpoint.load_checkpoint", qmlp.checkpoint.load_checkpoint, None),
            ("sweep.run_training_job", qmlp.sweep.run_training_job, None),
        ]
        for name, fn, count in targets:
            self._patch_everywhere(fn, self._timed(name, fn, count))
        self._patch_everywhere(qmlp.rng.substream, self._substream(qmlp.rng))

        make = qmlp.data.BatchPlan.__dict__["make"]
        qmlp.data.BatchPlan.make = classmethod(self._timed("data.batchplan", make.__func__))
        self._undo.append((qmlp.data.BatchPlan, "make", make))

        # qmlp calls np.random.default_rng through the numpy module attribute
        default_rng = np.random.default_rng
        np.random.default_rng = self._default_rng(default_rng)
        self._undo.append((np.random, "default_rng", default_rng))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # --- results --------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: call count, total seconds, self seconds."""
        out = {}
        for name, start, end, _parent, child in self.spans:
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child
        return {
            "spans": {k: {"calls": c, "s": t, "self_s": s} for k, (c, t, s) in out.items()},
            "counters": dict(self.counters),
            "accounting_errors": self.accounting_errors(),
        }

    def accounting_errors(self, tol: float = 1e-9) -> int:
        """Spans whose children do not nest inside them and sum to their duration.

        Children must lie inside the parent's interval without overlapping
        each other, and the parent's recorded child time plus its self time
        must equal its duration. Also counts spans that never closed.
        """
        errors = len(self._stack)
        kids = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                kids[span[3]].append(i)
        for parent, children in kids.items():
            _, p_start, p_end, _, p_child = self.spans[parent]
            cursor, total = p_start, 0.0
            for i in children:  # spans are stored in start order
                _, start, end, _, _ = self.spans[i]
                if start < cursor - tol or end > p_end + tol or end < start:
                    errors += 1
                cursor = end
                total += end - start
            self_s = (p_end - p_start) - total
            if self_s < -tol or abs(p_child - total) > 1e-6 * max(1.0, total):
                errors += 1
        return errors

    def write_spans(self, path):
        """Write every span as `name<TAB>start<TAB>end<TAB>parent` lines."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")
        os.replace(tmp, path)


def _count_exact_angles(counters, args, kwargs):
    theta = np.asarray(args[2] if len(args) > 2 else kwargs["theta"])
    exact = (theta == 0.0) | (theta == np.pi) | (theta == -np.pi)
    counters["ry_update.exact_angles"] += int(np.count_nonzero(exact))
    counters["ry_update.angles"] += theta.size


def _count_gate_passes(counters, args, kwargs):
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    bp_scale = args[3] if len(args) > 3 else kwargs.get("bp_scale", 1.0)
    for Z in trace.Z:
        counters["ste_backward.gate_pass"] += int(np.count_nonzero(np.abs(Z) <= bp_scale))
        counters["ste_backward.gate_total"] += Z.size


def _count_bytes_written(counters, args, kwargs):
    path = args[0] if args else kwargs["path"]
    counters["checkpoint.bytes_written"] += os.path.getsize(path)
