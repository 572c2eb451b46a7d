"""Per-layer tracing from outside the program.

Wraps the public functions listed in LAYERS at every l1kpca module that
binds them (``gram`` is bound in ``kernel``, ``cli``, ``io`` and
``experiments``), so calls are caught however they are reached. Each
call is a span; a span's self time is its duration minus the time its
child spans cover, and a root span per CLI op (``cli.<op>``) collects
the rest of the op's wall time as the residual. Work counts are computed
from the call's arguments and result, never from program internals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict


def _labelled_cells(args, out):
    return out.values.size + (0 if out.labels is None else out.labels.size)


def _fit_columns(args, out):
    options = args["options"]
    if options is None:
        options = importlib.import_module("l1kpca.l1").FitOptions()
    return out.n_components * options.starts


# layer -> {count name: fn(bound arguments, result)}; None for no counts.
LAYERS = {
    "io.read_csv": {"cells": _labelled_cells},
    "kernel.standardize": None,
    "kernel.gram": {"pairs": lambda a, out: out.n * out.n},
    "kernel.cross_gram": {"pairs": lambda a, out: out.size},
    "l1.fit": {"iterations": lambda a, out: sum(c.report.iterations for c in out.components),
               "columns": _fit_columns},
    "l1.deflate": None,
    "l1.chain_scores": None,
    "l2.l2_fit": None,
    "l2.l2_scores": None,
    "io.write_model": {"bytes": lambda a, out: os.path.getsize(a["path"])},
    "io.read_model": {"bytes": lambda a, out: os.path.getsize(a["path"])},
    "detect.build_detector": None,
    "detect.pr_auc": None,
    "experiments.synth_generate": None,
    "experiments.total_explained_variation": None,
    "oracle.enumerate_sign_vectors": {
        "vectors": lambda a, out: 2 ** (a["gram_matrix"].entries.shape[0] - 1)},
}

# Layers whose tracemalloc peak is reported. tracemalloc runs only inside their
# spans, since tracing every allocation slows Python-level loops several-fold.
MEM_LAYERS = {"io.read_csv", "kernel.standardize", "kernel.gram", "kernel.cross_gram",
              "l1.deflate", "l2.l2_fit", "io.write_model", "io.read_model"}


class _Frame:
    __slots__ = ("name", "t0", "child", "base", "peak")

    def __init__(self, name, t0):
        self.name, self.t0, self.child, self.base, self.peak = name, t0, 0.0, None, 0


class Tracer:
    """Span stack plus per-(op, layer) totals: self seconds, calls, counts, peak bytes.

    With memory=True, tracemalloc runs inside each MEM_LAYERS span and the
    span's peak above its starting allocation is kept; take self times from a
    pass with memory=False, which tracemalloc does not slow.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.stack: list[_Frame] = []
        self.totals = defaultdict(lambda: defaultdict(float))
        self.op = None
        self._restore: list[tuple[object, str, object]] = []

    def _mem_parent(self):
        return next((f for f in reversed(self.stack) if f.base is not None), None)

    def _enter(self, name):
        frame = _Frame(name, 0.0)
        if self.memory and name in MEM_LAYERS:
            parent = self._mem_parent()
            if parent is None:
                tracemalloc.start()
            cur, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            frame.base = frame.peak = cur
        self.stack.append(frame)
        frame.t0 = time.perf_counter()

    def _exit(self):
        t1 = time.perf_counter()
        frame = self.stack.pop()
        duration = t1 - frame.t0
        row = self.totals[(self.op, frame.name)]
        row["self_s"] += duration - frame.child
        row["calls"] += 1
        if self.stack:
            self.stack[-1].child += duration
        if frame.base is not None:
            _, peak = tracemalloc.get_traced_memory()
            peak = max(frame.peak, peak)
            row["peak_bytes"] = max(row["peak_bytes"], peak - frame.base)
            parent = self._mem_parent()
            if parent is None:
                tracemalloc.stop()
            else:
                parent.peak = max(parent.peak, peak)
                tracemalloc.reset_peak()
        return duration

    def op_span(self, op, fn, *args):
        """Run fn(*args) as the root span ``cli.<op>``; return (result, wall seconds)."""
        self.op = op
        self._enter(f"cli.{op}")
        try:
            result = fn(*args)
        finally:
            wall = self._exit()
        return result, wall

    def _wrap(self, layer, fn, counts):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if counts:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                row = self.totals[(self.op, layer)]
                for key, count in counts.items():
                    row[key] += count(bound.arguments, out)
            return out

        return wrapper

    def install(self):
        """Replace every binding of each layer function in the loaded l1kpca modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "l1kpca" or name.startswith("l1kpca."))]
        for layer, counts in LAYERS.items():
            mod_name, func_name = layer.split(".")
            original = getattr(importlib.import_module(f"l1kpca.{mod_name}"), func_name)
            wrapper = self._wrap(layer, original, counts)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, value))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
