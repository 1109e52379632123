"""Spans and counts around oulab's layers, for the traced benchmark run.

The tracer replaces each listed function at every module attribute bound
to it: ``from .model import propagators`` copies the name into the
importing module, so wrapping the defining module alone would miss the
calls made through the copies.  Spans (name, start, end, parent) stay in
memory until the run writes them out.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module

import numpy as np


def _turns(values: np.ndarray) -> int:
    """Strict direction changes along each row, summed over rows."""
    s = np.sign(np.diff(np.atleast_2d(values), axis=1))
    return int(np.count_nonzero(s[:, 1:] * s[:, :-1] < 0))


def _count_propagators(tr, args, kwargs, out):
    tr.counts["model.propagators.calls"] += 1
    tr.counts["model.propagators.times"] += len(out)


def _count_log_kernel_grid(tr, args, kwargs, out):
    tr.counts["kernel.log_kernel_grid.evals"] += out.size


def _count_local_weight(tr, args, kwargs, out):
    out = np.asarray(out)
    tr.counts["geometry.local_weight.pairs"] += out.size
    tr.counts["geometry.local_weight.band"] += np.count_nonzero(
        (out > 0.0) & (out < 1.0))
    if tr.parent_name() == "semigroup.local_global_grid":
        tr.counts["semigroup.local_global_grid.nodes"] += out.size


def _count_smooth_step(tr, args, kwargs, out):
    tr.counts["geometry.smooth_step.elems"] += np.size(args[0])


def _count_dp(tr, values):
    v = np.atleast_2d(values)
    p, m = v.shape
    tr.counts["variation.dp_cells"] += p * m * (m - 1) // 2
    tr.counts["variation.kept"] += _turns(v) + 2 * p
    tr.counts["variation.points"] += p * m
    return p * m


def _count_variation_batch(tr, args, kwargs, out):
    cells = _count_dp(tr, args[0])
    if tr.parent_name() == "semigroup.variation_batch_paths":
        tr.counts["semigroup.path_values"] += cells
        tr.counts["semigroup.path_batches"] += 1


def _count_variation_values(tr, args, kwargs, out):
    _count_dp(tr, args[0])


def _count_batch_paths(tr, args, kwargs, out):
    tr.counts["semigroup.variation_batch_paths.calls"] += 1


def _count_chain_values(tr, args, kwargs, out):
    tr.counts["torus.chain_values.evals"] += out.size


def _count_write_report(tr, args, kwargs, out):
    tr.counts["report.bytes"] += os.path.getsize(args[1])


# (module, function, counter); the spans of every one of them are written
# out, and the per-layer metrics are taken from them
LAYERS = (
    ("oulab.model", "propagators", _count_propagators),
    ("oulab.kernel", "log_kernel_grid", _count_log_kernel_grid),
    ("oulab.kernel", "logk_time_slope_grid", None),
    ("oulab.kernel", "calibrate_bound", None),
    ("oulab.kernel", "count_kdot_zeros_batch", None),
    ("oulab.geometry", "local_weight", _count_local_weight),
    ("oulab.geometry", "smooth_step", _count_smooth_step),
    ("oulab.semigroup", "weak_type_probe", None),
    ("oulab.semigroup", "variation_batch_paths", _count_batch_paths),
    ("oulab.semigroup", "bump_semigroup_grid", None),
    ("oulab.semigroup", "local_global_grid", None),
    ("oulab.variation", "variation_batch", _count_variation_batch),
    ("oulab.variation", "variation_values", _count_variation_values),
    ("oulab.torus", "weak_type_failure", None),
    ("oulab.torus", "variation_growth_experiment", None),
    ("oulab.torus", "chain_values", _count_chain_values),
    ("oulab.rng", "dyadic_points", None),
    ("oulab.report", "write_report", _count_write_report),
)


class Tracer:
    def __init__(self):
        self.spans = []                 # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def install(self) -> None:
        for module, func, counter in LAYERS:
            orig = getattr(import_module(module), func)
            label = f"{module.removeprefix('oulab.')}.{func}"
            wrapper = self._wrapper(label, orig, counter)
            for mod in list(sys.modules.values()):
                if not getattr(mod, "__name__", "").startswith("oulab"):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrapper(self, label, fn, counter):
        def traced(*args, **kwargs):
            sid = self._open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counter is not None:
                counter(self, args, kwargs, out)
            return out
        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict:
        """Total self time per span name: its duration minus the time its
        direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def below_entry_time(self) -> float:
        """Time in spans two levels below an operation span, that is under
        the first oulab function the operation reaches (the probe)."""
        depth = []
        for _, _, _, parent in self.spans:
            depth.append(0 if parent is None else depth[parent] + 1)
        return sum(end - start for d, (_, start, end, _) in
                   zip(depth, self.spans) if d == 2)
