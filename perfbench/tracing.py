"""Spans around the public functions of every sfnse module, and the per-layer
metrics computed from them.

The tracer is installed from the benchmark's own files and changes no file of
the program: each public function of the modules in LAYERS is replaced, in
every sfnse module namespace and module-level dict that binds it, by a wrapper
that records one span (name, start, end, parent span).  ``ComplexField``
construction and observer callbacks get spans the same way.  Spans are kept
in flat arrays in memory and written out once, after the run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "config", "spectral", "noise", "dynamics", "diagnostics", "experiments", "output")

# every MIDPOINT_SAMPLE_STRIDE-th midpoint step (by call index) is kept and
# re-run afterwards to count its fixed-point evaluations exactly
MIDPOINT_SAMPLE_STRIDE = 20


class Tracer:
    """Span recorder; ``install`` wraps the program, ``uninstall`` restores it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, object, object]] = []
        self.entries = 0  # Wiener increments drawn by sample_wiener_path
        self.nonconv = 0  # NonConvergence raised by midpoint_step
        self.midpoint_samples: list[tuple] = []  # positional arguments of sampled calls
        self._midpoint_calls = 0

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._name_id(name)
        kind, parent, start, end, stack = self.kind, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            kind.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def _count_entries(self, fn):
        def counted(*args, **kwargs):
            path = fn(*args, **kwargs)
            self.entries += path.increments.size
            return path

        return counted

    def _sample_midpoint(self, fn, nonconvergence):
        def sampled(*args, **kwargs):
            if self._midpoint_calls % MIDPOINT_SAMPLE_STRIDE == 0:
                self.midpoint_samples.append(args)
            self._midpoint_calls += 1
            try:
                return fn(*args, **kwargs)
            except nonconvergence:
                self.nonconv += 1
                raise

        return sampled

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"sfnse.{layer}") for layer in LAYERS}
        errors = importlib.import_module("sfnse.errors")
        hooks = {
            "noise.sample_wiener_path": self._count_entries,
            "dynamics.midpoint_step": lambda fn: self._sample_midpoint(fn, errors.NonConvergence),
        }
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                hook = hooks.get(name)
                wrapped[obj] = self.span(name, hook(obj) if hook else obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "sfnse" and not module_name.startswith("sfnse."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(namespace, key, wrapped[value])
                elif isinstance(value, dict):  # dispatch tables such as dynamics._STEPPERS
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and v in wrapped:
                            self._set(value, k, wrapped[v])

        field_cls = modules["spectral"].ComplexField
        self._set(field_cls, "__init__", self.span("spectral.ComplexField", field_cls.__init__))
        observer_cls = modules["dynamics"].Observer
        observer_init = observer_cls.__init__

        def traced_observer_init(obs, *args, **kwargs):
            observer_init(obs, *args, **kwargs)
            object.__setattr__(obs, "fn", self.span("dynamics.observer", obs.fn))

        self._set(observer_cls, "__init__", traced_observer_init)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Views of the spans; call after ``uninstall``, when no span can be added."""
        return {
            "kind": np.frombuffer(self.kind, dtype=np.uint16),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "names": np.array(self.names),
        }


def count_fp_evals(samples) -> list[int]:
    """Fixed-point evaluations of each sampled midpoint step, counted exactly.

    Each step is re-run with fp_max_iter = 1, 2, ... through the public API;
    the first cap that certifies the tolerance is the evaluation count.  A
    step that does not certify within its original cap is left out.
    """
    from sfnse.dynamics import midpoint_step
    from sfnse.errors import NonConvergence

    counts = []
    for state, dW, model, scheme, grid in samples:
        for cap in range(1, scheme.fp_max_iter + 1):
            try:
                midpoint_step(state, dW, model, dataclasses.replace(scheme, fp_max_iter=cap), grid)
            except NonConvergence:
                continue
            counts.append(cap)
            break
    return counts


def fft_pair_us(a: float, b: float, N: int, batch: int = 200, repeats: int = 7) -> float:
    """Median microseconds of one forward plus inverse ``transform`` at N."""
    from sfnse.spectral import build_grid, transform

    grid = build_grid(a, b, N)
    v = np.exp(1j * grid.nodes())
    per_pair = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(batch):
            transform(transform(v, grid, "forward"), grid, "inverse")
        per_pair.append((time.perf_counter() - t0) / batch)
    return float(np.median(per_pair)) * 1e6


def layer_metrics(spans: dict[str, np.ndarray], entries: int, nonconv: int, fp_evals: list[int]) -> dict[str, float]:
    """Per-layer metrics from the span arrays (see perfbench/metrics.json)."""
    names = list(spans["names"])
    kind, parent, start, end = spans["kind"], spans["parent"], spans["start"], spans["end"]
    dur = end - start
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    layer_ids = np.array([LAYERS.index(n.split(".")[0]) for n in names] + [-1], dtype=np.int8)
    layer_of = layer_ids[kind]

    def in_layer(layer: str) -> np.ndarray:
        return layer_of == LAYERS.index(layer)

    def sel(name: str) -> np.ndarray:
        if name not in names:  # renamed or removed from the program: no metric may silently read 0
            raise LookupError(f"no traced function {name}")
        return kind == names.index(name)

    def mean(values: np.ndarray, scale: float) -> float:
        return float(values.mean()) * scale if values.size else 0.0

    split, mid = sel("dynamics.splitting_step"), sel("dynamics.midpoint_step")
    evolve = sel("dynamics.evolve")
    sample = sel("noise.sample_wiener_path")
    is_diag = in_layer("diagnostics")
    outer_diag = is_diag & ~(nested & is_diag[np.maximum(parent, 0)])
    writes = sel("output.write_csv") | sel("output.write_snapshot")

    fp_mean = float(np.mean(fp_evals)) if fp_evals else 0.0
    mid_us = mean(self_time[mid], 1e6)
    path_s = _path_seconds(sel("spectral.build_grid"), in_layer("output"), start, end)
    evolve_total = float(dur[evolve].sum())
    return {
        "config.parse_ms": float(dur[sel("config.parse_config")].sum()) * 1e3,
        "noise.model_ms": mean(dur[sel("noise.build_noise_model")], 1e3),
        "noise.sample_calls": int(sample.sum()),
        "noise.sample_ms": mean(dur[sample], 1e3),
        "noise.entries_per_s": entries / float(dur[sample].sum()) if sample.any() else 0.0,
        "noise.coarsen_ms": mean(dur[sel("noise.coarsen_path")], 1e3),
        "noise.field_calls": int(sel("noise.increment_field").sum()),
        "noise.field_us": mean(dur[sel("noise.increment_field")], 1e6),
        "spectral.field_calls": int(sel("spectral.ComplexField").sum()),
        "spectral.field_us": mean(dur[sel("spectral.ComplexField")], 1e6),
        "dynamics.split_calls": int(split.sum()),
        "dynamics.split_us": mean(self_time[split], 1e6),
        "dynamics.mid_calls": int(mid.sum()),
        "dynamics.mid_us": mid_us,
        "dynamics.fp_evals_mean": fp_mean,
        "dynamics.fp_evals_max": int(max(fp_evals, default=0)),
        "dynamics.fp_eval_us": mid_us / fp_mean if fp_mean else 0.0,
        "dynamics.evolve_self_frac": float(self_time[evolve].sum()) / evolve_total if evolve_total else 0.0,
        "dynamics.nonconv": int(nonconv),
        "diagnostics.calls": int(outer_diag.sum()),
        "diagnostics.us": mean(dur[outer_diag], 1e6),
        "experiments.path_s.p50": float(np.percentile(path_s, 50)) if path_s.size else 0.0,
        "experiments.path_s.p90": float(np.percentile(path_s, 90)) if path_s.size else 0.0,
        "experiments.self_s": float(self_time[in_layer("experiments")].sum()),
        "output.write_ms": float(dur[writes].sum()) * 1e3,
    }


def _path_seconds(grid_builds: np.ndarray, is_output: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each Monte Carlo path.

    Every path's work starts by building its grid, so path i runs from the
    i-th ``build_grid`` span to the end of the last span that starts before
    the next path's grid build and before the first output write after it.
    Spans that start before the first path, such as the study function's
    own, belong to no path.
    """
    first = np.sort(start[grid_builds])
    if not first.size:
        return first
    writes = np.append(np.sort(start[is_output]), np.inf)
    limit = writes[np.searchsorted(writes, first, side="right")]
    group = np.searchsorted(first, start, side="right") - 1
    keep = (group >= 0) & ~is_output
    keep[keep] &= start[keep] < limit[group[keep]]
    last = first.copy()
    np.maximum.at(last, group[keep], end[keep])
    return last - first
