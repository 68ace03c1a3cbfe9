"""Outside-in layer tracer for smcfilter.

The tracer replaces, at run time, the names that smcfilter's modules call
through (``smcfilter.filter.propagate``, ``smcfilter.sim.run_scenario``,
``RngStream.standard_normal`` and so on) with wrappers that record one span
per call: layer, parent span, start and end. Nothing under ``src/`` changes.
Spans stay in memory while the workload runs; self times are derived and the
spans written out only afterwards.

A hooked name that does not exist (say, after a refactor renamed it) is
skipped, and its layer reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter_ns

import numpy as np

# (layer, module, attribute path) for every name the program calls through.
# A free function is hooked in each module that imported it, because that
# module's global is the name its callers look up.
HOOKS = (
    ("core.rng", "smcfilter.core", "RngStream.standard_normal"),
    ("core.rng", "smcfilter.core", "RngStream.uniform"),
    ("core.normalize", "smcfilter.filter", "normalize_weights"),
    ("core.normalize", "smcfilter.filter", "normalized_log_weights"),
    # The method, not the class: replacing the class name would break the
    # ``cls(...)`` call inside ``ParticleSet.uniform``.
    ("core.particle_set", "smcfilter.core", "ParticleSet.__post_init__"),
    ("core.estimate", "smcfilter.filter", "weighted_mean"),
    ("core.estimate", "smcfilter.filter", "map_estimate"),
    ("core.estimate", "smcfilter.sim", "weighted_mean"),
    ("models.propagate", "smcfilter.filter", "propagate"),
    ("models.log_likelihood", "smcfilter.filter", "log_likelihood"),
    ("resampling.ess", "smcfilter.filter", "effective_sample_size"),
    ("resampling.ess", "smcfilter.filter", "should_resample"),
    ("resampling.ess", "smcfilter.sim", "effective_sample_size"),
    ("resampling.resample", "smcfilter.filter", "systematic_resample"),
    ("resampling.resample", "smcfilter.filter", "multinomial_resample"),
    ("filter.step", "smcfilter.filter", "step"),
    ("sim.run_scenario", "smcfilter.sim", "run_scenario"),
    ("sim.run_scenario", "smcfilter.cli", "run_scenario"),
    ("sim.truth", "smcfilter.sim", "propagate"),
    ("sim.truth", "smcfilter.sim", "predict_measurement"),
    ("sim.truth", "smcfilter.sim", "sample_process_noise"),
    ("sim.truth", "smcfilter.sim", "sample_measurement_noise"),
    ("cli.config", "smcfilter.cli", "load_config"),
    ("cli.config", "smcfilter.cli", "parse_config"),
    ("cli.config", "smcfilter.cli", "build_scenario"),
    ("cli.write", "smcfilter.cli", "write_trace_csv"),
    ("cli.write", "smcfilter.cli", "write_particles_csv"),
)

ROOT = "bench.run"
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in HOOKS)) + (ROOT,)


def _count_draws(counters, args, kwargs, result):
    counters["core.rng.draws"] += int(np.size(result))


def _count_ancestors(counters, args, kwargs, result):
    n = len(result)
    counters["resampling.unique_ancestors"] += np.count_nonzero(np.bincount(result, minlength=n)) / n


def _count_degenerate(counters, args, kwargs, result):
    counters["filter.degenerate_steps"] += bool(result.degenerate)


def _count_bytes(counters, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counters["cli.write.bytes"] += os.path.getsize(path)


# Counters taken where the work happens; their cost is kept out of every
# span's self time (see Tracer._wrap).
COUNTER_HOOKS = {
    "core.rng": _count_draws,
    "resampling.resample": _count_ancestors,
    "filter.step": _count_degenerate,
    "cli.write": _count_bytes,
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) or None if any part is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Span recorder over the hooks above; ``install`` and ``uninstall`` it
    around the traced work."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.layer_ids = {layer: i for i, layer in enumerate(LAYERS)}
        # (layer id, parent span index, start ns, end ns, cover end ns); the
        # cover end also spans the counter hook, so the parent's self time
        # excludes it.
        self.spans: list = []
        self.counters = {
            "core.rng.draws": 0,
            "resampling.unique_ancestors": 0.0,
            "filter.degenerate_steps": 0,
            "cli.write.bytes": 0,
        }
        self._current = -1
        self._installed: list = []

    def install(self) -> None:
        for layer, module_name, path in self.hooks:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, original = found
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def run(self, fn, *args, **kwargs):
        """Call fn inside a root span."""
        return self._wrap(fn, ROOT)(*args, **kwargs)

    def _wrap(self, fn, layer: str):
        layer_id = self.layer_ids[layer]
        hook = COUNTER_HOOKS.get(layer)
        spans = self.spans
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._current
            index = len(spans)
            spans.append(None)
            self._current = index
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._current = parent
                spans[index] = (layer_id, parent, start, end, end)
            if hook is not None:
                hook(counters, args, kwargs, result)
                spans[index] = (layer_id, parent, start, end, perf_counter_ns())
            return result

        return traced

    def layer_table(self) -> dict:
        """{layer: {"calls": int, "self_ms": float}} from the recorded spans.

        A span's self time is its duration minus the intervals its direct
        children cover.
        """
        calls = np.zeros(len(LAYERS), dtype=np.int64)
        self_ns = np.zeros(len(LAYERS))
        if self.spans:
            layer, parent, start, end, cover_end = np.array(self.spans, dtype=np.int64).T
            has_parent = parent >= 0
            covered = np.bincount(
                parent[has_parent],
                weights=(cover_end - start)[has_parent],
                minlength=len(layer),
            )
            self_ns = np.bincount(layer, weights=(end - start) - covered, minlength=len(LAYERS))
            calls = np.bincount(layer, minlength=len(LAYERS))
        return {
            name: {"calls": int(calls[i]), "self_ms": float(self_ns[i]) / 1e6}
            for i, name in enumerate(LAYERS)
        }

    def write_spans(self, path) -> None:
        """One CSV row per span; times in ns from the first span's start."""
        t0 = self.spans[0][2] if self.spans else 0
        rows = ["span,parent,layer,start_ns,end_ns"]
        rows += [
            f"{i},{parent},{LAYERS[layer]},{start - t0},{end - t0}"
            for i, (layer, parent, start, end, _) in enumerate(self.spans)
        ]
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(rows) + "\n")
