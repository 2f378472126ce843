"""In-memory spans around calls into msdoa's layers, recorded from outside.

``Tracer.install`` wraps public functions under every name an msdoa
module looks them up by (``msdoa.harness.harmonic_matrix``,
``msdoa.waveform.harmonic_matrix``, ``msdoa.crb.harmonic_matrix`` ...),
the ``HarmonicMatrix`` properties that perform the SVD, and the process
pool class the harness creates. ``uninstall`` restores every original.
Nothing under ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent_index, trial_id]``; the
trial id is the index of the enclosing ``run_trial`` span. Spans made
inside forked pool workers stay in the worker and are lost, so layer
timings come from serial runs only; the pool counters are parent-side.
"""

from __future__ import annotations

import functools
import json
import pickle
import statistics
import sys
import time
from collections import Counter

# (module, attribute, span name). Several functions may share a span name.
FUNCTIONS = (
    ("msdoa.harness", "run_trial", "harness.run_trial"),
    ("msdoa.config", "apply_sweep_value", "config"),
    ("msdoa.config", "config_digest", "config"),
    ("msdoa.waveform", "synthesize_received", "waveform.synthesize"),
    ("msdoa.surface", "harmonic_matrix", "surface.harmonic_matrix"),
    ("msdoa.snapshot", "extract_snapshots", "snapshot.extract"),
    ("msdoa.estimator", "estimate_doa", "estimator"),
    ("msdoa.estimator", "smoothing_whitener", "estimator.whitener"),
    ("msdoa.estimator", "recover_channels", "estimator.recover_smooth"),
    ("msdoa.estimator", "smooth", "estimator.recover_smooth"),
    ("msdoa.estimator", "ps_covariance", "estimator.recover_smooth"),
    ("msdoa.estimator", "whiten", "estimator.whiten"),
    ("msdoa.estimator", "music_search", "estimator.search"),
    ("msdoa.crb", "crb", "crb"),
    ("msdoa.metrics", "resolve_and_score", "metrics.score"),
    ("msdoa.metrics", "aggregate", "metrics.score"),
)
SVD_PROPERTIES = ("pseudo_inverse", "gram_inverse")

# Every module must record at least one span in a traced serial run;
# zero means a wrapper no longer sits on the path the program takes.
# ``config`` runs inside ``run_sweep`` only.
REQUIRED_LAYERS = ("surface", "waveform", "snapshot", "estimator", "crb", "metrics", "harness")

PER_LAYER_UNITS = {
    "surface.harmonic_matrix.calls_per_trial": "count",
    "surface.harmonic_matrix.ms_per_trial": "ms",
    "surface.svd.calls_per_trial": "count",
    "surface.svd.ms_per_trial": "ms",
    "waveform.synthesize.ms_per_trial": "ms",
    "waveform.samples_per_s": "1/s",
    "snapshot.extract.ms_per_trial": "ms",
    "estimator.whitener.ms_per_trial": "ms",
    "estimator.recover_smooth.ms_per_trial": "ms",
    "estimator.whiten.ms_per_trial": "ms",
    "estimator.self.ms_per_trial": "ms",
    "estimator.search.ms_per_trial": "ms",
    "estimator.search.grid_points_per_s": "1/s",
    "crb.calls_per_trial": "count",
    "crb.ms_per_trial": "ms",
    "metrics.score.ms_per_trial": "ms",
    "config.ms_per_trial": "ms",
    "harness.run_trial.ms_p50": "ms",
    "harness.run_trial.ms_p95": "ms",
    "harness.self.ms_per_trial": "ms",
    "harness.pools_per_sweep": "count",
    "harness.tasks_per_sweep": "count",
    "harness.task_bytes": "B",
    "trace.coverage": "frac",
    "trace.overhead_frac": "frac",
}


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._trial = None
        self._trials = 0
        self._restore = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, on_result=None):
        root = name == "harness.run_trial"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            prev_trial = self._trial
            if root:
                self._trial = self._trials
                self._trials += 1
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, self._trial]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
                self._trial = prev_trial
            if on_result is not None:
                on_result(out)
            return out

        return wrapper

    def _count_samples(self, out):
        series = out[0] if isinstance(out, tuple) else out
        self.counts["samples"] += series.samples.size

    def _count_grid(self, out):
        self.counts["grid_points"] += out.spectrum.size

    def _pool_class(self, base):
        tracer = self

        class CountingPool(base):
            """Process pool that counts pools, tasks and pickled task bytes."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.counts["pools"] += 1

            def map(self, fn, *iterables, **kwargs):
                tasks = list(zip(*iterables))
                tracer.counts["tasks"] += len(tasks)
                tracer.counts["task_bytes"] += sum(len(pickle.dumps(t)) for t in tasks)
                return super().map(fn, *zip(*tasks), **kwargs)

        return CountingPool

    # -- patching --------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "msdoa" and not mod_name.startswith("msdoa."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self):
        hooks = {
            "waveform.synthesize": self._count_samples,
            "estimator.search": self._count_grid,
        }
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self._wrap(name, original, hooks.get(name)))
        from msdoa.surface import HarmonicMatrix

        for attr in SVD_PROPERTIES:
            prop = vars(HarmonicMatrix)[attr]
            setattr(HarmonicMatrix, attr, property(self._wrap("surface.svd", prop.fget)))
            self._restore.append((HarmonicMatrix, attr, prop))
        harness = sys.modules["msdoa.harness"]
        pool = harness.ProcessPoolExecutor
        harness.ProcessPoolExecutor = self._pool_class(pool)
        self._restore.append((harness, "ProcessPoolExecutor", pool))

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def write(self, path, header: dict):
        """Write the header and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "trial": trial}) + "\n")


def missing_layers(spans, sweep: bool) -> list[str]:
    seen = {name.split(".")[0] for name, *_ in spans}
    required = REQUIRED_LAYERS + (("config",) if sweep else ())
    return [layer for layer in required if layer not in seen]


def layer_metrics(spans, counts: Counter) -> dict:
    """Per-layer figures from serial spans; pool counts are added by the caller."""
    total = Counter()
    calls = Counter()
    child_time = Counter()  # time covered by direct children, per parent span name
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[spans[parent][0]] += end - start
    trials = calls["harness.run_trial"]

    def per_trial(ns):
        return ns / 1e6 / trials

    trial_ms = sorted((e - s) / 1e6 for n, s, e, _, _ in spans if n == "harness.run_trial")
    pct = statistics.quantiles(trial_ms, n=20, method="inclusive") if len(trial_ms) > 1 else trial_ms * 19
    run_trial_ns = total["harness.run_trial"]
    return {
        "surface.harmonic_matrix.calls_per_trial": calls["surface.harmonic_matrix"] / trials,
        "surface.harmonic_matrix.ms_per_trial": per_trial(total["surface.harmonic_matrix"]),
        "surface.svd.calls_per_trial": calls["surface.svd"] / trials,
        "surface.svd.ms_per_trial": per_trial(total["surface.svd"]),
        "waveform.synthesize.ms_per_trial": per_trial(total["waveform.synthesize"]),
        "waveform.samples_per_s": counts["samples"] / (total["waveform.synthesize"] / 1e9),
        "snapshot.extract.ms_per_trial": per_trial(total["snapshot.extract"]),
        "estimator.whitener.ms_per_trial": per_trial(total["estimator.whitener"]),
        "estimator.recover_smooth.ms_per_trial": per_trial(total["estimator.recover_smooth"]),
        "estimator.whiten.ms_per_trial": per_trial(total["estimator.whiten"]),
        "estimator.self.ms_per_trial": per_trial(total["estimator"] - child_time["estimator"]),
        "estimator.search.ms_per_trial": per_trial(total["estimator.search"]),
        "estimator.search.grid_points_per_s": counts["grid_points"] / (total["estimator.search"] / 1e9),
        "crb.calls_per_trial": calls["crb"] / trials,
        "crb.ms_per_trial": per_trial(total["crb"]),
        "metrics.score.ms_per_trial": per_trial(total["metrics.score"]),
        "config.ms_per_trial": per_trial(total["config"]),
        "harness.run_trial.ms_p50": statistics.median(trial_ms),
        "harness.run_trial.ms_p95": pct[18],
        "harness.self.ms_per_trial": per_trial(run_trial_ns - child_time["harness.run_trial"]),
        "trace.coverage": child_time["harness.run_trial"] / run_trial_ns,
    }


def pool_metrics(counts: Counter, units: int) -> dict:
    tasks = counts["tasks"]
    return {
        "harness.pools_per_sweep": counts["pools"] / units,
        "harness.tasks_per_sweep": tasks / units,
        "harness.task_bytes": counts["task_bytes"] / tasks if tasks else 0.0,
    }
