"""The benchmark's tracer finds every function and property it wraps.

``bench/tracing.py`` looks msdoa's layers up by name; a rename that it
does not follow would only break the traced benchmark run. The module
is loaded from its file; only the last test installs its wrappers, and
it removes them again.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from msdoa import builtin_config_path, load_config, run_sweep
from msdoa.surface import HarmonicMatrix

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = _tracing()
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tracing.FUNCTIONS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"bench/tracing.py wraps names msdoa no longer has: {missing}"
    for attr in tracing.SVD_PROPERTIES:
        assert isinstance(vars(HarmonicMatrix).get(attr), property), attr


def test_tracer_reads_the_batched_sweep():
    # The tracer divides per-layer times by the number of run_trial
    # calls and counts searched grid points from each search result's
    # spectrum, so the batched search must keep both meanings.
    tracing = _tracing()
    trials, points, grid = 5, 2, 37 * 19
    cfg = load_config(builtin_config_path("table1_2d"), [
        "theta_grid_deg=-90, 90, 5", "phi_grid_deg=0, 90, 5",
        f"trials={trials}", "sweep=snr_db: 0, 10",
    ])
    plain = run_sweep(cfg)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_sweep(cfg)
    finally:
        tracer.uninstall()
    assert [(r.pr, r.rmse_deg, r.sqrt_crb_deg) for r in traced.rows] == [
        (r.pr, r.rmse_deg, r.sqrt_crb_deg) for r in plain.rows]
    calls = Counter(name for name, *_ in tracer.spans)
    missing = {name for _, _, name in tracing.FUNCTIONS} - set(calls)
    assert not missing, f"traced names off the sweep path: {missing}"
    assert calls["harness.run_trial"] == trials * points
    # Each point's trials fit one batch: one search serves all of them.
    assert calls["estimator.search"] == points
    assert tracer.counts["grid_points"] == trials * points * grid
    # The sample counter reads each synthesized series' samples.
    assert tracer.counts["samples"] == trials * points * cfg.plan.total_points
    # Layer times sum every span of a name, so no estimator stage may
    # run inside another: each one's parent is the estimator span.
    nested = {
        (name, tracer.spans[parent][0])
        for name, _, _, parent, _ in tracer.spans
        if name.startswith("estimator.") and tracer.spans[parent][0] != "estimator"
    }
    assert not nested, f"estimator stages traced inside another stage: {nested}"
