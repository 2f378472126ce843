"""Benchmark workloads: what each one runs and how its output is checked.

A workload runs *units* in a closed loop. A unit is one call into a
public msdoa entry point: ``run_sweep`` for the sweep workloads,
``run_trials`` on one config point for ``search_2d``. Every unit is a
shipped config at its shipped size (100 trials per point) with an
experiment seed taken from a fixed pool, ``POOL_BASE + k``.
``POOL_BASE`` is the seed the shipped configs use, so pool member 0 is
exactly the run a user gets from the shipped config.

``reference.json`` holds, for every input and every pool member, the
SHA-256 of the unit's canonical output (the sweep CSV exactly as
``write_sweep_csv`` writes it, or one line per trial outcome). It was
recorded with ``record_reference.py``. A unit whose output digest
differs from its reference is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from msdoa import (
    aggregate,
    builtin_config_path,
    load_config,
    resolve_experiment,
    run_sweep,
    run_trials,
    write_sweep_csv,
)

POOL_BASE = 20260814
POOL_SIZE = 16
# The first QUALITY_UNITS pool members open every run, whatever the
# seed, and the quality metrics (pr_mean, rmse_over_crb) come from them
# alone. Pool member 0 is the shipped config itself, so those metrics
# are the shipped figures, a fixed property of the program rather than
# of the seed.
QUALITY_UNITS = 1
# The shipped configs' trial count per point. Units run at this size so
# that per-point and per-pool costs weigh what they weigh for users.
SHIPPED_TRIALS = 100

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# Scratch files and trace output, inside the checkout.
OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


@dataclass(frozen=True)
class Input:
    """A shipped config, the overrides that shape it, and the unit size."""

    config: str
    overrides: tuple[str, ...]
    trials: int
    sweep: bool

    def describe(self) -> dict:
        return {"config": self.config, "overrides": list(self.overrides), "trials": self.trials}

    def load(self, seed: int):
        return load_config(
            builtin_config_path(self.config),
            [*self.overrides, f"trials={self.trials}", f"seed={seed}"],
        )


INPUTS = {
    # 8 x 5 surface, P=20, 1-D search on a 0.1 degree grid, full mode,
    # SNR -20..20 dB over 9 points.
    "table2_snr": Input("table2", (), SHIPPED_TRIALS, True),
    # 5 x 6 surface, 4-column windows, 361 x 181 grid, one point.
    "table1_2d": Input("table1_2d", (), SHIPPED_TRIALS, False),
    # 5 x 6 surface, ideal synthesis, one harmonic matrix per P value.
    "table1_ideal_p": Input(
        "table1", ("mode=ideal", "sweep=P: 15, 20, 30, 40"), SHIPPED_TRIALS, True,
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    input: str
    workers: int
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "snr_sweep_serial", "table2_snr", 1,
            "paper's headline SNR sweep, serial; half of each trial is work that repeats per point",
        ),
        Workload(
            "snr_sweep_workers2", "table2_snr", 2,
            "same sweep through the 2-process pool; pool and BLAS oversubscription costs show here",
        ),
        Workload(
            "search_2d", "table1_2d", 1,
            "2-D azimuth/elevation search dominates; harmonic and bound caching should not move it",
        ),
        Workload(
            "p_sweep_ideal", "table1_ideal_p", 1,
            "ideal synthesis and a new harmonic matrix at every point; the cache-miss side",
        ),
    )
}


def pool_seed(index: int) -> int:
    return POOL_BASE + index


def unit_order(seed: int, count: int) -> list[int]:
    """Pool indices for one run: the quality units, then a seeded shuffle.

    The shuffle cycles when a run needs more units than the pool holds.
    """
    rest = np.random.default_rng(seed).permutation(np.arange(QUALITY_UNITS, POOL_SIZE))
    order = list(range(QUALITY_UNITS))
    while len(order) < count:
        order.extend(int(i) for i in rest)
    return order[:count]


def trial_lines(results) -> str:
    """Canonical text of ``run_trials`` output, one line per trial."""
    lines = []
    for t, (outcome, bound) in enumerate(results):
        est = ";".join(f"{e.theta_deg:.10g}/{e.phi_deg:.10g}" for e in outcome.estimates)
        errs = ";".join(f"{e:.10g}" for e in outcome.errors_deg)
        crbs = ";".join(f"{b:.10g}" for b in bound)
        lines.append(f"{t},{int(outcome.resolved)},{est},{errs},{crbs}\n")
    return "".join(lines)


@dataclass
class UnitResult:
    """Canonical output of one unit plus its per-row quality figures."""

    text: str
    trials: int
    # (pr, rmse_deg / mean sqrt-CRB) per sweep row, or one row per point.
    rows: list

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def execute(inp: Input, cfg, workers: int):
    """Timed part of a unit: the call into the msdoa entry point."""
    if inp.sweep:
        return run_sweep(cfg, workers)
    return run_trials(resolve_experiment(cfg), 0, workers)


def summarize(inp: Input, cfg, raw, scratch: Path) -> UnitResult:
    """Untimed part after a unit: canonical text and quality rows."""
    if inp.sweep:
        path = scratch / "unit_sweep.csv"
        write_sweep_csv(raw, str(path))
        text = path.read_text(encoding="utf-8")
        os.remove(path)
        rows = [(r.pr, r.rmse_deg / float(np.mean(r.sqrt_crb_deg))) for r in raw.rows]
        return UnitResult(text, cfg.trials * len(raw.rows), rows)
    agg = aggregate([r[0] for r in raw], cfg.scene.doas)
    mean_crb = float(np.mean([r[1] for r in raw]))
    return UnitResult(trial_lines(raw), len(raw), [(agg.pr, agg.rmse_deg / mean_crb)])


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
