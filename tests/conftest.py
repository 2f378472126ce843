"""Shared fixtures: the baseline 5x6 surface, its sampling plan, and shipped points."""

from dataclasses import replace

import numpy as np
import pytest

from msdoa import (
    NoiseSpec,
    SamplingPlan,
    SurfaceConfig,
    builtin_config_path,
    load_config,
    resolve_experiment,
)

C0 = 299792458.0


@pytest.fixture(scope="session")
def table1_cfg() -> SurfaceConfig:
    # 5 rows x 6 cols, 1 GHz carrier, half-wavelength spacing, receiver
    # one wavelength behind the centre.
    return SurfaceConfig(
        rows=5,
        cols=6,
        carrier_hz=1e9,
        receiver_offset_m=2 * C0 / 2e9,
    )


@pytest.fixture(scope="session")
def table1_plan() -> SamplingPlan:
    # fs * dT = 800 samples per period, 2 periods per snapshot, 5 snapshots.
    return SamplingPlan(
        sample_rate_hz=50e6,
        periods_per_snapshot=2,
        num_snapshots=5,
        coding_period_s=1.6e-5,
    )


@pytest.fixture(scope="session")
def small_cfg() -> SurfaceConfig:
    # 2x3 surface keeps brute-force oracles cheap.
    return SurfaceConfig(
        rows=2,
        cols=3,
        carrier_hz=1e9,
        receiver_offset_m=2 * C0 / 2e9,
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


@pytest.fixture(scope="session", params=["full", "ideal", "coherent", "noise-free", "2d"])
def chain_config(request):
    """A shipped point in each regime the batched trial chain must keep bitwise.

    The table1 scene in full and ideal synthesis, with coherent sources
    and without noise, and the table1_2d scene on coarse grids.
    """
    overrides = {
        "full": [],
        "ideal": ["mode=ideal"],
        "coherent": ["coherence=coherent"],
        "noise-free": [],
        "2d": ["theta_grid_deg=-90, 90, 2", "phi_grid_deg=0, 90, 2"],
    }[request.param]
    name = "table1_2d" if request.param == "2d" else "table1"
    cfg = load_config(builtin_config_path(name), ["trials=4", *overrides])
    if request.param == "noise-free":
        cfg = replace(cfg, noise=NoiseSpec(variance=0.0))
    return resolve_experiment(cfg)
