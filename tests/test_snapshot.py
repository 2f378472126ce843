"""Frequency-snapshot extraction: bin placement, closure, FFT sanity."""

import numpy as np
import pytest

from msdoa import (
    ConfigurationError,
    Doa,
    SamplingPlan,
    SourceScene,
    TimeSeries,
    ValidationError,
    build_context,
    builtin_config_path,
    extract_snapshots,
    frequency_indices,
    harmonic_matrix,
    load_config,
    resolve_experiment,
    signal_model,
    steering_vector,
    write_snapshots_csv,
)
from msdoa.harness import draw_trial
from oracles import fftshift_snapshots, seeded_synthesis

TWO = (Doa.from_degrees(-22.0, 90.0), Doa.from_degrees(12.0, 90.0))


def test_frequency_indices_baseline(table1_plan):
    idx = frequency_indices(table1_plan, 15)
    assert np.array_equal(idx, np.arange(770, 831, 2))
    assert idx[15] == 800  # DC harmonic at the center bin


def test_frequency_indices_single_period():
    plan = SamplingPlan(50e6, 1, 1, 1.6e-5)
    assert np.array_equal(frequency_indices(plan, 3), 400 + np.arange(-3, 4))


def test_frequency_indices_validation(table1_plan):
    with pytest.raises(ValidationError):
        frequency_indices(table1_plan, -1)
    odd = SamplingPlan(46.875e6, 1, 1, 1.6e-5)  # 750 points: even, fine
    assert frequency_indices(odd, 10).size == 21
    with pytest.raises(ConfigurationError):
        # k0 * P beyond the half band.
        frequency_indices(SamplingPlan(50e6, 2, 1, 1.6e-5), 400)
    with pytest.raises(ConfigurationError):
        # 25 points per snapshot: no center bin.
        frequency_indices(SamplingPlan(1.5625e6, 1, 1, 1.6e-5), 2)


def test_noiseless_snapshots_equal_mixture(table1_cfg, table1_plan):
    # Ideal-isolation synthesis then extraction reproduces the harmonic
    # mixture exactly: snapshot matrix = U A S.
    scene = SourceScene(TWO, (1.0, 1.0))
    um = harmonic_matrix(15, table1_cfg)
    series, amps = seeded_synthesis(
        signal_model(table1_cfg, scene, table1_plan, "ideal", um), scene, 0.0, 5)
    bins = extract_snapshots(series, table1_plan, 15)
    steer = np.column_stack([steering_vector(d, table1_cfg) for d in scene.doas])
    want = um.entries @ steer @ amps
    assert bins.shape == (31, 5)
    assert np.max(np.abs(bins - want)) < 1e-9


def test_extraction_linearity(table1_plan):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(8000) + 1j * rng.standard_normal(8000)
    y = rng.standard_normal(8000) + 1j * rng.standard_normal(8000)
    fs = table1_plan.sample_rate_hz
    sx = extract_snapshots(TimeSeries(x, fs), table1_plan, 15)
    sy = extract_snapshots(TimeSeries(y, fs), table1_plan, 15)
    sxy = extract_snapshots(
        TimeSeries(2.0 * x - 3j * y, fs), table1_plan, 15)
    assert np.allclose(sxy, 2.0 * sx - 3j * sy, atol=1e-12)


def test_pure_tone_lands_on_its_bin(table1_plan):
    # A tone at harmonic p = 4 appears only at that snapshot row.
    q = np.arange(table1_plan.points_per_snapshot)
    z = table1_plan.points_per_period
    tone = 0.7j * np.exp(2j * np.pi * 4 * q / z)
    series = TimeSeries(np.tile(tone, table1_plan.num_snapshots),
                        table1_plan.sample_rate_hz)
    bins = extract_snapshots(series, table1_plan, 15)
    assert np.allclose(bins[15 + 4], 0.7j, atol=1e-12)
    others = np.delete(np.arange(31), 15 + 4)
    assert np.max(np.abs(bins[others])) < 1e-12
    # No leakage anywhere else in the window spectrum either.
    spec = np.fft.fftshift(np.fft.fft(tone)) / q.size
    idx = frequency_indices(table1_plan, 15)
    assert np.max(np.abs(np.delete(spec, idx[15 + 4]))) < 1e-12


def test_extraction_parseval(table1_plan):
    rng = np.random.default_rng(6)
    q_len = table1_plan.points_per_snapshot
    x = rng.standard_normal(q_len) + 1j * rng.standard_normal(q_len)
    spec = np.fft.fftshift(np.fft.fft(x)) / q_len
    assert np.sum(np.abs(spec) ** 2) == pytest.approx(
        np.mean(np.abs(x) ** 2), rel=1e-12)


def test_extraction_validation(table1_plan):
    short = TimeSeries(np.zeros(100, dtype=complex), 50e6)
    with pytest.raises(ValidationError):
        extract_snapshots(short, table1_plan, 15)
    wrong_rate = TimeSeries(np.zeros(8000, dtype=complex), 25e6)
    with pytest.raises(ValidationError):
        extract_snapshots(wrong_rate, table1_plan, 15)


def test_snapshots_csv(tmp_path, table1_cfg, table1_plan):
    scene = SourceScene(TWO, (1.0, 1.0))
    series, _ = seeded_synthesis(signal_model(table1_cfg, scene, table1_plan, "full"), scene,
                                 0.0, 5)
    bins = extract_snapshots(series, table1_plan, 15)
    path = tmp_path / "snaps.csv"
    write_snapshots_csv(bins, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "snapshot_index,p,re,im"
    assert len(lines) == 1 + 31 * 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "-15"
    v = bins[0, 0]
    assert float(first[2]) == pytest.approx(v.real, abs=1e-9)


@pytest.mark.parametrize("shape", [(31,), (4, 5), (2, 31, 5)])
def test_snapshots_csv_refuses_an_array_that_is_not_a_bin_matrix(tmp_path, shape):
    # Refused before the file is opened: no header or partial rows.
    path = tmp_path / "snaps.csv"
    with pytest.raises(ValidationError, match=r"bins have shape .*; expected \(2P\+1, I\)"):
        write_snapshots_csv(np.ones(shape, complex), str(path))
    assert not path.exists()


@pytest.mark.parametrize("name, overrides", [
    ("table1", []),
    ("table1", ["mode=ideal"]),
    ("table1", ["mode=ideal", "max_harmonic=40"]),
    ("table2", []),
])
def test_extraction_equals_fftshift_oracle(name, overrides):
    # Reading the harmonic bins from the unshifted spectrum gives the
    # same bits as shifting and scaling the whole spectrum first.
    cfg = resolve_experiment(load_config(builtin_config_path(name), overrides))
    context = build_context(cfg)
    for trial in range(20):
        series, _, got, _ = draw_trial(context, 0, trial)
        want = fftshift_snapshots(series, cfg.plan, cfg.max_harmonic)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_extraction_equals_fftshift_oracle_at_the_band_edge():
    # k0 * P one bin short of Q/2: the top harmonic wraps to the last
    # unshifted bins, the bottom one to the first.
    plan = SamplingPlan(2.5e6, 1, 3, 1.6e-5)  # 40 points per snapshot
    rng = np.random.default_rng(11)
    x = rng.standard_normal(120) + 1j * rng.standard_normal(120)
    got = extract_snapshots(TimeSeries(x, plan.sample_rate_hz), plan, 19)
    want = fftshift_snapshots(TimeSeries(x, plan.sample_rate_hz), plan, 19)
    assert got.tobytes() == want.tobytes()
