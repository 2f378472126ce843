"""Source scenes, sampling plans, and received-signal synthesis."""

from fractions import Fraction
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msdoa import (
    Doa,
    NoiseSpec,
    SamplingPlan,
    SourceScene,
    SurfaceConfig,
    ValidationError,
    draw_source_amplitudes,
    make_coherent_gains,
    read_time_series,
    harmonic_matrix,
    resolve_gains,
    signal_model,
    synthesize_received,
    write_time_series,
)
from msdoa.harness import build_context, trial_seed_sequence
from msdoa.waveform import _slot_indices
from oracles import repeat_synthesis

TWO = (Doa.from_degrees(-22.0, 90.0), Doa.from_degrees(12.0, 90.0))


def test_scene_validation():
    with pytest.raises(ValidationError):
        SourceScene(TWO, (1.0,))  # powers length mismatch
    with pytest.raises(ValidationError):
        SourceScene(TWO, (1.0, -1.0))
    with pytest.raises(ValidationError):
        SourceScene(TWO, (1.0, 1.0), coherence="sometimes")
    with pytest.raises(ValidationError):
        SourceScene(TWO, (1.0, 1.0), coherence="coherent",
                    coherent_gains=(1.0, 2.0))  # not unit modulus
    with pytest.raises(ValidationError):
        SourceScene(TWO, (1.0, 1.0), coherence="coherent",
                    coherent_gains=(1j, 1.0))  # first gain must be 1
    with pytest.raises(ValidationError):
        SourceScene(TWO, (1.0, 1.0), coherence="incoherent",
                    coherent_gains=(1.0, 1.0))
    with pytest.raises(ValidationError):
        SourceScene(TWO, (1.0, 1.0), amplitude_model="laplace")


def test_make_coherent_gains():
    gains = make_coherent_gains(4, 11)
    assert gains[0] == 1.0 + 0.0j
    assert np.allclose(np.abs(gains), 1.0)
    assert gains == make_coherent_gains(4, 11)
    assert gains != make_coherent_gains(4, 12)


def test_resolve_gains_fills_once():
    scene = SourceScene(TWO, (1.0, 1.0), coherence="coherent")
    full = resolve_gains(scene, 5)
    assert full.coherent_gains is not None
    assert resolve_gains(full, 99) is full  # already resolved: untouched
    inc = SourceScene(TWO, (1.0, 1.0))
    assert resolve_gains(inc, 5) is inc


def test_coherent_amplitudes_rank_one():
    scene = SourceScene(
        (Doa.from_degrees(-22.0, 90.0), Doa.from_degrees(12.0, 90.0),
         Doa.from_degrees(40.0, 90.0)),
        (1.0, 1.0, 1.0),
        coherence="coherent",
        coherent_gains=(1.0, np.exp(0.7j), np.exp(-2.1j)),
    )
    amps = draw_source_amplitudes(scene, 50, 7)
    assert amps.shape == (3, 50)
    s = np.linalg.svd(amps, compute_uv=False)
    assert s[1] / s[0] < 1e-14  # rank one
    assert np.allclose(amps[1], np.exp(0.7j) * amps[0])


def test_incoherent_amplitudes_decorrelated():
    scene = SourceScene(TWO, (1.0, 1.0))
    amps = draw_source_amplitudes(scene, 10000, 3)
    corr = np.vdot(amps[0], amps[1]) / (
        np.linalg.norm(amps[0]) * np.linalg.norm(amps[1]))
    assert abs(corr) < 0.05
    # Unit power per source.
    assert np.mean(np.abs(amps) ** 2, axis=1) == pytest.approx([1.0, 1.0], rel=0.05)


def test_power_scaling():
    scene = SourceScene(TWO, (4.0, 0.25))
    amps = draw_source_amplitudes(scene, 20000, 12)
    assert np.mean(np.abs(amps[0]) ** 2) == pytest.approx(4.0, rel=0.05)
    assert np.mean(np.abs(amps[1]) ** 2) == pytest.approx(0.25, rel=0.05)


def test_constant_modulus_model():
    scene = SourceScene(TWO, (4.0, 1.0), amplitude_model="constant_modulus")
    amps = draw_source_amplitudes(scene, 64, 5)
    assert np.allclose(np.abs(amps[0]), 2.0)
    assert np.allclose(np.abs(amps[1]), 1.0)


def test_sampling_plan_table1(table1_plan):
    assert table1_plan.points_per_period == 800
    assert table1_plan.points_per_snapshot == 1600
    assert table1_plan.total_points == 8000


def test_sampling_plan_validation():
    with pytest.raises(ValidationError):
        SamplingPlan(50e6 * 1.0001, 2, 5, 1.6e-5)  # fs*dT not integer
    with pytest.raises(ValidationError):
        SamplingPlan(50e6, 0, 5, 1.6e-5)
    with pytest.raises(ValidationError):
        SamplingPlan(50e6, 2, 0, 1.6e-5)


def test_slot_indices_partition():
    z, size = 600, 6
    slots = _slot_indices(np.arange(z), z, size)
    # Equal occupancy and the wrap sample q=0 lands in the last slot.
    assert np.array_equal(np.bincount(slots, minlength=size),
                          np.full(size, z // size))
    assert slots[0] == size - 1
    assert slots[1] == 0
    assert slots[100] == 0  # boundary sample belongs to the slot it closes
    assert slots[101] == 1


@settings(max_examples=200, deadline=None)
@given(data=st.data(), size=st.integers(2, 64))
def test_slot_indices_match_exact_reference(data, size):
    # Sample q at phase r = q mod z is in slot ceil(r*size/z) - 1, and
    # phase 0 wraps to the last slot, also when z is no multiple of the
    # element count and q lies many periods out.
    z = data.draw(st.integers(1, 5000).filter(lambda v: v % size != 0), label="z")
    periods = data.draw(st.integers(0, 10**9), label="periods")
    phases = data.draw(st.lists(st.integers(0, z - 1), min_size=1, max_size=20), label="r")
    q = np.array([periods * z + r for r in [0, *phases]], dtype=np.int64)
    want = [size - 1 if r == 0 else ceil(Fraction(r * size, z)) - 1 for r in [0, *phases]]
    assert _slot_indices(q, z, size).tolist() == want


def test_slot_indices_match_waveform(small_cfg):
    # The synthesis slot table agrees with the continuous-time schedule.
    from msdoa import coding_waveform

    z = 48
    t = np.arange(z) / z * small_cfg.coding_period_s
    slots = _slot_indices(np.arange(z), z, small_cfg.size)
    for m in range(1, 3):
        for n in range(1, 4):
            u = coding_waveform(m, n, t, small_cfg)
            k = (m - 1) * 3 + (n - 1)
            assert np.array_equal(u == 1.0, slots == k)


def _table1_scene():
    return SourceScene(TWO, (1.0, 1.0))


def test_synthesis_deterministic(table1_cfg, table1_plan):
    model = signal_model(table1_cfg, _table1_scene(), table1_plan, "full")
    a, _ = synthesize_received(model, NoiseSpec.from_snr_db(0.0, 1.0), 42)
    b, _ = synthesize_received(model, NoiseSpec.from_snr_db(0.0, 1.0), 42)
    c, _ = synthesize_received(model, NoiseSpec.from_snr_db(0.0, 1.0), 43)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_synthesis_matches_the_repeat_form_bit_for_bit(chain_config):
    # Broadcast amplitudes and one in-place noise buffer change no bit
    # of the series or of the amplitudes it drew.
    cfg = chain_config
    model = build_context(cfg).signal
    for trial in range(3):
        # A seed sequence counts its spawns, so each call gets a fresh one.
        def seed():
            return trial_seed_sequence(cfg.seed, 0, trial).spawn(2)[0]

        series, amplitudes = synthesize_received(model, cfg.noise, seed())
        samples, want = repeat_synthesis(model, cfg.noise, seed())
        assert series.samples.tobytes() == samples.tobytes()
        assert amplitudes.tobytes() == want.tobytes()


def test_noise_independent_of_signal_draw(table1_cfg, table1_plan):
    # Same seed, noiseless vs noisy: the signal part is unchanged.
    model = signal_model(table1_cfg, _table1_scene(), table1_plan, "full")
    quiet, _ = synthesize_received(model, NoiseSpec.quiet(), 42)
    noisy, _ = synthesize_received(model, NoiseSpec(variance=0.5), 42)
    diff = noisy.samples - quiet.samples
    assert np.std(diff) > 0
    # Residual is exactly the additive noise: variance M*N*sigma^2.
    assert np.mean(np.abs(diff) ** 2) == pytest.approx(30 * 0.5, rel=0.05)


def test_noise_variance_scaling(table1_cfg, table1_plan):
    # K = 0 leaves pure noise with per-sample variance M*N*sigma^2.
    model = signal_model(table1_cfg, SourceScene((), ()), table1_plan, "full")
    series, _ = synthesize_received(model, NoiseSpec(variance=2.0), 9)
    assert np.mean(np.abs(series.samples) ** 2) == pytest.approx(60.0, rel=0.05)
    quiet, _ = synthesize_received(model, NoiseSpec.quiet(), 9)
    assert np.array_equal(quiet.samples, np.zeros(table1_plan.total_points))


def test_snr_noise_spec():
    spec = NoiseSpec.from_snr_db(10.0, 1.0)
    assert spec.variance == pytest.approx(0.1)
    assert spec.snr_db == 10.0
    with pytest.raises(ValidationError):
        NoiseSpec(variance=-1.0)


def test_full_vs_ideal_folding(table1_cfg):
    # Growing the harmonic budget drives the ideal series toward the
    # full one; the residue is spectral content beyond the budget.
    scene = _table1_scene()
    plan = SamplingPlan(50e6, 2, 2, 1.6e-5)
    full, _ = synthesize_received(signal_model(table1_cfg, scene, plan, "full"),
                                  NoiseSpec.quiet(), 4)

    def rel(cap):
        model = signal_model(table1_cfg, scene, plan, "ideal", harmonic_matrix(cap, table1_cfg))
        ideal, _ = synthesize_received(model, NoiseSpec.quiet(), 4)
        return (np.linalg.norm(full.samples - ideal.samples)
                / np.linalg.norm(full.samples))

    r24, r99, r399 = rel(24), rel(99), rel(399)
    assert r399 < r99 < r24
    assert r399 < 0.1


def test_folding_residue_shrinks_with_oversampling(table1_cfg):
    scene = _table1_scene()

    def residue(fs_mult):
        plan = SamplingPlan(50e6 * fs_mult, 2, 2, 1.6e-5)
        cap = plan.points_per_period // 2 - 1
        full, _ = synthesize_received(signal_model(table1_cfg, scene, plan, "full"),
                                      NoiseSpec.quiet(), 4)
        model = signal_model(table1_cfg, scene, plan, "ideal", harmonic_matrix(cap, table1_cfg))
        ideal, _ = synthesize_received(model, NoiseSpec.quiet(), 4)
        return (np.linalg.norm(full.samples - ideal.samples)
                / np.linalg.norm(full.samples))

    assert residue(10) < residue(1)


def test_mode_and_plan_validation(table1_cfg, table1_plan):
    with pytest.raises(ValidationError):
        signal_model(table1_cfg, _table1_scene(), table1_plan, "approximate")
    bad_plan = SamplingPlan(50e6, 2, 5, 3.2e-5)  # wrong coding period
    with pytest.raises(ValidationError):
        signal_model(table1_cfg, _table1_scene(), bad_plan, "full")
    with pytest.raises(ValidationError):
        signal_model(table1_cfg, _table1_scene(), table1_plan, "ideal")  # needs budget


def test_return_amplitudes(table1_cfg, table1_plan):
    model = signal_model(table1_cfg, _table1_scene(), table1_plan, "full")
    series, amps = synthesize_received(model, NoiseSpec.quiet(), 21)
    assert amps.shape == (2, 5)
    again, again_amps = synthesize_received(model, NoiseSpec.quiet(), 21)
    assert np.array_equal(series.samples, again.samples)
    assert np.array_equal(amps, again_amps)


def test_series_roundtrip(tmp_path, table1_cfg, table1_plan):
    model = signal_model(table1_cfg, _table1_scene(), table1_plan, "full")
    series, _ = synthesize_received(model, NoiseSpec(variance=0.3), 8)
    path = str(tmp_path / "rx.bin")
    write_time_series(series, table1_plan, path, seed=8)
    back = read_time_series(path)
    assert np.array_equal(back.samples, series.samples)
    assert back.sample_rate_hz == series.sample_rate_hz
    hdr = (tmp_path / "rx.bin.hdr").read_text()
    assert "seed=8" in hdr
    assert "points_per_snapshot=1600" in hdr
