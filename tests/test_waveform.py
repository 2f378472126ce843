"""Source scenes, sampling plans, and received-signal synthesis."""

from dataclasses import replace
from fractions import Fraction
from math import ceil

import numpy as np
import pytest

from msdoa import (
    Doa,
    SamplingPlan,
    SourceScene,
    TimeSeries,
    ValidationError,
    builtin_config_path,
    draw_source_amplitudes,
    read_time_series,
    harmonic_matrix,
    load_config,
    resolve_experiment,
    signal_model,
    synthesize_received,
    write_time_series,
)
from msdoa.harness import build_context, draw_trial, trial_seeds
from msdoa.surface import steering_matrix
from oracles import repeat_synthesis, seeded_synthesis, split_seed

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
    with pytest.raises(ValidationError, match="coherent_gains must match"):
        SourceScene(TWO, (1.0, 1.0), coherence="coherent", coherent_gains=(1.0,))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="powers"):
            SourceScene(TWO, (1.0, bad))


def _four_coherent_gains(seed):
    # A 5-column window gives a search dimension of 10, above four sources.
    cfg = load_config(builtin_config_path("table1"), [
        "coherence=coherent", "angles_deg=-40, -10, 20, 50", "powers=1, 1, 1, 1",
        "subarray_width=5", f"seed={seed}"])
    return resolve_experiment(cfg).scene.coherent_gains


def test_make_coherent_gains():
    gains = _four_coherent_gains(11)
    assert len(gains) == 4
    assert gains[0] == 1.0 + 0.0j
    assert np.allclose(np.abs(gains), 1.0)
    assert gains == _four_coherent_gains(11)
    assert gains != _four_coherent_gains(12)


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


def test_amplitude_and_series_input_checks():
    with pytest.raises(ValidationError, match="num_snapshots"):
        draw_source_amplitudes(SourceScene(TWO, (1.0, 1.0)), 0, 7)
    with pytest.raises(ValidationError, match="resolve_experiment"):
        draw_source_amplitudes(SourceScene(TWO, (1.0, 1.0), coherence="coherent"), 5, 7)
    with pytest.raises(ValidationError, match="one-dimensional"):
        TimeSeries(np.zeros((2, 3)))


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
    with pytest.raises(ValidationError):
        SamplingPlan(50e6, 2, 5, 0.0)  # zero coding period
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="finite"):
            SamplingPlan(bad, 2, 5, 1.6e-5)
        with pytest.raises(ValidationError, match="finite"):
            SamplingPlan(50e6, 2, 5, bad)
    # Finite factors whose product is not.
    with pytest.raises(ValidationError, match="positive integer"):
        SamplingPlan(1e200, 2, 5, 1e200)


def _table1_scene():
    return SourceScene(TWO, (1.0, 1.0))


def test_synthesis_deterministic(table1_cfg, table1_plan):
    scene = _table1_scene()
    model = signal_model(table1_cfg, scene, table1_plan, "full")
    a, _ = seeded_synthesis(model, scene, 1.0, 42)
    b, _ = seeded_synthesis(model, scene, 1.0, 42)
    c, _ = seeded_synthesis(model, scene, 1.0, 43)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_synthesis_matches_the_repeat_form_bit_for_bit(chain_config):
    # Broadcast amplitudes and one in-place noise buffer change no bit
    # of a trial's series, and the trial's amplitudes are its amplitude
    # seed's draw.
    cfg = chain_config
    context = build_context(cfg)
    for trial in range(3):
        amplitude_seed, noise_seed, _ = trial_seeds(cfg.seed, 0, trial)
        series, amplitudes, _, _ = draw_trial(context, 0, trial)
        want = draw_source_amplitudes(cfg.scene, cfg.plan.num_snapshots, amplitude_seed)
        samples = repeat_synthesis(context.signal, cfg.noise_variance, want, noise_seed)
        assert series.samples.tobytes() == samples.tobytes()
        assert amplitudes.tobytes() == want.tobytes()


def test_full_mode_holds_one_period_per_source(table1_cfg):
    # The active slot depends only on a sample's phase within its
    # period, so one period per source stands for the whole record:
    # tiled, it is the pattern built sample by sample over the record,
    # and synthesis over a long record matches the tiled form bitwise.
    scene = _table1_scene()
    # 16 800 samples, past the 256 KiB at which numpy reuses temporaries.
    plan = SamplingPlan(50e6, 3, 7, 1.6e-5)
    model = signal_model(table1_cfg, scene, plan, "full")
    z = plan.points_per_period
    assert model.patterns.shape == (2, z)
    assert not model.patterns.flags.writeable

    # Sample q is in slot ceil(r*size/z) - 1 of its phase r = q mod z,
    # and phase 0 wraps to the last slot.
    size = table1_cfg.size
    phase_slots = [size - 1 if r == 0 else ceil(Fraction(r * size, z)) - 1 for r in range(z)]
    slots = np.array(phase_slots)[np.arange(plan.total_points) % z]
    steering = steering_matrix(scene.doas, table1_cfg)
    col_sums = steering.sum(axis=0)
    record = np.stack([2.0 * steering[slots, j] - col_sums[j] for j in range(2)])
    assert np.tile(model.patterns, plan.total_points // z).tobytes() == record.tobytes()

    for seed in (5, 6):
        series, amplitudes = seeded_synthesis(model, scene, 0.5, seed)
        samples = repeat_synthesis(model, 0.5, amplitudes, split_seed(seed)[1])
        assert series.samples.tobytes() == samples.tobytes()


@pytest.mark.parametrize("max_harmonic", [15, 40])
def test_ideal_mode_holds_one_period(max_harmonic):
    # Like the full-mode patterns, the ideal ones span one coding
    # period per source. Checked against the band-limited sum
    # sum_p c_p exp(2j*pi*p*q/z) formed by an inverse FFT, which puts
    # each mixed coefficient c_p in bin p mod z.
    cfg = load_config(builtin_config_path("table1"), ["mode=ideal"])
    harmonics = harmonic_matrix(max_harmonic, cfg.surface)
    model = signal_model(cfg.surface, cfg.scene, cfg.plan, "ideal", harmonics)
    z = cfg.plan.points_per_period
    assert model.patterns.shape == (2, z)
    assert not model.patterns.flags.writeable

    coeffs = harmonics.entries @ steering_matrix(cfg.scene.doas, cfg.surface)
    spectrum = np.zeros((2, z), dtype=complex)
    spectrum[:, np.mod(harmonics.harmonic_orders, z)] = coeffs.T
    want = z * np.fft.ifft(spectrum, axis=1)
    assert np.max(np.abs(model.patterns - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("mode", ["full", "ideal"])
@pytest.mark.parametrize("periods", [1, 3])
def test_one_period_synthesis_matches_the_record_form(table1_cfg, mode, periods):
    # One period per snapshot, repeated k0 times, is bitwise the record
    # the oracle forms over whole snapshots, in either mode.
    plan = SamplingPlan(50e6, periods, 5, 1.6e-5)
    scene = _table1_scene()
    model = signal_model(table1_cfg, scene, plan, mode, harmonic_matrix(15, table1_cfg))
    for seed in (5, 6):
        series, amplitudes = seeded_synthesis(model, scene, 0.5, seed)
        samples = repeat_synthesis(model, 0.5, amplitudes, split_seed(seed)[1])
        assert series.samples.tobytes() == samples.tobytes()


@pytest.mark.parametrize("mode", ["full", "ideal"])
def test_no_source_model_holds_an_empty_pattern_stack(table1_cfg, table1_plan, mode):
    scene = SourceScene((), ())
    model = signal_model(table1_cfg, scene, table1_plan, mode, harmonic_matrix(15, table1_cfg))
    assert model.patterns.shape == (0, table1_plan.points_per_period)
    assert not model.patterns.flags.writeable
    series, amplitudes = seeded_synthesis(model, scene, 0.0, 9)
    assert amplitudes.shape == (0, table1_plan.num_snapshots)
    assert series.samples.tobytes() == np.zeros(table1_plan.total_points, complex).tobytes()


def test_noise_independent_of_signal_draw(table1_cfg, table1_plan):
    # Same seed, noiseless vs noisy: the signal part is unchanged.
    scene = _table1_scene()
    model = signal_model(table1_cfg, scene, table1_plan, "full")
    quiet, _ = seeded_synthesis(model, scene, 0.0, 42)
    noisy, _ = seeded_synthesis(model, scene, 0.5, 42)
    diff = noisy.samples - quiet.samples
    assert np.std(diff) > 0
    # Residual is exactly the additive noise: variance M*N*sigma^2.
    assert np.mean(np.abs(diff) ** 2) == pytest.approx(30 * 0.5, rel=0.05)


def test_noise_variance_scaling(table1_cfg, table1_plan):
    # K = 0 leaves pure noise with per-sample variance M*N*sigma^2.
    scene = SourceScene((), ())
    model = signal_model(table1_cfg, scene, table1_plan, "full")
    series, _ = seeded_synthesis(model, scene, 2.0, 9)
    assert np.mean(np.abs(series.samples) ** 2) == pytest.approx(60.0, rel=0.05)
    quiet, _ = seeded_synthesis(model, scene, 0.0, 9)
    assert np.array_equal(quiet.samples, np.zeros(table1_plan.total_points))


def test_full_vs_ideal_folding(table1_cfg):
    # Growing the harmonic budget drives the ideal series toward the
    # full one; the residue is spectral content beyond the budget.
    scene = _table1_scene()
    plan = SamplingPlan(50e6, 2, 2, 1.6e-5)
    full, _ = seeded_synthesis(signal_model(table1_cfg, scene, plan, "full"), scene,
                               0.0, 4)

    def rel(cap):
        model = signal_model(table1_cfg, scene, plan, "ideal", harmonic_matrix(cap, table1_cfg))
        ideal, _ = seeded_synthesis(model, scene, 0.0, 4)
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
        full, _ = seeded_synthesis(signal_model(table1_cfg, scene, plan, "full"), scene,
                                   0.0, 4)
        model = signal_model(table1_cfg, scene, plan, "ideal", harmonic_matrix(cap, table1_cfg))
        ideal, _ = seeded_synthesis(model, scene, 0.0, 4)
        return (np.linalg.norm(full.samples - ideal.samples)
                / np.linalg.norm(full.samples))

    assert residue(10) < residue(1)


def test_mode_and_plan_validation(table1_cfg, table1_plan):
    with pytest.raises(ValidationError):
        signal_model(table1_cfg, _table1_scene(), table1_plan, "approximate")
    with pytest.raises(ValidationError):
        signal_model(table1_cfg, _table1_scene(), table1_plan, "ideal")  # needs budget


def test_return_amplitudes():
    # draw_trial returns the amplitudes its series was synthesized from:
    # its amplitude seed's draw. Other amplitudes under the same noise
    # give another series.
    for overrides in ([], ["coherence=coherent", "mode=ideal"]):
        cfg = resolve_experiment(load_config(builtin_config_path("table1"), overrides))
        context = build_context(cfg)
        amplitude_seed, noise_seed, _ = trial_seeds(cfg.seed, 0, 21)
        series, amplitudes, _, _ = draw_trial(context, 0, 21)
        assert amplitudes.shape == (2, 5)
        want = draw_source_amplitudes(cfg.scene, cfg.plan.num_snapshots, amplitude_seed)
        assert amplitudes.tobytes() == want.tobytes()
        again = synthesize_received(context.signal, cfg.noise_variance, amplitudes, noise_seed)
        assert series.samples.tobytes() == again.samples.tobytes()
        other = synthesize_received(context.signal, cfg.noise_variance, amplitudes[::-1], noise_seed)
        assert not np.array_equal(series.samples, other.samples)


def test_synthesis_refuses_amplitudes_of_another_shape(table1_cfg, table1_plan):
    # One row per source and one column per snapshot: a missing or an
    # extra source row is not dropped silently.
    model = signal_model(table1_cfg, _table1_scene(), table1_plan, "full")
    for shape in ((1, 5), (3, 5), (2, 4), (10,)):
        with pytest.raises(ValidationError, match=r"amplitudes have shape .*; expected \(2, 5\)"):
            synthesize_received(model, 0.0, np.ones(shape, complex), 1)


def test_series_roundtrip(tmp_path, table1_cfg, table1_plan):
    scene = _table1_scene()
    model = signal_model(table1_cfg, scene, table1_plan, "full")
    series, _ = seeded_synthesis(model, scene, 0.3, 8)
    path = str(tmp_path / "rx.bin")
    write_time_series(series, table1_plan, path, seed=8)
    back = read_time_series(path, table1_plan)
    assert back.samples.tobytes() == series.samples.tobytes()
    hdr = (tmp_path / "rx.bin.hdr").read_text()
    assert "seed=8" in hdr
    assert "points_per_snapshot=1600" in hdr


@pytest.mark.parametrize("size", [20, 7999, 8001],
                         ids=["short-at-another-rate", "one-short", "one-long"])
def test_series_writer_refuses_a_series_its_plan_does_not_describe(tmp_path, table1_plan,
                                                                   size):
    # The sidecar describes the plan, so a series of another length, as
    # a plan at another rate would synthesize, is refused before either
    # file exists.
    series = TimeSeries(np.ones(size, complex))
    with pytest.raises(ValidationError, match=f"series has {size} samples but the plan needs 8000"):
        write_time_series(series, table1_plan, str(tmp_path / "rx.bin"))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("corrupt, match", [
    (lambda data, hdr: (np.append(data, 0.0), hdr), r"rx\.bin: 16001 float64 values"),
    (lambda data, hdr: (data, hdr.replace("sample_rate_hz=", "rate=")),
     r"rx\.bin\.hdr: \['rate=50000000\.0', .* are not the plan's sidecar lines"),
    (lambda data, hdr: (data[:-2], hdr), r"rx\.bin: 15998 float64 values"),
], ids=["odd-value-count", "no-sample-rate", "one-sample-short"])
def test_series_reader_refuses_files_that_disagree(tmp_path, table1_plan, corrupt, match):
    series = TimeSeries(np.arange(table1_plan.total_points) * (1 + 2j))
    path = tmp_path / "rx.bin"
    hdr_path = tmp_path / "rx.bin.hdr"
    write_time_series(series, table1_plan, str(path))
    data, hdr = corrupt(np.fromfile(path, dtype="<f8"), hdr_path.read_text())
    data.tofile(path)
    hdr_path.write_text(hdr)
    with pytest.raises(ValidationError, match=match):
        read_time_series(str(path), table1_plan)


@pytest.mark.parametrize("edit", [
    lambda hdr: hdr.replace(b"sample_rate_hz=50000000.0", b"sample_rate_hz=nan"),
    lambda hdr: hdr.replace(b"=1600", b"=-1600").replace(b"num_snapshots=5", b"num_snapshots=-5"),
    lambda hdr: hdr.replace(b"=1600", b"=800").replace(b"num_snapshots=5", b"num_snapshots=10"),
    None,
    lambda hdr: b"\xff" + hdr,
], ids=["rate-nan", "negative-counts", "another-split", "twice-the-rate", "not-utf-8"])
def test_series_reader_refuses_a_sidecar_its_plan_does_not_write(tmp_path, table1_plan, edit):
    # Each sidecar counts as many samples as the data holds, or (at twice
    # the rate) describes the data it came with, so only the plan's own
    # lines can refuse it; a sidecar that is not UTF-8 cannot match them.
    plan = table1_plan if edit else replace(table1_plan, sample_rate_hz=1e8)
    path = tmp_path / "rx.bin"
    write_time_series(TimeSeries(np.arange(plan.total_points) * (1 - 1j)), plan, str(path))
    if edit:
        hdr_path = tmp_path / "rx.bin.hdr"
        hdr_path.write_bytes(edit(hdr_path.read_bytes()))
    with pytest.raises(ValidationError, match=r"rx\.bin\.hdr: .* are not the plan's sidecar lines"):
        read_time_series(str(path), table1_plan)
