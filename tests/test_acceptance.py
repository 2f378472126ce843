"""End-to-end acceptance checks on the shipped example configurations.

Each test prints one [PASS]/[FAIL] summary line with the measured
numbers (visible even under capture) and then asserts the target.
The runs are seeded and serial, so the numbers are reproducible.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from msdoa import (
    Doa,
    EstimatorParams,
    NoiseSpec,
    SamplingPlan,
    SourceScene,
    SurfaceConfig,
    aggregate,
    builtin_config_path,
    compensation,
    crb_core,
    draw_source_amplitudes,
    element_positions,
    extract_snapshots,
    fourier_coefficient,
    frequency_indices,
    harmonic_matrix,
    load_config,
    make_ps_weights,
    ps_covariance,
    recover_channels,
    resolve_experiment,
    run_sweep,
    run_trials,
    search_setup,
    signal_model,
    smooth,
    smoothing_whitener,
    steering_derivatives,
    steering_vector,
    synthesize_received,
    trial_seeds,
    whiten,
    write_sweep_csv,
)
from msdoa.crb import crb
from msdoa.estimator import whitener_inv_sqrt
from oracles import coding_waveform, seeded_synthesis, stacked_crb

C0 = 299792458.0


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def _with_snr(cfg, snr_db: float):
    return replace(cfg, noise=NoiseSpec(snr_db=snr_db))


def _coherent_table2():
    cfg = load_config(builtin_config_path("table2"))
    return replace(cfg, sweep=None,
                   scene=replace(cfg.scene, coherence="coherent"))


def _pr(cfg, sweep_index: int = 0) -> float:
    cfg = resolve_experiment(cfg)
    res = run_trials(cfg, sweep_index=sweep_index, workers=1)
    return aggregate([out for out, _ in res], cfg.scene.doas).pr


def _rmse_and_bound(cfg, sweep_index: int = 0):
    cfg = resolve_experiment(cfg)
    res = run_trials(cfg, sweep_index=sweep_index, workers=1)
    agg = aggregate([out for out, _ in res], cfg.scene.doas)
    return agg.rmse_deg, float(np.mean([bound for _, bound in res]))


def _within_1deg(res) -> int:
    """Trials whose matched errors are all at most 1 degree."""
    return sum(1 for out, _ in res if max(out.errors_deg) <= 1.0)


def test_criterion_1(capsys):
    # Two incoherent sources at -22 and 12 degrees, SNR 0 dB: both
    # within 1 degree in at least 95 of 100 trials, and one trial of
    # the full chain finishes in under 5 seconds. The per-source RMS
    # error and mean square-root bound are reported beside the count,
    # so a miss shows whether it comes from scatter or from bias.
    cfg = load_config(builtin_config_path("table1"))
    start = time.perf_counter()
    run_trials(replace(cfg, trials=1), workers=1)
    wall = time.perf_counter() - start
    res = run_trials(cfg, workers=1)
    hits = _within_1deg(res)
    rms = np.sqrt(np.mean(np.square([out.errors_deg for out, _ in res]),
                          axis=0))
    bound = np.mean([b for _, b in res], axis=0)
    spread = (f"per-source RMS error "
              f"{', '.join(f'{e:.2f}' for e in rms)} deg against mean "
              f"sqrt(crb) {', '.join(f'{b:.2f}' for b in bound)} deg")
    ok = hits >= 95 and wall < 5.0
    _report(capsys, 1, ok,
            f"both sources within 1 deg in {hits}/{cfg.trials} trials "
            f"(need >= 95); {spread}; one trial {wall:.2f} s (limit 5 s)")
    assert wall < 5.0
    assert hits >= 95, (
        f"only {hits}/{cfg.trials} trials landed both sources within "
        f"1 deg; {spread}")


def test_criterion_2(capsys):
    # Noiseless 2-D scene: both (azimuth, elevation) peaks within
    # 1 degree per axis on the 0.5-degree lattice, in under a minute.
    cfg = load_config(builtin_config_path("table1_2d"))
    cfg = replace(cfg, noise=NoiseSpec(variance=0.0), trials=1)
    start = time.perf_counter()
    res = run_trials(cfg, workers=1)
    wall = time.perf_counter() - start
    out, _ = res[0]
    worst = max(out.errors_deg)
    ok = worst <= 1.0 and wall < 60.0
    _report(capsys, 2, ok,
            f"worst per-axis error {worst:.2f} deg (limit 1); "
            f"run {wall:.1f} s (limit 60 s)")
    assert worst <= 1.0
    assert wall < 60.0


def test_criterion_3(capsys):
    # The selected harmonic bins stand out of the received spectrum:
    # at SNR 0 dB at least 90% of them are strict local maxima of the
    # snapshot-averaged centered FFT magnitude.
    cfg = load_config(builtin_config_path("table1"))
    amplitude_seed, noise_seed, _ = trial_seeds(cfg.seed, 0, 0)
    harmonics = harmonic_matrix(cfg.max_harmonic, cfg.surface)
    model = signal_model(cfg.surface, cfg.scene, cfg.plan, cfg.mode, harmonics)
    amplitudes = draw_source_amplitudes(cfg.scene, cfg.plan.num_snapshots, amplitude_seed)
    series = synthesize_received(model, cfg.noise_variance, amplitudes, noise_seed)
    q_len = cfg.plan.points_per_snapshot
    windows = series.samples[:cfg.plan.total_points].reshape(
        cfg.plan.num_snapshots, q_len)
    mag = np.abs(
        np.fft.fftshift(np.fft.fft(windows, axis=1), axes=1) / q_len
    ).mean(axis=0)
    idx = frequency_indices(cfg.plan, cfg.max_harmonic)
    peaks = sum(1 for b in idx if mag[b] > mag[b - 1] and mag[b] > mag[b + 1])
    need = int(np.ceil(0.9 * idx.size))
    ok = peaks >= need
    _report(capsys, 3, ok,
            f"{peaks}/{idx.size} selected bins are local spectrum maxima "
            f"(need >= {need})")
    assert peaks >= need


def test_criterion_4(capsys):
    # Fully coherent pair. At SNR 0 dB a bank of 5 random weight
    # vectors restores resolution (PR >= 0.8). A single weight leaves
    # the smoothed source covariance rank one, and MUSIC on coherent
    # sources then stays biased however high the SNR (Shan, Wax and
    # Kailath 1985). On the same trial seeds at 20 and 40 dB, one
    # weight lands both sources within 1 degree in at most half the
    # trials, while the bank meets criterion 1's 95-of-100 bar at 20 dB.
    # The biased single-weight peaks do not vanish: the pair is 34
    # degrees apart, over two beamwidths of the 8-row aperture, so they
    # mostly fall inside the half-separation window and the 0 dB
    # single-weight PR is printed for information only.
    base = _coherent_table2()
    bank = replace(base, estimator=replace(base.estimator, num_weights=5))
    single = replace(base, estimator=replace(base.estimator, num_weights=1))
    pr_bank = _pr(bank)
    pr_single = _pr(single)

    def hits(cfg, snr_db):
        return _within_1deg(run_trials(
            resolve_experiment(_with_snr(cfg, snr_db)), workers=1))

    bank_20 = hits(bank, 20.0)
    single_20, single_40 = hits(single, 20.0), hits(single, 40.0)
    ok = (pr_bank >= 0.8 and bank_20 >= 95
          and single_20 <= 50 and single_40 <= 50)
    _report(capsys, 4, ok,
            f"0 dB: PR {pr_bank:.2f} with 5 weights (need >= 0.8), "
            f"PR {pr_single:.2f} with 1 weight (information); "
            f"both within 1 deg: 5 weights {bank_20}/{base.trials} at "
            f"20 dB (need >= 95), 1 weight {single_20}/{base.trials} at "
            f"20 dB and {single_40}/{base.trials} at 40 dB (need <= 50)")
    assert pr_bank >= 0.8
    assert bank_20 >= 95, (
        f"the 5-weight bank landed both sources within 1 deg in only "
        f"{bank_20}/{base.trials} trials at 20 dB")
    assert single_20 <= 50 and single_40 <= 50, (
        f"one weight landed both sources within 1 deg in "
        f"{single_20}/{base.trials} trials at 20 dB and "
        f"{single_40}/{base.trials} at 40 dB; rank one should keep "
        f"most trials off")


def test_criterion_5(capsys):
    # Resolution probability is nondecreasing (within 0.05 sampling
    # noise) in snapshots, window length, SNR, weight count, and
    # harmonic order on the two-source 8 x 5 scene.
    base = replace(load_config(builtin_config_path("table2")), sweep=None)
    coherent = replace(base, scene=replace(base.scene, coherence="coherent"))

    def curve(points):
        return [_pr(cfg, sweep_index=i) for i, cfg in enumerate(points)]

    curves = {
        "snapshots": curve([
            replace(base, plan=replace(base.plan, num_snapshots=v))
            for v in (1, 5, 10)]),
        "window periods": curve([
            replace(_with_snr(base, -10.0),
                    plan=replace(base.plan, periods_per_snapshot=v))
            for v in (1, 5, 10)]),
        "snr": curve([
            _with_snr(base, v) for v in (-20.0, -10.0, 0.0, 10.0)]),
        "weights": curve([
            replace(_with_snr(coherent, -10.0),
                    estimator=replace(base.estimator, num_weights=v))
            for v in (2, 5, 20)]),
        "harmonics": curve([
            replace(_with_snr(coherent, -10.0), max_harmonic=v)
            for v in (20, 40)]),
    }
    violations = [
        name for name, vals in curves.items()
        if any(b < a - 0.05 for a, b in zip(vals, vals[1:]))
    ]
    detail = "; ".join(
        f"{name} " + "->".join(f"{v:.2f}" for v in vals)
        for name, vals in curves.items())
    _report(capsys, 5, not violations, detail)
    assert not violations, f"PR decreased along {violations}: {curves}"


def test_criterion_6(capsys):
    # Coherent pair, paired seeds: a 10x faster sampler lowers the
    # RMSE and moves it closer to the bound, at SNR 0 and 10 dB.
    base = _coherent_table2()
    lines, oks = [], []
    for i, snr_db in enumerate((0.0, 10.0)):
        cfg = _with_snr(base, snr_db)
        fast = replace(cfg, plan=replace(
            cfg.plan, sample_rate_hz=10.0 * cfg.plan.sample_rate_hz))
        rmse_1, bound_1 = _rmse_and_bound(cfg, sweep_index=i)
        rmse_10, bound_10 = _rmse_and_bound(fast, sweep_index=i)
        oks.append(rmse_10 <= rmse_1
                   and abs(rmse_10 - bound_10) <= abs(rmse_1 - bound_1))
        lines.append(
            f"snr {snr_db:+.0f}: rmse {rmse_1:.3f}->{rmse_10:.3f}, "
            f"sqrt(crb) {bound_1:.3f}->{bound_10:.3f}")
    _report(capsys, 6, all(oks), "; ".join(lines))
    assert all(oks), f"faster sampling did not tighten the error: {lines}"


def test_criterion_7(capsys):
    # Perfectly band-limited synthesis beats the folded full chain at
    # every SNR point (paired seeds), yet both stay well above the
    # bound: the estimator variance, not folding, dominates.
    base = _coherent_table2()
    lines, oks = [], []
    for i, snr_db in enumerate((10.0, 15.0, 20.0)):
        cfg = _with_snr(base, snr_db)
        rmse_full, bound = _rmse_and_bound(cfg, sweep_index=i)
        rmse_ideal, _ = _rmse_and_bound(
            replace(cfg, mode="ideal"), sweep_index=i)
        oks.append(rmse_ideal <= rmse_full
                   and rmse_ideal >= 2.0 * bound
                   and rmse_full >= 2.0 * bound)
        lines.append(
            f"snr {snr_db:+.0f}: full {rmse_full:.3f}, "
            f"ideal {rmse_ideal:.3f}, sqrt(crb) {bound:.3f}")
    _report(capsys, 7, all(oks), "; ".join(lines))
    assert all(oks), f"ideal-isolation ordering or bound gap failed: {lines}"


def test_criterion_8(capsys):
    # Re-run the independent numerical oracles end to end.
    quad = pytest.importorskip("scipy.integrate").quad
    checks = []

    wavelength_half = C0 / 2e9
    small = SurfaceConfig(2, 3, 1e9, receiver_offset_m=2 * wavelength_half)
    surface = SurfaceConfig(5, 6, 1e9, receiver_offset_m=2 * wavelength_half)
    plan = SamplingPlan(5e7, 2, 5, 1.6e-5)

    # Closed-form coding coefficients vs numerical integration of the
    # defining integral (discontinuous at the slot edges, so the
    # quadrature gets those breakpoints).
    period = plan.coding_period_s
    worst = 0.0
    for m, n in ((1, 1), (2, 3)):
        slot = (m - 1) * 3 + (n - 1)
        edges = [slot / 6 * period, (slot + 1) / 6 * period]
        for p in (-17, 0, 1, 3, 29):
            re = quad(
                lambda t: coding_waveform(m, n, np.array([t]), small, period)[0]
                * np.cos(2 * np.pi * p * t / period),
                0.0, period, points=edges, limit=400)[0]
            im = quad(
                lambda t: coding_waveform(m, n, np.array([t]), small, period)[0]
                * -np.sin(2 * np.pi * p * t / period),
                0.0, period, points=edges, limit=400)[0]
            got = fourier_coefficient(m, n, p, small)
            worst = max(worst, abs(got - (re + 1j * im) / period))
    checks.append(("coefficient quadrature", worst, 1e-9))

    # Band-limited synthesis then extraction closes the model:
    # snapshot matrix = harmonic mixture of steered amplitudes.
    scene = SourceScene((Doa.from_degrees(-22.0), Doa.from_degrees(12.0)),
                        (1.0, 1.0))
    lines = harmonic_matrix(15, surface)
    series, amps = seeded_synthesis(
        signal_model(surface, scene, plan, "ideal", lines), scene, 0.0, 5)
    bins = extract_snapshots(series, plan, lines.max_harmonic)
    steer = np.column_stack(
        [steering_vector(doa, surface) for doa in scene.doas])
    closure = float(np.max(np.abs(
        bins - lines.entries @ steer @ amps)))
    checks.append(("snapshot closure", closure, 1e-9))

    # The pseudo-inverse is an exact left inverse on the column space.
    rng = np.random.default_rng(20260814)
    g = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    left = float(np.max(np.abs(
        recover_channels(lines.entries @ g, lines) - g)))
    checks.append(("left inverse", left, 1e-10))

    # Smoothed vectors factor into per-row steering times a scalar
    # window gain per source.
    weights = make_ps_weights(3, 6, 7)
    comp = compensation(surface)
    smoothed = smooth(recover_channels(bins, lines), comp, weights, surface)
    pos = element_positions(surface)
    xs, ys = pos[:6, 0], pos[::6, 1]
    k_scale = surface.omega0 / surface.wave_speed
    factor = 0.0
    for i in range(plan.num_snapshots):
        for l in range(weights.shape[0]):
            want = np.zeros(5, dtype=complex)
            for k, doa in enumerate(scene.doas):
                alpha = np.sin(doa.phi) * np.cos(doa.theta)
                beta = np.sin(doa.phi) * np.sin(doa.theta)
                gain = np.sum(weights[l]
                              * np.exp(1j * k_scale * xs * alpha))
                want += amps[k, i] * gain * np.exp(1j * k_scale * ys * beta)
            factor = max(factor, float(np.max(np.abs(
                smoothed[i, l] - want))))
    checks.append(("smoothing factorization", factor, 1e-9))

    # Whitened pure-noise covariance is white at the predicted level.
    cfg_nz = SurfaceConfig(5, 6, 1e9, 0.3)
    plan_nz = SamplingPlan(4e6, 1, 1, 1.6e-5)
    lines_nz = harmonic_matrix(15, cfg_nz)
    comp_nz = compensation(cfg_nz)
    weights_nz = make_ps_weights(1, 6, 11)
    setup_nz = search_setup(cfg_nz, SourceScene((), ()), EstimatorParams(num_weights=1),
                            lines_nz)
    wh_nz = smoothing_whitener(weights_nz, setup_nz.window_gram)
    idx = frequency_indices(plan_nz, 15)
    q_len = plan_nz.points_per_snapshot
    sigma2 = 0.8
    draws = 2000
    rng = np.random.default_rng(404)
    scale = np.sqrt(cfg_nz.size * sigma2 / 2.0)
    noise = scale * (rng.standard_normal((draws, q_len))
                     + 1j * rng.standard_normal((draws, q_len)))
    bins_nz = (np.fft.fftshift(np.fft.fft(noise, axis=1), axes=1)
               / q_len)[:, idx]
    smoothed_nz = smooth(recover_channels(bins_nz.T, lines_nz), comp_nz,
                         weights_nz, cfg_nz)
    cov = whiten(ps_covariance(smoothed_nz), whitener_inv_sqrt(wh_nz))
    target = cfg_nz.size * sigma2 / q_len
    white = float(np.max(np.abs(cov - target * np.eye(5))) / target)
    checks.append(("whitened noise covariance", white, 0.1))

    # Per-snapshot and stacked-observation bound forms agree.
    tiny = SurfaceConfig(2, 2, 1e9, 2 * wavelength_half)
    tiny_plan = SamplingPlan(1e6, 1, 2, 1.6e-5)
    tiny_scene = SourceScene((Doa.from_degrees(22.0, 70.0),), (1.0,))
    rng = np.random.default_rng(17)
    tiny_amps = (rng.standard_normal((1, 2))
                 + 1j * rng.standard_normal((1, 2))) / np.sqrt(2)
    stacked = stacked_crb(tiny, tiny_scene, tiny_plan, 2, 0.3, tiny_amps)
    tiny_core = crb_core(tiny, tiny_scene, harmonic_matrix(2, tiny))
    fast = crb(tiny_core, tiny_plan, 0.3, tiny_amps).matrix
    checks.append(("stacked vs per-snapshot bound",
                   float(np.max(np.abs(stacked - fast)) / np.max(np.abs(stacked))), 1e-8))

    # Analytic steering derivatives vs central finite differences.
    doa = Doa.from_degrees(-37.0, 55.0)
    got = steering_derivatives(doa, surface)
    h = 1e-6
    fd_worst = 0.0
    for j in range(2):
        up = Doa(*np.rad2deg([doa.theta + (h if j == 0 else 0.0),
                              doa.phi + (h if j == 1 else 0.0)]))
        dn = Doa(*np.rad2deg([doa.theta - (h if j == 0 else 0.0),
                              doa.phi - (h if j == 1 else 0.0)]))
        fd = (steering_vector(up, surface)
              - steering_vector(dn, surface)) / (2.0 * h)
        fd_worst = max(fd_worst, float(
            np.max(np.abs(got[:, j] - fd)) / np.max(np.abs(fd))))
    checks.append(("steering derivatives", fd_worst, 1e-5))

    # The bound scales exactly: linear in noise power, inverse in the
    # number of samples.
    base_m = crb(tiny_core, tiny_plan, 0.3, tiny_amps).matrix
    doubled = crb(tiny_core, tiny_plan, 0.6, tiny_amps).matrix
    plan_2q = SamplingPlan(2e6, 1, 2, 1.6e-5)
    halved = crb(tiny_core, plan_2q, 0.3, tiny_amps).matrix
    norm = float(np.max(np.abs(base_m)))
    scaling = max(
        float(np.max(np.abs(doubled - 2.0 * base_m))) / (2.0 * norm),
        float(np.max(np.abs(halved - 0.5 * base_m))) / (0.5 * norm))
    checks.append(("bound scaling", scaling, 1e-12))

    ok = all(value <= tol for _, value, tol in checks)
    detail = "; ".join(
        f"{name} {value:.1e} (tol {tol:g})" for name, value, tol in checks)
    _report(capsys, 8, ok, detail)
    for name, value, tol in checks:
        assert value <= tol, f"{name}: {value} exceeds {tol}"


def test_criterion_9(capsys, tmp_path):
    # The sweep artifact is a pure function of config and seed:
    # byte-identical between a serial run and a forked two-worker run.
    cfg = replace(load_config(builtin_config_path("table2")), trials=10)
    serial = tmp_path / "serial.csv"
    forked = tmp_path / "forked.csv"
    write_sweep_csv(run_sweep(cfg, workers=1), str(serial))
    write_sweep_csv(run_sweep(cfg, workers=2), str(forked))
    same = serial.read_bytes() == forked.read_bytes()
    _report(capsys, 9, same,
            f"sweep CSV byte-identical across 1 vs 2 workers "
            f"({serial.stat().st_size} bytes, "
            f"{len(serial.read_text().splitlines())} lines)")
    assert same
