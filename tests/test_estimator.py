"""Channel recovery, pattern smoothing, whitening, and the MUSIC search."""

import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import msdoa.estimator
import oracles
from msdoa import (
    ConfigurationError,
    DegenerateCodingError,
    Doa,
    EstimatorParams,
    HarmonicMatrix,
    NearSingularWhitenerError,
    SamplingPlan,
    SourceScene,
    SurfaceConfig,
    ValidationError,
    builtin_config_path,
    build_context,
    compensation,
    estimate_doa,
    extract_snapshots,
    frequency_indices,
    harmonic_matrix,
    load_config,
    make_ps_weights,
    music_search,
    ps_covariance,
    recover_channels,
    resolve_experiment,
    search_setup,
    signal_model,
    smooth,
    smoothing_whitener,
    whiten,
    write_spectrum_csv,
)
from msdoa.estimator import (
    _half_plane_lags,
    _lag_basis,
    _lag_fold,
    _phase_scale,
    _ranked_peaks,
    _row_peaks,
    _spectrum_rows,
    inclusive_grid,
    search_grids,
    whitener_inv_sqrt,
)
from msdoa.harness import BATCH_TRIALS, draw_trial, trial_seeds
from msdoa.surface import element_positions, receiver_delays

TWO = (Doa.from_degrees(-22.0, 90.0), Doa.from_degrees(12.0, 90.0))


def _estimate_one(bins, setup, weights):
    """The search of one trial, with its (L, width) weight bank: a batch of one."""
    return estimate_doa([bins], setup, [weights])


def _whitener(weights, um, cfg):
    """The smoothing whitener of one weight bank, from the search setup's table.

    The table does not depend on the grid. A one-sided azimuth grid keeps
    every surface searchable: one row sees only cos(theta), and the search
    refuses a grid on both sides of 0 there.
    """
    params = EstimatorParams(num_weights=1, subarray_width=weights.shape[-1],
                             theta_grid_deg=(0.0, 90.0, 0.1))
    setup = search_setup(cfg, oracles.sources(0), params, um)
    return smoothing_whitener(weights, setup.window_gram)


def _search_one(whitened, w_inv_sqrt, setup):
    """The search of one whitened covariance: a batch of one."""
    return music_search(whitened[None], w_inv_sqrt[None], setup)


def test_recover_channels_left_inverse(table1_cfg, rng):
    um = harmonic_matrix(15, table1_cfg)
    g = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    back = recover_channels(um.entries @ g, um)
    assert np.max(np.abs(back - g)) < 1e-10


def test_recover_channels_shape_check(table1_cfg):
    um = harmonic_matrix(15, table1_cfg)
    with pytest.raises(ValidationError):
        recover_channels(np.zeros(30, dtype=complex), um)


def test_recover_channels_degenerate():
    entries = np.ones((7, 3), dtype=complex)
    with pytest.raises(DegenerateCodingError):
        recover_channels(np.zeros(7, dtype=complex), HarmonicMatrix(3, entries))


def test_compensation(table1_cfg):
    comp = compensation(table1_cfg)
    assert comp.shape == (30,)
    assert np.allclose(np.abs(comp), 1.0)
    want = np.exp(-1j * table1_cfg.omega0 * receiver_delays(table1_cfg))
    assert np.allclose(comp, want)
    assert np.allclose(comp * comp.conj(), 1.0)


def test_make_ps_weights():
    ws = make_ps_weights(4, 6, 3)
    assert ws.shape == (4, 6)
    assert np.allclose(np.abs(ws), 1.0)
    assert np.array_equal(ws, make_ps_weights(4, 6, 3))
    assert not np.array_equal(ws, make_ps_weights(4, 6, 4))
    with pytest.raises(ValidationError):
        make_ps_weights(0, 6, 3)
    with pytest.raises(ValidationError):
        make_ps_weights(2, 0, 3)


def _chain(cfg, plan, scene, weights, mode="ideal", rng_seed=5, noise_variance=0.0):
    um = harmonic_matrix(15, cfg)
    model = signal_model(cfg, scene, plan, mode, um)
    series, amps = oracles.seeded_synthesis(model, scene, noise_variance, rng_seed)
    bins = extract_snapshots(series, plan, um.max_harmonic)
    comp = compensation(cfg)
    wh = _whitener(weights, um, cfg)
    smoothed = smooth(recover_channels(bins, um), comp, weights, cfg)
    return smoothed, amps, wh


def test_smoothing_factorization_oracle(table1_cfg, table1_plan):
    # Independent reconstruction of the smoothed vectors: per-row
    # steering times a per-source scalar window gain.
    scene = SourceScene(TWO, (1.0, 1.0))
    weights = make_ps_weights(3, 6, 7)
    smoothed, amps, _ = _chain(table1_cfg, table1_plan, scene, weights)

    pos = element_positions(table1_cfg)
    xs = pos[:6, 0]          # column abscissae of one surface row
    ys = pos[::6, 1]         # row ordinates
    k_scale = table1_cfg.omega0 / table1_cfg.wave_speed
    for i in range(table1_plan.num_snapshots):
        for l in range(weights.shape[0]):
            want = np.zeros(5, dtype=complex)
            for k, doa in enumerate(scene.doas):
                alpha = np.sin(doa.phi) * np.cos(doa.theta)
                beta = np.sin(doa.phi) * np.sin(doa.theta)
                row_phase = np.exp(1j * k_scale * ys * beta)
                gain = np.sum(weights[l] * np.exp(1j * k_scale * xs * alpha))
                want += amps[k, i] * gain * row_phase
            assert np.max(np.abs(smoothed[i, l] - want)) < 1e-9


def test_whitener_is_hermitian_psd(table1_cfg):
    um = harmonic_matrix(15, table1_cfg)
    comp = compensation(table1_cfg)
    weights = make_ps_weights(5, 6, 1)
    wh = _whitener(weights, um, table1_cfg)
    assert np.allclose(wh, wh.conj().T)
    assert np.min(np.linalg.eigvalsh(wh)) > 0


def test_whiten_self_is_identity(table1_cfg):
    um = harmonic_matrix(15, table1_cfg)
    comp = compensation(table1_cfg)
    weights = make_ps_weights(2, 6, 1)
    wh = _whitener(weights, um, table1_cfg)
    assert np.max(np.abs(whiten(wh, whitener_inv_sqrt(wh)) - np.eye(5))) < 1e-10


@pytest.mark.parametrize("entry", [0.0, np.nan], ids=["zero", "nan"])
def test_whiten_rejects_singular(entry):
    singular = np.diag([1.0, 1.0, entry]).astype(complex)
    with pytest.raises(NearSingularWhitenerError):
        whitener_inv_sqrt(singular)


def test_a_singular_whitener_raises_in_a_stack_as_it_does_alone():
    good = np.eye(3, dtype=complex)
    first = np.diag([2.0, 1.0, 1e-15]).astype(complex)
    second = np.diag([1.0, 1.0, 0.0]).astype(complex)
    with pytest.raises(NearSingularWhitenerError) as alone:
        whitener_inv_sqrt(first)
    with pytest.raises(NearSingularWhitenerError) as stacked:
        whitener_inv_sqrt(np.stack([good, first, good, second]))
    assert str(stacked.value) == str(alone.value)
    # Good whiteners of a stack come out as they would alone.
    pair = whitener_inv_sqrt(np.stack([good, 4.0 * good]))
    assert pair.tobytes() == np.stack([whitener_inv_sqrt(good),
                                       whitener_inv_sqrt(4.0 * good)]).tobytes()


def test_weights_must_have_unit_modulus_within_1e9():
    cfg = SurfaceConfig(2, 3, 1e9, 0.3)
    comp = compensation(cfg)
    columns = np.ones((cfg.size, 1), dtype=complex)
    smooth(columns, comp, np.full((2, 3), 1.0 + 5e-10, dtype=complex), cfg)
    for modulus in (1.0 + 1e-6, 1.0 - 1e-6, np.nan):
        with pytest.raises(ValidationError, match="unit modulus"):
            smooth(columns, comp, np.full((2, 3), modulus, dtype=complex), cfg)
    stack = np.ones((3, 2, 3), dtype=complex)
    stack[2, 1, 0] = 1.0 + 1e-6
    with pytest.raises(ValidationError, match="unit modulus"):
        smooth(columns, comp, stack, cfg)


def test_smooth_shape_checks():
    cfg = SurfaceConfig(2, 3, 1e9, 0.3)
    comp = compensation(cfg)
    weights = np.ones((2, 3), dtype=complex)
    with pytest.raises(ValidationError, match="element stack"):
        smooth(np.ones((cfg.size + 1, 1), dtype=complex), comp, weights, cfg)
    with pytest.raises(ValidationError, match="weights must be"):
        smooth(np.ones((cfg.size, 1), dtype=complex), comp, weights[0], cfg)


def _noise_only_whitened_cov(num_weights, draws, sigma2):
    # 5x6 surface, one 64-point period per snapshot: cheap enough to
    # Monte Carlo the post-chain noise covariance.
    from msdoa import SurfaceConfig

    cfg = SurfaceConfig(5, 6, 1e9, 0.3)
    plan = SamplingPlan(4e6, 1, 1, 1.6e-5)
    um = harmonic_matrix(15, cfg)
    comp = compensation(cfg)
    weights = make_ps_weights(num_weights, 6, 11)
    wh = _whitener(weights, um, cfg)
    idx = frequency_indices(plan, 15)
    q_len = plan.points_per_snapshot

    rng = np.random.default_rng(404)
    scale = np.sqrt(cfg.size * sigma2 / 2.0)
    noise = scale * (rng.standard_normal((draws, q_len))
                     + 1j * rng.standard_normal((draws, q_len)))
    bins = (np.fft.fftshift(np.fft.fft(noise, axis=1), axes=1) / q_len)[:, idx]
    cov = ps_covariance(smooth(recover_channels(bins.T, um), comp, weights, cfg))
    return whiten(cov, whitener_inv_sqrt(wh)), cfg.size * sigma2 / q_len


def test_whitened_noise_covariance_is_white():
    # After whitening, pure receiver noise has covariance (MN*sigma^2/Q) I.
    white, target = _noise_only_whitened_cov(num_weights=1, draws=2000,
                                             sigma2=0.8)
    assert np.max(np.abs(white - target * np.eye(5))) / target < 0.1


def test_whitened_noise_covariance_scales_with_weights():
    # The covariance averages over weights while the whitener sums, so
    # L weight vectors shrink the whitened noise floor by 1/L.
    white, target = _noise_only_whitened_cov(num_weights=5, draws=2000,
                                             sigma2=0.8)
    assert np.max(np.abs(white - target / 5.0 * np.eye(5))) / (target / 5.0) < 0.1


def test_ps_covariance_hermitian_psd(table1_cfg, table1_plan):
    scene = SourceScene(TWO, (1.0, 1.0))
    weights = make_ps_weights(5, 6, 1)
    smoothed, _, _ = _chain(table1_cfg, table1_plan, scene, weights,
                            noise_variance=0.5)
    cov = ps_covariance(smoothed)
    assert cov.shape == (5, 5)
    assert np.allclose(cov, cov.conj().T)
    assert np.min(np.linalg.eigvalsh(cov)) > -1e-12
    with pytest.raises(ValidationError):
        ps_covariance([])


def _coherent_eigs(num_weights, table1_cfg, table1_plan):
    scene = SourceScene(TWO, (1.0, 1.0), coherence="coherent",
                        coherent_gains=(1.0, np.exp(1.3j)))
    weights = make_ps_weights(num_weights, 6, 13)
    smoothed, _, wh = _chain(table1_cfg, table1_plan, scene, weights)
    vals = np.linalg.eigvalsh(whiten(ps_covariance(smoothed), whitener_inv_sqrt(wh)))
    return np.sort(vals)[::-1]


def test_single_weight_cannot_separate_coherent(table1_cfg, table1_plan):
    vals = _coherent_eigs(1, table1_cfg, table1_plan)
    assert vals[1] / vals[0] < 1e-10  # rank stuck at one


def test_weight_bank_recovers_rank(table1_cfg, table1_plan):
    for num_weights in (2, 5):
        vals = _coherent_eigs(num_weights, table1_cfg, table1_plan)
        assert vals[1] / vals[0] > 1e-3  # second source visible again


def _search_noiseless(table1_cfg, table1_plan, scene, params, weight_seed):
    um = harmonic_matrix(15, table1_cfg)
    model = signal_model(table1_cfg, scene, table1_plan, "ideal", um)
    series, _ = oracles.seeded_synthesis(model, scene, 0.0, 5)
    bins = extract_snapshots(series, table1_plan, um.max_harmonic)
    setup = search_setup(table1_cfg, scene, params, um)
    return _estimate_one(bins, setup, make_ps_weights(params.num_weights, setup.width, weight_seed))


def test_music_noiseless_1d(table1_cfg, table1_plan):
    scene = SourceScene(TWO, (1.0, 1.0))
    params = EstimatorParams(num_weights=5)
    result = _search_noiseless(table1_cfg, table1_plan, scene, params, 2)
    got = sorted(est.theta_deg for est in result.estimates[0])
    assert got == pytest.approx([-22.0, 12.0], abs=0.05)
    assert all(est.phi_deg == pytest.approx(90.0) for est in result.estimates[0])
    # Eigenvalues are reported in descending order.
    assert np.all(np.diff(result.eigenvalues[0]) <= 1e-12)


def test_music_noiseless_1d_full_mode(table1_cfg, table1_plan):
    # Spectral folding in full synthesis may shift peaks one grid step.
    scene = SourceScene(TWO, (1.0, 1.0))
    model = signal_model(table1_cfg, scene, table1_plan, "full")
    series, _ = oracles.seeded_synthesis(model, scene, 0.0, 5)
    um = harmonic_matrix(15, table1_cfg)
    bins = extract_snapshots(series, table1_plan, um.max_harmonic)
    params = EstimatorParams(num_weights=5)
    result = _estimate_one(bins, search_setup(table1_cfg, scene, params, um),
                           make_ps_weights(5, 6, 2))
    got = sorted(est.theta_deg for est in result.estimates[0])
    assert got == pytest.approx([-22.0, 12.0], abs=0.15)


def test_music_noiseless_2d(table1_cfg, table1_plan):
    scene = SourceScene(
        (Doa.from_degrees(-36.0, 20.0), Doa.from_degrees(42.0, 45.0)),
        (1.0, 1.0))
    params = EstimatorParams(num_weights=5, kind="2d", subarray_width=4,
                             theta_grid_deg=(-90.0, 90.0, 0.5))
    result = _search_noiseless(table1_cfg, table1_plan, scene, params, 2)
    got = sorted(((e.theta_deg, e.phi_deg) for e in result.estimates[0]))
    assert got[0] == pytest.approx((-36.0, 20.0), abs=0.5)
    assert got[1] == pytest.approx((42.0, 45.0), abs=0.5)


def test_music_coherent_pair_needs_weights(table1_cfg, table1_plan):
    # The L = 1 estimator collapses both coherent sources to one peak
    # family; the L = 5 estimator resolves them.
    scene = SourceScene(TWO, (1.0, 1.0), coherence="coherent",
                        coherent_gains=(1.0, np.exp(0.9j)))
    good = _search_noiseless(
        table1_cfg, table1_plan, scene,
        EstimatorParams(num_weights=5), 3)
    got = sorted(est.theta_deg for est in good.estimates[0])
    assert got == pytest.approx([-22.0, 12.0], abs=0.2)


def test_music_scale_equivariance(table1_cfg, table1_plan):
    scene = SourceScene(TWO, (1.0, 1.0))
    weights = make_ps_weights(5, 6, 1)
    smoothed, _, wh = _chain(table1_cfg, table1_plan, scene, weights,
                             noise_variance=0.3)
    cov = ps_covariance(smoothed)
    w = whitener_inv_sqrt(wh)
    setup = search_setup(table1_cfg, scene, EstimatorParams(num_weights=5),
                         harmonic_matrix(15, table1_cfg))
    a = _search_one(whiten(cov, w), w, setup)
    b = _search_one(whiten(7.3 * cov, w), w, setup)
    assert [e.theta_deg for e in a.estimates[0]] == [e.theta_deg for e in b.estimates[0]]
    # Scaling only scales eigenvalues; the subspaces and spectrum stay put.
    assert np.allclose(b.spectrum, a.spectrum, rtol=1e-9)
    assert np.allclose(b.eigenvalues, 7.3 * a.eigenvalues, rtol=1e-9)


def _setup_1d(cfg, num_sources=1):
    return search_setup(cfg, oracles.sources(num_sources), EstimatorParams(num_weights=5),
                        harmonic_matrix(15, cfg))


def test_music_no_noise_subspace(table1_cfg):
    # The search setup refuses a source count that leaves no noise
    # subspace, before any covariance is searched.
    with pytest.raises(ConfigurationError, match="^5 sources need a search dimension above 5; "
                                                 "this geometry gives 5$"):
        _setup_1d(table1_cfg, 5)


def test_music_dimension_checks(table1_cfg):
    with pytest.raises(ConfigurationError):
        _search_one(np.eye(4, dtype=complex), np.eye(4, dtype=complex),
                    _setup_1d(table1_cfg))  # full width expects rows = 5
    with pytest.raises(ValidationError, match="matching square stacks"):
        music_search(np.eye(5, dtype=complex)[None], np.eye(4, dtype=complex)[None],
                     _setup_1d(table1_cfg))
    with pytest.raises(ValidationError):
        search_setup(table1_cfg, oracles.sources(1), EstimatorParams(
            num_weights=5, kind="2d", subarray_width=7),
            harmonic_matrix(15, table1_cfg))  # wider than cols


def test_1d_search_honours_subarray_width():
    # The azimuth-only search slides windows of the configured width:
    # 2 of the 6 columns leave 5 window positions on each of 5 rows.
    cfg = load_config(builtin_config_path("table1"), ["subarray_width=2"])
    setup = search_setup(cfg.surface, cfg.scene, cfg.estimator,
                         harmonic_matrix(cfg.max_harmonic, cfg.surface))
    assert setup.width == 2
    assert setup.positions == 5
    assert setup.lags.tolist() == _half_plane_lags(5, 5).tolist()
    assert setup.elevation_grid_deg.tolist() == [90.0]
    weights = make_ps_weights(cfg.estimator.num_weights, setup.width, 0)
    assert setup.window_gram.shape == (2 * 2, 25 * 25)
    assert smoothing_whitener(weights, setup.window_gram).shape == (25, 25)


def test_estimator_params_validation(table1_cfg):
    with pytest.raises(ValidationError):
        EstimatorParams(num_weights=0)
    with pytest.raises(ValidationError, match="kind"):
        EstimatorParams(num_weights=5, kind="3d")
    # An unset width is the full width: one window position, which a
    # 2-D search refuses.
    with pytest.raises(ConfigurationError, match="5 rows and 1 window positions"):
        search_grids(EstimatorParams(num_weights=5, kind="2d"), table1_cfg, oracles.sources(2))


@pytest.mark.parametrize("name, overrides, doas, fields", [
    ("table1", ["angles_deg = -90, 12"], ((-90.0, 90.0), (12.0, 90.0)), {}),
    ("table1", ["angles_deg = -22, 90"], ((-22.0, 90.0), (90.0, 90.0)), {}),
    ("table1", ["theta_grid_deg = -20, 20, 0.5"], None, {"theta_grid_deg": (-20.0, 20.0, 0.5)}),
    ("table1_2d", ["angles_deg = (-36, 90), (42, 45)"], ((-36.0, 90.0), (42.0, 45.0)), {}),
    ("table1_2d", ["phi_grid_deg = 0, 95, 0.5"], None, {"phi_grid_deg": (0.0, 95.0, 0.5)}),
    ("table1", ["theta_grid_deg = -179, 179, 0.1"], None,
     {"theta_grid_deg": (-179.0, 179.0, 0.1)}),
    ("table2", ["theta_grid_deg = -179, 179, 0.1"], None,
     {"theta_grid_deg": (-179.0, 179.0, 0.1)}),
    ("table1", ["rows = 1", "subarray_width = 3"], None, {"rows": 1, "subarray_width": 3}),
    ("table1_2d", ["phi_grid_deg = -30, 90, 0.5", "theta_grid_deg = -179, 179, 0.5"], None,
     {"phi_grid_deg": (-30.0, 90.0, 0.5), "theta_grid_deg": (-179.0, 179.0, 0.5)}),
    ("table1_2d", ["angles_deg = (-36, 20), (120, 45)", "theta_grid_deg = -270, 270, 0.5"],
     ((-36.0, 20.0), (120.0, 45.0)), {"theta_grid_deg": (-270.0, 270.0, 0.5)}),
], ids=["azimuth-on-start", "azimuth-on-stop", "azimuth-outside", "elevation-on-90",
        "elevation-grid-to-95", "rows-alone-past-90", "rows-alone-past-90-table2",
        "one-row-across-0", "elevation-grid-below-0", "azimuth-grid-past-360"])
def test_the_search_alone_refuses_a_scene_it_cannot_find(name, overrides, doas, fields):
    # The peak search reports strict interior maxima only, and cannot
    # tell apart two grid points that give the manifold the same
    # sin(theta)*sin(phi) along rows and cos(theta)*sin(phi) across
    # window positions. A direct caller of the search gets the refusal
    # a config gets when it is loaded, word for word.
    with pytest.raises(ConfigurationError) as loaded:
        load_config(builtin_config_path(name), overrides=overrides)
    cfg = load_config(builtin_config_path(name))
    scene = cfg.scene if doas is None else replace(
        cfg.scene, doas=tuple(Doa.from_degrees(*doa) for doa in doas))
    surface = replace(cfg.surface, rows=fields.get("rows", cfg.surface.rows))
    params = replace(cfg.estimator, **{k: v for k, v in fields.items() if k != "rows"})
    with pytest.raises(ConfigurationError) as searched:
        search_grids(params, surface, scene)
    assert str(searched.value) == str(loaded.value)
    with pytest.raises(ConfigurationError) as setup:
        search_setup(surface, scene, params, harmonic_matrix(cfg.max_harmonic, surface))
    assert str(setup.value) == str(loaded.value)


def test_the_search_takes_every_grid_it_can_tell_apart(table1_cfg):
    # Window positions tell theta from 180 - theta, so table1 with a
    # 3-column window searches -179 .. 179; one row takes either half
    # turn; a 1x1 surface's manifold is constant, so it has no peak to
    # mirror; and an end point past 90, never reported, is kept.
    cfg = load_config(builtin_config_path("table1"),
                      ["subarray_width=3", "theta_grid_deg=-179, 179, 0.1"])
    assert search_grids(cfg.estimator, cfg.surface, cfg.scene)[2][[0, -1]].tolist() == [
        -179.0, pytest.approx(179.0)]
    one_row = SurfaceConfig(1, 6, 1e9, 0.3)
    for grid in ((-180.0, 0.0, 0.5), (0.0, 180.0, 0.5)):
        search_grids(EstimatorParams(1, subarray_width=3, theta_grid_deg=grid), one_row,
                     oracles.sources(0))
    search_grids(EstimatorParams(1, theta_grid_deg=(-179.0, 179.0, 0.1)),
                 SurfaceConfig(1, 1, 1e9, 0.3), oracles.sources(0))
    assert search_grids(EstimatorParams(1, theta_grid_deg=(-90.0, 90.0, 7.0)), table1_cfg,
                        oracles.sources(2))[2][-1] == 92.0


def test_inclusive_grid():
    g = inclusive_grid(-90.0, 90.0, 0.1)
    assert g.size == 1801
    assert g[0] == -90.0 and g[-1] == pytest.approx(90.0)
    with pytest.raises(ValidationError):
        inclusive_grid(10.0, 0.0, 0.1)
    with pytest.raises(ValidationError):
        inclusive_grid(0.0, 10.0, -1.0)
    for bad in ((np.nan, 10.0, 0.1), (0.0, np.inf, 0.1), (-np.inf, 0.0, 0.1),
                (0.0, 10.0, np.nan), (0.0, 10.0, np.inf)):
        with pytest.raises(ValidationError, match="finite"):
            inclusive_grid(*bad)


def test_estimate_doa_matches_manual_chain(table1_cfg, table1_plan):
    scene = SourceScene(TWO, (1.0, 1.0))
    model = signal_model(table1_cfg, scene, table1_plan, "full")
    series, _ = oracles.seeded_synthesis(model, scene, 0.5, 31)
    um = harmonic_matrix(15, table1_cfg)
    bins = extract_snapshots(series, table1_plan, um.max_harmonic)
    setup = search_setup(table1_cfg, scene, EstimatorParams(num_weights=5), um)
    weights = make_ps_weights(5, 6, 17)
    auto = _estimate_one(bins, setup, weights)

    # The chain's stages by hand: recover, smooth and average the
    # snapshots, and whiten them with the weight bank's whitener.
    smoothed = smooth(recover_channels(bins, um), compensation(table1_cfg), weights, table1_cfg)
    w = whitener_inv_sqrt(smoothing_whitener(weights, setup.window_gram))
    manual = _search_one(whiten(ps_covariance(smoothed), w), w, setup)
    assert np.array_equal(auto.spectrum, manual.spectrum)
    assert auto.estimates == manual.estimates


def test_estimate_doa_single_source(table1_cfg, table1_plan):
    scene = SourceScene((Doa.from_degrees(22.0, 90.0),), (1.0,))
    params = EstimatorParams(num_weights=5)
    result = _search_noiseless(table1_cfg, table1_plan, scene, params, 2)
    (estimate,) = result.estimates[0]
    assert estimate.theta_deg == pytest.approx(22.0, abs=0.05)


def test_estimate_doa_checks_the_bin_stack(table1_cfg):
    setup = _setup_1d(table1_cfg)
    bins = [np.zeros((31, 5), dtype=complex)] * 2
    banks = [make_ps_weights(5, 6, 1), make_ps_weights(5, 6, 2)]
    # Too few lines, and one bin row per trial instead of a matrix.
    for wrong in ([b[:30] for b in bins], [b[0] for b in bins]):
        with pytest.raises(ValidationError, match=r"expected \(trials, 31, snapshots\)"):
            estimate_doa(wrong, setup, banks)
    with pytest.raises(ValidationError, match=r"shape \(1, 5, 6\); expected \(2, L, 6\)"):
        estimate_doa(bins, setup, banks[:1])


def test_estimate_doa_refuses_bins_that_do_not_stack(table1_cfg):
    # Trials of different snapshot counts give bin matrices of different
    # shapes, refused with a typed error rather than numpy's.
    setup = _setup_1d(table1_cfg)
    bins = [np.zeros((31, 5), dtype=complex), np.zeros((31, 4), dtype=complex)]
    banks = [make_ps_weights(5, 6, 1), make_ps_weights(5, 6, 2)]
    with pytest.raises(ValidationError, match=r"snapshot bins do not stack into one array; "
                                              r"expected \(trials, 31, snapshots\)"):
        estimate_doa(bins, setup, banks)


def test_estimate_doa_refuses_banks_of_another_width_or_rank(table1_cfg):
    # Each trial's bank is (L, width) at the setup's window width; a
    # bank of any other width or rank is refused before the chain runs.
    setup = search_setup(table1_cfg, oracles.sources(2),
                         EstimatorParams(num_weights=5, subarray_width=4),
                         harmonic_matrix(15, table1_cfg))
    bins = [np.ones((31, 5), dtype=complex)] * 2
    bank = make_ps_weights(5, 4, 1)
    estimate_doa(bins, setup, [bank, bank])
    for wrong in ([make_ps_weights(5, 6, 1)] * 2, [make_ps_weights(5, 3, 1)] * 2,
                  [bank[0], bank[0]], [bank[None], bank[None]], bank):
        with pytest.raises(ValidationError, match=r"banks have shape .*; expected \(2, L, 4\)"):
            estimate_doa(bins, setup, wrong)
    # Banks of different row counts do not stack at all.
    with pytest.raises(ValidationError, match=r"do not stack into one array; expected \(2, L, 4\)"):
        estimate_doa(bins, setup, [bank, bank[:3]])


@pytest.mark.parametrize("name", ["table1", "table1_2d"])
def test_estimate_doa_draws_nothing(monkeypatch, name):
    # Given bins and banks, the estimator returns the same batch with
    # every random generator refused.
    bins, banks = [], []
    for trial in range(3):
        _, setup, weights, trial_bins = _trial_zero(name, trial)
        bins.append(trial_bins)
        banks.append(weights)
    want = estimate_doa(bins, setup, banks)

    def no_draws(*args, **kwargs):
        raise AssertionError("the estimator drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    got = estimate_doa(bins, setup, banks)
    assert got.coef.tobytes() == want.coef.tobytes()
    assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
    assert got.estimates == want.estimates


@st.composite
def _smoothing_cases(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    width = draw(st.integers(1, cols))
    count = draw(st.integers(1, 4))
    max_harmonic = draw(st.integers(rows * cols // 2, rows * cols // 2 + 2))
    columns = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    return rows, cols, width, count, max_harmonic, columns, seed


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(_smoothing_cases())
def test_smooth_and_whitener_match_dense_oracles(case):
    # The stacked smoothing operator is the per-snapshot window loop and
    # the dense I_M kron band matrix; the whitener, from the setup's table
    # and from the smoothed recovery matrix alike, is C G C^H with
    # G = (U^H U)^-1 smoothed.
    rows, cols, width, count, max_harmonic, num_columns, seed = case
    cfg = SurfaceConfig(rows, cols, 1e9, 0.3)
    comp = compensation(cfg)
    weights = make_ps_weights(count, width, seed)
    rng = np.random.default_rng(seed)
    columns = rng.standard_normal((cfg.size, num_columns)) + 1j * rng.standard_normal(
        (cfg.size, num_columns))
    got = smooth(columns, comp, weights, cfg)
    assert got.shape == (num_columns, count, rows * (cols - width + 1))
    for k in range(num_columns):
        loop = oracles.loop_smooth(columns[:, k], comp, weights, cfg)
        dense = np.array([oracles.dense_smoothing(row, cfg) @ np.diag(comp) @ columns[:, k]
                          for row in weights])
        assert _rel_err(got[k], loop) < 1e-10
        assert _rel_err(got[k], dense) < 1e-10
    with pytest.raises(ConfigurationError):
        smooth(columns, comp, make_ps_weights(1, cols + 1, seed), cfg)

    try:
        um = harmonic_matrix(max_harmonic, cfg)
    except DegenerateCodingError:
        assume(False)
    # The explicit normal equations lose cond(U)^2 digits; compare on
    # mixes where they still hold 1e-10.
    assume(np.linalg.cond(um.entries) < 1e2)
    want = oracles.gram_whitener(weights, comp, um.entries, cfg)
    bin_space = oracles.bin_space_whitener(weights, comp, um, cfg)
    got = _whitener(weights, um, cfg)
    assert _rel_err(bin_space, want) < 1e-10
    assert _rel_err(got, want) < 1e-10
    assert _rel_err(got, bin_space) < 1e-10


@settings(max_examples=60, deadline=None)
@given(_smoothing_cases(), st.integers(1, 3))
def test_bins_times_smoothed_recovery_matrix_smooth_the_recovered_snapshots(case, trials):
    # Recovery, compensation and smoothing are linear, so smoothing the
    # recovered snapshots equals projecting their bins on V = smooth(B):
    # smooth(B b) = sum_i b_i V_i, for each trial's own weight bank.
    rows, cols, width, count, max_harmonic, snapshots, seed = case
    cfg = SurfaceConfig(rows, cols, 1e9, 0.3)
    try:
        um = harmonic_matrix(max_harmonic, cfg)
    except DegenerateCodingError:
        assume(False)
    comp = compensation(cfg)
    rng = np.random.default_rng(seed)
    weights = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (trials, count, width)))
    lines = 2 * max_harmonic + 1
    bins = rng.standard_normal((trials, lines, snapshots)) + 1j * rng.standard_normal(
        (trials, lines, snapshots))
    vectors = oracles.smoothed_recovery(um, comp, weights, cfg)
    assert vectors.shape == (trials, lines, count, rows * (cols - width + 1))
    assert vectors.flags.c_contiguous
    got = np.swapaxes(bins, -1, -2) @ vectors.reshape(trials, lines, -1)
    want = smooth(recover_channels(bins, um), comp, weights, cfg)
    assert _rel_err(got.reshape(want.shape), want) < 1e-12


def _trial_zero(name, trial=0, **estimator):
    """Config, search setup, weight bank and snapshot bins of a shipped point's trial (0, trial)."""
    cfg = resolve_experiment(load_config(builtin_config_path(name)))
    cfg = replace(cfg, estimator=replace(cfg.estimator, **estimator))
    context = build_context(cfg)
    _, _, bins, weights = draw_trial(context, 0, trial)
    return cfg, context.search, weights, bins


@pytest.mark.parametrize("name, grids", [
    ("table1", {}),
    ("table1_2d", {"theta_grid_deg": (-90.0, 90.0, 1.0), "phi_grid_deg": (0.0, 90.0, 1.0)}),
])
def test_one_chain_matches_separate_1d_and_2d_formulas(name, grids):
    cfg, setup, drawn, bins = _trial_zero(name, **grids)
    got = _estimate_one(bins, setup, drawn)
    params = cfg.estimator
    width = cfg.surface.cols if params.subarray_width is None else params.subarray_width
    weights = make_ps_weights(params.num_weights, width, trial_seeds(cfg.seed, 0, 0)[2])
    assert drawn.tobytes() == weights.tobytes()
    thetas, phis, spectrum, estimates = oracles.separate_chain(
        bins, setup.harmonics.entries, cfg.surface, params, cfg.scene,
        compensation(cfg.surface), weights)
    assert np.array_equal(setup.theta_grid_deg, thetas)
    assert (setup.elevation_grid_deg.size == 1) == (phis is None)
    if phis is not None:
        assert np.array_equal(setup.elevation_grid_deg, phis)
    # The oracle's azimuth-only spectrum is the one-elevation column.
    want = spectrum.reshape(thetas.size, -1)
    assert got.spectrum.shape == (1, *want.shape)
    assert np.max(np.abs(got.spectrum[0] - want) / want) < 1e-9
    assert got.estimates == (estimates,)


@pytest.mark.parametrize("name", ["table1", "table1_2d"])
def test_spectrum_csv_matches_the_per_point_writer(tmp_path, name):
    _, setup, weights, bins = _trial_zero(name)
    result = _estimate_one(bins, setup, weights)
    write_spectrum_csv(result, str(tmp_path / "got.csv"))
    oracles.write_spectrum_csv_per_point(result, str(tmp_path / "want.csv"))
    got, want = (tmp_path / "got.csv").read_bytes(), (tmp_path / "want.csv").read_bytes()
    assert got.count(b"# estimate,") == len(result.estimates[0]) > 0
    assert got == want


def test_spectrum_csv_refuses_a_batch_before_evaluating_its_spectrum(tmp_path, monkeypatch):
    _, setup, weights, bins = _trial_zero("table1")
    batch = estimate_doa([bins] * 3, setup, [weights] * 3)

    def unexpected(*args):
        raise AssertionError("the spectrum was evaluated")

    monkeypatch.setattr(msdoa.estimator, "_spectrum", unexpected)
    with pytest.raises(ValidationError, match="one trial; the batch has 3"):
        write_spectrum_csv(batch, str(tmp_path / "got.csv"))
    assert not (tmp_path / "got.csv").exists()


def test_whitener_decomposed_once_per_estimate(table1_cfg, table1_plan, monkeypatch):
    # One eigendecomposition of the whitener (shared by whitening and
    # the search) and one of the whitened covariance.
    scene = SourceScene(TWO, (1.0, 1.0))
    model = signal_model(table1_cfg, scene, table1_plan, "full")
    series, _ = oracles.seeded_synthesis(model, scene, 0.5, 31)
    um = harmonic_matrix(15, table1_cfg)
    bins = extract_snapshots(series, table1_plan, um.max_harmonic)
    setup = search_setup(table1_cfg, scene, EstimatorParams(num_weights=5), um)
    weights = make_ps_weights(5, 6, 17)
    whitener = _whitener(weights, um, table1_cfg)
    inputs = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        inputs.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    _estimate_one(bins, setup, weights)
    assert len(inputs) == 2
    assert sum(np.array_equal(a, whitener[None]) for a in inputs) == 1


@st.composite
def _permuted_scenes(draw):
    two_d = draw(st.booleans())
    count = draw(st.integers(1, 3))
    thetas = draw(st.lists(st.integers(-40, 40).map(lambda t: 2.0 * t), min_size=count,
                           max_size=count, unique=True))
    phis = draw(st.lists(st.integers(10, 40).map(lambda p: 2.0 * p), min_size=count,
                         max_size=count)) if two_d else [90.0] * count
    powers = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=count, max_size=count))
    order = draw(st.permutations(range(count)))
    return two_d, list(zip(thetas, phis, powers)), order


@settings(max_examples=12, deadline=None)
@given(_permuted_scenes())
def test_estimates_invariant_under_source_permutation(table1_cfg, table1_plan, case):
    # Noiseless ideal synthesis puts every peak on its source, whatever
    # amplitudes the reordered scene draws.
    two_d, sources, order = case
    if two_d:
        params = EstimatorParams(num_weights=5, kind="2d", subarray_width=4,
                                 theta_grid_deg=(-90.0, 90.0, 1.0),
                                 phi_grid_deg=(0.0, 90.0, 1.0))
    else:
        params = EstimatorParams(num_weights=5)

    def estimates(srcs):
        scene = SourceScene(tuple(Doa.from_degrees(t, p) for t, p, _ in srcs),
                            tuple(w for _, _, w in srcs))
        result = _search_noiseless(table1_cfg, table1_plan, scene, params, 2)
        return set(result.estimates[0])

    assert estimates([sources[i] for i in order]) == estimates(sources)


@st.composite
def _search_cases(draw):
    two_d = draw(st.booleans())
    # A 2-D search needs 2 rows and 2 window positions, so one row and
    # full-width windows come from 1-D draws alone.
    rows, cols = draw(st.integers(1 + two_d, 4)), draw(st.integers(1 + two_d, 4))
    # An unset width, which a 2-D search refuses, is the full surface width.
    unset = not two_d and draw(st.booleans())
    width = cols if unset else draw(st.integers(1, cols - two_d))
    dim = rows * (cols - width + 1)
    # One row with several window positions sees only cos(theta), and the
    # search refuses an azimuth grid on both sides of 0 there.
    start = 0.0 if rows == 1 and width < cols else draw(st.sampled_from([-90.0, -75.0, -40.0]))
    theta_grid = (start, draw(st.sampled_from([30.0, 60.0, 90.0])),
                  draw(st.sampled_from([2.5, 3.0, 5.0, 7.0])))
    # A 2-D search refuses an elevation grid past 90; 5, 90, 15 would reach 95.
    phi_grid = draw(st.sampled_from([(0.0, 90.0, 5.0), (0.0, 90.0, 7.5), (0.0, 90.0, 15.0),
                                     (5.0, 90.0, 5.0), (5.0, 90.0, 7.5)]))
    params = EstimatorParams(
        num_weights=2, kind="2d" if two_d else "1d", subarray_width=None if unset else width,
        theta_grid_deg=theta_grid, phi_grid_deg=phi_grid)
    # The search arithmetic depends on the source count alone, and the
    # search refuses a source on or outside a searched grid's end points:
    # the K azimuths are spread strictly inside the azimuth grid, and a
    # 2-D scene's elevation lies strictly inside the elevation grid.
    count = draw(st.integers(0, dim - 1))
    phi = draw(st.sampled_from([20.0, 55.0] if two_d else [20.0, 55.0, 90.0]))
    thetas = np.linspace(*inclusive_grid(*theta_grid)[[0, -1]], count + 2)[1:-1]
    scene = SourceScene(tuple(Doa.from_degrees(t, phi) for t in thetas), (1.0,) * count)
    trials = draw(st.integers(1, 3))
    return rows, cols, scene, params, dim, trials, draw(st.integers(0, 2**16))


def _random_hermitian(rng, trials, dim, extra):
    x = rng.standard_normal((trials, dim, dim + extra)) + 1j * rng.standard_normal(
        (trials, dim, dim + extra))
    h = x @ np.swapaxes(x.conj(), -1, -2)
    return 0.5 * (h + np.swapaxes(h.conj(), -1, -2))


def _surface_setup(rows, cols, scene, params):
    cfg = SurfaceConfig(rows, cols, 1e9, 0.3)
    try:
        harmonics = harmonic_matrix(rows * cols, cfg)
    except DegenerateCodingError:
        assume(False)
    return search_setup(cfg, scene, params, harmonics)


@settings(max_examples=80, deadline=None)
@given(_search_cases())
@example((1, 1, oracles.sources(0), EstimatorParams(num_weights=2), 1, 2, 0))
@example((1, 3, SourceScene((Doa.from_degrees(45.0, 55.0),), (1.0,)),
          EstimatorParams(num_weights=2, subarray_width=1, theta_grid_deg=(0.0, 90.0, 5.0)),
          3, 2, 1))
@example((3, 2, oracles.sources(1, 20.0),
          EstimatorParams(num_weights=2, subarray_width=2, theta_grid_deg=(-90.0, 90.0, 5.0)),
          3, 2, 2))
@example((2, 3, oracles.sources(1, 55.0), EstimatorParams(
    num_weights=2, kind="2d", subarray_width=2, theta_grid_deg=(-90.0, 90.0, 5.0),
    phi_grid_deg=(0.0, 90.0, 15.0)), 4, 2, 3))
def test_lag_polynomial_matches_the_projection_search(case):
    # The lag polynomial moves spectra in the last bits only, and no
    # estimate: covers one element (no lags), one row (column lags
    # only), full-width windows (row lags only) and the smallest 2-D
    # grid, two rows by two window positions.
    rows, cols, scene, params, dim, trials, seed = case
    setup = _surface_setup(rows, cols, scene, params)
    rng = np.random.default_rng(seed)
    whitened = _random_hermitian(rng, trials, dim, 2)
    w_inv_sqrt = _random_hermitian(rng, trials, dim, 1) + np.eye(dim)
    got = music_search(whitened, w_inv_sqrt, setup)
    spectra, estimates = oracles.projection_search(whitened, w_inv_sqrt, setup)
    assert got.spectrum.shape == spectra.shape
    assert np.max(np.abs(got.spectrum - spectra) / spectra) < 1e-9
    for trial_estimates, spectrum, want in zip(got.estimates, spectra, estimates, strict=True):
        _assert_same_estimates(trial_estimates, want, spectrum, setup)


def _assert_same_estimates(got, want, spectrum, setup):
    """Equal estimates, except that peaks whose spectrum values tie within
    1e-9 may rank in either order."""
    thetas, phis = setup.theta_grid_deg, setup.elevation_grid_deg

    def value(doa):
        return spectrum[np.flatnonzero(thetas == doa.theta_deg)[0],
                        np.flatnonzero(phis == doa.phi_deg)[0]]

    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w or abs(value(g) - value(w)) <= 1e-9 * value(w)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**16))
def test_lag_fold_evaluates_the_hermitian_form(rows, out_cols, seed):
    # [tr Q, 2 Re c_h, -2 Im c_h] times the lag basis is a^H Q a.
    cfg = SurfaceConfig(rows, out_cols, 1e9, 0.3)
    dim = rows * out_cols
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q = q + q.conj().T  # Hermitian, not definite
    lags = _half_plane_lags(rows, out_cols)
    sums = np.append(q.ravel(), 0.0)[_lag_fold(lags)].sum(axis=1)
    coef = np.concatenate([sums[:1].real, 2.0 * sums[1:].real, -2.0 * sums[1:].imag])
    thetas = np.deg2rad(rng.uniform(-90.0, 90.0, 17))
    phi = np.deg2rad(rng.uniform(0.0, 90.0))
    scale = cfg.omega0 * cfg.spacing_m * np.sin(phi) / cfg.wave_speed
    directions = np.stack([np.sin(thetas), np.cos(thetas)])
    basis = _lag_basis(lags, directions, scale)
    # The table-driven basis has the bits of the whole-block slicing form.
    assert basis.tobytes() == oracles.slicing_lag_basis(rows, out_cols, directions, scale).tobytes()
    a = oracles.manifold(thetas, phi, out_cols, cfg)
    want = np.einsum("pt,pq,qt->t", a.conj(), q, a)
    assert np.max(np.abs(coef @ basis - want)) < 1e-12 * np.sum(np.abs(q))


@pytest.mark.parametrize("name", ["table1_2d", "table1", "table2"])
def test_lag_basis_keeps_the_bits_of_the_slicing_form(name):
    # Every elevation of a shipped config: the basis read off the one lag
    # table is byte-equal to the one that wrote the lag order into slices.
    setup = build_context(load_config(builtin_config_path(name))).search
    for phi in np.deg2rad(setup.elevation_grid_deg):
        scale = _phase_scale(setup.surface, phi)
        got = _lag_basis(setup.lags, setup.directions, scale)
        want = oracles.slicing_lag_basis(setup.surface.rows, setup.positions,
                                         setup.directions, scale)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("params, source", [
    (EstimatorParams(num_weights=5, theta_grid_deg=(-90.0, 90.0, 0.5)), (-22.0, 90.0)),
    (EstimatorParams(num_weights=5, kind="2d", subarray_width=4,
                     theta_grid_deg=(-90.0, 90.0, 1.0), phi_grid_deg=(0.0, 90.0, 1.0)),
     (-36.0, 20.0)),
])
def test_noiseless_source_on_a_grid_point_is_found(table1_cfg, params, source):
    # The null of a noiseless on-grid source is zero up to rounding,
    # where the polynomial may land at or below zero: the spectrum stays
    # finite and positive, and the peak is the source.
    scene = SourceScene((Doa.from_degrees(*source),), (1.0,))
    setup = search_setup(table1_cfg, scene, params, harmonic_matrix(15, table1_cfg))
    a = oracles.manifold(np.deg2rad([source[0]]), np.deg2rad(source[1]), setup.positions,
                         table1_cfg)
    whitened = (a @ a.conj().T)[None]
    w_inv_sqrt = np.eye(a.shape[0], dtype=complex)[None]
    got = music_search(whitened, w_inv_sqrt, setup)
    assert np.all(np.isfinite(got.spectrum)) and np.all(got.spectrum > 0)
    _, estimates = oracles.projection_search(whitened, w_inv_sqrt, setup)
    assert got.estimates[0] == estimates[0] == (Doa.from_degrees(*source),)


# Adjacent doubles with one reciprocal: TWIN_NEXT is the double after
# TWIN, so a strict minimum of the denominators can tie in the spectrum.
TWIN = 1.8132702392002724
TWIN_NEXT = float(np.nextafter(TWIN, 2.0))
# Denominators that map to few spectrum values: -1 and 0 both clamp to
# 1/tiny, the twins share a reciprocal, and NaN is no extremum.
SPECIAL_DENOMINATORS = np.array([-1.0, 0.0, TWIN, TWIN_NEXT, np.nan])


def _spectra(denominators):
    """The spectrum the search forms from its denominators: 1/max(d, tiny)."""
    return 1.0 / np.maximum(denominators, np.finfo(float).tiny)


def _denominators(draw, rng, shape, levels):
    """Denominators at ``levels`` positive levels, some swapped for special values.

    Few levels give exact ties between peaks and plateaus; many give
    distinct values.
    """
    values = rng.integers(1, levels + 1, shape).astype(float)
    swap = rng.random(shape) < draw(st.sampled_from([0.0, 0.1, 0.4]))
    values[swap] = rng.choice(SPECIAL_DENOMINATORS, np.count_nonzero(swap))
    return values


@st.composite
def _denominator_grids(draw):
    """Random (trials, azimuths, elevations) spectrum denominators and a peak count."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(3, 9)),
             draw(st.sampled_from([1, 2, 3, 4, 7])))
    levels = draw(st.sampled_from([2, 3, 4, 10**6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return _denominators(draw, rng, shape, levels), draw(st.integers(0, 8))


def _grid(trials, thetas, phis, points):
    """Denominators of a zero spectrum (d = inf) with the given points set."""
    values = np.full((trials, thetas, phis), np.inf)
    for t, i, j, v in points:
        values[t, i, j] = v
    return values


@settings(max_examples=300, deadline=None)
@given(_denominator_grids())
# Two equal peaks, the one streamed first at the higher azimuth.
@example((_grid(1, 5, 5, [(0, 3, 1, 1.0), (0, 1, 3, 1.0)]), 2))
# A plateau of two equal neighbors is no strict maximum; one peak left.
@example((_grid(2, 6, 3, [(0, 2, 1, 0.5), (0, 3, 1, 0.5), (1, 4, 1, 1.0)]), 3))
# One elevation: the lone row is both first and last, and is searched
# along azimuth alone, so its interior maximum is a peak.
@example((_grid(1, 5, 1, [(0, 2, 0, 1.0), (0, 3, 0, 1.0)]), 1))
# A strict minimum of the denominators whose elevation neighbor has the
# same reciprocal is no peak.
@example((_grid(1, 3, 3, [(0, 1, 1, TWIN), (0, 1, 2, TWIN_NEXT)]), 1))
# Denominators at or below zero clamp to one spectrum value: -1 is a
# strict minimum of d beside 0 but no peak; the lone -1 is.
@example((_grid(1, 7, 3, [(0, 2, 1, -1.0), (0, 3, 1, 0.0), (0, 5, 1, -1.0)]), 2))
# A NaN is no peak, and its neighbors fail their test against it.
@example((_grid(1, 6, 3, [(0, 1, 1, np.nan), (0, 2, 1, 1.0), (0, 4, 1, 2.0)]), 2))
def test_streamed_peaks_match_the_full_grid_oracle(case):
    values, count = case
    # One (trials, azimuths) row of denominators per elevation, as the
    # search streams them; the oracle ranks the spectrum they give.
    got = _ranked_peaks(iter(np.moveaxis(values, -1, 0)), count)
    assert len(got) == values.shape[0]
    for spectrum, (thetas, phis) in zip(_spectra(values), got):
        want_thetas, want_phis = oracles.ranked_peaks(spectrum, count)
        assert np.array_equal(thetas, want_thetas)
        assert np.array_equal(phis, want_phis)


@st.composite
def _peak_rows(draw):
    """A (trials, azimuths) row of denominators with its two neighbor rows, or alone.

    Few value levels give ties and plateaus. The neighbors may be the
    grid's edge rows: constant at zero, whose clamped spectrum no point
    of the row beats, or at the top level, whose spectrum none is below.
    """
    trials, thetas = draw(st.integers(1, 5)), draw(st.integers(3, 12))
    levels = draw(st.sampled_from([2, 3, 5, 10**6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = _denominators(draw, rng, (3, trials, thetas), levels)
    edge = draw(st.sampled_from([None, 0.0, float(levels)]))
    if edge is not None:
        rows[draw(st.sampled_from([0, 2]))] = edge
    return rows[1], *((None, None) if draw(st.booleans()) else (rows[0], rows[2]))


@settings(max_examples=300, deadline=None)
@given(_peak_rows())
# A plateau of two equal neighbors in the middle row is no strict maximum.
@example((np.array([[2.0, 0.5, 0.5, 2.0, 1.0, 2.0]]), None, None))
# Exact ties between trials and the end azimuths.
@example((np.array([[1.0, 3.0, 1.0, 3.0, 1.0], [1.0, 3.0, 1.0, 3.0, 1.0]]),
          np.full((2, 5), 4.0), np.full((2, 5), 4.0)))
# Adjacent denominators with one reciprocal, along azimuth and along
# elevation: each middle point is a strict minimum of d and no peak.
@example((np.array([[2.0, TWIN_NEXT, TWIN, 2.0, 3.0]]), None, None))
@example((np.array([[3.0, TWIN, 3.0]]), np.array([[3.0, TWIN_NEXT, 3.0]]), np.full((1, 3), 3.0)))
# Values at or below zero clamp to one spectrum value.
@example((np.array([[1.0, -1.0, 0.0, 1.0, -1.0, 1.0]]), None, None))
# NaN, at a candidate and beside one.
@example((np.array([[1.0, np.nan, 1.0, 0.5, 1.0], [np.nan, 0.5, 1.0, 0.5, 1.0]]),
          None, None))
def test_flat_index_peak_scan_matches_the_2d_nonzero_scan(case):
    row, below, above = case
    got = _row_peaks(row, below, above)
    want = oracles.nonzero_row_peaks(
        _spectra(row), *((None, None) if below is None else (_spectra(below), _spectra(above))))
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


@functools.cache
def _coarse_setup(name):
    """A shipped config's search setup, on every 30th elevation of its grid."""
    setup = build_context(load_config(builtin_config_path(name))).search
    return replace(setup, elevation_grid_deg=setup.elevation_grid_deg[::30])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["table1_2d", "table2"]), st.integers(1, 20), st.integers(0, 2**16))
def test_blocked_denominators_do_not_depend_on_the_batch(name, trials, seed):
    # Every product has the same (GEMM_ROWS, 2H+1, azimuths) shape, so a
    # trial's rows have the same bits alone and at any position of a batch.
    setup = _coarse_setup(name)
    terms = 2 * setup.fold.shape[0] - 1
    coef = np.random.default_rng(seed).standard_normal((trials, terms))
    batch = list(_spectrum_rows(coef, setup))
    assert len(batch) == setup.elevation_grid_deg.size
    for t in range(trials):
        alone = list(_spectrum_rows(coef[t : t + 1], setup))
        for got, want in zip(batch, alone, strict=True):
            assert got[t].tobytes() == want[0].tobytes()


def test_search_holds_rows_and_evaluates_a_spectrum_once():
    # The full spectra of 30 table1_2d trials would take 15.7 MB; the
    # streamed search holds three elevation rows of them.
    setup = build_context(load_config(builtin_config_path("table1_2d"))).search
    trials, thetas, phis = 30, setup.theta_grid_deg.size, setup.elevation_grid_deg.size
    assert 8 * trials * thetas * phis > 15e6
    dim = setup.surface.rows * setup.positions
    rng = np.random.default_rng(11)
    whitened = _random_hermitian(rng, trials, dim, 2)
    w_inv_sqrt = _random_hermitian(rng, trials, dim, 1) + np.eye(dim)
    tracemalloc.start()
    try:
        got = music_search(whitened, w_inv_sqrt, setup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6
    spectrum = music_search(whitened[7:8], w_inv_sqrt[7:8], setup).spectrum
    assert spectrum.shape == (1, thetas, phis)
    # The batch's spectra, evaluated together, have the trial's bits.
    assert got.spectrum[7].tobytes() == spectrum[0].tobytes()


def test_search_footprint_fits_its_byte_model():
    # Beyond its handed-in stacks, each trial a table1_2d search takes
    # may add no more than the denominator rows it holds (three
    # elevations with the next elevation's): the eigenvector,
    # noise-basis and Gram stacks are dropped before rows are evaluated.
    setup = build_context(load_config(builtin_config_path("table1_2d"))).search
    dim = setup.surface.rows * setup.positions
    peaks = []
    for trials in (10, 100):
        rng = np.random.default_rng(11)
        whitened = _random_hermitian(rng, trials, dim, 2)
        w_inv_sqrt = _random_hermitian(rng, trials, dim, 1) + np.eye(dim)
        tracemalloc.start()
        try:
            music_search(whitened, w_inv_sqrt, setup)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 90 <= 8 * 4 * setup.theta_grid_deg.size


# tracemalloc peaks of one estimate_doa call on 30, 32 and 48 trials,
# recorded once each trial's whitener came from the setup's table and
# the chain ran once per batch (numpy 2.4 on x86-64 Linux).
CHAIN_PEAK_BYTES = {"table1_2d": (30, 1_060_165), "table2": (32, 1_012_170),
                    "table1": (48, 920_814)}
# The same for a whole 100-trial table1_2d point, one search batch,
# recorded when the chain first ran in sub-batches of its own.
POINT_PEAK_BYTES = 2_786_107


def _estimate_doa_peak(name, trials):
    """tracemalloc peak of one estimate_doa call on the first ``trials`` trials."""
    cfg = resolve_experiment(load_config(builtin_config_path(name)))
    context = build_context(cfg)
    bins, banks = [], []
    for t in range(trials):
        _, _, trial_bins, weights = draw_trial(context, 0, t)
        bins.append(trial_bins)
        banks.append(weights)
    tracemalloc.start()
    try:
        estimate_doa(bins, context.search, banks)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(CHAIN_PEAK_BYTES))
def test_estimate_doa_peak_memory_holds(name):
    # The chain's stacks are dropped before the search, so a batch of the
    # size the bound was recorded at peaks no higher than it did.
    trials, peak = CHAIN_PEAK_BYTES[name]
    assert _estimate_doa_peak(name, trials) <= 1.02 * peak


def test_a_whole_2d_point_peak_memory_holds():
    # The chain holds no per-trial copy of the recovery matrix and hands
    # on only the whitened stacks, and the search holds rows, so all 100
    # trials of a point fit the peak once recorded for 30-trial sub-batches.
    assert BATCH_TRIALS >= 100
    assert _estimate_doa_peak("table1_2d", 100) <= 1.02 * POINT_PEAK_BYTES
