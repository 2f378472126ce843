"""Angle error bound: finite-difference oracles and scaling laws."""

import re

import numpy as np
import pytest

from msdoa import (
    ConfigurationError,
    Doa,
    MsdoaError,
    SamplingPlan,
    SourceScene,
    SurfaceConfig,
    UnidentifiableParameterError,
    ValidationError,
    crb_core,
    harmonic_matrix,
    signal_model,
    steering_derivatives,
    steering_vector,
    synthesize_received,
)
from msdoa.crb import crb
from msdoa.harness import build_context, draw_trial
from oracles import kron_crb, stacked_crb

C0 = 299792458.0


def _tiny_setup():
    d = C0 / 2e9
    cfg = SurfaceConfig(2, 2, 1e9, 2 * d)
    plan = SamplingPlan(1e6, 1, 2, 1.6e-5)  # 16 points per snapshot
    scene = SourceScene((Doa.from_degrees(22.0, 70.0),), (1.0,))
    rng = np.random.default_rng(17)
    amps = (rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2)))
    amps /= np.sqrt(2)
    return cfg, plan, scene, amps


def _core(cfg, scene, max_harmonic=2, known_elevations=False):
    return crb_core(cfg, scene, harmonic_matrix(max_harmonic, cfg), known_elevations)


def test_steering_derivatives_match_finite_differences(table1_cfg):
    doa = Doa.from_degrees(-37.0, 55.0)
    got = steering_derivatives(doa, table1_cfg)
    h = 1e-6
    for j in range(2):
        up = Doa(*np.rad2deg([doa.theta + (h if j == 0 else 0.0),
                              doa.phi + (h if j == 1 else 0.0)]))
        dn = Doa(*np.rad2deg([doa.theta - (h if j == 0 else 0.0),
                              doa.phi - (h if j == 1 else 0.0)]))
        fd = (steering_vector(up, table1_cfg)
              - steering_vector(dn, table1_cfg)) / (2.0 * h)
        assert np.max(np.abs(got[:, j] - fd)) / np.max(np.abs(fd)) < 1e-5


def test_bound_matches_finite_difference_fisher():
    # Brute-force Fisher: differentiate the stacked snapshot means with
    # respect to angles and the re/im amplitude parts, then invert.
    cfg, plan, scene, amps = _tiny_setup()
    sigma2 = 0.3
    max_harmonic = 2
    res = crb(_core(cfg, scene, max_harmonic), plan, sigma2, amps)

    um = harmonic_matrix(max_harmonic, cfg).entries
    num_snap = plan.num_snapshots

    def mean_vec(params):
        theta, phi = params[0], params[1]
        sv = (np.array(params[2:2 + num_snap])
              + 1j * np.array(params[2 + num_snap:]))
        a = steering_vector(Doa(*np.rad2deg([theta, phi])), cfg)
        return np.concatenate([um @ a * sv[i] for i in range(num_snap)])

    doa = scene.doas[0]
    params0 = ([doa.theta, doa.phi]
               + list(amps[0].real) + list(amps[0].imag))
    h = 1e-6
    cols = []
    for j in range(len(params0)):
        up = list(params0)
        dn = list(params0)
        up[j] += h
        dn[j] -= h
        cols.append((mean_vec(up) - mean_vec(dn)) / (2.0 * h))
    jac = np.column_stack(cols)
    q_len = plan.points_per_snapshot
    fisher = (2.0 * q_len / (cfg.size * sigma2)) * np.real(jac.conj().T @ jac)
    oracle = np.linalg.inv(fisher)[:2, :2]
    assert np.max(np.abs(res.matrix - oracle)) / np.max(np.abs(oracle)) < 1e-6


def test_fast_path_equals_checked_path():
    # The per-snapshot Hadamard form equals the bound of the explicitly
    # stacked observation to 1e-8 relative, with and without elevations.
    cfg, plan, scene, amps = _tiny_setup()
    for known in (False, True):
        fast = crb(_core(cfg, scene, known_elevations=known), plan, 0.3, amps).matrix
        stacked = stacked_crb(cfg, scene, plan, 2, 0.3, amps, known_elevations=known)
        assert np.max(np.abs(fast - stacked)) <= 1e-8 * np.max(np.abs(stacked))


def test_bound_scales_exactly():
    cfg, plan, scene, amps = _tiny_setup()
    base = crb(_core(cfg, scene), plan, 0.3, amps).matrix
    double_noise = crb(_core(cfg, scene), plan, 0.6, amps).matrix
    assert np.allclose(double_noise, 2.0 * base, rtol=1e-12)
    # Doubling the sample rate doubles Q and halves the bound.
    plan2 = SamplingPlan(2e6, 1, 2, 1.6e-5)
    double_q = crb(_core(cfg, scene), plan2, 0.3, amps).matrix
    assert np.allclose(double_q, 0.5 * base, rtol=1e-12)


def test_bound_symmetric_psd():
    cfg, plan, scene, amps = _tiny_setup()
    res = crb(_core(cfg, scene), plan, 0.3, amps)
    assert np.array_equal(res.matrix, res.matrix.T)
    assert np.all(np.linalg.eigvalsh(res.matrix) > 0)
    assert res.theta_bounds[0] == res.matrix[0, 0]


def test_common_phase_invariance():
    cfg, plan, scene, amps = _tiny_setup()
    a = crb(_core(cfg, scene), plan, 0.3, amps).matrix
    b = crb(_core(cfg, scene), plan, 0.3, amps * np.exp(0.83j)).matrix
    assert np.max(np.abs(a - b)) / np.max(np.abs(a)) < 1e-10


def test_two_source_bound_grows():
    # A nearby interferer inflates the azimuth bound of the first source.
    cfg, plan, _, _ = _tiny_setup()
    rng = np.random.default_rng(8)
    one = SourceScene((Doa.from_degrees(22.0, 70.0),), (1.0,))
    two = SourceScene((Doa.from_degrees(22.0, 70.0),
                       Doa.from_degrees(30.0, 70.0)), (1.0, 1.0))
    amps1 = (rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4)))
    amps2 = np.vstack([amps1, rng.standard_normal((1, 4))
                       + 1j * rng.standard_normal((1, 4))])
    plan4 = SamplingPlan(1e6, 1, 4, 1.6e-5)
    b1 = crb(_core(cfg, one), plan4, 0.3, amps1)
    b2 = crb(_core(cfg, two), plan4, 0.3, amps2)
    assert b2.theta_bounds[0] > b1.theta_bounds[0]


def test_zenith_is_unidentifiable():
    # At phi = 0 azimuth has no effect on the mean, whatever the draw, so
    # the bound is refused as a configuration before any Fisher matrix.
    cfg, plan, _, amps = _tiny_setup()
    scene = SourceScene((Doa.from_degrees(10.0, 0.0),), (1.0,))
    with pytest.raises(ConfigurationError):
        crb(_core(cfg, scene), plan, 0.3, amps)


def test_core_rejects_an_angle_no_draw_can_bound(table1_cfg):
    # The Fisher matrix is the core times the amplitude covariance,
    # entry by entry, so a zero on the core's diagonal is a zero in
    # every Fisher matrix: the core is rejected before any draw.
    cfg, _, _, _ = _tiny_setup()
    with pytest.raises(ConfigurationError, match="azimuth of source 1"):
        _core(cfg, SourceScene((Doa.from_degrees(10.0, 0.0),), (1.0,)))
    in_plane = SourceScene((Doa.from_degrees(-22.0, 90.0),
                            Doa.from_degrees(12.0, 90.0)), (1.0, 1.0))
    with pytest.raises(ConfigurationError, match="elevation of source"):
        _core(table1_cfg, in_plane, 15)
    assert _core(table1_cfg, in_plane, 15, known_elevations=True).core.shape == (2, 2)


def test_msdoa_crb_is_the_module():
    # The package re-exports the bound's builders, not the function that
    # shares the module's name, so the import binds the module.
    import msdoa.crb as module

    assert hasattr(module, "crb_core")


def test_bound_input_checks():
    cfg, plan, scene, amps = _tiny_setup()
    with pytest.raises(ValidationError, match="at least one source"):
        crb_core(cfg, SourceScene((), ()), harmonic_matrix(2, cfg))
    # Synthesis refuses the noise variances the bound refuses.
    model = signal_model(cfg, scene, plan, "full")
    for stage in (lambda v: crb(_core(cfg, scene), plan, v, amps),
                  lambda v: synthesize_received(model, v, amps, 1)):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValidationError, match="noise_variance"):
                stage(bad)


def test_amplitude_shape_check():
    cfg, plan, scene, _ = _tiny_setup()
    with pytest.raises(Exception):
        crb(_core(cfg, scene), plan, 0.3, np.ones((2, 2), dtype=complex))


def test_amplitudes_that_do_not_stack_are_refused():
    # Amplitude matrices of different snapshot counts are refused with a
    # typed error rather than numpy's.
    cfg, plan, scene, amps = _tiny_setup()
    with pytest.raises(ValidationError, match=re.escape(
            f"amplitudes do not stack into one array; expected {amps.shape} or a stack of them")):
        crb(_core(cfg, scene), plan, 0.3, [amps, amps[:, :-1]])


def test_stacked_bound_matches_the_kron_form_bit_for_bit(chain_config):
    # Each trial of a stacked bound is the bound of its draw alone, and
    # that is the np.kron form of the Hadamard factor, to the last bit.
    cfg = chain_config
    context = build_context(cfg)
    amps = np.stack([draw_trial(context, 0, t)[1] for t in range(4)])
    stacked = crb(context.bound, cfg.plan, cfg.noise_variance, amps)
    assert stacked.matrix.shape[0] == stacked.theta_bounds.shape[0] == 4
    for t, draw in enumerate(amps):
        alone = crb(context.bound, cfg.plan, cfg.noise_variance, draw)
        want = kron_crb(context.bound, cfg.plan, cfg.noise_variance, draw)
        assert stacked.matrix[t].tobytes() == alone.matrix.tobytes() == want.tobytes()
        assert stacked.theta_bounds[t].tobytes() == alone.theta_bounds.tobytes()


@pytest.mark.parametrize(
    ("known_elevations", "first", "scale"),
    [(False, 1, 0.0), (True, 0, 1e155)],
    ids=["silent", "overflowing"],
)
def test_a_singular_draw_raises_in_a_stack_as_it_does_alone(known_elevations, first, scale):
    cfg, plan, _, _ = _tiny_setup()
    scene = SourceScene((Doa.from_degrees(22.0, 70.0), Doa.from_degrees(-30.0, 50.0)),
                        (1.0, 1.0))
    core = crb_core(cfg, scene, harmonic_matrix(3, cfg), known_elevations)
    rng = np.random.default_rng(5)
    amps = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    # Silenced, the second source's angles carry nothing. Scaled past the
    # float range, both sources' powers overflow the Fisher matrix, whose
    # eigenvalues are then NaN.
    amps[1, first:] *= scale
    amps[3] = 0.0
    with pytest.raises(UnidentifiableParameterError) as alone, np.errstate(all="ignore"):
        crb(core, plan, 0.3, amps[1])
    with pytest.raises(UnidentifiableParameterError) as stacked, np.errstate(all="ignore"):
        crb(core, plan, 0.3, amps)
    assert str(stacked.value) == str(alone.value)
    # The first singular trial is the one reported.
    assert "0.000e+00 .. 0.000e+00" not in str(stacked.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_bound_past_the_float_range_names_its_trial():
    # The Fisher matrices are well conditioned, but a noise power this
    # far above one trial's source power puts that trial's bound past the
    # float range; it is refused, without a numpy warning, by its index.
    cfg, plan, scene, _ = _tiny_setup()
    core = _core(cfg, scene)
    rng = np.random.default_rng(9)
    amps = rng.standard_normal((4, 1, 2)) + 1j * rng.standard_normal((4, 1, 2))
    assert np.isfinite(crb(core, plan, 1e290, amps).matrix).all()
    amps[2] *= 1e-10
    with pytest.raises(MsdoaError, match=r"^the bound of trial 2 of the batch is not finite"):
        crb(core, plan, 1e290, amps)


def test_in_plane_sources_need_known_elevations(table1_cfg):
    # A flat surface carries no first-order elevation information at
    # phi = 90, so the joint bound is singular there; the azimuth-only
    # bound is finite.
    plan = SamplingPlan(50e6, 2, 5, 1.6e-5)
    scene = SourceScene((Doa.from_degrees(-22.0, 90.0),
                         Doa.from_degrees(12.0, 90.0)), (1.0, 1.0))
    rng = np.random.default_rng(3)
    amps = (rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5)))
    with pytest.raises(ConfigurationError):
        crb(_core(table1_cfg, scene, 15), plan, 1.0, amps)
    res = crb(_core(table1_cfg, scene, 15, known_elevations=True), plan, 1.0, amps)
    assert res.matrix.shape == (2, 2)
    assert res.theta_bounds.shape == (2,)
    assert np.all(np.sqrt(res.theta_bounds) < np.deg2rad(5.0))


def test_known_elevations_tightens_the_bound():
    # Dropping the elevation nuisance can only reduce the azimuth floor.
    cfg, plan, scene, amps = _tiny_setup()
    joint = crb(_core(cfg, scene), plan, 0.3, amps)
    azimuth_only = crb(_core(cfg, scene, known_elevations=True), plan, 0.3, amps)
    assert azimuth_only.theta_bounds[0] <= joint.theta_bounds[0] + 1e-15


def test_coincident_sources_rejected():
    cfg, plan, _, _ = _tiny_setup()
    scene = SourceScene((Doa.from_degrees(22.0, 70.0),
                         Doa.from_degrees(22.0, 70.0)), (1.0, 1.0))
    amps = np.ones((2, 2), dtype=complex)
    with pytest.raises(ConfigurationError):
        crb(_core(cfg, scene), plan, 0.3, amps)
