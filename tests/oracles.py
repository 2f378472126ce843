"""Reference formulas the tests check production code against.

Each oracle spells a result out the long way: dense matrices, explicit
normal equations and per-snapshot, per-window loops. They are slow on
purpose and live here rather than in the package.
"""

import numpy as np

from msdoa import Doa, draw_source_amplitudes, harmonic_matrix, steering_derivatives
from msdoa.surface import steering_matrix


def stacked_crb(cfg, scene, plan, max_harmonic, noise_variance, amplitudes,
                known_elevations=False):
    """Angle-block bound from the stacked observation of all snapshots.

    Block-diagonal amplitude sensitivities, angle sensitivities
    replicated per snapshot and scaled by that snapshot's amplitudes;
    the Fisher matrix is cubic in (2P+1)*I. Must equal the
    per-snapshot Hadamard form that ``crb`` returns.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    entries = harmonic_matrix(max_harmonic, cfg).entries
    derivs = [steering_derivatives(d, cfg) for d in scene.doas]
    columns = [d[:, 0] for d in derivs]
    if not known_elevations:
        columns += [d[:, 1] for d in derivs]
    groups = 1 if known_elevations else 2
    mixed_steer = entries @ steering_matrix(scene.doas, cfg)
    mixed_sens = entries @ np.column_stack(columns)

    lines = 2 * max_harmonic + 1
    num_snap = plan.num_snapshots
    amp_sens = np.kron(np.eye(num_snap), mixed_steer)
    scale = np.kron(np.ones((1, groups)), np.kron(amps.T, np.ones((lines, 1))))
    angle_sens = np.kron(np.ones((num_snap, 1)), mixed_sens) * scale
    proj = np.eye(lines * num_snap) - amp_sens @ np.linalg.pinv(amp_sens)
    fisher = np.real(angle_sens.conj().T @ proj @ angle_sens)
    fisher = 0.5 * (fisher + fisher.T)
    bound = (cfg.size * noise_variance / (2.0 * plan.points_per_snapshot)) * np.linalg.inv(fisher)
    return 0.5 * (bound + bound.T)


def kron_crb(core, plan, noise_variance, amplitudes):
    """Angle-block bound of one (K, I) draw with the Hadamard factor built by ``np.kron``.

    The per-trial form ``crb`` had before it took stacks. Must equal
    each trial of a stacked ``crb`` bit for bit.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    num_snap = plan.num_snapshots
    groups = 1 if core.known_elevations else 2
    sample_cov = amps @ amps.conj().T / num_snap
    hadamard = np.kron(np.ones((groups, groups)), sample_cov).T
    fisher = np.real(core.core * hadamard)
    sym = 0.5 * (fisher + fisher.T)
    prefactor = core.num_elements * noise_variance / (2.0 * plan.points_per_snapshot * num_snap)
    bound = prefactor * np.linalg.inv(sym)
    return 0.5 * (bound + bound.T)


def repeat_synthesis(model, noise, rng_seed):
    """Received samples and amplitudes with each amplitude repeated per sample.

    Full mode adds every source's switched pattern times its amplitudes
    repeated Q times; the noise is ``samples + scale*(re + 1j*im)`` from
    two separate draws. This is the form ``synthesize_received`` had
    before it broadcast over (I, Q) and drew the noise into one buffer;
    the two must agree bit for bit.
    """
    amp_rng, noise_rng = np.random.default_rng(rng_seed).spawn(2)
    plan = model.plan
    amplitudes = draw_source_amplitudes(model.scene, plan.num_snapshots, amp_rng)
    samples = np.zeros(plan.total_points, dtype=complex)
    if model.patterns is not None:
        for k in range(model.scene.num_sources):
            samples += model.patterns[k] * np.repeat(amplitudes[k], plan.points_per_snapshot)
    elif model.phase_table is not None:
        coeffs = model.mixed_steering @ amplitudes
        samples = (model.phase_table @ coeffs).ravel(order="F")
    if noise.variance > 0:
        scale = np.sqrt(model.num_elements * noise.variance / 2.0)
        samples = samples + scale * (
            noise_rng.standard_normal(samples.size)
            + 1j * noise_rng.standard_normal(samples.size)
        )
    return samples, amplitudes


def dense_smoothing(weight_row, cfg):
    """I_M kron band: one shifted copy of the weight row per window position."""
    width = weight_row.size
    out_cols = cfg.cols - width + 1
    band = np.zeros((out_cols, cfg.cols), dtype=complex)
    for r in range(out_cols):
        band[r, r:r + width] = weight_row
    return np.kron(np.eye(cfg.rows), band)


def gram_whitener(weights, compensation, entries, cfg):
    """Sum over weight rows of J_l C G C^H J_l^H with G = (U^H U)^-1."""
    gram = np.linalg.inv(entries.conj().T @ entries)
    shaped = compensation @ gram @ compensation.conj().T
    total = sum(dense_smoothing(row, cfg) @ shaped @ dense_smoothing(row, cfg).conj().T
                for row in weights)
    return 0.5 * (total + total.conj().T)


def loop_smooth(recovered, compensation, weights, cfg):
    """Smoothed vectors of one element vector, (weights, rows * windows), by loops."""
    grid = (np.diagonal(compensation) * recovered).reshape(cfg.rows, cfg.cols)
    width = weights.shape[1]
    out = []
    for row in weights:
        out.append([grid[m, r:r + width] @ row
                    for m in range(cfg.rows) for r in range(cfg.cols - width + 1)])
    return np.array(out)


def _inv_sqrt(matrix):
    vals, vecs = np.linalg.eigh(0.5 * (matrix + matrix.conj().T))
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def _row_manifold(theta_rad, phi_rad, cfg):
    m = np.arange(1, cfg.rows + 1) - (cfg.rows + 1) / 2.0
    k = cfg.omega0 * cfg.spacing_m * np.sin(phi_rad) * np.sin(theta_rad) / cfg.wave_speed
    return np.exp(1j * np.outer(m, k))


def _window_ramp(theta_rad, phi_rad, out_cols, cfg):
    k = cfg.omega0 * cfg.spacing_m * np.sin(phi_rad) * np.cos(theta_rad) / cfg.wave_speed
    return np.exp(1j * np.outer(np.arange(out_cols), k))


def _maxima_1d(v):
    return np.nonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]))[0] + 1


def _maxima_2d(v):
    c = v[1:-1, 1:-1]
    inner = (c > v[:-2, 1:-1]) & (c > v[2:, 1:-1]) & (c > v[1:-1, :-2]) & (c > v[1:-1, 2:])
    rows, cols = np.nonzero(inner)
    return rows + 1, cols + 1


def separate_chain(snapshots, cfg, params, compensation, weights):
    """The estimate through separate 1-D and 2-D formulas.

    Per-snapshot recovery through the normal equations, loop smoothing,
    the Gram-form whitener, and the spectrum 1 / |noise^H W^-1/2 a|^2
    with the row manifold at the known elevation (1-D) or the row
    manifold times the window ramp over the elevation grid (2-D).
    Returns (theta grid, phi grid or None, spectrum, estimates).
    """
    entries = snapshots.harmonics.entries
    left = np.linalg.inv(entries.conj().T @ entries) @ entries.conj().T
    rows = np.vstack([loop_smooth(left @ snapshots.matrix[:, i], compensation, weights, cfg)
                      for i in range(snapshots.matrix.shape[1])])
    cov = rows.T @ rows.conj() / rows.shape[0]
    w = _inv_sqrt(gram_whitener(weights, compensation, entries, cfg))
    whitened = w @ cov @ w.conj().T
    vals, vecs = np.linalg.eigh(0.5 * (whitened + whitened.conj().T))
    noise = vecs[:, np.argsort(-vals, kind="stable")[params.num_sources:]]

    start, stop, step = params.theta_grid_deg
    thetas = start + step * np.arange(int(round((stop - start) / step)) + 1)
    theta_rad = np.deg2rad(thetas)
    if params.kind == "1d":
        a = _row_manifold(theta_rad, np.deg2rad(params.elevation_deg), cfg)
        spectrum = 1.0 / np.sum(np.abs(noise.conj().T @ w @ a) ** 2, axis=0)
        peaks = _maxima_1d(spectrum)
        best = peaks[np.argsort(-spectrum[peaks], kind="stable")][:params.num_sources]
        return thetas, None, spectrum, tuple(
            Doa.from_degrees(thetas[i], params.elevation_deg) for i in best)

    start, stop, step = params.phi_grid_deg
    phis = start + step * np.arange(int(round((stop - start) / step)) + 1)
    out_cols = cfg.cols - params.subarray_width + 1
    spectrum = np.empty((thetas.size, phis.size))
    for j, phi in enumerate(np.deg2rad(phis)):
        rows_m = _row_manifold(theta_rad, phi, cfg)
        ramp = _window_ramp(theta_rad, phi, out_cols, cfg)
        a = np.einsum("mt,rt->mrt", rows_m, ramp).reshape(-1, thetas.size)
        spectrum[:, j] = 1.0 / np.sum(np.abs(noise.conj().T @ w @ a) ** 2, axis=0)
    ri, ci = _maxima_2d(spectrum)
    best = np.argsort(-spectrum[ri, ci], kind="stable")[:params.num_sources]
    return thetas, phis, spectrum, tuple(
        Doa.from_degrees(thetas[ri[i]], phis[ci[i]]) for i in best)


def fftshift_snapshots(series, plan, max_harmonic):
    """Snapshot matrix from the whole centered spectrum of every window.

    Scales the full (I, Q) spectrum, shifts it to centered order and
    samples the harmonic bins there. Must equal ``extract_snapshots``
    bit for bit.
    """
    q_len = plan.points_per_snapshot
    windows = series.samples[:plan.total_points].reshape(plan.num_snapshots, q_len)
    spectra = np.fft.fftshift(np.fft.fft(windows, axis=1), axes=1) / q_len
    orders = np.arange(-max_harmonic, max_harmonic + 1)
    return spectra[:, q_len // 2 + plan.periods_per_snapshot * orders].T.copy()
