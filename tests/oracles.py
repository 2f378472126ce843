"""Reference formulas the tests check production code against.

Each oracle spells a result out the long way: dense matrices, explicit
normal equations and per-snapshot, per-window loops. They are slow on
purpose and live here rather than in the package.
"""

import numpy as np

from msdoa import (Doa, SourceScene, draw_source_amplitudes, fourier_coefficient,
                   harmonic_matrix, smooth, steering_derivatives, synthesize_received)
from msdoa.surface import _check_element, steering_matrix


def coding_waveform(m, n, t, cfg, coding_period_s):
    """Evaluate the +/-1 coding schedule of element (m, n) at time ``t``.

    The schedule is periodic with period ``coding_period_s`` for all t,
    negative included. Each period splits into M*N equal slots swept
    in row-major order; the element is +1 exactly during its own slot.
    Slots are half-open on the left, (lower, upper], with the period
    phase mapped into (0, 1]; values exactly on slot boundaries are
    measure-zero and sampled time grids should not rely on them.
    """
    _check_element(m, n, cfg)
    frac = np.mod(np.asarray(t, dtype=float) / coding_period_s, 1.0)
    frac = np.where(frac == 0.0, 1.0, frac)
    # Boundaries as single divisions of integers, so adjacent slots share
    # the exact same float and the last upper bound is exactly 1.0.
    slot = (m - 1) * cfg.cols + (n - 1)
    lower = slot / cfg.size
    upper = (slot + 1) / cfg.size
    out = np.where((frac > lower) & (frac <= upper), 1.0, -1.0)
    return float(out) if np.ndim(t) == 0 else out


def coherent_gains(num_sources, seed):
    """Coherent gains of an experiment seed, drawn step by step.

    Uniform phases from the seed's gain stream (entropy (seed,
    0x6761696E)), as unit-modulus gains with the first set to 1.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), 0x6761696E)))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=num_sources)
    gains = np.exp(1j * phases)
    gains[0] = 1.0
    return tuple(complex(g) for g in gains)


def harmonic_entries(max_harmonic, cfg):
    """Harmonic matrix entries filled one element column at a time.

    Each column is one call of ``fourier_coefficient`` for element
    (m, n) over the orders -P..P, in row-major element order. This is
    how ``harmonic_matrix`` filled its entries before it made one
    broadcast call; the two must agree bit for bit.
    """
    orders = np.arange(-max_harmonic, max_harmonic + 1)
    entries = np.empty((orders.size, cfg.size), dtype=complex)
    col = 0
    for m in range(1, cfg.rows + 1):
        for n in range(1, cfg.cols + 1):
            entries[:, col] = fourier_coefficient(m, n, orders, cfg)
            col += 1
    return entries


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


def split_seed(seed):
    """The amplitude and noise seeds one integer seed once split into.

    ``synthesize_received`` took one seed and spawned these two from it;
    tests that pass an integer pass them, so they draw what they drew.
    """
    return np.random.SeedSequence(seed).spawn(2)


def seeded_synthesis(model, scene, noise_variance, seed):
    """The series and the (K, I) amplitudes of ``scene`` that one integer seed draws.

    The amplitudes come from the first seed of :func:`split_seed` and the
    noise from the second, as when synthesis drew both.
    """
    amplitude_seed, noise_seed = split_seed(seed)
    amplitudes = draw_source_amplitudes(scene, model.plan.num_snapshots, amplitude_seed)
    return synthesize_received(model, noise_variance, amplitudes, noise_seed), amplitudes


def nested_trial_streams(seed, sweep_index, trial_index):
    """A trial's amplitude, noise and weight generators, by nested spawns.

    The root ``SeedSequence((seed, sweep_index, trial_index))`` spawns a
    synthesis and a weight child, and a generator on the synthesis child
    spawns the amplitude and noise generators. This is how the harness
    derived a trial's streams before ``trial_seeds`` named the three
    leaves; the two must draw the same values.
    """
    root = np.random.SeedSequence((int(seed), int(sweep_index), int(trial_index)))
    synthesis, weights = root.spawn(2)
    amplitudes, noise = np.random.default_rng(synthesis).spawn(2)
    return amplitudes, noise, np.random.default_rng(weights)


def repeat_synthesis(model, noise_variance, amplitudes, noise_seed):
    """Received samples with each of the (K, I) amplitudes repeated per sample.

    Tiles every source's one-period pattern to the record length and
    adds it times its amplitudes repeated Q times. The noise is
    ``samples + scale*(re + 1j*im)`` from two separate draws. This is
    the form ``synthesize_received`` had before it formed one period
    per snapshot and drew the noise into one buffer; the two must agree
    bit for bit.
    """
    noise_rng = np.random.default_rng(noise_seed)
    plan = model.plan
    samples = np.zeros(plan.total_points, dtype=complex)
    periods = plan.total_points // plan.points_per_period
    for pattern, amplitude in zip(model.patterns, amplitudes):
        # np.multiply rather than ``*``: on a large record numpy reuses
        # a temporary right operand in place and swaps the factors, and
        # a complex product formed with fused multiply-adds is not
        # bitwise commutative.
        samples += np.multiply(
            np.tile(pattern, periods),
            np.repeat(amplitude, plan.points_per_snapshot),
        )
    if noise_variance > 0:
        scale = np.sqrt(model.num_elements * noise_variance / 2.0)
        samples = samples + scale * (
            noise_rng.standard_normal(samples.size)
            + 1j * noise_rng.standard_normal(samples.size)
        )
    return samples


def dense_smoothing(weight_row, cfg):
    """I_M kron band: one shifted copy of the weight row per window position."""
    width = weight_row.size
    out_cols = cfg.cols - width + 1
    band = np.zeros((out_cols, cfg.cols), dtype=complex)
    for r in range(out_cols):
        band[r, r:r + width] = weight_row
    return np.kron(np.eye(cfg.rows), band)


def gram_whitener(weights, compensation, entries, cfg):
    """Sum over weight rows of J_l C G C^H J_l^H with G = (U^H U)^-1, C = diag(compensation)."""
    gram = np.linalg.inv(entries.conj().T @ entries)
    c = np.diag(compensation)
    shaped = c @ gram @ c.conj().T
    total = sum(dense_smoothing(row, cfg) @ shaped @ dense_smoothing(row, cfg).conj().T
                for row in weights)
    return 0.5 * (total + total.conj().T)


def smoothed_recovery(harmonics, compensation, weights, cfg):
    """V = smooth(B) of the recovery left inverse B, one (L, dim) slice per harmonic bin.

    Recovery, compensation and smoothing are linear, so a snapshot with
    bins b smooths to sum_i b_i V_i. A stack of weight banks gives a
    stack of V.
    """
    return smooth(harmonics.pseudo_inverse, compensation, weights, cfg)


def bin_space_whitener(weights, compensation, harmonics, cfg):
    """The whitener as the sum, over every bin and weight row, of the outer products of V.

    White bin noise e reaches the smoothed vectors as smooth(B e), so
    the outer products of :func:`smoothed_recovery` sum to the smoothed
    noise covariance. This is how the estimator formed each trial's
    whitener before it contracted a per-point table with the bank's
    Gram matrix; the two agree to rounding.
    """
    vectors = smoothed_recovery(harmonics, compensation, weights, cfg)
    rows = vectors.reshape(*vectors.shape[:-3], -1, vectors.shape[-1])
    total = np.swapaxes(rows, -1, -2) @ rows.conj()
    return 0.5 * (total + np.swapaxes(total.conj(), -1, -2))


def loop_smooth(recovered, compensation, weights, cfg):
    """Smoothed vectors of one element vector, (weights, rows * windows), by loops."""
    grid = (np.diag(compensation) @ recovered).reshape(cfg.rows, cfg.cols)
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


def local_maxima(values):
    """Indices of strict local maxima along every axis longer than one point.

    Tests the whole grid at once. End points of a searched axis are
    never reported. Returns one index array per axis, in row-major
    order of the grid.
    """
    searched = [axis for axis, n in enumerate(values.shape) if n > 1]
    inner = tuple(slice(1, -1) if axis in searched else slice(None) for axis in range(values.ndim))
    core = values[inner]
    mask = np.ones(core.shape, dtype=bool)
    for axis in searched:
        below, above = list(inner), list(inner)
        below[axis], above[axis] = slice(None, -2), slice(2, None)
        mask &= (core > values[tuple(below)]) & (core > values[tuple(above)])
    return tuple(idx + (axis in searched) for axis, idx in enumerate(np.nonzero(mask)))


def ranked_peaks(values, count):
    """The ``count`` largest :func:`local_maxima`, best first.

    A stable descending sort of the maxima in row-major order, so exact
    ties go to the earlier grid point. Returns one index array per axis.
    """
    peaks = local_maxima(values)
    best = np.argsort(-values[peaks], kind="stable")[:count]
    return tuple(idx[best] for idx in peaks)


def nonzero_row_peaks(row, below=None, above=None):
    """Trial indices, azimuth indices and values of a spectrum row's strict local maxima.

    The form ``estimator._row_peaks`` had before it took flat indices
    and denominators: the mask formed out of place on spectrum values
    and indexed by 2-D ``np.nonzero``.
    """
    core = row[:, 1:-1]
    mask = (core > row[:, :-2]) & (core > row[:, 2:])
    if below is not None:
        mask &= (core > below[:, 1:-1]) & (core > above[:, 1:-1])
    trial, theta = np.nonzero(mask)
    return trial, theta + 1, core[trial, theta]


def sources(count, phi_deg=90.0):
    """A scene of ``count`` unit-power sources 10 degrees apart in azimuth, at ``phi_deg``."""
    return SourceScene(tuple(Doa.from_degrees(10.0 * k, phi_deg) for k in range(count)),
                       (1.0,) * count)


def separate_chain(bins, entries, cfg, params, scene, compensation, weights):
    """The estimate of ``scene``'s sources through separate 1-D and 2-D formulas.

    ``bins`` is the (2P+1, I) snapshot bin matrix and ``entries`` the
    (2P+1, M*N) harmonic matrix that mixed it. Per-snapshot recovery
    through the normal equations, loop smoothing,
    the Gram-form whitener, and the spectrum 1 / |noise^H W^-1/2 a|^2
    with the row manifold at the sources' known elevation (1-D) or the
    row manifold times the window ramp over the elevation grid (2-D).
    Returns (theta grid, phi grid or None, spectrum, estimates).
    """
    left = np.linalg.inv(entries.conj().T @ entries) @ entries.conj().T
    rows = np.vstack([loop_smooth(left @ bins[:, i], compensation, weights, cfg)
                      for i in range(bins.shape[1])])
    cov = rows.T @ rows.conj() / rows.shape[0]
    w = _inv_sqrt(gram_whitener(weights, compensation, entries, cfg))
    whitened = w @ cov @ w.conj().T
    vals, vecs = np.linalg.eigh(0.5 * (whitened + whitened.conj().T))
    count = scene.num_sources
    noise = vecs[:, np.argsort(-vals, kind="stable")[count:]]

    start, stop, step = params.theta_grid_deg
    thetas = start + step * np.arange(int(round((stop - start) / step)) + 1)
    theta_rad = np.deg2rad(thetas)
    if params.kind == "1d":
        phi_deg = scene.doas[0].phi_deg
        a = _row_manifold(theta_rad, np.deg2rad(phi_deg), cfg)
        spectrum = 1.0 / np.sum(np.abs(noise.conj().T @ w @ a) ** 2, axis=0)
        (best,) = ranked_peaks(spectrum, count)
        return thetas, None, spectrum, tuple(Doa.from_degrees(thetas[i], phi_deg) for i in best)

    start, stop, step = params.phi_grid_deg
    phis = start + step * np.arange(int(round((stop - start) / step)) + 1)
    out_cols = cfg.cols - params.subarray_width + 1
    spectrum = np.empty((thetas.size, phis.size))
    for j, phi in enumerate(np.deg2rad(phis)):
        rows_m = _row_manifold(theta_rad, phi, cfg)
        ramp = _window_ramp(theta_rad, phi, out_cols, cfg)
        a = np.einsum("mt,rt->mrt", rows_m, ramp).reshape(-1, thetas.size)
        spectrum[:, j] = 1.0 / np.sum(np.abs(noise.conj().T @ w @ a) ** 2, axis=0)
    ri, ci = ranked_peaks(spectrum, count)
    return thetas, phis, spectrum, tuple(
        Doa.from_degrees(thetas[i], phis[j]) for i, j in zip(ri, ci))


def manifold(theta_rad, phi_rad, out_cols, cfg):
    """Smoothed-domain steering over an azimuth grid at one elevation.

    Row phases exp(j*w0*(m - (M+1)/2)*d*sin(phi)*sin(theta)/c) times the
    window ramp exp(j*w0*r*d*sin(phi)*cos(theta)/c), r = 0..out_cols-1,
    in ``smooth``'s (row, window) order; shape (M*out_cols, thetas).
    """
    m = np.arange(1, cfg.rows + 1) - (cfg.rows + 1) / 2.0
    r = np.arange(out_cols)
    scale = cfg.omega0 * cfg.spacing_m * np.sin(phi_rad)
    rows = np.exp(1j * np.outer(m, scale * np.sin(theta_rad) / cfg.wave_speed))
    ramp = np.exp(1j * np.outer(r, scale * np.cos(theta_rad) / cfg.wave_speed))
    return (rows[:, None, :] * ramp[None, :, :]).reshape(-1, theta_rad.size)


def slicing_lag_basis(rows, out_cols, directions, phase_scale):
    """The lag basis [1; cos psi_h; sin psi_h] by whole-block slicing.

    The half-plane order, (0, 1 .. out_cols-1) and then each row lag's
    column lags -(out_cols-1) .. out_cols-1, is written into the slices
    here, and the products run as two broadcasts over all row lags at
    once. ``_lag_basis``, which reads the order from its lag table,
    must match this bit for bit.
    """
    thetas = directions.shape[1]
    half = ((2 * rows - 1) * (2 * out_cols - 1) - 1) // 2
    count = max(rows, out_cols)
    powers = np.empty((count, 2, thetas), dtype=complex)
    powers[0] = 1.0
    if count > 1:
        phase = phase_scale * directions
        np.cos(phase, out=powers[1].real)
        np.sin(phase, out=powers[1].imag)
    for i in range(2, count):
        np.multiply(powers[i - 1], powers[1], out=powers[i])
    row, col = powers[:rows, 0], powers[:out_cols, 1]
    terms = np.empty((half, thetas), dtype=complex)
    terms[: out_cols - 1] = col[1:]
    grid = terms[out_cols - 1 :].reshape(rows - 1, 2 * out_cols - 1, thetas)
    np.multiply(row[1:, None], col[None, :], out=grid[:, out_cols - 1 :])
    np.multiply(row[1:, None], col[None, :0:-1].conj(), out=grid[:, : out_cols - 1])
    basis = np.empty((2 * half + 1, thetas))
    basis[0] = 1.0
    basis[1 : half + 1] = terms.real
    basis[half + 1 :] = terms.imag
    return basis


def projection_search(whitened, w_inv_sqrt, setup):
    """Spectra and estimates of a batch by projecting onto the manifold.

    The spectrum is 1 / sum |B a|^2, B = noise^H W^-1/2 the whitened
    noise basis of each trial and a the :func:`manifold` of each
    elevation; the estimates are its ``num_sources`` largest strict
    local maxima. This is the form ``music_search`` had before it
    evaluated the lag polynomial. Returns the (trials, azimuths,
    elevations) spectra and one tuple of :class:`Doa` per trial.
    """
    cfg, num_sources = setup.surface, setup.num_sources
    thetas, phis = setup.theta_grid_deg, setup.elevation_grid_deg
    spectra, estimates = [], []
    for cov, w in zip(whitened, w_inv_sqrt):
        vals, vecs = np.linalg.eigh(cov)
        noise = vecs[:, np.argsort(-vals, kind="stable")[num_sources:]]
        basis = noise.conj().T @ w
        spectrum = np.empty((thetas.size, phis.size))
        for j, phi in enumerate(np.deg2rad(phis)):
            a = manifold(np.deg2rad(thetas), phi, setup.positions, cfg)
            power = np.sum(np.abs(basis @ a) ** 2, axis=0)
            spectrum[:, j] = 1.0 / np.maximum(power, np.finfo(float).tiny)
        # A one-elevation grid is searched along azimuth alone.
        ti, pi = ranked_peaks(spectrum, num_sources)
        spectra.append(spectrum)
        estimates.append(tuple(Doa.from_degrees(float(thetas[i]), float(phis[j]))
                               for i, j in zip(ti, pi)))
    return np.array(spectra), estimates


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


def write_spectrum_csv_per_point(batch, path):
    """The spatial spectrum CSV of a one-trial batch written one formatted line per grid point.

    Formats every coordinate again at each point and writes each line
    on its own. ``write_spectrum_csv`` must write the same bytes.
    """
    (spectrum,), (estimates,) = batch.spectrum, batch.estimates
    thetas, phis = batch.setup.theta_grid_deg, batch.setup.elevation_grid_deg
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if phis.size == 1:
            fh.write("theta_deg,value\n")
            for i, t in enumerate(thetas):
                fh.write(f"{t:.10g},{spectrum[i, 0]:.10g}\n")
            for est in estimates:
                fh.write(f"# estimate,{est.theta_deg:.10g}\n")
        else:
            fh.write("theta_deg,phi_deg,value\n")
            for i, t in enumerate(thetas):
                for j, p in enumerate(phis):
                    fh.write(f"{t:.10g},{p:.10g},{spectrum[i, j]:.10g}\n")
            for est in estimates:
                fh.write(f"# estimate,{est.theta_deg:.10g},{est.phi_deg:.10g}\n")
