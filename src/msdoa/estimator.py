"""Pattern-smoothing MUSIC on recovered element channels.

One chain serves every search. The harmonic bins of all snapshots are
inverted at once to one complex value per element and snapshot, the
known element-to-receiver phases are canceled, and a bank of
random-phase weight rows collapses every sliding ``width``-column
window of each surface row to a scalar. Averaging the outer products of
the collapsed vectors over snapshots and weights restores rank for
coherent sources. The azimuth-only (1-D) search is the window as wide
as the surface, searched at the one known elevation; the 2-D search
slides narrower windows and also scans an elevation grid.

The weight bank colors the noise. Bin noise e reaches the smoothed
vectors as smooth(B e), with B the recovery left inverse, so the
whitener is the outer-product sum of the smoothed recovery matrix
itself. Its inverse square root is taken once per trial and used both
to whiten the covariance and to whiten the search manifold.

The search serves a batch of trials. Each elevation's manifold is
built once per batch, and every trial's whitened noise basis is
projected onto it in one stacked product. That product makes the same
BLAS call per trial as a batch of one would, so no bit of a spectrum
depends on the batch. A single product of all the bases stacked as
rows would not keep that: a one-row basis goes to a matrix-vector
kernel and several rows to a matrix-matrix kernel, which round
differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigurationError,
    NearSingularWhitenerError,
    NoNoiseSubspaceError,
    ValidationError,
)
from .surface import Doa, HarmonicMatrix, SurfaceConfig, receiver_delays

# Relative eigenvalue floor below which the whitener is rejected.
WHITENER_RTOL = 1e-12
# Bytes a search batch may hold: its trials' spectra plus the projection
# of all their noise bases onto one elevation's manifold, complex, with
# its squared magnitude. 2.5 MiB lets the 361 x 181 grid of table1_2d
# search 4 trials per manifold build.
SEARCH_BATCH_BYTES = 5 * 2**19


def recover_channels(bins, harmonics: HarmonicMatrix) -> np.ndarray:
    """Recover per-element values from harmonic bins, one column per snapshot.

    ``bins`` is (2P+1,) or (2P+1, snapshots). Solves the overdetermined
    mixing system with the cached SVD left inverse; requires at least
    M*N frequency lines and a numerically full-rank harmonic matrix.
    """
    bins = np.asarray(bins, dtype=complex)
    lines = 2 * harmonics.max_harmonic + 1
    if bins.ndim not in (1, 2) or bins.shape[0] != lines:
        raise ValidationError(
            f"snapshot bins have shape {bins.shape}; expected ({lines},) "
            f"or ({lines}, snapshots)"
        )
    return harmonics.pseudo_inverse @ bins


def compensation_matrix(cfg: SurfaceConfig) -> np.ndarray:
    """Diagonal matrix canceling the element-to-receiver phases."""
    return np.diag(np.exp(-1j * cfg.omega0 * receiver_delays(cfg)))


@dataclass(eq=False)
class PsWeightSet:
    """Bank of unit-modulus smoothing weight rows, shape (count, width).

    Each row collapses a ``width``-column window; a row as wide as the
    surface collapses whole surface rows.
    """

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=complex)
        if self.weights.ndim != 2:
            raise ValidationError("weights must be a (count, width) array")
        if not np.allclose(np.abs(self.weights), 1.0, atol=1e-9):
            raise ValidationError("smoothing weights must have unit modulus")

    @property
    def count(self) -> int:
        return self.weights.shape[0]

    @property
    def width(self) -> int:
        return self.weights.shape[1]


def make_ps_weights(count: int, width: int, rng_seed) -> PsWeightSet:
    """Draw ``count`` unit-modulus weight rows with random phases."""
    if count < 1:
        raise ValidationError("need at least one weight vector")
    if width < 1:
        raise ValidationError("weight width must be at least 1")
    rng = np.random.default_rng(rng_seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(count, width))
    return PsWeightSet(np.exp(1j * phases))


def smooth(
    columns: np.ndarray,
    compensation: np.ndarray,
    weights: PsWeightSet,
    cfg: SurfaceConfig,
) -> np.ndarray:
    """Compensate a stack of element vectors and collapse it with every weight row.

    ``columns`` is (M*N, K), one row-major element vector per column.
    Returns (K, L, M*(N-width+1)): entry [k, l] holds, for each surface
    row and window position (row-major), the compensated window of
    column k weighted by row l and summed.
    """
    columns = np.asarray(columns, dtype=complex)
    if columns.ndim != 2 or columns.shape[0] != cfg.size:
        raise ValidationError(
            f"element stack must have shape ({cfg.size}, K); got {columns.shape}"
        )
    if weights.width > cfg.cols:
        raise ConfigurationError(
            f"weight width {weights.width} exceeds the {cfg.cols} surface columns"
        )
    compensated = np.diagonal(compensation)[:, None] * columns
    grid = compensated.T.reshape(-1, cfg.rows, cfg.cols)
    windows = sliding_window_view(grid, weights.width, axis=2)  # (K, M, W, width)
    collapsed = windows @ weights.weights.T  # (K, M, W, L)
    return collapsed.transpose(0, 3, 1, 2).reshape(columns.shape[1], weights.count, -1)


def smoothing_whitener(
    weights: PsWeightSet,
    compensation: np.ndarray,
    harmonics: HarmonicMatrix,
    cfg: SurfaceConfig,
) -> np.ndarray:
    """Noise-shaping matrix of the recover/compensate/smooth chain.

    White bin noise e reaches the smoothed vectors as smooth(B e), with
    B the recovery left inverse, so this is the sum over every column of
    B and every weight row of the smoothed outer products. It equals
    the sum of J_l C G C^H J_l^H over the weight bank (J_l the
    smoothing operator, C the compensation, G = B B^H the inverse Gram
    matrix of the mixing), the per-bin covariance of the smoothed noise.
    """
    vectors = smooth(harmonics.pseudo_inverse, compensation, weights, cfg)
    rows = vectors.reshape(-1, vectors.shape[2])
    total = rows.T @ rows.conj()
    return 0.5 * (total + total.conj().T)


def ps_covariance(smoothed: np.ndarray) -> np.ndarray:
    """Average outer product over all snapshots and weight rows of :func:`smooth`."""
    smoothed = np.asarray(smoothed)
    if smoothed.ndim != 3 or smoothed.shape[0] * smoothed.shape[1] == 0:
        raise ValidationError("need at least one smoothed snapshot")
    rows = smoothed.reshape(-1, smoothed.shape[2])
    return rows.T @ rows.conj() / rows.shape[0]


def whitener_inv_sqrt(whitener: np.ndarray) -> np.ndarray:
    """W^-1/2 of a Hermitian whitener, rejecting a near-singular one."""
    sym = 0.5 * (whitener + whitener.conj().T)
    vals, vecs = np.linalg.eigh(sym)
    if vals[-1] <= 0 or vals[0] <= WHITENER_RTOL * vals[-1]:
        raise NearSingularWhitenerError(
            "whitener eigenvalues span more than "
            f"{1 / WHITENER_RTOL:.0e} (min {vals[0]:.3e}, max {vals[-1]:.3e}); "
            "inverse square root would amplify noise unboundedly"
        )
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def whiten(covariance: np.ndarray, w_inv_sqrt: np.ndarray) -> np.ndarray:
    """Two-sided transform W^-1/2 R W^-H/2, given W^-1/2 from :func:`whitener_inv_sqrt`."""
    out = w_inv_sqrt @ covariance @ w_inv_sqrt.conj().T
    return 0.5 * (out + out.conj().T)


def _manifold(theta_rad, phi_rad, out_cols: int, cfg: SurfaceConfig) -> np.ndarray:
    """Smoothed-domain steering over an azimuth grid at one elevation.

    Row phases exp(j*w0*(m - (M+1)/2)*d*sin(phi)*sin(theta)/c) times the
    window ramp exp(j*w0*r*d*sin(phi)*cos(theta)/c), r = 0..out_cols-1,
    in :func:`smooth`'s (row, window) order; shape (M*out_cols, thetas).
    """
    m = np.arange(1, cfg.rows + 1) - (cfg.rows + 1) / 2.0
    r = np.arange(out_cols)
    scale = cfg.omega0 * cfg.spacing_m * np.sin(phi_rad)
    rows = np.exp(1j * np.outer(m, scale * np.sin(theta_rad) / cfg.wave_speed))
    ramp = np.exp(1j * np.outer(r, scale * np.cos(theta_rad) / cfg.wave_speed))
    return (rows[:, None, :] * ramp[None, :, :]).reshape(-1, theta_rad.size)


def _local_maxima(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Indices of strict local maxima along every axis longer than one point.

    End points of a searched axis are never reported.
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


@dataclass(eq=False)
class MusicResult:
    """Spatial spectrum, its grid, peak estimates, and eigenvalues.

    A search at one known elevation has ``phi_grid_deg`` of ``None`` and
    a spectrum over azimuth only; otherwise the spectrum is
    (azimuths, elevations).
    """

    theta_grid_deg: np.ndarray
    phi_grid_deg: np.ndarray | None
    spectrum: np.ndarray
    estimates: tuple[Doa, ...]
    eigenvalues: np.ndarray


@dataclass(eq=False)
class MusicBatch:
    """The searches of a batch of trials over one grid.

    ``spectrum`` is (trials, azimuths, elevations), every grid point of
    every trial; ``results`` holds each trial's :class:`MusicResult`,
    whose spectrum is a view into it.
    """

    spectrum: np.ndarray
    results: tuple[MusicResult, ...]


@dataclass(frozen=True)
class EstimatorParams:
    """Knobs of the end-to-end estimator.

    ``theta_grid_deg`` and ``phi_grid_deg`` are (start, stop, step)
    triples in degrees; estimates land on the resulting grids.
    """

    num_sources: int
    num_weights: int
    kind: str = "1d"
    elevation_deg: float = 90.0
    subarray_width: int | None = None
    theta_grid_deg: tuple[float, float, float] = (-90.0, 90.0, 0.1)
    phi_grid_deg: tuple[float, float, float] = (0.0, 90.0, 0.5)

    def __post_init__(self):
        if self.num_sources < 0:
            raise ValidationError("num_sources must be nonnegative")
        if self.num_weights < 1:
            raise ValidationError("num_weights must be at least 1")
        if self.kind not in ("1d", "2d"):
            raise ValidationError("kind must be '1d' or '2d'")
        if self.kind == "2d" and self.subarray_width is None:
            raise ValidationError("2-D estimation needs subarray_width")


def inclusive_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Uniform grid including both endpoints."""
    if step <= 0 or stop <= start:
        raise ValidationError("grid needs stop > start and step > 0")
    count = int(round((stop - start) / step))
    return start + step * np.arange(count + 1)


def search_grids(params: EstimatorParams) -> tuple[np.ndarray, np.ndarray]:
    """The azimuth grid and the elevation grid a search scans, in degrees.

    The estimator ``kind`` picks the elevations: "1d" searches at the
    single elevation ``elevation_deg``, "2d" over the ``phi_grid_deg``
    grid. The peak search needs a neighbor on each side of a point, so
    a searched grid (every azimuth grid, and an elevation grid of more
    than one point) must have at least 3 points.
    """
    theta_grid = inclusive_grid(*params.theta_grid_deg)
    if params.kind == "1d":
        elevations = np.array([float(params.elevation_deg)])
    else:
        elevations = inclusive_grid(*params.phi_grid_deg)
    if theta_grid.size < 3 or elevations.size == 2:
        raise ValidationError("a searched angle grid needs at least 3 points")
    return theta_grid, elevations


@dataclass(frozen=True, eq=False)
class SearchSetup:
    """The part of :func:`estimate_doa` that no trial changes.

    Holds the surface, the source count, the weight count, the phase
    compensation, the smoothing window width, the azimuth and elevation
    grids, the search batch size and, when there is one elevation, the
    manifold over the azimuth grid. With an elevation grid the manifolds
    are built per elevation during the search instead: holding all of
    them would cost megabytes (15.7 MB on table1_2d), while one serves
    every trial of a batch. ``batch_size`` is the most trials whose
    spectra plus one elevation's projection and its squared magnitude
    fit in ``SEARCH_BATCH_BYTES``, and at least 1. Arrays are
    read-only: trials share them.
    """

    surface: SurfaceConfig
    num_sources: int
    num_weights: int
    compensation: np.ndarray
    width: int
    theta_grid_deg: np.ndarray
    elevation_grid_deg: np.ndarray
    manifold: np.ndarray | None
    batch_size: int


def search_setup(cfg: SurfaceConfig, params: EstimatorParams) -> SearchSetup:
    """Precompute the trial-invariant part of :func:`estimate_doa`.

    The estimator ``kind`` only picks the window width and the elevation
    grid: "1d" is the full-width window at one elevation, "2d" the
    ``subarray_width`` window over an elevation grid (see
    :func:`search_grids`).
    """
    width = cfg.cols if params.kind == "1d" else params.subarray_width
    if not 1 <= width <= cfg.cols:
        raise ValidationError(f"window width {width} must lie in [1, {cfg.cols}]")
    theta_grid, elevations = search_grids(params)
    comp = compensation_matrix(cfg)
    out_cols = cfg.cols - width + 1
    manifold = None
    if elevations.size == 1:
        manifold = _manifold(np.deg2rad(theta_grid), np.deg2rad(elevations[0]), out_cols, cfg)
    noise_dim = max(cfg.rows * out_cols - params.num_sources, 0)
    trial_bytes = theta_grid.size * (8 * elevations.size + 24 * noise_dim)
    batch_size = max(1, SEARCH_BATCH_BYTES // trial_bytes)
    for arr in (comp, theta_grid, elevations, manifold):
        if arr is not None:
            arr.flags.writeable = False
    return SearchSetup(
        cfg,
        params.num_sources,
        params.num_weights,
        comp,
        width,
        theta_grid,
        elevations,
        manifold,
        batch_size,
    )


def music_search(whitened: np.ndarray, w_inv_sqrt: np.ndarray, setup: SearchSetup) -> MusicBatch:
    """Subspace spectrum search of a batch of trials over the setup's grid.

    ``whitened`` and ``w_inv_sqrt`` stack one whitened covariance and
    the whitening transform :func:`whiten` applied to it per trial,
    shape (trials, dim, dim). Eigenvectors of each whitened covariance
    beyond the setup's ``num_sources`` largest span that trial's noise
    subspace; its spectrum is the reciprocal projection of the whitened
    manifold W^-1/2 a onto it, and its estimates are the
    ``num_sources`` largest strict local maxima (fewer if the spectrum
    has fewer peaks). Each elevation's manifold is built once and all
    trials' noise bases are projected onto it in one stacked product.
    """
    cfg, num_sources = setup.surface, setup.num_sources
    trials, dim = whitened.shape[0], whitened.shape[-1]
    if whitened.shape != (trials, dim, dim) or w_inv_sqrt.shape != whitened.shape:
        raise ValidationError("whitened covariances and whiteners must be matching square stacks")
    out_cols = cfg.cols - setup.width + 1
    if dim != cfg.rows * out_cols:
        raise ConfigurationError(
            f"search with {setup.width}-column windows expects covariance "
            f"dimension {cfg.rows * out_cols}; got {dim}"
        )
    if num_sources >= dim:
        raise NoNoiseSubspaceError(
            f"{num_sources} sources leave no noise subspace in dimension {dim}"
        )

    vals, vecs = np.linalg.eigh(whitened)
    order = np.argsort(-vals, axis=1, kind="stable")
    eigenvalues = np.take_along_axis(vals, order, axis=1)
    noise = np.take_along_axis(vecs, order[:, None, num_sources:], axis=2)
    basis_w = noise.conj().transpose(0, 2, 1) @ w_inv_sqrt

    theta_grid, elevations = setup.theta_grid_deg, setup.elevation_grid_deg
    theta_rad = np.deg2rad(theta_grid)
    tiny = np.finfo(float).tiny
    spectrum = np.empty((trials, theta_grid.size, elevations.size))
    # |projection|^2, squared in place so that an elevation holds only
    # the complex projection and this buffer (see SEARCH_BATCH_BYTES).
    power = np.empty((trials, dim - num_sources, theta_grid.size))
    for j, phi in enumerate(np.deg2rad(elevations)):
        manifold = setup.manifold
        if manifold is None:
            manifold = _manifold(theta_rad, phi, out_cols, cfg)
        np.square(np.abs(basis_w @ manifold, out=power), out=power)
        spectrum[:, :, j] = 1.0 / np.maximum(np.sum(power, axis=1), tiny)

    results = []
    for values, eigs in zip(spectrum, eigenvalues):
        peaks = _local_maxima(values)
        ranked = np.argsort(-values[peaks], kind="stable")[:num_sources]
        # Estimates carry the exact grid degrees, not a radian round trip.
        estimates = tuple(
            Doa.from_degrees(float(theta_grid[peaks[0][i]]), float(elevations[peaks[1][i]]))
            for i in ranked
        )
        if elevations.size == 1:
            results.append(MusicResult(theta_grid, None, values[:, 0], estimates, eigs))
        else:
            results.append(MusicResult(theta_grid, elevations, values, estimates, eigs))
    return MusicBatch(spectrum, tuple(results))


def estimate_doa(snapshots, setup: SearchSetup, rng_seeds) -> MusicBatch:
    """Run the recover/compensate/smooth/whiten chain per trial, then one batched search.

    ``snapshots`` holds each trial's :class:`MultiSnapshot` and
    ``rng_seeds`` the seeds of its smoothing weight rows, in the same
    order; ``setup`` is the :func:`search_setup` of the surface and
    estimator. Everything up to the whitened covariance is per trial;
    :func:`music_search` then searches the whole batch at once.
    """
    cfg = setup.surface
    whitened, w_inv_sqrts = [], []
    for snaps, rng_seed in zip(snapshots, rng_seeds, strict=True):
        harmonics = snaps.harmonics
        weights = make_ps_weights(setup.num_weights, setup.width, rng_seed)
        whitener = smoothing_whitener(weights, setup.compensation, harmonics, cfg)
        w_inv_sqrt = whitener_inv_sqrt(whitener)
        recovered = recover_channels(snaps.matrix, harmonics)
        covariance = ps_covariance(smooth(recovered, setup.compensation, weights, cfg))
        whitened.append(whiten(covariance, w_inv_sqrt))
        w_inv_sqrts.append(w_inv_sqrt)
    return music_search(np.stack(whitened), np.stack(w_inv_sqrts), setup)


def write_spectrum_csv(result: MusicResult, path: str) -> None:
    """Write the spatial spectrum as CSV with estimates as footer comments."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if result.phi_grid_deg is None:
            fh.write("theta_deg,value\n")
            for t, v in zip(result.theta_grid_deg, result.spectrum):
                fh.write(f"{t:.10g},{v:.10g}\n")
            for est in result.estimates:
                fh.write(f"# estimate,{est.theta_deg:.10g}\n")
        else:
            fh.write("theta_deg,phi_deg,value\n")
            for i, t in enumerate(result.theta_grid_deg):
                for j, p in enumerate(result.phi_grid_deg):
                    fh.write(f"{t:.10g},{p:.10g},{result.spectrum[i, j]:.10g}\n")
            for est in result.estimates:
                fh.write(f"# estimate,{est.theta_deg:.10g},{est.phi_deg:.10g}\n")
