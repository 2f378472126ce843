"""Pattern-smoothing MUSIC on recovered element channels.

Pipeline per snapshot: invert the harmonic mixing to recover one
complex value per element, cancel the known element-to-receiver phases,
then apply a bank of random-phase weight vectors that collapse each row
(or each sliding sub-row window) of the surface to a scalar. Averaging
the outer products of the collapsed vectors over snapshots and weights
restores rank for coherent sources. The weight bank colors the noise,
so the covariance is whitened with the known weight/recovery structure
before the subspace search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    NearSingularWhitenerError,
    NoNoiseSubspaceError,
    ValidationError,
)
from .snapshot import FrequencySnapshot, MultiSnapshot
from .surface import Doa, HarmonicMatrix, SurfaceConfig, receiver_delays

# Relative eigenvalue floor below which the whitener is rejected.
WHITENER_RTOL = 1e-12


def recover_channels(values, harmonics: HarmonicMatrix) -> np.ndarray:
    """Recover per-element values from one snapshot's harmonic bins.

    Solves the overdetermined mixing system with the cached SVD left
    inverse; requires at least M*N frequency lines and a numerically
    full-rank harmonic matrix.
    """
    if isinstance(values, FrequencySnapshot):
        values = values.values
    values = np.asarray(values, dtype=complex)
    if values.shape != (2 * harmonics.max_harmonic + 1,):
        raise ValidationError(
            f"snapshot has shape {values.shape}; expected "
            f"({2 * harmonics.max_harmonic + 1},)"
        )
    return harmonics.pseudo_inverse @ values


def compensation_matrix(cfg: SurfaceConfig) -> np.ndarray:
    """Diagonal matrix canceling the element-to-receiver phases."""
    return np.diag(np.exp(-1j * cfg.omega0 * receiver_delays(cfg)))


@dataclass(eq=False)
class PsWeightSet:
    """Bank of unit-modulus smoothing weight rows.

    ``kind`` "1d" collapses whole rows (width ``cols``); "2d" collapses
    sliding windows of ``width`` columns, keeping one output per window
    position per row.
    """

    kind: str
    weights: np.ndarray

    def __post_init__(self):
        if self.kind not in ("1d", "2d"):
            raise ValidationError("kind must be '1d' or '2d'")
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


def make_ps_weights(count: int, kind: str, width: int, rng_seed) -> PsWeightSet:
    """Draw ``count`` unit-modulus weight rows with random phases."""
    if count < 1:
        raise ValidationError("need at least one weight vector")
    if width < 1:
        raise ValidationError("weight width must be at least 1")
    rng = np.random.default_rng(rng_seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(count, width))
    return PsWeightSet(kind, np.exp(1j * phases))


def _band_matrix(weight_row: np.ndarray, cols: int) -> np.ndarray:
    """Sliding-window weight matrix, one shifted copy of the row per output."""
    width = weight_row.size
    if width > cols:
        raise ConfigurationError(
            f"weight width {width} exceeds the {cols} surface columns"
        )
    out_rows = cols - width + 1
    band = np.zeros((out_rows, cols), dtype=complex)
    for r in range(out_rows):
        band[r, r : r + width] = weight_row
    return band


def smoothing_matrix(weight_row: np.ndarray, cfg: SurfaceConfig) -> np.ndarray:
    """Block-diagonal smoothing matrix for one weight row.

    One band block per surface row; a full-width row collapses each
    surface row to a single output (the 1-D case).
    """
    band = _band_matrix(np.asarray(weight_row, dtype=complex), cfg.cols)
    return np.kron(np.eye(cfg.rows), band)


def smoothing_whitener(
    weights: PsWeightSet,
    compensation: np.ndarray,
    harmonics: HarmonicMatrix,
    cfg: SurfaceConfig,
) -> np.ndarray:
    """Accumulated noise-shaping matrix of the recover/compensate/smooth chain.

    Sums J_l C G C^H J_l^H over the weight bank, where J_l is the
    smoothing matrix, C the phase compensation, and G the inverse Gram
    matrix of the harmonic mixing. Up to a common scalar this is the
    covariance that white receiver noise acquires after the chain.
    """
    diag = np.diagonal(compensation)
    gram = harmonics.gram_inverse
    shaped = (diag[:, None] * gram) * diag.conj()[None, :]
    dim = cfg.rows * (cfg.cols - weights.width + 1)
    total = np.zeros((dim, dim), dtype=complex)
    for row in weights.weights:
        j_l = smoothing_matrix(row, cfg)
        total += j_l @ shaped @ j_l.conj().T
    return 0.5 * (total + total.conj().T)


@dataclass(eq=False)
class SmoothedSet:
    """Smoothed vectors of one snapshot (rows = weight vectors)."""

    vectors: np.ndarray
    whitener: np.ndarray


def smooth(
    recovered: np.ndarray,
    compensation: np.ndarray,
    weights: PsWeightSet,
    cfg: SurfaceConfig,
    harmonics: HarmonicMatrix | None = None,
    whitener: np.ndarray | None = None,
) -> SmoothedSet:
    """Compensate and collapse one recovered snapshot with every weight row.

    The whitener depends only on the weights and mixing, so callers
    processing many snapshots should compute it once (or pass
    ``harmonics`` and let the first call build it).
    """
    recovered = np.asarray(recovered, dtype=complex)
    if recovered.shape != (cfg.size,):
        raise ValidationError(f"recovered vector must have shape ({cfg.size},)")
    if whitener is None:
        if harmonics is None:
            raise ValidationError("pass either a precomputed whitener or harmonics")
        whitener = smoothing_whitener(weights, compensation, harmonics, cfg)

    comp = np.diagonal(compensation) * recovered
    grid = comp.reshape(cfg.rows, cfg.cols)
    width = weights.width
    out_cols = cfg.cols - width + 1
    vectors = np.empty((weights.count, cfg.rows * out_cols), dtype=complex)
    for l, row in enumerate(weights.weights):
        collapsed = np.stack(
            [grid[:, r : r + width] @ row for r in range(out_cols)], axis=1
        )
        vectors[l] = collapsed.ravel()
    return SmoothedSet(vectors, whitener)


def ps_covariance(sets) -> np.ndarray:
    """Average outer product over all snapshots and weight vectors."""
    stacks = [s.vectors for s in sets]
    if not stacks:
        raise ValidationError("need at least one smoothed snapshot")
    rows = np.vstack(stacks)
    return rows.T @ rows.conj() / rows.shape[0]


def _hermitian_inv_sqrt(matrix: np.ndarray) -> np.ndarray:
    sym = 0.5 * (matrix + matrix.conj().T)
    vals, vecs = np.linalg.eigh(sym)
    if vals[-1] <= 0 or vals[0] <= WHITENER_RTOL * vals[-1]:
        raise NearSingularWhitenerError(
            "whitener eigenvalues span more than "
            f"{1 / WHITENER_RTOL:.0e} (min {vals[0]:.3e}, max {vals[-1]:.3e}); "
            "inverse square root would amplify noise unboundedly"
        )
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def whiten(covariance: np.ndarray, whitener: np.ndarray) -> np.ndarray:
    """Two-sided inverse-square-root transform of the covariance."""
    w = _hermitian_inv_sqrt(whitener)
    out = w @ covariance @ w.conj().T
    return 0.5 * (out + out.conj().T)


def _row_manifold(theta_rad, phi_rad, cfg: SurfaceConfig):
    """Per-row steering phases exp(j*w0*(m - (M+1)/2)*d*sin(phi)*sin(theta)/c)."""
    m = np.arange(1, cfg.rows + 1) - (cfg.rows + 1) / 2.0
    factor = cfg.omega0 * cfg.spacing_m * np.sin(phi_rad) * np.sin(theta_rad) / cfg.wave_speed
    return np.exp(1j * np.outer(m, np.atleast_1d(factor)))


def _window_manifold(theta_rad, phi_rad, out_cols: int, cfg: SurfaceConfig):
    """Per-window phase ramp exp(j*w0*r*d*sin(phi)*cos(theta)/c), r = 0..out_cols-1."""
    r = np.arange(out_cols)
    factor = cfg.omega0 * cfg.spacing_m * np.sin(phi_rad) * np.cos(theta_rad) / cfg.wave_speed
    return np.exp(1j * np.outer(r, np.atleast_1d(factor)))


@dataclass(eq=False)
class MusicResult:
    """Spatial spectrum, its grid, peak estimates, and eigenvalues."""

    theta_grid_deg: np.ndarray
    phi_grid_deg: np.ndarray | None
    spectrum: np.ndarray
    estimates: tuple[Doa, ...]
    eigenvalues: np.ndarray


def _local_maxima_1d(values: np.ndarray) -> np.ndarray:
    inner = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    return np.nonzero(inner)[0] + 1


def _local_maxima_2d(values: np.ndarray):
    v = values
    inner = (
        (v[1:-1, 1:-1] > v[:-2, 1:-1])
        & (v[1:-1, 1:-1] > v[2:, 1:-1])
        & (v[1:-1, 1:-1] > v[1:-1, :-2])
        & (v[1:-1, 1:-1] > v[1:-1, 2:])
    )
    rows, cols = np.nonzero(inner)
    return rows + 1, cols + 1


def music_search(
    whitened: np.ndarray,
    whitener: np.ndarray,
    num_sources: int,
    cfg: SurfaceConfig,
    kind: str = "1d",
    theta_grid_deg: np.ndarray | None = None,
    elevation_rad: float = np.pi / 2.0,
    phi_grid_deg: np.ndarray | None = None,
    subarray_width: int | None = None,
    manifold: np.ndarray | None = None,
) -> MusicResult:
    """Subspace spectrum search over the angle grid.

    Eigenvectors of the whitened covariance beyond the ``num_sources``
    largest span the noise subspace; the spectrum is the reciprocal
    projection of the whitened manifold onto it, and estimates are the
    ``num_sources`` largest strict local maxima (fewer if the spectrum
    has fewer peaks).

    In "1d" the manifold is the per-row steering at the known elevation;
    in "2d" it is the Kronecker product of per-row steering and the
    sliding-window phase ramp of ``subarray_width``-column windows.
    A "1d" caller searching many covariances on one grid may pass that
    row manifold as ``manifold`` (see :func:`search_setup`).
    """
    if theta_grid_deg is None:
        theta_grid_deg = np.arange(-90.0, 90.0 + 1e-9, 0.1)
    theta_grid_deg = np.asarray(theta_grid_deg, dtype=float)
    if theta_grid_deg.size < 3:
        raise ValidationError("theta grid needs at least 3 points")
    dim = whitened.shape[0]
    if whitened.shape != (dim, dim) or whitener.shape != (dim, dim):
        raise ValidationError("whitened covariance and whitener must be square and matching")
    if num_sources < 0:
        raise ValidationError("num_sources must be nonnegative")
    if num_sources >= dim:
        raise NoNoiseSubspaceError(
            f"{num_sources} sources leave no noise subspace in dimension {dim}"
        )

    vals, vecs = np.linalg.eigh(whitened)
    order = np.argsort(-vals, kind="stable")
    eigenvalues = vals[order]
    noise_basis = vecs[:, order[num_sources:]]
    w_inv_sqrt = _hermitian_inv_sqrt(whitener)

    theta_rad = np.deg2rad(theta_grid_deg)
    tiny = np.finfo(float).tiny

    if kind == "1d":
        if dim != cfg.rows:
            raise ConfigurationError(
                f"1-D search expects covariance dimension {cfg.rows}; got {dim}"
            )
        if manifold is None:
            manifold = _row_manifold(theta_rad, elevation_rad, cfg)
        elif manifold.shape != (cfg.rows, theta_rad.size):
            raise ValidationError(
                f"manifold must be ({cfg.rows}, {theta_rad.size}); got {manifold.shape}"
            )
        proj = noise_basis.conj().T @ (w_inv_sqrt @ manifold)
        spectrum = 1.0 / np.maximum(np.sum(np.abs(proj) ** 2, axis=0), tiny)
        peaks = _local_maxima_1d(spectrum)
        ranked = peaks[np.argsort(-spectrum[peaks], kind="stable")][:num_sources]
        # Estimates carry the exact grid degrees, not a radian round trip.
        elevation_deg = float(np.rad2deg(elevation_rad))
        estimates = tuple(
            Doa.from_degrees(float(theta_grid_deg[i]), elevation_deg) for i in ranked
        )
        return MusicResult(theta_grid_deg, None, spectrum, estimates, eigenvalues)

    if kind != "2d":
        raise ValidationError("kind must be '1d' or '2d'")
    if subarray_width is None or not 1 <= subarray_width <= cfg.cols:
        raise ValidationError("2-D search needs 1 <= subarray_width <= cols")
    out_cols = cfg.cols - subarray_width + 1
    if dim != cfg.rows * out_cols:
        raise ConfigurationError(
            f"2-D search expects covariance dimension {cfg.rows * out_cols}; got {dim}"
        )
    if phi_grid_deg is None:
        phi_grid_deg = np.arange(0.0, 90.0 + 1e-9, 0.5)
    phi_grid_deg = np.asarray(phi_grid_deg, dtype=float)
    if phi_grid_deg.size < 3:
        raise ValidationError("phi grid needs at least 3 points")
    phi_rad = np.deg2rad(phi_grid_deg)

    spectrum = np.empty((theta_grid_deg.size, phi_grid_deg.size))
    basis_w = noise_basis.conj().T @ w_inv_sqrt
    for j, phi in enumerate(phi_rad):
        rows = _row_manifold(theta_rad, phi, cfg)
        wins = _window_manifold(theta_rad, phi, out_cols, cfg)
        manifold = np.einsum("mt,rt->mrt", rows, wins).reshape(dim, theta_rad.size)
        proj = basis_w @ manifold
        spectrum[:, j] = 1.0 / np.maximum(np.sum(np.abs(proj) ** 2, axis=0), tiny)

    rows_idx, cols_idx = _local_maxima_2d(spectrum)
    ranked = np.argsort(-spectrum[rows_idx, cols_idx], kind="stable")[:num_sources]
    estimates = tuple(
        Doa.from_degrees(float(theta_grid_deg[rows_idx[i]]), float(phi_grid_deg[cols_idx[i]]))
        for i in ranked
    )
    return MusicResult(theta_grid_deg, phi_grid_deg, spectrum, estimates, eigenvalues)


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
    weight_seed: object = 0

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


@dataclass(frozen=True, eq=False)
class SearchSetup:
    """The part of :func:`estimate_doa` that no trial changes.

    Holds the phase compensation, the search grids, and for the 1-D
    search the row manifold over the azimuth grid at the known
    elevation. The 2-D manifolds are built per elevation during the
    search instead, since holding them all would cost megabytes. ``key``
    names the surface and estimator settings the setup was built for.
    Arrays are read-only: trials share them.
    """

    key: tuple
    compensation: np.ndarray
    theta_grid_deg: np.ndarray
    phi_grid_deg: np.ndarray | None
    elevation_rad: float
    manifold: np.ndarray | None


def _setup_key(cfg: SurfaceConfig, params: EstimatorParams) -> tuple:
    return (
        cfg,
        params.kind,
        params.elevation_deg,
        params.subarray_width,
        params.theta_grid_deg,
        params.phi_grid_deg,
    )


def search_setup(cfg: SurfaceConfig, params: EstimatorParams) -> SearchSetup:
    """Precompute the trial-invariant part of :func:`estimate_doa`."""
    comp = compensation_matrix(cfg)
    theta_grid = inclusive_grid(*params.theta_grid_deg)
    phi_grid = inclusive_grid(*params.phi_grid_deg) if params.kind == "2d" else None
    elevation_rad = float(np.deg2rad(params.elevation_deg))
    manifold = None
    if params.kind == "1d":
        manifold = _row_manifold(np.deg2rad(theta_grid), elevation_rad, cfg)
    for arr in (comp, theta_grid, phi_grid, manifold):
        if arr is not None:
            arr.flags.writeable = False
    return SearchSetup(
        _setup_key(cfg, params), comp, theta_grid, phi_grid, elevation_rad, manifold
    )


def estimate_doa(
    snapshots: MultiSnapshot,
    cfg: SurfaceConfig,
    params: EstimatorParams,
    setup: SearchSetup | None = None,
) -> MusicResult:
    """Run the full recover/compensate/smooth/whiten/search chain.

    ``setup`` is the precomputed :func:`search_setup` of ``cfg`` and
    ``params``; it is built here when omitted.
    """
    if setup is None:
        setup = search_setup(cfg, params)
    elif setup.key != _setup_key(cfg, params):
        raise ValidationError("search setup was built for another surface or estimator")
    harmonics = snapshots.harmonics
    comp = setup.compensation
    width = cfg.cols if params.kind == "1d" else params.subarray_width
    weights = make_ps_weights(params.num_weights, params.kind, width, params.weight_seed)
    whitener = smoothing_whitener(weights, comp, harmonics, cfg)

    sets = []
    for i in range(snapshots.plan.num_snapshots):
        recovered = recover_channels(snapshots.matrix[:, i], harmonics)
        sets.append(smooth(recovered, comp, weights, cfg, whitener=whitener))
    covariance = ps_covariance(sets)
    whitened = whiten(covariance, whitener)

    return music_search(
        whitened,
        whitener,
        params.num_sources,
        cfg,
        kind=params.kind,
        theta_grid_deg=setup.theta_grid_deg,
        elevation_rad=setup.elevation_rad,
        phi_grid_deg=setup.phi_grid_deg,
        subarray_width=params.subarray_width,
        manifold=setup.manifold,
    )


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
