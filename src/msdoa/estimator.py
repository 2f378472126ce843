"""Pattern-smoothing MUSIC on recovered element channels.

One chain serves every search. Each snapshot's harmonic bins are
inverted to one complex value per element, the known
element-to-receiver phases are canceled, and a bank of random-phase
weight rows collapses every sliding ``width``-column window of each
surface row to a scalar. Averaging the outer products of the collapsed
vectors over snapshots and weights restores rank for coherent sources.
The azimuth-only (1-D) search is the one-elevation case of the same
search; the 2-D search runs over an elevation grid. :func:`search_grids`
is the one place the window width, the grids and the sources are read,
and the one place a scene the search cannot find is refused.

The smoothed noise of a weight bank has a covariance linear in the
bank's Gram matrix, so :func:`search_setup` tabulates its coefficients
once, as ``window_gram``, and each trial's whitener
(:func:`smoothing_whitener`) is one product of its bank's Gram matrix
with that table. The whitener's inverse square root whitens both the
covariance and the search manifold.

:func:`estimate_doa` runs the chain and :func:`music_search` on a batch
of trials, each with the weight bank it is given. Every stage takes
arrays with a leading trial axis and makes, per trial, the BLAS or
LAPACK call a batch of one makes, so no bit of a result depends on the
batch size. The module opens no file; :func:`msdoa.harness.write_spectrum_csv`
writes a search's spectrum.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import groupby
from math import isqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigurationError,
    MsdoaError,
    NearSingularWhitenerError,
    ValidationError,
    integer_fields,
    refuse_degenerate,
)
from .surface import Doa, HarmonicMatrix, SurfaceConfig, receiver_delays
from .waveform import SourceScene

# Relative eigenvalue floor below which the whitener is rejected.
WHITENER_RTOL = 1e-12
# Largest distance of a smoothing weight's modulus from 1.
UNIT_MODULUS_ATOL = 1e-9
# Rows of each product that evaluates spectrum denominators. Every
# product has the same shape, so no bit of a trial's row depends on
# where in a batch it sits.
GEMM_ROWS = 8
# Estimator kinds: azimuth only, or azimuth and elevation.
KINDS = ("1d", "2d")
# Floor of a spectrum denominator: the smallest normal float.
_TINY = np.finfo(float).tiny


def recover_channels(bins, harmonics: HarmonicMatrix) -> np.ndarray:
    """Recover per-element values from harmonic bins, one column per snapshot.

    ``bins`` is (2P+1,), (2P+1, snapshots) or a stack of the latter,
    (trials, 2P+1, snapshots). Solves the overdetermined mixing system
    with the harmonic matrix's SVD left inverse.
    """
    bins = np.asarray(bins, dtype=complex)
    lines = 2 * harmonics.max_harmonic + 1
    if not 1 <= bins.ndim <= 3 or bins.shape[0 if bins.ndim == 1 else -2] != lines:
        raise ValidationError(
            f"snapshot bins have shape {bins.shape}; expected ({lines},), "
            f"({lines}, snapshots) or (trials, {lines}, snapshots)"
        )
    return harmonics.pseudo_inverse @ bins


def compensation(cfg: SurfaceConfig) -> np.ndarray:
    """Phase factors canceling the element-to-receiver delays, one per element, (M*N,)."""
    return np.exp(-1j * cfg.omega0 * receiver_delays(cfg))


def make_ps_weights(count: int, width: int, rng_seed) -> np.ndarray:
    """Draw ``count`` unit-modulus weight rows with random phases, shape (count, width).

    Each row collapses a ``width``-column window; a row as wide as the
    surface collapses whole surface rows.
    """
    if count < 1:
        raise ValidationError("need at least one weight vector")
    if width < 1:
        raise ValidationError("weight width must be at least 1")
    rng = np.random.default_rng(rng_seed)
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(count, width)))


def smooth(
    columns: np.ndarray,
    compensation: np.ndarray,
    weights: np.ndarray,
    cfg: SurfaceConfig,
) -> np.ndarray:
    """Compensate a stack of element vectors and collapse it with every weight row.

    ``columns`` is (M*N, K), one row-major element vector per column,
    and ``compensation`` the (M*N,) phase factors of :func:`compensation`.
    Returns (K, L, M*(N-width+1)): entry [k, l] holds, for each surface
    row and window position (row-major), the compensated window of
    column k weighted by row l and summed. Leading axes of the columns
    and of a (..., L, width) stack of banks broadcast: a batch of trials
    passes (trials, M*N, K) columns or one shared (M*N, K) stack with a
    (trials, L, width) stack of banks and gets (trials, K, L,
    M*(N-width+1)). Every weight's modulus must lie within
    ``UNIT_MODULUS_ATOL`` of 1. The result is C-contiguous, so reshaping
    it merges axes without a copy.
    """
    columns = np.asarray(columns, dtype=complex)
    if columns.ndim < 2 or columns.shape[-2] != cfg.size:
        raise ValidationError(
            f"element stack must have shape (..., {cfg.size}, K); got {columns.shape}"
        )
    weights = np.asarray(weights, dtype=complex)
    if weights.ndim < 2:
        raise ValidationError("weights must be a (..., count, width) array")
    if not np.all(np.abs(np.abs(weights) - 1.0) <= UNIT_MODULUS_ATOL):
        raise ValidationError("smoothing weights must have unit modulus")
    width = weights.shape[-1]
    if width > cfg.cols:
        raise ConfigurationError(f"weight width {width} exceeds the {cfg.cols} surface columns")
    compensated = compensation[:, None] * columns
    grid = np.swapaxes(compensated, -1, -2).reshape(
        *columns.shape[:-2], columns.shape[-1], cfg.rows, cfg.cols
    )
    windows = sliding_window_view(grid, width, axis=-1)  # (..., K, M, W, width)
    banks = np.swapaxes(weights, -1, -2)[..., None, None, :, :]
    collapsed = windows @ banks  # (..., K, M, W, L)
    smoothed = np.moveaxis(collapsed, -1, -3)
    return np.ascontiguousarray(smoothed.reshape(*smoothed.shape[:-2], -1))


def smoothing_whitener(weights: np.ndarray, window_gram: np.ndarray) -> np.ndarray:
    """Noise-shaping matrix of the recover/compensate/smooth chain.

    White bin noise reaches the smoothed vectors with covariance
    sum_l J_l C G C^H J_l^H over the weight bank (J_l the smoothing
    operator of row w_l, C the compensation, G the inverse Gram matrix
    of the mixing). Entry (a, b) of that sum is the sum over window
    offsets c, c' of K[c, c'] (C G C^H)[a + c, b + c'], with
    K = sum_l w_l w_l^H the bank's Gram matrix: K's flat row times the
    :func:`search_setup` table ``window_gram``. ``weights`` is one
    (L, width) bank or a (trials, L, width) stack of them, which gives a
    stack of whiteners, each from a product of the same shape.
    """
    bank = np.swapaxes(weights, -1, -2) @ np.conj(weights)
    lead, dim = bank.shape[:-2], isqrt(window_gram.shape[1])
    total = (bank.reshape(*lead, 1, -1) @ window_gram).reshape(*lead, dim, dim)
    return 0.5 * (total + np.swapaxes(total.conj(), -1, -2))


def ps_covariance(smoothed: np.ndarray) -> np.ndarray:
    """Average outer product over all snapshots and weight rows of :func:`smooth`.

    A (trials, K, L, dim) stack gives one covariance per trial.
    """
    smoothed = np.asarray(smoothed)
    if smoothed.ndim not in (3, 4) or smoothed.shape[-3] * smoothed.shape[-2] == 0:
        raise ValidationError("need at least one smoothed snapshot")
    rows = smoothed.reshape(*smoothed.shape[:-3], -1, smoothed.shape[-1])
    return np.swapaxes(rows, -1, -2) @ rows.conj() / (smoothed.shape[-3] * smoothed.shape[-2])


def whitener_inv_sqrt(whitener: np.ndarray) -> np.ndarray:
    """W^-1/2 of a Hermitian whitener, rejecting a near-singular one.

    A stack of whiteners gives a stack of inverse square roots; the
    first near-singular one raises as it would alone.
    """
    sym = 0.5 * (whitener + np.swapaxes(whitener.conj(), -1, -2))
    vals, vecs = np.linalg.eigh(sym)
    refuse_degenerate(
        vals[..., 0], vals[..., -1], WHITENER_RTOL, NearSingularWhitenerError,
        "whitener is near-singular; its inverse square root would amplify noise; eigenvalues",
    )
    return (vecs / np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def whiten(covariance: np.ndarray, w_inv_sqrt: np.ndarray) -> np.ndarray:
    """Two-sided transform W^-1/2 R W^-H/2, given W^-1/2 from :func:`whitener_inv_sqrt`.

    Stacks of covariances and transforms are whitened pairwise.
    """
    out = w_inv_sqrt @ covariance @ np.swapaxes(w_inv_sqrt.conj(), -1, -2)
    return 0.5 * (out + np.swapaxes(out.conj(), -1, -2))


def _half_plane_lags(rows: int, positions: int) -> np.ndarray:
    """(row, column) lags q - p of the smoothed grid: (0, 0), then one of each +- pair.

    The one statement of the lag order. The kept half is (0, 1 .. P-1),
    then for each row lag 1 .. rows-1 the column lags -(P-1) .. P-1, with
    P = ``positions``; shape (1 + H, 2), H = ((2*rows - 1)*(2*P - 1) - 1) / 2.
    """
    cols = range(1 - positions, positions)
    half = [(0, r) for r in range(1, positions)] + [(m, r) for m in range(1, rows) for r in cols]
    return np.array([(0, 0), *half], dtype=int).reshape(-1, 2)


def _lag_fold(lags: np.ndarray) -> np.ndarray:
    """Flat indices of the Gram entries Q[p, q] at each lag of a :func:`_half_plane_lags` table.

    Row h lists, in row-major (p, q) order, the entries of the grid's
    (rows*positions)-square matrix whose lag q - p is lag h, padded with
    the index one past its last entry, where the search appends a zero.
    """
    rows, positions = lags.max(axis=0) + 1
    m, r = np.divmod(np.arange(rows * positions), positions)
    row_lag, col_lag = m[None, :] - m[:, None], r[None, :] - r[:, None]
    members = [np.flatnonzero((row_lag == a) & (col_lag == b)) for a, b in lags]
    fold = np.full((len(members), max(idx.size for idx in members)), row_lag.size)
    for h, idx in enumerate(members):
        fold[h, : idx.size] = idx
    return fold


def _lag_basis(lags: np.ndarray, directions: np.ndarray, phase_scale: float) -> np.ndarray:
    """Rows [1; cos psi_h; sin psi_h] over an azimuth grid at one elevation.

    For each lag (dm_h, dr_h) after (0, 0) of the :func:`_half_plane_lags`
    table ``lags``, psi_h = phase_scale*(dm_h*sin(theta) + dr_h*cos(theta)),
    with ``directions`` = [sin(theta); cos(theta)] over the grid and
    phase_scale = w0*d*sin(phi)/c; shape (2H+1, thetas). exp(j*psi_h) is
    the dm_h-th power of exp(j*phase_scale*sin(theta)) times the |dr_h|-th
    of exp(j*phase_scale*cos(theta)), conjugated when dr_h < 0, each by
    repeated multiplication; a term with dm_h = 0 is its column power's copy.
    """
    thetas = directions.shape[1]
    count = lags.max() + 1
    # powers[i] = [exp(j*i*u); exp(j*i*v)], u and v the row and column phases.
    powers = np.empty((count, 2, thetas), dtype=complex)
    powers[0] = 1.0
    if count > 1:
        phase = phase_scale * directions
        np.cos(phase, out=powers[1].real)
        np.sin(phase, out=powers[1].imag)
    for i in range(2, count):
        np.multiply(powers[i - 1], powers[1], out=powers[i])
    row_lags, col_lags = lags[1:].T
    terms = powers[:, 1].take(np.abs(col_lags), axis=0)
    np.conjugate(terms, out=terms, where=(col_lags < 0)[:, None])
    stop = 0
    for m, run in groupby(row_lags.tolist()):
        start, stop = stop, stop + len(list(run))
        if m:
            np.multiply(powers[m, 0], terms[start:stop], out=terms[start:stop])
    return np.concatenate([np.ones((1, thetas)), terms.real, terms.imag])


@dataclass(frozen=True)
class EstimatorParams:
    """Knobs of the end-to-end estimator.

    ``theta_grid_deg`` and ``phi_grid_deg`` are (start, stop, step)
    triples in degrees; estimates land on the resulting grids. The
    scene holds the source count and a "1d" search's elevation.
    """

    num_weights: int
    kind: str = "1d"
    subarray_width: int | None = None
    theta_grid_deg: tuple[float, float, float] = (-90.0, 90.0, 0.1)
    phi_grid_deg: tuple[float, float, float] = (0.0, 90.0, 0.5)

    def __post_init__(self):
        integer_fields(self, "num_weights")
        if self.subarray_width is not None:
            integer_fields(self, "subarray_width")
        if self.num_weights < 1:
            raise ValidationError("num_weights must be at least 1")
        if self.kind not in KINDS:
            raise ValidationError("kind must be '1d' or '2d'")


def grid_points(start: float, stop: float, step: float) -> float:
    """Point count of :func:`inclusive_grid`, as a float: a count past any array stays a number."""
    if not (-np.inf < start < stop < np.inf and 0 < step < np.inf):
        raise ValidationError("grid needs finite values with stop > start and step > 0")
    return float(np.rint((stop - start) / step)) + 1.0


def inclusive_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Grid of round((stop - start) / step) whole steps from start, ending within step/2 of stop."""
    return start + step * np.arange(int(grid_points(start, stop, step)))


def search_grids(
    params: EstimatorParams, surface: SurfaceConfig, scene: SourceScene
) -> tuple[int, int, np.ndarray, np.ndarray]:
    """The window width and positions, the azimuth grid and the elevation grid of a search.

    The window is ``subarray_width`` columns wide, the full width when
    that is unset; it takes cols - width + 1 positions per row, a count
    worked out here alone. The estimator ``kind`` picks only the
    elevation grid: "1d" the one elevation of all the scene's sources
    (90 without any), "2d" the ``phi_grid_deg`` grid. The elevation is
    searched exactly when the grid has more than one point. The peak
    search needs a neighbor on each side of a point, so the azimuth
    grid, and under "2d" the elevation grid, must have at least 3
    points. Under "2d", rows alone see only sin(theta)*sin(phi) and
    window positions alone only cos(theta)*sin(phi), so it needs 2 of
    each. The K sources must leave a noise subspace: K below rows *
    window positions. Every source lies strictly inside each searched
    grid. No two points the search can report are one direction to it:
    the azimuth grid's inner points span less than 360, and lie within
    -90 .. 90 when rows see them alone and within -180 .. 0 or 0 .. 180
    when window positions do; a "2d" elevation grid lies within 0 .. 90.
    Grids are in degrees. These checks refuse a config at load and every
    :func:`search_setup` alike.
    """
    theta_grid = inclusive_grid(*params.theta_grid_deg)
    width = surface.cols if params.subarray_width is None else params.subarray_width
    if not 1 <= width <= surface.cols:
        raise ConfigurationError(f"subarray_width={width} must lie in [1, {surface.cols}]")
    positions = surface.cols - width + 1
    if params.kind == "1d":
        phis = list(dict.fromkeys(doa.phi_deg for doa in scene.doas)) or [90.0]
        if len(phis) > 1:
            raise ConfigurationError(f"a 1d search needs its sources at one elevation; got {phis}")
        elevations = np.array(phis)
    elif surface.rows < 2 or positions < 2:
        raise ConfigurationError(
            "a 2d search needs at least 2 rows and 2 window positions to tell azimuth "
            f"from elevation; this geometry gives {surface.rows} rows and {positions} "
            f"window positions (subarray_width={width} of {surface.cols} columns)"
        )
    else:
        elevations = inclusive_grid(*params.phi_grid_deg)
    if theta_grid.size < 3 or (params.kind == "2d" and elevations.size < 3):
        raise ValidationError("a searched angle grid needs at least 3 points")
    dim = surface.rows * positions
    if scene.num_sources >= dim:
        raise ConfigurationError(
            f"{scene.num_sources} sources need a search dimension above "
            f"{scene.num_sources}; this geometry gives {dim}"
        )
    # Rows see a direction only through sin(theta)*sin(phi) and window
    # positions only through cos(theta)*sin(phi). Two inner azimuths (the
    # search never reports an end point) that give the same pair would be
    # reported as a mirrored pair. One row and one window position see no
    # direction and have no peak to mirror.
    lo, hi = theta_grid[1], theta_grid[-2]
    reach = max(-lo, hi)
    runs = f"theta_grid_deg reports peaks at {lo:g} .. {hi:g} deg;"
    mirrors = [
        (hi - lo >= 360.0, f"{runs} azimuths 360 apart are one direction"),
        (positions == 1 < surface.rows and reach > 90.0,
         f"{runs} one window position sees only sin(theta), and theta and 180 - theta "
         "look alike beyond -90 .. 90"),
        (surface.rows == 1 < positions and (reach > 180.0 or lo < 0.0 < hi),
         f"{runs} one row sees only cos(theta), and theta and -theta look alike "
         "across 0 or beyond -180 .. 180"),
    ]
    axes = [("theta", "theta_grid_deg", theta_grid)]
    if params.kind == "2d":
        axes.append(("phi", "phi_grid_deg", elevations))
        mirrors += [
            (elevations[-1] > 90.0, f"phi_grid_deg reaches {elevations[-1]:g} deg; "
             "elevations past 90 mirror those below it"),
            (elevations[0] < 0.0, f"phi_grid_deg starts at {elevations[0]:g} deg; "
             "(theta, -phi) is the direction (theta + 180, phi)"),
        ]
    for mirrored, what in mirrors:
        if mirrored:
            raise ConfigurationError(f"{what}, so the search would return mirrored pairs")
    # The peak search reports strict interior maxima only, so a source
    # on or beyond a grid end point could never be found.
    for k, doa in enumerate(scene.doas, 1):
        for axis, key, grid in axes:
            angle = getattr(doa, f"{axis}_deg")
            if not grid[0] < angle < grid[-1]:
                raise ConfigurationError(
                    f"source {k} has {axis} = {angle:g} deg, on or outside the end "
                    f"points of {key} ({grid[0]:g} .. {grid[-1]:g}); the peak "
                    "search never reports an end point"
                )
    return width, positions, theta_grid, elevations


@dataclass(frozen=True, eq=False)
class SearchSetup:
    """The part of :func:`estimate_doa` that no trial changes.

    Holds the surface, the source count, the harmonic matrix that mixed
    the snapshot bins, the phase compensation, the window width that
    every trial's weight rows span and its positions per surface row,
    the whitener table (see :func:`smoothing_whitener`), the azimuth and
    elevation grids, the sines and cosines of the azimuths, and the
    smoothed grid's :func:`_half_plane_lags` table ``lags`` with its
    :func:`_lag_fold`. Arrays are read-only: trials share them.
    """

    surface: SurfaceConfig
    num_sources: int
    harmonics: HarmonicMatrix
    compensation: np.ndarray
    width: int
    positions: int
    window_gram: np.ndarray
    theta_grid_deg: np.ndarray
    elevation_grid_deg: np.ndarray
    directions: np.ndarray
    lags: np.ndarray
    fold: np.ndarray


@dataclass(frozen=True, eq=False)
class MusicBatch:
    """The searches of a batch of trials over one setup's grid.

    ``coef`` holds each trial's spectrum-denominator polynomial row,
    read-only, shape (trials, 2H+1) (see :func:`music_search`);
    and ``estimates`` one tuple of :class:`Doa` per trial, best first.
    """

    setup: SearchSetup
    coef: np.ndarray
    estimates: tuple[tuple[Doa, ...], ...]

    @property
    def spectrum(self) -> np.ndarray:
        """The (trials, azimuths, elevations) spectra, evaluated from ``coef`` on every read."""
        return _spectrum(self.coef, self.setup)


def _phase_scale(cfg: SurfaceConfig, phi_rad: float) -> float:
    """w0*d*sin(phi)/c: the phase per element step at unit direction cosine."""
    return cfg.omega0 * cfg.spacing_m * np.sin(phi_rad) / cfg.wave_speed


def search_setup(
    cfg: SurfaceConfig, scene: SourceScene, params: EstimatorParams, harmonics: HarmonicMatrix
) -> SearchSetup:
    """Precompute the trial-invariant part of :func:`estimate_doa` for a search of ``scene``.

    ``harmonics`` is the harmonic matrix that mixes the element
    channels into the snapshot bins; its inverse Gram matrix forms the
    whitener table. The window width and positions, the grids and the
    source count come from :func:`search_grids`.
    """
    width, positions, theta_grid, elevations = search_grids(params, cfg, scene)
    comp = compensation(cfg)
    # Entry (c*width + c', a*dim + b) is (C G C^H)[a + c, b + c'], with a
    # and b the elements that start two smoothed points' windows and c, c'
    # window offsets (see smoothing_whitener).
    shaped = comp[:, None] * harmonics.gram_inverse * comp.conj()
    m, r = np.divmod(np.arange(cfg.rows * positions), positions)
    members = m * cfg.cols + r + np.arange(width)[:, None]
    window_gram = shaped[members[:, None, :, None], members[None, :, None, :]].reshape(width**2, -1)
    theta_rad = np.deg2rad(theta_grid)
    directions = np.stack([np.sin(theta_rad), np.cos(theta_rad)])
    lags = _half_plane_lags(cfg.rows, positions)
    fold = _lag_fold(lags)
    for arr in (comp, window_gram, theta_grid, elevations, directions, lags, fold):
        arr.flags.writeable = False
    return SearchSetup(
        cfg,
        scene.num_sources,
        harmonics,
        comp,
        width,
        positions,
        window_gram,
        theta_grid,
        elevations,
        directions,
        lags,
        fold,
    )


def _spectrum_rows(coef: np.ndarray, setup: SearchSetup) -> Iterator[np.ndarray]:
    """Each elevation's (trials, azimuths) spectrum denominators, in grid order.

    ``coef`` stacks one lag-polynomial row per trial, (trials, 2H+1)
    (see :func:`music_search`), over the setup's ``lags``. The rows are
    zero-padded to whole blocks of ``GEMM_ROWS`` once per call, and each
    elevation's denominators are the (blocks, GEMM_ROWS, 2H+1) stack
    times its lag basis: one matrix-matrix product of the same shape per
    block, so a trial's row has the same bits at any position of any
    batch, a batch of one included. Each elevation's basis is built once
    per call. The yielded rows are C-contiguous.
    """
    trials, terms = coef.shape
    blocks = np.zeros((-(-trials // GEMM_ROWS), GEMM_ROWS, terms))
    blocks.reshape(-1, terms)[:trials] = coef
    for phi in np.deg2rad(setup.elevation_grid_deg):
        basis = _lag_basis(setup.lags, setup.directions, _phase_scale(setup.surface, phi))
        yield (blocks @ basis).reshape(-1, basis.shape[1])[:trials]


def _reciprocal(denominator: np.ndarray, out=None) -> np.ndarray:
    """The spectrum 1/max(d, tiny) of denominators d.

    A denominator rounded to zero or below at an exact null takes 1 over
    the smallest normal float; a NaN stays NaN.
    """
    return np.divide(1.0, np.maximum(denominator, _TINY), out=out)


def _spectrum(coef: np.ndarray, setup: SearchSetup) -> np.ndarray:
    """The (trials, azimuths, elevations) spectra of a stack of polynomial rows."""
    shape = (coef.shape[0], setup.theta_grid_deg.size, setup.elevation_grid_deg.size)
    spectrum = np.empty(shape)
    for j, row in enumerate(_spectrum_rows(coef, setup)):
        _reciprocal(row, out=spectrum[:, :, j])
    return spectrum


def _row_peaks(row: np.ndarray, below=None, above=None):
    """Trial indices, azimuth indices and spectrum values of a row's strict local maxima.

    ``row`` is a (trials, azimuths) row of spectrum denominators d, and
    ``below`` and ``above``, when given, the adjacent elevation rows. A
    point's spectrum value s = 1/max(d, tiny) (:func:`_reciprocal`) must
    exceed that of both azimuth neighbors and, when the elevation rows
    are given, both elevation neighbors. The end azimuths are never
    reported.

    For x >= y > 0, fl(1/x) <= fl(1/y), so a strict maximum of s is a
    strict minimum of d along azimuth, and a NaN is neither. The azimuth
    minima of d, taken over the flat row with the end azimuths of every
    trial cleared, are the candidates, in row-major order. s is formed
    at the candidates and their four neighbors alone, and the strict
    tests run on s, since adjacent denominators can share a reciprocal.
    """
    width = row.shape[1]
    flat = row.reshape(-1)
    core = flat[1:-1]
    mask = core < flat[:-2]
    mask &= core < flat[2:]
    # core[k] is flat point k+1: an end azimuth when k+1 is width-1 or 0 mod width.
    mask[width - 2 :: width] = False
    mask[width - 1 :: width] = False
    index = np.flatnonzero(mask) + 1
    trial, theta = np.divmod(index, width)
    value = _reciprocal(flat[index])
    keep = value > _reciprocal(flat[index - 1])
    keep &= value > _reciprocal(flat[index + 1])
    if below is not None:
        keep &= value > _reciprocal(below[trial, theta])
        keep &= value > _reciprocal(above[trial, theta])
    return trial[keep], theta[keep], value[keep]


def _ranked_peaks(rows: Iterator[np.ndarray], count: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ``count`` largest strict spectrum maxima of each trial, from a stream of rows.

    ``rows`` yields one (trials, azimuths) row of spectrum denominators
    per elevation, in grid order (see :func:`_row_peaks`). At most three
    rows are held: row j is tested once row j+1 has arrived. A single row
    is searched along azimuth alone; otherwise the first and last rows,
    like the end azimuths, hold no peaks. Peaks rank by spectrum value,
    largest first, exact ties to the lower azimuth index and then the
    lower elevation index: the order of a stable descending sort over
    the peaks of the (azimuths, elevations) grid in row-major order.
    Returns, per trial, the azimuth and the elevation indices of its
    peaks, best first (fewer than ``count`` if it has fewer).
    """
    below, row = next(rows), next(rows, None)
    trials = below.shape[0]
    if row is None:
        found = [(0, *_row_peaks(below))]
    else:
        found = []
        for j, above in enumerate(rows, start=1):
            found.append((j, *_row_peaks(row, below, above)))
            below, row = row, above
    if not found:  # two rows, neither of them inside the grid
        return [(np.empty(0, dtype=int),) * 2] * trials
    phi = np.concatenate([np.full(f[1].size, f[0]) for f in found])
    trial, theta, value = (np.concatenate([f[i] for f in found]) for i in (1, 2, 3))
    order = np.lexsort((phi, theta, -value, trial))
    bounds = np.searchsorted(trial[order], np.arange(trials + 1))
    return [
        (theta[best], phi[best])
        for best in (order[lo:hi][:count] for lo, hi in zip(bounds[:-1], bounds[1:]))
    ]


def music_search(whitened: np.ndarray, w_inv_sqrt: np.ndarray, setup: SearchSetup) -> MusicBatch:
    """Subspace spectrum search of a batch of trials over the setup's grid.

    ``whitened`` and ``w_inv_sqrt`` stack one whitened covariance and
    the whitening transform :func:`whiten` applied to it per trial,
    shape (trials, dim, dim). Eigenvectors of each whitened covariance
    beyond the setup's ``num_sources`` largest span that trial's noise
    subspace; its spectrum is the reciprocal projection of the whitened
    manifold W^-1/2 a onto it, and its estimates are the
    ``num_sources`` largest strict local maxima (fewer if the spectrum
    has fewer peaks).

    With B the whitened noise basis, the projection is a^H Q a for the
    Gram matrix Q = B^H B, which depends on a only through the lag sums
    c_h of Q. Each trial's spectrum denominator is therefore its row
    [tr Q, 2 Re c_h, -2 Im c_h] times the lag basis [1; cos psi_h;
    sin psi_h] (see :func:`_lag_basis`), a trigonometric polynomial in
    the row and column phases. The rows are evaluated in fixed blocks of
    ``GEMM_ROWS`` trials, one product per block and elevation (see
    :func:`_spectrum_rows`), and each elevation's basis is built once per
    batch. The polynomial can round to zero or below at an exact null,
    where the spectrum takes 1 over the smallest normal float.

    The peaks are found from the batch's denominator rows as they are
    evaluated, one elevation at a time, holding three rows (see
    :func:`_ranked_peaks`). The spectrum is formed only at the azimuth
    minima of the denominators and their neighbors (see
    :func:`_row_peaks`). No full spectrum is kept: the returned batch
    holds the polynomial rows, and its spectra are evaluated again from
    them, with the same bits, on each read.
    """
    cfg, num_sources = setup.surface, setup.num_sources
    trials, dim = whitened.shape[0], whitened.shape[-1]
    if whitened.shape != (trials, dim, dim) or w_inv_sqrt.shape != whitened.shape:
        raise ValidationError("whitened covariances and whiteners must be matching square stacks")
    if dim != cfg.rows * setup.positions:
        raise ConfigurationError(
            f"search with {setup.width}-column windows expects covariance "
            f"dimension {cfg.rows * setup.positions}; got {dim}"
        )

    vals, vecs = np.linalg.eigh(whitened)
    # A stable sort fixes the noise basis's column order, which sets the Gram matrix's bits.
    order = np.argsort(-vals, axis=1, kind="stable")
    noise = np.take_along_axis(vecs, order[:, None, num_sources:], axis=2)
    # Each stack is dropped once the next is formed, so none of them
    # adds to the peak of the row evaluation below.
    del vecs
    basis_w = noise.conj().transpose(0, 2, 1) @ w_inv_sqrt
    del noise
    gram = basis_w.conj().transpose(0, 2, 1) @ basis_w
    del basis_w
    # One zero after each flat Gram matrix pads the fold's short lags.
    flat = np.concatenate([gram.reshape(trials, -1), np.zeros((trials, 1))], axis=1)
    del gram
    # take() lays each trial's gathered lags out contiguously, so each
    # trial's sums run in the order they run alone.
    lag_sums = np.take(flat, setup.fold, axis=1).sum(axis=-1)
    del flat
    coef = np.concatenate(
        [lag_sums[:, :1].real, 2.0 * lag_sums[:, 1:].real, -2.0 * lag_sums[:, 1:].imag], axis=1
    )

    coef.flags.writeable = False
    theta_grid, elevations = setup.theta_grid_deg, setup.elevation_grid_deg
    # Estimates carry the exact grid degrees, not a radian round trip.
    estimates = tuple(
        tuple(
            Doa.from_degrees(float(theta_grid[i]), float(elevations[j]))
            for i, j in zip(thetas, phis)
        )
        for thetas, phis in _ranked_peaks(_spectrum_rows(coef, setup), num_sources)
    )
    return MusicBatch(setup, coef, estimates)


def estimate_doa(bins, setup: SearchSetup, weights) -> MusicBatch:
    """Run the recover/compensate/smooth/whiten chain and the search on a batch of trials.

    ``bins`` holds each trial's (2P+1, I) harmonic-bin matrix from
    :func:`~msdoa.snapshot.extract_snapshots`, and ``weights`` each
    trial's (L, ``setup.width``) weight bank, in the same order; a bin
    or bank stack of another shape, or matrices that do not stack,
    raises :class:`ValidationError`, and a trial whose covariance is not
    finite :class:`MsdoaError`. ``setup`` is the :func:`search_setup`
    of the surface and estimator. The chain (:func:`_whitened_chain`)
    runs once on the whole batch and leaves only its whitened
    covariances and whitening transforms behind, which one
    :func:`music_search` takes. Every stage runs on arrays with a
    leading trial axis and makes, per trial, the call a batch of one
    makes, so no bit of a result depends on the batch.
    """
    whitened, w_inv_sqrt = _whitened_chain(bins, setup, weights)
    return music_search(whitened, w_inv_sqrt, setup)


def _whitened_chain(bins, setup: SearchSetup, weights):
    """Whitened covariances and whitening transforms of a batch of trials.

    Each trial's bank forms its whitener from the setup's
    ``window_gram`` and smooths its recovered snapshots. The whitener is
    decomposed before the bins are stacked, so its workspace adds
    nothing to the smoothing's peak, and no stack outlives the chain.
    """
    expected = f"expected ({len(bins)}, L, {setup.width})"
    try:
        weights = np.asarray(weights, dtype=complex)
    except ValueError as exc:  # banks of different shapes
        raise ValidationError(f"weight banks do not stack into one array; {expected}") from exc
    if weights.ndim != 3 or weights.shape[0] != len(bins) or weights.shape[2] != setup.width:
        raise ValidationError(f"weight banks have shape {weights.shape}; {expected}")
    w_inv_sqrt = whitener_inv_sqrt(smoothing_whitener(weights, setup.window_gram))
    lines = 2 * setup.harmonics.max_harmonic + 1
    expected = f"expected (trials, {lines}, snapshots)"
    try:
        stack = np.stack(bins)
    except ValueError as exc:  # bin matrices of different shapes
        raise ValidationError(f"snapshot bins do not stack into one array; {expected}") from exc
    if stack.ndim != 3 or stack.shape[1] != lines:
        raise ValidationError(f"snapshot bins have shape {stack.shape}; {expected}")
    recovered = recover_channels(stack, setup.harmonics)
    # LAPACK need not converge on a matrix that is not finite, as bins of
    # a power past the float range make the covariance; it is refused here.
    with np.errstate(over="ignore", invalid="ignore"):
        covariance = ps_covariance(smooth(recovered, setup.compensation, weights, setup.surface))
    finite = np.isfinite(covariance).all(axis=(1, 2))
    if not finite.all():
        raise MsdoaError(
            f"the covariance of trial {np.argmin(finite)} of the batch is not finite; "
            "the received power is past the float range"
        )
    return whiten(covariance, w_inv_sqrt), w_inv_sqrt
