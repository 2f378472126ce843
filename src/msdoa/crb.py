"""Deterministic Cramer-Rao bounds for the harmonic snapshot model.

The observation stacks the harmonic-bin vectors of all snapshots; its
mean is linear in the (known-realization) source amplitudes through the
harmonic matrix and the steering vectors, and the noise is white across
bins and snapshots with per-bin variance M*N*sigma^2/Q. The bound on
the angle block treats the amplitudes as deterministic nuisance
parameters and projects the angle sensitivities onto the orthogonal
complement of the amplitude sensitivities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    MsdoaError,
    UnidentifiableParameterError,
    ValidationError,
    refuse_degenerate,
)
from .surface import (
    Doa,
    HarmonicMatrix,
    SurfaceConfig,
    element_positions,
    steering_matrix,
    steering_vector,
)
from .waveform import SamplingPlan, SourceScene

_STEERING_RTOL = 1e-10
_SINGULAR_RTOL = 1e-12


def steering_derivatives(doa: Doa, cfg: SurfaceConfig) -> np.ndarray:
    """Partial derivatives of the steering vector, columns (d/dtheta, d/dphi).

    Each entry is the steering entry times j*w0/c times the projection
    of the element position on the direction derivative. At phi = 0 the
    azimuth column vanishes (azimuth is unidentifiable there); at
    phi = pi/2 the elevation column vanishes for a planar surface.
    """
    pos = element_positions(cfg)
    vec = steering_vector(doa, cfg)
    st, ct = np.sin(doa.theta), np.cos(doa.theta)
    sp, cp = np.sin(doa.phi), np.cos(doa.phi)
    dk_dtheta = np.array([-sp * st, sp * ct, 0.0])
    dk_dphi = np.array([cp * ct, cp * st, -sp])
    scale = 1j * cfg.omega0 / cfg.wave_speed
    return np.column_stack(
        [vec * (scale * (pos @ dk_dtheta)), vec * (scale * (pos @ dk_dphi))]
    )


@dataclass(eq=False)
class CrbResult:
    """Angle-block bound: covariance floor in radians^2.

    Parameter order is all azimuths then all elevations (azimuths only
    when the elevations were declared known). ``theta_bounds`` are the
    azimuth diagonal entries. The bound of a stack of draws stacks
    ``matrix`` and ``theta_bounds`` along a leading trial axis.
    """

    matrix: np.ndarray
    theta_bounds: np.ndarray


@dataclass(frozen=True, eq=False)
class CrbCore:
    """The amplitude-independent part of the bound.

    ``core`` is the projected sensitivity Gram matrix S^H P S, with S
    the angle sensitivities seen through the harmonic mixing and P the
    projector onto the orthogonal complement of the mixed steering.
    Only the sample covariance of the amplitudes changes from one draw
    to the next. The other fields are what :func:`crb` needs of the
    model: the source count, whether elevations are known and the
    element count. Arrays are read-only.
    """

    num_sources: int
    known_elevations: bool
    num_elements: int
    core: np.ndarray


def crb_core(
    cfg: SurfaceConfig,
    scene: SourceScene,
    harmonics: HarmonicMatrix,
    known_elevations: bool = False,
) -> CrbCore:
    """Build and rank-check the amplitude-independent part of :func:`crb`.

    Raises :class:`ConfigurationError` when an angle has no first-order
    effect on the mean once the amplitudes are projected out, since then
    the bound does not exist for any amplitude draw.

    ``known_elevations`` bounds azimuths only, treating every elevation
    as known (the azimuth-only search). It is required for in-plane
    scenes: at 90-degree elevation a flat surface carries no
    first-order elevation information, so the joint bound does not
    exist there.
    """
    if scene.num_sources < 1:
        raise ValidationError("bound needs at least one source")
    steer = steering_matrix(scene.doas, cfg)
    derivs = [steering_derivatives(d, cfg) for d in scene.doas]
    # Columns: d/dtheta_1..K, then d/dphi_1..K unless elevations are known.
    theta_cols = np.column_stack([d[:, 0] for d in derivs])
    if known_elevations:
        sens = theta_cols
    else:
        phi_cols = np.column_stack([d[:, 1] for d in derivs])
        sens = np.column_stack([theta_cols, phi_cols])

    mixed_steer = harmonics.entries @ steer  # (2P+1, K)
    mixed_sens = harmonics.entries @ sens  # (2P+1, groups*K)

    sing = np.linalg.svd(mixed_steer, compute_uv=False)
    refuse_degenerate(
        sing[-1], sing[0], _STEERING_RTOL, ConfigurationError,
        "mixed steering matrix is rank deficient; amplitude nuisance directions "
        "are not separable (coincident sources?); singular values",
    )

    lines = 2 * harmonics.max_harmonic + 1
    proj = np.eye(lines) - mixed_steer @ np.linalg.pinv(mixed_steer)
    # Sensitivities past the float range leave a diagonal the check below refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        core = mixed_sens.conj().T @ proj @ mixed_sens
    # The Fisher matrix is this core times a positive semidefinite
    # amplitude covariance, entry by entry, so a vanishing diagonal
    # entry vanishes in it too (Schur product theorem): that angle is
    # unidentifiable whatever the amplitudes. A sensitivity that is not
    # finite leaves a NaN or infinite diagonal, which argmin and max name.
    diag = np.real(np.diagonal(core))
    k = int(np.argmin(diag))
    angle = "azimuth" if k < scene.num_sources else "elevation"
    refuse_degenerate(
        diag[k], diag.max(), _SINGULAR_RTOL, ConfigurationError,
        f"the {angle} of source {k % scene.num_sources + 1} carries no first-order "
        "information for any amplitudes, or its bound is not finite; projected sensitivity",
    )
    core.flags.writeable = False
    return CrbCore(scene.num_sources, bool(known_elevations), cfg.size, core)


# Every Fisher matrix and bound past the float range is refused, so
# numpy need not warn of the overflow that makes it.
@np.errstate(over="ignore", invalid="ignore")
def crb(
    core: CrbCore, plan: SamplingPlan, noise_variance: float, amplitudes: np.ndarray
) -> CrbResult:
    """Angle-block Cramer-Rao bound for one amplitude realization, or for each of a stack.

    Parameters
    ----------
    core : CrbCore
        The :func:`crb_core` of the model under test.
    plan : SamplingPlan
        The snapshot length and count of the run.
    noise_variance : float
        Per-element sigma^2.
    amplitudes : (K, I) or (trials, K, I) complex
        The deterministic source amplitudes of the run, or of each
        trial of a batch; any other shape, or matrices that do not
        stack, raises :class:`ValidationError`.

    Returns
    -------
    CrbResult
        ``matrix`` is K x K over azimuths when the core's elevations are
        known, otherwise 2K x 2K over azimuths then elevations; a stack
        of amplitudes gives a stack of matrices and a (trials, K) array
        of ``theta_bounds``. The first trial whose Fisher information is
        singular raises as it would alone, and then the first whose bound
        is not finite raises :class:`MsdoaError`.
    """
    k, num_snap = core.num_sources, plan.num_snapshots
    expected = f"expected ({k}, {num_snap}) or a stack of them"
    try:
        amps = np.asarray(amplitudes, dtype=complex)
    except ValueError as exc:  # amplitude matrices of different shapes
        raise ValidationError(f"amplitudes do not stack into one array; {expected}") from exc
    if amps.ndim not in (2, 3) or amps.shape[-2:] != (k, num_snap):
        raise ValidationError(f"amplitudes have shape {amps.shape}; {expected}")
    if not 0 <= noise_variance < np.inf:
        raise ValidationError("noise_variance must be nonnegative and finite")
    groups = 1 if core.known_elevations else 2
    q_len = plan.points_per_snapshot
    sample_cov = amps @ np.swapaxes(amps.conj(), -1, -2) / num_snap
    # One copy of the sample covariance per (angle, angle) group block.
    hadamard = np.swapaxes(np.tile(sample_cov, (groups, groups)), -1, -2)
    fisher = np.real(core.core * hadamard)
    fisher = 0.5 * (fisher + np.swapaxes(fisher, -1, -2))
    # LAPACK need not converge on a matrix that is not finite; its eigenvalues are NaN.
    finite = np.isfinite(fisher).all(axis=(-2, -1))
    vals = np.full(fisher.shape[:-1], np.nan)
    vals[finite] = np.linalg.eigvalsh(fisher[finite])
    refuse_degenerate(
        vals[..., 0], vals[..., -1], _SINGULAR_RTOL, UnidentifiableParameterError,
        "projected Fisher information is singular (an amplitude draw leaves an angle "
        "unidentifiable, for example a silent source) or not finite; eigenvalues",
    )
    prefactor = core.num_elements * noise_variance / (2.0 * q_len * num_snap)
    bound = prefactor * np.linalg.inv(fisher)
    bound = 0.5 * (bound + np.swapaxes(bound, -1, -2))
    finite = np.isfinite(bound).all(axis=(-2, -1))
    if not finite.all():
        raise MsdoaError(
            f"the bound of trial {np.argmin(finite)} of the batch is not finite; "
            "the ratio of noise to source power is past the float range"
        )
    return CrbResult(bound, bound.diagonal(axis1=-2, axis2=-1)[..., :k].copy())
