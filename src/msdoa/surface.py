"""Geometry and coding math of a time-switched metasurface.

The surface is an M x N grid of reflecting elements that multiply the
incident field by a periodic +/-1 schedule: each coding period is split
into M*N equal slots, swept in row-major element order, and exactly one
element is flipped to +1 during its own slot. A single receiver sits on
the -z axis below the surface center. This module alone states that
schedule, in both domains: in frequency as each element's Fourier
coefficients, which the harmonic matrix stacks, checked and inverted
when it is made; in time as one sampled period of the switched surface
sum. It also gives element positions and steering vectors with the
element-to-receiver path. The coefficients are per period; the period
belongs to the sampling plan (:class:`msdoa.waveform.SamplingPlan`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateCodingError,
    ValidationError,
    integer_fields,
    refuse_degenerate,
)

SPEED_OF_LIGHT = 2.99792458e8

# Relative singular-value cutoff below which the harmonic matrix is
# treated as rank deficient.
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class SurfaceConfig:
    """Surface geometry and carrier parameters.

    Columns run along x and rows along y; the receiver sits at
    ``(0, 0, -receiver_offset_m)``. ``spacing_m`` of ``None`` resolves
    to half a carrier wavelength, then ``receiver_offset_m`` of ``None``
    to twice the spacing. A geometry whose carrier phases leave the
    float range is refused, so every phase the package forms is finite.
    """

    rows: int
    cols: int
    carrier_hz: float
    receiver_offset_m: float | None = None
    spacing_m: float | None = None
    wave_speed: float = SPEED_OF_LIGHT

    def __post_init__(self):
        integer_fields(self, "rows", "cols")
        if self.rows < 1 or self.cols < 1:
            raise ValidationError("surface needs at least one row and one column")
        unset = {"spacing_m": lambda: self.wave_speed / (2.0 * self.carrier_hz),
                 "receiver_offset_m": lambda: 2.0 * self.spacing_m}
        for name in ("carrier_hz", "wave_speed", "spacing_m", "receiver_offset_m"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, unset[name]())
            if not 0 < getattr(self, name) < np.inf:
                raise ValidationError(f"{name} must be positive and finite")
        # The square of the farthest element-to-receiver reach (receiver_delays
        # forms it) and, in each order the modules form it, the carrier phase
        # along twice that reach (across the surface, then down) must fit a float.
        y, x = ((n - 1) / 2.0 * self.spacing_m for n in (self.rows, self.cols))
        path = 2.0 * math.sqrt(x * x + y * y + self.receiver_offset_m * self.receiver_offset_m)
        w, c = self.omega0, self.wave_speed
        if not all(map(math.isfinite, (w / c * path, w * (path / c), w * path / c))):
            raise ValidationError("the surface geometry puts a carrier phase past the float range")

    @property
    def size(self) -> int:
        """Number of elements M*N."""
        return self.rows * self.cols

    @property
    def omega0(self) -> float:
        """Carrier angular frequency, rad/s."""
        return 2.0 * np.pi * self.carrier_hz


@dataclass(frozen=True)
class Doa:
    """Arrival direction: azimuth ``theta`` and elevation ``phi``.

    Stored in degrees, the unit configs and reports use, so values
    round-trip exactly through text; the radian properties feed the
    math. ``phi`` is measured from the +z axis of the surface; waves
    arriving in the surface plane have ``phi = 90``.
    """

    theta_deg: float
    phi_deg: float

    @classmethod
    def from_degrees(cls, theta_deg: float, phi_deg: float = 90.0) -> "Doa":
        return cls(float(theta_deg), float(phi_deg))

    @property
    def theta(self) -> float:
        return float(np.deg2rad(self.theta_deg))

    @property
    def phi(self) -> float:
        return float(np.deg2rad(self.phi_deg))


def _check_element(m, n, cfg: SurfaceConfig) -> None:
    m, n = np.asarray(m), np.asarray(n)
    if np.any((m < 1) | (m > cfg.rows) | (n < 1) | (n > cfg.cols)):
        raise ValidationError(
            f"element index (m={m}, n={n}) outside the "
            f"{cfg.rows} x {cfg.cols} grid (indices are 1-based)"
        )


def element_positions(cfg: SurfaceConfig) -> np.ndarray:
    """All element positions as an (M*N, 3) array in row-major order."""
    d = cfg.spacing_m
    mg, ng = np.meshgrid(
        np.arange(1, cfg.rows + 1), np.arange(1, cfg.cols + 1), indexing="ij"
    )
    x = (ng.ravel() - (cfg.cols + 1) / 2.0) * d
    y = (mg.ravel() - (cfg.rows + 1) / 2.0) * d
    return np.column_stack([x, y, np.zeros(cfg.size)])


def wave_vector(doa: Doa) -> np.ndarray:
    """Unit propagation direction for an arrival at ``doa``."""
    st, ct = np.sin(doa.theta), np.cos(doa.theta)
    sp, cp = np.sin(doa.phi), np.cos(doa.phi)
    return np.array([sp * ct, sp * st, cp])


def _sa(x):
    """sin(x)/x with the removable singularity filled in."""
    return np.sinc(np.asarray(x) / np.pi)


def fourier_coefficient(m, n, p, cfg: SurfaceConfig):
    """Fourier-series coefficient of order ``p`` for element (m, n).

    Coefficients are defined by w(t) = sum_p u_p exp(j*2*pi*p*t/T) with
    T the coding period. The closed form integrates the three constant
    pieces of the schedule (-1, +1, -1) over one period:

        u_p = -a*Sa(p*pi*a)*exp(-j*p*pi*a)
              + h*Sa(p*pi*h)*exp(-j*p*pi*(2a + h))
              - b*Sa(p*pi*b)*exp(-j*p*pi*(1 + a + h))

    where a is the slot start, h = 1/(M*N) the slot width, b = 1 - a - h
    the trailing length (all as fractions of the period), and
    Sa(x) = sin(x)/x. The order-0 coefficient is the duty-cycle mean
    2/(M*N) - 1. Element indices and orders broadcast against each
    other, and each entry is computed as a scalar call would compute it.

    Parameters
    ----------
    m, n : int or array_like of int
        1-based element indices.
    p : int or array_like of int
        Harmonic order(s).
    cfg : SurfaceConfig

    Returns
    -------
    complex or np.ndarray
        A complex for all-scalar arguments, else an array of their
        broadcast shape.
    """
    _check_element(m, n, cfg)
    size = cfg.size
    p_arr = np.asarray(p)

    slot = (np.asarray(m) - 1) * cfg.cols + (np.asarray(n) - 1)
    start = slot / size
    width = 1.0 / size
    mid_phase = (2 * slot + 1) / size
    tail = (size - slot - 1) / size
    tail_phase = (size + slot + 1) / size

    x = np.pi * p_arr
    val = (
        -start * _sa(x * start) * np.exp(-1j * x * start)
        + width * _sa(x * width) * np.exp(-1j * x * mid_phase)
        - tail * _sa(x * tail) * np.exp(-1j * x * tail_phase)
    )
    val = np.where(p_arr == 0, 2.0 / size - 1.0 + 0.0j, val)
    return complex(val) if val.ndim == 0 else val


def switched_period(steering: np.ndarray, points_per_period: int) -> np.ndarray:
    """One sampled coding period of the switched surface sum, (z, K).

    Sample r of z = ``points_per_period`` lies in slot ceil(r*M*N/z) - 1,
    by integer division so boundaries are exact, and phase 0 in the last
    slot. That slot's element counts +1 and every other -1, so row r is
    2*a[slot] - sum(a) for each steering column a (M*N row-major entries).
    """
    size, z = steering.shape[0], points_per_period
    num = np.arange(z) * size
    slots = np.where(num == 0, size - 1, (num + z - 1) // z - 1)
    return 2.0 * steering[slots] - steering.sum(axis=0)


def receiver_delays(cfg: SurfaceConfig) -> np.ndarray:
    """Element-to-receiver propagation delays, seconds, (M*N,)."""
    pos = element_positions(cfg)
    offset = np.array([0.0, 0.0, -cfg.receiver_offset_m])
    return np.linalg.norm(pos - offset, axis=1) / cfg.wave_speed


def arrival_delays(doa: Doa, cfg: SurfaceConfig) -> np.ndarray:
    """Plane-wave arrival delays relative to the surface center, (M*N,)."""
    return element_positions(cfg) @ wave_vector(doa) / cfg.wave_speed


def steering_vector(doa: Doa, cfg: SurfaceConfig) -> np.ndarray:
    """Unit-modulus steering vector for one arrival, (M*N,) complex.

    Entry (m-1)*N + (n-1) carries the combined phase of the incident
    path across the surface and the element-to-receiver path, both at
    the carrier.
    """
    total = arrival_delays(doa, cfg) + receiver_delays(cfg)
    return np.exp(1j * cfg.omega0 * total)


def steering_matrix(doas, cfg: SurfaceConfig) -> np.ndarray:
    """Steering vectors of one or more arrivals as (M*N, K) columns."""
    return np.column_stack([steering_vector(d, cfg) for d in doas])


class HarmonicMatrix:
    """Stacked Fourier-coefficient rows of the element coding waveforms, checked and inverted.

    Row ``p + max_harmonic`` holds the order-p coefficients of every
    element; columns follow row-major element order, matching
    :func:`steering_vector`. Row 0 (order ``-max_harmonic``) through the
    top are conjugate-symmetric about the center row, whose entries all
    equal the duty-cycle mean. It is made with its inverses, so fewer
    lines than elements raise ``ConfigurationError`` and rank deficiency
    ``DegenerateCodingError``. ``entries`` (a copy) and both inverses are read-only.
    """

    def __init__(self, max_harmonic: int, entries: np.ndarray):
        entries = np.array(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != 2 * max_harmonic + 1:
            raise ValidationError(
                f"entries must be (2*max_harmonic+1, M*N); got {entries.shape}"
            )
        rows, cols = entries.shape
        if rows < cols:
            raise ConfigurationError(
                f"harmonic matrix has {rows} frequency lines for {cols} "
                "elements; channel recovery needs at least as many lines "
                "as elements (increase max_harmonic)"
            )
        u, s, vh = np.linalg.svd(entries, full_matrices=False)
        refuse_degenerate(
            s[-1], s[0], RANK_RTOL, DegenerateCodingError,
            "harmonic matrix is numerically rank deficient; the coding schedule "
            "does not separate the element channels; singular values",
        )
        self.max_harmonic = int(max_harmonic)
        self.entries = entries
        self._pseudo = (vh.conj().T / s) @ u.conj().T
        self._gram = (vh.conj().T / s**2) @ vh
        for arr in (self.entries, self._pseudo, self._gram):
            arr.flags.writeable = False

    @property
    def harmonic_orders(self) -> np.ndarray:
        """Row harmonic orders -P..P."""
        return np.arange(-self.max_harmonic, self.max_harmonic + 1)

    @property
    def pseudo_inverse(self) -> np.ndarray:
        """Left inverse (U^H U)^-1 U^H, from the SVD taken at construction."""
        return self._pseudo

    @property
    def gram_inverse(self) -> np.ndarray:
        """(U^H U)^-1, from the SVD taken at construction."""
        return self._gram


def harmonic_matrix(max_harmonic: int, cfg: SurfaceConfig) -> HarmonicMatrix:
    """Build the (2*max_harmonic+1) x (M*N) harmonic matrix, checked and inverted.

    :func:`fourier_coefficient` gives any orders' coefficients unchecked.
    """
    if max_harmonic < 0:
        raise ValidationError("max_harmonic must be nonnegative")
    orders = np.arange(-max_harmonic, max_harmonic + 1)
    m, n = np.divmod(np.arange(cfg.size), cfg.cols)
    entries = fourier_coefficient(m + 1, n + 1, orders[:, None], cfg)
    return HarmonicMatrix(max_harmonic, entries)
