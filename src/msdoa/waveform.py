"""Received-signal synthesis for the switched-surface receiver.

Builds the single-channel time series seen by the receiver: each
incident plane wave is multiplied element-wise by the +/-1 coding
schedule, summed over the surface, scaled by per-snapshot source
amplitudes, and buried in circular complex Gaussian noise of a given
per-element variance. Two signal models are available: ``full``
evaluates the exact schedule sample by sample, ``ideal`` keeps only
coding harmonics up to a chosen order (a band-limited idealization with
no spectral folding). A :class:`TimeSeries` holds samples alone: its
:class:`SamplingPlan` gives their rate and, through
:meth:`SamplingPlan.windows`, alone checks that a series fits it. The
module opens no file; :func:`msdoa.harness.write_time_series` writes a
series and :func:`msdoa.harness.read_time_series` reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .surface import Doa, HarmonicMatrix, SurfaceConfig, steering_matrix

MODES = ("full", "ideal")
AMPLITUDE_MODELS = ("gaussian", "constant_modulus")
COHERENCE = ("incoherent", "coherent")


@dataclass(frozen=True)
class SourceScene:
    """Incident sources: directions, powers, and amplitude statistics.

    ``coherent_gains`` are the fixed unit-modulus ratios tying every
    source amplitude to the first one in coherent mode; ``None`` means
    "draw once per experiment from the experiment seed", which
    :func:`msdoa.harness.resolve_experiment` does before synthesis.
    """

    doas: tuple[Doa, ...]
    powers: tuple[float, ...]
    coherence: str = "incoherent"
    coherent_gains: tuple[complex, ...] | None = None
    amplitude_model: str = "gaussian"

    def __post_init__(self):
        object.__setattr__(self, "doas", tuple(self.doas))
        object.__setattr__(self, "powers", tuple(float(p) for p in self.powers))
        if len(self.powers) != len(self.doas):
            raise ValidationError("powers must match the number of sources")
        if not all(0 < p < np.inf for p in self.powers):
            raise ValidationError("source powers must be positive and finite")
        if self.coherence not in COHERENCE:
            raise ValidationError(f"coherence must be one of {COHERENCE}")
        if self.amplitude_model not in AMPLITUDE_MODELS:
            raise ValidationError(f"amplitude_model must be one of {AMPLITUDE_MODELS}")
        if self.coherent_gains is not None:
            if self.coherence != "coherent":
                raise ValidationError("coherent_gains require coherence='coherent'")
            gains = tuple(complex(g) for g in self.coherent_gains)
            object.__setattr__(self, "coherent_gains", gains)
            if len(gains) != len(self.doas):
                raise ValidationError("coherent_gains must match the number of sources")
            if abs(gains[0] - 1.0) > 1e-9:
                raise ValidationError("the first coherent gain must be exactly 1")
            if any(abs(abs(g) - 1.0) > 1e-9 for g in gains):
                raise ValidationError("coherent gains must have unit modulus")

    @property
    def num_sources(self) -> int:
        return len(self.doas)


@dataclass(frozen=True)
class SamplingPlan:
    """Receiver sampling grid: rate, snapshot length, snapshot count.

    A snapshot spans ``periods_per_snapshot`` whole coding periods, so
    every coding harmonic lands exactly on a discrete frequency bin.
    The sample rate must be an integer multiple of the coding rate.
    """

    sample_rate_hz: float
    periods_per_snapshot: int
    num_snapshots: int
    coding_period_s: float

    def __post_init__(self):
        if not (0 < self.sample_rate_hz < np.inf and 0 < self.coding_period_s < np.inf):
            raise ValidationError("sample_rate_hz and coding_period_s must be positive and finite")
        if self.periods_per_snapshot < 1:
            raise ValidationError("periods_per_snapshot must be at least 1")
        if self.num_snapshots < 1:
            raise ValidationError("num_snapshots must be at least 1")
        ratio = self.sample_rate_hz * self.coding_period_s
        whole = round(ratio) if ratio < np.inf else 0
        if abs(ratio - whole) > 1e-6 * max(1.0, ratio) or whole < 1:
            raise ValidationError(
                "sample_rate_hz times coding_period_s must be a positive "
                f"integer so coding harmonics fall on FFT bins; got {ratio!r}"
            )
        if whole * self.periods_per_snapshot * self.num_snapshots > np.iinfo(np.int64).max:
            raise ValidationError(
                f"sample_rate_hz times coding_period_s is {ratio!r} samples per coding period; "
                "the run's sample count must fit a 64-bit integer"
            )

    @property
    def points_per_period(self) -> int:
        """Samples in one coding period."""
        return int(round(self.sample_rate_hz * self.coding_period_s))

    @property
    def points_per_snapshot(self) -> int:
        """Samples in one snapshot window."""
        return self.periods_per_snapshot * self.points_per_period

    @property
    def total_points(self) -> int:
        return self.points_per_snapshot * self.num_snapshots

    def windows(self, series: TimeSeries) -> np.ndarray:
        """The series as its (I, Q) snapshot windows; it must hold ``total_points`` samples."""
        if series.samples.size != self.total_points:
            raise ValidationError(
                f"series has {series.samples.size} samples but the plan needs {self.total_points}"
            )
        return series.samples.reshape(self.num_snapshots, self.points_per_snapshot)


@dataclass(eq=False)
class TimeSeries:
    """Complex baseband receiver samples; the sampling plan gives their rate."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)
        if self.samples.ndim != 1:
            raise ValidationError("samples must be one-dimensional")


def draw_source_amplitudes(scene: SourceScene, num_snapshots: int, rng_seed) -> np.ndarray:
    """Draw the (K, I) per-snapshot source amplitude matrix.

    Gaussian mode draws circular complex Gaussian entries with the
    configured powers; constant-modulus mode draws sqrt(power) times a
    uniform random phase. In coherent mode only the first row is drawn
    and the rest are tied to it by the scene's unit-modulus gains, so
    the matrix has rank one.
    """
    if num_snapshots < 1:
        raise ValidationError("num_snapshots must be at least 1")
    rng = np.random.default_rng(rng_seed)
    k = scene.num_sources
    powers = np.asarray(scene.powers)

    def _draw(shape, power):
        if scene.amplitude_model == "gaussian":
            re = rng.standard_normal(shape)
            im = rng.standard_normal(shape)
            return np.sqrt(np.asarray(power) / 2.0) * (re + 1j * im)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=shape)
        return np.sqrt(np.asarray(power)) * np.exp(1j * phase)

    if scene.coherence == "coherent":
        if scene.coherent_gains is None:
            raise ValidationError(
                "coherent scene has unresolved gains; call resolve_experiment first"
            )
        base = _draw(num_snapshots, powers[0])
        gains = np.asarray(scene.coherent_gains)
        return gains[:, None] * base[None, :]
    return _draw((k, num_snapshots), powers[:, None])


def _slot_indices(sample_indices: np.ndarray, points_per_period: int, size: int) -> np.ndarray:
    """Active element (row-major slot) for each integer sample index.

    Integer arithmetic keeps slot-boundary decisions exact: sample q at
    period phase r/z belongs to slot ceil(r*size/z) - 1, with phase 0
    wrapping to the last slot (the schedule is left-open in time).
    """
    r = sample_indices % points_per_period
    num = r * size
    return np.where(num == 0, size - 1, (num + points_per_period - 1) // points_per_period - 1)


@dataclass(frozen=True, eq=False)
class SignalModel:
    """The part of the noiseless received signal no amplitude draw changes.

    Holds the plan it was built for, the element count that
    scales the receiver noise, and ``patterns``: one coding period of
    each source's noiseless signal at unit amplitude, a read-only
    (K, points_per_period) array that trials share. The record repeats
    it, since the coding repeats with the period and snapshots span
    whole periods. In full mode a pattern is the switched surface sum:
    at each sample the active element's steering entry counts +1 and
    every other entry -1, i.e. ``2*a[slot] - sum(a)``. In ideal mode it
    is the coding harmonics' sum over the period. Without sources the
    stack is empty, (0, points_per_period).
    """

    plan: SamplingPlan
    num_elements: int
    patterns: np.ndarray


def signal_model(
    cfg: SurfaceConfig,
    scene: SourceScene,
    plan: SamplingPlan,
    mode: str,
    harmonics: HarmonicMatrix | None = None,
) -> SignalModel:
    """Precompute the trial-invariant part of :func:`synthesize_received`.

    ``mode`` "full" evaluates the exact +/-1 schedule and "ideal" keeps
    the coding harmonics of ``harmonics``, which it requires: source k's
    pattern at sample q is sum_p (U a_k)_p exp(2j*pi*p*q/z) over the
    orders p of U, with a_k its steering vector and z the points per
    period. Either mode forms its patterns here, once.
    """
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}")
    if mode == "ideal" and harmonics is None:
        raise ValidationError("ideal mode needs the harmonic matrix")
    z = plan.points_per_period
    if scene.num_sources == 0:
        patterns = np.zeros((0, z), dtype=complex)
    else:
        steering = steering_matrix(scene.doas, cfg)
        if mode == "full":
            slots = _slot_indices(np.arange(z), z, cfg.size)
            period = 2.0 * steering[slots] - steering.sum(axis=0)
        else:
            # The phase p*q/z is reduced to an integer index into the z
            # roots of unity, which keeps it exact for large p*q.
            roots = np.exp(2j * np.pi * np.arange(z) / z)
            table = roots[np.mod(np.outer(np.arange(z), harmonics.harmonic_orders), z)]
            period = table @ (harmonics.entries @ steering)
        patterns = np.ascontiguousarray(period.T)
    patterns.flags.writeable = False
    return SignalModel(plan, cfg.size, patterns)


def _signal_samples(model: SignalModel, amplitudes: np.ndarray) -> np.ndarray:
    # Snapshot i scales by the amplitudes of column i, and every period
    # of a snapshot is the same sum, so form one period per snapshot,
    # (I, z), and repeat it k0 times.
    plan = model.plan
    period = np.zeros((plan.num_snapshots, plan.points_per_period), dtype=complex)
    for pattern, amplitude in zip(model.patterns, amplitudes):
        period += pattern * amplitude[:, None]
    return np.repeat(period[:, None, :], plan.periods_per_snapshot, axis=1).ravel()


def synthesize_received(model: SignalModel, noise_variance: float, amplitudes, noise_seed):
    """Synthesize the receiver time series of one run of a :func:`signal_model`.

    Samples sit at t_q = q / fs, fs the plan's sample rate, with the coding
    phase continuous across snapshot boundaries (time origin 0). The signal
    is scaled by the (K, I) source amplitudes ``amplitudes`` (see
    :func:`draw_source_amplitudes`), and circular Gaussian noise of
    per-element variance ``noise_variance`` (M*N times that at the
    receiver) is drawn from ``noise_seed``, so given amplitudes and seed
    reproduce the series.
    """
    if not 0 <= noise_variance < np.inf:
        raise ValidationError("noise_variance must be nonnegative and finite")
    amplitudes = np.asarray(amplitudes, dtype=complex)
    shape = (model.patterns.shape[0], model.plan.num_snapshots)
    if amplitudes.shape != shape:
        raise ValidationError(f"amplitudes have shape {amplitudes.shape}; expected {shape}")
    samples = _signal_samples(model, amplitudes)
    if noise_variance > 0:
        # Real parts first, then imaginary parts, from one buffer, added
        # in place.
        scale = np.sqrt(model.num_elements * noise_variance / 2.0)
        draws = np.random.default_rng(noise_seed).standard_normal((2, samples.size))
        draws *= scale
        samples.real += draws[0]
        samples.imag += draws[1]
    return TimeSeries(samples)
