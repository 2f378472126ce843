"""Received-signal synthesis for the switched-surface receiver.

Builds the single-channel time series seen by the receiver: each
incident plane wave is multiplied element-wise by the +/-1 coding
schedule, summed over the surface, scaled by per-snapshot source
amplitudes, and buried in circular complex Gaussian noise. Two signal
models are available: ``full`` evaluates the exact schedule sample by
sample, ``ideal`` keeps only coding harmonics up to a chosen order
(a band-limited idealization with no spectral folding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .surface import Doa, HarmonicMatrix, SurfaceConfig, steering_matrix

_MODES = ("full", "ideal")
_AMPLITUDE_MODELS = ("gaussian", "constant_modulus")
_COHERENCE = ("incoherent", "coherent")


@dataclass(frozen=True)
class SourceScene:
    """Incident sources: directions, powers, and amplitude statistics.

    ``coherent_gains`` are the fixed unit-modulus ratios tying every
    source amplitude to the first one in coherent mode; ``None`` means
    "draw once per experiment from the experiment seed" and is resolved
    by :func:`resolve_gains` before synthesis.
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
        if any(p <= 0 for p in self.powers):
            raise ValidationError("source powers must be positive")
        if self.coherence not in _COHERENCE:
            raise ValidationError(f"coherence must be one of {_COHERENCE}")
        if self.amplitude_model not in _AMPLITUDE_MODELS:
            raise ValidationError(f"amplitude_model must be one of {_AMPLITUDE_MODELS}")
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


def make_coherent_gains(num_sources: int, rng_seed) -> tuple[complex, ...]:
    """Unit-modulus gains with seeded uniform-random phases, first = 1."""
    rng = np.random.default_rng(rng_seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=num_sources)
    gains = np.exp(1j * phases)
    gains[0] = 1.0
    return tuple(complex(g) for g in gains)


def resolve_gains(scene: SourceScene, rng_seed) -> SourceScene:
    """Fill in coherent gains from a seed when the scene left them unset."""
    if scene.coherence != "coherent" or scene.coherent_gains is not None:
        return scene
    from dataclasses import replace

    return replace(scene, coherent_gains=make_coherent_gains(scene.num_sources, rng_seed))


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
        if self.sample_rate_hz <= 0 or self.coding_period_s <= 0:
            raise ValidationError("sample_rate_hz and coding_period_s must be positive")
        if self.periods_per_snapshot < 1:
            raise ValidationError("periods_per_snapshot must be at least 1")
        if self.num_snapshots < 1:
            raise ValidationError("num_snapshots must be at least 1")
        ratio = self.sample_rate_hz * self.coding_period_s
        if abs(ratio - round(ratio)) > 1e-6 * max(1.0, ratio) or round(ratio) < 1:
            raise ValidationError(
                "sample_rate_hz times coding_period_s must be a positive "
                f"integer so coding harmonics fall on FFT bins; got {ratio!r}"
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


@dataclass(frozen=True)
class NoiseSpec:
    """Per-element noise variance, optionally derived from an SNR.

    ``variance`` is the per-element power sigma^2; the aggregate noise
    added to the single receiver stream has variance M*N*sigma^2.
    """

    variance: float
    snr_db: float | None = None

    def __post_init__(self):
        if self.variance < 0:
            raise ValidationError("noise variance must be nonnegative")

    @classmethod
    def from_snr_db(cls, snr_db: float, reference_power: float = 1.0) -> "NoiseSpec":
        """Variance giving ``snr_db = 10*log10(reference_power/variance)``."""
        if reference_power <= 0:
            raise ValidationError("reference_power must be positive")
        return cls(reference_power * 10.0 ** (-snr_db / 10.0), snr_db=float(snr_db))

    @classmethod
    def quiet(cls) -> "NoiseSpec":
        return cls(0.0)


@dataclass(eq=False)
class TimeSeries:
    """Complex baseband receiver samples on a uniform grid."""

    samples: np.ndarray
    sample_rate_hz: float

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
                "coherent scene has unresolved gains; call resolve_gains first"
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

    Holds the scene and plan it was built for and the element count
    that scales the receiver noise. In full mode ``patterns`` holds,
    per source, the switched surface sum over the whole record: at each
    sample the active element's steering entry counts +1 and every
    other entry -1, i.e. ``2*a[slot] - sum(a)``. In ideal mode
    ``mixed_steering`` is the (2P+1, K) harmonic mixture of the
    steering and ``phase_table`` the Q x (2P+1) table of sample phases,
    which repeats exactly from snapshot to snapshot because snapshots
    span whole coding periods. Arrays are read-only: trials share them.
    """

    scene: SourceScene
    plan: SamplingPlan
    num_elements: int
    patterns: np.ndarray | None = None
    mixed_steering: np.ndarray | None = None
    phase_table: np.ndarray | None = None


def signal_model(
    cfg: SurfaceConfig,
    scene: SourceScene,
    plan: SamplingPlan,
    mode: str,
    harmonics: HarmonicMatrix | None = None,
) -> SignalModel:
    """Precompute the trial-invariant part of :func:`synthesize_received`.

    ``mode`` "full" evaluates the exact +/-1 schedule; "ideal" keeps
    the coding harmonics of ``harmonics``, which it requires. The plan's
    coding period must match ``cfg``.
    """
    if mode not in _MODES:
        raise ValidationError(f"mode must be one of {_MODES}")
    if mode == "ideal" and harmonics is None:
        raise ValidationError("ideal mode needs the harmonic matrix")
    if abs(plan.coding_period_s - cfg.coding_period_s) > 1e-12 * cfg.coding_period_s:
        raise ValidationError("plan and surface disagree on the coding period")
    k = scene.num_sources
    if k == 0:
        return SignalModel(scene, plan, cfg.size)
    steering = steering_matrix(scene.doas, cfg)
    z = plan.points_per_period
    if mode == "full":
        slots = _slot_indices(np.arange(plan.total_points), z, cfg.size)
        col_sums = steering.sum(axis=0)
        patterns = np.stack([2.0 * steering[slots, j] - col_sums[j] for j in range(k)])
        patterns.flags.writeable = False
        return SignalModel(scene, plan, cfg.size, patterns=patterns)
    # Phases are reduced with integer arithmetic before exp to stay
    # exact for large p*q.
    mixed = harmonics.entries @ steering
    reduced = np.mod(np.outer(np.arange(plan.points_per_snapshot), harmonics.harmonic_orders), z)
    table = np.exp(2j * np.pi * reduced / z)
    mixed.flags.writeable = False
    table.flags.writeable = False
    return SignalModel(scene, plan, cfg.size, mixed_steering=mixed, phase_table=table)


def _signal_samples(model: SignalModel, amplitudes: np.ndarray) -> np.ndarray:
    if model.scene.num_sources == 0:
        return np.zeros(model.plan.total_points, dtype=complex)
    if model.patterns is not None:
        # Snapshot i of pattern k scales by amplitude (k, i): broadcast
        # over (I, Q) rather than repeating each amplitude Q times.
        plan = model.plan
        out = np.zeros((plan.num_snapshots, plan.points_per_snapshot), dtype=complex)
        for k in range(model.scene.num_sources):
            out += model.patterns[k].reshape(out.shape) * amplitudes[k][:, None]
        return out.ravel()
    # Band-limited model: truncated harmonic sum, one phase-table
    # product per snapshot column.
    coeffs = model.mixed_steering @ amplitudes  # (2P+1, I)
    return (model.phase_table @ coeffs).ravel(order="F")


def synthesize_received(model: SignalModel, noise: NoiseSpec, rng_seed):
    """Synthesize the receiver time series of one run of a :func:`signal_model`.

    Samples sit at t_q = q / sample_rate_hz with the coding phase
    continuous across snapshot boundaries (time origin 0). The seed is
    split once for amplitudes and once for noise, so a given seed
    reproduces the run exactly. Coherent scenes must have resolved
    gains.

    Returns
    -------
    (TimeSeries, np.ndarray)
        The series and the (K, I) source amplitudes it drew.
    """
    rng = np.random.default_rng(rng_seed)
    amp_rng, noise_rng = rng.spawn(2)
    amplitudes = draw_source_amplitudes(model.scene, model.plan.num_snapshots, amp_rng)
    samples = _signal_samples(model, amplitudes)
    if noise.variance > 0:
        # Real parts first, then imaginary parts, from one buffer, added
        # in place.
        scale = np.sqrt(model.num_elements * noise.variance / 2.0)
        draws = noise_rng.standard_normal((2, samples.size))
        draws *= scale
        samples.real += draws[0]
        samples.imag += draws[1]
    return TimeSeries(samples, model.plan.sample_rate_hz), amplitudes


def write_time_series(series: TimeSeries, plan: SamplingPlan, path: str, seed=None) -> None:
    """Write samples as little-endian float64 (re, im) pairs plus a sidecar.

    The sidecar ``<path>.hdr`` records sample rate, points per snapshot,
    snapshot count, and the seed as ``key=value`` lines.
    """
    data = np.empty(2 * series.samples.size, dtype="<f8")
    data[0::2] = series.samples.real
    data[1::2] = series.samples.imag
    data.tofile(path)
    with open(f"{path}.hdr", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"sample_rate_hz={series.sample_rate_hz!r}\n")
        fh.write(f"points_per_snapshot={plan.points_per_snapshot}\n")
        fh.write(f"num_snapshots={plan.num_snapshots}\n")
        fh.write(f"seed={seed}\n")


def read_time_series(path: str) -> TimeSeries:
    """Read a series written by :func:`write_time_series`."""
    header = {}
    with open(f"{path}.hdr", "r", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.strip().partition("=")
            header[key] = value
    raw = np.fromfile(path, dtype="<f8")
    return TimeSeries(raw[0::2] + 1j * raw[1::2], float(header["sample_rate_hz"]))
