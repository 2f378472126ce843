"""Frequency-snapshot extraction from the receiver time series.

Each snapshot window spans an integer number of coding periods, so the
coding harmonics land exactly on FFT bins. The window is transformed
with a length-Q DFT and sampled at the harmonic bins, read from the
unshifted spectrum at their centered positions and scaled by 1/Q,
giving one (2P+1)-vector per snapshot. The module opens no file;
:func:`msdoa.harness.write_snapshots_csv` writes the bin matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, ValidationError
from .waveform import SamplingPlan, TimeSeries


def frequency_indices(plan: SamplingPlan, max_harmonic: int) -> np.ndarray:
    """0-based centered-spectrum bins of harmonics -P..P.

    With Q points per snapshot and k0 coding periods per snapshot,
    harmonic p sits at centered bin Q/2 + k0*p. Q must be even so the
    spectrum has a center bin, and k0*P must stay below Q/2 so the top
    harmonic fits in the sampled band (equivalently the sample rate
    must exceed 2*P coding rates).
    """
    if max_harmonic < 0:
        raise ValidationError("max_harmonic must be nonnegative")
    q_len = plan.points_per_snapshot
    k0 = plan.periods_per_snapshot
    if q_len % 2 != 0:
        raise ConfigurationError(
            f"points per snapshot must be even for a centered spectrum; got {q_len}"
        )
    if k0 * max_harmonic >= q_len // 2:
        raise ConfigurationError(
            f"harmonic {max_harmonic} maps to centered bin offset "
            f"{k0 * max_harmonic}, outside the +/-{q_len // 2} band; "
            "raise the sample rate or lower max_harmonic"
        )
    orders = np.arange(-max_harmonic, max_harmonic + 1)
    return q_len // 2 + k0 * orders


def extract_snapshots(series: TimeSeries, plan: SamplingPlan, max_harmonic: int) -> np.ndarray:
    """Slice the series into snapshots and sample their harmonic bins.

    Returns the (2P+1, I) bin matrix: row p+P holds harmonic p, column i
    snapshot i. Uses the first Q*I samples; the series must be at least
    that long and carry the plan's sample rate.
    """
    if abs(series.sample_rate_hz - plan.sample_rate_hz) > 1e-9 * plan.sample_rate_hz:
        raise ValidationError(
            f"series sample rate {series.sample_rate_hz} does not match "
            f"the plan's {plan.sample_rate_hz}"
        )
    q_len = plan.points_per_snapshot
    needed = plan.total_points
    if series.samples.size < needed:
        raise ValidationError(
            f"series has {series.samples.size} samples but the plan needs {needed}"
        )
    idx = frequency_indices(plan, max_harmonic)
    windows = series.samples[:needed].reshape(plan.num_snapshots, q_len)
    # Centered bin b is unshifted bin (b + Q/2) mod Q; only the sampled
    # bins are scaled.
    bins = np.fft.fft(windows, axis=1)[:, (idx + q_len // 2) % q_len] / q_len
    return bins.T.copy()
