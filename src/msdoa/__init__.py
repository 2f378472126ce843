"""Single-receiver direction finding with a time-switched metasurface.

The package simulates a surface whose elements are flipped between +1
and -1 one at a time on a periodic schedule, turning a single receiver
channel into a bank of harmonic measurements, and estimates arrival
angles from those measurements with a pattern-smoothing subspace
search. It also provides deterministic angle error bounds and a seeded
Monte Carlo harness.
"""

__version__ = "0.1.0"

from .config import (
    ExperimentConfig,
    NoiseSpec,
    apply_sweep_value,
    builtin_config_path,
    config_digest,
    emit_config,
    load_config,
    parse_config,
)
from .crb import CrbResult, crb_core, steering_derivatives
from .errors import (
    ConfigurationError,
    DegenerateCodingError,
    MsdoaError,
    NearSingularWhitenerError,
    UnidentifiableParameterError,
    ValidationError,
)
from .estimator import (
    EstimatorParams,
    compensation,
    estimate_doa,
    make_ps_weights,
    music_search,
    ps_covariance,
    recover_channels,
    search_setup,
    smooth,
    smoothing_whitener,
    whiten,
)
from .harness import (
    build_context,
    read_time_series,
    resolve_experiment,
    run_batch,
    run_chunk,
    run_single,
    run_sweep,
    run_trials,
    trial_seeds,
    write_snapshots_csv,
    write_spectrum_csv,
    write_sweep_csv,
    write_time_series,
)
from .metrics import (
    aggregate,
    resolve_and_score,
)
from .snapshot import (
    extract_snapshots,
    frequency_indices,
)
from .surface import (
    Doa,
    HarmonicMatrix,
    SurfaceConfig,
    element_positions,
    fourier_coefficient,
    harmonic_matrix,
    steering_vector,
    wave_vector,
)
from .waveform import (
    SamplingPlan,
    SourceScene,
    TimeSeries,
    draw_source_amplitudes,
    signal_model,
    synthesize_received,
)
