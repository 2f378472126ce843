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
    SWEEP_VARIABLES,
    ExperimentConfig,
    SweepSpec,
    apply_sweep_value,
    builtin_config_path,
    config_digest,
    emit_config,
    load_config,
    parse_config,
    validate_experiment,
)
from .crb import CrbResult, crb, crb_core, steering_derivatives
from .errors import (
    ConfigurationError,
    DegenerateCodingError,
    MsdoaError,
    NearSingularWhitenerError,
    NoNoiseSubspaceError,
    UnidentifiableParameterError,
    ValidationError,
)
from .estimator import (
    EstimatorParams,
    MusicBatch,
    MusicResult,
    PsWeightSet,
    compensation_matrix,
    estimate_doa,
    make_ps_weights,
    music_search,
    ps_covariance,
    recover_channels,
    search_setup,
    smooth,
    smoothing_whitener,
    whiten,
    write_spectrum_csv,
)
from .harness import (
    PointRow,
    SweepResult,
    TrialContext,
    build_context,
    resolve_experiment,
    run_batch,
    run_chunk,
    run_single,
    run_sweep,
    run_trials,
    trial_seed_sequence,
    write_sweep_csv,
)
from .metrics import (
    AggregateResult,
    ResolutionPolicy,
    TrialOutcome,
    aggregate,
    resolve_and_score,
)
from .snapshot import (
    MultiSnapshot,
    extract_snapshots,
    frequency_indices,
    write_snapshots_csv,
)
from .surface import (
    Doa,
    HarmonicMatrix,
    SurfaceConfig,
    coding_waveform,
    element_positions,
    fourier_coefficient,
    harmonic_matrix,
    steering_vector,
    wave_vector,
)
from .waveform import (
    NoiseSpec,
    SamplingPlan,
    SourceScene,
    TimeSeries,
    draw_source_amplitudes,
    make_coherent_gains,
    read_time_series,
    resolve_gains,
    signal_model,
    synthesize_received,
    write_time_series,
)
