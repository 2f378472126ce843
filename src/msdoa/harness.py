"""Seeded Monte Carlo harness over experiment configs.

How a sweep runs: each sweep value gives one config point, and
:func:`run_trials` builds that point's :class:`TrialContext` once. The
context holds everything no trial changes: the config with its
coherent gains resolved from the seed; the harmonic matrix with its
rank check and pseudo-inverse; the phase compensation; the signal
model (one coding period of the switched patterns, full or
band-limited, which the record repeats); the smoothing window width,
the search grids, the lag fold table and the search batch size; and
the bound's rank-checked projected core, which treats the elevation as
known when the search has one. Each stage takes its piece of the
context and the trials' own draws, nothing the piece was built from.

:func:`run_chunk` walks its trials in batches of the setup's
``batch_size``. The draws stay per trial: each trial derives its own
seed streams, draws its amplitudes and noise, synthesizes its series
and extracts its snapshots, and the series is dropped as soon as the
snapshots are taken. :func:`run_batch` then runs every later stage
once per batch, on arrays with a leading trial axis: the smoothing
weights, each trial's smoothed recovery matrix with its whitener and
inverse square root, the smoothed snapshots as products of the bins
with that matrix, the covariances and their whitening, the search
(which builds each elevation's lag basis once per batch rather than
once per trial), and the bound's amplitude-dependent product and
inverse. Each stacked call makes, per trial, the BLAS or LAPACK call a
batch of one makes, so every result is bitwise the same for every
batch size, and a trial that fails a check raises the error it raises
alone. :func:`run_trial` then scores each trial. The batch size
follows from the grid sizes and the chain's per-trial stacks under a
fixed byte budget (see ``msdoa.estimator.SEARCH_BATCH_BYTES``).
``single`` runs trial (0, 0) as a batch of one through the same
:func:`run_batch`, and ``crb`` bounds the amplitudes of that same draw
without extracting its snapshots or searching, both with BLAS held to
one thread as in a sweep.

A chunk of trials is the unit of work: :func:`run_trials` runs a
point's trials as one chunk, or, with several workers, as contiguous
chunks, one per worker, each of which builds the context once. Every
chunk runs with BLAS held to one thread (:func:`_single_threaded_blas`),
in the serial path and in each pool worker alike. The trial's matrices
are too small for BLAS threads to pay: they cost twice the CPU and save
no wall time, and next to pool workers they oversubscribe the cores.
Parallelism comes from ``workers`` processes instead. A sweep holds one
process pool for all its points, with no more processes than a point
has trials.

Per-trial seeds derive from (experiment seed, sweep index, trial index)
alone, so results are identical for identical configs regardless of how
trials are distributed over workers. Trials fail fast: any estimator
error aborts the sweep with context rather than emitting partial rows.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .config import ExperimentConfig, apply_sweep_value, config_digest
from .crb import CrbCore, CrbResult, crb, crb_core
from .errors import MsdoaError, ValidationError
from .estimator import SearchSetup, estimate_doa, search_setup, write_spectrum_csv
from .metrics import TrialOutcome, aggregate, resolve_and_score
from .snapshot import extract_snapshots, frequency_indices, write_snapshots_csv
from .surface import HarmonicMatrix, harmonic_matrix
from .waveform import (
    SignalModel,
    resolve_gains,
    signal_model,
    synthesize_received,
    write_time_series,
)

# Fixed tag mixed into the seed stream for experiment-level draws
# (coherent gains), distinct from any (sweep, trial) pair.
_GAIN_SEED_TAG = 0x6761696E


def trial_seed_sequence(seed: int, sweep_index: int, trial_index: int) -> np.random.SeedSequence:
    """Counter-based seed for one trial; independent of worker layout."""
    return np.random.SeedSequence(entropy=(int(seed), int(sweep_index), int(trial_index)))


def resolve_experiment(cfg: ExperimentConfig) -> ExperimentConfig:
    """Resolve per-experiment randomness (coherent gains) from the seed."""
    scene = resolve_gains(
        cfg.scene, np.random.SeedSequence(entropy=(int(cfg.seed), _GAIN_SEED_TAG))
    )
    return replace(cfg, scene=scene)


@dataclass(frozen=True, eq=False)
class TrialContext:
    """What every trial of one config point shares; see :func:`build_context`.

    ``bound`` is ``None`` when the scene has no sources.
    """

    config: ExperimentConfig
    harmonics: HarmonicMatrix
    signal: SignalModel
    search: SearchSetup
    bound: CrbCore | None


def build_context(cfg: ExperimentConfig) -> TrialContext:
    """Build the trial-invariant state of one config point.

    Unset coherent gains are resolved from the experiment seed first
    (:func:`resolve_experiment`), so the context's config is resolved.
    Every check that no draw can change runs here, so a rank-deficient
    harmonic matrix or mixed steering fails before the first trial.
    """
    cfg = resolve_experiment(cfg)
    harmonics = harmonic_matrix(cfg.max_harmonic, cfg.surface).decompose()
    signal = signal_model(cfg.surface, cfg.scene, cfg.plan, cfg.mode, harmonics)
    search = search_setup(cfg.surface, cfg.estimator, harmonics)
    bound = None
    if cfg.scene.num_sources > 0:
        # A search at one elevation treats it as given; bounding it
        # jointly would be singular for in-plane scenes.
        known_elevations = search.elevation_grid_deg.size == 1
        bound = crb_core(cfg.surface, cfg.scene, harmonics, known_elevations)
    return TrialContext(cfg, harmonics, signal, search, bound)


def synthesize_trial(context: TrialContext, sweep_index: int, trial_index: int):
    """Received series of one trial, the amplitudes it drew, and its smoothing seed.

    This is the one place a trial's random streams are derived, shared
    by sweeps, ``single`` and ``crb``.
    """
    cfg = context.config
    seq = trial_seed_sequence(cfg.seed, sweep_index, trial_index)
    synth_seed, smoothing_seed = seq.spawn(2)
    series, amplitudes = synthesize_received(context.signal, cfg.noise, synth_seed)
    return series, amplitudes, smoothing_seed


def _draw(context: TrialContext, sweep_index: int, trial_index: int):
    """Series, amplitudes, snapshots and smoothing seed of one trial."""
    series, amplitudes, smoothing_seed = synthesize_trial(context, sweep_index, trial_index)
    snapshots = extract_snapshots(series, context.config.plan, context.harmonics)
    return series, amplitudes, snapshots, smoothing_seed


def run_batch(context: TrialContext, drawn) -> tuple:
    """Search results and stacked bound of a batch of drawn trials.

    ``drawn`` holds one (amplitudes, snapshots, smoothing seed) triple
    per trial, from that trial's own draws. The estimator
    chain and the bound each run once on arrays with a leading trial
    axis. Returns the trials' :class:`MusicResult`s and one
    :class:`CrbResult` whose arrays stack theirs; without sources the
    results are ``None`` each and the bound is ``None``.
    """
    if context.bound is None:
        return (None,) * len(drawn), None
    amplitudes, snapshots, seeds = zip(*drawn)
    cfg = context.config
    results = estimate_doa(snapshots, context.search, seeds).results
    bound = crb(context.bound, cfg.plan, cfg.noise.variance, np.stack(amplitudes))
    return results, bound


def run_trial(
    context: TrialContext, result, theta_bounds
) -> tuple[TrialOutcome, tuple[float, ...]]:
    """Score one trial's estimate and convert its azimuth bounds.

    ``result`` is the trial's search result and ``theta_bounds`` its
    row of the batch bound's azimuth diagonal, both from
    :func:`run_batch`. Returns the trial outcome and the per-source
    square-root bound in degrees.
    """
    # Scoring rejects a scene without sources before reading the bound.
    outcome = resolve_and_score(result, context.config.scene.doas)
    sqrt_crb_deg = tuple(float(np.rad2deg(np.sqrt(b))) for b in theta_bounds)
    return outcome, sqrt_crb_deg


def run_chunk(context: TrialContext, sweep_index: int, trial_indices):
    """Outcome and square-root bound of each listed trial of one config point.

    ``context`` is the point's :func:`build_context`. The trials run in
    batches of the search setup's ``batch_size``: each trial of a batch
    is drawn on its own, :func:`run_batch` estimates and bounds the
    batch, and :func:`run_trial` scores each trial.
    """
    size = context.search.batch_size
    out = []
    for start in range(0, len(trial_indices), size):
        # Each series is dropped as soon as its snapshots are taken.
        drawn = [_draw(context, sweep_index, t)[1:] for t in trial_indices[start : start + size]]
        results, bound = run_batch(context, drawn)
        theta_bounds = [()] * len(drawn) if bound is None else bound.theta_bounds
        out.extend(run_trial(context, r, b) for r, b in zip(results, theta_bounds))
    return out


# Thread-count (getter, setter) pairs of numpy's bundled OpenBLAS: the
# symbol-suffixed build numpy wheels ship, then a plain build.
_OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_controls():
    """Thread-count getter and setter of numpy's bundled OpenBLAS, or ``None``.

    Opening the library numpy already loaded returns the loaded copy,
    so the setter acts on the BLAS numpy calls.
    """
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_FUNCTIONS:
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is None or setter is None:
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return getter, setter
    return None


@contextlib.contextmanager
def _single_threaded_blas():
    """Hold numpy's BLAS to one thread inside the scope.

    The previous thread count comes back on exit, also when the body
    raises. Without a bundled OpenBLAS whose thread count can be set
    the scope does nothing. The count is process-wide, so the scope is
    meant for one thread of a process. It is set from inside the
    process that runs the trials because a forked pool worker inherits
    an OpenBLAS that has already started, so a thread variable set in
    the worker would come too late.
    """
    controls = _blas_thread_controls()
    if controls is None:
        yield
        return
    getter, setter = controls
    previous = getter()
    setter(1)
    try:
        yield
    finally:
        setter(previous)


def _trial_chunk(args):
    cfg, sweep_index, trial_indices = args
    with _single_threaded_blas():
        return run_chunk(build_context(cfg), sweep_index, trial_indices)


@contextlib.contextmanager
def _point_runner(cfg: ExperimentConfig, workers: int):
    """Scope of a function that runs all trials of one of ``cfg``'s points.

    The function takes the point's config and sweep index and returns
    the trials' results in trial order. With one worker it runs them
    as one chunk in this process. With more, one process pool serves
    every point of the scope, and each point's trials go out to it in
    contiguous chunks, one per process. No sweep variable changes the
    trial count, and a point never has more chunks than trials, so the
    pool holds at most ``cfg.trials`` processes.
    """
    if workers < 1:
        raise ValidationError(f"workers must be at least 1; got {workers}")
    processes = min(workers, cfg.trials)
    if processes == 1:
        yield lambda point, sweep_index: _trial_chunk((point, sweep_index, range(point.trials)))
        return
    size = -(-cfg.trials // processes)
    with ProcessPoolExecutor(max_workers=processes) as pool:

        def run_point(point, sweep_index):
            tasks = [
                (point, sweep_index, range(start, min(start + size, point.trials)))
                for start in range(0, point.trials, size)
            ]
            return [r for chunk in pool.map(_trial_chunk, tasks) for r in chunk]

        yield run_point


def run_trials(cfg: ExperimentConfig, sweep_index: int = 0, workers: int = 1):
    """All trials of one config point, in trial order.

    Trials run in contiguous chunks, one per worker, and each chunk
    builds the point's context once; the serial path is one chunk.
    With several workers the call opens a process pool of its own.
    """
    with _point_runner(cfg, workers) as run_point:
        return run_point(cfg, sweep_index)


@dataclass(frozen=True)
class PointRow:
    """Aggregated results of one sweep value."""

    variable: str
    value: object
    pr: float
    rmse_deg: float
    sqrt_crb_deg: tuple[float, ...]
    wall_s: float


@dataclass(eq=False)
class SweepResult:
    """All sweep rows plus the provenance needed to reproduce them."""

    rows: list
    config_sha256: str
    seed: int
    version: str


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Run every sweep point and aggregate (PR, RMSE, mean bound)."""
    if cfg.sweep is None:
        raise ValidationError("config has no sweep; use run_single instead")
    digest = config_digest(cfg)
    rows = []
    with _point_runner(cfg, workers) as run_point:
        for sweep_index, value in enumerate(cfg.sweep.values):
            point = apply_sweep_value(cfg, value)
            start = time.perf_counter()
            try:
                results = run_point(point, sweep_index)
            except (MsdoaError, np.linalg.LinAlgError) as exc:
                raise type(exc)(
                    f"sweep {cfg.sweep.variable}={value} (index {sweep_index}): {exc}"
                ) from exc
            wall = time.perf_counter() - start
            outcomes = [r[0] for r in results]
            bounds = np.array([r[1] for r in results])
            agg = aggregate(outcomes, cfg.scene.doas)
            rows.append(
                PointRow(
                    cfg.sweep.variable,
                    value,
                    agg.pr,
                    agg.rmse_deg,
                    tuple(float(b) for b in bounds.mean(axis=0)),
                    wall,
                )
            )
    return SweepResult(rows, digest, cfg.seed, __version__)


def _fmt_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return f"{value:.10g}"


def write_sweep_csv(result: SweepResult, path: str) -> None:
    """Write sweep rows as CSV (UTF-8, LF).

    The file is a pure function of config and seed: byte-identical across
    runs and worker counts.  Wall times live on the in-memory rows only;
    the CLI reports them separately so the artifact stays deterministic.
    """
    if not result.rows:
        raise ValidationError("sweep result has no rows")
    num_sources = len(result.rows[0].sqrt_crb_deg)
    crb_cols = ",".join(f"sqrt_crb_deg_{k + 1}" for k in range(num_sources))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# schema=msdoa-sweep-v1\n")
        fh.write(f"# version={result.version}\n")
        fh.write(f"# config_sha256={result.config_sha256}\n")
        fh.write(f"# seed={result.seed}\n")
        if num_sources:
            fh.write(f"sweep_var,value,pr,rmse_deg,{crb_cols}\n")
        else:
            fh.write("sweep_var,value,pr,rmse_deg\n")
        for row in result.rows:
            crb_vals = "".join(f",{b:.10g}" for b in row.sqrt_crb_deg)
            fh.write(
                f"{row.variable},{_fmt_value(row.value)},{row.pr:.10g},"
                f"{row.rmse_deg:.10g}{crb_vals}\n"
            )


@contextlib.contextmanager
def _trial_zero(cfg: ExperimentConfig):
    """Scope holding the context of ``cfg``, in which trial (0, 0) is drawn.

    BLAS is held to one thread inside the scope, as in a sweep's trial
    chunks.
    """
    with _single_threaded_blas():
        yield build_context(cfg)


def trial_zero_bound(cfg: ExperimentConfig) -> CrbResult:
    """The angle bound of the amplitudes trial (0, 0) draws, the run ``single`` makes.

    The amplitudes are bounded as :func:`run_batch` bounds a batch of
    one; no snapshots are extracted and the search does not run.
    """
    with _trial_zero(cfg) as context:
        if context.bound is None:
            raise ValidationError("the bound needs at least one configured source")
        _, amplitudes, _ = synthesize_trial(context, 0, 0)
        cfg = context.config
        bound = crb(context.bound, cfg.plan, cfg.noise.variance, amplitudes[None])
    return CrbResult(bound.matrix[0], bound.theta_bounds[0])


def run_single(cfg: ExperimentConfig, out_prefix: str | None = None) -> dict:
    """One seeded end-to-end run with CSV dumps of both spectra.

    Runs trial (0, 0) of the config, through the same context and trial
    path as a sweep. Writes ``<prefix>_frequency.csv`` (centered FFT
    magnitude averaged over snapshots, selected harmonic bins flagged),
    and, when sources are configured, ``<prefix>_spatial.csv`` with the
    search spectrum and peak estimates. Also dumps the raw series and
    the snapshot matrix for downstream tools.
    """
    with _trial_zero(cfg) as context:
        series, amplitudes, snapshots, smoothing_seed = _draw(context, 0, 0)
        (result,), _ = run_batch(context, [(amplitudes, snapshots, smoothing_seed)])
    cfg = context.config
    prefix = out_prefix if out_prefix is not None else cfg.output

    q_len = cfg.plan.points_per_snapshot
    windows = series.samples[: cfg.plan.total_points].reshape(-1, q_len)
    magnitude = np.abs(np.fft.fftshift(np.fft.fft(windows, axis=1), axes=1) / q_len).mean(axis=0)
    selected = np.zeros(q_len, dtype=int)
    selected[frequency_indices(cfg.plan, cfg.max_harmonic)] = 1
    freq_axis = (np.arange(q_len) - q_len // 2) * cfg.plan.sample_rate_hz / q_len

    paths = {"frequency": f"{prefix}_frequency.csv"}
    with open(paths["frequency"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write("bin_index,freq_hz,magnitude,selected\n")
        for b in range(q_len):
            fh.write(f"{b},{freq_axis[b]:.10g},{magnitude[b]:.10g},{selected[b]}\n")

    paths["series"] = f"{prefix}_series.f64"
    write_time_series(series, cfg.plan, paths["series"], seed=cfg.seed)
    paths["snapshots"] = f"{prefix}_snapshots.csv"
    write_snapshots_csv(snapshots, paths["snapshots"])

    if result is not None:
        paths["spatial"] = f"{prefix}_spatial.csv"
        write_spectrum_csv(result, paths["spatial"])
    return {"paths": paths, "result": result}
