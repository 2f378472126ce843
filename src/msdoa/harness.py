"""Seeded Monte Carlo harness over experiment configs.

The points of a sweep are the checked, sweep-free configs of
:func:`~msdoa.config.point_configs`, and
:func:`~msdoa.config.sweep_point` names a point's error. The trials of
one config point share a :class:`TrialContext`, built once per point,
or once per chunk in each worker, by :func:`build_context`.
:func:`run_chunk` draws each trial on its own (:func:`draw_trial`)
and estimates, bounds and scores the trials in batches of
``BATCH_TRIALS``. :func:`run_trials` (one point) and :func:`run_sweep`
(every point) cut each point into one contiguous chunk per worker
process and hand all chunks to one map (:func:`_point_results`).
``single`` (:func:`run_single`) and ``crb`` (:func:`trial_zero_bound`)
take trial (0, 0) of the same path. Every chunk holds BLAS to one
thread (:func:`_single_threaded_blas`): a trial's matrices are too
small for BLAS threads to pay, and parallelism comes from worker
processes.

No result depends on how the trials are laid out: a trial's seeds
derive from (experiment seed, sweep index, trial index) alone
(:func:`trial_seeds`), and every batched stage makes, per trial, the
call a batch of one makes, so every output is bitwise the same for any
batch size or worker count. Trials fail fast: any estimator error
aborts the sweep with context rather than emitting partial rows.
README's "How a sweep runs" tells the whole path.

This module alone opens msdoa's output files. It writes every
artifact, the sweep, spatial, snapshots, frequency and bound CSVs and
the series with its sidecar, and reads the series back
(:func:`read_time_series`). They share one byte contract: UTF-8 text
with LF line ends, numbers formatted ``.10g``, and the series as
little-endian float64 (re, im) pairs with a ``key=value`` ``.hdr``
sidecar. Each writer checks its input before it opens a file. The
series' sampling plan is its one description: the writer writes the
plan's sidecar lines and the reader refuses any others. README's
"Output formats" gives each file byte for byte.
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
from .config import BATCH_TRIALS, ExperimentConfig, config_digest, point_configs, sweep_point
from .crb import CrbCore, CrbResult, crb, crb_core
from .errors import ValidationError
from .estimator import MusicBatch, SearchSetup, estimate_doa, make_ps_weights, search_setup
from .metrics import TrialOutcome, aggregate, resolve_and_score
from .snapshot import extract_snapshots, frequency_indices
from .surface import harmonic_matrix
from .waveform import (
    SamplingPlan,
    SignalModel,
    TimeSeries,
    draw_source_amplitudes,
    signal_model,
    synthesize_received,
)

# Fixed tag mixed into the seed stream for experiment-level draws
# (coherent gains), distinct from any (sweep, trial) pair.
_GAIN_SEED_TAG = 0x6761696E


def trial_seeds(
    seed: int, sweep_index: int, trial_index: int
) -> tuple[np.random.SeedSequence, ...]:
    """Amplitude, noise and smoothing-weight seeds of one trial; independent of worker layout.

    The three are leaves of the counter-based root (seed, sweep index,
    trial index), at spawn keys (0, 0), (0, 1) and (1,).
    """
    entropy = (int(seed), int(sweep_index), int(trial_index))
    return tuple(
        np.random.SeedSequence(entropy, spawn_key=key) for key in ((0, 0), (0, 1), (1,))
    )


def resolve_experiment(cfg: ExperimentConfig) -> ExperimentConfig:
    """Draw a coherent scene's unset gains from the experiment seed.

    The gains are the experiment's one draw: unit modulus, with uniform
    phases from the seed's gain stream, and the first exactly 1. An
    incoherent config, or one whose gains are set, is returned itself.
    """
    scene = cfg.scene
    if scene.coherence != "coherent" or scene.coherent_gains is not None:
        return cfg
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(cfg.seed), _GAIN_SEED_TAG)))
    gains = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=scene.num_sources))
    gains[0] = 1.0
    return replace(cfg, scene=replace(scene, coherent_gains=tuple(gains)))


@dataclass(frozen=True, eq=False)
class TrialContext:
    """What every trial of one config point shares; see :func:`build_context`.

    ``bound`` is ``None`` when the scene has no sources.
    """

    config: ExperimentConfig
    signal: SignalModel
    search: SearchSetup
    bound: CrbCore | None


def build_context(cfg: ExperimentConfig) -> TrialContext:
    """Build the trial-invariant state of one config point.

    Unset coherent gains are resolved from the experiment seed first
    (:func:`resolve_experiment`), so the context's config is resolved.
    Every check that no draw can change runs here and raises
    ``ConfigurationError``, so a rank-deficient harmonic matrix or an
    angle no draw can bound fails before the first trial.
    """
    cfg = resolve_experiment(cfg)
    harmonics = harmonic_matrix(cfg.max_harmonic, cfg.surface)
    signal = signal_model(cfg.surface, cfg.scene, cfg.plan, cfg.mode, harmonics)
    search = search_setup(cfg.surface, cfg.scene, cfg.estimator, harmonics)
    bound = None
    if cfg.scene.num_sources > 0:
        # A search at one elevation treats it as given; bounding it
        # jointly would be singular for in-plane scenes.
        known_elevations = search.elevation_grid_deg.size == 1
        bound = crb_core(cfg.surface, cfg.scene, harmonics, known_elevations)
    return TrialContext(cfg, signal, search, bound)


def draw_trial(context: TrialContext, sweep_index: int, trial_index: int):
    """Received series, (K, I) amplitudes, snapshot bins and (L, width) weight bank of one trial.

    Sweeps and ``single`` draw every trial here, from :func:`trial_seeds`.
    """
    cfg = context.config
    amplitude_seed, noise_seed, weight_seed = trial_seeds(cfg.seed, sweep_index, trial_index)
    amplitudes = draw_source_amplitudes(cfg.scene, cfg.plan.num_snapshots, amplitude_seed)
    series = synthesize_received(context.signal, cfg.noise_variance, amplitudes, noise_seed)
    bins = extract_snapshots(series, cfg.plan, cfg.max_harmonic)
    weights = make_ps_weights(cfg.estimator.num_weights, context.search.width, weight_seed)
    return series, amplitudes, bins, weights


def run_batch(context: TrialContext, drawn) -> tuple:
    """Search and stacked bound of a batch of drawn trials.

    ``drawn`` holds one (amplitudes, snapshot bins, weight bank) triple
    per trial, as :func:`draw_trial` draws them. The estimator chain
    and the bound each run once on arrays with a leading trial axis.
    The context must have sources. Returns the batch's
    :class:`~msdoa.estimator.MusicBatch` and one :class:`CrbResult`
    whose arrays stack the trials'.
    """
    amplitudes, bins, weights = zip(*drawn)
    cfg = context.config
    batch = estimate_doa(bins, context.search, weights)
    bound = crb(context.bound, cfg.plan, cfg.noise_variance, np.stack(amplitudes))
    return batch, bound


def run_trial(
    context: TrialContext, estimates, theta_bounds
) -> tuple[TrialOutcome, tuple[float, ...]]:
    """Score one trial's estimates and convert its azimuth bounds.

    ``estimates`` is the trial's tuple of search estimates and
    ``theta_bounds`` its row of the batch bound's azimuth diagonal, both
    from :func:`run_batch`. Returns the trial outcome and the per-source
    square-root bound in degrees.
    """
    outcome = resolve_and_score(estimates, context.config.scene.doas)
    sqrt_crb_deg = tuple(float(np.rad2deg(np.sqrt(b))) for b in theta_bounds)
    return outcome, sqrt_crb_deg


def run_chunk(context: TrialContext, sweep_index: int, trial_indices):
    """Outcome and square-root bound of each listed trial of one config point.

    ``context`` is the point's :func:`build_context`. The trials run in
    batches of ``BATCH_TRIALS``, one search each: each trial of a batch
    is drawn on its own, :func:`run_batch` estimates and bounds the
    batch, and :func:`run_trial` scores each trial. Trials are scored
    against the true sources, so a context without them raises
    :class:`ValidationError` before any trial is drawn.
    """
    if context.bound is None:
        raise ValidationError("trials need at least one true source to score against")
    out = []
    for start in range(0, len(trial_indices), BATCH_TRIALS):
        indices = trial_indices[start : start + BATCH_TRIALS]
        # Each series is dropped as soon as its bins are taken.
        drawn = [draw_trial(context, sweep_index, t)[1:] for t in indices]
        batch, bound = run_batch(context, drawn)
        out.extend(run_trial(context, e, b) for e, b in zip(batch.estimates, bound.theta_bounds))
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
def _point_results(points, workers: int):
    """Scope of an iterator over each point's trial results, in trial order.

    ``points`` lists (config, sweep index) pairs, which share one trial
    count. The run has at most as many processes as ``workers``, the
    trials and the CPUs. Each point is cut into the same contiguous
    chunks, one per process, and the run's chunks go to one ``map``:
    the builtin lazy one with one chunk per point, so a point runs when
    its results are read, else a process pool's, which queues every
    chunk at once. A point's error is raised when its results are read;
    the pool then runs only the chunks it has already handed to a
    process.
    """
    if workers < 1:
        raise ValidationError(f"workers must be at least 1; got {workers}")
    trials = points[0][0].trials
    processes = min(workers, trials, os.cpu_count() or 1)
    size = -(-trials // processes)
    starts = range(0, trials, size)
    tasks = [(p, i, range(s, min(s + size, trials))) for p, i in points for s in starts]
    pool = ProcessPoolExecutor(max_workers=processes) if processes > 1 else None
    with pool or contextlib.nullcontext():
        chunks = (pool.map if pool else map)(_trial_chunk, tasks)
        yield ([r for _ in starts for r in next(chunks)] for _ in points)


def run_trials(cfg: ExperimentConfig, sweep_index: int = 0, workers: int = 1):
    """All trials of one config point, in trial order.

    Trials run in contiguous chunks, one per worker, and each chunk
    builds the point's context once; the serial path is one chunk.
    With several workers the call opens a process pool of its own.
    """
    with _point_results([(cfg, sweep_index)], workers) as results:
        return next(results)


@dataclass(frozen=True)
class PointRow:
    """Aggregated results of one sweep value.

    ``wall_s`` is the wall time from the previous point's results, or
    the sweep's start, to this point's; the rows' times sum to the sweep's.
    """

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


def check_sweep(cfg: ExperimentConfig) -> None:
    """Raise :class:`ValidationError` unless ``cfg`` has a sweep that can be scored.

    Every sweep point is scored against the true sources, so a sweep
    needs at least one; ``single`` ignores the sweep and needs none.
    """
    if cfg.sweep is None:
        raise ValidationError("config has no sweep; use run_single instead")
    if not cfg.scene.doas:
        raise ValidationError("a sweep needs at least one true source to score against")


def run_sweep(cfg: ExperimentConfig, workers: int = 1) -> SweepResult:
    """Run every sweep point and aggregate (PR, RMSE, mean bound)."""
    check_sweep(cfg)
    digest = config_digest(cfg)
    points = [(point, index) for index, point in enumerate(point_configs(cfg))]
    rows = []
    start = time.perf_counter()
    with _point_results(points, workers) as results:
        for sweep_index, value in enumerate(cfg.sweep.values):
            with sweep_point(cfg, sweep_index):
                point_results = next(results)
            now = time.perf_counter()
            wall, start = now - start, now
            outcomes = [r[0] for r in point_results]
            bounds = np.array([r[1] for r in point_results])
            agg = aggregate(outcomes, cfg.scene.doas)
            mean_bound = tuple(float(b) for b in bounds.mean(axis=0))
            rows.append(PointRow(cfg.sweep.variable, value, agg.pr, agg.rmse_deg, mean_bound, wall))
    return SweepResult(rows, digest, cfg.seed, __version__)


def write_sweep_csv(result: SweepResult, path: str) -> None:
    """Write sweep rows as CSV (UTF-8, LF).

    The file is a pure function of config and seed: byte-identical across
    runs and worker counts.  Wall times live on the in-memory rows only;
    the CLI reports them separately so the artifact stays deterministic.
    """
    if not result.rows:
        raise ValidationError("sweep result has no rows")
    num_sources = len(result.rows[0].sqrt_crb_deg)
    crb_cols = "".join(f",sqrt_crb_deg_{k + 1}" for k in range(num_sources))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# schema=msdoa-sweep-v1\n")
        fh.write(f"# version={result.version}\n")
        fh.write(f"# config_sha256={result.config_sha256}\n")
        fh.write(f"# seed={result.seed}\n")
        fh.write(f"sweep_var,value,pr,rmse_deg{crb_cols}\n")
        for row in result.rows:
            value = row.value if isinstance(row.value, (str, int)) else f"{row.value:.10g}"
            crb_vals = "".join(f",{b:.10g}" for b in row.sqrt_crb_deg)
            fh.write(
                f"{row.variable},{value},{row.pr:.10g},"
                f"{row.rmse_deg:.10g}{crb_vals}\n"
            )


def write_spectrum_csv(batch: MusicBatch, path: str) -> None:
    """Write the spatial spectrum of a one-trial batch as CSV, estimates as footer comments.

    A one-elevation search writes the spectrum over azimuth alone. The
    spectrum is evaluated once; a batch of several trials raises
    :class:`ValidationError` before any is evaluated.
    """
    trials = len(batch.estimates)
    if trials != 1:
        raise ValidationError(f"a spectrum CSV holds one trial; the batch has {trials}")
    (spectrum,), (estimates,) = batch.spectrum, batch.estimates
    thetas, phis = batch.setup.theta_grid_deg, batch.setup.elevation_grid_deg
    two_angles = phis.size > 1
    # Each coordinate is formatted once and each azimuth's row written in
    # one call; a 2-D grid has tens of thousands of points.
    phis = [f",{p:.10g}" for p in phis] if two_angles else [""]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("theta_deg,phi_deg,value\n" if two_angles else "theta_deg,value\n")
        for t, values in zip(thetas, spectrum):
            theta = f"{t:.10g}"
            fh.write("".join(f"{theta}{p},{v:.10g}\n" for p, v in zip(phis, values)))
        for est in estimates:
            phi = f",{est.phi_deg:.10g}" if two_angles else ""
            fh.write(f"# estimate,{est.theta_deg:.10g}{phi}\n")


def write_snapshots_csv(bins: np.ndarray, path: str) -> None:
    """Write a (2P+1, I) bin matrix as CSV rows (snapshot_index, p, re, im).

    Any other array raises :class:`ValidationError` before the file is opened.
    """
    if bins.ndim != 2 or bins.shape[0] % 2 == 0:
        raise ValidationError(f"snapshot bins have shape {bins.shape}; expected (2P+1, I)")
    max_harmonic = bins.shape[0] // 2
    orders = range(-max_harmonic, max_harmonic + 1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("snapshot_index,p,re,im\n")
        for i in range(bins.shape[1]):
            for row, p in enumerate(orders):
                v = bins[row, i]
                fh.write(f"{i},{p},{v.real:.10g},{v.imag:.10g}\n")


def _series_header(plan: SamplingPlan) -> list[str]:
    """The sidecar's rate, Q and I lines: the writer writes them and the reader expects them."""
    rate, q_len, count = plan.sample_rate_hz, plan.points_per_snapshot, plan.num_snapshots
    return [f"sample_rate_hz={rate!r}", f"points_per_snapshot={q_len}", f"num_snapshots={count}"]


def write_time_series(series: TimeSeries, plan: SamplingPlan, path: str, seed=None) -> None:
    """Write samples as little-endian float64 (re, im) pairs plus a sidecar.

    The sidecar ``<path>.hdr`` records the plan's sample rate, points
    per snapshot and snapshot count, then the seed, as ``key=value``
    lines. A series the plan does not cut into its windows raises
    :class:`ValidationError` before either file is written.
    """
    plan.windows(series)  # refuses a series the sidecar would misdescribe
    data = np.empty(2 * series.samples.size, dtype="<f8")
    data[0::2] = series.samples.real
    data[1::2] = series.samples.imag
    data.tofile(path)
    with open(f"{path}.hdr", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"{line}\n" for line in _series_header(plan)))
        fh.write(f"seed={seed}\n")


def read_time_series(path: str, plan: SamplingPlan) -> TimeSeries:
    """Read a series that :func:`write_time_series` wrote for ``plan``.

    Raises :class:`ValidationError`, naming the file, when the sidecar's
    first three lines are not the rate, points per snapshot and snapshot
    count lines the writer writes for ``plan``, or when the data is not
    one (re, im) pair per sample of the plan.
    """
    want = _series_header(plan)
    with open(f"{path}.hdr", "r", encoding="utf-8", errors="replace") as fh:
        lines = fh.read().split("\n")[:3]
    if lines != want:
        raise ValidationError(f"{path}.hdr: {lines} are not the plan's sidecar lines {want}")
    raw = np.fromfile(path, dtype="<f8")
    if raw.size != 2 * plan.total_points:
        raise ValidationError(
            f"{path}: {raw.size} float64 values, not the (re, im) pairs of "
            f"{plan.total_points} samples"
        )
    return TimeSeries(raw[0::2] + 1j * raw[1::2])


def trial_zero_bound(cfg: ExperimentConfig) -> CrbResult:
    """The angle bound of the amplitudes trial (0, 0) draws, the run ``single`` makes.

    The amplitudes are bounded as :func:`run_batch` bounds a batch of
    one; they are drawn alone, so no series is synthesized and the
    search does not run.
    """
    with _single_threaded_blas():
        context = build_context(cfg)
        if context.bound is None:
            raise ValidationError("the bound needs at least one configured source")
        cfg = context.config
        amplitude_seed = trial_seeds(cfg.seed, 0, 0)[0]
        amplitudes = draw_source_amplitudes(cfg.scene, cfg.plan.num_snapshots, amplitude_seed)
        bound = crb(context.bound, cfg.plan, cfg.noise_variance, amplitudes[None])
    return CrbResult(bound.matrix[0], bound.theta_bounds[0])


def write_crb_csv(bound: CrbResult, path: str) -> None:
    """Write a bound's angle covariance matrix as CSV, one matrix row per line.

    The header names the matrix's angles: azimuths alone when it has one
    row per azimuth bound, as under known elevations.
    """
    azimuths_only = len(bound.matrix) == len(bound.theta_bounds)
    angles = "azimuths" if azimuths_only else "azimuths then elevations"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# angle covariance floor, radians^2; {angles}\n")
        for row in bound.matrix:
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")


def run_single(cfg: ExperimentConfig, out_prefix: str | None = None) -> dict:
    """One seeded end-to-end run with CSV dumps of both spectra.

    Runs trial (0, 0) of the config, through the same context and trial
    path as a sweep. Writes ``<prefix>_frequency.csv`` (centered FFT
    magnitude averaged over snapshots, selected harmonic bins flagged),
    and, when sources are configured, ``<prefix>_spatial.csv`` with the
    search spectrum and peak estimates. Also dumps the raw series and
    the snapshot matrix for downstream tools. Returns the paths and the
    trial's one-trial :class:`~msdoa.estimator.MusicBatch`, ``None``
    without sources.
    """
    with _single_threaded_blas():
        context = build_context(cfg)
        series, amplitudes, bins, weights = draw_trial(context, 0, 0)
        batch = None
        if context.bound is not None:
            batch, _ = run_batch(context, [(amplitudes, bins, weights)])
    cfg = context.config
    prefix = out_prefix if out_prefix is not None else cfg.output

    q_len = cfg.plan.points_per_snapshot
    windows = cfg.plan.windows(series)
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
    write_snapshots_csv(bins, paths["snapshots"])

    if batch is not None:
        paths["spatial"] = f"{prefix}_spatial.csv"
        write_spectrum_csv(batch, paths["spatial"])
    return {"paths": paths, "result": batch}
