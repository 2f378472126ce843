#!/usr/bin/env python3
"""Layered benchmark of msdoa's Monte Carlo harness.

    python3 bench/run.py --workload snr_sweep_serial --seed 1 --seconds 25 --trace 0

Run it from a source checkout: it imports msdoa from ``src/`` next to
this directory. Each workload is a closed loop in one process: the
next unit (one ``run_sweep`` or ``run_trials`` call) starts when the
previous one ends, until ``--seconds`` of measured time have passed.
Every unit's output is compared with the digest recorded for it in
``reference.json``; a raise or a mismatch is a failed operation.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics of a traced serial run
(see ``tracing.py``) and writes the spans under ``.bench_out/``.
The benchmark leaves the BLAS thread variables as it finds them: the
default threading is part of what it measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import msdoa  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics, missing_layers, pool_metrics  # noqa: E402
from workloads import (  # noqa: E402
    INPUTS,
    OUT_DIR,
    POOL_BASE,
    POOL_SIZE,
    QUALITY_UNITS,
    WORKLOADS,
    execute,
    load_reference,
    pool_seed,
    summarize,
    unit_order,
)

PROBE = Path(__file__).resolve().parent / "setup_probe.py"
SETUP_PROBES = 7
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "trials_per_s": "1/s",
    "cpu_ms_per_trial": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "frac",
    "pr_mean": "frac",
    "rmse_over_crb": "ratio",
}


def cpu_seconds() -> float:
    """User+system CPU of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment() -> dict:
    """Machine, interpreter, BLAS build, commit and BLAS thread settings."""
    import numpy as np

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "commit": commit,
        "blas_threads_env": {name: os.environ.get(name) for name in BLAS_VARS},
    }


def measure_setup(input_name: str, seed: int) -> float:
    """Median wall time of fresh interpreters from start to first-trial readiness."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(PROBE), input_name, str(seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - start)
            proc.wait(timeout=60)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (said {line!r}, exit {proc.returncode})")
    return statistics.median(times)


class Loop:
    """Closed-loop unit runner with output checks and resource accounting."""

    def __init__(self, workload, reference, order):
        self.input = INPUTS[workload.input]
        self.digests = reference["digests"]
        self.order = order
        self.attempted = 0
        self.failed = 0
        self.quality_rows = []

    def run(self, index: int, workers: int, tracer=None):
        """Run pool member ``index``, traced around the entry-point call
        when ``tracer`` is given; returns (wall_s, cpu_s, trials, digest)."""
        cfg = self.input.load(pool_seed(index))
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        raw = None
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        try:
            raw = execute(self.input, cfg, workers)
        except Exception:  # noqa: BLE001 - a raise is a failed operation, not a crash
            traceback.print_exc()
        finally:
            wall = time.perf_counter() - start
            cpu = cpu_seconds() - cpu0
            if tracer is not None:
                tracer.uninstall()
        if raw is None:
            self.failed += 1
            return wall, cpu, 0, None
        result = summarize(self.input, cfg, raw, OUT_DIR)
        if result.digest != self.digests[index]:
            print(f"bench: output of pool member {index} (seed {pool_seed(index)}) "
                  f"does not match its reference digest", file=sys.stderr)
            self.failed += 1
        elif index < QUALITY_UNITS:
            self.quality_rows.extend(result.rows)
        return wall, cpu, result.trials, result.digest


def warm_up(workload):
    """One untimed single-trial pass, so first-call costs stay out of the timing."""
    inp = INPUTS[workload.input]
    cfg = inp.load(pool_seed(0))
    execute(inp, replace(cfg, trials=1), 1)


def untraced_run(workload, loop, seconds) -> dict:
    """Closed loop for ``seconds`` of measured time.

    Throughput and CPU cost are totals over every unit of the run: all
    trials over all measured wall time, all CPU over all trials. The
    best, median and worst unit rates are printed as diagnostics only.
    """
    wall_total = 0.0
    cpu_total = 0.0
    trials = 0
    rates = []
    for i, index in enumerate(loop.order):
        if i >= QUALITY_UNITS and wall_total >= seconds:
            break
        wall, used, count, _ = loop.run(index, workload.workers)
        wall_total += wall
        cpu_total += used
        trials += count
        if count:
            rates.append(count / wall)
    if rates:
        print(f"unit trials/s over {len(rates)} units: best {max(rates):.4g} "
              f"median {statistics.median(rates):.4g} worst {min(rates):.4g}")
    quality = loop.quality_rows if not loop.failed else []
    return {
        "trials_per_s": trials / wall_total if wall_total else 0.0,
        "cpu_ms_per_trial": 1000.0 * cpu_total / trials if trials else 0.0,
        "pr_mean": statistics.fmean(pr for pr, _ in quality) if quality else 0.0,
        "rmse_over_crb": statistics.median(ratio for _, ratio in quality) if quality else 0.0,
    }


def traced_run(workload, loop, seconds, spans_path, header) -> tuple[dict, list]:
    """Serial units, each run untraced then traced; returns metrics and problems."""
    tracer = Tracer()
    plain = [0.0, 0]
    traced = [0.0, 0]
    units = 0
    problems = []
    for i, index in enumerate(loop.order):
        if i >= QUALITY_UNITS and plain[0] + traced[0] >= seconds:
            break
        wall, _, count, plain_digest = loop.run(index, 1)
        plain[0] += wall
        plain[1] += count
        wall, _, count, traced_digest = loop.run(index, 1, tracer)
        traced[0] += wall
        traced[1] += count
        units += 1
        if plain_digest is None or traced_digest != plain_digest:
            problems.append(f"traced output of pool member {index} differs from untraced")
    missing = missing_layers(tracer.spans, loop.input.sweep)
    if missing:
        problems.append(f"layers with no recorded calls: {', '.join(missing)}")
    tracer.write(spans_path, header)
    if not plain[1] or not traced[1] or missing:
        return {name: 0.0 for name in PER_LAYER_UNITS}, problems

    print(f"traced trials {traced[1]} (percentiles of harness.run_trial are over these)")
    metrics = layer_metrics(tracer.spans, tracer.counts)
    metrics["trace.overhead_frac"] = 1.0 - (traced[1] / traced[0]) / (plain[1] / plain[0])
    if workload.workers > 1:
        # Pool counts come from the parent of a run at the workload's own
        # worker count; layer timings above are serial.
        pool_tracer = Tracer()
        loop.run(loop.order[0], workload.workers, pool_tracer)
        metrics.update(pool_metrics(pool_tracer.counts, 1))
    else:
        metrics.update(pool_metrics(tracer.counts, units))
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=POOL_BASE)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(msdoa.__file__).resolve().parent != SRC / "msdoa":
        sys.exit(f"bench: imported msdoa from {msdoa.__file__}, not from {SRC}")

    workload = WORKLOADS[args.workload]
    reference = load_reference()[workload.input]
    inp = INPUTS[workload.input]
    if reference["input"] != inp.describe() or len(reference["digests"]) != POOL_SIZE:
        sys.exit(f"bench: reference.json was recorded for another {workload.input} input; "
                 "run bench/record_reference.py")
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    print(f"environment {json.dumps(env)}")
    setup_s = measure_setup(workload.input, args.seed)
    warm_up(workload)
    # Enough pool indices for any run; the loop stops on measured time.
    loop = Loop(workload, reference, unit_order(args.seed, 100 * POOL_SIZE))

    problems = []
    if args.trace:
        header = {"workload": workload.name, "seed": args.seed, "environment": env}
        spans_path = OUT_DIR / f"spans_{workload.name}_{args.seed}.jsonl"
        metrics, problems = traced_run(workload, loop, args.seconds, spans_path, header)
        units = PER_LAYER_UNITS
    else:
        metrics = untraced_run(workload, loop, args.seconds)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb()
        metrics["success_rate"] = 1.0 - loop.failed / loop.attempted
        units = E2E_UNITS
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)

    print(f"workload {workload.name} seed {args.seed} workers {workload.workers} "
          f"units {loop.attempted} failed {loop.failed} "
          f"error_rate {loop.failed / loop.attempted:.4g}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    correct = loop.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
