"""Monte Carlo harness: seeding, worker equivalence, outputs, CLI."""

import ast
import concurrent.futures.process
import contextlib
import io
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import msdoa.estimator
import msdoa.harness
import msdoa.surface
import msdoa.waveform
import oracles
from msdoa import (
    ConfigurationError,
    DegenerateCodingError,
    Doa,
    HarmonicMatrix,
    MsdoaError,
    NearSingularWhitenerError,
    UnidentifiableParameterError,
    ValidationError,
    aggregate,
    build_context,
    builtin_config_path,
    config_digest,
    draw_source_amplitudes,
    estimate_doa,
    extract_snapshots,
    harmonic_matrix,
    load_config,
    make_ps_weights,
    parse_config,
    read_time_series,
    resolve_experiment,
    run_single,
    run_sweep,
    run_batch,
    run_chunk,
    run_trials,
    search_setup,
    signal_model,
    synthesize_received,
    trial_seeds,
    write_snapshots_csv,
    write_spectrum_csv,
    write_sweep_csv,
    write_time_series,
)
from msdoa.cli import main

# Small surface and short records keep each trial in the
# millisecond range so multi-trial tests stay fast.
SMALL = """\
rows = 2
cols = 3
carrier_hz = 1.0e9
coding_period_s = 1.6e-5
angles_deg = -20
sampling_rate_hz = 4.0e6
periods_per_snapshot = 1
snapshots = 3
snr_db = 10
max_harmonic = 3
num_weights = 2
theta_grid_deg = -90, 90, 1
trials = 3
seed = 7
"""

COHERENT = SMALL.replace("rows = 2", "rows = 3").replace("cols = 3", "cols = 2")
COHERENT = COHERENT.replace("angles_deg = -20",
                            "angles_deg = -30, 25\ncoherence = coherent")


def test_trial_seeds():
    base = [seq.generate_state(2).tobytes() for seq in trial_seeds(7, 0, 0)]
    assert [seq.generate_state(2).tobytes() for seq in trial_seeds(7, 0, 0)] == base
    states = {
        seq.generate_state(2).tobytes()
        for s in (7, 8) for i in (0, 1) for t in (0, 1) for seq in trial_seeds(s, i, t)
    }
    assert len(states) == 24


@pytest.mark.parametrize("seed", [7, 20260814, 2**40 + 3])
def test_trial_seeds_draw_the_nested_spawn_streams(seed):
    # The three leaves draw what the nested spawns drew before them.
    for sweep_index in (0, 1, 4):
        for trial in range(20):
            want = oracles.nested_trial_streams(seed, sweep_index, trial)
            for got, ref in zip(trial_seeds(seed, sweep_index, trial), want, strict=True):
                draws = np.random.default_rng(got).standard_normal(8)
                assert draws.tobytes() == ref.standard_normal(8).tobytes()


def test_run_trial_deterministic():
    context = build_context(parse_config(SMALL))
    (a_out, a_bound), = run_chunk(context, 0, [0])
    (b_out, b_bound), = run_chunk(context, 0, [0])
    assert a_out == b_out
    assert a_bound == b_bound
    (c_out, c_bound), = run_chunk(context, 0, [1])
    assert c_out.errors_deg != a_out.errors_deg
    # A trial's result does not depend on the batch it is searched in.
    batch = [(a_out, a_bound), (c_out, c_bound), (a_out, a_bound)]
    assert run_chunk(context, 0, [0, 1, 0]) == batch


def test_run_trials_worker_equivalence():
    cfg = parse_config(SMALL)
    serial = run_trials(cfg, workers=1)
    parallel = run_trials(cfg, workers=2)
    assert serial == parallel
    assert len(serial) == cfg.trials


def test_run_sweep_rows_and_csv(tmp_path):
    cfg = parse_config(SMALL + "sweep = I: 1, 2\n")
    result = run_sweep(cfg)
    assert [row.value for row in result.rows] == [1, 2]
    for row in result.rows:
        assert row.variable == "I"
        assert 0.0 <= row.pr <= 1.0
        assert len(row.sqrt_crb_deg) == 1
        assert row.wall_s > 0.0
    path = tmp_path / "out.csv"
    write_sweep_csv(result, str(path))
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "# schema=msdoa-sweep-v1"
    # Incoherent scene: gains resolution is a no-op, so the recorded
    # digest is the digest of the parsed config itself.
    assert lines[2] == f"# config_sha256={config_digest(cfg)}"
    assert lines[3] == "# seed=7"
    assert lines[4] == "sweep_var,value,pr,rmse_deg,sqrt_crb_deg_1"
    assert len(lines) == 5 + 2
    assert "wall" not in text


def test_mode_sweep_csv_writes_each_mode_as_text(tmp_path):
    cfg = parse_config(SMALL + "sweep = mode: full, ideal\n")
    path = tmp_path / "modes.csv"
    write_sweep_csv(run_sweep(cfg), str(path))
    rows = path.read_text().splitlines()[5:]
    assert [row.split(",")[:2] for row in rows] == [["mode", "full"], ["mode", "ideal"]]


def test_sweep_csv_byte_identical_across_workers(tmp_path):
    cfg = parse_config(SMALL + "sweep = I: 1, 2\n")
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    write_sweep_csv(run_sweep(cfg, workers=1), str(p1))
    write_sweep_csv(run_sweep(cfg, workers=2), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_run_sweep_requires_sweep():
    with pytest.raises(ValidationError, match="no sweep"):
        run_sweep(parse_config(SMALL))


def test_write_sweep_csv_needs_rows(tmp_path):
    cfg = parse_config(SMALL + "sweep = I: 1\n")
    result = run_sweep(cfg)
    result.rows = []
    with pytest.raises(ValidationError, match="no rows"):
        write_sweep_csv(result, str(tmp_path / "x.csv"))


def test_resolve_experiment_gains():
    cfg = parse_config(COHERENT)
    assert cfg.scene.coherent_gains is None
    resolved = resolve_experiment(cfg)
    assert resolved.scene.coherent_gains[0] == 1.0 + 0.0j
    assert np.allclose(np.abs(resolved.scene.coherent_gains), 1.0)
    again = resolve_experiment(cfg)
    assert resolved.scene.coherent_gains == again.scene.coherent_gains
    assert len(resolved.scene.coherent_gains) == 2
    other = resolve_experiment(parse_config(COHERENT.replace("seed = 7", "seed = 8")))
    assert other.scene.coherent_gains != resolved.scene.coherent_gains
    # Incoherent scenes have no experiment-level randomness.
    plain = parse_config(SMALL)
    assert resolve_experiment(plain) is plain


def _coherent_table1(num_sources, seed):
    angles = {1: "-22", 2: "-22, 12", 5: "-60, -30, 0, 30, 60"}
    # A 5-column window gives a search dimension of 10, above five sources.
    return load_config(builtin_config_path("table1"), [
        "coherence=coherent", f"angles_deg={angles[num_sources]}", "subarray_width=5",
        "powers=" + ", ".join(["1"] * num_sources), f"seed={seed}"])


def test_resolve_experiment_fills_gains_once():
    full = resolve_experiment(parse_config(COHERENT))
    assert full.scene.coherent_gains is not None
    assert resolve_experiment(full) is full  # already resolved: untouched
    reseeded = replace(full, seed=99)
    assert resolve_experiment(reseeded) is reseeded


@pytest.mark.parametrize("seed", [7, 20260814, 2**40 + 3])
@pytest.mark.parametrize("num_sources", [1, 2, 5])
def test_resolve_experiment_keeps_the_bits_of_the_gain_recipe(num_sources, seed):
    gains = resolve_experiment(_coherent_table1(num_sources, seed)).scene.coherent_gains
    assert all(type(g) is complex for g in gains)
    want = oracles.coherent_gains(num_sources, seed)
    assert np.array(gains).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("name", ["table1", "table2", "table1_2d"])
def test_an_incoherent_config_is_used_as_given_and_draws_nothing(monkeypatch, name):
    cfg = load_config(builtin_config_path(name))
    assert resolve_experiment(cfg) is cfg

    def refuse(*args, **kwargs):
        raise AssertionError("an incoherent set-up drew a random number")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert build_context(cfg).config is cfg


def test_run_trials_resolves_coherent_gains():
    # The context resolves unset gains from the seed, as a caller would.
    cfg = parse_config(COHERENT)
    assert run_trials(cfg) == run_trials(resolve_experiment(cfg))


def test_coherent_sweep_runs(tmp_path):
    cfg = parse_config(COHERENT + "sweep = L: 1, 2\n")
    result = run_sweep(cfg)
    assert [row.value for row in result.rows] == [1, 2]
    assert all(len(row.sqrt_crb_deg) == 2 for row in result.rows)


def test_run_single_outputs(tmp_path):
    cfg = parse_config(SMALL)
    out = run_single(cfg, str(tmp_path / "run"))
    paths = out["paths"]
    assert set(paths) == {"frequency", "series", "snapshots", "spatial"}
    for path in paths.values():
        assert os.path.exists(path)
    q_len = cfg.plan.points_per_snapshot
    lines = Path(paths["frequency"]).read_text().splitlines()
    assert lines[0] == "bin_index,freq_hz,magnitude,selected"
    assert len(lines) == 1 + q_len
    selected = sum(int(line.split(",")[3]) for line in lines[1:])
    assert selected == 2 * cfg.max_harmonic + 1
    assert out["result"] is not None
    assert len(out["result"].estimates) == 1
    assert len(out["result"].estimates[0]) == 1


def test_run_single_noise_only(tmp_path):
    text = SMALL.replace("angles_deg = -20", "angles_deg = none")
    text = text.replace("snr_db = 10", "noise_variance = 1.0")
    out = run_single(parse_config(text), str(tmp_path / "quiet"))
    assert "spatial" not in out["paths"]
    assert out["result"] is None
    lines = Path(out["paths"]["frequency"]).read_text().splitlines()
    mags = np.array([float(line.split(",")[2]) for line in lines[1:]])
    assert np.all(np.isfinite(mags))
    assert mags.max() > 0.0


def test_run_single_default_prefix(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = parse_config(SMALL + "output = here\n")
    out = run_single(cfg)
    assert out["paths"]["frequency"] == "here_frequency.csv"
    assert os.path.exists("here_frequency.csv")


# Calls that open a file: the builtin, io and os open and Path.open,
# numpy's raw array file I/O, and pathlib's whole-file shortcuts.
_FILE_CALLS = {"open", "tofile", "fromfile", "read_text", "write_text", "read_bytes", "write_bytes"}


def _file_calls(path):
    """(call name, literal mode) of each file-opening call in a module; None if none is given."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in _FILE_CALLS:
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            yield name, getattr(modes[0], "value", None) if modes else None


def test_harness_alone_opens_files():
    # Every artifact has one writer and the series one reader, in
    # harness; config opens its config file to read it, and no other
    # module opens a file.
    package = Path(msdoa.harness.__file__).parent
    calls = {p.name: list(_file_calls(p)) for p in sorted(package.glob("*.py"))}
    assert "harness.py" in calls and "cli.py" in calls
    assert {name for name, found in calls.items() if found} == {"harness.py", "config.py"}
    assert calls["config.py"] == [("open", "r")]
    assert {name for name, _ in calls["harness.py"]} == {"open", "tofile", "fromfile"}


def _write_cfg(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


def test_cli_validate_ok(capsys):
    code = main(["validate", "-c", builtin_config_path("table1")])
    assert code == 0
    out = capsys.readouterr().out
    digest = config_digest(load_config(builtin_config_path("table1")))
    assert out.strip() == f"OK config_sha256={digest}"


def test_cli_missing_file(tmp_path, capsys):
    # A path that cannot be read or written is an invalid argument (exit
    # 2) with an "error:" line, not a traceback.
    sweep = _write_cfg(tmp_path, SMALL + "sweep = I: 1\n")
    for args in (
        ["validate", "-c", "/no/such/file.cfg"],
        ["validate", "-c", str(tmp_path)],
        ["sweep", "-c", sweep, "-o", str(tmp_path / "missing" / "x")],
    ):
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_cli_invalid_config(tmp_path, capsys):
    path = _write_cfg(tmp_path, SMALL)
    assert main(["validate", "-c", path, "--set", "rows=banana"]) == 2
    assert "invalid config" in capsys.readouterr().err
    assert main(["validate", "-c", path, "--set", "max_harmonic=2"]) == 2
    assert "frequency lines" in capsys.readouterr().err


@pytest.mark.parametrize("name, grid", [
    ("table1", "theta_grid_deg=-90, 90, 180"),
    ("table1_2d", "phi_grid_deg=0, 90, 90"),
    ("table1_2d", "phi_grid_deg=45, 46, 5"),
])
def test_cli_rejects_two_point_search_grid(capsys, name, grid):
    # The peak search needs a neighbor on each side, so a searched grid
    # of 2 points, or a 2-D elevation grid of 1, is refused when the
    # config is loaded.
    assert main(["validate", "-c", builtin_config_path(name), "--set", grid]) == 2
    assert "at least 3 points" in capsys.readouterr().err


def test_cli_rejects_elevation_grid_past_90(capsys):
    # The manifold sees phi only through sin(phi): a grid past 90 deg
    # would hold the mirror image of every elevation below it.
    path = builtin_config_path("table1_2d")
    assert main(["validate", "-c", path, "--set", "phi_grid_deg=0, 100, 0.5"]) == 2
    assert "past 90" in capsys.readouterr().err
    assert main(["validate", "-c", path, "--set", "phi_grid_deg=0, 90, 0.5"]) == 0


@pytest.mark.parametrize("name, overrides, key", [
    ("table1", ["theta_grid_deg=-179, 179, 0.1"], "theta_grid_deg"),
    ("table2", ["theta_grid_deg=-179, 179, 0.1"], "theta_grid_deg"),
    ("table1", ["rows=1", "subarray_width=3"], "theta_grid_deg"),
    ("table1_2d", ["phi_grid_deg=-30, 90, 0.5", "theta_grid_deg=-179, 179, 0.5"], "phi_grid_deg"),
    ("table1_2d", ["angles_deg=(-36, 20), (120, 45)", "theta_grid_deg=-270, 270, 0.5"],
     "theta_grid_deg"),
], ids=["rows-alone-past-90", "rows-alone-past-90-table2", "one-row-across-0",
        "elevation-grid-below-0", "azimuth-grid-past-360"])
def test_cli_rejects_a_grid_of_mirrored_directions(capsys, name, overrides, key):
    # Rows see only sin(theta)*sin(phi) and window positions only
    # cos(theta)*sin(phi): with one window position theta and 180 - theta
    # look alike, with one row theta and -theta, and (theta, -phi) is
    # (theta + 180, phi). A grid whose inner points hold such a pair, or
    # two azimuths 360 apart, is refused naming its key.
    args = ["validate", "-c", builtin_config_path(name)]
    for override in overrides:
        args += ["--set", override]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert key in err and "mirrored pairs" in err


# A 2 x 1 surface's harmonic matrix is rank deficient; only the SVD that
# building each point's context makes can tell.
RANK_DEFICIENT = ["rows=2", "cols=1", "max_harmonic=1", "angles_deg=-22", "powers=1"]


def _cli_args(command, path, overrides, *extra):
    args = [command, "-c", path, *extra]
    for item in overrides:
        args += ["--set", item]
    return args


@pytest.mark.parametrize("sweep", [[], ["--set", "sweep=I: 1, 2"]])
def test_cli_validate_rejects_rank_deficient_surface(tmp_path, capsys, sweep):
    # A check that no draw can change: every command refuses it alike.
    commands = ("validate", "sweep") if sweep else ("validate", "single", "crb")
    errors = set()
    for command in commands:
        args = _cli_args(command, builtin_config_path("table1"), RANK_DEFICIENT,
                         "-o", str(tmp_path / "x"), *sweep)
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        errors.add(err)
    assert len(errors) == 1
    assert "rank deficient" in errors.pop()
    assert not os.listdir(tmp_path)


def test_cli_validate_names_a_failing_sweep_point_as_sweep_does(tmp_path, capsys):
    # Checks that only the context of a point can make: sources at zero
    # elevation share one steering vector, a lone one there has an
    # azimuth that moves nothing, and a 2 x 1 surface's coding is rank
    # deficient. Both commands, `sweep` at one and two workers, name the
    # failing point alike.
    for overrides, message in (
        (["elevation_deg=0"], "mixed steering matrix is rank deficient"),
        (["elevation_deg=0", "angles_deg=-22", "powers=1"],
         "the azimuth of source 1 carries no first-order information"),
        (RANK_DEFICIENT, "harmonic matrix is numerically rank deficient"),
    ):
        overrides = [*overrides, "sweep=I: 5, 6", "trials=2"]
        errors = set()
        for command, extra in (("validate", []), ("sweep", ["--workers", "1"]),
                               ("sweep", ["--workers", "2"])):
            path = builtin_config_path("table1")
            assert main(_cli_args(command, path, overrides, "-o", str(tmp_path / "x"), *extra)) == 2
            errors.add(capsys.readouterr().err)
        assert len(errors) == 1
        assert errors.pop().startswith(f"invalid config: sweep I=5 (index 0): {message}")
    assert not os.listdir(tmp_path)


def test_cli_single_and_sweep(tmp_path, capsys):
    path = _write_cfg(tmp_path, SMALL)
    prefix = str(tmp_path / "cli")
    assert main(["single", "-c", path, "-o", prefix]) == 0
    out = capsys.readouterr().out
    assert "estimate theta_deg=" in out
    assert os.path.exists(f"{prefix}_spatial.csv")

    path2 = _write_cfg(tmp_path, SMALL + "sweep = I: 1, 2\n")
    assert main(["sweep", "-c", path2, "--workers", "2", "-o", prefix]) == 0
    out = capsys.readouterr().out
    assert f"sweep: {prefix}_sweep.csv" in out
    assert "wall_s=" in out
    assert os.path.exists(f"{prefix}_sweep.csv")


def test_cli_single_2d_prints_both_angles(tmp_path, capsys):
    # Coarse grids keep the one-trial 2-D search and its CSV small.
    args = ["single", "-c", builtin_config_path("table1_2d"), "-o", str(tmp_path / "two"),
            "--set", "theta_grid_deg=-60, 60, 2", "--set", "phi_grid_deg=0, 60, 2"]
    assert main(args) == 0
    estimates = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("estimate ")]
    assert len(estimates) == 2
    for line in estimates:
        assert re.fullmatch(r"estimate theta_deg=-?\d+\.\d{4} phi_deg=\d+\.\d{4}", line)


def test_cli_crb(tmp_path, capsys):
    prefix = str(tmp_path / "bound")
    code = main(["crb", "-c", builtin_config_path("table1"), "-o", prefix])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("sqrt_crb_deg=") == 2
    assert os.path.exists(f"{prefix}_crb.csv")


def test_cli_crb_needs_sources(tmp_path, capsys):
    text = SMALL.replace("angles_deg = -20", "angles_deg = none")
    path = _write_cfg(tmp_path, text)
    assert main(["crb", "-c", path, "-o", str(tmp_path / "x")]) == 2
    assert "at least one" in capsys.readouterr().err


def test_cli_sweep_needs_sources(tmp_path, capsys):
    # Every sweep point is scored against the true sources, so `validate`
    # and `sweep` reject a source-free sweep alike, before any trial runs.
    # `single` ignores the sweep and still dumps the noise-only trial.
    text = SMALL.replace("angles_deg = -20", "angles_deg = none")
    text = text.replace("snr_db = 10", "noise_variance = 1.0") + "sweep = I: 2, 4\n"
    path = _write_cfg(tmp_path, text)
    prefix = str(tmp_path / "x")
    errors = []
    for command in ("validate", "sweep"):
        assert main([command, "-c", path, "-o", prefix]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        errors.append(err)
    assert errors[0] == errors[1]
    assert "a sweep needs at least one true source" in errors[0]
    assert not os.path.exists(f"{prefix}_sweep.csv")
    assert main(["single", "-c", path, "-o", prefix]) == 0
    assert os.path.exists(f"{prefix}_frequency.csv")


def test_source_free_trials_raise_before_any_draw(monkeypatch):
    # Trials are scored against the true sources, so a point without
    # them fails before a single trial is synthesized.
    calls = _count_calls(monkeypatch, msdoa.waveform, "synthesize_received")
    text = SMALL.replace("angles_deg = -20", "angles_deg = none")
    text = text.replace("snr_db = 10", "noise_variance = 1.0")
    with pytest.raises(ValidationError, match="at least one true source"):
        run_trials(parse_config(text))
    assert calls == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_runtime_failure_is_exit_3(tmp_path, capsys):
    # Checks on a draw: each ends in its typed message, with no numpy
    # warning before it and no file written.
    weak = tmp_path / "weak.cfg"
    weak.write_text(Path(builtin_config_path("table1")).read_text().replace(
        "snr_db = 0", "noise_variance = 1e300"))
    for command, config, overrides, message in (
        # Powers whose snapshot covariances overflow are refused before
        # any decomposition of them.
        *(("single", builtin_config_path(name), ["powers=1e306, 1e306"],
           "the covariance of trial 0 of the batch is not finite")
          for name in ("table1", "table1_2d")),
        # Sources this weak under this much noise have a bound past the
        # float range, refused before it is printed or written.
        ("crb", str(weak), ["powers=1e-300, 1e-300"],
         "the bound of trial 0 of the batch is not finite"),
    ):
        assert main(_cli_args(command, config, overrides, "-o", str(tmp_path / "x"))) == 3
        out, err = capsys.readouterr()
        assert "sqrt_crb_deg" not in out
        assert err.startswith(f"runtime error: {message}")
        assert not list(tmp_path.glob("x*"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_refuses_a_noise_power_past_the_float_range(tmp_path, capsys):
    # M*N*sigma^2 past the float range is refused as the config, or the
    # sweep point that reaches it, loads: table2's -20 dB point at 1e306,
    # which every command names alike.
    point = "sweep snr_db=-20.0 (index 0): "
    for command, name, overrides, extra, prefix, elements, variance in (
        ("crb", "table1", ["powers=1e305, 1e305", "snr_db=-20"], [], "", 30, "1e+307"),
        ("crb", "table1_2d", ["powers=1e305, 1e305", "snr_db=-20"], [], "", 30, "1e+307"),
        *((command, "table2", ["powers=1e306, 1e306"], extra, point, 40, "1e+308")
          for command, extra in (("validate", []), ("single", []), ("sweep", ["--workers", "1"]),
                                 ("sweep", ["--workers", "2"]))),
    ):
        path = builtin_config_path(name)
        assert main(_cli_args(command, path, overrides, "-o", str(tmp_path / "x"), *extra)) == 2
        assert capsys.readouterr() == ("", (
            f"invalid config: {prefix}the receiver noise power, {elements} elements times "
            f"sigma^2 = {variance}, is past the float range\n"))
    assert not os.listdir(tmp_path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("power", ["1e306", "1e307"])
def test_cli_crb_refuses_a_fisher_matrix_that_is_not_finite(tmp_path, capsys, power):
    # At 1e306 the Fisher matrix is finite but symmetrizing it overflows;
    # at 1e307 forming it does. Its eigenvalues are NaN either way, for
    # the azimuth-only bound of table1 and the joint 4 x 4 one of table1_2d.
    # At 1e307 the noise power of 0 dB is past the float range, which the
    # config refuses, so that run is at 10 dB.
    prefix = str(tmp_path / "bound")
    snr_db = "0" if power == "1e306" else "10"
    for name, bounds in (("table1", ("0.205728", "0.236092")),
                         ("table1_2d", ("0.736363", "0.338394"))):
        args = ["crb", "-c", builtin_config_path(name), "--set", f"powers={power}, {power}",
                "--set", f"snr_db={snr_db}"]
        assert main([*args, "-o", prefix]) == 3
        out, err = capsys.readouterr()
        assert "sqrt_crb_deg" not in out
        assert err.startswith("runtime error: projected Fisher information is singular")
        assert "eigenvalues nan .. nan" in err
        assert not os.path.exists(f"{prefix}_crb.csv")
        # One decade lower the bound is finite and reported.
        assert main(["crb", "-c", builtin_config_path(name), "--set", "powers=1e305, 1e305",
                     "-o", prefix]) == 0
        out = capsys.readouterr().out
        assert all(f"sqrt_crb_deg={bound}" in out for bound in bounds)
        os.remove(f"{prefix}_crb.csv")


def test_cli_crb_bounds_the_amplitudes_of_trial_zero(tmp_path, capsys):
    # `crb` and `single` report on one and the same draw: trial (0, 0).
    path = builtin_config_path("table1")
    assert main(["crb", "-c", path, "-o", str(tmp_path / "bound")]) == 0
    printed = [line.split("sqrt_crb_deg=")[1]
               for line in capsys.readouterr().out.splitlines() if "sqrt_crb_deg=" in line]
    (_, bound), = run_chunk(build_context(resolve_experiment(load_config(path))), 0, [0])
    assert printed == [f"{b:.6g}" for b in bound]


def test_cli_crb_runs_no_search(tmp_path, capsys, monkeypatch):
    # The bound needs trial (0, 0)'s amplitudes only, never its series,
    # its snapshots or its estimate.
    printed = {}
    for name in ("table1", "table1_2d"):
        assert main(["crb", "-c", builtin_config_path(name), "-o", str(tmp_path / name)]) == 0
        printed[name] = capsys.readouterr().out

    def no_search(*args):
        raise AssertionError("crb ran the search")

    def no_snapshots(*args):
        raise AssertionError("crb extracted snapshots")

    def no_series(*args):
        raise AssertionError("crb synthesized a series")

    monkeypatch.setattr(msdoa.estimator, "music_search", no_search)
    monkeypatch.setattr(msdoa.harness, "extract_snapshots", no_snapshots)
    monkeypatch.setattr(msdoa.harness, "synthesize_received", no_series)
    for name in ("table1", "table1_2d"):
        assert main(["crb", "-c", builtin_config_path(name), "-o", str(tmp_path / name)]) == 0
        assert capsys.readouterr().out == printed[name]


def test_module_runs_from_a_source_checkout():
    src = str(Path(msdoa.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run(
        [sys.executable, "-m", "msdoa", "validate", "-c", builtin_config_path("table1")],
        env=env, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("OK config_sha256=")


def test_run_single_is_trial_zero(tmp_path):
    cfg = parse_config(COHERENT)
    out = run_single(cfg, str(tmp_path / "run"))
    resolved = resolve_experiment(cfg)
    (outcome, _), = run_chunk(build_context(resolved), 0, [0])
    assert out["result"].estimates[0] == outcome.estimates

    # Reference: trial (0, 0) composed from the public stages and the
    # builders of their pieces, without a trial context.
    amplitude_seed, noise_seed, weight_seed = trial_seeds(resolved.seed, 0, 0)
    harmonics = harmonic_matrix(resolved.max_harmonic, resolved.surface)
    model = signal_model(resolved.surface, resolved.scene, resolved.plan, resolved.mode, harmonics)
    plan, params = resolved.plan, resolved.estimator
    amplitudes = draw_source_amplitudes(resolved.scene, plan.num_snapshots, amplitude_seed)
    series = synthesize_received(model, resolved.noise_variance, amplitudes, noise_seed)
    bins = extract_snapshots(series, plan, resolved.max_harmonic)
    setup = search_setup(resolved.surface, resolved.scene, params, harmonics)
    weights = make_ps_weights(params.num_weights, setup.width, weight_seed)
    batch = estimate_doa([bins], setup, [weights])
    ref = str(tmp_path / "ref")
    write_time_series(series, resolved.plan, f"{ref}_series.f64", seed=resolved.seed)
    write_snapshots_csv(bins, f"{ref}_snapshots.csv")
    write_spectrum_csv(batch, f"{ref}_spatial.csv")
    for got, want in (
        (out["paths"]["series"], f"{ref}_series.f64"),
        (out["paths"]["series"] + ".hdr", f"{ref}_series.f64.hdr"),
        (out["paths"]["snapshots"], f"{ref}_snapshots.csv"),
        (out["paths"]["spatial"], f"{ref}_spatial.csv"),
    ):
        with open(got, "rb") as a, open(want, "rb") as b:
            assert a.read() == b.read(), got


@pytest.mark.parametrize("name", ["table1", "table1_2d"])
def test_single_series_file_extracts_to_trial_zero_bins(tmp_path, name):
    # The series file, read back for the config's plan and extracted,
    # gives trial (0, 0)'s bins bit for bit.
    cfg = load_config(builtin_config_path(name))
    out = run_single(cfg, str(tmp_path / "run"))
    series = read_time_series(out["paths"]["series"], cfg.plan)
    bins = extract_snapshots(series, cfg.plan, cfg.max_harmonic)
    _, _, want, _ = msdoa.harness.draw_trial(build_context(cfg), 0, 0)
    assert bins.tobytes() == want.tobytes()


@st.composite
def _small_configs(draw):
    rows = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(["1d", "2d"]))
    # A 2-D search needs 2 window positions.
    two_d = kind == "2d"
    cols = draw(st.integers(1 + two_d, 3))
    width = draw(st.integers(1, cols - two_d))
    dim = rows if kind == "1d" else rows * (cols - width + 1)
    count = draw(st.integers(1, min(2, dim - 1)))
    thetas = draw(st.lists(st.integers(-80, 80), min_size=count, max_size=count, unique=True))
    if kind == "1d":
        angles = ", ".join(str(t) for t in thetas)
    else:
        phis = draw(st.lists(st.integers(10, 80), min_size=count, max_size=count))
        angles = ", ".join(f"({t}, {p})" for t, p in zip(thetas, phis))
    lines = [
        f"rows = {rows}",
        f"cols = {cols}",
        f"angles_deg = {angles}",
        f"powers = {', '.join(['1'] * count)}",
        f"max_harmonic = {rows * cols // 2 + draw(st.integers(0, 2))}",
        f"estimator = {kind}",
        f"subarray_width = {width}",
        "phi_grid_deg = 0, 90, 5",
        f"mode = {draw(st.sampled_from(['full', 'ideal']))}",
        f"seed = {draw(st.integers(0, 2**16))}",
    ]
    keys = {line.split(" = ")[0] for line in lines}
    base = [line for line in SMALL.splitlines() if line.split(" = ")[0] not in keys]
    return resolve_experiment(parse_config("\n".join(base + lines) + "\n"))


def _result_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except MsdoaError as exc:
        return type(exc), str(exc)


@settings(max_examples=30, deadline=None)
@given(_small_configs())
def test_shared_context_matches_fresh_context(cfg):
    # Bitwise the same outcome and bound, or the same typed error (some
    # tiny surfaces have a rank-deficient harmonic matrix).
    context = _result_or_error(build_context, cfg)
    for trial in range(2):
        fresh = _result_or_error(lambda: run_chunk(build_context(cfg), 1, [trial]))
        if isinstance(context, tuple):
            assert fresh == context
        else:
            assert _result_or_error(run_chunk, context, 1, [trial]) == fresh


@st.composite
def _batched_runs(draw):
    cfg = draw(_small_configs())
    est = replace(
        cfg.estimator,
        theta_grid_deg=(-90.0, 90.0, float(draw(st.sampled_from([1, 2, 3, 5, 6])))),
        phi_grid_deg=(0.0, 90.0, float(draw(st.sampled_from([2, 3, 5, 9, 10])))),
    )
    trials = draw(st.integers(1, 6))
    return replace(cfg, estimator=est, trials=trials), draw(st.integers(1, trials + 1))


@pytest.mark.parametrize("name, elevations", [("table1_2d", 181), ("table2", 1), ("table1", 1)])
def test_a_point_is_one_search(monkeypatch, name, elevations):
    # One music_search call takes all 100 trials of a point, 1-D or 2-D,
    # and each elevation's lag basis is built once, from the setup's one
    # read-only lag table.
    cfg = load_config(builtin_config_path(name))
    searches = _count_calls(monkeypatch, msdoa.estimator, "music_search")
    bases = _count_calls(monkeypatch, msdoa.estimator, "_lag_basis")
    assert len(run_trials(cfg)) == cfg.trials == 100
    assert [args[0].shape[0] for args in searches] == [100]
    assert len(bases) == elevations
    lags = searches[0][2].lags
    assert all(args[0] is lags for args in bases) and not lags.flags.writeable


def test_the_search_reads_its_sources_from_the_scene():
    # table1 cut to its first source: one estimate a trial, resolved.
    cfg = load_config(builtin_config_path("table1"), ["trials=3", "sweep=none"])
    first = replace(cfg.scene, doas=cfg.scene.doas[:1], powers=cfg.scene.powers[:1])
    outcomes = [outcome for outcome, _ in run_trials(replace(cfg, scene=first))]
    assert [len(outcome.estimates) for outcome in outcomes] == [1, 1, 1]
    assert all(outcome.resolved for outcome in outcomes)
    # table1's sources at 60 degrees elevation: the 1-D search runs there.
    raised = replace(cfg.scene, doas=tuple(
        Doa.from_degrees(d.theta_deg, 60.0) for d in cfg.scene.doas))
    outcomes = [outcome for outcome, _ in run_trials(replace(cfg, scene=raised))]
    assert all(outcome.resolved and max(outcome.errors_deg) < 2.0 for outcome in outcomes)
    assert {est.phi_deg for outcome in outcomes for est in outcome.estimates} == {60.0}


@settings(max_examples=60, deadline=None)
@given(_batched_runs())
def test_batching_never_moves_a_bit(case):
    cfg, batch = case
    context = _result_or_error(build_context, cfg)
    assume(not isinstance(context, tuple))
    drawn = [msdoa.harness.draw_trial(context, 0, t)[1:] for t in range(cfg.trials)]
    alone = [_spied_batch(context, [trial]) for trial in drawn]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(msdoa.harness, "BATCH_TRIALS", 1)
        unbatched = _result_or_error(run_trials, cfg)
        mp.setattr(msdoa.harness, "BATCH_TRIALS", batch)
        assert _result_or_error(run_trials, cfg) == unbatched
        together = _spied_batch(context, drawn)

    errors = [a for a in alone if isinstance(a[0], type)]
    if errors or isinstance(together[0], type):
        # A stage raises for the first of the batch's trials it fails
        # on, with the error that trial raises alone.
        assert together in errors
        return
    for t, trial in enumerate(alone):
        for got, want in zip(_trial_arrays(together, t), _trial_arrays(trial, 0)):
            assert got.tobytes() == want.tobytes()
        assert together[0].estimates[t] == trial[0].estimates[0]


def _spied_batch(context, drawn):
    """:func:`run_batch` of a batch, with the whitened covariances and
    whitening transforms its search was handed; or its typed error."""
    seen = []
    search = msdoa.estimator.music_search

    def spy(whitened, w_inv_sqrt, setup):
        seen.append((whitened, w_inv_sqrt))
        return search(whitened, w_inv_sqrt, setup)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(msdoa.estimator, "music_search", spy)
        outcome = _result_or_error(run_batch, context, drawn)
    if isinstance(outcome[0], type):
        return outcome
    (stacks,) = seen
    return (*outcome, *stacks)


def _trial_arrays(batch, t):
    """Spectrum, bound, azimuth bounds, whitened covariance and
    whitening transform of trial ``t`` of a :func:`_spied_batch`."""
    search, bound, whitened, w_inv_sqrt = batch
    return (search.spectrum[t], bound.matrix[t],
            bound.theta_bounds[t], whitened[t], w_inv_sqrt[t])


def test_a_singular_draw_raises_in_a_batch_as_it_does_alone():
    context = build_context(resolve_experiment(parse_config(COHERENT)))
    drawn = [msdoa.harness.draw_trial(context, 0, t)[1:] for t in range(4)]
    for t, source in ((1, 1), (3, slice(None))):
        amplitudes, bins, weights = drawn[t]
        amplitudes = amplitudes.copy()
        amplitudes[source] = 0.0  # no bound exists for a silent source
        drawn[t] = (amplitudes, bins, weights)
    with pytest.raises(UnidentifiableParameterError) as alone:
        run_batch(context, [drawn[1]])
    with pytest.raises(UnidentifiableParameterError) as batch:
        run_batch(context, drawn)
    assert str(batch.value) == str(alone.value)
    assert "0.000e+00 .. 0.000e+00" not in str(batch.value)


def test_context_belongs_to_its_config():
    context = build_context(parse_config(SMALL))
    # Trials share these arrays, so none of them may be written.
    for arr in (context.search.harmonics.entries, context.search.harmonics.pseudo_inverse,
                context.search.harmonics.gram_inverse,
                context.signal.patterns, context.search.compensation,
                context.search.theta_grid_deg, context.search.elevation_grid_deg,
                context.search.directions, context.search.lags, context.search.fold,
                context.bound.core):
        assert not arr.flags.writeable


def _count_calls(monkeypatch, module, name):
    """Route every msdoa reference to ``module.name`` through a call counter."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "msdoa" or mod_name.startswith("msdoa."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


@pytest.mark.parametrize("mode", ["full", "ideal"])
def test_harmonic_matrix_built_once_per_sweep_point(monkeypatch, mode):
    calls = _count_calls(monkeypatch, msdoa.surface, "harmonic_matrix")
    cfg = parse_config(SMALL + f"mode = {mode}\nsweep = I: 1, 2, 3\n")
    run_sweep(cfg)
    assert len(calls) == len(cfg.sweep.values)


def test_p_sweep_points_match_standalone_configs():
    # Each point's context follows its own P: rows equal those of each
    # point run as a config of its own at the same sweep index.
    text = SMALL + "mode = ideal\n"
    result = run_sweep(parse_config(text + "sweep = P: 3, 5\n"))
    for index, (row, p) in enumerate(zip(result.rows, (3, 5))):
        point = parse_config(text.replace("max_harmonic = 3", f"max_harmonic = {p}"))
        trials = run_trials(resolve_experiment(point), index)
        agg = aggregate([outcome for outcome, _ in trials], point.scene.doas)
        mean_bound = np.array([bound for _, bound in trials]).mean(axis=0)
        assert (row.pr, row.rmse_deg) == (agg.pr, agg.rmse_deg)
        assert row.sqrt_crb_deg == tuple(float(b) for b in mean_bound)


def test_uneven_worker_chunks_match_serial(tmp_path):
    # 5 trials over 2 and 3 workers split into chunks of 3+2 and 2+2+1.
    cfg = parse_config(SMALL.replace("trials = 3", "trials = 5")
                       + "mode = ideal\nsweep = P: 3, 4\n")
    paths = []
    for workers in (1, 2, 3):
        paths.append(tmp_path / f"w{workers}.csv")
        write_sweep_csv(run_sweep(cfg, workers=workers), str(paths[-1]))
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()


def _degenerate_harmonics(max_harmonic, surface):
    return HarmonicMatrix(max_harmonic, np.ones((2 * max_harmonic + 1, surface.size)))


def _singular_whitener(weights, window_gram):
    dim = math.isqrt(window_gram.shape[1])
    return np.zeros((dim, dim), dtype=complex)


@pytest.mark.parametrize(
    "text, patch, error, workers",
    [
        (SMALL, (msdoa.harness, "harmonic_matrix", _degenerate_harmonics),
         DegenerateCodingError, 1),
        (COHERENT.replace("angles_deg = -30, 25", "angles_deg = 10, 10"), None,
         ConfigurationError, 1),
        (COHERENT.replace("angles_deg = -30, 25", "angles_deg = 10, 10"), None,
         ConfigurationError, 2),
        (SMALL + "elevation_deg = 0\n", None, ConfigurationError, 1),
        (SMALL + "elevation_deg = 0\n", None, ConfigurationError, 2),
        (SMALL, (msdoa.estimator, "smoothing_whitener", _singular_whitener),
         NearSingularWhitenerError, 1),
    ],
    ids=["harmonic-rank", "mixed-steering", "mixed-steering-pool",
         "fisher", "fisher-pool", "whitener"],
)
def test_sweep_errors_name_their_point(monkeypatch, text, patch, error, workers):
    if patch is not None:
        monkeypatch.setattr(*patch)
    cfg = parse_config(text + "sweep = I: 2, 3\n")
    with pytest.raises(error, match=r"^sweep I=2 \(index 0\): "):
        run_sweep(cfg, workers=workers)


@pytest.fixture
def blas_threads():
    """Getter of the bundled OpenBLAS thread count, set to 2 for the test."""
    controls = msdoa.harness._blas_thread_controls()
    if controls is None:
        pytest.skip("numpy's BLAS has no settable thread count here")
    getter, setter = controls
    previous = getter()
    setter(2)
    yield getter
    setter(previous)


def test_trials_run_single_threaded_and_restore_the_count(monkeypatch, blas_threads):
    seen = []
    build = msdoa.harness.build_context

    def recording(cfg):
        seen.append(blas_threads())
        return build(cfg)

    monkeypatch.setattr(msdoa.harness, "build_context", recording)
    before = blas_threads()
    run_trials(parse_config(SMALL))
    assert blas_threads() == before
    run_sweep(parse_config(SMALL + "sweep = I: 1, 2\n"))
    assert blas_threads() == before
    monkeypatch.setattr(msdoa.estimator, "smoothing_whitener", _singular_whitener)
    with pytest.raises(NearSingularWhitenerError):
        run_trials(parse_config(SMALL))
    assert blas_threads() == before
    with pytest.raises(NearSingularWhitenerError):
        run_sweep(parse_config(SMALL + "sweep = I: 1, 2\n"))
    assert blas_threads() == before
    assert seen == [1] * 5


def test_blas_scope_without_a_setter_does_nothing(monkeypatch, blas_threads):
    with msdoa.harness._single_threaded_blas():
        assert blas_threads() == 1
    assert blas_threads() == 2
    monkeypatch.setattr(msdoa.harness, "_blas_thread_controls", lambda: None)
    with msdoa.harness._single_threaded_blas():
        assert blas_threads() == 2
    assert blas_threads() == 2


@pytest.mark.parametrize("name, trials", [("table2", 4), ("table1_2d", 2)])
def test_blas_threads_never_move_a_bit(monkeypatch, blas_threads, name, trials):
    cfg = resolve_experiment(replace(load_config(builtin_config_path(name)), trials=trials))
    pinned = run_trials(cfg)
    monkeypatch.setattr(msdoa.harness, "_blas_thread_controls", lambda: None)
    assert run_trials(cfg) == pinned


def test_sweep_holds_one_pool(monkeypatch, tmp_path):
    # One pool and one map of every (point, chunk) task: 3 points of
    # 3 trials over 2 workers are 3 x 2 chunks.
    pools, maps = [], []

    class CountingPool(msdoa.harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

        def map(self, fn, tasks):
            tasks = list(tasks)
            maps.append(len(tasks))
            return super().map(fn, tasks)

    monkeypatch.setattr(msdoa.harness, "ProcessPoolExecutor", CountingPool)
    cfg = parse_config(SMALL + "sweep = I: 1, 2, 3\n")
    p1, p2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    write_sweep_csv(run_sweep(cfg, workers=2), str(p2))
    assert len(pools) == 1
    assert maps == [3 * 2]
    write_sweep_csv(run_sweep(cfg, workers=1), str(p1))
    assert len(pools) == 1
    assert p1.read_bytes() == p2.read_bytes()


def _first_point_fails(args):
    """Chunk stand-in: point 0 fails at once; a later chunk marks its start, then sleeps."""
    cfg, sweep_index, trial_indices = args
    if sweep_index == 0:
        raise ConfigurationError("first point fails")
    Path(f"{cfg.output}-{sweep_index}-{trial_indices.start}").touch()
    time.sleep(0.4)
    return []


def test_failing_pooled_sweep_runs_only_the_chunks_handed_out(monkeypatch, tmp_path):
    # Every chunk of the sweep is queued at once. Point 0's failure
    # cancels the chunks not yet handed to a process: at most one
    # running per process and a full call queue (processes plus
    # EXTRA_QUEUED_CALLS) still start, as the later chunks outlast the
    # failure's way back to this process.
    monkeypatch.setattr(msdoa.harness, "_trial_chunk", _first_point_fails)
    workers, points = 2, 9
    values = ", ".join(str(i) for i in range(1, points + 1))
    cfg = parse_config(SMALL + f"sweep = I: {values}\n")
    cfg = replace(cfg, output=str(tmp_path / "chunk"))
    with pytest.raises(ConfigurationError, match=r"^sweep I=1 \(index 0\): first point fails"):
        run_sweep(cfg, workers=workers)
    started = len(list(tmp_path.iterdir()))
    handed_out = 2 * workers + concurrent.futures.process.EXTRA_QUEUED_CALLS
    assert started <= handed_out < (points - 1) * 2


def _pool_sizes(monkeypatch, cpus, workers, trials):
    """The process counts ``run_trials`` opens pools with on ``cpus`` CPUs, run in-process."""
    sizes, chunks = [], []

    class InlinePool:
        """In-process stand-in for the process pool; starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            chunks.append(len(tasks))
            return map(fn, tasks)

    monkeypatch.setattr(msdoa.harness, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(msdoa.harness.os, "cpu_count", lambda: cpus)
    cfg = parse_config(SMALL.replace("trials = 3", f"trials = {trials}"))
    assert run_trials(cfg, workers=workers) == run_trials(cfg)
    assert sizes == chunks
    return sizes


@pytest.mark.parametrize("workers, trials, processes", [
    (1000, 3, 3), (2, 3, 2), (3, 5, 3), (4, 1, None), (1, 3, None),
])
def test_pool_never_outnumbers_the_trials(monkeypatch, workers, trials, processes):
    # With more CPUs than trials, the trials bound the pool.
    expected = [] if processes is None else [processes]
    assert _pool_sizes(monkeypatch, 8, workers, trials) == expected


@pytest.mark.parametrize("cpus, workers, trials, processes", [
    (2, 1000, 3, 2), (2, 4, 5, 2), (1, 4, 3, None),
    # An unknown CPU count counts as one.
    (None, 4, 3, None),
])
def test_pool_never_outnumbers_the_cpus(monkeypatch, cpus, workers, trials, processes):
    expected = [] if processes is None else [processes]
    assert _pool_sizes(monkeypatch, cpus, workers, trials) == expected


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_are_rejected(tmp_path, capsys, workers):
    text = SMALL + "sweep = I: 1, 2\n"
    with pytest.raises(ValidationError, match="at least 1"):
        run_trials(parse_config(SMALL), workers=workers)
    with pytest.raises(ValidationError, match="at least 1"):
        run_sweep(parse_config(text), workers=workers)
    path = _write_cfg(tmp_path, text)
    args = ["sweep", "-c", path, "--workers", str(workers), "-o", str(tmp_path / "x")]
    assert main(args) == 2
    assert "at least 1" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["table1", "table1_2d"])
def test_cli_refuses_a_model_that_is_not_finite(tmp_path, capsys, name):
    # Delays, phases or sensitivities past the float range: the surface
    # refuses the geometry as the config loads, before numpy forms any of
    # them, so no command warns, runs or writes.
    for override in ("wave_speed=1e-300", "wave_speed=1e300", "spacing_m=1e300",
                     "receiver_offset_m=1e300"):
        for command in ("validate", "crb", "single"):
            args = [command, "-c", builtin_config_path(name), "--set", override]
            assert main([*args, "-o", str(tmp_path / "x")]) == 2
            assert capsys.readouterr() == (
                "", "invalid config: the surface geometry puts a carrier phase past the float range\n"
            )
    assert not os.listdir(tmp_path)


# Values from the smallest to the largest magnitude a config holds, with
# a few that let a large harmonic order or sample count pass the reader.
_EXTREME = [5e-324, 1e-300, 1e-30, 1e-3, 1.0, 1e3, 1e10, 1e30, 1e150, 1e300, 1.7e308]
_EXTREME_VALUES = {
    **dict.fromkeys(["wave_speed", "spacing_m", "receiver_offset_m", "carrier_hz",
                     "coding_period_s", "sampling_rate_hz"], _EXTREME),
    "powers": [0.0, *_EXTREME[:-1], 1e305, 1e306, 1e307, 1.7e308],
    "snr_db": [-1e300, -3000.0, -300.0, -20.0, 0.0, 20.0, 300.0, 3000.0, 1e300],
    # Written in place of the config's snr_db line.
    "noise_variance": [0.0, 5e-324, 1e-300, 1.0, 1e150, 1e300, 1e306, 1.7e308],
    "max_harmonic": [0, 1, 15, 400, 10**4, 10**18],
    # Every surface past 2P+1 elements is refused, and at the shipped
    # rates P stays below 400, so an accepted draw builds a small context.
    "rows": [0, 1, 3, 6, 10**4, 10**18],
    "cols": [0, 1, 3, 7, 10**4, 10**18],
    "subarray_width": [0, 1, 3, 6, 10**4, 10**18],
    "num_weights": [0, 1, 5, 10**4, 10**18],
    "snapshots": [0, 1, 5, 1000, 10**18],
    "theta_grid_deg": ["-90, 90, 5e-324", "-90, 90, 0.0017", "-90, 90, 90", "-23, 13, 0.5",
                       "0, 90, 1", "-1e300, 1e300, 1e298", "-1.7e308, 1.7e308, 1e308"],
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["table1", "table1_2d", "table2"]),
       values=st.lists(st.sampled_from(sorted(_EXTREME_VALUES)), min_size=1, max_size=2,
                       unique=True).flatmap(lambda keys: st.fixed_dictionaries(
                           {key: st.sampled_from(_EXTREME_VALUES[key]) for key in keys})))
@example(name="table1", values={"noise_variance": 1e300, "powers": 1e-300})
@example(name="table1_2d", values={"powers": 1e305, "snr_db": -20.0})
@example(name="table1", values={"wave_speed": 1.0, "spacing_m": 1e150})
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_gives_a_typed_exit_for_any_geometry(tmp_path_factory, name, values):
    # `validate` and `crb` run no trials and start no pool; whatever the
    # geometry, sampling, powers, noise, harmonic order, surface size,
    # window, weight count, snapshot count or grid, each ends
    # in a typed message and its exit code, with no numpy warning, and a
    # bound that `crb` reports is finite.
    folder = tmp_path_factory.mktemp("extreme")
    text = Path(builtin_config_path(name)).read_text()
    if "noise_variance" in values:
        text = text.replace("snr_db = 0", f"noise_variance = {values['noise_variance']!r}")
    config = folder / "x.cfg"
    config.write_text(text)
    args = ["-c", str(config), "-o", str(folder / "x")]
    for key, value in values.items():
        if key != "noise_variance":
            args += ["--set", f"{key}={value}, {value}" if key == "powers" else f"{key}={value}"]
    for command in ("validate", "crb"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, *args])
        prefixes = {0: "", 2: "invalid config: ", 3: "runtime error: "}
        assert code in prefixes
        text = err.getvalue()
        assert text.startswith(prefixes[code]) and bool(text) == bool(code)
        assert "Traceback" not in text
        bounds = re.findall(r"sqrt_crb_deg=(\S+)", out.getvalue())
        assert len(bounds) == (2 if code == 0 and command == "crb" else 0)
        assert all(math.isfinite(float(b)) for b in bounds)


def test_cli_validate_rejects_an_azimuth_no_draw_can_bound(tmp_path, capsys):
    # A lone source at the zenith: its azimuth moves nothing, whatever
    # the amplitudes, so every command refuses the config alike.
    path = _write_cfg(tmp_path, SMALL)
    errors = set()
    for command in ("validate", "single", "crb"):
        assert main([command, "-c", path, "--set", "elevation_deg=0",
                     "-o", str(tmp_path / "x")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        errors.add(err)
    assert len(errors) == 1
    assert errors.pop().startswith("invalid config: the azimuth of source 1 carries no")
    assert not list(tmp_path.glob("x*"))
    for name in ("table1", "table1_2d", "table2"):
        assert main(["validate", "-c", builtin_config_path(name)]) == 0
