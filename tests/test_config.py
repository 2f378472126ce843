"""Config parsing, validation, round-trip, and sweep expansion."""

import ast
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msdoa.config
from msdoa import (
    ConfigurationError,
    Doa,
    EstimatorParams,
    NoiseSpec,
    SurfaceConfig,
    ValidationError,
    apply_sweep_value,
    builtin_config_path,
    config_digest,
    emit_config,
    load_config,
    parse_config,
)
from msdoa.cli import main
from msdoa.config import _KEYS, _REQUIRED, MAX_POINTS, SWEEP_VARIABLES, point_configs

# Minimal valid config; everything else exercises the defaults.
BASE = """\
rows = 5
cols = 6
carrier_hz = 1.0e9
coding_period_s = 1.6e-5
angles_deg = -22, 12
sampling_rate_hz = 5.0e7
periods_per_snapshot = 2
snapshots = 5
snr_db = 0
max_harmonic = 15
num_weights = 5
"""


def test_builtin_table1():
    cfg = load_config(builtin_config_path("table1"))
    s = cfg.surface
    assert (s.rows, s.cols) == (5, 6)
    assert s.carrier_hz == 1.0e9
    assert cfg.plan.coding_period_s == 1.6e-5
    assert cfg.plan.sample_rate_hz == 5.0e7
    assert cfg.plan.periods_per_snapshot == 2
    assert cfg.plan.num_snapshots == 5
    assert cfg.noise.snr_db == 0.0
    assert cfg.max_harmonic == 15
    assert cfg.estimator.num_weights == 5
    assert cfg.estimator.kind == "1d"
    assert cfg.estimator.theta_grid_deg == (-90.0, 90.0, 0.1)
    assert [d.theta_deg for d in cfg.scene.doas] == [-22.0, 12.0]
    assert all(d.phi_deg == 90.0 for d in cfg.scene.doas)
    assert cfg.scene.coherence == "incoherent"
    assert cfg.mode == "full"
    assert (cfg.trials, cfg.seed) == (100, 20260814)
    assert cfg.sweep is None
    assert cfg.output == "results"


def test_auto_spacing_and_offset():
    # spacing = half wavelength at the carrier; offset = twice that.
    cfg = parse_config(BASE)
    assert cfg.surface.spacing_m == pytest.approx(0.149896229, abs=1e-12)
    assert cfg.surface.receiver_offset_m == pytest.approx(2 * cfg.surface.spacing_m)
    over = parse_config(BASE + "spacing_m = 0.2\nreceiver_offset_m = 0.5\n")
    assert over.surface.spacing_m == 0.2
    assert over.surface.receiver_offset_m == 0.5
    # The surface resolves unset lengths as the reader resolves 'auto'.
    assert SurfaceConfig(5, 6, 1.0e9) == cfg.surface
    auto = "spacing_m = auto\nreceiver_offset_m = auto\nwave_speed = 1.5e8\n"
    assert SurfaceConfig(5, 6, 1.0e9, wave_speed=1.5e8) == parse_config(BASE + auto).surface
    assert SurfaceConfig(5, 6, 1.0e9, spacing_m=0.2).receiver_offset_m == 0.4


def test_roundtrip_builtins():
    for name in ("table1", "table2", "table1_2d"):
        cfg = load_config(builtin_config_path(name))
        again = parse_config(emit_config(cfg))
        assert again == cfg
        assert config_digest(again) == config_digest(cfg)
        assert len(config_digest(cfg)) == 64


def test_digest_tracks_content():
    a = parse_config(BASE)
    b = parse_config(BASE, overrides=["snr_db=1"])
    assert config_digest(a) != config_digest(b)
    assert config_digest(parse_config(BASE)) == config_digest(a)


def test_unknown_key():
    with pytest.raises(ValidationError, match="unknown key"):
        parse_config(BASE + "banana = 3\n")


def test_duplicate_key():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_config(BASE + "rows = 7\n")


def test_missing_key():
    text = BASE.replace("angles_deg = -22, 12\n", "")
    with pytest.raises(ValidationError, match="angles_deg"):
        parse_config(text)
    with pytest.raises(ValidationError, match="rows"):
        parse_config(BASE.replace("rows = 5\n", ""))


def test_malformed_lines():
    with pytest.raises(ValidationError, match="key = value"):
        parse_config(BASE + "just words\n")
    with pytest.raises(ValidationError, match="empty value"):
        parse_config(BASE + "mode =\n")
    with pytest.raises(ValidationError, match="not an integer"):
        parse_config(BASE.replace("rows = 5", "rows = five"))
    with pytest.raises(ValidationError, match="not a number"):
        parse_config(BASE.replace("snr_db = 0", "snr_db = loud"))


@pytest.mark.parametrize("override, message", [
    ("angles_deg = -22,,12", "config key 'angles_deg': not a number: ''"),
    ("angles_deg = ,", "config key 'angles_deg': not a number: ''"),
    ("powers = 1, 1, ,", "config key 'powers': not a number: ''"),
    ("theta_grid_deg = -90, 90, 0.1,", "config key 'theta_grid_deg': not a number: ''"),
    ("sweep = snr_db: 0,, 10", "sweep snr_db: not a number: ''"),
    ("sweep = mode: full,", "sweep mode: not one of full/ideal: ''"),
    ("sweep = snr_db:", "sweep needs at least one value"),
])
def test_an_empty_list_item_is_refused(override, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        parse_config(BASE, overrides=[override])


@pytest.mark.parametrize("angles", ["(-36, 20), , (42, 45)", "(-36, 20), (42, 45),",
                                    "(-36, 20) (42, 45)"])
def test_angle_pairs_are_one_per_item(angles):
    overrides = ["estimator = 2d", "subarray_width = 4", f"angles_deg = {angles}"]
    with pytest.raises(ValidationError, match=r"^config key 'angles_deg': expected '\(theta"):
        parse_config(BASE, overrides=overrides)


def test_text_faults_come_before_object_checks():
    # Every key's text is read, in canonical order, before any object
    # is made: the mode fault wins over the surface one.
    with pytest.raises(ValidationError, match="^config key 'mode': not one of full/ideal"):
        parse_config(BASE, overrides=["rows = 0", "mode = fast"])
    with pytest.raises(ValidationError, match="at least one row"):
        parse_config(BASE, overrides=["rows = 0"])


# Each number a config holds is finite. Every one of these overrides is
# refused when the config is loaded, naming its key or sweep variable.
NON_FINITE = [
    (["snr_db=nan"], "config key 'snr_db'"),
    (["snr_db=-inf"], "config key 'snr_db'"),
    (["powers=nan, 1"], "config key 'powers'"),
    (["carrier_hz=inf"], "config key 'carrier_hz'"),
    (["carrier_hz=1e999"], "config key 'carrier_hz'"),
    (["sampling_rate_hz=inf"], "config key 'sampling_rate_hz'"),
    (["coding_period_s=nan"], "config key 'coding_period_s'"),
    (["theta_grid_deg=-90, 90, nan"], "config key 'theta_grid_deg'"),
    (["elevation_deg=nan"], "config key 'elevation_deg'"),
    (["spacing_m=inf"], "config key 'spacing_m'"),
    (["wave_speed=inf"], "config key 'wave_speed'"),
    (["receiver_offset_m=inf"], "config key 'receiver_offset_m'"),
    (["angles_deg=-22, inf"], "config key 'angles_deg'"),
    (["estimator=2d", "subarray_width=4", "angles_deg=(-22, nan), (12, 40)"],
     "config key 'angles_deg'"),
    (["sweep=snr_db: 0, nan"], "sweep snr_db"),
    (["sweep=fs_mult: 1, inf"], "sweep fs_mult"),
]


@pytest.mark.parametrize("overrides, where", NON_FINITE)
def test_non_finite_numbers_are_refused(overrides, where):
    with pytest.raises(ValidationError, match=f"^{re.escape(where)}: not finite: "):
        parse_config(BASE, overrides=overrides)


@pytest.mark.parametrize("overrides, where", NON_FINITE)
def test_cli_validate_refuses_non_finite_numbers(tmp_path, capsys, overrides, where):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE)
    args = ["validate", "-c", str(path)]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"invalid config: {where}: not finite: ")


TWO_ANGLES = ["estimator=2d", "subarray_width=4", "angles_deg=(-36, 20), (42, 45)"]


@pytest.mark.parametrize("overrides", [
    ["snr_db=-4000"],
    ["sweep=snr_db: 0, -4000"],
    ["sampling_rate_hz=1e200", "coding_period_s=1e200"],
    # Carrier phases past the float range, which the surface refuses as
    # the config loads.
    ["wave_speed=1e-300"],
    ["wave_speed=1e300"],
    ["spacing_m=1e300"],
    ["receiver_offset_m=1e300"],
    [*TWO_ANGLES, "wave_speed=1e-300"],
    [*TWO_ANGLES, "receiver_offset_m=1e300"],
])
def test_cli_validate_refuses_values_past_the_float_range(tmp_path, capsys, overrides):
    path = tmp_path / "exp.cfg"
    path.write_text(BASE)
    args = ["validate", "-c", str(path)]
    for item in overrides:
        args += ["--set", item]
    with np.errstate(all="ignore"):
        assert main(args) == 2
    assert capsys.readouterr().err.startswith("invalid config: ")


@pytest.mark.parametrize("name, overrides, what", [
    ("table1", ["coding_period_s=1e10"], "a trial's series"),
    ("table1", ["coding_period_s=1"], "a trial's series"),
    ("table1_2d", ["sampling_rate_hz=1e12"], "a trial's series"),
    ("table2", ["periods_per_snapshot=1000", "snapshots=200"], "a trial's series"),
    # Refused as the config loads, with its sweep point named.
    ("table2", ["sweep=k0: 2, 20000"], "sweep k0=20000 (index 1): a trial's series"),
    ("table1", ["sampling_rate_hz=5e8", "periods_per_snapshot=1", "snapshots=1", "mode=ideal",
                "max_harmonic=3999"], "the one-period signal model"),
    # 5626 x 1801 grid points, and 105 883 azimuths times 100 trials.
    ("table1_2d", ["theta_grid_deg=-90, 90, 0.032", "phi_grid_deg=0, 90, 0.05"], "one spectrum"),
    ("table1", ["theta_grid_deg=-90, 90, 0.0017"], "a search batch's denominator row"),
    # 20 001 frequency lines fit the 320 000-point windows of a 10 GHz rate.
    ("table1", ["sampling_rate_hz=1e10", "max_harmonic=10000"], "the bound's projector"),
    # 25-column windows at 60 x 26 positions: a (625, 1560^2) table, 24 GB.
    ("table1", ["rows=60", "cols=50", "subarray_width=25", "max_harmonic=1500",
                "sampling_rate_hz=2e8"], "the whitener table"),
    # 100 trials x 5 snapshots x 1e18 weights x 5 window rows.
    ("table1", ["num_weights=1000000000000000000"], "a search batch's smoothed stack"),
])
def test_cli_validate_refuses_work_past_the_size_limit(capsys, name, overrides, what):
    # Refused from the config alone, before any array is allocated.
    args = ["validate", "-c", builtin_config_path(name)]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 2
    assert re.fullmatch(rf"invalid config: {re.escape(what)} would hold [0-9.e+]+ values, "
                        rf"past the limit of {re.escape(f'{MAX_POINTS:.0e}')}\n",
                        capsys.readouterr().err)


@pytest.mark.parametrize("name, overrides", [
    ("table1", []),
    ("table1_2d", []),
    ("table2", []),
    ("table1", ["mode=ideal", "max_harmonic=40"]),
])
def test_size_limit_admits_the_shipped_runs_a_hundred_times_over(name, overrides):
    # A hundredfold sample rate makes the series and the one-period
    # model a hundredfold larger; both still fit.
    cfg = load_config(builtin_config_path(name), overrides)
    rate = f"sampling_rate_hz={100 * cfg.plan.sample_rate_hz!r}"
    assert load_config(builtin_config_path(name), [*overrides, rate]).plan.total_points == (
        100 * cfg.plan.total_points)


@pytest.mark.parametrize("key", ["coding_period_s", "sampling_rate_hz"])
def test_cli_validate_refuses_a_sample_count_past_int64(capsys, key):
    # The rate times the period is a finite float, but the run's sample
    # count would overflow the integers that index its samples.
    assert main(["validate", "-c", builtin_config_path("table1"), "--set", f"{key}=1e300"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: sample_rate_hz times coding_period_s is ")
    assert "must fit a 64-bit integer" in err


def test_comments_and_blanks_ignored():
    noisy = "# leading comment\n\n" + BASE.replace(
        "rows = 5", "rows = 5  # trailing comment"
    )
    assert parse_config(noisy) == parse_config(BASE)


def test_noise_spec_exclusive():
    with pytest.raises(ValidationError, match="not both"):
        parse_config(BASE + "noise_variance = 0.5\n")
    cfg = parse_config(BASE.replace("snr_db = 0", "noise_variance = 0.5"))
    assert cfg.noise == NoiseSpec(variance=0.5)
    assert cfg.noise_variance == 0.5
    # A config that states neither noise is refused as one that states both.
    with pytest.raises(ValidationError, match="not both"):
        parse_config(BASE.replace("snr_db = 0", ""))


def test_noise_spec_states_exactly_one_noise():
    for stated in ({}, {"variance": 1.0, "snr_db": 0.0}):
        with pytest.raises(ValidationError, match=re.escape(
                "give either snr_db or noise_variance, not both")):
            NoiseSpec(**stated)
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="noise variance"):
            NoiseSpec(variance=bad)
    # An infinite snr_db would give a config whose canonical text does
    # not parse back.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match=f"^snr_db: not finite: {bad!r}$"):
            NoiseSpec(snr_db=bad)
    # A finite SNR whose variance is past the float range, alone or
    # times the first source's power.
    cfg = parse_config(BASE)
    for snr_db, powers in ((-4000.0, (1.0, 1.0)), (-3000.0, (1e10, 1.0))):
        with pytest.raises(ValidationError, match=re.escape(
                f"snr_db: {snr_db!r} dB puts the noise variance out of float range")):
            replace(cfg, scene=replace(cfg.scene, powers=powers),
                    noise=NoiseSpec(snr_db=snr_db))


def test_snr_references_first_power():
    cfg = parse_config(BASE.replace("angles_deg = -22, 12",
                                    "angles_deg = -22, 12\npowers = 4, 1"))
    assert cfg.noise == NoiseSpec(snr_db=0.0)
    assert cfg.noise_variance == 4.0


@settings(max_examples=60, deadline=None)
@given(snr_db=st.floats(-3000.0, 3000.0, allow_nan=False, allow_infinity=False),
       power=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False),
       sources=st.booleans())
def test_the_noise_variance_follows_the_scene_bit_for_bit(snr_db, power, sources):
    # The variance an snr_db gives is the first source's power, or 1
    # without sources, times 10^(-snr_db/10), stated in the text or at
    # a sweep point (made by replace).
    scene = f"angles_deg = -22, 12\npowers = {power!r}, 1" if sources else "angles_deg = none"
    reference = power if sources else 1.0
    cfg = parse_config(BASE.replace("angles_deg = -22, 12", scene),
                       [f"snr_db={snr_db!r}", f"sweep=snr_db: {snr_db!r}, -10, 0, 25"])
    assert cfg.noise_variance == reference * 10.0 ** (-snr_db / 10.0)
    for value, point in zip(cfg.sweep.values, point_configs(cfg)):
        assert point.noise_variance == reference * 10.0 ** (-value / 10.0)


def test_sweep_parse_table2():
    cfg = load_config(builtin_config_path("table2"))
    assert (cfg.surface.rows, cfg.surface.cols) == (8, 5)
    assert cfg.max_harmonic == 20
    assert cfg.sweep.variable == "snr_db"
    assert cfg.sweep.values == (-20.0, -15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)


def test_sweep_values_validated_up_front():
    # 2*14+1 = 29 lines cannot carry 30 elements, so the second sweep
    # point is rejected before any trial runs.
    with pytest.raises(ConfigurationError, match="frequency lines"):
        parse_config(BASE + "sweep = P: 15, 14\n")


def test_sweep_syntax_errors():
    with pytest.raises(ValidationError, match="sweep"):
        parse_config(BASE + "sweep = snr_db\n")
    # The variable name is checked before any value is parsed.
    for values in ("1, 2", "a, b"):
        with pytest.raises(ValidationError, match="sweep variable"):
            parse_config(BASE + f"sweep = gain: {values}\n")
    with pytest.raises(ValidationError, match="integer"):
        parse_config(BASE + "sweep = I: 1.5, 2\n")
    with pytest.raises(ValidationError, match="full/ideal"):
        parse_config(BASE + "sweep = mode: full, broken\n")
    with pytest.raises(ValidationError, match="at least one"):
        parse_config(BASE + "sweep = I:\n")


def test_apply_sweep_value():
    cfg = parse_config(BASE + "sweep = I: 1, 5, 10\n")
    point = apply_sweep_value(cfg, 10)
    # A point is a config of its own, with no sweep.
    assert point.plan.num_snapshots == 10 and point.sweep is None
    assert point == replace(cfg, plan=replace(cfg.plan, num_snapshots=10), sweep=None)
    k0 = parse_config(BASE + "sweep = k0: 1, 5\n")
    assert apply_sweep_value(k0, 5).plan.periods_per_snapshot == 5
    snr = parse_config(BASE + "sweep = snr_db: -10, 0\n")
    assert apply_sweep_value(snr, -10).noise_variance == pytest.approx(10.0)
    p = parse_config(BASE + "sweep = P: 15, 20\n")
    assert apply_sweep_value(p, 20).max_harmonic == 20
    el = parse_config(BASE + "sweep = L: 2, 5\n")
    assert apply_sweep_value(el, 2).estimator.num_weights == 2
    fs = parse_config(BASE + "sweep = fs_mult: 1, 10\n")
    assert apply_sweep_value(fs, 10).plan.sample_rate_hz == pytest.approx(5.0e8)
    mode = parse_config(BASE + "sweep = mode: full, ideal\n")
    assert apply_sweep_value(mode, "ideal").mode == "ideal"
    with pytest.raises(ValidationError, match="full/ideal"):
        apply_sweep_value(mode, "broken")
    # A value the library passes already parsed is not truncated.
    with pytest.raises(ValidationError, match="sweep I: not an integer: 2.5"):
        apply_sweep_value(cfg, 2.5)
    with pytest.raises(ValidationError, match="sweep snr_db: not finite: inf"):
        apply_sweep_value(snr, float("inf"))
    with pytest.raises(ValidationError, match="no sweep"):
        apply_sweep_value(parse_config(BASE), 1)


def test_overrides():
    cfg = parse_config(BASE, overrides=["snr_db=10", "trials = 7"])
    assert cfg.noise.snr_db == 10.0
    assert cfg.trials == 7
    with pytest.raises(ValidationError, match="key=value"):
        parse_config(BASE, overrides=["snr_db"])
    with pytest.raises(ValidationError, match="unknown key"):
        parse_config(BASE, overrides=["volume=11"])
    # An override passes the checks a file line passes: an empty value
    # is refused, not read as an absent key or an empty string.
    for key in ("powers", "output", "angles_deg"):
        with pytest.raises(ValidationError, match="empty value"):
            parse_config(BASE, overrides=[f"{key}="])
    # Nor can it hold what no file line holds, which the canonical text
    # would write out as a comment or as a line of its own.
    for item in ("output=run#1", "output=a\nrows = 9"):
        with pytest.raises(ValidationError, match="may not hold"):
            parse_config(BASE, overrides=[item])
    # A finite value whose derived quantity leaves the float range is
    # refused by name, not met with an OverflowError.
    with pytest.raises(ValidationError, match="^snr_db: "):
        parse_config(BASE, overrides=["snr_db=-4000"])
    with pytest.raises(ValidationError, match="positive integer"):
        parse_config(BASE, overrides=["sampling_rate_hz=1e200", "coding_period_s=1e200"])


def test_angles_none_is_noise_only():
    cfg = parse_config(BASE.replace("angles_deg = -22, 12", "angles_deg = none"))
    assert cfg.scene.doas == ()
    assert cfg.scene.powers == ()
    # Without sources a 1-D search runs in the surface plane.
    assert "elevation_deg = 90.0\n" in emit_config(cfg)


def test_builtin_2d():
    cfg = load_config(builtin_config_path("table1_2d"))
    assert cfg.estimator.kind == "2d"
    assert cfg.estimator.subarray_width == 4
    pairs = [(d.theta_deg, d.phi_deg) for d in cfg.scene.doas]
    assert pairs == [(-36.0, 20.0), (42.0, 45.0)]
    assert cfg.estimator.phi_grid_deg == (0.0, 90.0, 0.5)


def test_angle_shape_matches_estimator():
    with pytest.raises(ValidationError, match="scalar azimuths"):
        parse_config(BASE.replace("angles_deg = -22, 12",
                                  "angles_deg = (-22, 90), (12, 90)"))
    text = BASE.replace("angles_deg = -22, 12", "angles_deg = -22, 12\n"
                        "estimator = 2d\nsubarray_width = 4")
    with pytest.raises(ValidationError, match="pairs"):
        parse_config(text)
    with pytest.raises(ValidationError, match="angles_deg"):
        parse_config(BASE.replace("angles_deg = -22, 12",
                                  "angles_deg = (-22, 90), 12"))


def test_harmonic_budget():
    with pytest.raises(ConfigurationError, match="frequency lines"):
        parse_config(BASE.replace("max_harmonic = 15", "max_harmonic = 14"))
    # k0 * P runs into the folding limit Q/2 = 800.
    with pytest.raises(ConfigurationError):
        parse_config(BASE.replace("max_harmonic = 15", "max_harmonic = 400"))


def test_too_many_sources_for_search():
    text = BASE.replace("angles_deg = -22, 12",
                        "angles_deg = -40, -20, 0, 20, 40")
    with pytest.raises(ConfigurationError, match="search dimension"):
        parse_config(text)


def test_subarray_width_bounds():
    # Both estimator kinds read the width, so both reject one that does
    # not fit the surface.
    for name in ("table1_2d", "table1"):
        path = builtin_config_path(name)
        with pytest.raises(ConfigurationError, match="subarray_width"):
            load_config(path, overrides=["subarray_width=7"])
        with pytest.raises(ConfigurationError, match="subarray_width"):
            load_config(path, overrides=["subarray_width=0"])


def test_trials_seed_grid_validation():
    with pytest.raises(ValidationError, match="trials"):
        parse_config(BASE + "trials = 0\n")
    with pytest.raises(ValidationError, match="seed"):
        parse_config(BASE + "seed = -1\n")
    with pytest.raises(ValidationError, match="start, stop, step"):
        parse_config(BASE + "theta_grid_deg = -90, 90\n")
    with pytest.raises(ValidationError, match="grid"):
        parse_config(BASE + "theta_grid_deg = -90, 90, 0\n")


@pytest.mark.parametrize("change, message", [
    ({"trials": 0}, "trials must be at least 1"),
    ({"seed": -1}, "seed must be nonnegative"),
    ({"mode": "x"}, "mode: not one of full/ideal: 'x'"),
    ({"max_harmonic": 10**5}, "the bound's projector would hold 4e+10 values"),
], ids=["trials", "seed", "mode", "max_harmonic"])
def test_replace_checks_the_config_it_makes(change, message):
    # A config is checked however it is made, not only by the reader.
    cfg = load_config(builtin_config_path("table1"))
    with pytest.raises(ValidationError, match=re.escape(message)):
        replace(cfg, **change)


def test_replace_names_the_sweep_point_it_refuses():
    cfg = load_config(builtin_config_path("table2"))
    loud = replace(cfg.scene, powers=(1e306, 1e306))
    with pytest.raises(ValidationError, match=re.escape(
            "sweep snr_db=-20.0 (index 0): the receiver noise power, 40 elements")):
        replace(cfg, scene=loud)


def test_replace_derives_the_noise_variance_of_its_new_scene():
    # snr_db is relative to the first source's power of the config's own
    # scene: a louder scene gets the louder noise its snr_db gives it,
    # and the canonical text, which writes snr_db, reads it back.
    cfg = load_config(builtin_config_path("table1"))
    louder = replace(cfg, scene=replace(cfg.scene, powers=(4.0, 4.0)))
    assert louder.noise == cfg.noise == NoiseSpec(snr_db=0.0)
    assert (cfg.noise_variance, louder.noise_variance) == (1.0, 4.0)
    again = parse_config(emit_config(louder))
    assert again == louder and again.noise_variance == 4.0


def test_elevation_applies_to_all_sources():
    cfg = parse_config(BASE + "elevation_deg = 70\n")
    assert all(d.phi_deg == 70.0 for d in cfg.scene.doas)
    assert "elevation_deg = 70.0\n" in emit_config(cfg)


def test_the_scene_alone_holds_the_sources_of_a_search():
    # The estimator keeps no source count and no elevation of its own,
    # so replacing the scene moves the 1-D search and its canonical text.
    assert {"num_sources", "elevation_deg"}.isdisjoint(f.name for f in fields(EstimatorParams))
    cfg = load_config(builtin_config_path("table1"))
    raised = replace(cfg, scene=replace(cfg.scene, doas=tuple(
        Doa.from_degrees(d.theta_deg, 60.0) for d in cfg.scene.doas)))
    assert "elevation_deg = 60.0\n" in emit_config(raised)
    assert parse_config(emit_config(raised)) == raised


def test_a_1d_search_refuses_sources_at_two_elevations():
    cfg = load_config(builtin_config_path("table1_2d"))
    with pytest.raises(ConfigurationError, match=re.escape(
            "a 1d search needs its sources at one elevation; got [20.0, 45.0]")):
        replace(cfg, estimator=replace(cfg.estimator, kind="1d"))


@pytest.mark.parametrize("override, geometry", [
    ("subarray_width=6", "5 rows and 1 window positions"),
    ("rows=1", "1 rows and 3 window positions"),
])
def test_cli_validate_refuses_a_2d_grid_of_one_direction_cosine(capsys, override, geometry):
    # One window position leaves only sin(theta)*sin(phi), one row only
    # cos(theta)*sin(phi): azimuth and elevation cannot be told apart.
    assert main(["validate", "-c", builtin_config_path("table1_2d"), "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: a 2d search needs at least 2 rows and 2 window "
                          "positions to tell azimuth from elevation; ")
    assert f"this geometry gives {geometry}" in err


def test_elevation_deg_leaves_a_2d_config_and_its_digest_alone():
    # The 2-D search reads its elevation grid, not elevation_deg.
    cfg = load_config(builtin_config_path("table1_2d"))
    moved = load_config(builtin_config_path("table1_2d"), overrides=["elevation_deg=30"])
    assert moved == cfg
    assert config_digest(moved) == config_digest(cfg)
    assert "elevation_deg" not in emit_config(cfg)
    with pytest.raises(ValidationError):
        load_config(builtin_config_path("table1_2d"), overrides=["elevation_deg=high"])
    # The 1-D form keeps the line.
    table1 = load_config(builtin_config_path("table1"))
    assert "elevation_deg = 90.0\n" in emit_config(table1)


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config format\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    cells = [row.split(" | ") for row in rows]
    keys = [key for cell in cells for key in re.findall(r"`([^`]+)`", cell[0])]
    assert keys == list(_KEYS)
    required = {key for cell in cells if cell[1] == "required"
                for key in re.findall(r"`([^`]+)`", cell[0])}
    assert required == {key for key, spec in _KEYS.items() if spec.default is _REQUIRED}
    sweep_row = next(row for row in rows if row.startswith("| `sweep` |"))
    listed = re.search(r"one of `([^`]+)`", sweep_row).group(1)
    assert tuple(name.strip() for name in listed.split(",")) == SWEEP_VARIABLES


def _without(text, key):
    return "".join(line for line in text.splitlines(True) if line.split("=")[0].strip() != key)


# A base config of each search kind. The 2-D one sets the two keys its
# search needs, so the 1-D base alone leaves those out.
KIND_BASES = {
    "1d": BASE,
    "2d": BASE.replace("angles_deg = -22, 12", "angles_deg = (-36, 20), (42, 45)")
    + "estimator = 2d\nsubarray_width = 4\n",
}
DEFAULTED = [key for key, spec in _KEYS.items() if spec.default is not _REQUIRED]


@pytest.mark.parametrize("kind, key", [
    *(("1d", key) for key in DEFAULTED),
    *(("2d", key) for key in DEFAULTED if key not in ("estimator", "subarray_width")),
])
def test_a_left_out_key_reads_as_the_default_it_writes(kind, key):
    # The table's default and canonical text agree: a config without
    # the key equals the config with the line emit_config writes for it.
    text = _without(KIND_BASES[kind], key)
    if key == "snr_db":  # a config states one noise key
        text += "noise_variance = 0.5\n"
    cfg = parse_config(text)
    line = "".join(ln for ln in emit_config(cfg).splitlines(True) if ln.startswith(f"{key} = "))
    again = parse_config(text + line)
    assert again == cfg
    assert config_digest(again) == config_digest(cfg)


def test_config_reads_its_text_only_in_the_table_loop():
    # Every key is read through _KEYS, so a new key cannot bypass the
    # table: the one read of a raw value sits in the loop over _KEYS,
    # and nothing calls raw.get.
    tree = ast.parse(Path(msdoa.config.__file__).read_text(encoding="utf-8"))

    def is_raw(node):
        return isinstance(node, ast.Name) and node.id == "raw"

    loops = [node for node in ast.walk(tree) if isinstance(node, ast.For)
             and any(isinstance(n, ast.Name) and n.id == "_KEYS" for n in ast.walk(node.iter))]
    in_loops = {id(n) for loop in loops for n in ast.walk(loop)}
    reads = [node for node in ast.walk(tree) if isinstance(node, ast.Subscript)
             and is_raw(node.value) and isinstance(node.ctx, ast.Load)]
    gets = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and is_raw(node.func.value)
            and node.func.attr == "get"]
    assert len(reads) == 1 and id(reads[0]) in in_loops
    assert gets == []


def test_builtin_path_unknown():
    with pytest.raises(ValidationError, match="bundled"):
        builtin_config_path("nope")


def test_grid_edge_sources_rejected():
    # The peak search reports interior maxima only, so a source on a
    # grid end point would be missed in every trial.
    with pytest.raises(ConfigurationError, match=r"source 2 has theta = 90 deg.*theta_grid_deg"):
        parse_config(BASE.replace("angles_deg = -22, 12", "angles_deg = -22, 90"))
    with pytest.raises(ConfigurationError, match=r"source 1 has theta = -30 deg.*theta_grid_deg"):
        parse_config(BASE.replace("-22, 12", "-30, 12") + "theta_grid_deg = -20, 20, 0.5\n")
    path = builtin_config_path("table1_2d")
    with pytest.raises(ConfigurationError, match=r"source 1 has phi = 90 deg.*phi_grid_deg"):
        load_config(path, overrides=["angles_deg = (10, 90)", "powers = 1"])
    # Just inside the end points is searchable; the 1-D search does not
    # search elevation, so in-plane sources stay valid there.
    parse_config(BASE.replace("angles_deg = -22, 12", "angles_deg = -89.9, 89.9"))
    load_config(path, overrides=["angles_deg = (10, 89.5)", "powers = 1"])


_FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def _config_texts(draw):
    kind = draw(st.sampled_from(["1d", "2d"]))
    # A 2-D search needs 2 rows and 2 window positions.
    two_d = kind == "2d"
    rows = draw(st.integers(1 + two_d, 5))
    cols = draw(st.integers(1 + two_d, 5))
    width = draw(st.integers(1, cols - two_d))
    dim = rows if kind == "1d" else rows * (cols - width + 1)
    count = draw(st.integers(0, min(3, dim - 1)))
    thetas = draw(st.lists(st.floats(-89.0, 89.0, **_FINITE), min_size=count,
                           max_size=count, unique=True))
    if not thetas:
        angles = "none"
    elif kind == "1d":
        angles = ", ".join(repr(t) for t in thetas)
    else:
        phis = draw(st.lists(st.floats(1.0, 89.0, **_FINITE), min_size=count, max_size=count))
        angles = ", ".join(f"({t!r}, {p!r})" for t, p in zip(thetas, phis))
    lines = [
        f"rows = {rows}",
        f"cols = {cols}",
        f"carrier_hz = {draw(st.floats(1e8, 1e10, **_FINITE))!r}",
        "coding_period_s = 1.6e-5",
        f"angles_deg = {angles}",
        f"coherence = {draw(st.sampled_from(['incoherent', 'coherent']))}",
        f"amplitude_model = {draw(st.sampled_from(['gaussian', 'constant_modulus']))}",
        "sampling_rate_hz = 5.0e7",
        f"periods_per_snapshot = {draw(st.integers(1, 3))}",
        f"snapshots = {draw(st.integers(1, 8))}",
        f"max_harmonic = {rows * cols // 2 + draw(st.integers(0, 5))}",
        f"num_weights = {draw(st.integers(1, 6))}",
        f"estimator = {kind}",
        f"mode = {draw(st.sampled_from(['full', 'ideal']))}",
        f"trials = {draw(st.integers(1, 500))}",
        f"seed = {draw(st.integers(0, 2**31))}",
        f"output = {draw(st.sampled_from(['results', 'out/run_1']))}",
    ]
    if thetas:
        powers = draw(st.lists(st.floats(0.01, 100.0, **_FINITE), min_size=count,
                               max_size=count))
        lines.append(f"powers = {', '.join(repr(p) for p in powers)}")
    if draw(st.booleans()):
        lines.append(f"spacing_m = {draw(st.floats(0.01, 1.0, **_FINITE))!r}")
    if draw(st.booleans()):
        lines.append(f"receiver_offset_m = {draw(st.floats(0.01, 2.0, **_FINITE))!r}")
    if draw(st.booleans()):
        lines.append(f"snr_db = {draw(st.floats(-30.0, 40.0, **_FINITE))!r}")
    else:
        lines.append(f"noise_variance = {draw(st.floats(0.0, 10.0, **_FINITE))!r}")
    if kind == "1d":
        lines.append(f"elevation_deg = {draw(st.floats(1.0, 90.0, **_FINITE))!r}")
    else:
        lines.append(f"subarray_width = {width}")
    if draw(st.booleans()):
        lines.append(f"theta_grid_deg = -90, 90, {draw(st.sampled_from([0.1, 0.25, 1.0]))}")
    sweep = draw(st.sampled_from(["none", "snr_db: -10, 0.5, 20", "L: 1, 3",
                                  "mode: full, ideal", "I: 2, 4", "k0: 1, 2"]))
    lines.append(f"sweep = {sweep}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(_config_texts())
def test_emit_parse_roundtrip_generated(text):
    cfg = parse_config(text)
    again = parse_config(emit_config(cfg))
    assert again == cfg and again.noise_variance == cfg.noise_variance
    assert config_digest(again) == config_digest(cfg)
