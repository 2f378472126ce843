"""Experiment configuration: a flat ``key = value`` text format.

Grammar: one ``key = value`` pair per line; ``#`` starts a comment
(whole line or trailing); blank lines are ignored; keys may appear at
most once. Values are plain scalars, comma-separated lists, or
comma-separated ``(theta, phi)`` pairs for two-angle sources. Units are
part of the key names (Hz, seconds, meters, dB, degrees); angles are
degrees in files and radians inside the library. An empty item of a
list is refused.

Each key is declared once, in the ordered table ``_KEYS``: its parser,
its default (or ``_REQUIRED``) and its canonical text, which
:func:`emit_config` writes. The reader parses every key's text in that
order before it makes any object, so a config's first text fault is
reported before any object or cross-field check.

An :class:`ExperimentConfig` is checked whenever one is made
(:func:`validate_experiment`), by the reader or by
``dataclasses.replace``. Each sweep point is a checked, sweep-free
config of its own (:func:`point_configs`), and an error of a point,
from its checks or from any later stage, names it (:func:`sweep_point`).
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple

from .errors import ConfigurationError, MsdoaError, ValidationError, integer_fields
from .estimator import KINDS, EstimatorParams, grid_points, search_grids
from .snapshot import frequency_indices
from .surface import Doa, SurfaceConfig
from .waveform import AMPLITUDE_MODELS, COHERENCE, MODES, SamplingPlan, SourceScene


def _number(text, where: str, kind=float):
    """``text``, or a number already parsed, as a finite ``kind`` (``int`` or ``float``).

    Every failure is a ``ValidationError`` reading ``<where>: not a
    number``, ``not an integer`` or ``not finite``, then ``text``.
    """
    try:
        value = kind(text)
    except (ValueError, OverflowError):
        value = None
    # A parsed number must convert exactly: int(2.5) is 2.
    if value is None or (not isinstance(text, str) and value != text):
        what = "an integer" if kind is int else "a number"
        raise ValidationError(f"{where}: not {what}: {text!r}")
    if not math.isfinite(value):
        raise ValidationError(f"{where}: not finite: {text!r}")
    return value


def _choice(value, where: str, choices):
    """``value`` if it is one of ``choices``, else a ``ValidationError``."""
    if value not in choices:
        raise ValidationError(f"{where}: not one of {'/'.join(choices)}: {value!r}")
    return value


# Parsers of a value (text, or already parsed) under its ``where`` label.
_int = partial(_number, kind=int)
_mode = partial(_choice, choices=MODES)


# Most values one trial's series, the one-period signal model, one
# spectrum, one search batch's denominator row, the bound's projector
# over the frequency lines, the search's whitener table or one search
# batch's smoothed stack may hold (160 MB of complex values); see
# validate_experiment.
MAX_POINTS = 10_000_000
# Trials per search batch of harness.run_chunk. Each elevation's lag
# basis is built once per batch, and a 1-D search's fixed cost per call
# is about half a millisecond, so at least 100 makes every shipped
# point, and each 50-trial chunk of two workers, one search.
BATCH_TRIALS = 128


@dataclass(frozen=True)
class NoiseSpec:
    """The element noise as a config states it: exactly one of ``variance`` or ``snr_db``.

    ``variance`` is the per-element power sigma^2; the aggregate noise
    added to the single receiver stream has variance M*N*sigma^2.
    ``snr_db`` is taken against the first source's power of the config's
    own scene (1 without sources); :class:`ExperimentConfig` derives the
    variance as ``noise_variance``.
    """

    variance: float | None = None
    snr_db: float | None = None

    def __post_init__(self):
        if (self.variance is None) == (self.snr_db is None):
            raise ValidationError("give either snr_db or noise_variance, not both")
        if self.variance is not None and not 0 <= self.variance < math.inf:
            raise ValidationError("noise variance must be nonnegative and finite")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ValidationError(f"snr_db: not finite: {self.snr_db!r}")


# Each sweep variable: the parser of its values, and the fields one
# value gives its point.
_SWEEPS = {
    "I": (_int, lambda cfg, v: {"plan": replace(cfg.plan, num_snapshots=v)}),
    "k0": (_int, lambda cfg, v: {"plan": replace(cfg.plan, periods_per_snapshot=v)}),
    "snr_db": (_number, lambda cfg, v: {"noise": NoiseSpec(snr_db=v)}),
    "P": (_int, lambda cfg, v: {"max_harmonic": v}),
    "L": (_int, lambda cfg, v: {"estimator": replace(cfg.estimator, num_weights=v)}),
    "fs_mult": (_number, lambda cfg, v: {
        "plan": replace(cfg.plan, sample_rate_hz=cfg.plan.sample_rate_hz * v)}),
    "mode": (_mode, lambda cfg, v: {"mode": v}),
}
SWEEP_VARIABLES = tuple(_SWEEPS)


def _sweep_value(variable: str, value):
    """One value of ``variable`` (text or already parsed) as its kind."""
    return _SWEEPS[variable][0](value, f"sweep {variable}")


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable and its ordered values."""

    variable: str
    values: tuple

    def __post_init__(self):
        if self.variable not in SWEEP_VARIABLES:
            raise ValidationError(
                f"sweep variable must be one of {SWEEP_VARIABLES}; got {self.variable!r}"
            )
        if not self.values:
            raise ValidationError("sweep needs at least one value")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run or sweep needs, fully resolved and checked.

    A config is checked however it is made, by the reader or by
    ``dataclasses.replace``: :func:`validate_experiment` runs on every
    instance, so an unchecked config cannot exist. ``noise_variance``,
    the per-element sigma^2 every stage reads, is derived from
    ``noise`` and ``scene`` first, so a replaced scene gets the
    variance its stated SNR gives it.
    """

    surface: SurfaceConfig
    scene: SourceScene
    plan: SamplingPlan
    noise: NoiseSpec
    max_harmonic: int
    estimator: EstimatorParams
    mode: str
    trials: int
    seed: int
    sweep: SweepSpec | None
    output: str
    noise_variance: float = field(init=False, compare=False)

    def __post_init__(self):
        integer_fields(self, "max_harmonic", "trials", "seed")
        variance, snr_db = self.noise.variance, self.noise.snr_db
        if snr_db is not None:
            reference = self.scene.powers[0] if self.scene.powers else 1.0
            try:
                variance = reference * 10.0 ** (-snr_db / 10.0)
            except OverflowError:
                variance = math.inf
            if not variance < math.inf:
                raise ValidationError(
                    f"snr_db: {snr_db!r} dB puts the noise variance out of float range")
        object.__setattr__(self, "noise_variance", variance)
        validate_experiment(self)


def _fmt(x: float | None) -> str | None:
    return None if x is None else repr(float(x))


def _floats(values) -> str:
    return ", ".join(_fmt(v) for v in values)


def _angles_text(cfg: ExperimentConfig) -> str:
    doas = cfg.scene.doas
    if not doas:
        return "none"
    if cfg.estimator.kind == "1d":
        return _floats(d.theta_deg for d in doas)
    return ", ".join(f"({_fmt(d.theta_deg)}, {_fmt(d.phi_deg)})" for d in doas)


def _sweep_text(cfg: ExperimentConfig) -> str:
    if cfg.sweep is None:
        return "none"
    return f"{cfg.sweep.variable}: {', '.join(str(v) for v in cfg.sweep.values)}"


def _auto(text: str, where: str) -> float | None:
    """A length, or None for ``auto``, which the surface resolves."""
    return None if text == "auto" else _number(text, where)


def _numbers(text: str, where: str) -> tuple[float, ...]:
    """A comma-separated list of finite floats; an empty item is not a number."""
    return tuple(_number(v.strip(), where) for v in text.split(","))


_PAIR_RE = re.compile(r"\(\s*([^(),]+?)\s*,\s*([^(),]+?)\s*\)")


def _parse_angles(text: str, where: str) -> tuple:
    """Floats (1-D) or (theta, phi) float pairs (2-D); ``none`` is no source."""
    if text == "none":
        return ()
    if "(" not in text:
        return _numbers(text, where)
    # Every comma-separated item must be one pair.
    if {item.strip() for item in _PAIR_RE.sub("()", text).split(",")} != {"()"}:
        raise ValidationError(f"{where}: expected '(theta, phi), (theta, phi), ...'; got {text!r}")
    return tuple((_number(a, where), _number(b, where)) for a, b in _PAIR_RE.findall(text))


def _parse_grid(text: str, where: str) -> tuple[float, float, float]:
    values = _numbers(text, where)
    if len(values) != 3:
        raise ValidationError(f"{where} must be 'start, stop, step'")
    return values


def _parse_sweep(text: str, where: str) -> SweepSpec | None:
    if text == "none":
        return None
    if ":" not in text:
        raise ValidationError("sweep must be 'none' or 'variable: v1, v2, ...'")
    var, _, rest = text.partition(":")
    # SweepSpec checks the name and the count on the text before any
    # value is parsed.
    spec = SweepSpec(var.strip(), tuple(v.strip() for v in rest.split(",")) if rest.strip() else ())
    return replace(spec, values=tuple(_sweep_value(spec.variable, v) for v in spec.values))


_REQUIRED = object()  # the default of a key every config must set


class _Key(NamedTuple):
    parse: Callable  # (text, "config key '<k>'") -> the key's value
    default: object  # the value of a config without the key, or _REQUIRED
    text: Callable  # config -> the key's canonical text, or None to leave it out


# Every config key in canonical order. Defaults that a dataclass states
# are read from it.
_KEYS = {
    "rows": _Key(_int, _REQUIRED, lambda c: c.surface.rows),
    "cols": _Key(_int, _REQUIRED, lambda c: c.surface.cols),
    "carrier_hz": _Key(_number, _REQUIRED, lambda c: _fmt(c.surface.carrier_hz)),
    "coding_period_s": _Key(_number, _REQUIRED, lambda c: _fmt(c.plan.coding_period_s)),
    "spacing_m": _Key(_auto, SurfaceConfig.spacing_m, lambda c: _fmt(c.surface.spacing_m)),
    "receiver_offset_m": _Key(_auto, SurfaceConfig.receiver_offset_m,
                              lambda c: _fmt(c.surface.receiver_offset_m)),
    "wave_speed": _Key(_number, SurfaceConfig.wave_speed, lambda c: _fmt(c.surface.wave_speed)),
    "angles_deg": _Key(_parse_angles, _REQUIRED, _angles_text),
    "coherence": _Key(partial(_choice, choices=COHERENCE), SourceScene.coherence,
                      lambda c: c.scene.coherence),
    # Left out, each source has power 1; a scene without sources writes no line.
    "powers": _Key(_numbers, None, lambda c: _floats(c.scene.powers) or None),
    "amplitude_model": _Key(partial(_choice, choices=AMPLITUDE_MODELS),
                            SourceScene.amplitude_model, lambda c: c.scene.amplitude_model),
    "sampling_rate_hz": _Key(_number, _REQUIRED, lambda c: _fmt(c.plan.sample_rate_hz)),
    "periods_per_snapshot": _Key(_int, _REQUIRED, lambda c: c.plan.periods_per_snapshot),
    "snapshots": _Key(_int, _REQUIRED, lambda c: c.plan.num_snapshots),
    # NoiseSpec refuses a config that states both noise keys or neither.
    "snr_db": _Key(_number, NoiseSpec.snr_db, lambda c: _fmt(c.noise.snr_db)),
    "noise_variance": _Key(_number, NoiseSpec.variance, lambda c: _fmt(c.noise.variance)),
    "max_harmonic": _Key(_int, _REQUIRED, lambda c: c.max_harmonic),
    "num_weights": _Key(_int, _REQUIRED, lambda c: c.estimator.num_weights),
    "estimator": _Key(partial(_choice, choices=KINDS), EstimatorParams.kind,
                      lambda c: c.estimator.kind),
    # The one elevation of a 1-D search's sources; the 2-D search reads none.
    "elevation_deg": _Key(_number, 90.0, lambda c: (
        _fmt(c.scene.doas[0].phi_deg if c.scene.doas else 90.0)
        if c.estimator.kind == "1d" else None)),
    "subarray_width": _Key(_int, EstimatorParams.subarray_width,
                           lambda c: c.estimator.subarray_width),
    "theta_grid_deg": _Key(_parse_grid, EstimatorParams.theta_grid_deg,
                           lambda c: _floats(c.estimator.theta_grid_deg)),
    "phi_grid_deg": _Key(_parse_grid, EstimatorParams.phi_grid_deg,
                         lambda c: _floats(c.estimator.phi_grid_deg)),
    "mode": _Key(_mode, "full", lambda c: c.mode),
    "trials": _Key(_int, 100, lambda c: c.trials),
    "seed": _Key(_int, 1, lambda c: c.seed),
    "sweep": _Key(_parse_sweep, None, _sweep_text),
    "output": _Key(lambda text, where: text, "results", lambda c: c.output),
}


def _key_value(pair: str, where: str) -> tuple[str, str]:
    """Split ``key = value`` (the caller checked the ``=``) and check both sides."""
    key, value = (part.strip() for part in pair.split("=", 1))
    if key not in _KEYS:
        raise ValidationError(f"{where}: unknown key {key!r}")
    if not value:
        raise ValidationError(f"{where}: empty value for {key!r}")
    # A file line cannot hold either, so the canonical text of a config
    # with one would not parse back to it.
    if "#" in value or len(value.splitlines()) > 1:
        raise ValidationError(f"{where}: the value of {key!r} may not hold '#' or a line break")
    return key, value


def _parse_lines(text: str) -> dict:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValidationError(f"config line {lineno}: expected 'key = value'")
        key, value = _key_value(body, f"config line {lineno}")
        if key in raw:
            raise ValidationError(f"config line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def parse_config(text: str, overrides=None) -> ExperimentConfig:
    """Parse config text, apply ``key=value`` override strings, validate."""
    raw = _parse_lines(text)
    for item in overrides or ():
        if "=" not in item:
            raise ValidationError(f"override {item!r} must look like key=value")
        key, value = _key_value(item, "override")
        raw[key] = value
    return _build(raw)


def load_config(path: str, overrides=None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)


def _build(raw: dict) -> ExperimentConfig:
    # All text first, in key order: a text fault precedes any object check.
    v = {}
    for key, (parse, default, _) in _KEYS.items():
        if key in raw:
            v[key] = parse(raw[key], f"config key {key!r}")
        elif default is _REQUIRED:
            raise ValidationError(f"missing required config key {key!r}")
        else:
            v[key] = default

    surface = SurfaceConfig(v["rows"], v["cols"], v["carrier_hz"], spacing_m=v["spacing_m"],
                            receiver_offset_m=v["receiver_offset_m"], wave_speed=v["wave_speed"])
    angles, kind = v["angles_deg"], v["estimator"]
    if kind == "1d":
        if any(isinstance(a, tuple) for a in angles):
            raise ValidationError("1-D estimation expects scalar azimuths in angles_deg; "
                                  "all sources share elevation_deg")
        doas = tuple(Doa.from_degrees(a, v["elevation_deg"]) for a in angles)
    else:
        if not all(isinstance(a, tuple) for a in angles):
            raise ValidationError("2-D estimation expects '(theta, phi)' pairs in angles_deg")
        doas = tuple(Doa.from_degrees(t, p) for t, p in angles)
    powers = (1.0,) * len(doas) if v["powers"] is None else v["powers"]
    return ExperimentConfig(
        surface=surface,
        scene=SourceScene(doas, powers, v["coherence"], amplitude_model=v["amplitude_model"]),
        plan=SamplingPlan(v["sampling_rate_hz"], v["periods_per_snapshot"], v["snapshots"],
                          v["coding_period_s"]),
        noise=NoiseSpec(variance=v["noise_variance"], snr_db=v["snr_db"]),
        max_harmonic=v["max_harmonic"],
        estimator=EstimatorParams(v["num_weights"], kind, v["subarray_width"],
                                  v["theta_grid_deg"], v["phi_grid_deg"]),
        mode=v["mode"], trials=v["trials"], seed=v["seed"], sweep=v["sweep"], output=v["output"],
    )


def _refuse_past_limit(what: str, points: float) -> None:
    if points > MAX_POINTS:
        raise ValidationError(
            f"{what} would hold {points:.3g} values, past the limit of {MAX_POINTS:.0e}"
        )


def validate_experiment(cfg: ExperimentConfig) -> None:
    """Eager cross-field checks of every config made; raises on the first violation.

    Which scenes the search can find is :func:`~msdoa.estimator.search_grids`'s
    to decide; this reads only the window width and positions from it.
    """
    surface, plan, est = cfg.surface, cfg.plan, cfg.estimator
    # Checked before anything is allocated: a trial's series; the one-period
    # signal model, one row per source or, in ideal mode, per harmonic; one
    # spectrum; one search batch's row of spectrum denominators; the
    # bound's (2P+1, 2P+1) projector; and, once the window width is
    # checked, the (width^2, dim^2) whitener table of search_setup and one
    # search batch's (trials, I, L, dim) smoothed stack.
    terms = 2 * cfg.max_harmonic + 1 if cfg.mode == "ideal" else cfg.scene.num_sources
    azimuths = grid_points(*est.theta_grid_deg)
    spectrum = azimuths * (grid_points(*est.phi_grid_deg) if est.kind == "2d" else 1)
    batch = min(cfg.trials, BATCH_TRIALS)
    for what, points in (("a trial's series", plan.total_points),
                         ("the one-period signal model", plan.points_per_period * terms),
                         ("one spectrum", spectrum),
                         ("a search batch's denominator row", azimuths * batch),
                         ("the bound's projector", (2 * cfg.max_harmonic + 1) ** 2)):
        _refuse_past_limit(what, points)
    # The receiver noise power M*N*sigma^2 scales the synthesized noise and the bound.
    if not surface.size * cfg.noise_variance < math.inf:
        raise ValidationError(
            f"the receiver noise power, {surface.size} elements times sigma^2 = "
            f"{cfg.noise_variance:.3g}, is past the float range"
        )
    if 2 * cfg.max_harmonic + 1 < surface.size:
        raise ConfigurationError(
            f"max_harmonic={cfg.max_harmonic} keeps {2 * cfg.max_harmonic + 1} "
            f"frequency lines but the surface has {surface.size} elements; "
            "channel recovery needs at least as many lines as elements"
        )
    # Also enforces even Q and that harmonic k0*P fits below Q/2.
    frequency_indices(plan, cfg.max_harmonic)
    width, positions = search_grids(est, surface, cfg.scene)[:2]
    dim = surface.rows * positions
    _refuse_past_limit("the whitener table", width**2 * dim**2)
    _refuse_past_limit("a search batch's smoothed stack",
                       batch * plan.num_snapshots * est.num_weights * dim)
    if cfg.trials < 1:
        raise ValidationError("trials must be at least 1")
    if cfg.seed < 0:
        raise ValidationError("seed must be nonnegative")
    _mode(cfg.mode, "mode")
    point_configs(cfg)  # checks each sweep point as a config of its own


@contextlib.contextmanager
def sweep_point(cfg: ExperimentConfig, index: int):
    """Scope that prefixes a library error with ``sweep <var>=<value> (index <i>): ``, type kept."""
    try:
        yield
    except MsdoaError as exc:
        if cfg.sweep is None:  # no point to name
            raise
        value = cfg.sweep.values[index]
        raise type(exc)(f"sweep {cfg.sweep.variable}={value} (index {index}): {exc}") from exc


def point_configs(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """The config of each sweep point, in sweep order; ``[cfg]`` without a sweep.

    A point that fails its checks raises with its point named (:func:`sweep_point`).
    """
    if cfg.sweep is None:
        return [cfg]
    points = []
    for index, value in enumerate(cfg.sweep.values):
        with sweep_point(cfg, index):
            points.append(apply_sweep_value(cfg, value))
    return points


def apply_sweep_value(cfg: ExperimentConfig, value) -> ExperimentConfig:
    """The checked, sweep-free config of one sweep point (requires a sweep to be configured)."""
    if cfg.sweep is None:
        raise ValidationError("config has no sweep")
    changes = _SWEEPS[cfg.sweep.variable][1](cfg, _sweep_value(cfg.sweep.variable, value))
    return replace(cfg, sweep=None, **changes)


def emit_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it reproduces an equal config."""
    texts = ((key, spec.text(cfg)) for key, spec in _KEYS.items())
    return "".join(f"{key} = {value}\n" for key, value in texts if value is not None)


def config_digest(cfg: ExperimentConfig) -> str:
    """SHA-256 of the canonical text, for output provenance."""
    return hashlib.sha256(emit_config(cfg).encode("utf-8")).hexdigest()


def builtin_config_path(name: str) -> str:
    """Filesystem path of a bundled config such as ``table1``."""
    from importlib.resources import files

    resource = files("msdoa").joinpath("configs", f"{name}.cfg")
    if not resource.is_file():
        raise ValidationError(f"no bundled config named {name!r}")
    return str(resource)
