"""Experiment configuration: a flat ``key = value`` text format.

Grammar: one ``key = value`` pair per line; ``#`` starts a comment
(whole line or trailing); blank lines are ignored; keys may appear at
most once. Values are plain scalars, comma-separated lists, or
comma-separated ``(theta, phi)`` pairs for two-angle sources. Units are
part of the key names (Hz, seconds, meters, dB, degrees); angles are
degrees in files and radians inside the library.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, replace

from .errors import ConfigurationError, ValidationError
from .estimator import KINDS, EstimatorParams, grid_points, search_grids
from .snapshot import frequency_indices
from .surface import Doa, SurfaceConfig
from .waveform import AMPLITUDE_MODELS, COHERENCE, MODES, NoiseSpec, SamplingPlan, SourceScene


def _number(text, kind, where: str):
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


def _choice(value, choices, where: str):
    """``value`` if it is one of ``choices``, else a ``ValidationError``."""
    if value not in choices:
        raise ValidationError(f"{where}: not one of {'/'.join(choices)}: {value!r}")
    return value


# Most values one trial's series, the one-period signal model, one
# spectrum, one search batch's denominator row or the bound's projector
# over the frequency lines may hold (160 MB of complex values); see
# validate_experiment.
MAX_POINTS = 10_000_000
# Trials per search batch of harness.run_chunk. Each elevation's lag
# basis is built once per batch, and a 1-D search's fixed cost per call
# is about half a millisecond, so at least 100 makes every shipped
# point, and each 50-trial chunk of two workers, one search.
BATCH_TRIALS = 128


def _snr_noise(snr_db: float, scene: SourceScene) -> NoiseSpec:
    """Noise at ``snr_db`` relative to the first source's power (1 without sources)."""
    return NoiseSpec.from_snr_db(snr_db, scene.powers[0] if scene.powers else 1.0)


# Each sweep variable: the kind of its values (``int``, ``float`` or
# the tuple of choices), and the config of the point one value gives.
_SWEEPS = {
    "I": (int, lambda cfg, v: replace(cfg, plan=replace(cfg.plan, num_snapshots=v))),
    "k0": (int, lambda cfg, v: replace(cfg, plan=replace(cfg.plan, periods_per_snapshot=v))),
    "snr_db": (float, lambda cfg, v: replace(cfg, noise=_snr_noise(v, cfg.scene))),
    "P": (int, lambda cfg, v: replace(cfg, max_harmonic=v)),
    "L": (int, lambda cfg, v: replace(cfg, estimator=replace(cfg.estimator, num_weights=v))),
    "fs_mult": (float, lambda cfg, v: replace(
        cfg, plan=replace(cfg.plan, sample_rate_hz=cfg.plan.sample_rate_hz * v))),
    "mode": (MODES, lambda cfg, v: replace(cfg, mode=v)),
}
SWEEP_VARIABLES = tuple(_SWEEPS)


def _sweep_value(variable: str, value):
    """One value of ``variable`` (text or already parsed) as its kind."""
    kind, where = _SWEEPS[variable][0], f"sweep {variable}"
    return _choice(value, kind, where) if kind is MODES else _number(value, kind, where)


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
    """Everything one run or sweep needs, fully resolved and validated."""

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


def _fmt(x: float) -> str:
    return repr(float(x))


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


# Every config key in canonical order, mapped to the value a config
# writes for it, or to None where the canonical text leaves it out.
_CANONICAL = {
    "rows": lambda c: c.surface.rows,
    "cols": lambda c: c.surface.cols,
    "carrier_hz": lambda c: _fmt(c.surface.carrier_hz),
    "coding_period_s": lambda c: _fmt(c.plan.coding_period_s),
    "spacing_m": lambda c: _fmt(c.surface.spacing_m),
    "receiver_offset_m": lambda c: _fmt(c.surface.receiver_offset_m),
    "wave_speed": lambda c: _fmt(c.surface.wave_speed),
    "angles_deg": _angles_text,
    "coherence": lambda c: c.scene.coherence,
    # A scene without sources has no powers line to write.
    "powers": lambda c: _floats(c.scene.powers) or None,
    "amplitude_model": lambda c: c.scene.amplitude_model,
    "sampling_rate_hz": lambda c: _fmt(c.plan.sample_rate_hz),
    "periods_per_snapshot": lambda c: c.plan.periods_per_snapshot,
    "snapshots": lambda c: c.plan.num_snapshots,
    "snr_db": lambda c: None if c.noise.snr_db is None else _fmt(c.noise.snr_db),
    "noise_variance": lambda c: None if c.noise.snr_db is not None else _fmt(c.noise.variance),
    "max_harmonic": lambda c: c.max_harmonic,
    "num_weights": lambda c: c.estimator.num_weights,
    "estimator": lambda c: c.estimator.kind,
    # The 2-D search reads no fixed elevation.
    "elevation_deg": lambda c: (
        _fmt(c.estimator.elevation_deg) if c.estimator.kind == "1d" else None),
    "subarray_width": lambda c: c.estimator.subarray_width,
    "theta_grid_deg": lambda c: _floats(c.estimator.theta_grid_deg),
    "phi_grid_deg": lambda c: _floats(c.estimator.phi_grid_deg),
    "mode": lambda c: c.mode,
    "trials": lambda c: c.trials,
    "seed": lambda c: c.seed,
    "sweep": _sweep_text,
    "output": lambda c: c.output,
}

_PAIR_RE = re.compile(r"\(\s*([^(),]+?)\s*,\s*([^(),]+?)\s*\)")


def _key_value(pair: str, where: str) -> tuple[str, str]:
    """Split ``key = value`` (the caller checked the ``=``) and check both sides."""
    key, value = (part.strip() for part in pair.split("=", 1))
    if key not in _CANONICAL:
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


def _get_number(raw, key, kind=float, default=None):
    """``raw[key]`` as ``kind`` (``float`` or ``int``); required unless a default is given."""
    if key not in raw:
        if default is None:
            raise ValidationError(f"missing required config key {key!r}")
        return default
    return _number(raw[key], kind, f"config key {key!r}")


def _numbers(text: str, where: str) -> list[float]:
    """A comma-separated list of finite floats."""
    return [_number(v.strip(), float, where) for v in text.split(",") if v.strip()]


def _parse_angles(value: str):
    """Return a list of floats (1-D) or (theta, phi) float pairs (2-D)."""
    if value == "none":
        return []
    where = "config key 'angles_deg'"
    if "(" in value:
        pairs = _PAIR_RE.findall(value)
        stripped = _PAIR_RE.sub("", value).replace(",", "").strip()
        if not pairs or stripped:
            raise ValidationError(
                f"{where}: expected '(theta, phi), (theta, phi), ...'; got {value!r}"
            )
        return [(_number(a, float, where), _number(b, float, where)) for a, b in pairs]
    return _numbers(value, where)


def _parse_grid(raw, key, default):
    if key not in raw:
        return default
    vals = _numbers(raw[key], f"config key {key!r}")
    if len(vals) != 3:
        raise ValidationError(f"config key {key!r} must be 'start, stop, step'")
    return tuple(vals)


def _parse_sweep(value: str) -> SweepSpec | None:
    if value == "none":
        return None
    if ":" not in value:
        raise ValidationError("sweep must be 'none' or 'variable: v1, v2, ...'")
    var, _, rest = value.partition(":")
    # SweepSpec checks the name and the count on the text before any
    # value is parsed.
    spec = SweepSpec(var.strip(), tuple(v.strip() for v in rest.split(",") if v.strip()))
    return replace(spec, values=tuple(_sweep_value(spec.variable, v) for v in spec.values))


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
    rows, cols = _get_number(raw, "rows", int), _get_number(raw, "cols", int)
    carrier_hz = _get_number(raw, "carrier_hz")
    # The period goes to the plan below; it is read among the surface
    # keys so errors for missing or malformed keys keep their order.
    coding_period_s = _get_number(raw, "coding_period_s")
    # An 'auto' length is left unset, for the surface to resolve.
    surface = SurfaceConfig(
        rows, cols, carrier_hz,
        wave_speed=_get_number(raw, "wave_speed", float, SurfaceConfig.wave_speed),
        **{key: _get_number(raw, key) for key in ("spacing_m", "receiver_offset_m")
           if raw.get(key, "auto") != "auto"},
    )

    kind = _choice(raw.get("estimator", EstimatorParams.kind), KINDS, "config key 'estimator'")
    elevation_deg = _get_number(raw, "elevation_deg", float, EstimatorParams.elevation_deg)
    if kind == "2d":
        # The 2-D search reads no fixed elevation: the value is checked
        # and dropped, so it moves neither the config nor its digest.
        elevation_deg = EstimatorParams.elevation_deg
    if "angles_deg" not in raw:
        raise ValidationError("missing required config key 'angles_deg'")
    angles = _parse_angles(raw["angles_deg"])
    if not angles:
        doas = ()
    elif kind == "1d":
        if any(isinstance(a, tuple) for a in angles):
            raise ValidationError(
                "1-D estimation expects scalar azimuths in angles_deg; all "
                "sources share elevation_deg"
            )
        doas = tuple(Doa.from_degrees(a, elevation_deg) for a in angles)
    else:
        if not all(isinstance(a, tuple) for a in angles):
            raise ValidationError(
                "2-D estimation expects '(theta, phi)' pairs in angles_deg"
            )
        doas = tuple(Doa.from_degrees(t, p) for t, p in angles)

    powers = raw.get("powers")
    scene = SourceScene(
        doas=doas,
        powers=tuple(_numbers(powers, "config key 'powers'")) if powers else (1.0,) * len(doas),
        coherence=_choice(
            raw.get("coherence", SourceScene.coherence), COHERENCE, "config key 'coherence'"
        ),
        amplitude_model=_choice(
            raw.get("amplitude_model", SourceScene.amplitude_model),
            AMPLITUDE_MODELS,
            "config key 'amplitude_model'",
        ),
    )

    plan = SamplingPlan(
        sample_rate_hz=_get_number(raw, "sampling_rate_hz"),
        periods_per_snapshot=_get_number(raw, "periods_per_snapshot", int),
        num_snapshots=_get_number(raw, "snapshots", int),
        coding_period_s=coding_period_s,
    )

    if "snr_db" in raw and "noise_variance" in raw:
        raise ValidationError("give either snr_db or noise_variance, not both")
    if "noise_variance" in raw:
        noise = NoiseSpec(_get_number(raw, "noise_variance"))
    else:
        noise = _snr_noise(_get_number(raw, "snr_db"), scene)

    estimator = EstimatorParams(
        num_sources=len(doas),
        num_weights=_get_number(raw, "num_weights", int),
        kind=kind,
        elevation_deg=elevation_deg,
        subarray_width=_get_number(raw, "subarray_width", int) if "subarray_width" in raw else None,
        theta_grid_deg=_parse_grid(raw, "theta_grid_deg", EstimatorParams.theta_grid_deg),
        phi_grid_deg=_parse_grid(raw, "phi_grid_deg", EstimatorParams.phi_grid_deg),
    )

    cfg = ExperimentConfig(
        surface=surface,
        scene=scene,
        plan=plan,
        noise=noise,
        max_harmonic=_get_number(raw, "max_harmonic", int),
        estimator=estimator,
        mode=_choice(raw.get("mode", "full"), MODES, "config key 'mode'"),
        trials=_get_number(raw, "trials", int, 100),
        seed=_get_number(raw, "seed", int, 1),
        sweep=_parse_sweep(raw["sweep"]) if "sweep" in raw else None,
        output=raw.get("output", "results"),
    )
    validate_experiment(cfg)
    return cfg


def validate_experiment(cfg: ExperimentConfig) -> None:
    """Eager cross-field checks; raises on the first violation."""
    surface, plan, est = cfg.surface, cfg.plan, cfg.estimator
    # Checked before anything is allocated: a trial's series; the one-period
    # signal model, one row per source or, in ideal mode, per harmonic; one
    # spectrum; one search batch's row of spectrum denominators; and the
    # bound's (2P+1, 2P+1) projector.
    terms = 2 * cfg.max_harmonic + 1 if cfg.mode == "ideal" else cfg.scene.num_sources
    azimuths = grid_points(*est.theta_grid_deg)
    spectrum = azimuths * (grid_points(*est.phi_grid_deg) if est.kind == "2d" else 1)
    batch = min(cfg.trials, BATCH_TRIALS)
    for what, points in (("a trial's series", plan.total_points),
                         ("the one-period signal model", plan.points_per_period * terms),
                         ("one spectrum", spectrum),
                         ("a search batch's denominator row", azimuths * batch),
                         ("the bound's projector", (2 * cfg.max_harmonic + 1) ** 2)):
        if points > MAX_POINTS:
            raise ValidationError(
                f"{what} would hold {points:.3g} values, past the limit of {MAX_POINTS:.0e}"
            )
    # The receiver noise power M*N*sigma^2 scales the synthesized noise and the bound.
    if not surface.size * cfg.noise.variance < math.inf:
        raise ValidationError(
            f"the receiver noise power, {surface.size} elements times sigma^2 = "
            f"{cfg.noise.variance:.3g}, is past the float range"
        )
    if 2 * cfg.max_harmonic + 1 < surface.size:
        raise ConfigurationError(
            f"max_harmonic={cfg.max_harmonic} keeps {2 * cfg.max_harmonic + 1} "
            f"frequency lines but the surface has {surface.size} elements; "
            "channel recovery needs at least as many lines as elements"
        )
    # Also enforces even Q and that harmonic k0*P fits below Q/2.
    frequency_indices(plan, cfg.max_harmonic)
    width, theta_grid, elevations = search_grids(est, surface)
    dim = surface.rows * (surface.cols - width + 1)
    if est.num_sources >= dim:
        raise ConfigurationError(
            f"{est.num_sources} sources need a search dimension above "
            f"{est.num_sources}; this geometry gives {dim}"
        )
    # The peak search reports strict interior maxima only, so a source
    # on or beyond a grid end point could never be found.
    axes = [("theta", "theta_grid_deg", theta_grid)]
    if elevations.size > 1:
        axes.append(("phi", "phi_grid_deg", elevations))
        # The manifold sees the elevation only through sin(phi), so phi
        # and 180 - phi cannot be told apart.
        if elevations[-1] > 90.0:
            raise ConfigurationError(
                f"phi_grid_deg reaches {elevations[-1]:g} deg; elevations past 90 "
                "mirror those below it, so the search would return mirrored pairs"
            )
    for k, doa in enumerate(cfg.scene.doas, 1):
        for axis, key, grid in axes:
            angle = getattr(doa, f"{axis}_deg")
            if not grid[0] < angle < grid[-1]:
                raise ConfigurationError(
                    f"source {k} has {axis} = {angle:g} deg, on or outside the end "
                    f"points of {key} ({grid[0]:g} .. {grid[-1]:g}); the peak "
                    "search never reports an end point"
                )
    if cfg.trials < 1:
        raise ValidationError("trials must be at least 1")
    if cfg.seed < 0:
        raise ValidationError("seed must be nonnegative")
    _choice(cfg.mode, MODES, "mode")
    point_configs(cfg)  # checks each sweep point as a config of its own


def point_configs(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """The checked config of each sweep point, in sweep order; ``[cfg]`` without a sweep."""
    if cfg.sweep is None:
        return [cfg]
    return [apply_sweep_value(cfg, value) for value in cfg.sweep.values]


def apply_sweep_value(cfg: ExperimentConfig, value) -> ExperimentConfig:
    """Config for one sweep point (requires a sweep to be configured)."""
    if cfg.sweep is None:
        raise ValidationError("config has no sweep")
    out = _SWEEPS[cfg.sweep.variable][1](cfg, _sweep_value(cfg.sweep.variable, value))
    validate_experiment(replace(out, sweep=None))
    return out


def emit_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it reproduces an equal config."""
    texts = ((key, text(cfg)) for key, text in _CANONICAL.items())
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
