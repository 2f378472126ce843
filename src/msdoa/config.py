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
import re
from dataclasses import dataclass, replace

from .errors import ConfigurationError, ValidationError
from .estimator import KINDS, EstimatorParams, search_grids
from .snapshot import frequency_indices
from .surface import Doa, SurfaceConfig
from .waveform import AMPLITUDE_MODELS, COHERENCE, MODES, NoiseSpec, SamplingPlan, SourceScene


def _sweep_mode(value) -> str:
    if value not in MODES:
        raise ValidationError(f"sweep mode values must be full/ideal; got {value!r}")
    return value


def _snr_noise(snr_db: float, scene: SourceScene) -> NoiseSpec:
    """Noise at ``snr_db`` relative to the first source's power (1 without sources)."""
    return NoiseSpec.from_snr_db(snr_db, scene.powers[0] if scene.powers else 1.0)


# Each sweep variable: the type its values parse to, and the config of
# the point one (parsed) value gives.
_SWEEPS = {
    "I": (int, lambda cfg, v: replace(cfg, plan=replace(cfg.plan, num_snapshots=v))),
    "k0": (int, lambda cfg, v: replace(cfg, plan=replace(cfg.plan, periods_per_snapshot=v))),
    "snr_db": (float, lambda cfg, v: replace(cfg, noise=_snr_noise(v, cfg.scene))),
    "P": (int, lambda cfg, v: replace(cfg, max_harmonic=v)),
    "L": (int, lambda cfg, v: replace(cfg, estimator=replace(cfg.estimator, num_weights=v))),
    "fs_mult": (float, lambda cfg, v: replace(
        cfg, plan=replace(cfg.plan, sample_rate_hz=cfg.plan.sample_rate_hz * v))),
    "mode": (_sweep_mode, lambda cfg, v: replace(cfg, mode=v)),
}
SWEEP_VARIABLES = tuple(_SWEEPS)


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


_KEYS = (
    "rows", "cols", "carrier_hz", "coding_period_s", "spacing_m",
    "receiver_offset_m", "wave_speed",
    "angles_deg", "coherence", "powers", "amplitude_model",
    "sampling_rate_hz", "periods_per_snapshot", "snapshots",
    "snr_db", "noise_variance",
    "max_harmonic", "num_weights", "estimator", "elevation_deg",
    "subarray_width", "theta_grid_deg", "phi_grid_deg",
    "mode", "trials", "seed", "sweep", "output",
)

_PAIR_RE = re.compile(r"\(\s*([^(),]+)\s*,\s*([^(),]+)\s*\)")


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


def _get_number(raw, key, kind=float, default=None):
    """``raw[key]`` as ``kind`` (``float`` or ``int``); required unless a default is given."""
    if key not in raw:
        if default is None:
            raise ValidationError(f"missing required config key {key!r}")
        return default
    try:
        return kind(raw[key])
    except ValueError as exc:
        what = "an integer" if kind is int else "a number"
        raise ValidationError(f"config key {key!r}: not {what}: {raw[key]!r}") from exc


def _get_choice(raw, key, choices, default):
    value = raw.get(key, default)
    if value not in choices:
        raise ValidationError(f"config key {key!r} must be one of {choices}; got {value!r}")
    return value


def _parse_angles(value: str):
    """Return a list of floats (1-D) or (theta, phi) float pairs (2-D)."""
    if value == "none":
        return []
    if "(" in value:
        pairs = _PAIR_RE.findall(value)
        stripped = _PAIR_RE.sub("", value).replace(",", "").strip()
        if not pairs or stripped:
            raise ValidationError(
                f"angles_deg: expected '(theta, phi), (theta, phi), ...'; got {value!r}"
            )
        try:
            return [(float(a), float(b)) for a, b in pairs]
        except ValueError as exc:
            raise ValidationError(f"angles_deg: non-numeric pair in {value!r}") from exc
    return _parse_float_list(value, "angles_deg")


def _parse_float_list(value: str, key: str):
    try:
        return [float(v) for v in value.split(",") if v.strip()]
    except ValueError as exc:
        raise ValidationError(f"config key {key!r}: not a number list: {value!r}") from exc


def _parse_grid(raw, key, default):
    if key not in raw:
        return default
    vals = _parse_float_list(raw[key], key)
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
    kind = _SWEEPS[spec.variable][0]
    try:
        values = tuple(kind(v) for v in spec.values)
    except ValidationError:
        raise  # the mode check's own message, not relabeled below
    except ValueError as exc:
        required = "integer" if kind is int else "numeric"
        raise ValidationError(f"sweep {spec.variable}: {required} values required") from exc
    return replace(spec, values=values)


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
    spacing = raw.get("spacing_m", "auto")
    offset = raw.get("receiver_offset_m", "auto")
    surface_kwargs = dict(
        rows=_get_number(raw, "rows", int),
        cols=_get_number(raw, "cols", int),
        carrier_hz=_get_number(raw, "carrier_hz"),
    )
    # The period goes to the plan below; it is read among the surface
    # keys so errors for missing or malformed keys keep their order.
    coding_period_s = _get_number(raw, "coding_period_s")
    surface_kwargs["wave_speed"] = _get_number(raw, "wave_speed", float, SurfaceConfig.wave_speed)
    if spacing != "auto":
        surface_kwargs["spacing_m"] = _get_number(raw, "spacing_m")
    # Resolve spacing first so an 'auto' receiver offset (twice the
    # spacing) sees the final value.
    probe = SurfaceConfig(receiver_offset_m=1.0, **surface_kwargs)
    if offset == "auto":
        offset_m = 2.0 * probe.spacing_m
    else:
        offset_m = _get_number(raw, "receiver_offset_m")
    surface = SurfaceConfig(receiver_offset_m=offset_m, **surface_kwargs)

    kind = _get_choice(raw, "estimator", KINDS, EstimatorParams.kind)
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
    power_list = (
        tuple(_parse_float_list(powers, "powers")) if powers else tuple([1.0] * len(doas))
    )
    scene = SourceScene(
        doas=doas,
        powers=power_list,
        coherence=_get_choice(raw, "coherence", COHERENCE, SourceScene.coherence),
        amplitude_model=_get_choice(
            raw, "amplitude_model", AMPLITUDE_MODELS, SourceScene.amplitude_model
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
        mode=_get_choice(raw, "mode", MODES, "full"),
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
    if cfg.mode not in MODES:
        raise ValidationError("mode must be full or ideal")
    if cfg.sweep is not None:
        for value in cfg.sweep.values:
            apply_sweep_value(cfg, value)


def apply_sweep_value(cfg: ExperimentConfig, value) -> ExperimentConfig:
    """Config for one sweep point (requires a sweep to be configured)."""
    if cfg.sweep is None:
        raise ValidationError("config has no sweep")
    kind, point = _SWEEPS[cfg.sweep.variable]
    out = point(cfg, kind(value))
    validate_experiment(replace(out, sweep=None))
    return out


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it reproduces an equal config."""
    est, scene = cfg.estimator, cfg.scene
    if not scene.doas:
        angles = "none"
    elif est.kind == "1d":
        angles = ", ".join(_fmt(d.theta_deg) for d in scene.doas)
    else:
        angles = ", ".join(f"({_fmt(d.theta_deg)}, {_fmt(d.phi_deg)})" for d in scene.doas)
    lines = [
        f"rows = {cfg.surface.rows}",
        f"cols = {cfg.surface.cols}",
        f"carrier_hz = {_fmt(cfg.surface.carrier_hz)}",
        f"coding_period_s = {_fmt(cfg.plan.coding_period_s)}",
        f"spacing_m = {_fmt(cfg.surface.spacing_m)}",
        f"receiver_offset_m = {_fmt(cfg.surface.receiver_offset_m)}",
        f"wave_speed = {_fmt(cfg.surface.wave_speed)}",
        f"angles_deg = {angles}",
        f"coherence = {scene.coherence}",
        # A scene without sources has no powers line to write.
        *([f"powers = {', '.join(_fmt(p) for p in scene.powers)}"] if scene.powers else []),
        f"amplitude_model = {scene.amplitude_model}",
        f"sampling_rate_hz = {_fmt(cfg.plan.sample_rate_hz)}",
        f"periods_per_snapshot = {cfg.plan.periods_per_snapshot}",
        f"snapshots = {cfg.plan.num_snapshots}",
    ]
    if cfg.noise.snr_db is not None:
        lines.append(f"snr_db = {_fmt(cfg.noise.snr_db)}")
    else:
        lines.append(f"noise_variance = {_fmt(cfg.noise.variance)}")
    lines += [
        f"max_harmonic = {cfg.max_harmonic}",
        f"num_weights = {est.num_weights}",
        f"estimator = {est.kind}",
    ]
    if est.kind == "1d":
        lines.append(f"elevation_deg = {_fmt(est.elevation_deg)}")
    if est.subarray_width is not None:
        lines.append(f"subarray_width = {est.subarray_width}")
    lines += [
        f"theta_grid_deg = {', '.join(_fmt(v) for v in est.theta_grid_deg)}",
        f"phi_grid_deg = {', '.join(_fmt(v) for v in est.phi_grid_deg)}",
        f"mode = {cfg.mode}",
        f"trials = {cfg.trials}",
        f"seed = {cfg.seed}",
    ]
    if cfg.sweep is not None:
        values = ", ".join(str(v) for v in cfg.sweep.values)
        lines.append(f"sweep = {cfg.sweep.variable}: {values}")
    else:
        lines.append("sweep = none")
    lines.append(f"output = {cfg.output}")
    return "\n".join(lines) + "\n"


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
