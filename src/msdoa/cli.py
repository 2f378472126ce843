"""Command-line harness.

Each command calls :mod:`msdoa.harness`, which writes its output
files; this module opens none.

Exit codes, set by the error's type alone: 0 success; 2 invalid config
or arguments (``ValidationError``, checks that no draw can change
included) or a path that cannot be read or written; 3 a failed draw.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .config import config_digest, load_config, point_configs, sweep_point
from .errors import MsdoaError, ValidationError
from .harness import (
    build_context,
    check_sweep,
    run_single,
    run_sweep,
    trial_zero_bound,
    write_crb_csv,
    write_sweep_csv,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RUNTIME = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", required=True, help="config file path")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (repeatable)",
    )
    parser.add_argument("-o", "--output", default=None, help="output path prefix")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msdoa",
        description="Switched-metasurface direction-finding simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and validate a config")
    _add_common(p_validate)

    p_single = sub.add_parser("single", help="one seeded run with spectrum dumps")
    _add_common(p_single)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo sweep to CSV")
    _add_common(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel trial workers (at least 1; the pool is capped at the "
                              "trials and the CPU count)")

    p_crb = sub.add_parser("crb", help="angle error bound for the configured scene")
    _add_common(p_crb)
    return parser


def _cmd_validate(cfg, args) -> int:
    # Building each point's context runs the checks that no draw can
    # change, as `sweep` does before its first trial; an error names its point.
    if cfg.sweep is not None:
        check_sweep(cfg)
    for index, point in enumerate(point_configs(cfg)):
        with sweep_point(cfg, index):
            build_context(point)
    print(f"OK config_sha256={config_digest(cfg)}")
    return EXIT_OK


def _cmd_single(cfg, args) -> int:
    out = run_single(cfg, args.output)
    for name, path in out["paths"].items():
        print(f"{name}: {path}")
    batch = out["result"]
    if batch is not None:
        two_angles = batch.setup.elevation_grid_deg.size > 1
        for est in batch.estimates[0]:
            phi = f" phi_deg={est.phi_deg:.4f}" if two_angles else ""
            print(f"estimate theta_deg={est.theta_deg:.4f}{phi}")
    return EXIT_OK


def _cmd_sweep(cfg, args) -> int:
    result = run_sweep(cfg, workers=args.workers)
    path = f"{args.output}_sweep.csv"
    write_sweep_csv(result, path)
    print(f"sweep: {path}")
    for row in result.rows:
        print(
            f"{row.variable}={row.value} pr={row.pr:.3f} "
            f"rmse_deg={row.rmse_deg:.4f} wall_s={row.wall_s:.3f}"
        )
    return EXIT_OK


def _cmd_crb(cfg, args) -> int:
    bound = trial_zero_bound(cfg)
    for k, b in enumerate(bound.theta_bounds, 1):
        print(f"source {k}: sqrt_crb_deg={np.rad2deg(np.sqrt(b)):.6g}")
    path = f"{args.output}_crb.csv"
    write_crb_csv(bound, path)
    print(f"crb: {path}")
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "single": _cmd_single,
    "sweep": _cmd_sweep,
    "crb": _cmd_crb,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        if args.output is None:
            args.output = cfg.output
        return _COMMANDS[args.command](cfg, args)
    except ValidationError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        # A config that cannot be read or an output that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MsdoaError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    raise SystemExit(main())
