"""Command line front end.

``maxlip verify`` runs a named scenario and emits its report; ``maxlip
compute`` evaluates a single operator or functional.  Exit codes: 0 all
hard checks passed, 1 at least one failed, 2 malformed or inadmissible
configuration, 3 output could not be written; an unwritable output path
is found before any computing starts.  ``python -m maxlip`` runs the same
entry point.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import __version__
from .catalog import ConfigError, build_exponent, build_function
from .config import KNOWN_SCENARIOS, load_config, parse_beta, parse_grid
from .grid import Cube, CubeFamilyMode, GridFunction, check_cube, make_grid, write_gridfunction_csv
from .lipschitz import lambda_star, lambda_var, lip_seminorm
from .luxemburg import lux_norm
from .operators import comm_m, comm_sharp, frac_max, hl_max, local_max, max_commutator, sharp_max
from .scenarios import run_scenario

_COMPUTE_OPS = (
    "hl",
    "sharp",
    "frac",
    "maxcomm",
    "comm-m",
    "comm-sharp",
    "local",
    "lux",
    "lip",
    "lambda-var",
    "lambda-star",
)
_COMPUTE_KEYS = {"grid", "cube_family", "beta", "function", "symbol", "exponent", "cube"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxlip",
        description="Numerical checks for maximal operators, commutators, and "
        "oscillation functionals over variable-exponent norms.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification scenario and emit its report")
    verify.add_argument("scenario", choices=KNOWN_SCENARIOS)
    verify.add_argument("--config", default=None, help="JSON config overlaying scenario defaults")
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    verify.add_argument("--out", default=None, help="report path (stdout when omitted)")

    compute = sub.add_parser("compute", help="evaluate one operator or functional")
    compute.add_argument("op", choices=_COMPUTE_OPS)
    compute.add_argument("--config", required=True, help="JSON config describing the inputs")
    compute.add_argument("--out", required=True, help="output path (CSV or scalar text)")
    return parser


def _compute_grid(raw: dict):
    dim, cells, box_origin, box_side = parse_grid(raw.get("grid", {}), 32)
    return make_grid(dim, cells, box_origin=box_origin, box_side=box_side)


def _parse_cube(spec, grid) -> Cube:
    if not isinstance(spec, dict) or set(spec) != {"start", "side_cells"}:
        raise ConfigError("'cube' must be an object with keys 'start' and 'side_cells'")
    try:
        cube = Cube(tuple(int(s) for s in spec["start"]), int(spec["side_cells"]))
        check_cube(grid, cube)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return cube


def _write_local_csv(grid, cube: Cube, values, path) -> None:
    # Same layout as the full-grid dump, restricted to the cube's cells.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        k = cube.side_cells
        if grid.dim == 1:
            writer.writerow(["index", "value"])
            for i in range(k):
                writer.writerow([cube.start[0] + i, f"{values[i]:.17g}"])
        else:
            writer.writerow(["i", "j", "value"])
            for i in range(k):
                for j in range(k):
                    writer.writerow([cube.start[0] + i, cube.start[1] + j,
                                     f"{values[i, j]:.17g}"])


def _run_compute(op: str, raw: dict, out_path: str) -> None:
    unknown = set(raw) - _COMPUTE_KEYS
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in compute config")
    grid = _compute_grid(raw)
    try:
        mode = CubeFamilyMode.parse(raw.get("cube_family", "full"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    beta = parse_beta(raw)

    def need(key: str):
        if key not in raw:
            raise ConfigError(f"compute op {op!r} requires {key!r} in config")
        return raw[key]

    if op == "hl":
        result = hl_max(build_function(grid, need("function")), mode)
    elif op == "sharp":
        result = sharp_max(build_function(grid, need("function")), mode)
    elif op == "frac":
        result = frac_max(build_function(grid, need("function")), beta, mode)
    elif op == "maxcomm":
        result = max_commutator(build_function(grid, need("symbol")),
                                build_function(grid, need("function")), mode)
    elif op == "comm-m":
        result = comm_m(build_function(grid, need("symbol")),
                        build_function(grid, need("function")), mode)
    elif op == "comm-sharp":
        result = comm_sharp(build_function(grid, need("symbol")),
                            build_function(grid, need("function")), mode)
    elif op == "local":
        cube = _parse_cube(need("cube"), grid)
        values = local_max(build_function(grid, need("symbol")), cube)
        _write_local_csv(grid, cube, values, out_path)
        return
    elif op == "lux":
        q = build_exponent(grid, need("exponent"))
        result = lux_norm(build_function(grid, need("function")), q).value
    elif op == "lip":
        result = lip_seminorm(build_function(grid, need("symbol")), beta).value
    elif op == "lambda-var":
        q = build_exponent(grid, need("exponent"))
        result = lambda_var(build_function(grid, need("symbol")), beta, q, mode).value
    else:
        q = build_exponent(grid, need("exponent"))
        result = lambda_star(build_function(grid, need("symbol")), beta, q, mode).value

    if isinstance(result, GridFunction):
        write_gridfunction_csv(result, out_path)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(f"{result:.17g}\n")


def _probe_writable(path: str) -> None:
    """Raise the OSError that writing path would raise, before any work is done."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            raw = load_config(args.config) if args.config else None
            if args.out:
                _probe_writable(args.out)
            report = run_scenario(args.scenario, raw)
            text = report.render(args.format)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 1 if report.has_failures else 0
        raw = load_config(args.config)
        _probe_writable(args.out)
        _run_compute(args.op, raw, args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
