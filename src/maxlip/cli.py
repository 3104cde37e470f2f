"""Command line front end.

``maxlip verify`` runs a named scenario and emits its report; ``maxlip
compute`` evaluates a single operator or functional.  Exit codes: 0 all
hard checks passed, 1 at least one failed, 2 malformed or inadmissible
configuration, 3 output could not be written, 4 internal error (any
other exception: the norm solver did not converge, memory ran out, or a
fault in the program); an unwritable output path is found before any
computing starts.  Only a ConfigError is a bad configuration: everything
a config can get wrong raises one.  Codes 2 to 4 come with one line on
stderr.  An output is written to a temporary file beside its target and
then moved into place, so a write that fails leaves the old file as it
was.  ``python -m maxlip`` runs the same entry point.  The argument parser
is built once per process, at the first call of main, and every later call
reuses it.  Each compute op is one row of a table: the config keys it
builds, in order, and what it computes from them.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__
from .catalog import ConfigError, build_exponent, build_function, check_keys, is_int
from .config import KNOWN_SCENARIOS, load_config, parse_beta, parse_family, parse_grid
from .grid import (Cube, GridFunction, check_cube, make_grid, write_cells_csv,
                   write_gridfunction_csv)
from .lipschitz import lambda_star, lambda_var, lip_seminorm
from .luxemburg import lux_norm
from .operators import OperatorTag, apply_operator, local_max
from .scenarios import run_scenario

# Each compute op: the config keys it builds, in the order it builds them, and
# what it computes from beta, the cube family and those inputs.  A grid
# function is written as a CSV table and a number as text; the local op
# returns the writer of its block of cells.  The entries look their functions
# up when they run, so a wrapper installed on one of them is the one called.
_COMPUTE_OPS = {
    "hl": (("function",), lambda beta, mode, f: apply_operator(OperatorTag.hl(), f, mode)),
    "sharp": (("function",), lambda beta, mode, f: apply_operator(OperatorTag.sharp(), f, mode)),
    "frac": (("function",),
             lambda beta, mode, f: apply_operator(OperatorTag.fractional(beta), f, mode)),
    "maxcomm": (("symbol", "function"),
                lambda beta, mode, b, f: apply_operator(OperatorTag.max_commutator(b), f, mode)),
    "comm-m": (("symbol", "function"),
               lambda beta, mode, b, f: apply_operator(OperatorTag.comm_m(b), f, mode)),
    "comm-sharp": (("symbol", "function"),
                   lambda beta, mode, b, f: apply_operator(OperatorTag.comm_sharp(b), f, mode)),
    "local": (("cube", "symbol"), lambda beta, mode, cube, b: functools.partial(
        write_cells_csv, local_max(b, cube), start=cube.start)),
    "lux": (("exponent", "function"), lambda beta, mode, q, f: lux_norm(f, q).value),
    "lip": (("symbol",), lambda beta, mode, b: lip_seminorm(b, beta).value),
    "lambda-var": (("exponent", "symbol"),
                   lambda beta, mode, q, b: lambda_var(b, beta, q, mode).value),
    "lambda-star": (("exponent", "symbol"),
                    lambda beta, mode, q, b: lambda_star(b, beta, q, mode).value),
}
_COMPUTE_KEYS = {"grid", "cube_family", "beta",
                 *(key for keys, _ in _COMPUTE_OPS.values() for key in keys)}


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
    compute.add_argument("op", choices=tuple(_COMPUTE_OPS))
    compute.add_argument("--config", required=True, help="JSON config describing the inputs")
    compute.add_argument("--out", required=True, help="output path (CSV or scalar text)")
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args keeps nothing between calls."""
    return build_parser()


def _parse_cube(spec, grid) -> Cube:
    if not isinstance(spec, dict) or set(spec) != {"start", "side_cells"}:
        raise ConfigError("'cube' must be an object with keys 'start' and 'side_cells'")
    start, side = spec["start"], spec["side_cells"]
    if not isinstance(start, list) or not all(map(is_int, start)) or not is_int(side):
        raise ConfigError(f"cube start must be a list of integers and side_cells an integer, "
                          f"got {start!r} and {side!r}")
    try:
        cube = Cube(tuple(start), side)
        check_cube(grid, cube)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return cube


def _input(op: str, key: str, raw: dict, grid):
    """What config key holds for op: a cube, an exponent or a grid function."""
    if key not in raw:
        raise ConfigError(f"compute op {op!r} requires {key!r} in config")
    if key == "cube":
        return _parse_cube(raw[key], grid)
    if key == "exponent":
        return build_exponent(grid, raw[key])
    return build_function(grid, raw[key])


def _run_compute(op: str, raw: dict, out_path: str) -> None:
    check_keys(raw, _COMPUTE_KEYS, "compute config")
    dim, cells, box_origin, box_side = parse_grid(raw.get("grid", {}), 32)
    grid = make_grid(dim, cells, box_origin=box_origin, box_side=box_side)
    mode = parse_family(raw, "full")
    beta = parse_beta(raw)
    keys, compute = _COMPUTE_OPS[op]
    result = compute(beta, mode, *(_input(op, key, raw, grid) for key in keys))
    if isinstance(result, GridFunction):
        _write_atomic(out_path, lambda path: write_gridfunction_csv(result, path))
    elif callable(result):
        _write_atomic(out_path, result)
    else:
        _write_atomic(out_path, lambda path: _write_text(path, f"{result:.17g}\n"))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_atomic(path: str, write) -> None:
    """write(tmp) to a temporary file beside path, then move it onto path.

    A failed write leaves path as it was.  An existing path that is not a
    regular file (a terminal, a pipe, /dev/null) is written in place.
    """
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        return write(path)
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, target)
    except BaseException:
        if os.path.lexists(tmp):
            os.remove(tmp)
        raise


def _probe_writable(path: str) -> None:
    """Raise the OSError that writing path would raise, before any work is done."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify":
            raw = load_config(args.config) if args.config else None
            if args.out:
                _probe_writable(args.out)
            report = run_scenario(args.scenario, raw)
            text = report.render(args.format)
            if args.out:
                _write_atomic(args.out, lambda path: _write_text(path, text))
            else:
                sys.stdout.write(text)
            return 1 if report.has_failures else 0
        raw = load_config(args.config)
        _probe_writable(args.out)
        _run_compute(args.op, raw, args.out)
        return 0
    except ConfigError as exc:
        print(f"config error: {_one_line(exc)}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {_one_line(exc)}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {_one_line(exc)}", file=sys.stderr)
        return 4


def _one_line(exc: Exception) -> str:
    return " ".join(str(exc).split()) or "no message"


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
