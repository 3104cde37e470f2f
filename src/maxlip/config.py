"""Scenario configuration: loading, per-scenario defaults, strict validation.

Every run is fully described by its defaulted config, which is echoed into
the report so results can be reproduced from the report alone.  Unknown keys
are rejected at every level rather than silently ignored.  The grid, beta and
cube-family parsers here serve the compute configs of the command line too;
the key, number and integer checks come from catalog.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .catalog import ConfigError, check_keys, config_number, is_int
from .grid import CubeFamilyMode, Grid, family_sides, make_grid

__all__ = ["KNOWN_SCENARIOS", "ScenarioConfig", "load_config", "parse_config"]

KNOWN_SCENARIOS = (
    "lemmas",
    "identities",
    "theorem1",
    "theorem2",
    "theorem3",
    "normequiv",
    "counterexamples",
    "all",
)

_TOP_KEYS = {
    "grid",
    "cube_family",
    "beta",
    "exponents",
    "pair_exponents",
    "functions",
    "tolerances",
    "stability_factor",
    "refinements",
}
_GRID_KEYS = {"dim", "cells", "box_origin", "box_side"}
_TOL_KEYS = {"identity_tol"}
_FUN_KEYS = {"b", "f"}

# The most cube cells, the sum over the family's sides k of (N-k+1)^dim k^dim,
# that a grid of a scenario may have: every cube's cells, as the per-cube
# sweeps lay them out in rows (8 bytes a cell, 32 MiB at the limit).  The
# largest default is normequiv's 1-D N=128 full family, 357,760 cells.
MAX_CUBE_CELLS = 1 << 22

# The scenarios that build a grid per refinement instead of one of 'cells'.
_REFINED = ("normequiv", "counterexamples")

_SCENARIO_DEFAULTS: dict[str, dict] = {
    "lemmas": {"cells": 32, "cube_family": "full"},
    "identities": {"cells": 32, "cube_family": "full"},
    "theorem1": {"cells": 32, "cube_family": "dyadic"},
    "theorem2": {"cells": 32, "cube_family": "dyadic"},
    "theorem3": {"cells": 32, "cube_family": "dyadic"},
    "normequiv": {
        "cells": 32,
        "cube_family": "full",
        "refinements": [32, 64, 128],
        "exponents": [
            {"const": 2.0},
            {"const": 4.0},
            {"step": {"left": 2.0, "right": 3.0, "split": 0.5}},
            {"affine": {"a": 2.0, "b": 1.0}},
        ],
        "functions": {"b": [{"kind": "affine", "a": 0.0, "b": 1.0}], "f": []},
    },
    "counterexamples": {
        "cells": 32,
        "cube_family": "dyadic",
        "refinements": [32, 64, 128, 256],
        "exponents": [{"const": 2.0}],
        "functions": {
            "b": [
                {"kind": "const", "value": -1.0},
                {"kind": "step", "left": 0.0, "right": 1.0, "split": 0.5},
            ],
            "f": [],
        },
    },
    "all": {"cells": 32, "cube_family": "full"},
}


@dataclass
class ScenarioConfig:
    scenario: str
    dim: int
    cells: int
    box_origin: tuple[float, ...]
    box_side: float
    cube_family: CubeFamilyMode
    beta: float
    exponents: list[dict]
    pair_exponents: list[dict]
    functions_b: list[dict]
    functions_f: list[dict]
    identity_tol: float
    stability_factor: float
    refinements: list[int]

    def build_grid(self, cells: int | None = None) -> Grid:
        n = self.cells if cells is None else cells
        return make_grid(self.dim, n, box_origin=self.box_origin, box_side=self.box_side)

    def echo(self) -> dict:
        return {
            "scenario": self.scenario,
            "grid": {
                "dim": self.dim,
                "cells": self.cells,
                "box_origin": list(self.box_origin),
                "box_side": self.box_side,
            },
            "cube_family": self.cube_family.value,
            "beta": self.beta,
            "exponents": self.exponents,
            "pair_exponents": self.pair_exponents,
            "functions": {"b": self.functions_b, "f": self.functions_f},
            "tolerances": {"identity_tol": self.identity_tol},
            "stability_factor": self.stability_factor,
            "refinements": self.refinements,
        }


def load_config(path: str) -> dict:
    """Read a JSON config file; any read or parse failure is a config error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def _default_pair_exponents(dim: int, beta: float) -> list[dict]:
    # Keeps 1 < p and p_+ < dim/beta so the Sobolev-type pair exists.
    d = dim / beta - 1.0
    return [
        {"const": (1.0 + dim / beta) / 2.0},
        {"affine": {"a": 1.0 + d / 4.0, "b": d / 4.0}},
    ]


def _default_functions(beta: float) -> dict:
    return {
        "b": [
            {"kind": "affine", "a": 0.0, "b": 1.0},
            {"kind": "power", "gamma": beta, "center": 0.0},
            {"kind": "sine", "amplitude": 1.0, "frequency": 1.0, "offset": 0.0},
            {"kind": "random", "seed": 7, "low": 0.0, "high": 1.0},
        ],
        "f": [
            {"kind": "const", "value": 1.0},
            {"kind": "step", "left": 0.5, "right": 2.0, "split": 0.5},
            {"kind": "random", "seed": 11, "low": 0.5, "high": 1.5},
        ],
    }


_TINY = float(np.finfo(float).tiny)


def parse_grid(grid_raw, default_cells: int) -> tuple[int, int, tuple[float, ...], float]:
    """Validate a 'grid' object; returns dim, cells, box_origin and box_side."""
    if not isinstance(grid_raw, dict):
        raise ConfigError("'grid' must be an object")
    check_keys(grid_raw, _GRID_KEYS, "grid config")
    dim = grid_raw.get("dim", 1)
    cells = grid_raw.get("cells", default_cells)
    if not is_int(dim) or not is_int(cells):
        raise ConfigError(f"grid dim and cells must be integers, got {dim!r} and {cells!r}")
    box_side = config_number(grid_raw.get("box_side", 1.0), "grid box_side")
    origin_raw = grid_raw.get("box_origin", [0.0, 0.0])
    if not isinstance(origin_raw, list):
        origin_raw = [origin_raw] * 2
    box_origin = tuple(config_number(c, "grid box_origin") for c in origin_raw)
    try:
        h = make_grid(dim, cells, box_origin=box_origin, box_side=box_side).spacing
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # Cube measures and averages scale by h^dim; below the normal range they
    # lose their relative precision.  h^dim <= h for h < 1, and h >= 1 is not
    # raised to a power that might overflow.
    if h < 1.0 and h**dim < _TINY:
        raise ConfigError(f"grid box_side {box_side:g} over {cells} cells gives a cell measure "
                          f"h^{dim} = {h**dim:g}, below the smallest normal float {_TINY:g}")
    return dim, cells, box_origin, box_side


def cube_cells(dim: int, n: int, mode: CubeFamilyMode) -> int:
    """Cells of every cube of the family on a dim-D grid of N = n cells per axis."""
    return sum((n - k + 1) ** dim * k**dim for k in family_sides(n, mode))


def parse_beta(raw: dict) -> float:
    """The smoothness order 'beta' of a config object, in (0, 1), default 0.5."""
    beta = config_number(raw.get("beta", 0.5), "beta")
    if not 0.0 < beta < 1.0:
        raise ConfigError(f"beta must lie in (0, 1), got {beta}")
    return beta


def parse_family(raw: dict, default: str) -> CubeFamilyMode:
    """The 'cube_family' of a config object, default when it has none."""
    try:
        return CubeFamilyMode.parse(raw.get("cube_family", default))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(scenario: str, raw: dict | None) -> ScenarioConfig:
    """Overlay user config on scenario defaults and validate everything."""
    if scenario not in KNOWN_SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; expected one of {KNOWN_SCENARIOS}")
    raw = {} if raw is None else raw
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    check_keys(raw, _TOP_KEYS, "config")
    defaults = _SCENARIO_DEFAULTS[scenario]

    dim, cells, box_origin, box_side = parse_grid(raw.get("grid", {}), defaults["cells"])

    cube_family = parse_family(raw, defaults["cube_family"])
    beta = parse_beta(raw)

    exponents = raw.get("exponents", defaults.get("exponents"))
    if exponents is None:
        exponents = [{"const": 2.0}, {"affine": {"a": 2.0, "b": 1.0}}]
    pair_exponents = raw.get("pair_exponents", _default_pair_exponents(dim, beta))
    if not isinstance(exponents, list) or not exponents:
        raise ConfigError("'exponents' must be a nonempty list of exponent specs")
    if not isinstance(pair_exponents, list) or not pair_exponents:
        raise ConfigError("'pair_exponents' must be a nonempty list of exponent specs")

    functions = raw.get("functions", defaults.get("functions", _default_functions(beta)))
    if not isinstance(functions, dict):
        raise ConfigError("'functions' must be an object with keys 'b' and 'f'")
    check_keys(functions, _FUN_KEYS, "functions config")
    functions_b = functions.get("b", [])
    functions_f = functions.get("f", [])
    if not isinstance(functions_b, list) or not isinstance(functions_f, list):
        raise ConfigError("function banks 'b' and 'f' must be lists of function specs")

    tol_raw = raw.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        raise ConfigError("'tolerances' must be an object")
    check_keys(tol_raw, _TOL_KEYS, "tolerances config")
    identity_tol = config_number(tol_raw.get("identity_tol", 1e-9), "identity_tol")
    if identity_tol < 0.0:
        raise ConfigError("tolerances must be nonnegative")

    stability_factor = config_number(raw.get("stability_factor", 3.0), "stability_factor")
    if stability_factor <= 1.0:
        raise ConfigError(f"stability_factor must exceed 1, got {stability_factor}")

    refinements = raw.get("refinements", defaults.get("refinements", [cells]))
    if not isinstance(refinements, list) or not refinements:
        raise ConfigError("'refinements' must be a nonempty list of cell counts")
    for n in refinements:
        if not is_int(n) or n < 2:
            raise ConfigError(f"refinement cell counts must be integers >= 2, got {n!r}")
    if any(b <= a for a, b in zip(refinements, refinements[1:])):
        raise ConfigError("'refinements' must be strictly increasing")

    for n in refinements if scenario in _REFINED else [cells]:
        count = cube_cells(dim, n, cube_family)
        if count > MAX_CUBE_CELLS:
            raise ConfigError(
                f"grid too large: {scenario} would sweep the {cube_family.value} cube family of "
                f"a {dim}-D grid with N = {n}, {count} cube cells, above the limit of "
                f"{MAX_CUBE_CELLS}")

    return ScenarioConfig(
        scenario=scenario,
        dim=dim,
        cells=cells,
        box_origin=box_origin,
        box_side=box_side,
        cube_family=cube_family,
        beta=beta,
        exponents=exponents,
        pair_exponents=pair_exponents,
        functions_b=functions_b,
        functions_f=functions_f,
        identity_tol=identity_tol,
        stability_factor=stability_factor,
        refinements=refinements,
    )
