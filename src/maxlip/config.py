"""Scenario configuration: loading, per-scenario defaults, strict validation.

Every run is fully described by its defaulted config, which is echoed into
the report so results can be reproduced from the report alone.  The config's
shape is written once: after the scenario's name, the fields of
ScenarioConfig are the top-level keys a config may hold, in the form and
order the report echoes them, and the unknown-key check reads its keys from
them.  The grid, functions and tolerances sections are each one table of
their keys with defaults, and a section is echoed with every key filled in.
Unknown keys are rejected at every level rather than silently ignored.  The
grid, beta and cube-family parsers here serve the compute configs of the
command line too; the key, number and integer checks come from catalog.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

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

# Each section's keys with their defaults, in echo order; a grid's cells
# default per scenario.
_GRID = {"dim": 1, "cells": None, "box_origin": [0.0, 0.0], "box_side": 1.0}
_FUNCTIONS = {"b": [], "f": []}
_TOLERANCES = {"identity_tol": 1e-9}

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
    """A scenario's defaulted config: after the scenario's name, each field is
    one top-level config key as the report echoes it."""

    scenario: str
    grid: dict
    cube_family: CubeFamilyMode
    beta: float
    exponents: list[dict]
    pair_exponents: list[dict]
    functions: dict
    tolerances: dict
    stability_factor: float
    refinements: list[int]

    @property
    def functions_b(self) -> list[dict]:
        return self.functions["b"]

    @property
    def functions_f(self) -> list[dict]:
        return self.functions["f"]

    def build_grid(self, cells: int | None = None) -> Grid:
        g = self.grid
        return make_grid(g["dim"], g["cells"] if cells is None else cells, g["box_origin"],
                         g["box_side"])

    def echo(self) -> dict:
        return {**asdict(self), "cube_family": self.cube_family.value}


_KEYS = {field.name for field in fields(ScenarioConfig)} - {"scenario"}


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


def _section(raw, defaults: dict, name: str, hint: str = "") -> dict:
    """The config section under key name: raw, which must be an object with no
    key outside defaults, with every key it lacks taken from defaults."""
    if not isinstance(raw, dict):
        raise ConfigError(f"'{name}' must be an object{hint}")
    check_keys(raw, defaults, f"{name} config")
    return {**defaults, **raw}


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


def parse_grid(grid_raw, default_cells: int) -> dict:
    """Validate a 'grid' object; returns the grid section, every key filled in."""
    grid = _section(grid_raw, {**_GRID, "cells": default_cells}, "grid")
    dim, cells = grid["dim"], grid["cells"]
    if not is_int(dim) or not is_int(cells):
        raise ConfigError(f"grid dim and cells must be integers, got {dim!r} and {cells!r}")
    box_side = grid["box_side"] = config_number(grid["box_side"], "grid box_side")
    origin = grid["box_origin"]
    if not isinstance(origin, list):
        origin = [origin] * 2
    grid["box_origin"] = [config_number(c, "grid box_origin") for c in origin]
    try:
        h = make_grid(dim, cells, grid["box_origin"], box_side).spacing
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # Cube measures and averages scale by h^dim; below the normal range they
    # lose their relative precision.  h^dim <= h for h < 1, and h >= 1 is not
    # raised to a power that might overflow.
    if h < 1.0 and h**dim < _TINY:
        raise ConfigError(f"grid box_side {box_side:g} over {cells} cells gives a cell measure "
                          f"h^{dim} = {h**dim:g}, below the smallest normal float {_TINY:g}")
    return grid


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
    check_keys(raw, _KEYS, "config")
    defaults = _SCENARIO_DEFAULTS[scenario]

    grid = parse_grid(raw.get("grid", {}), defaults["cells"])
    cube_family = parse_family(raw, defaults["cube_family"])
    beta = parse_beta(raw)

    exponents = raw.get("exponents", defaults.get("exponents"))
    if exponents is None:
        exponents = [{"const": 2.0}, {"affine": {"a": 2.0, "b": 1.0}}]
    pair_exponents = raw.get("pair_exponents", _default_pair_exponents(grid["dim"], beta))
    for key, bank in (("exponents", exponents), ("pair_exponents", pair_exponents)):
        if not isinstance(bank, list) or not bank:
            raise ConfigError(f"'{key}' must be a nonempty list of exponent specs")

    functions = _section(raw.get("functions", defaults.get("functions", _default_functions(beta))),
                         _FUNCTIONS, "functions", " with keys 'b' and 'f'")
    if not all(isinstance(bank, list) for bank in functions.values()):
        raise ConfigError("function banks 'b' and 'f' must be lists of function specs")

    tolerances = _section(raw.get("tolerances", {}), _TOLERANCES, "tolerances")
    tolerances["identity_tol"] = config_number(tolerances["identity_tol"], "identity_tol")
    if tolerances["identity_tol"] < 0.0:
        raise ConfigError("tolerances must be nonnegative")

    stability_factor = config_number(raw.get("stability_factor", 3.0), "stability_factor")
    if stability_factor <= 1.0:
        raise ConfigError(f"stability_factor must exceed 1, got {stability_factor}")

    refinements = raw.get("refinements", defaults.get("refinements", [grid["cells"]]))
    if not isinstance(refinements, list) or not refinements:
        raise ConfigError("'refinements' must be a nonempty list of cell counts")
    for n in refinements:
        if not is_int(n) or n < 2:
            raise ConfigError(f"refinement cell counts must be integers >= 2, got {n!r}")
    if any(b <= a for a, b in zip(refinements, refinements[1:])):
        raise ConfigError("'refinements' must be strictly increasing")

    for n in refinements if scenario in _REFINED else [grid["cells"]]:
        count = cube_cells(grid["dim"], n, cube_family)
        if count > MAX_CUBE_CELLS:
            raise ConfigError(
                f"grid too large: {scenario} would sweep the {cube_family.value} cube family of "
                f"a {grid['dim']}-D grid with N = {n}, {count} cube cells, above the limit of "
                f"{MAX_CUBE_CELLS}")

    return ScenarioConfig(scenario, grid, cube_family, beta, exponents, pair_exponents, functions,
                          tolerances, stability_factor, refinements)
