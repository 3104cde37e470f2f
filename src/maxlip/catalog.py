"""Closed-form scalar fields and exponent fields built from config specs.

Function specs are dicts with a ``kind`` key; exponent specs use one of the
keys const / affine / step / csv.  Random fields always carry an explicit
seed so that every run is reproducible from its config echo.  A table row
per kind gives its label and its parameters in read order with defaults;
function and exponent kinds share one formula each.  Every field leaves
through one value-range check, an exponent then through validate_p.  Here
too are the config rules of every layer: ConfigError, a finite number, a
JSON integer and the known keys of an object.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .exponents import VariableExponent, validate_p
from .grid import Grid, GridFunction, read_gridfunction_csv, sample

__all__ = ["ConfigError", "build_function", "build_exponent"]


class ConfigError(ValueError):
    """A malformed or inadmissible configuration; maps to exit code 2."""


def config_number(value, context: str) -> float:
    """A finite JSON number as a float; anything else is a config error."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{context} must be finite, got {value!r}")
    return number


def is_int(value) -> bool:
    """A JSON integer; a bool is an int in Python but not one here."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_keys(spec, allowed, context: str) -> None:
    """spec must be an object with no key outside allowed."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{context} must be an object, got {spec!r}")
    unknown = set(spec) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {context}")


def _random(x, y, seed, low, high):
    if not 0.0 <= high - low < math.inf:
        raise ConfigError(f"random function needs low <= high with high - low finite, "
                          f"got [{low:g}, {high:g}]")
    return np.random.default_rng(seed).uniform(low, high, size=np.shape(x))


# Each kind's formula of the cell centres x, y (None in dim 1) and its parameters.
_FORMULAS = {
    "const": lambda x, y, value: np.full_like(x, value),
    "affine": lambda x, y, a, b: a + b * x,
    "power": lambda x, y, gamma, c: (
        np.abs(x - c[0]) if y is None else np.hypot(x - c[0], y - c[1]))**gamma,
    "step": lambda x, y, left, right, split: np.where(x < split, left, right),
    "sine": lambda x, y, amp, freq, offset: offset + amp * np.sin(2.0 * np.pi * freq * x),
    "random": _random,
}


def _seed(spec: dict, grid: Grid) -> int:
    if "seed" not in spec:
        raise ConfigError("random function spec must carry an explicit seed")
    seed = spec["seed"]
    if not is_int(seed) or seed < 0:
        raise ConfigError(f"random function seed must be a nonnegative integer, got {seed!r}")
    return seed


def _center(spec: dict, grid: Grid) -> list[float]:
    center = spec.get("center", 0.0)
    if not isinstance(center, list):
        center = [center] * grid.dim
    if len(center) < grid.dim:
        raise ConfigError(f"power function center needs {grid.dim} coordinates, got {center!r}")
    return [config_number(c, "power function center") for c in center]


# kind: (label, parameters in read order, each with its default or with the
# function that reads it from the spec).  The const exponent is its number.
_FUNCTIONS = {
    "const": ("const{value:g}", {"value": 1.0}),
    "affine": ("affine({a:g},{b:g})", {"a": 0.0, "b": 1.0}),
    "power": ("power{gamma:g}", {"gamma": 0.5, "center": _center}),
    "step": ("step", {"left": 0.0, "right": 1.0, "split": 0.5}),
    "sine": ("sine", {"amplitude": 1.0, "frequency": 1.0, "offset": 0.0}),
    "random": ("random{seed}", {"seed": _seed, "low": 0.0, "high": 1.0}),
}
_EXPONENTS = {
    "affine": ("affine({a:g},{b:g})", {"a": 2.0, "b": 0.0}),
    "step": ("step({left:g},{right:g})", {"left": 2.0, "right": 4.0, "split": 0.5}),
}


def _sampled(grid: Grid, kind: str, args, what: str) -> GridFunction:
    """The kind's formula on grid; its own refusal or a non-finite value is a config error."""
    with np.errstate(all="ignore"):
        try:
            return sample(grid, lambda x, y=None: _FORMULAS[kind](x, y, *args))
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{what}: {exc}") from exc


def _read(params: dict, spec, grid: Grid, context: str, *fixed: str) -> list:
    """The parameters of a spec in order, once its keys are checked."""
    check_keys(spec, {*fixed, *params}, context)
    return [read(spec, grid) if callable(read)
            else config_number(spec.get(key, read), f"{context} {key!r}")
            for key, read in params.items()]


def _finite_range(field: GridFunction, what: str) -> GridFunction:
    """field, unless max - min overflows: later pair differences would read inf."""
    low, high = float(field.values.min()), float(field.values.max())
    if not math.isfinite(high - low):
        raise ConfigError(f"{what}: value range [{low:g}, {high:g}] overflows a float")
    return field


def build_function(grid: Grid, spec: dict) -> GridFunction:
    """Build a grid function from a catalog spec."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"function spec must be a dict with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _FUNCTIONS:
        raise ConfigError(f"unknown function kind {kind!r}")
    what = f"{kind} function"
    args = _read(_FUNCTIONS[kind][1], spec, grid, f"{what} spec", "kind")
    return _finite_range(_sampled(grid, kind, args, what), what)


def function_label(spec: dict) -> str:
    """The label of a function spec that built."""
    label, params = _FUNCTIONS[spec["kind"]]
    return label.format(**{**params, **spec})


def build_exponent(grid: Grid, spec: dict) -> VariableExponent:
    """Build and admit an exponent field from a spec dict."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError(f"exponent spec must be a single-key dict, got {spec!r}")
    ((key, payload),) = spec.items()
    what = f"{key} exponent"
    if key == "const":
        field = _sampled(grid, key, [config_number(payload, what)], what)
    elif key in _EXPONENTS:
        field = _sampled(grid, key, _read(_EXPONENTS[key][1], payload, grid, f"{what} spec"), what)
    elif key == "csv":
        if not isinstance(payload, str):
            raise ConfigError(f"csv exponent spec needs a file path, got {payload!r}")
        try:
            field = read_gridfunction_csv(payload, grid)
        except OSError as exc:
            raise ConfigError(f"cannot read exponent csv {payload!r}: {exc}") from exc
        except (ValueError, csv.Error) as exc:
            raise ConfigError(f"bad exponent csv {payload!r}: {exc}") from exc
        what = f"exponent csv {payload!r}"
    else:
        raise ConfigError(f"unknown exponent spec key {key!r}")
    _finite_range(field, what)
    try:
        return validate_p(field)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def exponent_label(spec: dict) -> str:
    """The label of an exponent spec that built."""
    ((key, payload),) = spec.items()
    if key in _EXPONENTS:
        label, params = _EXPONENTS[key]
        return label.format(**{**params, **payload})
    return f"const{float(payload):g}" if key == "const" else key
