"""Closed-form scalar fields and exponent fields built from config specs.

Function specs are dicts with a ``kind`` key; exponent specs use one of the
keys const / affine / step / csv.  Random fields always carry an explicit
seed so that every run is reproducible from its config echo.
"""

from __future__ import annotations

import csv
import math

import numpy as np

from .exponents import VariableExponent, validate_p
from .grid import Grid, GridFunction, read_gridfunction_csv, sample


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


def _param(spec: dict, key: str, default: float, context: str) -> float:
    return config_number(spec.get(key, default), f"{context} {key!r}")


def _require_keys(spec, allowed: set[str], context: str) -> None:
    if not isinstance(spec, dict):
        raise ConfigError(f"{context} must be an object, got {spec!r}")
    unknown = set(spec) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {context}")


def _finite_range(field: GridFunction, what: str) -> GridFunction:
    """field, unless max - min overflows: every pair difference taken later
    (sweeps, oscillations) would then warn and read inf, so it is a config
    error."""
    low, high = float(field.values.min()), float(field.values.max())
    if not math.isfinite(high - low):
        raise ConfigError(f"{what}: value range [{low:g}, {high:g}] overflows a float")
    return field


def _sampled(grid: Grid, formula, what: str) -> GridFunction:
    """sample(grid, formula); a non-finite value or range is a config error,
    so numpy's warnings on the way to it are silenced."""
    with np.errstate(all="ignore"):
        try:
            field = sample(grid, formula)
        except ValueError as exc:
            raise ConfigError(f"{what}: {exc}") from exc
    return _finite_range(field, what)


def build_function(grid: Grid, spec: dict) -> GridFunction:
    """Build a grid function from a catalog spec."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"function spec must be a dict with a 'kind' key, got {spec!r}")
    kind = spec["kind"]
    what = f"{kind} function"
    if kind == "const":
        _require_keys(spec, {"kind", "value"}, "const function spec")
        value = _param(spec, "value", 1.0, "const function spec")
        return _sampled(grid, (lambda x, y=None: np.full_like(x, value)), what)
    if kind == "affine":
        _require_keys(spec, {"kind", "a", "b"}, "affine function spec")
        a = _param(spec, "a", 0.0, "affine function spec")
        b = _param(spec, "b", 1.0, "affine function spec")
        return _sampled(grid, (lambda x, y=None: a + b * x), what)
    if kind == "power":
        _require_keys(spec, {"kind", "center", "gamma"}, "power function spec")
        gamma = _param(spec, "gamma", 0.5, "power function spec")
        center = spec.get("center", 0.0)
        if not isinstance(center, list):
            center = [center] * grid.dim
        if len(center) < grid.dim:
            raise ConfigError(f"power function center needs {grid.dim} coordinates, got {center!r}")
        center = [config_number(c, "power function center") for c in center]
        if grid.dim == 1:
            return _sampled(grid, lambda x: np.abs(x - center[0]) ** gamma, what)
        return _sampled(grid, lambda x, y: np.hypot(x - center[0], y - center[1]) ** gamma, what)
    if kind == "step":
        _require_keys(spec, {"kind", "left", "right", "split"}, "step function spec")
        left = _param(spec, "left", 0.0, "step function spec")
        right = _param(spec, "right", 1.0, "step function spec")
        split = _param(spec, "split", 0.5, "step function spec")
        return _sampled(grid, (lambda x, y=None: np.where(x < split, left, right)), what)
    if kind == "sine":
        _require_keys(spec, {"kind", "amplitude", "frequency", "offset"}, "sine function spec")
        amp = _param(spec, "amplitude", 1.0, "sine function spec")
        freq = _param(spec, "frequency", 1.0, "sine function spec")
        off = _param(spec, "offset", 0.0, "sine function spec")
        return _sampled(grid, lambda x, y=None: off + amp * np.sin(2.0 * np.pi * freq * x), what)
    if kind == "random":
        _require_keys(spec, {"kind", "seed", "low", "high"}, "random function spec")
        if "seed" not in spec:
            raise ConfigError("random function spec must carry an explicit seed")
        seed = spec["seed"]
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ConfigError(f"random function seed must be a nonnegative integer, got {seed!r}")
        rng = np.random.default_rng(seed)
        low = _param(spec, "low", 0.0, "random function spec")
        high = _param(spec, "high", 1.0, "random function spec")
        if not 0.0 <= high - low < math.inf:
            raise ConfigError(f"random function needs low <= high with high - low finite, "
                              f"got [{low:g}, {high:g}]")
        return GridFunction(grid, rng.uniform(low, high, size=grid.shape))
    raise ConfigError(f"unknown function kind {kind!r}")


def function_label(spec: dict) -> str:
    kind = spec.get("kind", "?")
    if kind == "const":
        return f"const{spec.get('value', 1.0):g}"
    if kind == "affine":
        return f"affine({spec.get('a', 0.0):g},{spec.get('b', 1.0):g})"
    if kind == "power":
        return f"power{spec.get('gamma', 0.5):g}"
    if kind == "step":
        return "step"
    if kind == "sine":
        return "sine"
    if kind == "random":
        return f"random{spec.get('seed', 0)}"
    return str(kind)


def build_exponent(grid: Grid, spec: dict) -> VariableExponent:
    """Build and admit an exponent field from a spec dict."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError(f"exponent spec must be a single-key dict, got {spec!r}")
    ((key, payload),) = spec.items()
    if key == "const":
        value = config_number(payload, "const exponent")
        field = _sampled(grid, (lambda x, y=None: np.full_like(x, value)), "const exponent")
    elif key == "affine":
        _require_keys(payload, {"a", "b"}, "affine exponent spec")
        a = _param(payload, "a", 2.0, "affine exponent spec")
        b = _param(payload, "b", 0.0, "affine exponent spec")
        field = _sampled(grid, (lambda x, y=None: a + b * x), "affine exponent")
    elif key == "step":
        _require_keys(payload, {"left", "right", "split"}, "step exponent spec")
        left = _param(payload, "left", 2.0, "step exponent spec")
        right = _param(payload, "right", 4.0, "step exponent spec")
        split = _param(payload, "split", 0.5, "step exponent spec")
        field = _sampled(grid, (lambda x, y=None: np.where(x < split, left, right)),
                         "step exponent")
    elif key == "csv":
        if not isinstance(payload, str):
            raise ConfigError(f"csv exponent spec needs a file path, got {payload!r}")
        try:
            field = read_gridfunction_csv(payload, grid)
        except OSError as exc:
            raise ConfigError(f"cannot read exponent csv {payload!r}: {exc}") from exc
        except (ValueError, csv.Error) as exc:
            raise ConfigError(f"bad exponent csv {payload!r}: {exc}") from exc
        _finite_range(field, f"exponent csv {payload!r}")
    else:
        raise ConfigError(f"unknown exponent spec key {key!r}")
    try:
        return validate_p(field)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def exponent_label(spec: dict) -> str:
    ((key, payload),) = spec.items()
    if key == "const":
        return f"const{float(payload):g}"
    if key == "affine":
        return f"affine({payload.get('a', 2.0):g},{payload.get('b', 0.0):g})"
    if key == "step":
        return f"step({payload.get('left', 2.0):g},{payload.get('right', 4.0):g})"
    return key
