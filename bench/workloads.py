"""The three workloads: their operation lists, inputs and output checks.

An operation is one call into the program: ``maxlip.cli.main`` for
``verify`` and ``compute``, ``maxlip.operators.oracle_check`` for
``oracle``.  Calls go through the module attribute at call time, so the
tracer's wrappers see them.  Every operation carries a check that judges
its output with the computations in ``independent.py`` or against a
property the method must have; the check runs outside the timed region.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import independent as ind

ORACLE_TOL = 1e-12
COMPUTE_TOL = 1e-12
LUX_CLOSED_REL = 1e-10  # closed-form Luxemburg norms, as the acceptance gate pins them
LUX_MODULAR_TOL = 1e-10
SWEEP_REL = 1e-10  # ratio of two bisected norms, each to 1e-12 relative

TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')

SCENARIOS = ("identities", "lemmas", "theorem1", "theorem2", "theorem3", "normequiv",
             "counterexamples")


@dataclass
class Op:
    """One operation of a workload.

    ``call`` is the timed call.  ``check`` gets its return value (or the
    exception it raised) and returns None when the output is right, else a
    one-line reason.  ``fault`` names a known fault of the program that
    makes this operation fail until it is mended; such operations are
    counted but kept out of every time metric.
    """

    name: str
    group: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    fault: str | None = None


def _cli():
    import maxlip.cli

    return maxlip.cli


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return path


def _same_as_first(first: dict, text: str) -> str | None:
    """Repeats of an operation must give byte-identical output."""
    seen = first.setdefault("text", text)
    return None if seen == text else "output differs from the first repeat"


# ---------------------------------------------------------------------------
# verify: every default scenario, split into parts along its banks.

# Known faults, each a verify run whose correct exit code is stated:
# (name, scenario, config overlay, expected exit code, what happens today).
KNOWN_FAULTS = (
    ("lemmas-empty-banks", "lemmas",
     {"grid": {"cells": 8}, "functions": {"b": [], "f": []}}, 0,
     "the -1.0 worst-case sentinel leaks into 6 hard rows; exits 1"),
    ("null-box-origin", "lemmas", {"grid": {"box_origin": None}}, 2,
     "raises TypeError"),
    ("affine-exponent-list", "lemmas", {"exponents": [{"affine": [1, 2]}]}, 2,
     "raises AttributeError"),
    ("nan-identity-tol", "lemmas",
     {"grid": {"cells": 8}, "tolerances": {"identity_tol": math.nan}}, 2,
     "27 of 30 rows fail; exits 1"),
)


def verify_parts() -> list[tuple[str, str, dict | None]]:
    """(scenario, part label, config overlay) for every part of the default pass.

    A part selects some of its scenario's default banks; the rows of a
    scenario's parts together are the rows of its default run.  Identities
    and theorem3 run whole: every identities run repeats its indicator job,
    and every theorem3 run with an f bank repeats its fractional job.
    """
    from maxlip import parse_config

    parts: list[tuple[str, str, dict | None]] = [("identities", "all", None)]
    lemmas = parse_config("lemmas", None)
    if len(lemmas.exponents) != len(lemmas.pair_exponents):
        raise ValueError("lemmas parts pair each exponent with one pair exponent")
    for i, (q, p) in enumerate(zip(lemmas.exponents, lemmas.pair_exponents)):
        parts.append(("lemmas", f"q{i}", {"exponents": [q], "pair_exponents": [p]}))
    for scenario in ("theorem1", "theorem2"):
        cfg = parse_config(scenario, None)
        for i, b in enumerate(cfg.functions_b):
            parts.append((scenario, f"b{i}", {"functions": {"b": [b], "f": cfg.functions_f}}))
    parts.append(("theorem3", "all", None))
    normequiv = parse_config("normequiv", None)
    for i, q in enumerate(normequiv.exponents):
        parts.append(("normequiv", f"q{i}", {"exponents": [q]}))
    counter = parse_config("counterexamples", None)
    for i, b in enumerate(counter.functions_b):
        parts.append(("counterexamples", f"b{i}",
                      {"functions": {"b": [b], "f": counter.functions_f}}))
    return parts


def _closed_form_rows(data: dict) -> str | None:
    """Recompute the report rows that have a closed form."""
    cfg = data["config"]
    if data["scenario"] != "counterexamples":
        return None
    beta = cfg["beta"]
    side = cfg["grid"]["box_side"]
    consts = [abs(float(s["value"])) for s in cfg["functions"]["b"] if s.get("kind") == "const"]
    for row in data["checks"]:
        rid = row["check_id"]
        kind = rid.split("/")[1]
        if kind in ("lambda-star-const", "lambda-sharp-const"):
            n = int(rid.rsplit("/N", 1)[1])
            target = 2.0 * consts[0] * (side / n) ** (-beta)
            if not ind.close(row["lhs"], target, 1e-9) or not ind.close(row["rhs"], target, 1e-12):
                return f"{rid}: lhs {row['lhs']!r}, expected 2|c| h^-beta = {target!r}"
        elif kind in ("lip-const", "lambda-var-const", "lambda-star-zero"):
            if row["lhs"] != 0.0 and not (kind == "lambda-var-const" and abs(row["lhs"]) <= 1e-9):
                return f"{rid}: lhs {row['lhs']!r}, expected 0"
        elif kind == "star-growth" and consts:
            n1, n2 = (int(t) for t in rid.rsplit("/N", 1)[1].split("-N"))
            if not ind.close(row["lhs"], (n2 / n1) ** beta, 1e-9):
                return f"{rid}: lhs {row['lhs']!r}, expected (N2/N1)^beta"
    return None


def _check_report(first: dict, out: Path, code) -> str | None:
    if code != 0:
        return f"exit {code!r}, expected 0"
    text = out.read_text(encoding="utf-8")
    data = json.loads(text)
    failed = [r["check_id"] for r in data["checks"] if r["status"] == "fail"]
    if failed:
        return f"{len(failed)} hard rows failed, first {failed[0]}"
    problem = _closed_form_rows(data)
    if problem:
        return problem
    return _same_as_first(first, TIMESTAMP.sub("", text))


def verify_ops(work: Path, seed: int) -> list[Op]:
    """Every default scenario in parts, plus the known-failing runs."""
    del seed  # the inputs are the scenario defaults; the seed only orders the rounds
    ops = []
    for scenario, label, overlay in verify_parts():
        name = f"{scenario}/{label}"
        out = work / f"verify-{scenario}-{label}.json"
        argv = ["verify", scenario, "--out", str(out)]
        if overlay is not None:
            cfg = _write_json(work / f"verify-{scenario}-{label}.config.json", overlay)
            argv += ["--config", str(cfg)]
        ops.append(Op(name, scenario, lambda argv=argv: _cli().main(argv),
                      functools.partial(_check_report, {}, out)))
    for name, scenario, overlay, expected, fault in KNOWN_FAULTS:
        cfg = _write_json(work / f"fault-{name}.config.json", overlay)
        out = work / f"fault-{name}.json"
        argv = ["verify", scenario, "--config", str(cfg), "--out", str(out)]

        def check(code, expected=expected, out=out) -> str | None:
            if isinstance(code, BaseException):
                return f"raised {type(code).__name__}: {code}"
            if code != expected:
                return f"exit {code}, expected {expected}"
            if expected == 0:
                data = json.loads(out.read_text(encoding="utf-8"))
                if any(r["status"] == "fail" for r in data["checks"]):
                    return "hard rows failed"
            return None

        ops.append(Op(f"fault/{name}", "fault", lambda argv=argv: _cli().main(argv), check,
                      fault=fault))
    return ops


# ---------------------------------------------------------------------------
# compute: single large calls, output written to CSV or a scalar file.

def _centers(n: int, side: float = 1.0) -> np.ndarray:
    return (np.arange(n) + 0.5) * (side / n)


def _field(spec: dict, dim: int, n: int) -> np.ndarray:
    """The values a function or exponent spec denotes, computed here."""
    shape = (n,) * dim
    x = _centers(n) if dim == 1 else np.meshgrid(_centers(n), _centers(n), indexing="ij")[0]
    if "kind" in spec:
        kind = spec["kind"]
        if kind == "random":
            rng = np.random.default_rng(spec["seed"])
            return rng.uniform(spec["low"], spec["high"], size=shape)
        if kind == "const":
            return np.full(shape, float(spec["value"]))
        if kind == "affine":
            return spec["a"] + spec["b"] * x
    if "const" in spec:
        return np.full(shape, float(spec["const"]))
    if "affine" in spec:
        return spec["affine"]["a"] + spec["affine"]["b"] * x
    raise ValueError(f"no closed form for spec {spec!r}")


def _read_csv(path: Path, dim: int, m: int, start=(0, 0)) -> np.ndarray:
    """A grid CSV as written by maxlip, for the side-m block at ``start``."""
    vals = np.full((m,) * dim, np.nan)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        vals[tuple(int(v) - s for v, s in zip(row[:dim], start))] = float(row[dim])
    if np.isnan(vals).any():
        raise ValueError(f"{path.name}: cells missing")
    return vals


def _sample_cells(rng: np.random.Generator, dim: int, n: int, count: int) -> list[tuple[int, ...]]:
    return [tuple(int(c) for c in rng.integers(0, n, size=dim)) for _ in range(count)]


# (name, op, dim, N, family): the compute operation list.
COMPUTE_CASES = (
    ("hl-1d-512-full", "hl", 1, 512, "full"),
    ("hl-1d-4096-dyadic", "hl", 1, 4096, "dyadic"),
    ("hl-2d-32-full", "hl", 2, 32, "full"),
    ("sharp-1d-256-full", "sharp", 1, 256, "full"),
    ("sharp-2d-32-dyadic", "sharp", 2, 32, "dyadic"),
    ("frac-1d-512-full", "frac", 1, 512, "full"),
    ("frac-2d-64-dyadic", "frac", 2, 64, "dyadic"),
    ("maxcomm-1d-256-full", "maxcomm", 1, 256, "full"),
    ("maxcomm-2d-16-full", "maxcomm", 2, 16, "full"),
    ("comm-m-1d-1024-dyadic", "comm-m", 1, 1024, "dyadic"),
    ("comm-m-2d-32-full", "comm-m", 2, 32, "full"),
    ("comm-sharp-1d-128-full", "comm-sharp", 1, 128, "full"),
    ("comm-sharp-2d-16-full", "comm-sharp", 2, 16, "full"),
    ("local-1d-4096", "local", 1, 4096, "full"),
    ("local-2d-64", "local", 2, 64, "full"),
    ("lux-1d-4096-const", "lux", 1, 4096, "full"),
    ("lux-2d-64-affine", "lux", 2, 64, "full"),
    ("lip-1d-4096-affine", "lip", 1, 4096, "full"),
    ("lip-2d-64-affine", "lip", 2, 64, "full"),
    ("lambda-var-1d-128-dyadic", "lambda-var", 1, 128, "dyadic"),
    ("lambda-var-2d-16-full", "lambda-var", 2, 16, "full"),
    ("lambda-star-1d-128-dyadic", "lambda-star", 1, 128, "dyadic"),
    ("lambda-star-2d-16-dyadic", "lambda-star", 2, 16, "dyadic"),
)

CHECK_CELLS = 8  # maximal commutator cells checked per output
BETA = 0.5


def _compute_inputs(op: str, dim: int, n: int, family: str, rng) -> dict:
    """The config of one compute operation, drawn from the seeded rng."""
    def random_fn():
        return {"kind": "random", "seed": int(rng.integers(1 << 30)), "low": -1.0, "high": 1.0}

    cfg: dict = {"grid": {"dim": dim, "cells": n}, "cube_family": family, "beta": BETA}
    if op in ("hl", "sharp", "frac"):
        cfg["function"] = random_fn()
    elif op in ("maxcomm", "comm-m", "comm-sharp"):
        cfg["symbol"] = random_fn()
        cfg["function"] = random_fn()
    elif op == "local":
        m = n // 16 if dim == 1 else n // 4
        cfg["symbol"] = random_fn()
        cfg["cube"] = {"start": [int(s) for s in rng.integers(0, n - m + 1, size=dim)],
                       "side_cells": m}
    elif op == "lux":
        cfg["function"] = random_fn()
        if dim == 1:
            cfg["exponent"] = {"const": float(rng.uniform(1.5, 4.0))}
        else:
            cfg["exponent"] = {"affine": {"a": float(rng.uniform(1.5, 2.5)),
                                          "b": float(rng.uniform(0.5, 1.5))}}
    elif op == "lip":
        cfg["symbol"] = {"kind": "affine", "a": float(rng.uniform(-1, 1)),
                         "b": float(rng.uniform(0.5, 2.0))}
    elif op == "lambda-var":
        cfg["symbol"] = random_fn()
        cfg["exponent"] = {"affine": {"a": 2.0, "b": float(rng.uniform(0.5, 1.5))}}
    elif op == "lambda-star":
        cfg["symbol"] = {"kind": "const", "value": -float(rng.uniform(0.5, 2.0))}
        cfg["exponent"] = {"const": float(rng.uniform(1.5, 4.0))}
    return cfg


def _expected_field(op: str, cfg: dict, dim: int, n: int) -> np.ndarray:
    """The whole output of a grid operator, brute force over every cube."""
    family = cfg["cube_family"]
    if op in ("hl", "sharp", "frac"):
        f = _field(cfg["function"], dim, n)
        if op == "hl":
            return ind.maximal(f, family)
        if op == "frac":
            return ind.maximal(f, family, lambda k: (k / n) ** cfg["beta"])
        return ind.sharp(f, family)
    b = _field(cfg["symbol"], dim, n)
    f = _field(cfg["function"], dim, n)
    if op == "comm-m":
        return b * ind.maximal(f, family) - ind.maximal(b * f, family)
    if op == "comm-sharp":
        return b * ind.sharp(f, family) - ind.sharp(b * f, family)
    raise ValueError(op)


def _check_compute(first: dict, kind: str, cfg: dict, out: Path, cells, code) -> str | None:
    if code != 0:
        return f"exit {code!r}, expected 0"
    text = out.read_text(encoding="utf-8")
    if first:  # a repeat: the first output was checked in full
        return _same_as_first(first, text)
    first["text"] = text
    dim, n = cfg["grid"]["dim"], cfg["grid"]["cells"]
    if kind == "local":
        m = cfg["cube"]["side_cells"]
        start = tuple(cfg["cube"]["start"])
        got = _read_csv(out, dim, m, start)
        return _compare(got, ind.local_maximal(_field(cfg["symbol"], dim, n), start, m))
    if kind == "maxcomm":
        got = _read_csv(out, dim, n)
        b = _field(cfg["symbol"], dim, n)
        f = _field(cfg["function"], dim, n)
        expected = np.array([ind.max_commutator_at(b, f, c, cfg["cube_family"]) for c in cells])
        return _compare(np.array([got[c] for c in cells]), expected, cells)
    if kind in ("hl", "sharp", "frac", "comm-m", "comm-sharp"):
        return _compare(_read_csv(out, dim, n), _expected_field(kind, cfg, dim, n))
    value = float(text)
    h = 1.0 / n
    if kind == "lux":
        f = _field(cfg["function"], dim, n)
        p = _field(cfg["exponent"], dim, n)
        phi = ind.modular(f, p, h**dim, value)
        if abs(phi - 1.0) > LUX_MODULAR_TOL:
            return f"modular at the norm is {phi!r}, expected 1"
        if "const" in cfg["exponent"]:
            pc = cfg["exponent"]["const"]
            closed = ind.modular(f, p, h**dim, 1.0) ** (1.0 / pc)
            if abs(value - closed) > LUX_CLOSED_REL * closed:
                return f"norm {value!r}, closed form {closed!r}"
        return None
    if kind == "lip":
        slope = abs(cfg["symbol"]["b"])
        expected = slope * ((n - 1) * h) ** (1.0 - cfg["beta"])
        return None if ind.close(value, expected, COMPUTE_TOL) else (
            f"Lip {value!r}, affine closed form {expected!r}")
    if kind == "lambda-var":
        b = _field(cfg["symbol"], dim, n)
        bound = dim ** (cfg["beta"] / 2) * ind.holder_seminorm(b, cfg["beta"], h)
        return None if 0.0 < value <= bound * (1.0 + 1e-9) else (
            f"lambda_var {value!r} outside (0, dim^(beta/2) Lip_beta = {bound!r}]")
    if kind == "lambda-star":
        c = abs(cfg["symbol"]["value"])
        target = 2.0 * c * h ** (-cfg["beta"])
        return None if ind.close(value, target, SWEEP_REL) else (
            f"lambda_star {value!r}, expected 2|c| h^-beta = {target!r}")
    raise ValueError(kind)


def _compare(got: np.ndarray, expected: np.ndarray, cells=None) -> str | None:
    """Every value within COMPUTE_TOL * (1 + |expected|) of the brute force."""
    bad = np.argwhere(np.abs(got - expected) > COMPUTE_TOL * (1.0 + np.abs(expected)))
    if not len(bad):
        return None
    i = tuple(int(x) for x in bad[0])
    where = cells[i[0]] if cells is not None else i
    return f"cell {where}: {float(got[i])!r}, brute force {float(expected[i])!r}"


def compute_ops(work: Path, seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for name, kind, dim, n, family in COMPUTE_CASES:
        cfg = _compute_inputs(kind, dim, n, family, rng)
        cfg_path = _write_json(work / f"compute-{name}.config.json", cfg)
        out = work / f"compute-{name}.out"
        argv = ["compute", kind, "--config", str(cfg_path), "--out", str(out)]
        cells = _sample_cells(rng, dim, n, CHECK_CELLS) if kind == "maxcomm" else None
        ops.append(Op(name, kind, lambda argv=argv: _cli().main(argv),
                      functools.partial(_check_compute, {}, kind, cfg, out, cells)))
    return ops


# ---------------------------------------------------------------------------
# oracle: criterion 1's 40 seeded pairs x 7 operator tags.

ORACLE_GRIDS = ((1, 32), (2, 8))
ORACLE_SEEDS = range(20)


def oracle_ops(work: Path, seed: int) -> list[Op]:
    """The pairs are criterion 1's own; the seed only orders the rounds."""
    del work, seed
    from maxlip import GridFunction, OperatorTag, make_grid

    ops = []
    for dim, n in ORACLE_GRIDS:
        g = make_grid(dim, n)
        for s in ORACLE_SEEDS:
            b = GridFunction(g, np.random.default_rng(s).uniform(-1.0, 1.0, g.shape))
            f = GridFunction(g, np.random.default_rng(s + 100).uniform(-1.0, 1.0, g.shape))
            tags = (OperatorTag.hl(), OperatorTag.sharp(), OperatorTag.fractional(0.25),
                    OperatorTag.fractional(0.5), OperatorTag.max_commutator(b),
                    OperatorTag.comm_m(b), OperatorTag.comm_sharp(b))
            for tag in tags:
                ops.append(Op(
                    f"{dim}d-{n}/seed{s}/{tag.label}", tag.label,
                    lambda tag=tag, f=f: _oracle_check(tag, f),
                    _check_deviation,
                ))
    return ops


def _oracle_check(tag, f) -> float:
    import maxlip.operators

    return maxlip.operators.oracle_check(tag, f)


def _check_deviation(dev) -> str | None:
    if isinstance(dev, BaseException):
        return f"raised {type(dev).__name__}: {dev}"
    return None if dev <= ORACLE_TOL else f"deviation {dev!r} > {ORACLE_TOL}"


BUILDERS = {"verify": verify_ops, "compute": compute_ops, "oracle": oracle_ops}
