"""Discrete Lipschitz seminorms and oscillation functionals over cubes.

Three variants of the normalized cube oscillation are swept here, differing
only in the reference subtracted from b before taking the norm ratio:

  - lambda_var uses the cube average of b,
  - lambda_star uses the cube-localized maximal function of b,
  - lambda_sharp uses twice the sharp maximal function of b restricted
    to the cube.

Each sweep reports the attaining cube so that every supremum in a report
can be reproduced.  The pairwise beta-Holder seminorm is one score of the
cell-pair sweep in ``sweep``: exact on small grids, a flagged sample on
large ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exponents import VariableExponent
from .grid import (
    Cube,
    CubeFamilyMode,
    GridFunction,
    enumerate_cubes,
    family_sides,
    indicator,
)
from .luxemburg import _lux_solve_batch, lux_norm
from .operators import OperatorTag, apply_operator, local_max_sweep, sharp_max
from .operators import local_max  # noqa: F401  still importable from here, as before the sweep
from .sweep import Worst, pair_sweep

__all__ = [
    "LipResult",
    "lip_seminorm",
    "osc_norm_q",
    "lambda_var",
    "lambda_star",
    "lambda_sharp",
    "opnorm_lower",
    "cube_oscillation_rows",
]

@dataclass
class LipResult:
    """A supremum value, the witness attaining it, and whether the sweep was exhaustive."""

    value: float
    witness: object
    exact: bool

    def __float__(self) -> float:
        return self.value


def _check_beta(beta: float) -> None:
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")


def lip_seminorm(b: GridFunction, beta: float) -> LipResult:
    """Discrete beta-Holder seminorm: max |b(x)-b(y)| / |x-y|^beta over center pairs.

    Exact up to N = 4096 (dim 1) or N = 64 (dim 2); larger grids give a
    lower bound from all adjacent pairs plus a seeded sample of pairs, with
    ``exact`` False.  The witness is the attaining pair of cells, None for a
    constant b.
    """
    _check_beta(beta)
    return LipResult(*pair_sweep(b, lambda diff, dist: diff / dist**beta))


def cube_oscillation_rows(
    b: GridFunction,
    beta: float,
    q: VariableExponent,
    mode: CubeFamilyMode = CubeFamilyMode.FULL,
    center: str = "average",
) -> list[tuple[Cube, float]]:
    """Normalized oscillation ratio for every cube of the family.

    Per cube Q the row value is
        |Q|^{-beta/dim} * ||(b - ref) chi_Q||_q / ||chi_Q||_q
    with ref chosen by ``center``: the cube average, the cube-local maximal
    function, or twice the sharp maximal function of b chi_Q.
    """
    _check_beta(beta)
    grid = b.grid
    if q.grid != grid:
        raise ValueError("function and exponent live on different grids")
    if center not in ("average", "local_max", "sharp_double"):
        raise ValueError(f"unknown center {center!r}")
    dim = grid.dim
    n = grid.cells_per_axis
    qv = q.values.values
    cm = grid.cell_measure
    sides = family_sides(n, mode)
    local = local_max_sweep(b, sides) if center == "local_max" else None
    rows: list[tuple[Cube, float]] = []
    for k in sides:
        window = (k,) * dim
        cubes = [Cube(start, k) for start in np.ndindex((n - k + 1,) * dim)]
        width = k**dim
        q_rows = sliding_window_view(qv, window).reshape(len(cubes), width)
        if local is not None:
            _, levels = next(local)
            diff_rows = np.abs(sliding_window_view(b.values, window) - levels)
            diff_rows = diff_rows.reshape(len(cubes), width)
        else:
            diff_rows = np.empty((len(cubes), width))
            for r, cube in enumerate(cubes):
                sl = cube.slices()
                block = b.values[sl]
                if center == "average":
                    ref = block.sum() / width
                else:
                    sharp = sharp_max(b * indicator(grid, cube), mode)
                    ref = 2.0 * sharp.values[sl]
                diff_rows[r] = np.abs(block - ref).reshape(-1)
        num = _lux_solve_batch(diff_rows, q_rows, cm)
        den = _lux_solve_batch(np.ones_like(diff_rows), q_rows, cm)
        factor = (k * grid.spacing) ** (-beta)
        for r, cube in enumerate(cubes):
            rows.append((cube, factor * float(num[r]) / float(den[r])))
    return rows


def _sweep_result(rows: list[tuple[Cube, float]]) -> LipResult:
    best = Worst()
    for cube, val in rows:
        best.offer(val, cube)
    return LipResult(best.value, best.witness, True)


def osc_norm_q(
    b: GridFunction, beta: float, q_const: float, mode: CubeFamilyMode = CubeFamilyMode.FULL
) -> LipResult:
    """Constant-exponent oscillation norm: sup over cubes of
    |Q|^{-beta/dim} (avg_Q |b - b_Q|^q)^{1/q}, computed in closed form."""
    _check_beta(beta)
    if not q_const >= 1.0:
        raise ValueError(f"q must be at least 1, got {q_const}")
    grid = b.grid
    dim = grid.dim
    best = Worst()
    for cube in enumerate_cubes(grid, mode):
        block = b.values[cube.slices()]
        k = cube.side_cells
        mean = block.sum() / k**dim
        power_mean = (np.abs(block - mean) ** q_const).sum() / k**dim
        val = cube.measure(grid) ** (-beta / dim) * power_mean ** (1.0 / q_const)
        best.offer(float(val), cube)
    return LipResult(best.value, best.witness, True)


def lambda_var(
    b: GridFunction, beta: float, q: VariableExponent, mode: CubeFamilyMode = CubeFamilyMode.FULL
) -> LipResult:
    """Oscillation functional centered at cube averages."""
    return _sweep_result(cube_oscillation_rows(b, beta, q, mode, "average"))


def lambda_star(
    b: GridFunction, beta: float, q: VariableExponent, mode: CubeFamilyMode = CubeFamilyMode.FULL
) -> LipResult:
    """Oscillation functional centered at the cube-local maximal function."""
    return _sweep_result(cube_oscillation_rows(b, beta, q, mode, "local_max"))


def lambda_sharp(
    b: GridFunction, beta: float, q: VariableExponent, mode: CubeFamilyMode = CubeFamilyMode.FULL
) -> LipResult:
    """Oscillation functional centered at twice the sharp maximal function."""
    return _sweep_result(cube_oscillation_rows(b, beta, q, mode, "sharp_double"))


def opnorm_lower(
    tag: OperatorTag,
    p: VariableExponent,
    q: VariableExponent,
    testbank: list[GridFunction],
    mode: CubeFamilyMode = CubeFamilyMode.FULL,
) -> float:
    """Lower bound for the p -> q operator norm from a finite test bank.

    The bank is extended with the indicator of every cube in the family.
    Zero functions are rejected; the local operator has no full-grid output
    and is not accepted here.
    """
    if tag.kind == "local":
        raise ValueError("local operator has no grid-wide operator norm")
    if not testbank:
        raise ValueError("testbank must be nonempty")
    grid = p.grid
    for f in testbank:
        if not np.any(f.values):
            raise ValueError("zero function in testbank")
        if f.grid != grid:
            raise ValueError("testbank function on a different grid")
    bank = list(testbank) + [indicator(grid, c) for c in enumerate_cubes(grid, mode)]
    best = 0.0
    for f in bank:
        out = apply_operator(tag, f, mode)
        ratio = lux_norm(out, q).value / lux_norm(f, p).value
        best = max(best, ratio)
    return best
