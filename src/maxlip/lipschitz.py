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

import itertools
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
from .operators import (
    OperatorTag,
    _chunks,
    apply_operator,
    apply_stack,
    cube_blocks,
    indicator_stacks,
    local_max_sweep,
)
# Still importable from here, as before the one-pass sweep; the benchmark's
# tracer test pins the alias.
from .operators import local_max  # noqa: F401
from .sweep import Worst, pair_sweep

__all__ = [
    "LipResult",
    "lip_seminorm",
    "osc_norm_q",
    "lambda_var",
    "lambda_star",
    "lambda_sharp",
    "opnorm_lower",
    "opnorm_lower_stacked",
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
        elif center == "sharp_double":
            sharp = np.concatenate([
                cube_blocks(apply_stack(OperatorTag.sharp(), grid, b.values * chis, mode), group)
                for group, chis in indicator_stacks(grid, cubes)
            ])
            blocks = sliding_window_view(b.values, window).reshape(len(cubes), width)
            diff_rows = np.abs(blocks - 2.0 * sharp)
        else:
            diff_rows = np.empty((len(cubes), width))
            for r, cube in enumerate(cubes):
                block = b.values[cube.slices()]
                diff_rows[r] = np.abs(block - block.sum() / width).reshape(-1)
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


def _check_bank(tag: OperatorTag, p: VariableExponent, q: VariableExponent,
                testbank: list[GridFunction]) -> None:
    if tag.kind == "local":
        raise ValueError("local operator has no grid-wide operator norm")
    if not testbank:
        raise ValueError("testbank must be nonempty")
    for f in testbank:
        if not np.any(f.values):
            raise ValueError("zero function in testbank")
        if f.grid != p.grid:
            raise ValueError("testbank function on a different grid")
    if q.grid != p.grid:
        raise ValueError("exponents p and q live on different grids")


def opnorm_lower(
    tag: OperatorTag,
    p: VariableExponent,
    q: VariableExponent,
    testbank: list[GridFunction],
    mode: CubeFamilyMode = CubeFamilyMode.FULL,
) -> float:
    """Lower bound for the p -> q operator norm from a finite test bank.

    The bank is extended with the indicator of every cube in the family,
    and each member goes through its own operator call and norm solves.
    Zero functions are rejected; the local operator has no full-grid output
    and is not accepted here.  This is the per-function reference of
    opnorm_lower_stacked, which the scenarios use.
    """
    _check_bank(tag, p, q, testbank)
    bank = list(testbank) + [indicator(p.grid, c) for c in enumerate_cubes(p.grid, mode)]
    best = 0.0
    for f in bank:
        out = apply_operator(tag, f, mode)
        best = max(best, lux_norm(out, q).value / lux_norm(f, p).value)
    return best


def opnorm_lower_stacked(
    tag: OperatorTag,
    p: VariableExponent,
    q: VariableExponent,
    testbank: list[GridFunction],
    mode: CubeFamilyMode = CubeFamilyMode.FULL,
) -> float:
    """opnorm_lower, bit for bit, with the bank in stacks.

    The test bank and the cube indicators, in that order, are packed into
    stacks of at most STACK_BYTES_MAX bytes.  Each stack goes through one
    operator call, and the norms of its outputs and of its members through
    one batched solve each; the bound is the largest ratio over the stacks.
    """
    _check_bank(tag, p, q, testbank)
    grid = p.grid
    cubes = enumerate_cubes(grid, mode)
    members = itertools.chain(
        (f.values for f in testbank),
        (chi for _, chis in indicator_stacks(grid, cubes) for chi in chis),
    )
    best = 0.0
    for part in _chunks(len(testbank) + len(cubes), 8 * grid.cell_count):
        stack = np.stack(list(itertools.islice(members, part.stop - part.start)))
        rows = (len(stack), grid.cell_count)
        out = apply_stack(tag, grid, stack, mode)
        num = _lux_solve_batch(np.abs(out).reshape(rows),
                               np.broadcast_to(q.values.values.reshape(1, -1), rows),
                               grid.cell_measure)
        den = _lux_solve_batch(np.abs(stack).reshape(rows),
                               np.broadcast_to(p.values.values.reshape(1, -1), rows),
                               grid.cell_measure)
        best = max(best, float(np.max(num / den)))
    return best
