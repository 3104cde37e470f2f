"""Discrete Lipschitz seminorms and oscillation functionals over cubes.

Three variants of the normalized cube oscillation are swept here, differing
only in the reference subtracted from b before taking the norm ratio:

  - lambda_var uses the cube average of b,
  - lambda_star uses the cube-localized maximal function of b,
  - lambda_sharp uses twice the sharp maximal function of b restricted
    to the cube.

Each sweep reports the attaining cube so that every supremum in a report
can be reproduced.  The pairwise beta-Holder seminorm is exact on small
grids and falls back to a flagged sample on large ones.
"""

from __future__ import annotations

import math
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

_EXACT_PAIRS_DIM1 = 4096
_EXACT_PAIRS_DIM2 = 64


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


def lip_seminorm(
    b: GridFunction, beta: float, *, sample_pairs: int = 4096, seed: int = 0
) -> LipResult:
    """Discrete beta-Holder seminorm: max |b(x)-b(y)| / |x-y|^beta over center pairs.

    Exact by offset sweep up to N = 4096 (dim 1) or N = 64 (dim 2); larger
    grids use all adjacent pairs plus a seeded random sample and flag the
    result as a non-exhaustive lower bound.
    """
    _check_beta(beta)
    grid = b.grid
    v = b.values
    n = grid.cells_per_axis
    h = grid.spacing
    best = 0.0
    witness = None
    if grid.dim == 1 and n <= _EXACT_PAIRS_DIM1:
        for d in range(1, n):
            diffs = np.abs(v[d:] - v[:-d])
            i = int(np.argmax(diffs))
            cand = float(diffs[i]) / (d * h) ** beta
            if cand > best:
                best, witness = cand, ((i,), (i + d,))
        return LipResult(best, witness, True)
    if grid.dim == 2 and n <= _EXACT_PAIRS_DIM2:
        for di in range(n):
            for dj in range(-(n - 1), n):
                if di == 0 and dj <= 0:
                    continue
                if dj >= 0:
                    diffs = np.abs(v[di:, dj:] - v[: n - di, : n - dj])
                else:
                    diffs = np.abs(v[di:, : n + dj] - v[: n - di, -dj:])
                if diffs.size == 0:
                    continue
                dist = h * math.hypot(di, dj)
                flat = int(np.argmax(diffs))
                i, j = (int(x) for x in np.unravel_index(flat, diffs.shape))
                cand = float(diffs[i, j]) / dist**beta
                if cand > best:
                    if dj >= 0:
                        pair = ((i + di, j + dj), (i, j))
                    else:
                        pair = ((i + di, j), (i, j - dj))
                    best, witness = cand, pair
        return LipResult(best, witness, True)
    return _sampled_lip(b, beta, sample_pairs, seed)


def _sampled_lip(b: GridFunction, beta: float, sample_pairs: int, seed: int) -> LipResult:
    grid = b.grid
    v = b.values
    n = grid.cells_per_axis
    h = grid.spacing
    best = 0.0
    witness = None
    if grid.dim == 1:
        diffs = np.abs(v[1:] - v[:-1]) / h**beta
        i = int(np.argmax(diffs))
        best, witness = float(diffs[i]), ((i,), (i + 1,))
        coords = np.arange(n).reshape(-1, 1)
        flat = v
    else:
        for axis, sl_a, sl_b, off in (
            (0, (slice(1, None), slice(None)), (slice(None, -1), slice(None)), (1, 0)),
            (1, (slice(None), slice(1, None)), (slice(None), slice(None, -1)), (0, 1)),
        ):
            diffs = np.abs(v[sl_a] - v[sl_b]) / h**beta
            flat_i = int(np.argmax(diffs))
            i, j = np.unravel_index(flat_i, diffs.shape)
            if float(diffs[i, j]) > best:
                best = float(diffs[i, j])
                witness = ((int(i) + off[0], int(j) + off[1]), (int(i), int(j)))
        ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        coords = np.column_stack([ii.reshape(-1), jj.reshape(-1)])
        flat = v.reshape(-1)
    rng = np.random.default_rng(seed)
    m = coords.shape[0]
    a = rng.integers(0, m, size=sample_pairs)
    c = rng.integers(0, m, size=sample_pairs)
    keep = a != c
    a, c = a[keep], c[keep]
    dist = h * np.sqrt(((coords[a] - coords[c]) ** 2).sum(axis=1))
    ratios = np.abs(flat[a] - flat[c]) / dist**beta
    i = int(np.argmax(ratios))
    if float(ratios[i]) > best:
        best = float(ratios[i])
        witness = (tuple(int(x) for x in coords[a[i]]), tuple(int(x) for x in coords[c[i]]))
    return LipResult(best, witness, False)


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
    best_cube, best = rows[0]
    for cube, val in rows[1:]:
        if val > best:
            best_cube, best = cube, val
    return LipResult(best, best_cube, True)


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
    best = -1.0
    best_cube = None
    for cube in enumerate_cubes(grid, mode):
        block = b.values[cube.slices()]
        k = cube.side_cells
        mean = block.sum() / k**dim
        power_mean = (np.abs(block - mean) ** q_const).sum() / k**dim
        val = cube.measure(grid) ** (-beta / dim) * power_mean ** (1.0 / q_const)
        if val > best:
            best, best_cube = float(val), cube
    return LipResult(best, best_cube, True)


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
