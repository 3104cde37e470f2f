"""Discrete Lipschitz seminorms and oscillation functionals over cubes.

Three variants of the normalized cube oscillation are swept here, differing
only in the reference subtracted from b before taking the norm ratio:

  - lambda_var uses the cube average of b,
  - lambda_star uses the cube-localized maximal function of b,
  - lambda_sharp uses twice the sharp maximal function of b restricted
    to the cube.

Each sweep reports the attaining cube so that every supremum in a report
can be reproduced.  The sweeps run on cube rows (grid.cube_rows): b and q
on every side-k cube, one row per cube in enumeration order, so centers,
norm solves and the worst case are whole-array passes and enumerate_cubes
decodes the witness; cube_ratios turns such rows into the normalized norm
ratios, one Luxemburg solve for the whole family.  A row keeps its cube's
cell order, so every value equals the per-cube one bit for bit.  The
pairwise beta-Holder seminorm is one score of the cell-pair sweep in
``sweep``: exact on small grids, a flagged sample on large ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .exponents import VariableExponent
from .grid import (
    Cube,
    CubeFamilyMode,
    GridFunction,
    cube_rows,
    enumerate_cubes,
    family_sides,
    indicator,
)
from .luxemburg import _chi_rows, _lux_solve_batch, _newton_solve, lux_norm
from .operators import (
    OperatorTag,
    _chunks,
    apply_operator,
    apply_stack,
    indicator_stacks,
    local_max_sweep,
    on_cubes,
)
# Still importable from here, as before the one-pass sweep; the benchmark's
# tracer test pins the alias.
from .operators import local_max  # noqa: F401
from .sweep import pair_sweep, worst_of

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
    "cube_ratios",
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


def cube_ratios(row_sets: list, beta: float, q: VariableExponent,
                mode: CubeFamilyMode = CubeFamilyMode.FULL) -> list[np.ndarray]:
    """|Q|^{-beta/dim} ||r chi_Q||_q / ||chi_Q||_q of every family cube, one array per row set.

    A row set yields per side k of the family the (cubes, k^dim) rows r >= 0
    on the side-k cubes in enumeration order; a set short of a side, or
    long, raises ValueError.  The family takes one solve, drawn side by
    side: a side's block holds the rows of every set and the chi_Q rows (one
    row for constant q, its value repeated), and each row is bit for bit
    its own solve."""
    _check_beta(beta)
    grid = q.grid
    n, dim = grid.cells_per_axis, grid.dim
    sides = family_sides(n, mode)
    sets = len(row_sets)

    def blocks():
        for k, *rows in zip(sides, *row_sets, strict=True):
            chi = _chi_rows(q, k)
            q_rows = np.broadcast_to(chi, ((n - k + 1) ** dim, k**dim))
            yield (np.concatenate(rows + [np.ones_like(chi)]),
                   np.concatenate([q_rows] * sets + [chi]))

    values = _newton_solve(blocks(), grid.cell_measure)[0]
    out = [[] for _ in row_sets]
    at = 0
    for k in sides:
        cubes = (n - k + 1) ** dim
        nums = values[at:at + sets * cubes].reshape(sets, cubes)
        at += sets * cubes
        den = values[at:at + (1 if q.is_constant else cubes)]
        at += den.size
        scale = (k * grid.spacing) ** (-beta)
        for ratios, num in zip(out, nums):
            ratios.append(scale * num / den)
    return [np.concatenate(ratios) for ratios in out]


def _oscillation_values(
    b: GridFunction, beta: float, q: VariableExponent, mode: CubeFamilyMode, center: str
) -> np.ndarray:
    """The row value of cube_oscillation_rows for every cube, in enumeration order."""
    grid = b.grid
    if q.grid != grid:
        raise ValueError("function and exponent live on different grids")
    if center not in ("average", "local_max", "sharp_double"):
        raise ValueError(f"unknown center {center!r}")
    sides = family_sides(grid.cells_per_axis, mode)

    def centered():
        if center == "average":
            for k in sides:
                blocks = cube_rows(b.values, k)
                yield np.abs(blocks - (blocks.sum(axis=1) / blocks.shape[1])[:, None])
            return
        if center == "local_max":
            refs = (level for _, level in local_max_sweep(b, sides))
        else:
            refs = (2.0 * on_q for on_q in on_cubes(OperatorTag.sharp(), grid,
                                                    enumerate_cubes(grid, mode), b.values, mode))
        for k, ref in zip(sides, refs, strict=True):
            blocks = cube_rows(b.values, k)
            yield np.abs(blocks - ref.reshape(blocks.shape))

    return cube_ratios([centered()], beta, q, mode)[0]


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
    values = _oscillation_values(b, beta, q, mode, center)
    return list(zip(enumerate_cubes(b.grid, mode), values.tolist()))


def _sweep_result(b: GridFunction, beta: float, q: VariableExponent, mode: CubeFamilyMode,
                  center: str) -> LipResult:
    best = worst_of(_oscillation_values(b, beta, q, mode, center), enumerate_cubes(b.grid, mode))
    return LipResult(best.value, best.witness, True)


def _pow_like_scalar(values: np.ndarray, exponent: float) -> np.ndarray:
    """values ** exponent rounded as a float64 scalar power (C pow) rounds it,
    which numpy's vectorized power may miss by an ulp."""
    return np.frompyfunc(pow, 2, 1)(values, exponent).astype(float)


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
    values = []
    for k in family_sides(grid.cells_per_axis, mode):
        blocks = cube_rows(b.values, k)
        mean = blocks.sum(axis=1) / k**dim
        power_mean = (np.abs(blocks - mean[:, None]) ** q_const).sum(axis=1) / k**dim
        measure = (k * grid.spacing) ** dim
        values.append(measure ** (-beta / dim) * _pow_like_scalar(power_mean, 1.0 / q_const))
    best = worst_of(np.concatenate(values), enumerate_cubes(grid, mode))
    return LipResult(best.value, best.witness, True)


def lambda_var(
    b: GridFunction, beta: float, q: VariableExponent, mode: CubeFamilyMode = CubeFamilyMode.FULL
) -> LipResult:
    """Oscillation functional centered at cube averages."""
    return _sweep_result(b, beta, q, mode, "average")


def lambda_star(
    b: GridFunction, beta: float, q: VariableExponent, mode: CubeFamilyMode = CubeFamilyMode.FULL
) -> LipResult:
    """Oscillation functional centered at the cube-local maximal function."""
    return _sweep_result(b, beta, q, mode, "local_max")


def lambda_sharp(
    b: GridFunction, beta: float, q: VariableExponent, mode: CubeFamilyMode = CubeFamilyMode.FULL
) -> LipResult:
    """Oscillation functional centered at twice the sharp maximal function."""
    return _sweep_result(b, beta, q, mode, "sharp_double")


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
    tags: list[OperatorTag],
    p: VariableExponent,
    q: VariableExponent,
    testbank: list[GridFunction],
    mode: CubeFamilyMode = CubeFamilyMode.FULL,
) -> list[float]:
    """opnorm_lower of each tag, bit for bit, with the bank in stacks.

    The test bank and the cube indicators, in that order, are packed into
    stacks of at most STACK_BYTES_MAX bytes.  The norms ||f||_p of a
    stack's members are solved once, in one batch, and shared by every tag;
    each tag takes one operator call and one batched solve of its outputs'
    norms per stack.  A tag's bound is its largest ratio over the stacks.
    """
    for tag in tags:
        _check_bank(tag, p, q, testbank)
    if not tags:
        return []
    grid = p.grid
    cubes = enumerate_cubes(grid, mode)
    members = itertools.chain(
        (f.values for f in testbank),
        (chi for _, chis in indicator_stacks(grid, cubes) for chi in chis),
    )

    def norms(stack: np.ndarray, r: VariableExponent) -> np.ndarray:
        rows = np.abs(stack).reshape(len(stack), -1)
        return _lux_solve_batch(rows, np.broadcast_to(r.values.values.reshape(1, -1), rows.shape),
                                grid.cell_measure)

    best = [0.0] * len(tags)
    for part in _chunks(len(testbank) + len(cubes), 8 * grid.cell_count):
        stack = np.stack(list(itertools.islice(members, part.stop - part.start)))
        den = norms(stack, p)
        for t, tag in enumerate(tags):
            ratios = norms(apply_stack(tag, grid, stack, mode), q) / den
            best[t] = max(best[t], float(np.max(ratios)))
    return best
