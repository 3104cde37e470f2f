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

The three functionals need only the largest ratio, so they solve only the
cubes that can attain it (a bounded exact sweep).  With r = |b - ref| on a
cube Q, m = max r and a, c the least and largest q on Q, the ratio is
(k h)^{-beta} m t with t between S^{1/a} and S^{1/c}, S the modular of r/m
weighted by h^dim ||chi_Q||^{-q}; those weights sum to 1 and lie within
|Q|^{|c - a|/a} of their mean, which bounds S by avg_Q (r/m)^q.  For a
constant q the two bounds meet at the closed form (avg_Q r^q)^{1/q}.  The
bounds, widened by a rounding margin of 2^-30 (the solver is good to
1e-12), cost one power per cell.  A side's cubes are bounded as its rows
are made; the largest lower bound is a ratio some cube reaches, so every
cube whose upper bound falls short of it is dropped.  The rest are solved,
highest upper bound first, and each solved ratio drops more.  Solved
ratios go in enumeration order, with -inf for the dropped cubes, to the
one worst_of: a dropped cube is strictly below the maximum, every solved
row is bit for bit its solo solve, so value and witness are those of
solving every cube (cube_oscillation_rows still does, for its rows).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import operators
from .exponents import VariableExponent
from .grid import (
    Cube,
    CubeFamilyMode,
    GridFunction,
    cube_rows,
    enumerate_cubes,
    family_sides,
    indicator,
    window_view,
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

# Widens the ratio bounds of a cube away from its computed ratio: the solver brackets
# each norm to a relative width of 1e-12, and the bounds themselves round
# by a few ulps, both far inside this rounding margin.
_BOUND_SLACK = 1.0 + 2.0**-30
# Cubes of highest bound in a bounded sweep's first solve.
_SEED_CUBES = 8


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


def _centered_rows(b: GridFunction, q: VariableExponent, mode: CubeFamilyMode, center: str):
    """(k, r) per side k of the family, r >= 0 the (cubes, k^dim) rows |b - ref| on the
    side-k cubes in enumeration order; the arguments are checked at the call, and
    one side's rows are made at a time."""
    grid = b.grid
    if q.grid != grid:
        raise ValueError("function and exponent live on different grids")
    if center not in ("average", "local_max", "sharp_double"):
        raise ValueError(f"unknown center {center!r}")
    sides = family_sides(grid.cells_per_axis, mode)

    def rows():
        if center == "average":
            for k in sides:
                blocks = cube_rows(b.values, k)
                yield k, np.abs(blocks - (blocks.sum(axis=1) / blocks.shape[1])[:, None])
            return
        if center == "local_max":
            refs = (level for _, level in local_max_sweep(b, sides))
        else:
            refs = (2.0 * on_q for on_q in on_cubes(OperatorTag.sharp(), grid,
                                                    enumerate_cubes(grid, mode), b.values, mode))
        for k, ref in zip(sides, refs, strict=True):
            blocks = cube_rows(b.values, k)
            yield k, np.abs(blocks - ref.reshape(blocks.shape))

    return rows()


def _oscillation_values(
    b: GridFunction, beta: float, q: VariableExponent, mode: CubeFamilyMode, center: str
) -> np.ndarray:
    """The row value of cube_oscillation_rows for every cube, in enumeration order."""
    rows = (r for _, r in _centered_rows(b, q, mode, center))
    return cube_ratios([rows], beta, q, mode)[0]


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
    sides = _centered_rows(b, q, mode, center)
    _check_beta(beta)
    cubes = enumerate_cubes(b.grid, mode)
    walk = _BoundedWalk(beta, q, len(cubes))
    for k, rows in sides:
        walk.add(k, rows)
    best = worst_of(walk.finish(), cubes)
    return LipResult(best.value, best.witness, True)


class _BoundedWalk:
    """The ratios of cube_ratios that can attain their maximum, -inf for the rest.

    add(k, rows) takes a side's centred rows and bounds each cube's ratio
    from below and above.  The best ratio known is the largest lower bound
    or solved ratio so far; a cube whose upper bound is below it is dropped,
    and the others wait with their rows.  While the waiting rows take more
    than 4 STACK_BYTES_MAX bytes, and at finish until none wait, waiting
    cubes are solved, highest upper bound first: the _SEED_CUBES highest,
    then parts of at most STACK_BYTES_MAX bytes of rows.  Each solve raises
    the best ratio and drops the cubes that no longer reach it.
    """

    def __init__(self, beta: float, q: VariableExponent, cubes: int):
        self.beta, self.q = beta, q
        self.ratios = np.full(cubes, -np.inf)
        self.best = -np.inf  # a ratio that some cube's computed ratio reaches
        self.waiting = []  # (k, first index of side k, local indices, rows, upper bounds)
        self.first = 0
        self.chi = {}  # constant q: side k -> its ||chi_Q||_q, solved once

    def add(self, k: int, rows: np.ndarray) -> None:
        first, self.first = self.first, self.first + len(rows)
        lower, upper = self._bounds(k, rows)
        self._raise(lower)
        local = np.flatnonzero(~(upper < self.best))
        if local.size:
            if local.size < len(rows):
                rows, upper = rows[local], upper[local]
            self.waiting.append((k, first, local, rows, upper))
        self._drain(4 * operators.STACK_BYTES_MAX)

    def finish(self) -> np.ndarray:
        self._drain(0)
        return self.ratios

    def _drain(self, limit: int) -> None:
        """Solve waiting cubes, highest upper bounds first, until their rows take
        at most limit bytes."""
        if self._bytes() > limit:
            self._solve_top(_SEED_CUBES)
        while self._bytes() > limit:
            self._solve_top(None)

    def _bytes(self) -> int:
        return sum(w[3].nbytes for w in self.waiting)

    def _bounds(self, k: int, rows: np.ndarray):
        """A lower and an upper bound on each row's computed ratio, NaN for a row
        that is not finite.

        With m = max r, g = r / m and a, c the least and largest q on Q, the
        ratio is (k h)^{-beta} m t, where t lies in [S^{1/a}, S^{1/c}] for
        S = sum_Q w g^q, w = h^dim ||chi_Q||^{-q}.  The weights w sum to 1 and
        lie within a factor L = |Q|^{|c - a| / a} of their mean, so S lies
        within L of A = avg_Q g^q.  For constant q, L = 1 and the bounds meet
        at the closed form (avg_Q r^q)^{1/q}.
        """
        grid, q = self.q.grid, self.q
        top = rows.max(axis=1)
        if q.is_constant:
            a = c = exponent = q.p_minus
        else:
            exponent = cube_rows(q.values.values, k)
            a, c = exponent.min(axis=1), exponent.max(axis=1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
            mean = np.power(rows / top[:, None], exponent).sum(axis=1) / rows.shape[1]
            spread = np.exp((c - a) / a * abs(grid.dim * np.log(k * grid.spacing)))
            scale = (k * grid.spacing) ** (-self.beta) * top
            lower = np.where(top > 0.0, scale * (mean / spread) ** (1.0 / a), top)
            upper = np.where(top > 0.0, scale * np.minimum(mean * spread, 1.0) ** (1.0 / c), top)
        return lower / _BOUND_SLACK, upper * _BOUND_SLACK

    def _solve_top(self, count) -> None:
        """Solve the count waiting cubes of highest upper bound, or for count None
        those whose rows fill STACK_BYTES_MAX bytes (at least one cube)."""
        upper = np.concatenate([w[4] for w in self.waiting])
        order = np.argsort(-upper, kind="stable")
        if count is None:
            size = np.concatenate([np.full(len(w[4]), w[3].itemsize * w[3].shape[1])
                                   for w in self.waiting])
            part = operators.STACK_BYTES_MAX
            count = max(1, int(np.searchsorted(np.cumsum(size[order]), part, "right")))
        chosen = np.zeros(upper.size, dtype=bool)
        chosen[order[:count]] = True
        parts, waiting, at = [], [], 0
        for k, first, local, rows, side_upper in self.waiting:
            mine = chosen[at:at + len(local)]
            at += len(local)
            if mine.any():
                parts.append((k, first, local[mine], rows[mine]))
            if not mine.all():
                waiting.append((k, first, local[~mine], rows[~mine], side_upper[~mine]))
        self.waiting = waiting
        self._raise(self._solve(parts))

    def _raise(self, reached: np.ndarray) -> None:
        """Take the largest of the ratios reached as the best if it is larger, and
        then keep waiting only the cubes whose upper bound reaches it."""
        known = reached[~np.isnan(reached)]
        if not known.size or not known.max() > self.best:
            return
        self.best = float(known.max())
        waiting = []
        for k, first, local, rows, upper in self.waiting:
            keep = ~(upper < self.best)
            if keep.all():
                waiting.append((k, first, local, rows, upper))
            elif keep.any():
                waiting.append((k, first, local[keep], rows[keep], upper[keep]))
        self.waiting = waiting

    def _solve(self, parts: list) -> np.ndarray:
        """Ratios of the (k, first, local, rows) parts in one solve, a block per part
        holding its rows and their chi_Q rows, as cube_ratios solves a side."""
        q, grid = self.q, self.q.grid
        n, dim = grid.cells_per_axis, grid.dim
        blocks = []
        for k, _, local, rows in parts:
            if q.is_constant:
                # The exponent rows are a full array, as in cube_ratios: numpy
                # takes a stride-0 exponent as a scalar, whose power may round
                # differently.
                chi = [] if k in self.chi else [np.ones((1, k**dim))]
                a = np.concatenate([rows] + chi)
                blocks.append((a, np.full(a.shape, q.p_minus)))
            else:
                windows = window_view(q.values.values, k, dim)
                q_rows = windows[np.unravel_index(local, (n - k + 1,) * dim)].reshape(len(local), -1)
                blocks.append((np.concatenate([rows, np.ones_like(rows)]),
                               np.concatenate([q_rows, q_rows])))
        values = _newton_solve(blocks, grid.cell_measure)[0]
        solved, at = [], 0
        for k, first, local, rows in parts:
            num = values[at:at + len(rows)]
            at += len(rows)
            if not q.is_constant:
                den = values[at:at + len(rows)]
                at += len(rows)
            elif k in self.chi:
                den = self.chi[k]
            else:
                den = self.chi[k] = values[at:at + 1]
                at += 1
            ratios = (k * grid.spacing) ** (-self.beta) * num / den
            self.ratios[first + local] = ratios
            solved.append(ratios)
        return np.concatenate(solved)


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
