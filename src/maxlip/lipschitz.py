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
norm solves and the worst case are whole-array passes over a CubeFamily,
and only the witness is decoded into a Cube.  One function (_ratios) turns
rows on the cubes into the normalized norm ratios: a block per side, or per
part of a side, holds the rows of each row set and then the cubes' chi_Q
rows (one row for a constant q), and one Luxemburg solve takes them all.
cube_ratios hands it every cube of the family, the bounded sweeps only the
cubes they solve.  A row keeps its cube's cell order, so every value equals
the per-cube one bit for bit.  The pairwise beta-Holder seminorm is one
score of the cell-pair sweep in ``sweep``: exact on small grids, a flagged
sample on large ones.

The three functionals need only the largest ratio, so they solve only the
cubes that can attain it (a bounded exact sweep, _BoundedWalk).  With
r = |b - ref| on a cube Q, m = max r and a, c the least and largest q on
Q, the ratio is (k h)^{-beta} m t with t between S^{1/a} and S^{1/c}, S the
modular of r/m weighted by h^dim ||chi_Q||^{-q}; those weights sum to 1 and
lie within |Q|^{|c - a|/a} of their mean, which bounds S by avg_Q (r/m)^q.
For a constant q the two bounds meet at the closed form (avg_Q r^q)^{1/q}.
The bounds, widened by a rounding margin of 2^-30 (the solver is good to
1e-12), cost one power per cell.  A side's cubes are bounded as its rows
are made, into one upper-bound array over the family; the largest lower
bound is a ratio some cube reaches, so every cube whose upper bound falls
short of it is dropped.  The rest are solved, highest upper bound first,
and each solved ratio drops more.  Solved ratios go in enumeration order,
with -inf for the dropped cubes, to sweep.worst_of, the one worst-case
rule: a dropped cube is strictly below the maximum, every solved row is
bit for bit its solo solve, so value and witness are those of solving
every cube (cube_oscillation_rows still does, for its rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators
from .exponents import VariableExponent
from .grid import (
    Cube,
    CubeFamily,
    CubeFamilyMode,
    Grid,
    GridFunction,
    cube_rows,
    enumerate_cubes,
    family_sides,
    indicator,
)
from .luxemburg import _chi_rows, _newton_solve, _stack_norms, lux_norm
from .operators import (
    OperatorTag,
    _chunks,
    _fill_indicators,
    apply_operator,
    apply_stack,
    local_max_sweep,
    on_cubes,
)
# The benchmark's tracer test pins this alias.
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
    long, raises ValueError.  The family takes one solve (_ratios), drawn
    side by side, and each row is bit for bit its own solve."""
    _check_beta(beta)
    if not row_sets:
        return []
    sides = family_sides(q.grid.cells_per_axis, mode)
    parts = ((k, None, rows) for k, *rows in zip(sides, *row_sets, strict=True))
    return [np.concatenate(ratios) for ratios in zip(*_ratios(parts, beta, q))]


def _ratios(parts, beta: float, q: VariableExponent) -> list[np.ndarray]:
    """Per (k, local, sets) part, the (len(sets), cubes) array of
    |Q|^{-beta/dim} ||r chi_Q||_q / ||chi_Q||_q of each set's rows r on the
    side-k cubes at the local indices of the side (all of them for None).

    One solve, a block per part holding each set's rows and then the cubes'
    chi_Q rows (one row for constant q, its value repeated); each row is bit
    for bit its own solve.  The parts are drawn as the solve takes them."""
    grid = q.grid
    drawn = []  # (k, sets, cubes, chi_Q rows) of each part

    def blocks():
        for k, local, sets in parts:
            chi = _chi_rows(q, k, local)
            drawn.append((k, len(sets), len(sets[0]), len(chi)))
            q_rows = np.broadcast_to(chi, sets[0].shape)
            # Joined, the exponent rows are a full array: numpy takes a stride-0
            # exponent as a scalar, whose power may round differently.
            yield (np.concatenate(sets + [np.ones_like(chi)]),
                   np.concatenate([q_rows] * len(sets) + [chi]))

    values = _newton_solve(blocks(), grid.cell_measure)[0]
    out, at = [], 0
    for k, sets, cubes, chis in drawn:
        nums = values[at:at + sets * cubes].reshape(sets, cubes)
        den = values[at + sets * cubes:at + sets * cubes + chis]
        at += sets * cubes + chis
        out.append((k * grid.spacing) ** (-beta) * nums / den)
    return out


def _centered_rows(b: GridFunction, q: VariableExponent, mode: CubeFamilyMode, center: str,
                   sharp=None):
    """(k, r) per side k of the family, r >= 0 the (cubes, k^dim) rows |b - ref| on the
    side-k cubes in enumeration order; the arguments are checked at the call, and
    one side's rows are made at a time.  For center sharp_double, sharp may hold
    on_cubes(OperatorTag.sharp(), CubeFamily.of(grid, mode), b.values, mode),
    already computed."""
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
            ons = sharp if sharp is not None else on_cubes(
                OperatorTag.sharp(), CubeFamily.of(grid, mode), b.values, mode)
            refs = (2.0 * on_q for on_q in ons)
        for k, ref in zip(sides, refs, strict=True):
            blocks = cube_rows(b.values, k)
            yield k, np.abs(blocks - ref.reshape(blocks.shape))

    return rows()


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
    rows = (r for _, r in _centered_rows(b, q, mode, center))
    values = cube_ratios([rows], beta, q, mode)[0]
    return list(zip(enumerate_cubes(b.grid, mode), values.tolist()))


def _sweep_result(b: GridFunction, beta: float, q: VariableExponent, mode: CubeFamilyMode,
                  center: str, sharp=None) -> LipResult:
    """The functional of the center; sharp as for _centered_rows."""
    sides = _centered_rows(b, q, mode, center, sharp)
    _check_beta(beta)
    family = CubeFamily.of(b.grid, mode)
    walk = _BoundedWalk(beta, q, len(family))
    for k, rows in sides:
        walk.add(k, rows)
    best = worst_of(walk.finish(), family)
    return LipResult(best.value, best.witness, True)


class _BoundedWalk:
    """The ratios of cube_ratios that can attain their maximum, -inf for the rest.

    add(k, rows) takes a side's centred rows and bounds each cube's ratio
    from below and above.  The state is flat over the family: upper holds
    the upper bound of every cube that waits.  The best ratio known is the
    largest lower bound or solved ratio so far; a cube whose upper bound is
    below it is dropped (upper -inf).  A side's rows are held as they come
    while any of its cubes waits.  While the held rows take more than
    4 STACK_BYTES_MAX bytes, and at finish until none are held, waiting
    cubes are solved, highest upper bound first: the _SEED_CUBES highest,
    then parts of at most STACK_BYTES_MAX bytes of rows.  Each solve raises
    the best ratio and drops the cubes that no longer reach it.  Once the
    waiting cubes' rows fit, the rows of the others are let go; when no cube
    waits, no row is held.
    """

    def __init__(self, beta: float, q: VariableExponent, cubes: int):
        self.beta, self.q = beta, q
        self.ratios = np.full(cubes, -np.inf)
        # A waiting cube's upper bound, NaN for a row that is not finite; -inf
        # for a cube dropped, solved or not yet added.
        self.upper = np.full(cubes, -np.inf)
        self.side = np.zeros(cubes, dtype=np.int64)  # each cube's side k
        self.size = np.zeros(cubes, dtype=np.int64)  # the bytes of its row
        self.best = -np.inf  # a ratio that some cube's computed ratio reaches
        self.held = {}  # side k -> (first index of side k, local indices, their rows)
        self.bytes = 0  # of the held rows
        self.first = 0

    def add(self, k: int, rows: np.ndarray) -> None:
        first, self.first = self.first, self.first + len(rows)
        lower, upper = self._bounds(k, rows)
        self._raise(lower)
        self.upper[first:self.first] = np.where(upper < self.best, -np.inf, upper)
        self.side[first:self.first], self.size[first:self.first] = k, rows[0].nbytes
        if np.any(self.upper[first:self.first] != -np.inf):
            self.held[k] = (first, np.arange(len(rows)), rows)
            self.bytes += rows.nbytes
        self._drain(4 * operators.STACK_BYTES_MAX)

    def finish(self) -> np.ndarray:
        self._drain(0)
        return self.ratios

    def _drain(self, limit: int) -> None:
        """Solve waiting cubes, highest upper bounds first, until the held rows
        take at most limit bytes once the rows of the cubes not waiting are let go."""
        count = _SEED_CUBES
        while self.bytes > limit:
            waiting = np.flatnonzero(self.upper[:self.first] != -np.inf)
            if self.size[waiting].sum() <= limit:
                self._shed()
                return
            self._solve_top(waiting, count)
            count = None

    def _shed(self) -> None:
        """Hold only the rows of waiting cubes, and no side without one."""
        held = {}
        for k, (first, local, rows) in self.held.items():
            keep = self.upper[first + local] != -np.inf
            if keep.all():
                held[k] = (first, local, rows)
            elif keep.any():
                held[k] = (first, local[keep], rows[keep])
        self.held = held
        self.bytes = sum(rows.nbytes for _, _, rows in held.values())

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

    def _solve_top(self, waiting: np.ndarray, count) -> None:
        """Solve the count waiting cubes of highest upper bound, or for count None
        those whose rows fill STACK_BYTES_MAX bytes (at least one cube)."""
        order = waiting[np.argsort(-self.upper[waiting], kind="stable")]
        if count is None:
            part = operators.STACK_BYTES_MAX
            count = max(1, int(np.searchsorted(np.cumsum(self.size[order]), part, "right")))
        chosen = np.sort(order[:count])
        parts = []
        for cubes in np.split(chosen, np.flatnonzero(np.diff(self.side[chosen])) + 1):
            k = int(self.side[cubes[0]])
            first, local, rows = self.held[k]
            parts.append((k, cubes - first, [rows[np.searchsorted(local, cubes - first)]]))
        solved = np.concatenate([ratios[0] for ratios in _ratios(parts, self.beta, self.q)])
        self.ratios[chosen], self.upper[chosen] = solved, -np.inf
        self._raise(solved)

    def _raise(self, reached: np.ndarray) -> None:
        """Take the largest of the ratios reached as the best if it is larger, and
        then drop the cubes whose upper bound falls short of it (and every held
        row if that drops them all)."""
        best = np.fmax.reduce(reached, initial=self.best)
        if best > self.best:
            self.best = float(best)
            added = self.upper[:self.first]
            added[added < self.best] = -np.inf
            if np.all(added == -np.inf):
                self.held, self.bytes = {}, 0


def _pow_like_scalar(values: np.ndarray, exponent: float) -> np.ndarray:
    """values ** exponent rounded as a float64 scalar power (C pow) rounds it,
    which numpy's vectorized power may miss by an ulp."""
    return np.frompyfunc(pow, 2, 1)(values, exponent).astype(float)


def osc_norm_q(
    b: GridFunction, beta: float, q_const: float, mode: CubeFamilyMode = CubeFamilyMode.FULL
) -> LipResult:
    """Constant-exponent oscillation norm: sup over cubes of
    |Q|^{-beta/dim} (avg_Q |b - b_Q|^q)^{1/q}, computed in closed form.

    A cube whose power mean of r = |b - b_Q| leaves the normal floats
    (overflows, or underflows for a large q) takes it again on r / max r and
    multiplies the root back by max r, as ||s f||_q = s ||f||_q."""
    _check_beta(beta)
    if not q_const >= 1.0:
        raise ValueError(f"q must be at least 1, got {q_const}")
    grid = b.grid
    dim = grid.dim
    values = []
    family = CubeFamily.of(grid, mode)
    for k in family.sides:
        blocks = cube_rows(b.values, k)
        mean = blocks.sum(axis=1) / k**dim
        r = np.abs(blocks - mean[:, None])
        with np.errstate(over="ignore", under="ignore"):
            power_mean = (r**q_const).sum(axis=1) / k**dim
            root = _pow_like_scalar(power_mean, 1.0 / q_const)
            odd = np.flatnonzero(~((power_mean >= np.finfo(float).tiny) & (power_mean < np.inf)))
            if odd.size:
                top = r[odd].max(axis=1)
                odd, top = odd[top > 0.0], top[top > 0.0]
                scaled = ((r[odd] / top[:, None]) ** q_const).sum(axis=1) / k**dim
                root[odd] = top * _pow_like_scalar(scaled, 1.0 / q_const)
        measure = (k * grid.spacing) ** dim
        values.append(measure ** (-beta / dim) * root)
    best = worst_of(np.concatenate(values), family)
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
    opnorm_lower_stacked, whose pass the scenarios read.
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
    pairs: list[tuple[VariableExponent, VariableExponent]],
    testbank: list[GridFunction],
    mode: CubeFamilyMode = CubeFamilyMode.FULL,
) -> list[list[float]]:
    """opnorm_lower of each tag for each exponent pair (p, q), bit for bit.

    out[j][t] is opnorm_lower(tags[t], *pairs[j], testbank, mode).  The test
    bank and the cube indicators, in that order, are packed into stacks of at
    most STACK_BYTES_MAX bytes.  The members' norms ||f||_p under every p
    are solved once, a few floats per member; then each tag takes one
    operator call per stack, and its outputs' norms under every q are one
    solve.  A tag's bound for a pair is its largest ratio over the stacks.
    """
    for p, q in pairs:
        for tag in tags:
            _check_bank(tag, p, q, testbank)
    if not pairs:
        return []
    bounds = [bound for bound, *_ in _tag_passes(pairs[0][0].grid, tags, pairs, testbank, mode)]
    return [[bound[j] for bound in bounds] for j in range(len(pairs))]


def _tag_passes(grid: Grid, tags: list[OperatorTag], pairs: list, testbank: list[GridFunction],
                mode: CubeFamilyMode, rows_of=()):
    """(bounds, cube rows, bank outputs) per tag, in order, each tag applied once
    per stack of the test bank and the family's indicators.

    bounds holds the tag's opnorm_lower for each pair (p, q), none without
    pairs; the arguments are checked by the caller.  For a tag in rows_of,
    cube rows is list(on_cubes(tag, CubeFamily.of(grid, mode), 1.0, mode)),
    read off the indicator rows of the same pass; else None.  bank outputs holds the
    tag's output on each test bank member, copied off the bank rows of the
    same pass.  The stacks are rebuilt for each tag, unless the members fit
    in one, which is built once; one tag's outputs are alive at a time.  The
    members' norms under every p are solved in the first tag's pass and
    kept.
    """
    family = CubeFamily.of(grid, mode)
    bank = len(testbank)
    chunks = list(_chunks(bank + len(family), 8 * grid.cell_count))
    kept = []  # the stack, built once when the members fit in one

    def stacks():
        """(the enumeration slice of the stack's indicator rows, the first of
        those rows, stack)."""
        if kept:
            yield from kept
            return
        for part in chunks:
            first = min(max(bank - part.start, 0), part.stop - part.start)
            cubes = slice(max(part.start - bank, 0), max(part.stop - bank, 0))
            stack = np.empty((part.stop - part.start,) + grid.shape)
            for r, f in enumerate(testbank[part.start:part.start + first]):
                stack[r] = f.values
            _fill_indicators(family, cubes, stack[first:])
            item = (cubes, first, stack)
            if len(chunks) == 1:
                kept.append(item)
            yield item

    ps, qs = [p for p, _ in pairs], [q for _, q in pairs]
    dens = []  # per stack, its members' norms under every p, solved in the first tag's pass
    for tag in tags:
        best, parts, on_bank = [0.0] * len(pairs), [], []
        for s, (group, first, stack) in enumerate(stacks()):
            if s == len(dens):
                dens.append(_stack_norms(stack, ps))
            den = dens[s]
            out = apply_stack(tag, grid, stack, mode)
            for j, ratios in enumerate((_stack_norms(out, qs) / den).tolist()):
                best[j] = max(best[j], max(ratios))
            on_bank.append(out[:first].copy())
            if tag in rows_of:
                parts.extend(operators._cube_parts(out[first:], family, group))
        yield (best, list(operators._join_sides(parts)) if tag in rows_of else None,
               np.concatenate(on_bank))
