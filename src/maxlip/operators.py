"""Discrete maximal operators and commutators over cell-aligned cube families.

All suprema run over the finite cube family of the grid (full or dyadic
sides), so the classical pointwise identities become exactly checkable:
the maximal function of a cube indicator is 1 on the cube, the sharp
maximal function of an indicator is 1/2 on the cube once a containing cube
of twice the measure exists, and the commutator bounds hold with explicit
dimensional constants.

Each operator has two routes: a fast path built on per-side window
statistics (prefix-sum queries, or one window view per side for the sharp
function) plus per-side sliding maxima, and a naive nested-loop oracle that
sums cube slices directly.  oracle_check compares the two and is wired
into the test suite; the routes are intentionally kept separate.  The
sweeps over every cube of a family take the local maximal function from
local_max_sweep, one pass per symbol; the single-cube local_max is its
reference.

The fast paths carry a leading batch axis: apply_stack applies an operator
to a stack of grid arrays, shape (rows,) + grid.shape, in one call, and
hl_max, sharp_max, frac_max, max_commutator, comm_m and comm_sharp are that
call on a stack of one.  A stacked row equals its single call bit for bit.
The maximal commutator computes every cell at once from a float64 prefix
table with a cell axis and a start-range mask.  The temporaries a kernel
builds (prefix tables, window differences, the commutator's cell tables)
stay within STACK_BYTES_MAX bytes: a stack is split over rows, and the
commutator's tables over cells too.  indicator_stacks builds the cube
indicators of a family as stacks within the same cap, and cube_blocks
reads each row on its own cube.  The per-cube sweeps run on them: the
indicator and local-on-cube checks of identities, theorem2's mean
recovery, lambda_sharp, theorem3's M_b(chi_Q) rows and the test bank of
opnorm_lower_stacked.  The naive oracles stay per cube and unbatched.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import (
    Cube,
    CubeFamilyMode,
    Grid,
    GridFunction,
    check_cube,
    family_sides,
    prefix_table,
    table_window_sums,
    window_sums,
)

__all__ = [
    "OperatorTag",
    "hl_max",
    "sharp_max",
    "frac_max",
    "local_max",
    "local_max_sweep",
    "max_commutator",
    "comm_m",
    "comm_sharp",
    "apply_operator",
    "apply_stack",
    "indicator_stacks",
    "cube_blocks",
    "oracle_check",
]

# The naive oracle slices every cube of the full family once (and, for the
# maximal commutator, once per cell of the cube); keep it at desk scale.
ORACLE_MAX_CELLS_DIM1 = 64
ORACLE_MAX_CELLS_DIM2 = 16

# Bytes any one batched temporary may take: a stack of cube indicators, or
# what a kernel builds from a stack.  Stacks are split over rows to stay
# below it (the maximal commutator also over cells); a single row larger
# than this on its own is still computed whole.
STACK_BYTES_MAX = 1 << 18


def _chunks(count: int, row_bytes: int):
    """Consecutive slices of range(count) whose rows take at most STACK_BYTES_MAX bytes."""
    step = max(1, STACK_BYTES_MAX // max(1, row_bytes))
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def indicator_stacks(grid: Grid, cubes):
    """The indicators of the cubes as stacks of at most STACK_BYTES_MAX bytes.

    Yields (group, stack) in the order of the cubes: group is a run of
    consecutive cubes of one side and stack[r] is the indicator of group[r],
    shape (len(group),) + grid.shape.
    """
    for _, run in itertools.groupby(cubes, key=lambda cube: cube.side_cells):
        run = tuple(run)
        for part in _chunks(len(run), 8 * grid.cell_count):
            group = run[part]
            stack = np.zeros((len(group),) + grid.shape)
            for r, cube in enumerate(group):
                check_cube(grid, cube)
                stack[(r,) + cube.slices()] = 1.0
            yield group, stack


def cube_blocks(stack: np.ndarray, cubes) -> np.ndarray:
    """Row r of the stack on the cells of cubes[r], flattened row-major.

    The cubes share one side k, so the result has shape (len(cubes), k^dim).
    """
    dim = stack.ndim - 1
    k = cubes[0].side_cells
    windows = sliding_window_view(stack, (k,) * dim, axis=tuple(range(1, dim + 1)))
    starts = tuple(np.array([cube.start for cube in cubes]).T)
    return windows[(np.arange(len(cubes)),) + starts].reshape(len(cubes), -1)


def _windowed_cell_max(window_vals: np.ndarray, k: int, dim: int) -> np.ndarray:
    """Per-cell max of the side-k window values over windows containing the cell.

    window_vals is indexed by window start on its last dim axes; leading
    axes are rows of a stack.  Cells near the boundary see fewer windows;
    the -inf padding keeps them out of the running max.
    """
    if k == 1:
        return window_vals
    starts = window_vals.shape[-1]
    padded = np.full(window_vals.shape[:-dim] + (starts + 2 * (k - 1),) * dim, -np.inf)
    padded[(Ellipsis,) + (slice(k - 1, k - 1 + starts),) * dim] = window_vals
    axes = tuple(range(-dim, 0))
    return sliding_window_view(padded, (k,) * dim, axis=axes).max(axis=axes)


def _check_stack(grid: Grid, stack: np.ndarray) -> None:
    if stack.shape[1:] != grid.shape:
        raise ValueError(f"stack rows of shape {stack.shape[1:]} do not match grid {grid.shape}")


def _average_max(
    grid: Grid, stack: np.ndarray, mode: CubeFamilyMode, alpha: float | None = None
) -> np.ndarray:
    """Rows of the maximal function, or of the fractional one of order alpha."""
    if alpha is not None and not 0.0 < alpha < grid.dim:
        raise ValueError(f"alpha must lie in (0, {grid.dim}), got {alpha}")
    _check_stack(grid, stack)
    dim, n, h = grid.dim, grid.cells_per_axis, grid.spacing
    absf = np.abs(stack)
    out = np.full(stack.shape, -np.inf)
    # The long-double table is the largest per-row temporary, with the padding
    # of _windowed_cell_max; both fit in 16 (2N)^dim bytes.
    for rows in _chunks(len(stack), 16 * (2 * n) ** dim):
        table = prefix_table(absf[rows], dim)
        part = out[rows]
        for k in family_sides(n, mode):
            sums = table_window_sums(table, k, dim)
            vals = sums / k**dim if alpha is None else (k * h) ** alpha * sums / k**dim
            np.maximum(part, _windowed_cell_max(vals, k, dim), out=part)
    return out


def _sharp_rows(grid: Grid, stack: np.ndarray, mode: CubeFamilyMode) -> np.ndarray:
    """Rows of the sharp maximal function.

    One window view per side yields the mean and the mean absolute
    deviation of every side-k cube at once; the per-cell sliding max then
    spreads them over the cells.  Memory per row and side is (N-k+1)^dim k^dim.
    """
    _check_stack(grid, stack)
    dim, n = grid.dim, grid.cells_per_axis
    grid_axes = tuple(range(1, dim + 1))
    count_axes = tuple(range(dim + 1, 2 * dim + 1))
    out = np.full(stack.shape, -np.inf)
    for k in family_sides(n, mode):
        count = k**dim
        for rows in _chunks(len(stack), 8 * ((n - k + 1) * k) ** dim):
            windows = sliding_window_view(stack[rows], (k,) * dim, axis=grid_axes)
            means = windows.sum(axis=count_axes, keepdims=True) / count
            osc = np.abs(windows - means).sum(axis=count_axes) / count
            part = out[rows]
            np.maximum(part, _windowed_cell_max(osc, k, dim), out=part)
    return out


def _start_mask(cells: np.ndarray, k: int, n: int) -> np.ndarray:
    """mask[c, s] is true when the side-k window starting at s holds cell c.

    cells has one row of coordinates per axis; s runs over the window starts.
    """
    starts = np.arange(n - k + 1)
    per_axis = [(starts <= x[:, None]) & (starts > x[:, None] - k) for x in cells]
    if len(per_axis) == 1:
        return per_axis[0]
    return per_axis[0][:, :, None] & per_axis[1][:, None, :]


def _max_comm_rows(b: GridFunction, stack: np.ndarray, mode: CubeFamilyMode) -> np.ndarray:
    """Rows of the maximal commutator M_b, every cell at once.

    For a cell x, the float64 prefix table of |b(x) - b(y)| |f(y)| over y
    gives the sum of every window; the start-range mask keeps the windows
    that hold x.  The table carries a row axis and a cell axis, so its
    chunks are split over cells as well as rows.
    """
    grid = b.grid
    _check_stack(grid, stack)
    dim, n = grid.dim, grid.cells_per_axis
    sides = family_sides(n, mode)
    flat_b = b.values.reshape(-1)
    coords = np.indices(grid.shape).reshape(dim, -1)
    absf = np.abs(stack)[:, None]
    out = np.zeros((len(stack), grid.cell_count))
    cell_bytes = 8 * (n + 1) ** dim
    for cols in _chunks(grid.cell_count, cell_bytes):
        dist = np.abs(b.values[None] - flat_b[cols].reshape((-1,) + (1,) * dim))
        for rows in _chunks(len(stack), cell_bytes * len(dist)):
            table = prefix_table(dist * absf[rows], dim, dtype=float)
            best = np.zeros(table.shape[:2])
            for k in sides:
                sums = table_window_sums(table, k, dim)
                np.copyto(sums, -np.inf, where=~_start_mask(coords[:, cols], k, n))
                top = sums.reshape(sums.shape[:2] + (-1,)).max(axis=2)
                np.maximum(best, top / k**dim, out=best)
            out[rows, cols] = best
    return out.reshape(stack.shape)


def _commutator_rows(kernel, b: GridFunction, stack: np.ndarray, mode: CubeFamilyMode):
    """Rows of b T(f) - T(b f) for the maximal kernel T."""
    return b.values * kernel(b.grid, stack, mode) - kernel(b.grid, b.values * stack, mode)


def _one(tag: "OperatorTag", f: GridFunction, mode: CubeFamilyMode) -> GridFunction:
    """The tagged operator on f alone: apply_stack on a stack of one."""
    return GridFunction(f.grid, apply_stack(tag, f.grid, f.values[None], mode)[0])


def hl_max(f: GridFunction, mode: CubeFamilyMode = CubeFamilyMode.FULL) -> GridFunction:
    """Maximal function: per cell, the largest average of |f| over cubes containing it."""
    return _one(OperatorTag.hl(), f, mode)


def frac_max(f: GridFunction, alpha: float, mode: CubeFamilyMode = CubeFamilyMode.FULL) -> GridFunction:
    """Fractional maximal function of order alpha in (0, dim)."""
    return _one(OperatorTag.fractional(alpha), f, mode)


def sharp_max(f: GridFunction, mode: CubeFamilyMode = CubeFamilyMode.FULL) -> GridFunction:
    """Sharp maximal function: largest mean oscillation over cubes containing the cell."""
    return _one(OperatorTag.sharp(), f, mode)


def local_max(b: GridFunction, q0: Cube) -> np.ndarray:
    """Maximal function localized to a cube: sup over subcubes of q0 only.

    Returns the values on the cells of q0 as an array of shape (k,) or
    (k, k) indexed relative to q0.start; cells outside q0 have no defined
    value, matching the local operator's domain.
    """
    grid = b.grid
    check_cube(grid, q0)
    absb = abs(b)
    m = q0.side_cells
    out = np.full((m,) * grid.dim, -np.inf)
    for k in range(1, m + 1):
        all_avgs = window_sums(absb, k) / k**grid.dim
        sub = all_avgs[tuple(slice(s, s + m - k + 1) for s in q0.start)]
        np.maximum(out, _windowed_cell_max(sub, k, grid.dim), out=out)
    return out


def local_max_sweep(b: GridFunction, sides):
    """local_max of every cube of each requested side, one pass per symbol.

    Yields (k, L) for each distinct side k in ascending order, where
    L[start] == local_max(b, Cube(start, k)) for every start cell, so L
    has shape (N-k+1,)^dim + (k,)^dim.  It works by levels up to the
    largest side: a proper subcube of a side-k cube lies in one of its
    2^dim side-(k-1) subcubes, so level k is the max of the side-k window
    averages and the level k-1 arrays shifted by each offset in {0,1}^dim.
    The candidates are the window averages local_max takes its max over,
    so the result is bit-identical.  Two levels are alive at a time.
    """
    grid = b.grid
    dim = grid.dim
    n = grid.cells_per_axis
    wanted = sorted(set(sides))
    if not wanted:
        return
    if not 1 <= wanted[0] <= wanted[-1] <= n:
        raise ValueError(f"cube sides must lie in 1..{n}, got {wanted}")
    absb = abs(b)
    whole = (slice(None),) * dim
    prev = None
    for k in range(1, wanted[-1] + 1):
        avgs = window_sums(absb, k) / k**dim
        level = np.empty(avgs.shape + (k,) * dim)
        level[...] = avgs.reshape(avgs.shape + (1,) * dim)
        if prev is not None:
            m = n - k + 1
            for offset in itertools.product((0, 1), repeat=dim):
                region = level[whole + tuple(slice(e, e + k - 1) for e in offset)]
                np.maximum(region, prev[tuple(slice(e, e + m) for e in offset)], out=region)
        if k in wanted:
            yield k, level
        prev = level


def max_commutator(
    b: GridFunction, f: GridFunction, mode: CubeFamilyMode = CubeFamilyMode.FULL
) -> GridFunction:
    """Maximal commutator: per cell x, sup over cubes of avg |b(x)-b(y)| |f(y)|."""
    return _one(OperatorTag.max_commutator(b), f, mode)


def max_commutator_at_cells(
    b: GridFunction,
    f: GridFunction,
    cells: list[tuple[int, ...]],
    mode: CubeFamilyMode = CubeFamilyMode.FULL,
) -> np.ndarray:
    """Maximal commutator read at the listed cells."""
    values = max_commutator(b, f, mode).values
    return np.array([values[tuple(cell)] for cell in cells])


def comm_m(b: GridFunction, f: GridFunction, mode: CubeFamilyMode = CubeFamilyMode.FULL) -> GridFunction:
    """Commutator with the maximal operator: b * M(f) - M(b f)."""
    return _one(OperatorTag.comm_m(b), f, mode)


def comm_sharp(b: GridFunction, f: GridFunction, mode: CubeFamilyMode = CubeFamilyMode.FULL) -> GridFunction:
    """Commutator with the sharp maximal operator: b * M#(f) - M#(b f)."""
    return _one(OperatorTag.comm_sharp(b), f, mode)


@dataclass(frozen=True, eq=False)
class OperatorTag:
    """Names one operator instance, with whatever parameters it needs."""

    kind: str
    alpha: float | None = None
    cube: Cube | None = None
    symbol: GridFunction | None = None

    @classmethod
    def hl(cls) -> "OperatorTag":
        return cls("hl")

    @classmethod
    def sharp(cls) -> "OperatorTag":
        return cls("sharp")

    @classmethod
    def fractional(cls, alpha: float) -> "OperatorTag":
        return cls("fractional", alpha=alpha)

    @classmethod
    def local(cls, cube: Cube) -> "OperatorTag":
        return cls("local", cube=cube)

    @classmethod
    def max_commutator(cls, b: GridFunction) -> "OperatorTag":
        return cls("max_commutator", symbol=b)

    @classmethod
    def comm_m(cls, b: GridFunction) -> "OperatorTag":
        return cls("comm_m", symbol=b)

    @classmethod
    def comm_sharp(cls, b: GridFunction) -> "OperatorTag":
        return cls("comm_sharp", symbol=b)

    @property
    def label(self) -> str:
        if self.kind == "fractional":
            return f"fractional[{self.alpha:g}]"
        return self.kind


def apply_operator(tag: OperatorTag, f: GridFunction, mode: CubeFamilyMode = CubeFamilyMode.FULL):
    """Dispatch a tagged operator to its single-function form; local returns the subgrid array.

    Every kind but local is apply_stack on a stack of one, through the
    named operator (hl_max, sharp_max, ...).
    """
    if tag.kind == "hl":
        return hl_max(f, mode)
    if tag.kind == "sharp":
        return sharp_max(f, mode)
    if tag.kind == "fractional":
        return frac_max(f, tag.alpha, mode)
    if tag.kind == "local":
        return local_max(f, tag.cube)
    if tag.kind == "max_commutator":
        return max_commutator(tag.symbol, f, mode)
    if tag.kind == "comm_m":
        return comm_m(tag.symbol, f, mode)
    if tag.kind == "comm_sharp":
        return comm_sharp(tag.symbol, f, mode)
    raise ValueError(f"unknown operator kind {tag.kind!r}")


def apply_stack(
    tag: OperatorTag, grid: Grid, stack: np.ndarray, mode: CubeFamilyMode = CubeFamilyMode.FULL
) -> np.ndarray:
    """A tagged operator on every row of a stack of grid arrays at once.

    stack has shape (rows,) + grid.shape; row r of the result equals the
    operator on stack[r] alone bit for bit.  This is the one map from an
    operator kind to its kernel.  The local operator has no full-grid output
    and is not accepted.
    """
    if tag.kind == "hl":
        return _average_max(grid, stack, mode)
    if tag.kind == "sharp":
        return _sharp_rows(grid, stack, mode)
    if tag.kind == "fractional":
        return _average_max(grid, stack, mode, tag.alpha)
    if tag.kind in ("max_commutator", "comm_m", "comm_sharp"):
        if tag.symbol.grid != grid:
            raise ValueError("symbol and operand live on different grids")
        if tag.kind == "max_commutator":
            return _max_comm_rows(tag.symbol, stack, mode)
        kernel = _average_max if tag.kind == "comm_m" else _sharp_rows
        return _commutator_rows(kernel, tag.symbol, stack, mode)
    raise ValueError(f"operator kind {tag.kind!r} has no stacked form")


# ---------------------------------------------------------------------------
# Naive oracles: direct slice sums per cube, no prefix tables, no sliding max.
# To stay independent of the fast paths, no _naive_* function may call
# window_sums, GridFunction.prefix, _windowed_cell_max or sliding_window_view.


def _blocks(starts: list[range], k: int):
    """Slices of the side-k blocks whose start runs over the per-axis ranges."""
    for start in itertools.product(*starts):
        yield tuple(slice(s, s + k) for s in start)


def _naive_per_cube(vals: np.ndarray, statistic) -> np.ndarray:
    """Per cell, the max of statistic(block, k) over all grid cubes holding the cell.

    Each cube's statistic is computed once from its slice of vals and then
    taken into the cells of that cube.
    """
    n = vals.shape[0]
    out = np.zeros(vals.shape)
    for k in range(1, n + 1):
        for sl in _blocks([range(n - k + 1)] * vals.ndim, k):
            region = out[sl]
            np.maximum(region, statistic(vals[sl], k), out=region)
    return out


def _naive_average_max(absv: np.ndarray) -> np.ndarray:
    return _naive_per_cube(absv, lambda block, k: float(block.sum()) / k**absv.ndim)


def _naive_hl(f: GridFunction) -> np.ndarray:
    return _naive_average_max(np.abs(f.values))


def _naive_sharp(f: GridFunction) -> np.ndarray:
    dim = f.grid.dim

    def mean_oscillation(block: np.ndarray, k: int) -> float:
        mean = float(block.sum()) / k**dim
        return float(np.abs(block - mean).sum()) / k**dim

    return _naive_per_cube(f.values, mean_oscillation)


def _naive_frac(f: GridFunction, alpha: float) -> np.ndarray:
    dim, h = f.grid.dim, f.grid.spacing
    return _naive_per_cube(
        np.abs(f.values), lambda block, k: (k * h) ** alpha * float(block.sum()) / k**dim
    )


def _naive_max_comm(b: GridFunction, f: GridFunction) -> np.ndarray:
    grid = b.grid
    n = grid.cells_per_axis
    bv = b.values
    absf = np.abs(f.values)
    out = np.zeros(grid.shape)
    for cell in np.ndindex(grid.shape):
        bx = bv[cell]
        best = 0.0
        for k in range(1, n + 1):
            starts = [range(max(0, c - k + 1), min(c, n - k) + 1) for c in cell]
            for sl in _blocks(starts, k):
                term = float((np.abs(bv[sl] - bx) * absf[sl]).sum()) / k**grid.dim
                best = max(best, term)
        out[cell] = best
    return out


def _naive_local(b: GridFunction, q0: Cube) -> np.ndarray:
    # The subcubes of q0 are exactly the cubes of the grid cut down to q0.
    return _naive_average_max(np.abs(b.values)[q0.slices()])


def _naive_apply(tag: OperatorTag, f: GridFunction) -> np.ndarray:
    if tag.kind == "hl":
        return _naive_hl(f)
    if tag.kind == "sharp":
        return _naive_sharp(f)
    if tag.kind == "fractional":
        return _naive_frac(f, tag.alpha)
    if tag.kind == "local":
        return _naive_local(f, tag.cube)
    if tag.kind == "max_commutator":
        return _naive_max_comm(tag.symbol, f)
    if tag.kind == "comm_m":
        return tag.symbol.values * _naive_hl(f) - _naive_hl(tag.symbol * f)
    if tag.kind == "comm_sharp":
        return tag.symbol.values * _naive_sharp(f) - _naive_sharp(tag.symbol * f)
    raise ValueError(f"unknown operator kind {tag.kind!r}")


def oracle_check(tag: OperatorTag, f: GridFunction) -> float:
    """Max absolute deviation between the fast path and the naive oracle.

    Runs the full cube family; gated to small grids because the oracle
    slices every cube of that family, and the maximal-commutator oracle
    does so once per cell of each cube.
    """
    grid = f.grid
    n = grid.cells_per_axis
    limit = ORACLE_MAX_CELLS_DIM1 if grid.dim == 1 else ORACLE_MAX_CELLS_DIM2
    if n > limit:
        raise ValueError(f"oracle guard: N = {n} exceeds {limit} for dim {grid.dim}")
    fast = apply_operator(tag, f, CubeFamilyMode.FULL)
    fast_vals = fast.values if isinstance(fast, GridFunction) else fast
    naive_vals = _naive_apply(tag, f)
    return float(np.max(np.abs(fast_vals - naive_vals)))
