"""Discrete maximal operators and commutators over cell-aligned cube families.

All suprema run over the finite cube family of the grid (full or dyadic
sides), so the classical pointwise identities become exactly checkable:
the maximal function of a cube indicator is 1 on the cube, the sharp
maximal function of an indicator is 1/2 on the cube once a containing cube
of twice the measure exists, and the commutator bounds hold with explicit
dimensional constants.

Each operator has two routes: a fast path built on per-side window
statistics (prefix-sum queries, or one window view per side for the sharp
function) plus one nested pass over the sides, and a naive oracle that
gathers the cells of every cube of the family at once, sums each cube's row
directly, and scatter-maxes the results into the cells at once.  The nested
pass visits the sides in descending order: a side-k window lies in a larger
window of the family exactly when it lies in one of the windows of the next
larger side k' that do, so the running max carried down is
max(window values of side k, sliding max of width k' - k + 1 of the carried
max), and one last sliding max of the smallest side spreads it onto the
cells.  In a full family every step has width 2; in dim 1 such a step folds
the carried max into the new side in place.  The sliding max is a
log-step running max (van Herk; Gil and Werman): doubling maxima
m_2p[i] = max(m_p[i], m_p[i+p]) up to the largest power of two p <= k, then
max(m_p[i], m_p[i+k-p]) covers the window [i, i+k); a square window is one
axis after the other.  Max returns one of its arguments, so this equals the
direct max over the windows holding each cell, bit for bit.  oracle_check
compares the two routes and is wired into the test suite.  The sweeps over
every cube of a family take the local maximal function from
local_max_sweep, one pass per symbol; the single-cube local_max is its
reference.

The fast paths carry a leading batch axis: apply_stack applies an operator
to a stack of grid arrays, shape (rows,) + grid.shape, in one call, and
hl_max, sharp_max, frac_max, max_commutator, comm_m and comm_sharp are that
call on a stack of one.  A stacked row equals its single call bit for bit.
The maximal commutator computes its cells from a float64 prefix table
with cell axes.  In dim 1 over the full family the windows holding a cell
x are one rectangle of prefix differences, starts up to x by ends from
x + 1, so each cell takes the max of its own rectangle and no other window
is summed; max_commutator_at_cells computes only its listed cells there.
In dim 2 and in dyadic families, which windows hold a cell is read off one
boolean template of x - s per axis and side, and the max over window
starts skips the others.  The temporaries a kernel builds (prefix tables,
window differences, the commutator's cell tables and rectangles) stay
within STACK_BYTES_MAX bytes: a stack is split over rows, the commutator's
tables over rectangles of cells too, and a 1-D cell's rectangle over runs
of starts.  comm_m and comm_sharp call their kernel once on
the rows f joined with the rows b f, cut so that the joined stack fits the
cap as well.  indicator_stacks builds the cube indicators of a
family as stacks within the same cap, cut by the cap only, so a stack may
straddle sides; cube_blocks reads the rows of one side on their own cubes.
on_cubes joins the two over a whole family and yields one block per side;
lambda_sharp (whose call theorem2 shares with its mean recovery) and
identities' local-on-cube check each make one call per family.
identities' indicator check and the test bank of opnorm_lower_stacked use
the stacks; that pass reads theorem3's M_b(chi_Q) rows off its indicator
rows as on_cubes reads them.  The naive oracles, one gather per family
over a joined index cached per (N, dim) (the maximal commutator's: one
per side, over index rows cached per (N, dim, k)) and one scatter per
call, are outside the cap.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .grid import (
    Cube,
    CubeFamilyMode,
    Grid,
    GridFunction,
    check_cube,
    family_sides,
    prefix_table,
    side_runs,
    table_window_sums,
    window_sums,
    window_view,
)

__all__ = [
    "OperatorTag",
    "hl_max",
    "sharp_max",
    "frac_max",
    "local_max",
    "local_max_sweep",
    "max_commutator",
    "max_commutator_at_cells",
    "comm_m",
    "comm_sharp",
    "apply_operator",
    "apply_stack",
    "indicator_stacks",
    "cube_blocks",
    "on_cubes",
    "oracle_check",
]

# At these limits the naive commutator oracle's largest per-side (cubes, K, K)
# table is about 4 MB (2-D, k = 11); keep the oracles at desk scale.
ORACLE_MAX_CELLS_DIM1 = 64
ORACLE_MAX_CELLS_DIM2 = 16

# Bytes any one batched temporary may take: a stack of cube indicators, what
# a kernel builds from a stack, or the values of a group of blocks that the
# Luxemburg solver iterates in lockstep (luxemburg._packed).  Stacks are
# split over rows to stay below it (the maximal commutator also over cells);
# a single row, or solver block, larger than this is still computed whole.
STACK_BYTES_MAX = 1 << 18


def _chunks(count: int, row_bytes: int):
    """Consecutive slices of range(count) whose rows take at most STACK_BYTES_MAX bytes."""
    step = max(1, STACK_BYTES_MAX // max(1, row_bytes))
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def indicator_stacks(grid: Grid, cubes):
    """The indicators of the cubes as stacks of at most STACK_BYTES_MAX bytes.

    Yields (group, stack) in the order of the cubes: group is a run of
    consecutive cubes, of one side or of several, and stack[r] is the
    indicator of group[r], shape (len(group),) + grid.shape.
    """
    cubes = tuple(cubes)
    for part in _chunks(len(cubes), 8 * grid.cell_count):
        group = cubes[part]
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
    windows = window_view(stack, k, dim)
    starts = tuple(np.array([cube.start for cube in cubes]).T)
    return windows[(np.arange(len(cubes)),) + starts].reshape(len(cubes), -1)


def _windowed_cell_max(window_vals: np.ndarray, k: int, dim: int) -> np.ndarray:
    """Per-cell max of the side-k window values over windows containing the cell.

    window_vals is indexed by window start on its last dim axes; leading
    axes are rows of a stack.  Cells near the boundary see fewer windows;
    the -inf padding keeps them out of the running max, which runs along
    each grid axis in turn.
    """
    if k == 1:
        return window_vals
    starts = window_vals.shape[-1]
    cells = starts + k - 1
    padded = np.full(window_vals.shape[:-dim] + (cells + k - 1,) * dim, -np.inf,
                     dtype=window_vals.dtype)
    padded[(Ellipsis,) + (slice(k - 1, k - 1 + starts),) * dim] = window_vals
    out = padded
    for axis in range(dim):
        out = _running_max(out, k, dim - axis, cells)
    return out


def _running_max(a: np.ndarray, k: int, from_end: int, length: int) -> np.ndarray:
    """The max of every k consecutive entries along axis -from_end, the first length of them.

    m_p[i] = max a[i : i + p] doubles up to the largest power of two p <= k,
    and the window [i, i + k) is the union of [i, i + p) and [i + k - p, i + k).
    """
    def cut(lo: int, size: int) -> tuple:
        return (Ellipsis, slice(lo, lo + size)) + (slice(None),) * (from_end - 1)

    p = 1
    while 2 * p <= k:
        size = a.shape[-from_end] - p
        a = np.maximum(a[cut(0, size)], a[cut(p, size)])
        p *= 2
    if p == k:
        return a[cut(0, length)]
    return np.maximum(a[cut(0, length)], a[cut(k - p, length)])


def _nested_cell_max(side_vals, dim: int) -> np.ndarray:
    """Per cell, the max of every side's window values over the windows holding the cell.

    side_vals yields (k, values of the side-k windows indexed by start) in
    descending order of k; each values array is the caller's own and is
    overwritten.  A side-k window lies in a window of a larger side exactly
    when it lies in one of the windows of the next larger side k' that do:
    those start at most k' - k before it.  So one running max is carried
    down the sides, max(vals_k, sliding max of width k' - k + 1 of the
    carried max), and spread onto the cells by the smallest side at the end.
    In dim 1 a step to a side one smaller (every step of a full family and
    of local_max, the last step of a dyadic one) folds in place: the side-k
    window at i lies in the side-(k+1) windows at i - 1 and i, so the
    carried max is maxed into vals[1:] and into vals[:-1], with no padded
    temporary.  Other steps and the final spread go through
    _windowed_cell_max; in dim 2 an in-place fold takes four shifted
    slices, which measured slower than the padded running max.  Max returns
    one of its arguments, so the result is the direct max over every window
    holding the cell, bit for bit.
    """
    carried, above = None, None
    for k, vals in side_vals:
        if carried is not None and dim == 1 and above == k + 1:
            np.maximum(vals[..., 1:], carried, out=vals[..., 1:])
            np.maximum(vals[..., :-1], carried, out=vals[..., :-1])
        elif carried is not None:
            np.maximum(vals, _windowed_cell_max(carried, above - k + 1, dim), out=vals)
        carried, above = vals, k
    return _windowed_cell_max(carried, above, dim)


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
    sides = family_sides(n, mode)[::-1]
    out = np.empty(stack.shape)

    def averages(table, k):
        sums = table_window_sums(table, k, dim)
        return sums / k**dim if alpha is None else (k * h) ** alpha * sums / k**dim

    # The long-double table is the largest per-row temporary, with the padding
    # of _windowed_cell_max; both fit in 16 (2N)^dim bytes.
    for rows in _chunks(len(stack), 16 * (2 * n) ** dim):
        table = prefix_table(absf[rows], dim)
        out[rows] = _nested_cell_max(((k, averages(table, k)) for k in sides), dim)
    return out


def _sharp_rows(grid: Grid, stack: np.ndarray, mode: CubeFamilyMode) -> np.ndarray:
    """Rows of the sharp maximal function.

    One window view per side yields the mean and the mean absolute
    deviation of every side-k cube at once; the nested pass over the sides
    then spreads them over the cells.  Memory per row and side is
    (N-k+1)^dim k^dim, and a chunk of rows is sized by the largest side's.
    """
    _check_stack(grid, stack)
    dim, n = grid.dim, grid.cells_per_axis
    count_axes = tuple(range(dim + 1, 2 * dim + 1))
    sides = family_sides(n, mode)[::-1]
    out = np.empty(stack.shape)

    def oscillations(rows_of_stack, k):
        windows = window_view(rows_of_stack, k, dim)
        means = windows.sum(axis=count_axes, keepdims=True) / k**dim
        dev = windows - means
        return np.abs(dev, out=dev).sum(axis=count_axes) / k**dim

    row_bytes = 8 * max(((n - k + 1) * k) ** dim for k in sides)
    for rows in _chunks(len(stack), row_bytes):
        part = stack[rows]
        out[rows] = _nested_cell_max(((k, oscillations(part, k)) for k in sides), dim)
    return out


def _holding(n: int, k: int, cells: slice, starts: slice) -> np.ndarray:
    """held[i, j] is true when the side-k window at starts.start + j holds cell cells.start + i.

    Window s holds cell x exactly when 0 <= x - s < k.  One boolean
    template over x - s in [1 - N, N - 1] is read as a view whose strides
    are (1, -1): shape (cells, starts), read-only, nothing else computed.
    """
    template = np.zeros(2 * n - 1, dtype=bool)
    template[n - 1:n - 1 + k] = True
    held = np.ndarray((cells.stop - cells.start, starts.stop - starts.start), bool, template,
                      cells.start - starts.start + n - 1, (1, -1))
    held.flags.writeable = False
    return held


def _cell_blocks(n: int, dim: int, cell_bytes: int):
    """Blocks of grid cells, a slice per axis, whose cells take at most STACK_BYTES_MAX bytes.

    The last axis is cut first, and the blocks of a wider cap take whole
    lines, so a block is a rectangle of cells in dim 2.
    """
    last = list(_chunks(n, cell_bytes))
    width = last[0].stop - last[0].start
    return itertools.product(*[_chunks(n, cell_bytes * width)] * (dim - 1), last)


def _max_comm_line(b: GridFunction, stack: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Rows of the 1-D maximal commutator over the full family, at the listed cells only.

    Returns shape (rows, len(cells)).  The windows holding a cell x are the
    [s, e] with s <= x <= e, and in the full family each one is a cube.  So
    from the float64 prefix row T of |b(x) - b(y)| |f(y)| over y, the
    rectangle T[x+1:] - T[:x+1, None] holds the sum of every window holding
    x and no other, each once.  Divided by its side e + 1 - s, its max is
    the value at x.  The sides are read off ends = 0, 1, ..., N through a
    view of strides (-8, 8), so no N x N divisor is built.  The subtraction
    is the one table_window_sums makes, and division by a positive side
    keeps the order, so the max equals the masked route's max over the
    sides of max(sums) / k, bit for bit.  The cells are taken in blocks,
    the rows in chunks and each rectangle in runs of starts, so that every
    temporary fits STACK_BYTES_MAX.
    """
    n = b.grid.cells_per_axis
    absf = np.abs(stack)[:, None, :]
    ends = np.arange(n + 1.0)
    out = np.zeros((len(stack), len(cells)))
    cell_bytes = 8 * (n + 1)
    for block in _chunks(len(cells), cell_bytes):
        here = cells[block]
        dist = np.abs(b.values - b.values[here][:, None])
        for rows in _chunks(len(stack), cell_bytes * len(here)):
            table = prefix_table(dist * absf[rows], 1, dtype=float)
            for i, x in enumerate(here):
                line, best = table[:, i], out[rows, block.start + i]
                for starts in _chunks(x + 1, 8 * len(line) * (n - x)):
                    sums = line[:, None, x + 1:] - line[:, starts, None]
                    # side[a, c] = ends[x + 1 + c - starts.start - a], the side of that window.
                    side = np.ndarray(sums.shape[1:], float, ends, 8 * (x + 1 - starts.start),
                                      (-8, 8))
                    sums /= side
                    np.maximum(best, sums.max(axis=(1, 2)), out=best)
    return out


def _max_comm_rows(b: GridFunction, stack: np.ndarray, mode: CubeFamilyMode) -> np.ndarray:
    """Rows of the maximal commutator M_b, every cell at once.

    In dim 1 over the full family this is _max_comm_line at every cell.
    Otherwise the windows holding a cell are not one rectangle of prefix
    differences: a dyadic family skips most (start, end) pairs, and a
    square in dim 2 ties its two axes to one side, so the windows do not
    factor into per-axis rectangles.  There, for a block of cells x, the
    float64 prefix table of |b(x) - b(y)| |f(y)| over y gives the sum of
    every window.  Only the windows that start within k - 1 cells before
    the block, or inside it, are summed; the ones among them that hold x
    are read off one boolean template of x - s per axis (_holding; the two
    axes ANDed in dim 2), and the max over the window starts skips the
    others (np.max with where and an initial -inf).  The table carries a
    row axis and the block's cell axes, so its chunks are split over rows
    and over rectangles of cells.
    """
    grid = b.grid
    _check_stack(grid, stack)
    dim, n = grid.dim, grid.cells_per_axis
    if dim == 1 and mode is CubeFamilyMode.FULL:
        return _max_comm_line(b, stack, np.arange(n))
    sides = family_sides(n, mode)
    start_axes = tuple(range(-dim, 0))
    absf = np.abs(stack).reshape((len(stack),) + (1,) * dim + grid.shape)
    out = np.zeros(stack.shape)
    cell_bytes = 8 * (n + 1) ** dim
    for block in _cell_blocks(n, dim, cell_bytes):
        here = b.values[block]
        dist = np.abs(b.values - here.reshape(here.shape + (1,) * dim))
        for rows in _chunks(len(stack), cell_bytes * here.size):
            table = prefix_table(dist * absf[rows], dim, dtype=float)
            best = np.zeros(table.shape[:dim + 1])
            for k in sides:
                # Only the starts max(0, x - k + 1) .. min(x, N - k) of a cell x hold it.
                starts = [slice(max(0, c.start - k + 1), min(c.stop, n - k + 1)) for c in block]
                axes = [_holding(n, k, c, s) for c, s in zip(block, starts)]
                held = axes[0] if dim == 1 else (axes[0][:, None, :, None]
                                                 & axes[1][None, :, None, :])
                part = table[(Ellipsis,) + tuple(slice(s.start, s.stop + k) for s in starts)]
                top = np.max(table_window_sums(part, k, dim), axis=start_axes,
                             where=held, initial=-np.inf)
                np.maximum(best, top / k**dim, out=best)
            out[(rows,) + block] = best
    return out


def _commutator_rows(kernel, b: GridFunction, stack: np.ndarray, mode: CubeFamilyMode):
    """Rows of b T(f) - T(b f) for the maximal kernel T, one kernel call per chunk of rows.

    The kernel runs on the rows f joined with the rows b f, and its output
    is split into T(f) and T(b f): stacked rows are independent bit for bit.
    The rows are taken in chunks whose joined stack fits STACK_BYTES_MAX, so
    a stack of at most half the cap takes one call.
    """
    out = np.empty(stack.shape)
    for rows in _chunks(len(stack), 2 * 8 * b.grid.cell_count):
        part = stack[rows]
        both = kernel(b.grid, np.concatenate((part, b.values * part)), mode)
        out[rows] = b.values * both[:len(part)] - both[len(part):]
    return out


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
    m = q0.side_cells
    # The prefix table of |b| cut to q0: its window sums are those of the
    # windows inside q0, indexed relative to q0.start.
    table = abs(b).prefix[tuple(slice(s, s + m + 1) for s in q0.start)]

    def averages(k):
        return table_window_sums(table, k, grid.dim) / k**grid.dim

    return _nested_cell_max(((k, averages(k)) for k in range(m, 0, -1)), grid.dim)


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
    """Maximal commutator read at the listed cells.

    Equal bit for bit to max_commutator(b, f, mode) read at the cells.  In
    dim 1 over the full family only the listed cells are computed
    (_max_comm_line); otherwise the whole grid is, and read off.
    """
    grid = b.grid
    if f.grid != grid:
        raise ValueError("symbol and operand live on different grids")
    # A cell is read as an index of the grid, negative ones and bounds checks included.
    flat = np.arange(grid.cell_count).reshape(grid.shape)
    at = np.array([flat[tuple(cell)] for cell in cells], dtype=int)
    if grid.dim == 1 and mode is CubeFamilyMode.FULL:
        return _max_comm_line(b, f.values[None], at)[0]
    return max_commutator(b, f, mode).values.reshape(-1)[at]


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


def on_cubes(tag: OperatorTag, grid: Grid, cubes, weight,
             mode: CubeFamilyMode = CubeFamilyMode.FULL):
    """The operator on weight * chi_Q for every cube Q, read on the cells of Q.

    weight is a grid array or a scalar.  cubes run in enumeration order, a
    whole family or a run of its sides; one array of shape (cubes_k, k^dim)
    is yielded per side k, its row r the r-th of the side-k cubes.  The
    indicators go through apply_stack in stacks that may straddle sides, and
    every row equals one call per cube bit for bit.
    """
    outs = ((apply_stack(tag, grid, weight * chis, mode), group)
            for group, chis in indicator_stacks(grid, cubes))
    yield from _join_sides(part for out, group in outs for part in _cube_parts(out, group))


def _cube_parts(out: np.ndarray, group):
    """(k, rows) per run of one side k in group: out[r] on the cells of group[r] (cube_blocks)."""
    for rows, run in side_runs(group):
        yield run[0].side_cells, cube_blocks(out[rows], run)


def _join_sides(parts):
    """One array per side from consecutive _cube_parts, the parts of a side joined."""
    for _, side in itertools.groupby(parts, key=lambda part: part[0]):
        yield np.concatenate([rows for _, rows in side])


# ---------------------------------------------------------------------------
# Naive oracles: direct sums per cube, then every cube's values scatter-maxed
# into its cells at once.  A per-cube oracle gathers the cells of every cube
# of the family in one indexing call (_family_cells), sums each side's
# contiguous (cubes, k^dim) rows with one call per side (_family_rows), and
# divides, repeats and scatters over the whole family once.  A side's rows
# are the rows its own gather would make, so the sums add in the same order.
# To stay independent of the fast paths, no _naive_* function may call
# window_sums, prefix_table, table_window_sums, GridFunction.prefix,
# window_view, _windowed_cell_max, _nested_cell_max or _holding
# (test_naive_oracles_use_no_fast_primitive).


@functools.lru_cache(maxsize=8)
def _family_cells(n: int, dim: int) -> np.ndarray:
    """The rows of _cube_cells(n, dim, k) for k = 1..n joined flat, cached and read-only.

    At the guard limits a family's index takes about 0.4 MB (1-D N = 64 or
    2-D N = 16), so the 8 families the cache keeps take at most about 3 MB.
    """
    cells = np.concatenate([_cube_cells(n, dim, k) for k in range(1, n + 1)], axis=None)
    cells.flags.writeable = False
    return cells


@functools.lru_cache(maxsize=8)
def _family_rows(n: int, dim: int) -> tuple[tuple, np.ndarray]:
    """Where each side's rows lie in _family_cells(n, dim), and each cube's cell count.

    Returns (sides, counts).  sides[k - 1] = (cells, cubes): the side-k cubes'
    cells are _family_cells(n, dim)[cells], their (cubes, k^dim) rows joined,
    and those cubes are cubes of the family in enumeration order.  counts[c]
    is k^dim for the c-th cube.  Cached for 8 families, counts read-only.
    """
    sizes = [k**dim for k in range(1, n + 1)]
    cubes = [(n - k + 1) ** dim for k in range(1, n + 1)]
    sides, cell_at, cube_at = [], 0, 0
    for size, count in zip(sizes, cubes):
        sides.append((slice(cell_at, cell_at + count * size), slice(cube_at, cube_at + count)))
        cell_at, cube_at = cell_at + count * size, cube_at + count
    counts = np.repeat(sizes, cubes)
    counts.flags.writeable = False
    return tuple(sides), counts


@functools.lru_cache(maxsize=ORACLE_MAX_CELLS_DIM1)
def _cube_cells(n: int, dim: int, k: int) -> np.ndarray:
    """Flat indices of each side-k cube's cells, (cubes, k^dim), rows as in enumerate_cubes.

    Cached and read-only.  The cache keeps at most ORACLE_MAX_CELLS_DIM1
    entries, the sides of one family at the 1-D guard limit; on grids within
    the guard limits that is at most about 1.2 MB (one family's rows take
    about 0.4 MB).
    """
    corners = starts = np.arange(n - k + 1)
    offsets = steps = np.arange(k)
    for _ in range(dim - 1):
        corners = (n * corners[:, None] + starts).reshape(-1)
        offsets = (n * offsets[:, None] + steps).reshape(-1)
    cells = corners[:, None] + offsets
    cells.flags.writeable = False
    return cells


def _naive_scatter(n: int, dim: int, values: np.ndarray) -> np.ndarray:
    """Per cell, the max of values over every cube of the family holding it.

    values holds one value per cell of each cube, laid out as
    _family_cells(n, dim); one scatter-max takes them all.
    """
    out = np.zeros(n**dim)
    np.maximum.at(out, _family_cells(n, dim), values)
    return out.reshape((n,) * dim)


def _naive_per_cube(vals: np.ndarray, statistic) -> np.ndarray:
    """Per cell, the max of a per-cube statistic over all grid cubes holding the cell.

    statistic(cells, row_sums, counts) gets the family's cells gathered once
    (every cube's values in a row, joined as _family_cells), row_sums, which
    sums an array laid out like cells over each cube's row, and each cube's
    cell count; it returns one value per cube.
    """
    n, dim = vals.shape[0], vals.ndim
    sides, counts = _family_rows(n, dim)

    def row_sums(a: np.ndarray) -> np.ndarray:
        sums = np.empty(len(counts))
        for k, (at, cubes) in enumerate(sides, 1):
            a[at].reshape(-1, k**dim).sum(axis=1, out=sums[cubes])
        return sums

    cells = vals.reshape(-1)[_family_cells(n, dim)]
    return _naive_scatter(n, dim, np.repeat(statistic(cells, row_sums, counts), counts))


def _naive_average_max(absv: np.ndarray) -> np.ndarray:
    return _naive_per_cube(absv, lambda cells, row_sums, counts: row_sums(cells) / counts)


def _naive_hl(f: GridFunction) -> np.ndarray:
    return _naive_average_max(np.abs(f.values))


def _naive_sharp(f: GridFunction) -> np.ndarray:
    def mean_oscillation(cells, row_sums, counts):
        dev = np.repeat(row_sums(cells) / counts, counts)
        np.subtract(cells, dev, out=dev)
        return row_sums(np.abs(dev, out=dev)) / counts

    return _naive_per_cube(f.values, mean_oscillation)


def _naive_frac(f: GridFunction, alpha: float) -> np.ndarray:
    n, dim, h = f.grid.cells_per_axis, f.grid.dim, f.grid.spacing
    # One Python power per side, repeated over its cubes: numpy's vectorized
    # power may round differently.
    scale = np.repeat([(k * h) ** alpha for k in range(1, n + 1)],
                      [(n - k + 1) ** dim for k in range(1, n + 1)])
    return _naive_per_cube(np.abs(f.values),
                           lambda cells, row_sums, counts: scale * row_sums(cells) / counts)


def _naive_max_comm(b: GridFunction, f: GridFunction) -> np.ndarray:
    """Per side, each cube's table |b(y) - b(x)| |f(y)| over its cells x, y, summed over y."""
    n, dim = b.grid.cells_per_axis, b.grid.dim
    flat_b, flat_f = b.values.reshape(-1), np.abs(f.values).reshape(-1)

    def averages(idx: np.ndarray, k: int) -> np.ndarray:
        table = flat_b[idx][:, None, :] - flat_b[idx][:, :, None]
        np.abs(table, out=table)
        table *= flat_f[idx][:, None, :]
        return table.sum(axis=2) / k**dim

    sides = [averages(_cube_cells(n, dim, k), k) for k in range(1, n + 1)]
    return _naive_scatter(n, dim, np.concatenate(sides, axis=None))


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
    gathers every cube of it, and the maximal commutator's oracle a
    (cubes, K, K) table per side (K = k^dim cells; about 4 MB at the limits).
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
