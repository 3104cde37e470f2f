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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import (
    Cube,
    CubeFamilyMode,
    GridFunction,
    check_cube,
    family_sides,
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
    "oracle_check",
]

# The naive oracle slices every cube of the full family once (and, for the
# maximal commutator, once per cell of the cube); keep it at desk scale.
ORACLE_MAX_CELLS_DIM1 = 64
ORACLE_MAX_CELLS_DIM2 = 16


def _windowed_cell_max(window_vals: np.ndarray, k: int) -> np.ndarray:
    """Per-cell max of the side-k window values over windows containing the cell.

    window_vals is indexed by window start.  Cells near the boundary see
    fewer windows; the -inf padding keeps them out of the running max.
    """
    if k == 1:
        return window_vals
    if window_vals.ndim == 1:
        pad = np.full(k - 1, -np.inf)
        padded = np.concatenate([pad, window_vals, pad])
        return sliding_window_view(padded, k).max(axis=1)
    padded = np.pad(window_vals, k - 1, constant_values=-np.inf)
    return sliding_window_view(padded, (k, k)).max(axis=(2, 3))


def hl_max(f: GridFunction, mode: CubeFamilyMode = CubeFamilyMode.FULL) -> GridFunction:
    """Maximal function: per cell, the largest average of |f| over cubes containing it."""
    grid = f.grid
    absf = abs(f)
    out = np.full(grid.shape, -np.inf)
    for k in family_sides(grid.cells_per_axis, mode):
        avgs = window_sums(absf, k) / k**grid.dim
        np.maximum(out, _windowed_cell_max(avgs, k), out=out)
    return GridFunction(grid, out)


def frac_max(f: GridFunction, alpha: float, mode: CubeFamilyMode = CubeFamilyMode.FULL) -> GridFunction:
    """Fractional maximal function of order alpha in (0, dim)."""
    grid = f.grid
    if not 0.0 < alpha < grid.dim:
        raise ValueError(f"alpha must lie in (0, {grid.dim}), got {alpha}")
    absf = abs(f)
    h = grid.spacing
    out = np.full(grid.shape, -np.inf)
    for k in family_sides(grid.cells_per_axis, mode):
        scaled = (k * h) ** alpha * window_sums(absf, k) / k**grid.dim
        np.maximum(out, _windowed_cell_max(scaled, k), out=out)
    return GridFunction(grid, out)


def sharp_max(f: GridFunction, mode: CubeFamilyMode = CubeFamilyMode.FULL) -> GridFunction:
    """Sharp maximal function: largest mean oscillation over cubes containing the cell.

    One window view per side yields the mean and the mean absolute
    deviation of every side-k cube at once; the per-cell sliding max then
    spreads them over the cells.  Memory per side is (N-k+1)^dim k^dim.
    """
    grid = f.grid
    count_axes = tuple(range(grid.dim, 2 * grid.dim))
    out = np.full(grid.shape, -np.inf)
    for k in family_sides(grid.cells_per_axis, mode):
        windows = sliding_window_view(f.values, (k,) * grid.dim)
        count = k**grid.dim
        means = windows.sum(axis=count_axes, keepdims=True) / count
        osc = np.abs(windows - means).sum(axis=count_axes) / count
        np.maximum(out, _windowed_cell_max(osc, k), out=out)
    return GridFunction(grid, out)


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
        np.maximum(out, _windowed_cell_max(sub, k), out=out)
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


def _comm_kernel_cell(
    b_vals: np.ndarray, absf: np.ndarray, cell: tuple[int, ...], sides: list[int], n: int
) -> float:
    """max over cubes containing the cell of avg |b(cell) - b(y)| |f(y)|."""
    if b_vals.ndim == 1:
        (x,) = cell
        gx = np.abs(b_vals - b_vals[x]) * absf
        pref = np.concatenate(([0.0], np.cumsum(gx)))
        best = 0.0
        for k in sides:
            lo, hi = max(0, x - k + 1), min(x, n - k)
            if lo > hi:
                continue
            sums = pref[lo + k : hi + k + 1] - pref[lo : hi + 1]
            best = max(best, float(sums.max()) / k)
        return best
    i, j = cell
    gx = np.abs(b_vals - b_vals[i, j]) * absf
    pref = np.zeros((n + 1, n + 1))
    pref[1:, 1:] = gx.cumsum(axis=0).cumsum(axis=1)
    best = 0.0
    for k in sides:
        ilo, ihi = max(0, i - k + 1), min(i, n - k)
        jlo, jhi = max(0, j - k + 1), min(j, n - k)
        if ilo > ihi or jlo > jhi:
            continue
        sums = (
            pref[ilo + k : ihi + k + 1, jlo + k : jhi + k + 1]
            - pref[ilo + k : ihi + k + 1, jlo : jhi + 1]
            - pref[ilo : ihi + 1, jlo + k : jhi + k + 1]
            + pref[ilo : ihi + 1, jlo : jhi + 1]
        )
        best = max(best, float(sums.max()) / k**2)
    return best


def max_commutator(
    b: GridFunction, f: GridFunction, mode: CubeFamilyMode = CubeFamilyMode.FULL
) -> GridFunction:
    """Maximal commutator: per cell x, sup over cubes of avg |b(x)-b(y)| |f(y)|."""
    grid = b.grid
    if f.grid != grid:
        raise ValueError("symbol and operand live on different grids")
    n = grid.cells_per_axis
    sides = family_sides(n, mode)
    absf = np.abs(f.values)
    out = np.zeros(grid.shape)
    for cell in np.ndindex(grid.shape):
        out[cell] = _comm_kernel_cell(b.values, absf, cell, sides, n)
    return GridFunction(grid, out)


def max_commutator_at_cells(
    b: GridFunction,
    f: GridFunction,
    cells: list[tuple[int, ...]],
    mode: CubeFamilyMode = CubeFamilyMode.FULL,
) -> np.ndarray:
    """Maximal commutator evaluated only at the listed cells (sweep helper)."""
    grid = b.grid
    if f.grid != grid:
        raise ValueError("symbol and operand live on different grids")
    n = grid.cells_per_axis
    sides = family_sides(n, mode)
    absf = np.abs(f.values)
    return np.array([_comm_kernel_cell(b.values, absf, cell, sides, n) for cell in cells])


def comm_m(b: GridFunction, f: GridFunction, mode: CubeFamilyMode = CubeFamilyMode.FULL) -> GridFunction:
    """Commutator with the maximal operator: b * M(f) - M(b f)."""
    lhs = b.values * hl_max(f, mode).values
    rhs = hl_max(b * f, mode).values
    return GridFunction(b.grid, lhs - rhs)


def comm_sharp(b: GridFunction, f: GridFunction, mode: CubeFamilyMode = CubeFamilyMode.FULL) -> GridFunction:
    """Commutator with the sharp maximal operator: b * M#(f) - M#(b f)."""
    lhs = b.values * sharp_max(f, mode).values
    rhs = sharp_max(b * f, mode).values
    return GridFunction(b.grid, lhs - rhs)


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
    """Dispatch a tagged operator; local returns the subgrid array."""
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
