"""Uniform cell-centered grids, axis-aligned cubes, and exact box sums.

Everything downstream (Luxemburg norms, maximal operators, oscillation
functionals) lives on the discrete measure space built here: a bounded box
in dimension 1 or 2 split into N equal cells per axis, each cell carrying
measure h^dim with h = side/N.  Integrals over cell-aligned cubes are plain
weighted sums of cell values, so averaging identities that are only
asymptotic in the continuum hold exactly on the grid.

Cube enumeration is deterministic (ascending side length, then
lexicographic start index), which keeps every reported supremum witness
reproducible.  cube_rows lays a grid array out on every cube of one side,
one row per cube in that order, so a sweep over a family is array passes;
window_view is the strided view of those windows that it copies.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CubeFamilyMode",
    "Grid",
    "GridFunction",
    "Cube",
    "make_grid",
    "sample",
    "indicator",
    "check_cube",
    "family_sides",
    "enumerate_cubes",
    "cubes_by_side",
    "side_runs",
    "window_sums",
    "cube_rows",
    "write_gridfunction_csv",
    "read_gridfunction_csv",
]


class CubeFamilyMode(Enum):
    """Side lengths swept by cube enumeration.

    FULL takes every side k = 1..N; DYADIC_SIDES takes k in {1, 2, 4, ...}.
    Both modes use every admissible start index, so the dyadic family is a
    subset of the full one.
    """

    FULL = "full"
    DYADIC_SIDES = "dyadic"

    @classmethod
    def parse(cls, text: str) -> "CubeFamilyMode":
        key = str(text).strip().lower()
        if key == "full":
            return cls.FULL
        if key in ("dyadic", "dyadic_sides", "dyadicsides"):
            return cls.DYADIC_SIDES
        raise ValueError(f"unknown cube family {text!r}, expected 'full' or 'dyadic'")


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on a box of side ``box_side``.

    The cell of index i along an axis has center origin + (i + 1/2) * h.
    Grids are immutable and hashable so cube enumerations can be cached.
    """

    dim: int
    cells_per_axis: int
    box_origin: tuple[float, ...]
    box_side: float

    @property
    def spacing(self) -> float:
        return self.box_side / self.cells_per_axis

    @property
    def cell_measure(self) -> float:
        return self.spacing**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_axis,) * self.dim

    @property
    def cell_count(self) -> int:
        return self.cells_per_axis**self.dim

    def centers(self, axis: int = 0) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacing
        base = self.box_origin[axis]
        return base + (np.arange(self.cells_per_axis) + 0.5) * h


def make_grid(
    dim: int,
    cells_per_axis: int,
    box_origin: Sequence[float] = (0.0, 0.0),
    box_side: float = 1.0,
) -> Grid:
    """Build and validate a grid; dim must be 1 or 2 and N >= 2."""
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if not isinstance(cells_per_axis, (int, np.integer)) or cells_per_axis < 2:
        raise ValueError(f"cells_per_axis must be an integer >= 2, got {cells_per_axis!r}")
    side = float(box_side)
    if not np.isfinite(side) or side <= 0:
        raise ValueError(f"box_side must be positive and finite, got {box_side!r}")
    origin = tuple(float(x) for x in list(box_origin)[:dim])
    if len(origin) != dim:
        raise ValueError(f"box_origin needs {dim} coordinates, got {box_origin!r}")
    if not all(np.isfinite(x) for x in origin):
        raise ValueError(f"box_origin must be finite, got {box_origin!r}")
    return Grid(dim, int(cells_per_axis), origin, side)


class GridFunction:
    """Real values attached to grid cells (row-major in dim 2).

    Values are stored as a read-only array of shape (N,) or (N, N); all
    entries must be finite.  A prefix-sum table is attached lazily on first
    use and computed in extended precision so that cube sums queried from it
    stay within 1e-12 of a directly accumulated sum.
    """

    __slots__ = ("grid", "values", "_prefix")

    def __init__(self, grid: Grid, values: np.ndarray):
        arr = np.asarray(values, dtype=float)
        if arr.shape == (grid.cell_count,) and grid.dim == 2:
            arr = arr.reshape(grid.shape)
        if arr.shape != grid.shape:
            raise ValueError(f"values shape {arr.shape} does not match grid shape {grid.shape}")
        if not np.isfinite(arr).all():
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"non-finite value at cell {tuple(int(i) for i in bad)}")
        arr = arr.copy()
        arr.setflags(write=False)
        self.grid = grid
        self.values = arr
        self._prefix = None

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.grid, values)

    @property
    def prefix(self) -> np.ndarray:
        """Prefix sums of raw cell values (summed-area table in dim 2)."""
        if self._prefix is None:
            self._prefix = prefix_table(self.values, self.grid.dim)
        return self._prefix

    def __abs__(self) -> "GridFunction":
        return GridFunction(self.grid, np.abs(self.values))

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.grid, -self.values)

    def _coerce(self, other):
        if isinstance(other, GridFunction):
            if other.grid != self.grid:
                raise ValueError("grid mismatch between operands")
            return other.values
        return other

    def __add__(self, other) -> "GridFunction":
        return GridFunction(self.grid, self.values + self._coerce(other))

    def __sub__(self, other) -> "GridFunction":
        return GridFunction(self.grid, self.values - self._coerce(other))

    def __mul__(self, other) -> "GridFunction":
        return GridFunction(self.grid, self.values * self._coerce(other))

    __rmul__ = __mul__


def sample(grid: Grid, formula: Callable) -> GridFunction:
    """Evaluate a closed-form formula at all cell centers.

    In dim 1 the formula receives the center coordinate array; in dim 2 it
    receives two meshgrid arrays (x, y) matching row-major cell layout.
    Scalar returns broadcast.  Non-finite samples are rejected with the
    offending cell named.
    """
    if grid.dim == 1:
        raw = formula(grid.centers(0))
    else:
        xs, ys = np.meshgrid(grid.centers(0), grid.centers(1), indexing="ij")
        raw = formula(xs, ys)
    arr = np.broadcast_to(np.asarray(raw, dtype=float), grid.shape)
    return GridFunction(grid, arr)


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cell-aligned cube: start cell indices plus side in cells."""

    start: tuple[int, ...]
    side_cells: int

    def slices(self) -> tuple[slice, ...]:
        k = self.side_cells
        return tuple(slice(s, s + k) for s in self.start)

    def measure(self, grid: Grid) -> float:
        return (self.side_cells * grid.spacing)**grid.dim

    def side_length(self, grid: Grid) -> float:
        return self.side_cells * grid.spacing


def check_cube(grid: Grid, cube: Cube) -> None:
    """Raise unless the cube lies fully inside the grid."""
    n = grid.cells_per_axis
    k = cube.side_cells
    if len(cube.start) != grid.dim:
        raise ValueError(f"cube start {cube.start} does not match grid dim {grid.dim}")
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"cube side must be a positive integer, got {k!r}")
    for s in cube.start:
        if not isinstance(s, (int, np.integer)) or s < 0 or s + k > n:
            raise ValueError(f"cube start={cube.start} side={k} leaves the {n}-cell grid")


def indicator(grid: Grid, cube: Cube) -> GridFunction:
    """Characteristic function of a cube."""
    check_cube(grid, cube)
    vals = np.zeros(grid.shape)
    vals[cube.slices()] = 1.0
    return GridFunction(grid, vals)


def family_sides(n: int, mode: CubeFamilyMode) -> list[int]:
    if mode is CubeFamilyMode.FULL:
        return list(range(1, n + 1))
    sides = []
    k = 1
    while k <= n:
        sides.append(k)
        k *= 2
    return sides


@lru_cache(maxsize=128)
def _enumerate(grid: Grid, mode: CubeFamilyMode) -> tuple[Cube, ...]:
    n = grid.cells_per_axis
    cubes = []
    for k in family_sides(n, mode):
        starts = range(n - k + 1)
        if grid.dim == 1:
            cubes.extend(Cube((s,), k) for s in starts)
        else:
            cubes.extend(Cube((i, j), k) for i in starts for j in starts)
    return tuple(cubes)


def enumerate_cubes(grid: Grid, mode: CubeFamilyMode = CubeFamilyMode.FULL) -> tuple[Cube, ...]:
    """All cubes of the family, ascending side then lexicographic start."""
    return _enumerate(grid, mode)


def cubes_by_side(grid: Grid, mode: CubeFamilyMode = CubeFamilyMode.FULL):
    """The family split by side: (k, the side-k cubes in enumeration order) per side."""
    cubes, sides = enumerate_cubes(grid, mode), family_sides(grid.cells_per_axis, mode)
    counts = [(grid.cells_per_axis - k + 1) ** grid.dim for k in sides]
    return [(k, cubes[end - count:end])
            for k, count, end in zip(sides, counts, itertools.accumulate(counts))]


def side_runs(cubes):
    """(rows, run) for each run of consecutive cubes of one side: run = cubes[rows]."""
    lo = 0
    for _, run in itertools.groupby(cubes, key=lambda cube: cube.side_cells):
        run = tuple(run)
        yield slice(lo, lo + len(run)), run
        lo += len(run)


def prefix_table(values: np.ndarray, dim: int, dtype=np.longdouble) -> np.ndarray:
    """Prefix sums over the last dim axes of values, any leading axes kept.

    Each trailing axis grows by a leading zero: shape (..., N+1) in dim 1
    and (..., N+1, N+1) in dim 2.  Each lane is accumulated in order, so a
    row of a stacked table equals the table of that row alone.
    """
    acc = values.astype(dtype)
    table = np.zeros(values.shape[:-dim] + tuple(s + 1 for s in values.shape[-dim:]), dtype=dtype)
    if dim == 1:
        np.cumsum(acc, axis=-1, out=table[..., 1:])
    else:
        table[..., 1:, 1:] = acc.cumsum(axis=-2).cumsum(axis=-1)
    return table


def table_window_sums(table: np.ndarray, k: int, dim: int) -> np.ndarray:
    """Sums of every side-k window from a prefix table, as float64, leading axes kept."""
    if dim == 1:
        return (table[..., k:] - table[..., :-k]).astype(float, copy=False)
    return (table[..., k:, k:] - table[..., k:, :-k] - table[..., :-k, k:]
            + table[..., :-k, :-k]).astype(float, copy=False)


def window_sums(f: GridFunction, k: int) -> np.ndarray:
    """Raw value sums of every side-k cube, indexed by start cell.

    Shape (N-k+1,) in dim 1 and (N-k+1, N-k+1) in dim 2.
    """
    n = f.grid.cells_per_axis
    if not 1 <= k <= n:
        raise ValueError(f"window side {k} outside 1..{n}")
    return table_window_sums(f.prefix, k, f.grid.dim)


def window_view(values: np.ndarray, k: int, dim: int) -> np.ndarray:
    """The side-k windows of the last dim axes of values, as a read-only view.

    Shape values.shape[:-dim] + (N-k+1,)^dim + (k,)^dim, leading axes kept:
    the window start axes, then the cell axes of the window.  Shape and
    strides are those of numpy's sliding_window_view over the same axes, but
    the view is one np.ndarray call on the buffer of values, a small part of
    sliding_window_view's cost per call.  An array that is not C-contiguous
    is read through a contiguous copy.
    """
    values = np.ascontiguousarray(values)
    shape = values.shape[:-dim] + tuple(m - k + 1 for m in values.shape[-dim:]) + (k,) * dim
    view = np.ndarray(shape, values.dtype, values, 0, values.strides + values.strides[-dim:])
    view.flags.writeable = False
    return view


def cube_rows(values: np.ndarray, k: int) -> np.ndarray:
    """Row r: the cells of the r-th side-k cube of enumerate_cubes, row-major.

    Shape ((N-k+1)^dim, k^dim); the rows of a family's sides, joined, are
    indexed like the family.  A contiguous copy, so a row sums like the
    cube's slice, bit for bit.
    """
    dim = values.ndim
    return np.ascontiguousarray(window_view(values, k, dim)).reshape(-1, k**dim)


def write_gridfunction_csv(f: GridFunction, path) -> None:
    """CSV dump: header index,value (dim 1) or i,j,value (dim 2), 17 significant digits."""
    write_cells_csv(f.values, path)


def write_cells_csv(values: np.ndarray, path, start: Sequence[int] = (0, 0)) -> None:
    """write_gridfunction_csv of a block of cell values whose first cell is start.

    The text is what csv.writer makes of the rows [*cell, f"{v:.17g}"]: no
    field needs quoting, and lines end in \r\n.  One format call makes it.
    """
    index = np.indices(values.shape).reshape(values.ndim, -1)
    index += np.reshape(start[:values.ndim], (-1, 1))
    fields = itertools.chain.from_iterable(zip(*index.tolist(), values.reshape(-1).tolist()))
    line = "{}," * values.ndim + "{:.17g}\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(("index,value\r\n" if values.ndim == 1 else "i,j,value\r\n")
                 + (line * values.size).format(*fields))


def read_gridfunction_csv(path, grid: Grid) -> GridFunction:
    """Read a CSV produced by write_gridfunction_csv; every cell must appear.

    A malformed row, or one naming a cell off the grid, raises ValueError.
    """
    vals = np.full(grid.shape, np.nan)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = ["index", "value"] if grid.dim == 1 else ["i", "j", "value"]
        if header != expected:
            raise ValueError(f"bad header {header!r} in {path}, expected {expected}")
        for row in reader:
            if not row:
                continue
            cell = tuple(int(i) for i in row[:-1])
            if len(cell) != grid.dim or not all(0 <= i < grid.cells_per_axis for i in cell):
                raise ValueError(f"row {row!r} in {path} names no cell of the grid")
            vals[cell] = float(row[-1])
    if np.isnan(vals).any():
        missing = np.argwhere(np.isnan(vals))[0]
        raise ValueError(f"cell {tuple(int(i) for i in missing)} missing from {path}")
    return GridFunction(grid, vals)
