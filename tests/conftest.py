"""Shared builders for the test suite.

Oracle helpers here are deliberately primitive: fsum instead of prefix
tables, closed forms instead of solvers, nested loops instead of the
vectorized paths under test.
"""

import itertools
import math

import numpy as np
import pytest

from maxlip import (CubeFamilyMode, Grid, GridFunction, enumerate_cubes, make_grid, sample,
                    validate_p)


def seeded_function(grid: Grid, seed: int, low: float = -1.0, high: float = 1.0) -> GridFunction:
    rng = np.random.default_rng(seed)
    return GridFunction(grid, rng.uniform(low, high, grid.shape))


def fsum_integral(f: GridFunction) -> float:
    """Compensated cell sum, independent of the prefix-table path."""
    return math.fsum(f.values.reshape(-1).tolist()) * f.grid.cell_measure


def cell_center(grid: Grid, cell) -> tuple[float, ...]:
    """Center coordinates of a cell, read from Grid.centers."""
    return tuple(float(grid.centers(axis)[i]) for axis, i in enumerate(cell))


def cubes_by_side(grid: Grid, mode: CubeFamilyMode = CubeFamilyMode.FULL) -> list:
    """(k, the side-k cubes in enumeration order) per side of the family,
    grouped off enumerate_cubes."""
    return [(k, tuple(side)) for k, side in
            itertools.groupby(enumerate_cubes(grid, mode), key=lambda cube: cube.side_cells)]


def first_best(values, witnesses, lowest: bool = False) -> tuple:
    """(value, witness, count) of the largest (lowest: smallest) value, one
    comparison at a time: a later value wins only when strictly better, so
    ties keep the earliest and a NaN taken first is never beaten.  The
    reference for sweep.worst_of, written apart from it."""
    value = witness = None
    count = 0
    for v, w in zip(values, witnesses, strict=True):
        v = float(v)
        if not count or (v < value if lowest else v > value):
            value, witness = v, w
        count += 1
    return value, witness, count


def const_exponent(grid: Grid, value: float):
    return validate_p(sample(grid, lambda *xy: value))


def affine_exponent(grid: Grid, a: float, b: float):
    return validate_p(sample(grid, lambda x, *rest: a + b * x))


@pytest.fixture
def grid16() -> Grid:
    return make_grid(1, 16)


@pytest.fixture
def grid8x8() -> Grid:
    return make_grid(2, 8)
