"""Shared builders for the test suite.

Oracle helpers here are deliberately primitive: fsum instead of prefix
tables, closed forms instead of solvers, nested loops instead of the
vectorized paths under test.
"""

import math

import numpy as np
import pytest

from maxlip import Grid, GridFunction, make_grid, sample, validate_p


def seeded_function(grid: Grid, seed: int, low: float = -1.0, high: float = 1.0) -> GridFunction:
    rng = np.random.default_rng(seed)
    return GridFunction(grid, rng.uniform(low, high, grid.shape))


def fsum_integral(f: GridFunction) -> float:
    """Compensated cell sum, independent of the prefix-table path."""
    return math.fsum(f.values.reshape(-1).tolist()) * f.grid.cell_measure


def cell_center(grid: Grid, cell) -> tuple[float, ...]:
    """Center coordinates of a cell, read from Grid.centers."""
    return tuple(float(grid.centers(axis)[i]) for axis, i in enumerate(cell))


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
