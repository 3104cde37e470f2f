"""Computations made apart from the program, used to check its outputs.

Nothing here imports maxlip.  Cube sums are exact: every float is an
integer multiple of 2**-1074, so a prefix table of Python integers at that
scale gives every cube sum without rounding, and one correctly rounded
division turns it into an average.  Mean oscillations and modulars use
math.fsum.  Maxima are brute-force loops over cubes: every cube of the
family is visited and its statistic taken into each of its cells, or, for
the maximal commutator, every cube holding one sampled cell is visited.
No sliding window or per-side table is used.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_SCALE = 1 << 1074


def _exact(x: float) -> int:
    num, den = float(x).as_integer_ratio()
    return num * (_SCALE // den)


def sides(n: int, family: str) -> list[int]:
    if family == "full":
        return list(range(1, n + 1))
    out, k = [], 1
    while k <= n:
        out.append(k)
        k *= 2
    return out


def cubes_containing(cell: tuple[int, ...], n: int, family: str):
    """(start, side) of every family cube of an n-cell box holding the cell."""
    for k in sides(n, family):
        ranges = [range(max(0, c - k + 1), min(c, n - k) + 1) for c in cell]
        for start in itertools.product(*ranges):
            yield start, k


class ExactSums:
    """Exact cube sums of a 1-D or 2-D float array."""

    def __init__(self, values: np.ndarray):
        self.dim = values.ndim
        if self.dim == 1:
            table = [0]
            for v in values.tolist():
                table.append(table[-1] + _exact(v))
        else:
            n0, n1 = values.shape
            table = [[0] * (n1 + 1) for _ in range(n0 + 1)]
            rows = values.tolist()
            for i in range(n0):
                acc = 0
                above, here = table[i], table[i + 1]
                for j in range(n1):
                    acc += _exact(rows[i][j])
                    here[j + 1] = above[j + 1] + acc
        self.table = table

    def average(self, start: tuple[int, ...], k: int) -> float:
        """Cube average, rounded once from the exact sum."""
        t = self.table
        if self.dim == 1:
            (s,) = start
            total = t[s + k] - t[s]
        else:
            i, j = start
            total = t[i + k][j + k] - t[i][j + k] - t[i + k][j] + t[i][j]
        return total / (_SCALE * k**self.dim)


def _block(values: np.ndarray, start: tuple[int, ...], k: int) -> np.ndarray:
    return values[tuple(slice(s, s + k) for s in start)]


def all_cubes(n: int, dim: int, family: str):
    """(start, side) of every family cube of an n-cell box."""
    for k in sides(n, family):
        for start in itertools.product(range(n - k + 1), repeat=dim):
            yield start, k


def _sup_over_cubes(shape, cubes, statistic) -> np.ndarray:
    """Per cell, the largest statistic(start, side) over the given cubes holding it."""
    out = np.full(shape, -math.inf)
    for start, k in cubes:
        sl = tuple(slice(s, s + k) for s in start)
        np.maximum(out[sl], statistic(start, k), out=out[sl])
    return out


def maximal(values: np.ndarray, family: str, weight=None) -> np.ndarray:
    """Maximal function of the values on every cell, cube by cube: the
    largest average of |f| (times weight(side), if given) over family cubes."""
    sums = ExactSums(np.abs(values))
    weight = weight or (lambda k: 1.0)
    return _sup_over_cubes(values.shape, all_cubes(values.shape[0], values.ndim, family),
                           lambda s, k: sums.average(s, k) * weight(k))


def sharp(values: np.ndarray, family: str) -> np.ndarray:
    """Sharp maximal function on every cell: the largest mean |f - f_Q|."""
    sums = ExactSums(values)

    def oscillation(start, k):
        block = _block(values, start, k)
        return math.fsum(np.abs(block - sums.average(start, k)).ravel().tolist()) / block.size

    return _sup_over_cubes(values.shape, all_cubes(values.shape[0], values.ndim, family),
                           oscillation)


def local_maximal(b: np.ndarray, q_start: tuple[int, ...], m: int) -> np.ndarray:
    """Maximal function of b localized to the side-m cube at q_start: the sup
    runs over the subcubes of that cube only.  Indexed relative to q_start."""
    return maximal(_block(b, q_start, m), "full")


def max_commutator_at(b: np.ndarray, f: np.ndarray, cell, family: str) -> float:
    """sup over cubes Q holding x of the average over Q of |b(x) - b(y)| |f(y)|."""
    sums = ExactSums(np.abs(b - b[cell]) * np.abs(f))
    return max(sums.average(s, k) for s, k in cubes_containing(cell, b.shape[0], family))


def modular(values: np.ndarray, p: np.ndarray, cell_measure: float, lam: float) -> float:
    """sum over cells of |f/lam|^p h^dim, by math.fsum."""
    terms = np.power(np.abs(values).ravel() / lam, p.ravel())
    return math.fsum(terms.tolist()) * cell_measure


def holder_seminorm(values: np.ndarray, beta: float, h: float) -> float:
    """max |b(x) - b(y)| / |x - y|^beta over every pair of cell centers."""
    coords = np.argwhere(np.ones(values.shape, dtype=bool)).astype(float) * h
    flat = values.reshape(-1)
    best = 0.0
    for i in range(len(flat) - 1):
        dist = np.sqrt(((coords[i + 1:] - coords[i]) ** 2).sum(axis=1))
        best = max(best, float(np.max(np.abs(flat[i + 1:] - flat[i]) / dist**beta)))
    return best


def close(value: float, expected: float, rel: float) -> bool:
    """|value - expected| <= rel * (1 + |expected|)."""
    return abs(value - expected) <= rel * (1.0 + abs(expected))
