"""Suprema with their witnesses: a running worst case and the cell-pair sweep.

Every quantity maxlip reports is an extremum over a finite family (cubes,
bank functions, cell pairs) together with the member attaining it.
``Worst`` tracks one such extremum.  ``pair_sweep`` takes the supremum over
cell-center pairs of a score of |f(x) - f(y)| and |x - y|: the Lip_beta
seminorm of a symbol and the log-Holder modulus of an exponent are two
scores of the same sweep.

The sweep groups pairs by their offset and scores each offset on its
largest difference, so a score must be nondecreasing in the difference.
An offset o cannot score more than score(min(R, sum_a |o_a| L_a), |o| h),
with R the range of f and L_a its largest step along axis a.  Offsets are
evaluated in descending order of that bound until it falls below the best
score found, and the evaluated ones are then offered in offset order: the
result is bit for bit that of evaluating every offset, witness included.
The bound is scored once per distinct (|o_0|, ..., |o_dim-1|), and the
slices of an offset are made only when it is evaluated.
A smooth f stops the walk after a few offsets; a field on which every
offset ties (|x - x0|^beta under the Lip_beta score) evaluates them all.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .grid import GridFunction

# Exact pair sweeps stay cheap up to these cells per axis; beyond them the
# sweep scores the adjacent pairs plus a seeded sample of pairs.
_EXACT_PAIRS = {1: 4096, 2: 64}
_SAMPLE_PAIRS = 4096
_SAMPLE_SEED = 0
# Lifts a path sum above the at most five roundings (of 2**-53 each) between
# the exact axis steps and a computed difference: a rounding margin.
_SLACK = 1.0 + 2.0**-40


class Worst:
    """The largest (or, with lowest=True, smallest) value offered, and its witness.

    The first value offered is taken; a later one replaces it only when it is
    strictly better, so ties keep the earliest witness.  ``count`` is the
    number of values offered: a sweep that offered none saw nothing, and has
    no value to report.
    """

    __slots__ = ("value", "witness", "count", "lowest")

    def __init__(self, lowest: bool = False):
        self.value = None
        self.witness = None
        self.count = 0
        self.lowest = lowest

    def _takes(self, value) -> bool:
        return not self.count or (value < self.value if self.lowest else value > self.value)

    def offer(self, value, witness=None) -> None:
        if self._takes(value):
            self.value, self.witness = value, witness
        self.count += 1

    def offer_all(self, values, witness_of) -> None:
        """offer(values[i], witness_of(i)) for every i in order, in one array pass.

        The first best entry is taken; NaN never compares better, so it is
        taken only as the very first value.  witness_of(i) is called only
        for the entry taken.
        """
        values = np.asarray(values, dtype=float).reshape(-1)
        if not values.size:
            return
        if not self.count and np.isnan(values[0]):
            i = 0
        else:
            key = np.where(np.isnan(values), np.inf if self.lowest else -np.inf, values)
            i = int(key.argmin() if self.lowest else key.argmax())
        value = float(values[i])
        if self._takes(value):
            self.value, self.witness = value, witness_of(i)
        self.count += values.size


def worst_of(values, witnesses, lowest: bool = False) -> Worst:
    """The Worst of an array of values, witnesses[i] the witness of values[i]."""
    worst = Worst(lowest)
    worst.offer_all(values, witnesses.__getitem__)
    return worst


def _diff_bounds(v: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """An upper bound on the computed |v[x] - v[y]| of the pairs at each offset reach.

    reach holds one row (|o_0|, ..., |o_dim-1|) per offset o.  Along axis a
    no step exceeds L_a = max |diff of v along a|, so a pair at offset o
    differs by at most sum_a |o_a| L_a (triangle inequality along an
    axis-parallel path inside the grid), and never by more than the range.
    _SLACK covers the rounding of the steps, the path sum and the difference
    itself; fl(max - min) needs none, since rounding is monotone.  An
    overflowing step or range gives an infinite bound.
    """
    dim = v.ndim
    spread = float(v.max()) - float(v.min())
    steps = [float(np.abs(np.diff(v, axis=a)).max()) for a in range(dim)]
    with np.errstate(over="ignore", invalid="ignore"):
        # An axis the offset does not move along adds 0, even for L_a = inf.
        path = sum(np.where(r == 0, 0.0, r * step) for r, step in zip(reach.T, steps)) * _SLACK
    return np.minimum(path, spread)


def _offset_bounds(v: np.ndarray, offsets: list, score, h: float) -> list:
    """score(_diff_bounds, h |o|) of each offset o, one score call per distinct reach.

    A bound depends on o only through its reach (|o_0|, ..., |o_dim-1|), and
    math.hypot ignores signs, so in dim 2 the offsets (a, b) and (a, -b)
    share one call.  The reaches are found by a table over their values,
    without a sort, and the scores kept in a float64 array, which holds a
    Python float exactly.
    """
    dim = v.ndim
    reach = np.abs(np.fromiter(itertools.chain.from_iterable(offsets), np.int64,
                               len(offsets) * dim).reshape(-1, dim))
    shape = (int(reach.max()) + 1,) * dim
    key = np.ravel_multi_index(tuple(reach.T), shape)
    seen = np.zeros(math.prod(shape), dtype=bool)
    seen[key] = True
    distinct = np.flatnonzero(seen)
    reaches = np.unravel_index(distinct, shape)
    scored = np.zeros(len(seen))
    scored[distinct] = [score(d, h * math.hypot(*r)) for d, r in
                        zip(_diff_bounds(v, np.stack(reaches, axis=1)).tolist(),
                            zip(*(a.tolist() for a in reaches)))]
    return scored[key].tolist()


def pair_sweep(f: GridFunction, score) -> tuple[float, tuple | None, bool]:
    """Supremum over cell-center pairs of score(|f(x) - f(y)|, |x - y|).

    Returns the value, the attaining pair of cells and whether every pair
    was seen.  Up to N = 4096 (dim 1) or N = 64 (dim 2) every offset is a
    candidate; larger grids take the adjacent offsets, then score a seeded
    sample of pairs as numpy arrays, and return a lower bound.

    A candidate offset scores its largest difference, and its bound is the
    score of a difference no smaller (``_diff_bounds``), both called with
    Python floats; so score must be nondecreasing in the difference.
    Candidates are evaluated in descending order of bound, and the walk
    stops at the first bound below the best score so far, or at most 0: no
    offset after it can win or tie.  The evaluated scores are then offered
    in offset order, so value and witness are bit for bit those of
    evaluating every candidate in turn, and ties keep the lexicographically
    first offset.  The supremum starts at 0 with no witness, which is what
    a constant f returns.
    """
    grid = f.grid
    v = f.values
    n, dim, h = grid.cells_per_axis, grid.dim, grid.spacing
    exact = n <= _EXACT_PAIRS[dim]
    if exact:
        # Offsets lexicographically above zero meet each unordered pair once.
        ranges = [range(n)] + [range(1 - n, n)] * (dim - 1)
        offsets = [o for o in itertools.product(*ranges) if o > (0,) * dim]
    else:
        offsets = [tuple(int(a == b) for b in range(dim)) for a in range(dim)]

    def diffs(o: tuple[int, ...]) -> np.ndarray:
        # Along an axis, offset component c pairs the cells x of the first
        # slice with the cells y = x - c of the second.
        x = tuple(slice(c, n) if c >= 0 else slice(0, n + c) for c in o)
        y = tuple(slice(0, n - c) if c >= 0 else slice(-c, n) for c in o)
        d = v[x] - v[y]
        return np.abs(d, out=d)

    bounds = _offset_bounds(v, offsets, score, h)
    # An offset left unevaluated keeps -inf, which the initial 0 beats.
    top, scores = 0.0, np.full(len(offsets), -np.inf)
    for i in sorted(range(len(offsets)), key=bounds.__getitem__, reverse=True):
        bound = bounds[i]
        if bound < top or bound <= 0.0:
            break
        o = offsets[i]
        d = diffs(o).reshape(-1)
        scores[i] = value = score(float(d[d.argmax()]), h * math.hypot(*o))
        top = value if value > top else top
    best = Worst()
    best.offer(0.0)
    best.offer_all(scores, offsets.__getitem__)
    if best.witness is not None:
        o = best.witness
        start = np.unravel_index(int(diffs(o).argmax()), tuple(n - abs(c) for c in o))
        x = tuple(int(s) + max(c, 0) for s, c in zip(start, o))
        y = tuple(int(s) + max(-c, 0) for s, c in zip(start, o))
        # 1-D pairs are listed in increasing order, 2-D pairs offset cell first.
        best.witness = (y, x) if dim == 1 else (x, y)
    if not exact:
        flat = v.reshape(-1)
        coords = np.indices(v.shape).reshape(dim, -1).T
        rng = np.random.default_rng(_SAMPLE_SEED)
        a = rng.integers(0, flat.size, size=_SAMPLE_PAIRS)
        c = rng.integers(0, flat.size, size=_SAMPLE_PAIRS)
        keep = a != c
        a, c = a[keep], c[keep]
        dist = h * np.sqrt(((coords[a] - coords[c]) ** 2).sum(axis=1))
        scores = score(np.abs(flat[a] - flat[c]), dist)
        i = int(np.argmax(scores))
        pair = tuple(tuple(int(t) for t in coords[j]) for j in (a[i], c[i]))
        best.offer(float(scores[i]), pair)
    return best.value, best.witness, exact
