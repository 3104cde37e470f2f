"""The cell-pair sweep behind Lip_beta and the log-Holder modulus, against
brute force over every pair and against the per-offset loop it replaced,
and the worst-case accumulator."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maxlip import GridFunction, lip_seminorm, make_grid, sample, validate_p
from maxlip.exponents import _log_holder_score
from maxlip.sweep import _EXACT_PAIRS, _SAMPLE_PAIRS, _SAMPLE_SEED, Worst, pair_sweep

from conftest import cell_center, seeded_function


def lip_score(beta):
    return lambda diff, dist: diff / dist**beta


def log_holder_score(diff, dist):
    return diff * np.log(math.e + 1.0 / dist)


def brute_sup(f: GridFunction, score) -> float:
    """Largest score over all unordered pairs of cell centers, one cell at a time."""
    centers = np.array([cell_center(f.grid, c) for c in np.ndindex(f.grid.shape)])
    vals = f.values.reshape(-1)
    best = 0.0
    for i in range(len(vals) - 1):
        dist = np.sqrt(((centers[i + 1:] - centers[i]) ** 2).sum(axis=1))
        best = max(best, float(np.max(score(np.abs(vals[i + 1:] - vals[i]), dist))))
    return best


def pair_score(f: GridFunction, pair, score) -> float:
    x, y = pair
    dist = math.dist(cell_center(f.grid, x), cell_center(f.grid, y))
    return float(score(np.array([abs(f.values[x] - f.values[y])]), np.array([dist]))[0])


def anti_diagonal(n: int, base: float) -> GridFunction:
    """Constant but for cells (0, 1) and (1, 0): the only pair attaining the
    supremum sits at a negative column offset."""
    v = np.full((n, n), base)
    v[0, 1], v[1, 0] = base + 0.5, base - 0.5
    return GridFunction(make_grid(2, n), v)


def test_log_holder_exact_sweep_matches_all_pairs():
    fields = []
    for dim, n in ((1, 12), (2, 5)):
        g = make_grid(dim, n)
        fields += [seeded_function(g, seed, 1.5, 3.0) for seed in range(3)]
    fields.append(anti_diagonal(5, 2.0))
    for field in fields:
        p = validate_p(field)
        assert p.log_holder_exact
        assert p.log_holder_const == pytest.approx(brute_sup(field, log_holder_score), rel=1e-12)
    h = 1.0 / 5
    assert p.log_holder_const == pytest.approx(math.log(math.e + 1.0 / (h * math.sqrt(2.0))),
                                               rel=1e-12)


def test_lip_seminorm_2d_witness_reproduces_value():
    g = make_grid(2, 5)
    for b in [seeded_function(g, seed) for seed in range(3)] + [anti_diagonal(5, 0.0)]:
        res = lip_seminorm(b, 0.6)
        assert res.exact
        assert res.value == pytest.approx(brute_sup(b, lip_score(0.6)), rel=1e-12)
        assert pair_score(b, res.witness, lip_score(0.6)) == pytest.approx(res.value, rel=1e-12)
    assert set(res.witness) == {(0, 1), (1, 0)}


def adjacent_sup(f: GridFunction) -> float:
    return max(float(np.max(np.abs(np.diff(f.values, axis=a)))) for a in range(f.grid.dim))


def test_sampled_sweeps_bracket_the_supremum():
    # Past N = 64 in 2-D: adjacent pairs plus a seeded sample, a lower bound.
    # On a linear field the far pairs win, so the sample must add to the
    # adjacent pairs; on a rough one the adjacent pairs carry the supremum.
    g = make_grid(2, 65)
    h = g.spacing
    for b in (seeded_function(g, 4), sample(g, lambda x, y: x + 0.5 * y)):
        res = lip_seminorm(b, 0.5)
        assert not res.exact
        assert adjacent_sup(b) / h**0.5 <= res.value <= brute_sup(b, lip_score(0.5)) * (1 + 1e-12)
        assert pair_score(b, res.witness, lip_score(0.5)) == pytest.approx(res.value, rel=1e-12)
    assert res.value > 2 * adjacent_sup(b) / h**0.5

    for field in (seeded_function(g, 5, 1.5, 3.0), sample(g, lambda x, y: 2.0 + 0.5 * x)):
        p = validate_p(field)
        assert not p.log_holder_exact
        lower = adjacent_sup(field) * math.log(math.e + 1.0 / h)
        assert lower <= p.log_holder_const <= brute_sup(field, log_holder_score) * (1 + 1e-12)
    assert p.log_holder_const > 2 * lower


def test_worst_takes_the_first_value_and_keeps_the_first_of_ties():
    top, low = Worst(), Worst(lowest=True)
    assert top.count == 0 and top.value is None and top.witness is None
    for value, witness in ((-5.0, "a"), (3.0, "b"), (3.0, "c"), (-5.0, "d")):
        top.offer(value, witness)
        low.offer(value, witness)
    assert (top.value, top.witness, top.count) == (3.0, "b", 4)
    assert (low.value, low.witness, low.count) == (-5.0, "a", 4)


def offered_one_by_one(values, lowest=False, before=()):
    worst = Worst(lowest)
    for value, witness in before:
        worst.offer(value, witness)
    for i, value in enumerate(values):
        worst.offer(float(value), i)
    return worst.value, worst.witness, worst.count


@pytest.mark.parametrize("lowest", [False, True])
@pytest.mark.parametrize("values", [
    [1.0, 3.0, 3.0, -2.0, 3.0],
    [-2.0, -2.0, 5.0, -2.0],
    [0.0, -0.0, 0.0],
    [4.0],
    [-np.inf, 1.0, np.inf, np.inf],
    [np.nan, 1.0, 2.0],
    [1.0, np.nan, 2.0, np.nan],
    [np.nan, np.nan],
    [-np.inf, np.nan, -np.inf],
])
@pytest.mark.parametrize("before", [(), ((2.0, "x"),), ((np.nan, "x"),), ((-np.inf, "x"),)])
def test_offer_all_follows_one_offer_at_a_time(values, lowest, before):
    worst = Worst(lowest)
    for value, witness in before:
        worst.offer(value, witness)
    asked = []
    worst.offer_all(np.array(values), lambda i: asked.append(i) or i)
    expected = offered_one_by_one(values, lowest, before)
    got = (worst.value, worst.witness, worst.count)
    assert np.array_equal(np.array(got[:1], dtype=float), np.array(expected[:1], dtype=float),
                          equal_nan=True)
    assert got[1:] == expected[1:]
    assert len(asked) <= 1


def test_offer_all_of_nothing_changes_nothing():
    worst = Worst()
    worst.offer_all(np.array([]), lambda i: "never")
    assert (worst.value, worst.witness, worst.count) == (None, None, 0)
    worst.offer(1.0, "a")
    worst.offer_all([], lambda i: "never")
    assert (worst.value, worst.witness, worst.count) == (1.0, "a", 1)


def test_offer_all_in_parts_equals_one_pass():
    rng = np.random.default_rng(3)
    values = rng.integers(0, 4, 60).astype(float)  # many ties
    for lowest in (False, True):
        parts = Worst(lowest)
        for lo in range(0, 60, 7):
            parts.offer_all(values[lo:lo + 7], lambda i, lo=lo: lo + i)
        assert (parts.value, parts.witness, parts.count) == offered_one_by_one(values, lowest)


def per_offset_sweep(f: GridFunction, score) -> tuple[float, tuple | None, bool]:
    """The pair sweep as it was before offsets were bounded: every offset of
    the exact range (or each adjacent offset past it) is evaluated and
    offered in lexicographic order, then the seeded sample on large grids."""
    grid = f.grid
    v = f.values
    n, dim, h = grid.cells_per_axis, grid.dim, grid.spacing
    exact = n <= _EXACT_PAIRS[dim]
    if exact:
        ranges = [range(n)] + [range(1 - n, n)] * (dim - 1)
        offsets = [o for o in itertools.product(*ranges) if o > (0,) * dim]
    else:
        offsets = [tuple(int(a == b) for b in range(dim)) for a in range(dim)]
    cut = {c: (slice(c, n), slice(0, n - c)) if c >= 0 else (slice(0, n + c), slice(-c, n))
           for c in {c for o in offsets for c in o}}

    def diffs(o: tuple[int, ...]) -> np.ndarray:
        x, y = zip(*map(cut.get, o))
        return np.abs(v[x] - v[y])

    best = Worst()
    best.offer(0.0)
    for o in offsets:
        d = diffs(o).reshape(-1)
        best.offer(score(float(d[d.argmax()]), h * math.hypot(*o)), o)
    if best.witness is not None:
        o = best.witness
        start = np.unravel_index(int(diffs(o).argmax()), tuple(n - abs(c) for c in o))
        x = tuple(int(s) + max(c, 0) for s, c in zip(start, o))
        y = tuple(int(s) + max(-c, 0) for s, c in zip(start, o))
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


FIELD_KINDS = ("uniform", "integer", "affine", "constant", "step", "ties", "quarter", "huge",
               "tiny")


def drawn_field(kind: str, dim: int, n: int, seed: int, beta: float) -> GridFunction:
    """A field of the given kind.  Scores tie on integer values and equal
    steps; on "ties", |x - x0|^beta, every offset scores 1 under the Lip_beta
    score in exact arithmetic, so the walk evaluates them all.  On "quarter"
    (2-D, N >= 5, beta = 1/2) the supremum 2 / sqrt(h) is attained at offset
    (1, 0), which has the larger bound and is evaluated first, and at
    (0, 4), whose bound equals its score and which comes first in offset
    order: a walk that stops at a bound equal to the best, or keeps the
    first evaluated maximum, picks (1, 0)."""
    grid = make_grid(dim, n)
    rng = np.random.default_rng(seed)
    index = np.indices(grid.shape)
    axis = int(rng.integers(dim))
    if kind == "uniform":
        values = rng.uniform(-1.0, 1.0, grid.shape)
    elif kind == "integer":
        values = rng.integers(-2, 3, grid.shape).astype(float)
    elif kind == "affine":
        values = rng.uniform(-2.0, 2.0) + rng.uniform(-3.0, 3.0) * index[axis] * grid.spacing
    elif kind == "constant":
        values = np.full(grid.shape, rng.choice([0.0, -0.0, 2.5, -1e308]))
    elif kind == "step":
        split = int(rng.integers(n))
        values = np.where(index[axis] < split, rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    elif kind == "ties":
        center = rng.integers(n, size=dim).reshape((dim,) + (1,) * dim)
        values = (grid.spacing * np.sqrt(((index - center) ** 2).sum(axis=0))) ** beta
    elif kind == "quarter":
        values = np.minimum(index[-1], 4).astype(float)
        if dim == 2:
            values[1:, 0] = 2.0
    elif kind == "huge":
        values = rng.choice([-1e308, 1e308, 0.0, 1.7e308], size=grid.shape)
    else:
        values = rng.uniform(-1.0, 1.0, grid.shape) * rng.choice([1e-300, 1e-320])
    return GridFunction(grid, values)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(FIELD_KINDS),
    size=st.one_of(st.tuples(st.just(1), st.integers(2, 48)),
                   st.tuples(st.just(2), st.integers(2, 12))),
    seed=st.integers(min_value=0, max_value=2**16),
    beta=st.sampled_from((0.25, 0.5, 0.6, 0.9)),
)
@example(kind="uniform", size=(1, _EXACT_PAIRS[1] + 1), seed=1, beta=0.5)
@example(kind="affine", size=(2, _EXACT_PAIRS[2] + 1), seed=2, beta=0.5)
@example(kind="ties", size=(1, 64), seed=3, beta=0.5)
@example(kind="quarter", size=(2, 5), seed=0, beta=0.5)
def test_pair_sweep_equals_the_per_offset_loop(kind, size, seed, beta):
    """Bit for bit the same value, witness and exactness as evaluating every
    offset, for both scores the program sweeps with."""
    f = drawn_field(kind, *size, seed, beta)
    for score in (lambda diff, dist: diff / dist**beta, _log_holder_score):
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = pair_sweep(f, score), per_offset_sweep(f, score)
        assert got == want

