"""Modulars and Luxemburg norms for variable exponents on a grid.

The modular of f is sum over cells of |f(c)|^p(c) * h^dim, and the norm is
the unique lambda > 0 with modular(f/lambda) = 1.  One solver finds it: a
safeguarded Newton iteration on t = log lambda.  It takes a sequence of
blocks, each a batch of supports of one size k, and packs consecutive
blocks into groups of at most operators.STACK_BYTES_MAX bytes of abs and
p rows, drawn one group at a time.  A group's rows iterate in lockstep:
each block keeps its own (rows, k) arrays and takes its row sums there, so
every row equals its solve alone bit for bit, and drops its rows as they
finish; a single support is the one-row case.  A cube family's indicator
norms are one such solve, a block per side, and for a constant exponent a
block is one row, as every chi_Q of a side has the same norm.

In t the log-modular g(t) = log modular(f e^{-t}) is a log-sum-exp of
affine functions, so it is convex and decreasing: Newton's method started
left of the root climbs to it monotonically, and a Newton step taken from
the right of the root lands left of it.  The start
lambda_0 = max_c |f(c)| h^{dim/p(c)} is left of the root, since its cell
alone gives modular 1, and no term exceeds 1/h^dim there, so nothing
overflows.  Each evaluation moves one end of a bracket [lo, hi] with
modular(f/lo) >= 1 >= modular(f/hi) as evaluated, so an iterate that
rounding puts past the root becomes hi.  The next point is the Newton
estimate clipped to [lo (1 + tol/2), hi (1 - tol/2)], tol = 1e-12.  Near
the root the Newton step falls below tol/2, so the clipped point closes the
bracket to relative width tol with one evaluation, and the last Newton
estimate, clipped into the bracket, is returned.  This takes 5-8 modular
evaluations per solve.  The tests hold the solver against a plain
bisection written apart from it.

Also here: the norm identities that admit explicit discrete constants and
therefore hard checks, namely the generalized Holder inequality with
constant r_p = 1 + 1/p_- - 1/p_+, the power scaling |||f|^s||_p = ||f||^s_{sp},
and the indicator norms of a cube family with their duality and embedding ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import operators
from .exponents import ExponentPair, VariableExponent, conjugate
from .grid import Cube, CubeFamily, CubeFamilyMode, GridFunction, check_cube, window_view

__all__ = [
    "NormResult",
    "ConvergenceError",
    "modular",
    "lux_norm",
    "holder_constant",
    "holder_defect",
    "check_s_norm",
    "indicator_norms",
    "cube_duality_product",
    "cube_embedding_ratio",
    "embedding_bound",
]

MAX_ITERATIONS = 100
BRACKET_REL_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Raised when the norm solver exhausts its budget; carries the bracket."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(f"{message} (bracket [{bracket[0]:g}, {bracket[1]:g}])")
        self.bracket = bracket


@dataclass
class NormResult:
    """Solver outcome: value plus the evidence for it.

    iterations counts modular evaluations; bracket is [lo, hi] with
    modular(f/lo) >= 1 >= modular(f/hi) as evaluated.  A solve that does not
    converge raises ConvergenceError, so every result is a converged one.
    """

    value: float
    iterations: int
    bracket: tuple[float, float]

    def __float__(self) -> float:
        return self.value


def _check_same_grid(f: GridFunction, p: VariableExponent) -> None:
    if f.grid != p.grid:
        raise ValueError("function and exponent live on different grids")


def modular(f: GridFunction, p: VariableExponent) -> float:
    """sum |f(c)|^p(c) h^dim over all cells."""
    _check_same_grid(f, p)
    with np.errstate(over="ignore"):
        total = float(np.sum(np.power(np.abs(f.values), p.values.values)))
    return total * f.grid.cell_measure


def _packed(blocks):
    """Consecutive blocks in groups of at most STACK_BYTES_MAX bytes of values.

    A block's values are its abs rows and its p rows.  A block larger than
    the cap on its own is a group alone.  Blocks are drawn as the groups are
    taken, so one group is alive at a time.
    """
    group, size = [], 0
    for block in blocks:
        block_size = block[0].nbytes + block[1].nbytes
        if group and size + block_size > operators.STACK_BYTES_MAX:
            yield group
            group, size = [], 0
        group.append(block)
        size += block_size
    if group:
        yield group


def _newton_solve(blocks, cell_measure: float):
    """Norm of every row of every block: values, bracket ends lo and hi, modular evaluations.

    blocks yields (abs_rows, p_rows) pairs of shape (rows, k), k the block's
    own support size; the results run over the rows of all blocks in order.
    Consecutive blocks are solved in lockstep, grouped by _packed: each block
    takes its row sums on its own (rows, k) arrays, so every row equals its
    solve alone bit for bit, and the Newton update runs once per group on
    the blocks' row vectors joined.  An all-zero row has norm 0 and costs no
    evaluation.
    """
    results = [_solve_group(group, cell_measure) for group in _packed(blocks)]
    if not results:
        return np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64)
    return tuple(np.concatenate(column) for column in zip(*results))


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _solve_group(group: list, cell_measure: float):
    """_newton_solve of the blocks of one group, in lockstep.

    Past the root of a huge exponent the modular underflows to 0 and the
    Newton estimate log(0) * 0 / 0 is NaN; fmax and fmin, unlike clip, put
    the bracket end in its place, so numpy's warnings are silenced here."""
    count = sum(len(a) for a, _ in group)
    value, lo_out, hi_out = np.zeros(count), np.zeros(count), np.zeros(count)
    evals = np.zeros(count, dtype=np.int64)
    nonzero = np.concatenate([np.max(a, axis=1, initial=0.0) > 0.0 for a, _ in group])
    idx = np.flatnonzero(nonzero)
    blocks = _kept(group, nonzero)
    lam = np.concatenate([np.max(a * cell_measure ** (1.0 / p), axis=1) for a, p in blocks]
                         or [np.zeros(0)])
    lo, hi = np.zeros(idx.size), np.full(idx.size, np.inf)
    for _ in range(MAX_ITERATIONS):
        if not blocks:
            break
        sums, at = [], 0
        for a, p in blocks:
            terms = np.power(a / lam[at:at + len(a), None], p)
            sums.append((terms.sum(axis=1), (terms * p).sum(axis=1)))
            at += len(a)
        total, weighted = (np.concatenate(column) for column in zip(*sums))
        phi = total * cell_measure
        evals[idx] += 1
        above = phi >= 1.0
        lo = np.where(above, lam, lo)
        hi = np.where(above, hi, lam)
        # g(t) = log phi has slope -(p weighted by the terms) in t = log lambda.
        est = lam * np.exp(np.log(phi) * total / weighted)
        done = lo >= hi * (1.0 - BRACKET_REL_TOL)
        if done.any():
            rows_done = idx[done]
            value[rows_done], lo_out[rows_done], hi_out[rows_done] = (
                np.fmin(np.fmax(est[done], lo[done]), hi[done]), lo[done], hi[done])
            keep = ~done
            idx, lo, hi, est = idx[keep], lo[keep], hi[keep], est[keep]
            blocks = _kept(blocks, keep)
        # A Newton step that would land within half the tolerance of a
        # bracket end, or beyond it, evaluates there instead and so either
        # closes the bracket or moves that end.
        lam = np.fmin(np.fmax(est, lo * (1.0 + 0.5 * BRACKET_REL_TOL)),
                      hi * (1.0 - 0.5 * BRACKET_REL_TOL))
    if not blocks:
        if not np.isfinite(value).all():
            raise ConvergenceError("Newton solve ended on a non-finite norm",
                                   (float(lo_out.min()), float(hi_out.max())))
        return value, lo_out, hi_out, evals
    # Every cell at most 1/(cells * h^dim) makes the modular at most 1.
    cap = np.concatenate([np.max(a * (a.shape[1] * cell_measure) ** (1.0 / p), axis=1)
                          for a, p in blocks])
    hi = np.where(np.isfinite(hi), hi, cap)
    raise ConvergenceError("Newton budget exhausted", (float(lo.min()), float(hi.max())))


def _kept(blocks: list, keep: np.ndarray) -> list:
    """The blocks with the rows that keep marks, one entry per row of the blocks
    in order; a block keeping every row is not copied, and one keeping none is dropped."""
    out, at = [], 0
    for a, p in blocks:
        mask = keep[at:at + len(a)]
        at += len(a)
        if mask.all():
            out.append((a, p))
        elif mask.any():
            out.append((a[mask], p[mask]))
    return out


def _stack_norms(stack: np.ndarray, exponents: list[VariableExponent]) -> np.ndarray:
    """||row||_p of every row of a stack of grid arrays under each exponent p, shape
    (exponents, rows): one solve, a block per exponent that shares the stack's abs
    rows, and every row bit for bit its solve alone."""
    if not exponents or not len(stack):
        return np.zeros((len(exponents), len(stack)))
    rows = np.abs(stack).reshape(len(stack), -1)
    blocks = [(rows, np.broadcast_to(p.values.values.reshape(1, -1), rows.shape))
              for p in exponents]
    return _newton_solve(blocks, exponents[0].grid.cell_measure)[0].reshape(len(exponents), -1)


def lux_norm(f: GridFunction, p: VariableExponent) -> NormResult:
    """Luxemburg norm of f under exponent p."""
    _check_same_grid(f, p)
    value, lo, hi, evals = _newton_solve(
        [(np.abs(f.values).reshape(1, -1), p.values.values.reshape(1, -1))], f.grid.cell_measure
    )
    return NormResult(float(value[0]), int(evals[0]), (float(lo[0]), float(hi[0])))


def lux_norms(fs: list[GridFunction], ps: list[VariableExponent]) -> np.ndarray:
    """lux_norm(f, p).value of each f with its p, bit for bit, in one batched solve."""
    for f, p in zip(fs, ps, strict=True):
        _check_same_grid(f, p)
    if not fs:
        return np.zeros(0)
    return _newton_solve([(np.stack([np.abs(f.values).reshape(-1) for f in fs]),
                           np.stack([p.values.values.reshape(-1) for p in ps]))],
                         fs[0].grid.cell_measure)[0]


def holder_constant(p: VariableExponent) -> float:
    """Explicit constant r_p = 1 + 1/p_- - 1/p_+ of the generalized Holder bound."""
    return 1.0 + 1.0 / p.p_minus - 1.0 / p.p_plus


def holder_defect(f: GridFunction, g: GridFunction, p: VariableExponent) -> float:
    """r_p ||f||_p ||g||_p' minus the integral of |f g|; nonnegative up to rounding."""
    return float(holder_defects([(f, g)], p)[0])


def holder_defects(pairs: list[tuple[GridFunction, GridFunction]],
                   p: VariableExponent) -> np.ndarray:
    """holder_defect(f, g, p) of each pair (f, g).

    One batch solves ||u||_p and ||u||_p' of each distinct function u of the
    pairs once, however many pairs it is in: 2n rows for n functions.
    """
    distinct = list({id(f): f for pair in pairs for f in pair}.values())
    at = {id(f): i for i, f in enumerate(distinct)}
    norms, dual = lux_norms(distinct * 2, [p] * len(distinct)
                            + [conjugate(p)] * len(distinct)).reshape(2, -1)
    left = norms[[at[id(f)] for f, _ in pairs]]
    right = dual[[at[id(g)] for _, g in pairs]]
    products = np.array([float(np.sum(np.abs(f.values * g.values))) * f.grid.cell_measure
                         for f, g in pairs])
    return holder_constant(p) * left * right - products


def check_s_norm(f: GridFunction, p: VariableExponent, s: float) -> float:
    """| |||f|^s||_p - ||f||^s_{sp} | for the power scaling identity.

    The scaled exponent only needs (s p)_- >= 1, weaker than admissibility,
    so it is taken on raw values here instead of through validate_p.
    """
    return check_s_norms([f], p, s)[0]


def check_s_norms(fs: list[GridFunction], p: VariableExponent, s: float) -> list[float]:
    """check_s_norm(f, p, s) of each f, its norms solved in one batch."""
    for f in fs:
        _check_same_grid(f, p)
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    p_vals = p.values.values
    scaled = s * p_vals
    if scaled.min() < 1.0:
        raise ValueError(
            f"scaled exponent leaves the admissible range: (s p)_- = {scaled.min():g} < 1"
        )
    if not fs:
        return []
    abs_vals = [np.abs(f.values) for f in fs]
    rows = np.stack([a**s for a in abs_vals] + abs_vals).reshape(2 * len(fs), -1)
    exps = np.stack([p_vals] * len(fs) + [scaled] * len(fs)).reshape(rows.shape)
    norms = _newton_solve([(rows, exps)], fs[0].grid.cell_measure)[0].tolist()
    return [abs(lhs - rhs**s) for lhs, rhs in zip(norms[:len(fs)], norms[len(fs):])]


def _chi_rows(q: VariableExponent, k: int, local=None) -> np.ndarray:
    """q on the side-k cubes for their chi_Q solves: the rows of cube_rows, or
    of the cubes at the local indices of the side, or a single row when q is
    constant, since then every row is that row."""
    if q.is_constant:
        return np.full((1, k**q.grid.dim), q.p_minus)
    windows = window_view(q.values.values, k, q.grid.dim)
    if local is not None:
        windows = windows[np.unravel_index(local, windows.shape[:q.grid.dim])]
    return windows.reshape(-1, k**q.grid.dim)


def indicator_norms(q: VariableExponent, mode: CubeFamilyMode) -> np.ndarray:
    """||chi_Q||_q of every family cube in enumeration order.

    One solve takes the family a side per block; for constant q it solves one
    row per side and repeats its value over the side's cubes."""
    family = CubeFamily.of(q.grid, mode)
    blocks = ((np.ones_like(r), r) for r in (_chi_rows(q, k) for k in family.sides))
    norms = _newton_solve(blocks, q.grid.cell_measure)[0]
    if q.is_constant:
        norms = np.repeat(norms, family.counts)
    return norms


def _indicator_norms_on_cube(cube: Cube, *exponents: VariableExponent) -> list[float]:
    rows = np.stack([r.values.values[cube.slices()].reshape(-1) for r in exponents])
    return _newton_solve([(np.ones_like(rows), rows)], exponents[0].grid.cell_measure)[0].tolist()


def cube_duality_product(cube: Cube, q: VariableExponent) -> float:
    """(1/|Q|) ||chi_Q||_q ||chi_Q||_q'; equals 1 exactly for constant q."""
    check_cube(q.grid, cube)
    norm, dual = _indicator_norms_on_cube(cube, q, conjugate(q))
    return norm * dual / cube.measure(q.grid)


def cube_embedding_ratio(cube: Cube, pair: ExponentPair) -> float:
    """||chi_Q||_p / (|Q|^{beta/dim} ||chi_Q||_q); equals 1 for constant pairs."""
    check_cube(pair.p.grid, cube)
    num, den = _indicator_norms_on_cube(cube, pair.p, pair.q)
    return num / (cube.measure(pair.p.grid) ** (pair.beta / pair.p.grid.dim) * den)


def embedding_bound(pair: ExponentPair) -> float:
    """Derived hard bound for the embedding ratio on any cube.

    Young's inequality with the pointwise split 1/p = 1/q + beta/dim gives
    modular control with factor sup(p/q) + sup(p beta/dim), hence the ratio
    is at most that factor to the power 1/p_-.  For constant pairs the
    factor is exactly 1.
    """
    pv = pair.p.values.values
    qv = pair.q.values.values
    dim = pair.p.grid.dim
    s = float(np.max(pv / qv)) + float(np.max(pv * pair.beta / dim))
    return s ** (1.0 / pair.p.p_minus)
