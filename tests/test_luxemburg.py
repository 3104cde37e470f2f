"""Luxemburg norm solver against closed forms and an independent bisection.

bisect_oracle below is the solver's test oracle: geometric bisection with
fsum, sharing no code with the Newton solver in luxemburg.py.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlip import (
    Cube,
    GridFunction,
    NormResult,
    check_s_norm,
    conjugate,
    cube_duality_product,
    cube_embedding_ratio,
    build_pair,
    embedding_bound,
    enumerate_cubes,
    holder_constant,
    holder_defect,
    indicator,
    lux_norm,
    make_grid,
    modular,
    sample,
    validate_p,
    CubeFamilyMode,
)
from maxlip import luxemburg
from maxlip.luxemburg import ConvergenceError, _lux_solve_batch

from conftest import affine_exponent, const_exponent, seeded_function


def solve_one(abs_vals: np.ndarray, p_vals: np.ndarray, cell_measure: float) -> float:
    """Norm of one support, which may be a cube slice: _lux_solve_batch on one row."""
    return float(_lux_solve_batch(abs_vals.reshape(1, -1), p_vals.reshape(1, -1), cell_measure)[0])


def closed_form_const_norm(f: GridFunction, p: float) -> float:
    """Constant-exponent norm by compensated summation, no solver."""
    total = math.fsum(
        (abs(v) ** p) * f.grid.cell_measure for v in f.values.reshape(-1).tolist()
    )
    return total ** (1.0 / p)


def bisect_oracle(f: GridFunction, p_values: np.ndarray, iters: int = 200) -> float:
    """Plain interval bisection on the modular, written independently."""
    absv = np.abs(f.values.reshape(-1))
    pv = p_values.reshape(-1)
    cm = f.grid.cell_measure

    def rho(lam: float) -> float:
        return math.fsum((absv / lam) ** pv * cm)

    lo, hi = 1e-12, 1e12
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if rho(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def test_fifty_seeded_constant_exponent_norms():
    for seed in range(50):
        n = 9 + (seed % 11)
        g = make_grid(1, n) if seed % 3 else make_grid(2, 5 + seed % 3)
        f = seeded_function(g, seed, -2.0, 2.0)
        p_val = 1.25 + (seed % 7) * 0.45
        got = lux_norm(f, const_exponent(g, p_val)).value
        want = closed_form_const_norm(f, p_val)
        assert got == pytest.approx(want, rel=1e-10)


def test_scaled_half_indicator_is_sqrt_two():
    g = make_grid(1, 8)
    f = 2.0 * indicator(g, Cube((0,), 4))
    res = lux_norm(f, const_exponent(g, 2.0))
    assert res.value == pytest.approx(math.sqrt(2.0), abs=1e-10)


def test_variable_exponent_against_independent_bisection():
    for seed in (0, 5, 9):
        g = make_grid(1, 13)
        f = seeded_function(g, seed, -3.0, 3.0)
        pv = np.linspace(1.3, 4.1, 13)
        got = lux_norm(f, validate_p(GridFunction(g, pv))).value
        assert got == pytest.approx(bisect_oracle(f, pv), rel=1e-9)


def test_zero_function_norm_is_zero():
    g = make_grid(1, 6)
    res = lux_norm(GridFunction(g, np.zeros(6)), const_exponent(g, 2.0))
    assert res.value == 0.0
    assert res.converged
    assert float(res) == 0.0


def test_single_cell_indicator_closed_form():
    g = make_grid(1, 16)
    res = lux_norm(indicator(g, Cube((3,), 1)), const_exponent(g, 2.0))
    assert res.value == pytest.approx(math.sqrt(g.spacing), rel=1e-12)


def test_norm_result_bracket_invariants():
    g = make_grid(1, 10)
    res = lux_norm(seeded_function(g, 4), affine_exponent(g, 1.5, 1.0))
    assert isinstance(res, NormResult)
    lo, hi = res.bracket
    assert lo <= res.value <= hi
    assert res.converged
    assert abs(modular(seeded_function(g, 4) * (1.0 / res.value),
                       affine_exponent(g, 1.5, 1.0)) - 1.0) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=400),
    scale=st.floats(min_value=0.01, max_value=50.0),
)
def test_homogeneity(seed, scale):
    g = make_grid(1, 11)
    f = seeded_function(g, seed)
    q = affine_exponent(g, 1.4, 0.8)
    base = lux_norm(f, q).value
    assert lux_norm(scale * f, q).value == pytest.approx(scale * base, rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=400))
def test_monotone_in_absolute_value(seed):
    g = make_grid(1, 11)
    rng = np.random.default_rng(seed)
    small = GridFunction(g, rng.uniform(0.0, 1.0, g.shape))
    bigger = GridFunction(g, small.values + rng.uniform(0.0, 1.0, g.shape))
    q = affine_exponent(g, 1.3, 1.2)
    assert lux_norm(small, q).value <= lux_norm(bigger, q).value + 1e-12


def test_batch_solver_agrees_with_bisection():
    g = make_grid(1, 9)
    rng = np.random.default_rng(77)
    rows = rng.uniform(0.0, 4.0, (30, 9))
    rows[7] = 0.0
    rows[13, :5] = 0.0
    p_rows = rng.uniform(1.2, 3.5, (30, 9))
    got = _lux_solve_batch(rows, p_rows, g.cell_measure)
    assert got[7] == 0.0
    for i in range(30):
        if i == 7:
            continue
        want = bisect_oracle(GridFunction(g, rows[i]), p_rows[i])
        assert got[i] == pytest.approx(want, rel=1e-10)


def _newton_cases():
    """(f, p values) with p up to 20, box sides from 1/8 to 1000, zero cells."""
    rng = np.random.default_rng(2024)
    for case in range(60):
        dim = 1 if case % 3 else 2
        n = int(rng.integers(2, 40)) if dim == 1 else int(rng.integers(2, 9))
        side = (0.125, 1.0, 7.0, 1000.0)[case % 4]
        g = make_grid(dim, n, box_side=side)
        vals = rng.uniform(0.0, 3.0, g.shape) * (rng.random(g.shape) < 0.7)
        vals.reshape(-1)[case % g.cell_count] = 1.5
        p_low = rng.uniform(1.01, 3.0)
        pv = rng.uniform(p_low, p_low + (17.0 if case % 2 else 2.0), g.shape)
        yield GridFunction(g, vals), pv


def test_newton_solver_against_bisection_with_certified_bracket():
    for f, pv in _newton_cases():
        res = lux_norm(f, validate_p(GridFunction(f.grid, pv)))
        assert res.value == pytest.approx(bisect_oracle(f, pv), rel=1e-10)
        assert 1 <= res.iterations <= 10
        lo, hi = res.bracket
        assert lo <= res.value <= hi
        assert hi - lo <= 1e-12 * hi
        # The invariant holds as the solver evaluates: the quotient f/lambda
        # taken cell by cell, summed, then scaled by the cell measure.
        absv, cm = np.abs(f.values), f.grid.cell_measure
        assert float(np.sum(np.power(absv / lo, pv))) * cm >= 1.0
        assert float(np.sum(np.power(absv / hi, pv))) * cm <= 1.0


def test_newton_batch_rows_match_single_solves():
    cases = [(f, pv) for f, pv in _newton_cases() if f.grid.dim == 1 and f.grid.cells_per_axis >= 8]
    rows = np.stack([f.values[:8] for f, _ in cases])
    p_rows = np.stack([pv[:8] for _, pv in cases])
    rows[0] = 0.0
    cm = 1.0 / 64.0
    got = _lux_solve_batch(rows, p_rows, cm)
    assert got[0] == 0.0
    for i in range(1, len(cases)):
        assert got[i] == pytest.approx(solve_one(rows[i], p_rows[i], cm), rel=1e-14)


def test_convergence_error_carries_a_real_bracket(monkeypatch):
    g = make_grid(1, 12)
    f = seeded_function(g, 3, -2.0, 2.0)
    pv = np.linspace(1.5, 9.0, 12)
    want = bisect_oracle(f, pv)
    monkeypatch.setattr(luxemburg, "MAX_ITERATIONS", 2)
    with pytest.raises(ConvergenceError) as err:
        lux_norm(f, validate_p(GridFunction(g, pv)))
    lo, hi = err.value.bracket
    assert 0.0 < lo <= want <= hi < np.inf


def _mixed_blocks():
    """Blocks of widths 1 to 9 with all-zero rows, a one-row block and a width-1 block,
    and before the widest a block of one-cell rows, whose solves end after two evaluations."""
    rng = np.random.default_rng(5150)
    blocks = []
    for rows, k in ((7, 3), (1, 9), (12, 1), (5, 4), (9, 9), (3, 2), (6, 5)):
        vals = rng.uniform(0.0, 3.0, (rows, k)) * (rng.random((rows, k)) < 0.8)
        vals[rows // 2] = 0.0
        blocks.append((vals, rng.uniform(1.1, 6.0, (rows, k))))
    blocks.insert(4, (np.eye(4, 6) * [[0.5], [1.0], [2.0], [3.0]], rng.uniform(1.1, 6.0, (4, 6))))
    return blocks


@pytest.mark.parametrize("cap", [None, 8 * 10, 8 * 60], ids=["one-group", "tiny-cap", "small-cap"])
def test_newton_solve_of_mixed_widths_equals_each_block_alone(monkeypatch, cap):
    import maxlip.operators

    blocks = _mixed_blocks()
    cm = 1.0 / 81.0
    alone = [luxemburg._newton_solve([block], cm) for block in blocks]
    if cap is not None:
        monkeypatch.setattr(maxlip.operators, "STACK_BYTES_MAX", cap)
    # Blocks are drawn lazily: a group is solved before the block after it is drawn.
    drawn, groups = [], []
    solve_group = luxemburg._solve_group
    monkeypatch.setattr(luxemburg, "_solve_group", lambda group, measure: (
        groups.append((len(drawn), len(group))) or solve_group(group, measure)))

    def lazily():
        for block in blocks:
            drawn.append(1)
            yield block

    got = luxemburg._newton_solve(lazily(), cm)
    for column, parts in zip(got, zip(*alone)):
        assert np.array_equal(column, np.concatenate(parts))
    assert sum(size for _, size in groups) == len(blocks)
    solved = 0
    for seen, size in groups:
        solved += size
        assert seen <= solved + 1
    if cap == 8 * 10:
        assert len(groups) > 2
    value, _, _, evals = got
    # The one-cell block empties while the wider block after it iterates on.
    early, wide = np.split(evals, np.cumsum([len(a) for a, _ in blocks]))[4:6]
    assert (early == 2).all() and wide.max() > 2
    zero = np.concatenate([~a.any(axis=1) for a, _ in blocks])
    assert not value[zero].any() and not evals[zero].any() and value[~zero].all()
    rows = [(a[r], p[r]) for a, p in blocks for r in range(len(a))]
    assert value.tolist() == [solve_one(a, p, cm) for a, p in rows]


def test_newton_solve_of_no_blocks_is_empty():
    assert [c.size for c in luxemburg._newton_solve(iter(()), 0.5)] == [0, 0, 0, 0]


def test_grouped_solve_out_of_budget_raises_with_a_finite_bracket(monkeypatch):
    import maxlip.operators

    monkeypatch.setattr(maxlip.operators, "STACK_BYTES_MAX", 8 * 60)
    monkeypatch.setattr(luxemburg, "MAX_ITERATIONS", 1)
    with pytest.raises(ConvergenceError) as err:
        luxemburg._newton_solve(_mixed_blocks(), 1.0 / 81.0)
    # After one evaluation most rows have only a lower end; the upper end is
    # then the cap at which every cell alone keeps the modular at most 1.
    lo, hi = err.value.bracket
    assert 0.0 <= lo <= hi < np.inf


def test_holder_defect_nonnegative():
    g = make_grid(1, 14)
    p = affine_exponent(g, 1.6, 1.1)
    assert holder_constant(const_exponent(g, 2.0)) == pytest.approx(1.0)
    assert holder_constant(p) > 1.0
    for seed in range(20):
        f = seeded_function(g, seed, -2.0, 2.0)
        h = seeded_function(g, seed + 100, -2.0, 2.0)
        assert holder_defect(f, h, p) >= -1e-9


def test_holder_defects_solve_each_function_once(monkeypatch):
    """n distinct functions in n(n+1)/2 pairs take 2n norm rows, not n(n+1), and
    holder_defect is its row of the batch."""
    g = make_grid(1, 16)
    fs = [seeded_function(g, s, -2.0, 2.0) for s in range(3)]
    pairs = [(f, h) for i, f in enumerate(fs) for h in fs[i:]]
    rows = []
    solve = luxemburg._newton_solve

    def counting(blocks, cm):
        blocks = list(blocks)
        rows.append(sum(len(a) for a, _ in blocks))
        return solve(blocks, cm)

    for q in (const_exponent(g, 2.0), affine_exponent(g, 1.6, 1.1)):
        monkeypatch.setattr(luxemburg, "_newton_solve", counting)
        rows.clear()
        defects = luxemburg.holder_defects(pairs, q).tolist()
        assert rows == [2 * len(fs)]
        monkeypatch.undo()
        assert defects == [holder_defect(f, h, q) for f, h in pairs]
    assert luxemburg.holder_defects([], q).size == 0


def test_holder_tight_for_conjugate_powers():
    # |f|^{p-1} saturates constant-exponent Holder exactly.
    g = make_grid(1, 12)
    p_val = 2.5
    p = const_exponent(g, p_val)
    f = seeded_function(g, 8, 0.1, 2.0)
    h = GridFunction(g, f.values ** (p_val - 1.0))
    lhs = math.fsum((f.values * h.values * g.cell_measure).tolist())
    rhs = lux_norm(f, p).value * lux_norm(h, conjugate(p)).value
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_s_norm_identity_and_range_guard():
    g = make_grid(1, 10)
    q = affine_exponent(g, 2.0, 1.0)
    f = seeded_function(g, 3, -2.0, 2.0)
    for s in (0.5, 1.0, 1.5, 2.0):
        assert check_s_norm(f, q, s) <= 1e-9
    with pytest.raises(ValueError, match="admissible range"):
        check_s_norm(f, const_exponent(g, 1.2), 0.5)


def test_duality_product_constant_exponent():
    g = make_grid(1, 12)
    q = const_exponent(g, 2.7)
    for cube in enumerate_cubes(g, CubeFamilyMode.FULL):
        assert cube_duality_product(cube, q) == pytest.approx(1.0, abs=1e-9)


def test_duality_product_variable_lower_bound():
    g = make_grid(1, 12)
    q = affine_exponent(g, 1.5, 1.5)
    floor = 1.0 / holder_constant(q)
    for cube in enumerate_cubes(g, CubeFamilyMode.FULL):
        assert cube_duality_product(cube, q) >= floor - 1e-9


def test_embedding_ratio_constant_pair_is_one():
    g = make_grid(1, 10)
    pair = build_pair(const_exponent(g, 1.6), 0.5)
    for cube in enumerate_cubes(g, CubeFamilyMode.FULL):
        assert cube_embedding_ratio(cube, pair) == pytest.approx(1.0, abs=1e-9)


def test_embedding_ratio_within_derived_bound():
    g = make_grid(1, 10)
    p = validate_p(sample(g, lambda x: 1.2 + 0.4 * x))
    pair = build_pair(p, 0.5)
    bound = embedding_bound(pair)
    assert bound >= 1.0
    for cube in enumerate_cubes(g, CubeFamilyMode.FULL):
        assert cube_embedding_ratio(cube, pair) <= bound + 1e-9


def reference_indicator_norms(q, mode):
    """||chi_Q||_q one cube at a time: a solve of ones on the cube's own q values."""
    ones = lambda cube: np.ones((cube.side_cells,) * q.grid.dim)  # noqa: E731
    return [solve_one(ones(c), q.values.values[c.slices()], q.grid.cell_measure)
            for c in enumerate_cubes(q.grid, mode)]


@pytest.mark.parametrize("dim, n", [(1, 13), (2, 6)])
@pytest.mark.parametrize("mode", [CubeFamilyMode.FULL, CubeFamilyMode.DYADIC_SIDES])
def test_indicator_norms_equal_the_per_cube_solves(dim, n, mode):
    from maxlip.luxemburg import indicator_norms

    g = make_grid(dim, n)
    for q in (const_exponent(g, 2.5), affine_exponent(g, 1.5, 1.5),
              validate_p(sample(g, (lambda x: 2.0 + np.floor(3.0 * x)) if dim == 1
                                else (lambda x, y: 2.0 + np.floor(3.0 * x) + y)))):
        norms = indicator_norms(q, mode)
        assert norms.tolist() == reference_indicator_norms(q, mode)
        for cube, norm in zip(enumerate_cubes(g, mode), norms):
            dual = solve_one(np.ones((cube.side_cells,) * dim),
                             conjugate(q).values.values[cube.slices()], g.cell_measure)
            assert cube_duality_product(cube, q) == norm * dual / cube.measure(g)


def test_batched_norms_equal_one_solve_each():
    """lux_norms, holder_defects and check_s_norms solve a batch of rows at once;
    each value is the one-function solve bit for bit."""
    for g in (make_grid(1, 32), make_grid(2, 6)):
        fs = [seeded_function(g, s, -2.0, 3.0) for s in range(4)] + [sample(g, lambda *x: 0.0)]
        qs = [const_exponent(g, 2.0), affine_exponent(g, 1.5, 1.0)]
        ps = [qs[i % 2] for i in range(len(fs))]
        got = luxemburg.lux_norms(fs, ps)
        assert got.tolist() == [lux_norm(f, p).value for f, p in zip(fs, ps)]
        for q in qs:
            pc = conjugate(q)
            pairs = [(f, h) for f in fs[:3] for h in fs[1:4]]
            expected = [holder_constant(q) * lux_norm(f, q).value * lux_norm(h, pc).value
                        - float(np.sum(np.abs(f.values * h.values))) * g.cell_measure
                        for f, h in pairs]
            assert luxemburg.holder_defects(pairs, q).tolist() == expected
            for s in (0.5, 1.0, 2.0):
                if s * q.p_minus < 1.0:
                    continue
                cm, p_vals = g.cell_measure, q.values.values
                expected = [abs(solve_one(np.abs(f.values) ** s, p_vals, cm)
                                - solve_one(np.abs(f.values), s * p_vals, cm) ** s)
                            for f in fs[:4]]
                assert luxemburg.check_s_norms(fs[:4], q, s) == expected
    assert luxemburg.lux_norms([], []).size == 0
    with pytest.raises(ValueError, match="zip"):
        luxemburg.lux_norms(fs, qs[:1])


@pytest.mark.parametrize("p", [2e15, 1e16, 1e300, 1e308])
def test_a_huge_constant_exponent_gives_the_max_norm_without_warnings(p):
    # Past the root the modular underflows to 0 and the Newton estimate was
    # log(0) * 0 / 0 = NaN, which clip passed through: the norm read nan.
    # ||f||_p = max|f| (cells * h)^(1/p) up to rounding at these p.
    g = make_grid(1, 8)
    q = const_exponent(g, p)
    f = seeded_function(g, 3, 0.5, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lux_norm(sample(g, lambda x: np.ones_like(x)), q).value == pytest.approx(
            1.0, rel=1e-12, abs=0.0)
        assert lux_norm(f, q).value == pytest.approx(float(f.values.max()), rel=1e-12, abs=0.0)
