"""Holder seminorm and oscillation functionals, with pairwise brute force."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxlip.lipschitz
import maxlip.luxemburg
import maxlip.operators
from maxlip import (
    Cube,
    CubeFamilyMode,
    GridFunction,
    LipResult,
    OperatorTag,
    cube_oscillation_rows,
    cube_ratios,
    cube_rows,
    enumerate_cubes,
    family_sides,
    indicator,
    lambda_sharp,
    lambda_star,
    lambda_var,
    lip_seminorm,
    local_max,
    make_grid,
    opnorm_lower,
    opnorm_lower_stacked,
    osc_norm_q,
    sample,
    sharp_max,
    validate_p,
)
from maxlip.luxemburg import _lux_solve_batch
from maxlip.sweep import Worst, worst_of

from conftest import affine_exponent, cell_center, const_exponent, seeded_function


def brute_lip(b: GridFunction, beta: float) -> float:
    """All-pairs seminorm, no offset tricks."""
    centers = [cell_center(b.grid, c) for c in np.ndindex(b.grid.shape)]
    vals = b.values.reshape(-1)
    best = 0.0
    for i, j in itertools.combinations(range(len(vals)), 2):
        dist = math.dist(centers[i], centers[j])
        best = max(best, abs(float(vals[i] - vals[j])) / dist**beta)
    return best


def oscillation_values(b, beta, q, mode, center) -> np.ndarray:
    """The row values of cube_oscillation_rows, in enumeration order."""
    return np.array([value for _, value in cube_oscillation_rows(b, beta, q, mode, center)])


def test_lip_of_coordinate_closed_form():
    g = make_grid(1, 16)
    res = lip_seminorm(sample(g, lambda x: x), 0.5)
    assert res.exact
    assert res.value == pytest.approx(math.sqrt(15.0 / 16.0), rel=1e-12)
    (a, c) = res.witness
    assert abs(a[0] - c[0]) == 15


def test_lip_matches_all_pairs_brute_force():
    for dim, n in ((1, 12), (2, 5)):
        g = make_grid(dim, n)
        for seed in range(3):
            b = seeded_function(g, seed, -2.0, 2.0)
            res = lip_seminorm(b, 0.4)
            assert res.exact
            assert res.value == pytest.approx(brute_lip(b, 0.4), rel=1e-12)


def test_lip_constant_is_zero():
    g = make_grid(2, 6)
    res = lip_seminorm(sample(g, lambda x, y: 3.25 + 0.0 * x), 0.5)
    assert res.value == 0.0


def test_lip_witness_reproduces_value():
    g = make_grid(1, 20)
    b = seeded_function(g, 17)
    res = lip_seminorm(b, 0.7)
    (x, y) = res.witness
    dist = abs(cell_center(g, x)[0] - cell_center(g, y)[0])
    assert abs(float(b.values[x] - b.values[y])) / dist**0.7 == pytest.approx(
        res.value, rel=1e-12
    )


def test_lip_sampled_fallback_flags_itself():
    g = make_grid(2, 80)
    b = seeded_function(g, 1)
    res = lip_seminorm(b, 0.5)
    assert not res.exact
    assert res.value <= brute_lip_upper(b) + 1e-9


def brute_lip_upper(b: GridFunction) -> float:
    # Any pair ratio is at most range/(h^beta); crude sanity ceiling.
    return float(np.ptp(b.values)) / b.grid.spacing**0.5


def test_lambda_var_constant_vanishes():
    g = make_grid(1, 16)
    q = const_exponent(g, 2.0)
    res = lambda_var(sample(g, lambda x: -1.0 + 0.0 * x), 0.5, q)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_lambda_var_shift_invariant():
    g = make_grid(1, 16)
    q = affine_exponent(g, 2.0, 1.0)
    b = seeded_function(g, 23)
    shifted = b + sample(g, lambda x: 4.0 + 0.0 * x)
    a = lambda_var(b, 0.5, q).value
    c = lambda_var(shifted, 0.5, q).value
    assert a == pytest.approx(c, rel=1e-10)


def test_lambda_var_bounded_by_seminorm():
    g = make_grid(1, 24)
    q = affine_exponent(g, 1.5, 1.0)
    for seed in range(4):
        b = seeded_function(g, seed)
        lam = lambda_var(b, 0.5, q).value
        lip = lip_seminorm(b, 0.5).value
        assert lam <= lip + 1e-9


def test_lambda_star_of_negative_constant():
    # 2 |c| h^{-beta}: the centered sweep sees the sign flip at single cells.
    g = make_grid(1, 16)
    q = const_exponent(g, 2.0)
    res = lambda_star(sample(g, lambda x: -1.0 + 0.0 * x), 0.5, q)
    assert res.value == pytest.approx(8.0, rel=1e-12)
    assert res.witness.side_cells == 1


def test_lambda_sharp_of_negative_constant_dim1():
    g = make_grid(1, 8)
    q = const_exponent(g, 2.0)
    res = lambda_sharp(sample(g, lambda x: -1.0 + 0.0 * x), 0.5, q)
    assert res.value == pytest.approx(2.0 * math.sqrt(8.0), rel=1e-12)


def test_lambda_star_nonnegative_symbol_stays_put():
    # For b >= 0 the local maximal function cannot fall below b itself, so
    # the centered functional is controlled by oscillation, not size.
    g = make_grid(1, 16)
    q = const_exponent(g, 2.0)
    b = sample(g, lambda x: 1.0 + 0.0 * x)
    assert lambda_star(b, 0.5, q).value == pytest.approx(0.0, abs=1e-12)


def test_sweep_reduces_to_closed_form_for_constant_q():
    g = make_grid(1, 12)
    for seed in range(3):
        b = seeded_function(g, seed, -1.0, 3.0)
        sweep = lambda_var(b, 0.5, const_exponent(g, 2.0)).value
        closed = osc_norm_q(b, 0.5, 2.0).value
        assert sweep == pytest.approx(closed, rel=1e-9)


def test_oscillation_rows_cover_family():
    g = make_grid(1, 10)
    q = const_exponent(g, 2.0)
    b = seeded_function(g, 5)
    rows = cube_oscillation_rows(b, 0.5, q, CubeFamilyMode.FULL, "average")
    assert len(rows) == len(enumerate_cubes(g, CubeFamilyMode.FULL))
    assert all(val >= 0.0 for _, val in rows)
    best_cube, best = max(rows, key=lambda rv: rv[1])
    res = lambda_var(b, 0.5, q)
    assert res.value == pytest.approx(best, rel=1e-12)
    assert res.witness == best_cube


def test_lambda_witness_recomputes():
    g = make_grid(1, 14)
    q = affine_exponent(g, 2.0, 1.0)
    b = seeded_function(g, 31)
    res = lambda_var(b, 0.5, q)
    rows = dict(cube_oscillation_rows(b, 0.5, q, CubeFamilyMode.FULL, "average"))
    assert rows[res.witness] == pytest.approx(res.value, rel=1e-12)


def test_opnorm_lower_bounds():
    g = make_grid(1, 12)
    p = const_exponent(g, 2.0)
    bank = [seeded_function(g, s, 0.5, 1.5) for s in range(2)]
    def stacked(tag, p, q, *args):
        return opnorm_lower_stacked([tag], [(p, q)], *args)[0][0]

    for bound in (opnorm_lower, stacked):
        # M x >= x pointwise forces the ratio past one.
        assert bound(OperatorTag.hl(), p, p, bank) >= 1.0
        with pytest.raises(ValueError, match="no grid-wide"):
            bound(OperatorTag.local(Cube((0,), 4)), p, p, bank)
        with pytest.raises(ValueError, match="nonempty"):
            bound(OperatorTag.hl(), p, p, [])
        with pytest.raises(ValueError, match="zero function"):
            bound(OperatorTag.hl(), p, p, [GridFunction(g, np.zeros(12))])
        with pytest.raises(ValueError, match="different grids"):
            bound(OperatorTag.hl(), p, const_exponent(make_grid(1, 8), 2.0), bank)
    # Every pair is checked, not only the first.
    with pytest.raises(ValueError, match="different grids"):
        opnorm_lower_stacked([OperatorTag.hl()],
                             [(p, p), (p, const_exponent(make_grid(1, 8), 2.0))], bank)


@pytest.mark.parametrize("kind", ["hl", "sharp", "fractional", "max_commutator", "comm_m",
                                  "comm_sharp"])
@pytest.mark.parametrize("dim, n", [(1, 12), (2, 5)])
@pytest.mark.parametrize("mode", [CubeFamilyMode.FULL, CubeFamilyMode.DYADIC_SIDES])
@pytest.mark.parametrize("chunked", [False, True], ids=["one-stack", "many-stacks"])
def test_opnorm_lower_stacked_equals_per_function(monkeypatch, kind, dim, n, mode, chunked):
    g = make_grid(dim, n)
    b = seeded_function(g, 70)
    tag = {"hl": OperatorTag.hl(), "sharp": OperatorTag.sharp(),
           "fractional": OperatorTag.fractional(0.5)}.get(kind) or OperatorTag(kind, symbol=b)
    p, q = affine_exponent(g, 2.0, 1.0), affine_exponent(g, 3.0, -1.0)
    pairs = [(p, q), (q, p)]
    bank = [seeded_function(g, 71 + s) for s in range(3)]
    expected = [[opnorm_lower(tag, *pair, bank, mode)] for pair in pairs]
    if chunked:
        # Two rows per stack: the bank splits, and so does every side's indicators.
        monkeypatch.setattr(maxlip.operators, "STACK_BYTES_MAX", 2 * 8 * g.cell_count)
    assert opnorm_lower_stacked([tag], pairs, bank, mode) == expected


OPNORM_KINDS = ["hl", "sharp", "fractional", "max_commutator", "comm_m", "comm_sharp"]


@st.composite
def opnorm_cases(draw):
    """Tags, exponent pairs, a test bank, a family and a cap for opnorm_lower_stacked.

    Exponents are constant, affine or random per cell; the cap is the real
    one or 1 to 4 grid rows, so that stacks straddle the bank and the sides."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(2, 9 if dim == 1 else 4))
    g = make_grid(dim, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    b = GridFunction(g, rng.uniform(-1.0, 1.0, g.shape))
    kinds = draw(st.lists(st.sampled_from(OPNORM_KINDS), min_size=1, max_size=3))
    tags = [OperatorTag.fractional(0.5) if kind == "fractional" else OperatorTag(kind, symbol=b)
            if kind in ("max_commutator", "comm_m", "comm_sharp") else OperatorTag(kind)
            for kind in kinds]
    x = np.indices(g.shape).sum(axis=0) / (dim * n)

    def exponent():
        values = {
            "constant": lambda: np.full(g.shape, rng.uniform(1.1, 4.0)),
            "affine": lambda: 1.5 + rng.uniform(0.0, 2.0) * x,
            "random": lambda: rng.uniform(1.1, 4.0, g.shape),
        }[draw(st.sampled_from(["constant", "affine", "random"]))]()
        return validate_p(GridFunction(g, values))

    pairs = [(exponent(), exponent()) for _ in range(draw(st.integers(1, 3)))]
    bank = [GridFunction(g, rng.uniform(-1.0, 1.0, g.shape))
            for _ in range(draw(st.integers(1, 3)))]
    mode = draw(st.sampled_from([CubeFamilyMode.FULL, CubeFamilyMode.DYADIC_SIDES]))
    rows = draw(st.sampled_from([None, 1, 2, 3, 4]))
    return tags, pairs, bank, mode, rows and rows * 8 * g.cell_count


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=opnorm_cases())
def test_opnorm_lower_stacked_equals_opnorm_lower_for_every_tag_and_pair(case):
    tags, pairs, bank, mode, cap = case
    expected = [[opnorm_lower(tag, p, q, bank, mode) for tag in tags] for p, q in pairs]
    with pytest.MonkeyPatch.context() as patch:
        if cap:
            patch.setattr(maxlip.operators, "STACK_BYTES_MAX", cap)
        assert opnorm_lower_stacked(tags, pairs, bank, mode) == expected


def test_result_float_protocol():
    g = make_grid(1, 8)
    res = lambda_var(seeded_function(g, 2), 0.5, const_exponent(g, 2.0))
    assert isinstance(res, LipResult)
    assert float(res) == res.value


@pytest.mark.parametrize("dim, n", [(1, 10), (2, 5)])
@pytest.mark.parametrize("chunked", [False, True], ids=["one-stack", "many-stacks"])
def test_opnorm_lower_stacked_solves_the_bank_once_for_every_tag(monkeypatch, dim, n, chunked):
    g = make_grid(dim, n)
    b = seeded_function(g, 80)
    tags = [OperatorTag.hl(), OperatorTag.sharp(), OperatorTag.fractional(0.5),
            OperatorTag.max_commutator(b), OperatorTag.comm_m(b), OperatorTag.comm_sharp(b)]
    exponents = [affine_exponent(g, 2.0, 1.0), affine_exponent(g, 3.0, -1.0),
                 const_exponent(g, 2.5)]
    bank = [seeded_function(g, 81 + s) for s in range(2)]
    members = len(bank) + len(enumerate_cubes(g))
    stacks = -(-members // (3 if chunked else 10**9))
    solves = []
    solve = maxlip.luxemburg._newton_solve

    def counting(blocks, cm):
        blocks = list(blocks)
        solves.append(sum(len(a) for a, _ in blocks))
        return solve(blocks, cm)

    all_pairs = list(itertools.permutations(exponents, 2))[:3]
    expected = [[opnorm_lower(tag, p, q, bank) for tag in tags] for p, q in all_pairs]
    if chunked:
        monkeypatch.setattr(maxlip.operators, "STACK_BYTES_MAX", 3 * 8 * g.cell_count)
    monkeypatch.setattr(maxlip.luxemburg, "_newton_solve", counting)
    for count in (1, 2, 3):
        pairs = all_pairs[:count]
        solves.clear()
        assert opnorm_lower_stacked(tags, pairs, bank) == expected[:count]
        # Per stack: one solve of the members under every p, then one per tag
        # of its outputs under every q, whatever the number of pairs.
        assert len(solves) == stacks * (1 + len(tags))
        assert sum(solves) == members * count * (1 + len(tags))
    assert opnorm_lower_stacked([], pairs, bank) == [[], [], []]
    assert opnorm_lower_stacked(tags, [], bank) == []


# ---------------------------------------------------------------------------
# The cube sweeps against the per-cube loops they replaced: one cube at a time,
# each cube's slice, its own operator call and its own norm solve.


def reference_rows(b, beta, q, mode, center):
    grid = b.grid
    dim = grid.dim
    rows = []
    for cube in enumerate_cubes(grid, mode):
        k = cube.side_cells
        block = b.values[cube.slices()]
        if center == "average":
            ref = block.sum() / k**dim
        elif center == "local_max":
            ref = local_max(b, cube)
        else:
            ref = 2.0 * sharp_max(b * indicator(grid, cube), mode).values[cube.slices()]
        diff = np.abs(block - ref).reshape(1, -1)
        q_row = q.values.values[cube.slices()].reshape(1, -1)
        num = _lux_solve_batch(diff, q_row, grid.cell_measure)[0]
        den = _lux_solve_batch(np.ones_like(diff), q_row, grid.cell_measure)[0]
        rows.append((cube, (k * grid.spacing) ** (-beta) * float(num) / float(den)))
    return rows


def reference_osc_norm_q(b, beta, q_const, mode):
    grid = b.grid
    dim = grid.dim
    best = Worst()
    for cube in enumerate_cubes(grid, mode):
        block = b.values[cube.slices()]
        k = cube.side_cells
        mean = block.sum() / k**dim
        power_mean = (np.abs(block - mean) ** q_const).sum() / k**dim
        best.offer(float(cube.measure(grid) ** (-beta / dim) * power_mean ** (1.0 / q_const)),
                   cube)
    return best.value, best.witness


def sweep_fields(g):
    """A random symbol, and a tied one whose values repeat with period 2 (dim 1)
    or along rows (dim 2), so many cubes share the worst value."""
    yield seeded_function(g, 90, -1.0, 2.0)
    yield sample(g, (lambda x: np.where(np.arange(x.size) % 2, 1.0, 0.0)) if g.dim == 1
                 else (lambda x, y: np.floor(2.0 * x)))


SWEEP_GRIDS = [(1, 14), (2, 5)]
SWEEP_MODES = [CubeFamilyMode.FULL, CubeFamilyMode.DYADIC_SIDES]


@pytest.mark.parametrize("dim, n", SWEEP_GRIDS)
@pytest.mark.parametrize("mode", SWEEP_MODES)
@pytest.mark.parametrize("center, functional", [("average", lambda_var),
                                                ("local_max", lambda_star),
                                                ("sharp_double", lambda_sharp)])
def test_oscillation_sweeps_equal_the_per_cube_loop(dim, n, mode, center, functional):
    g = make_grid(dim, n)
    for q in (const_exponent(g, 2.0), const_exponent(g, 1.5), affine_exponent(g, 2.0, 1.0)):
        for b in sweep_fields(g):
            rows = reference_rows(b, 0.5, q, mode, center)
            assert cube_oscillation_rows(b, 0.5, q, mode, center) == rows
            best = Worst()
            for cube, value in rows:
                best.offer(value, cube)
            res = functional(b, 0.5, q, mode)
            assert (res.value, res.witness, res.exact) == (best.value, best.witness, True)


@pytest.mark.parametrize("dim, n", SWEEP_GRIDS)
@pytest.mark.parametrize("mode", SWEEP_MODES)
@pytest.mark.parametrize("sets", [2, 3])
def test_cube_ratios_of_joint_sets_equal_one_set_at_a_time(dim, n, mode, sets):
    g = make_grid(dim, n)
    cm = g.cell_measure
    sides = family_sides(n, mode)
    row_sets = [[np.abs(cube_rows(seeded_function(g, 100 + s).values, k)) for k in sides]
                for s in range(sets)]
    row_sets[-1][-1][:] = 0.0  # all-zero rows: norm 0, ratio 0
    for q in (const_exponent(g, 2.0), affine_exponent(g, 2.0, 1.0)):
        joint = cube_ratios(row_sets, 0.4, q, mode)
        assert len(joint) == sets
        for rows, values in zip(row_sets, joint):
            (alone,) = cube_ratios([iter(rows)], 0.4, q, mode)
            assert np.array_equal(values, alone)
            # Each value is its cube's own two solves.
            expected = []
            for k, side_rows in zip(sides, rows):
                for row, q_row in zip(side_rows, cube_rows(q.values.values, k)):
                    num = _lux_solve_batch(row[None], q_row[None], cm)[0]
                    den = _lux_solve_batch(np.ones((1, row.size)), q_row[None], cm)[0]
                    expected.append((k * g.spacing) ** (-0.4) * float(num) / float(den))
            assert values.tolist() == expected
        assert not joint[-1][-len(row_sets[-1][-1]):].any()


def test_cube_ratios_rejects_a_row_set_short_or_long_of_a_side():
    g = make_grid(1, 8)
    q = affine_exponent(g, 2.0, 1.0)
    b = seeded_function(g, 7)
    rows = [np.abs(cube_rows(b.values, k)) for k in family_sides(8, CubeFamilyMode.FULL)]
    for bad in (rows[:-1], rows + rows[-1:]):
        with pytest.raises(ValueError, match="zip"):
            cube_ratios([rows, iter(bad)], 0.5, q)


CENTERS = {"average": lambda_var, "local_max": lambda_star, "sharp_double": lambda_sharp}


@st.composite
def oscillation_cases(draw):
    """A symbol, an exponent, a family, beta and a center for the bounded sweeps.

    Symbols: tied (period-2 values, so many cubes share the worst ratio),
    constant, step, affine, random, and random scaled by 10^e for e up to
    +-250, so that powers of the centred values overflow or underflow.
    Exponents: constant, step, affine and random."""
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(2, 70 if dim == 1 else 12))
    g = make_grid(dim, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = np.indices(g.shape).sum(axis=0).astype(float)
    kind = draw(st.sampled_from(["tied", "constant", "step", "affine", "random", "scaled"]))
    values = {
        "tied": lambda: np.where(x % 2, 1.0, -0.5),
        "constant": lambda: np.full(g.shape, rng.uniform(-2.0, 2.0)),
        "step": lambda: np.where(x < rng.integers(1, dim * n), 0.0, rng.uniform(0.5, 3.0)),
        "affine": lambda: rng.uniform(-2.0, 2.0) * x + rng.uniform(-1.0, 1.0),
        "random": lambda: rng.uniform(-1.0, 1.0, g.shape),
        "scaled": lambda: rng.uniform(-1.0, 1.0, g.shape) * 10.0 ** rng.integers(-250, 251),
    }[kind]()
    q_kind = draw(st.sampled_from(["constant", "step", "affine", "random"]))
    q_values = {
        "constant": lambda: np.full(g.shape, rng.uniform(1.1, 5.0)),
        "step": lambda: np.where(x < rng.integers(1, dim * n), 2.0, rng.uniform(1.2, 4.0)),
        "affine": lambda: 1.5 + rng.uniform(0.0, 2.0) * x / (dim * n),
        "random": lambda: rng.uniform(1.1, 4.0, g.shape),
    }[q_kind]()
    mode = draw(st.sampled_from(SWEEP_MODES))
    beta = draw(st.floats(0.05, 0.95))
    center = draw(st.sampled_from(sorted(CENTERS)))
    return GridFunction(g, values), validate_p(GridFunction(g, q_values)), mode, beta, center


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=oscillation_cases())
def test_bounded_sweeps_equal_the_full_sweep(case):
    """lambda_var, lambda_star and lambda_sharp solve only the cubes that can win,
    yet give the value and witness of the sweep that solves every cube."""
    b, q, mode, beta, center = case
    res = CENTERS[center](b, beta, q, mode)
    full = worst_of(oscillation_values(b, beta, q, mode, center), enumerate_cubes(b.grid, mode))
    assert (res.value, res.witness, res.exact) == (full.value, full.witness, True)


def test_bounded_sweeps_under_a_small_cap(monkeypatch):
    """A cap this small makes the walk solve waiting cubes as the sides come in,
    not only at the end; the result is still the full sweep's.  The walk does
    not depend on the center, so two cheap centers stand for all three."""
    monkeypatch.setattr(maxlip.operators, "STACK_BYTES_MAX", 256)
    for g in (make_grid(1, 40), make_grid(2, 8)):
        x = np.indices(g.shape).sum(axis=0)
        fields = [seeded_function(g, 31), GridFunction(g, np.where(x % 2, 1.0, -0.5)),
                  GridFunction(g, 0.7 * x + 0.1)]
        exponents = [const_exponent(g, 2.5), affine_exponent(g, 2.0, 1.0),
                     validate_p(GridFunction(g, np.where(x < g.cells_per_axis, 2.0, 3.5)))]
        for b, q, mode, center in itertools.product(fields, exponents, SWEEP_MODES,
                                                    ["average", "local_max"]):
            res = CENTERS[center](b, 0.4, q, mode)
            full = worst_of(oscillation_values(b, 0.4, q, mode, center), enumerate_cubes(g, mode))
            assert (res.value, res.witness) == (full.value, full.witness), (center, mode)


def test_bounded_sweep_skips_cubes(monkeypatch):
    g = make_grid(1, 40)
    cubes = len(enumerate_cubes(g))
    b = seeded_function(g, 5)
    solved = []
    solve = maxlip.luxemburg._newton_solve

    def counting(blocks, cm):
        blocks = list(blocks)
        solved.extend(len(a) for a, _ in blocks)
        return solve(blocks, cm)

    monkeypatch.setattr(maxlip.lipschitz, "_newton_solve", counting)
    for q in (const_exponent(g, 2.5), affine_exponent(g, 2.0, 1.0)):
        for functional in CENTERS.values():
            solved.clear()
            res = functional(b, 0.5, q)
            # Numerator rows, plus one chi_Q row per side (constant q) or per cube.
            assert 0 < sum(solved) < cubes / 4, (functional, q.is_constant)
            assert res.witness in enumerate_cubes(g)


@pytest.mark.parametrize("dim, n", SWEEP_GRIDS)
@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_constant_q_solves_one_chi_row_per_side(monkeypatch, dim, n, mode):
    g = make_grid(dim, n)
    sides = family_sides(n, mode)
    cubes = len(enumerate_cubes(g, mode))
    solved, blocks_seen = [], []
    solve = maxlip.luxemburg._newton_solve

    def counting(blocks, cm):
        blocks = list(blocks)
        solved.append(sum(len(a) for a, _ in blocks))
        blocks_seen.extend(blocks)
        return solve(blocks, cm)

    monkeypatch.setattr(maxlip.luxemburg, "_newton_solve", counting)
    monkeypatch.setattr(maxlip.lipschitz, "_newton_solve", counting)
    b = seeded_function(g, 12)
    for q, chi_rows in ((const_exponent(g, 2.5), len(sides)),
                        (affine_exponent(g, 2.0, 1.0), cubes)):
        solved.clear()
        maxlip.luxemburg.indicator_norms(q, mode)
        assert solved == [chi_rows]
        blocks_seen.clear()
        lambda_var(b, 0.5, q, mode)
        # A block is one side's rows: the centred rows |b - b_Q| of the cubes
        # solved, then their chi_Q rows, all ones.
        chi = {}
        nums = 0
        for a, _ in blocks_seen:
            ones = int(np.all(a == 1.0, axis=1).sum())
            chi[a.shape[1]] = chi.get(a.shape[1], 0) + ones
            nums += len(a) - ones
            if not q.is_constant:
                assert ones == len(a) - ones
        assert nums < cubes
        if q.is_constant:
            # One chi_Q row per side touched: every cube of a side has its norm.
            assert set(chi.values()) == {1}


def test_bounded_walk_holds_at_most_four_caps_of_rows(monkeypatch):
    """The rows a walk holds, dropped cubes' rows included until they are let
    go, take at most 4 STACK_BYTES_MAX bytes after every add, and none are
    held after finish."""
    cap = 256
    monkeypatch.setattr(maxlip.operators, "STACK_BYTES_MAX", cap)
    held = []

    class Walk(maxlip.lipschitz._BoundedWalk):
        def held_bytes(self):
            return sum(rows.nbytes for _, _, rows in self.held.values())

        def add(self, k, rows):
            super().add(k, rows)
            held.append(self.held_bytes())

        def finish(self):
            ratios = super().finish()
            assert self.held == {} and self.held_bytes() == 0
            return ratios

    monkeypatch.setattr(maxlip.lipschitz, "_BoundedWalk", Walk)
    for g in (make_grid(1, 40), make_grid(2, 8)):
        x = np.indices(g.shape).sum(axis=0)
        for b, q, mode in itertools.product(
                [seeded_function(g, 31), GridFunction(g, np.where(x % 2, 1.0, -0.5))],
                [const_exponent(g, 2.5), affine_exponent(g, 2.0, 1.0)], SWEEP_MODES):
            held.clear()
            res = lambda_var(b, 0.4, q, mode)
            full = worst_of(oscillation_values(b, 0.4, q, mode, "average"),
                            enumerate_cubes(g, mode))
            assert (res.value, res.witness) == (full.value, full.witness)
            assert len(held) == len(family_sides(g.cells_per_axis, mode))
            assert max(held) <= 4 * cap
            assert any(held), "no add left rows held"


@pytest.mark.parametrize("dim, n", SWEEP_GRIDS + [(2, 9)])
@pytest.mark.parametrize("mode", SWEEP_MODES)
def test_osc_norm_q_equals_the_per_cube_loop(dim, n, mode):
    g = make_grid(dim, n)
    for b in sweep_fields(g):
        for q_const in (1.0, 1.5, 2.0, 2.7, 4.0):
            res = osc_norm_q(b, 0.4, q_const, mode)
            assert (res.value, res.witness) == reference_osc_norm_q(b, 0.4, q_const, mode)


@pytest.mark.parametrize("dim, n", SWEEP_GRIDS)
@pytest.mark.parametrize("mode", SWEEP_MODES)
@pytest.mark.parametrize("slope, q_const", [(1.0, 1500.0), (1e160, 2.0)])
def test_osc_norm_q_outside_the_normal_floats(dim, n, mode, slope, q_const):
    """|b - b_Q|^q underflows (q = 1500) or overflows (slope 1e160) on every
    cube; the closed form still equals lambda_var under the constant q."""
    g = make_grid(dim, n)
    b = sample(g, lambda x, *rest: slope * x)
    res = osc_norm_q(b, 0.4, q_const, mode)
    lam = lambda_var(b, 0.4, const_exponent(g, q_const), mode)
    assert 0.0 < lam.value < math.inf
    assert res.value == pytest.approx(lam.value, rel=1e-12, abs=0.0)
