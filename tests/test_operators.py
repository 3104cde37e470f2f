"""Maximal operators and commutators against naive oracles and hand counts."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import maxlip.grid
import maxlip.operators
from maxlip import (
    Cube,
    CubeFamilyMode,
    Grid,
    GridFunction,
    OperatorTag,
    apply_operator,
    apply_stack,
    comm_m,
    comm_sharp,
    cubes_by_side,
    enumerate_cubes,
    frac_max,
    hl_max,
    indicator,
    indicator_stacks,
    family_sides,
    local_max,
    local_max_sweep,
    make_grid,
    max_commutator,
    max_commutator_at_cells,
    on_cubes,
    oracle_check,
    sample,
    sharp_max,
)

from conftest import seeded_function


def all_tags(b: GridFunction) -> list[OperatorTag]:
    return [
        OperatorTag.hl(),
        OperatorTag.sharp(),
        OperatorTag.fractional(0.25),
        OperatorTag.fractional(0.5),
        OperatorTag.max_commutator(b),
        OperatorTag.comm_m(b),
        OperatorTag.comm_sharp(b),
    ]


def test_oracle_agreement_small_grids():
    for dim, n in ((1, 16), (2, 6)):
        g = make_grid(dim, n)
        for seed in range(3):
            b = seeded_function(g, seed, -1.0, 1.0)
            f = seeded_function(g, seed + 50, -1.0, 1.0)
            for tag in all_tags(b):
                assert oracle_check(tag, f) <= 1e-12, tag.label


def test_oracle_agreement_local():
    g = make_grid(1, 12)
    b = seeded_function(g, 9)
    tag = OperatorTag.local(Cube((2,), 7))
    assert oracle_check(tag, b) <= 1e-12
    g2 = make_grid(2, 9)
    b2 = seeded_function(g2, 11, -2.0, 2.0)
    for cube in (Cube((1, 3), 5), Cube((0, 0), 9), Cube((8, 2), 1)):
        assert oracle_check(OperatorTag.local(cube), b2) <= 1e-12, cube


def test_oracle_guard_messages():
    g = make_grid(1, 65)
    f = seeded_function(g, 0)
    with pytest.raises(ValueError, match=r"oracle guard: N = 65 exceeds 64 for dim 1"):
        oracle_check(OperatorTag.hl(), f)
    g2 = make_grid(2, 17)
    with pytest.raises(ValueError, match=r"exceeds 16 for dim 2"):
        oracle_check(OperatorTag.hl(), seeded_function(g2, 0))


def test_oracle_agreement_at_the_guard_limits():
    for dim, n in ((1, maxlip.operators.ORACLE_MAX_CELLS_DIM1),
                   (2, maxlip.operators.ORACLE_MAX_CELLS_DIM2)):
        g = make_grid(dim, n)
        b = seeded_function(g, 3, -1.0, 1.0)
        f = seeded_function(g, 4, -1.0, 1.0)
        for tag in all_tags(b) + [OperatorTag.local(Cube((2,) * dim, n - 5))]:
            assert oracle_check(tag, f) <= 1e-12, (dim, tag.label)


def _naive_tags(g: Grid, b: GridFunction) -> list[OperatorTag]:
    n = g.cells_per_axis
    return all_tags(b) + [OperatorTag.local(Cube((n // 3,) * g.dim, n - n // 3))]


def test_naive_oracles_use_no_fast_primitive(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a naive oracle reached a fast-path primitive")

    for name in ("window_sums", "prefix_table", "table_window_sums", "window_view",
                 "_windowed_cell_max", "_nested_cell_max", "_holding"):
        monkeypatch.setattr(maxlip.operators, name, refuse)
    monkeypatch.setattr(GridFunction, "prefix", property(refuse))
    for dim, n in ((1, 9), (2, 5)):
        g = make_grid(dim, n)
        b = seeded_function(g, 20, -1.0, 1.0)
        f = seeded_function(g, 21, -1.0, 1.0)
        for tag in _naive_tags(g, b):
            assert np.isfinite(maxlip.operators._naive_apply(tag, f)).all(), tag.label


def slice_loop_per_cube(vals: np.ndarray, statistic) -> np.ndarray:
    """The per-cube oracle as a loop: one slice of vals and one statistic per cube."""
    n = vals.shape[0]
    out = np.zeros(vals.shape)
    for k in range(1, n + 1):
        for start in itertools.product(range(n - k + 1), repeat=vals.ndim):
            sl = tuple(slice(s, s + k) for s in start)
            region = out[sl]
            np.maximum(region, statistic(vals[sl], k), out=region)
    return out


def cell_loop_max_comm(b: GridFunction, f: GridFunction) -> np.ndarray:
    """The maximal commutator as a loop over cells, and per cell over the cubes holding it."""
    n, dim = b.grid.cells_per_axis, b.grid.dim
    bv, absf = b.values, np.abs(f.values)
    out = np.zeros(b.grid.shape)
    for cell in np.ndindex(b.grid.shape):
        best = 0.0
        for k in range(1, n + 1):
            starts = [range(max(0, c - k + 1), min(c, n - k) + 1) for c in cell]
            for start in itertools.product(*starts):
                sl = tuple(slice(s, s + k) for s in start)
                best = max(best, float((np.abs(bv[sl] - bv[cell]) * absf[sl]).sum()) / k**dim)
        out[cell] = best
    return out


def slice_loop_apply(tag: OperatorTag, f: GridFunction) -> np.ndarray:
    dim, h = f.grid.dim, f.grid.spacing

    def average(absv, scale=lambda k: 1.0):
        return slice_loop_per_cube(absv, lambda block, k: scale(k) * float(block.sum()) / k**dim)

    def hl(vals):
        return average(np.abs(vals))

    def mean_oscillation(block, k):
        mean = float(block.sum()) / k**dim
        return float(np.abs(block - mean).sum()) / k**dim

    def sharp(vals):
        return slice_loop_per_cube(vals, mean_oscillation)

    b = tag.symbol.values if tag.symbol is not None else None
    if tag.kind == "hl":
        return hl(f.values)
    if tag.kind == "sharp":
        return sharp(f.values)
    if tag.kind == "fractional":
        return average(np.abs(f.values), lambda k: (k * h) ** tag.alpha)
    if tag.kind == "local":
        return average(np.abs(f.values)[tag.cube.slices()])
    if tag.kind == "max_commutator":
        return cell_loop_max_comm(tag.symbol, f)
    if tag.kind == "comm_m":
        return b * hl(f.values) - hl(b * f.values)
    assert tag.kind == "comm_sharp"
    return b * sharp(f.values) - sharp(b * f.values)


@pytest.mark.parametrize("dim, n", [(1, 1), (1, 2), (1, 13), (1, 32),
                                    (2, 1), (2, 2), (2, 5), (2, 8)])
def test_naive_oracles_equal_the_slice_loops(dim, n):
    # Bit for bit: a gathered row of a cube sums like the cube's slice.  The
    # guard limits are left out; the cell loop takes about 0.5 s a call there.
    g = Grid(dim, n, (0.0,) * dim, 1.0)  # make_grid refuses N = 1; the oracles do not
    b = seeded_function(g, 30 + n, -1.0, 1.0)
    rng = np.random.default_rng(7 * n + dim)
    for vals in (rng.uniform(-1.0, 1.0, g.shape),  # random, tied, negative
                 rng.integers(-2, 3, g.shape).astype(float),
                 rng.uniform(-3.0, -1.0, g.shape)):
        f = GridFunction(g, vals)
        for tag in _naive_tags(g, b):
            got = maxlip.operators._naive_apply(tag, f)
            assert np.array_equal(got, slice_loop_apply(tag, f)), tag.label


@pytest.mark.parametrize("dim, n", [(1, 9), (2, 5)])
def test_cube_cells_are_cached_read_only_rows_of_the_family(dim, n):
    g = make_grid(dim, n)
    cube_cells = maxlip.operators._cube_cells
    for k, side in cubes_by_side(g):
        cells = cube_cells(n, dim, k)
        assert cube_cells(n, dim, k) is cells
        with pytest.raises(ValueError):
            cells[0, 0] = 0
        want = np.stack([np.flatnonzero(indicator(g, cube).values) for cube in side])
        assert cells.dtype.kind == "i" and np.array_equal(cells, want), k
    # The cache is bounded: the sides of one family at the 1-D guard limit.
    bound = maxlip.operators.ORACLE_MAX_CELLS_DIM1
    assert cube_cells.cache_info().maxsize == bound
    for k in range(1, bound + 1):
        cube_cells(bound + 1, 1, k)
    assert cube_cells.cache_info().currsize == bound


def test_hl_single_spike_hand_count():
    g = make_grid(1, 4)
    f = indicator(g, Cube((0,), 1))
    got = hl_max(f, CubeFamilyMode.FULL).values
    assert np.allclose(got, [1.0, 0.5, 1.0 / 3.0, 0.25], atol=1e-15)


def test_sharp_of_half_indicator_hand_count():
    # chi over cells {0,1} on 4 cells: every cell sees a half-full cube.
    g = make_grid(1, 4)
    f = indicator(g, Cube((0,), 2))
    got = sharp_max(f, CubeFamilyMode.FULL).values
    assert np.allclose(got, 0.5, atol=1e-15)


def test_sharp_dyadic_against_cube_loop():
    # oracle_check only runs the full family; check the dyadic sides here
    # against a loop over the enumerated dyadic cubes.
    for dim, n in ((1, 13), (2, 9)):
        g = make_grid(dim, n)
        for seed in range(3):
            f = seeded_function(g, seed + 70, -1.0, 1.0)
            expected = np.zeros(g.shape)
            for cube in enumerate_cubes(g, CubeFamilyMode.DYADIC_SIDES):
                block = f.values[cube.slices()]
                osc = np.abs(block - block.mean()).mean()
                region = expected[cube.slices()]
                np.maximum(region, osc, out=region)
            got = sharp_max(f, CubeFamilyMode.DYADIC_SIDES).values
            assert np.max(np.abs(got - expected)) <= 1e-12, (dim, seed)


def test_frac_single_spike_hand_count():
    g = make_grid(1, 4)
    f = indicator(g, Cube((0,), 1))
    got = frac_max(f, 0.5, CubeFamilyMode.FULL).values
    assert got[0] == pytest.approx(0.5)
    assert got[1] == pytest.approx(np.sqrt(0.5) / 2.0)


def test_local_max_of_coordinate_hand_count():
    g = make_grid(1, 4)
    b = sample(g, lambda x: x)
    got = local_max(b, Cube((0,), 4))
    assert np.allclose(got, [0.5, 0.625, 0.75, 0.875], atol=1e-15)


def test_local_max_restricted_window():
    g = make_grid(1, 8)
    b = seeded_function(g, 13, 0.0, 2.0)
    q0 = Cube((2,), 4)
    got = local_max(b, q0)
    assert got.shape == (4,)
    # Values from outside the base cube must not leak in.
    spiked = b.values.copy()
    spiked[0] = 100.0
    assert np.allclose(local_max(GridFunction(g, spiked), q0), got)


def test_local_max_sweep_equals_per_cube_local_max():
    # Byte for byte: the sweep takes its max over the same window averages.
    for dim, n in ((1, 37), (2, 11)):
        g = make_grid(dim, n)
        b = seeded_function(g, n, -2.0, 2.0)
        largest_missing = [k for k in family_sides(n, CubeFamilyMode.DYADIC_SIDES) if k < 8]
        for sides in (
            family_sides(n, CubeFamilyMode.FULL),
            family_sides(n, CubeFamilyMode.DYADIC_SIDES),
            largest_missing,
            [n],
        ):
            got = list(local_max_sweep(b, sides))
            assert [k for k, _ in got] == sorted(sides)
            for k, levels in got:
                assert levels.shape == (n - k + 1,) * dim + (k,) * dim
                for start in itertools.product(range(n - k + 1), repeat=dim):
                    want = local_max(b, Cube(start, k))
                    assert levels[start].tobytes() == want.tobytes(), (dim, k, start)


def test_local_max_sweep_rejects_sides_off_the_grid():
    g = make_grid(1, 6)
    b = seeded_function(g, 1)
    assert list(local_max_sweep(b, [])) == []
    with pytest.raises(ValueError, match="1..6"):
        list(local_max_sweep(b, [2, 7]))
    with pytest.raises(ValueError, match="1..6"):
        list(local_max_sweep(b, [0, 2]))


def test_dyadic_never_exceeds_full():
    g = make_grid(2, 8)
    f = seeded_function(g, 2)
    full = hl_max(f, CubeFamilyMode.FULL).values
    dyadic = hl_max(f, CubeFamilyMode.DYADIC_SIDES).values
    assert (dyadic <= full + 1e-12).all()


def test_hl_dominates_absolute_value():
    for seed in range(5):
        g = make_grid(1, 20)
        f = seeded_function(g, seed, -2.0, 2.0)
        assert (hl_max(f).values >= np.abs(f.values) - 1e-12).all()


def test_commutator_constant_symbol():
    g = make_grid(1, 10)
    f = seeded_function(g, 30, -1.0, 1.0)
    m = hl_max(f).values
    zero = comm_m(sample(g, lambda x: 2.0 + 0.0 * x), f)
    assert np.allclose(zero.values, 0.0, atol=1e-12)
    flipped = comm_m(sample(g, lambda x: -1.0 + 0.0 * x), f)
    assert np.allclose(flipped.values, -2.0 * m, atol=1e-12)


def test_max_commutator_shift_invariant():
    g = make_grid(1, 12)
    b = seeded_function(g, 40)
    f = seeded_function(g, 41)
    base = max_commutator(b, f).values
    shifted = max_commutator(b + sample(g, lambda x: 5.0 + 0.0 * x), f).values
    assert np.allclose(shifted, base, atol=1e-12)


def test_max_commutator_at_cells_matches_full():
    g = make_grid(2, 5)
    b = seeded_function(g, 50)
    f = seeded_function(g, 51)
    full = max_commutator(b, f, CubeFamilyMode.FULL).values
    cells = [(0, 0), (2, 3), (4, 4), (1, 2)]
    got = max_commutator_at_cells(b, f, cells, CubeFamilyMode.FULL)
    assert np.allclose(got, [full[c] for c in cells], atol=1e-14)


def test_max_commutator_dyadic_against_cube_loop():
    # oracle_check only runs the full family; hold the holding template of
    # the all-cells kernel against the dyadic cubes holding each cell.
    for dim, n in ((1, 13), (2, 7)):
        g = make_grid(dim, n)
        b = seeded_function(g, 80, -1.0, 1.0)
        f = seeded_function(g, 81, -1.0, 1.0)
        cubes = enumerate_cubes(g, CubeFamilyMode.DYADIC_SIDES)
        expected = np.zeros(g.shape)
        for cell in np.ndindex(g.shape):
            holding = [c for c in cubes
                       if all(s <= i < s + c.side_cells for s, i in zip(c.start, cell))]
            for cube in holding:
                sl = cube.slices()
                block = np.abs(b.values[sl] - b.values[cell]) * np.abs(f.values[sl])
                expected[cell] = max(expected[cell], float(block.sum()) / cube.side_cells**dim)
        got = max_commutator(b, f, CubeFamilyMode.DYADIC_SIDES).values
        assert np.max(np.abs(got - expected)) <= 1e-12, dim


STACK_KINDS = ("hl", "sharp", "frac", "max_commutator", "comm_m", "comm_sharp")


def _stack_tag(kind: str, b: GridFunction) -> OperatorTag:
    if kind == "frac":
        return OperatorTag.fractional(0.5)
    if kind in ("hl", "sharp"):
        return OperatorTag(kind)
    return OperatorTag(kind, symbol=b)


@pytest.mark.parametrize("kind", STACK_KINDS)
@pytest.mark.parametrize("dim, n", [(1, 9), (2, 5)])
@pytest.mark.parametrize("mode", [CubeFamilyMode.FULL, CubeFamilyMode.DYADIC_SIDES])
@pytest.mark.parametrize("chunked", [False, True], ids=["one-chunk", "many-chunks"])
def test_stacked_call_equals_per_function_calls(monkeypatch, kind, dim, n, mode, chunked):
    g = make_grid(dim, n)
    b = seeded_function(g, 90, -1.0, 1.0)
    tag = _stack_tag(kind, b)
    rows = [seeded_function(g, 91 + r, -1.0, 1.0).values for r in range(3)]
    rows += [chi for _, chis in indicator_stacks(g, enumerate_cubes(g, mode)[::4]) for chi in chis]
    stack = np.stack(rows)
    expected = np.stack([apply_operator(tag, GridFunction(g, row), mode).values for row in rows])
    if chunked:
        # Small enough that every kernel splits the stack over rows, and the
        # maximal commutator over cells too.
        monkeypatch.setattr(maxlip.operators, "STACK_BYTES_MAX", 512)
    else:
        assert stack.nbytes * 16 < maxlip.operators.STACK_BYTES_MAX
    assert np.array_equal(apply_stack(tag, g, stack, mode), expected)


def test_indicator_stacks_cross_sides_under_the_cap_in_order(monkeypatch):
    g = make_grid(2, 5)
    cubes = enumerate_cubes(g, CubeFamilyMode.FULL)
    cap = 3 * 8 * g.cell_count
    monkeypatch.setattr(maxlip.operators, "STACK_BYTES_MAX", cap)
    seen, straddling = [], 0
    for group, stack in indicator_stacks(g, cubes):
        assert stack.nbytes <= cap and stack.shape == (len(group),) + g.shape
        # Every stack is full but the last: a side's end does not cut it.
        assert len(group) == 3 or len(seen) + len(group) == len(cubes)
        straddling += len({c.side_cells for c in group}) > 1
        for cube, chi in zip(group, stack):
            assert np.array_equal(chi, indicator(g, cube).values)
        seen.extend(group)
    assert tuple(seen) == cubes
    assert straddling  # 25 side-1 cubes leave a stack that takes side-2 cubes too


@pytest.mark.parametrize("kind", ("hl", "sharp", "max_commutator", "comm_sharp"))
@pytest.mark.parametrize("dim, n", [(1, 9), (2, 5)])
@pytest.mark.parametrize("mode", [CubeFamilyMode.FULL, CubeFamilyMode.DYADIC_SIDES])
def test_on_cubes_equals_the_per_cube_calls(monkeypatch, kind, dim, n, mode):
    g = make_grid(dim, n)
    tag = _stack_tag(kind, seeded_function(g, 95, -1.0, 1.0))
    w = seeded_function(g, 96, -1.0, 2.0)
    cubes = enumerate_cubes(g, mode)
    # Two indicators per stack, and every kernel splits its stack as well;
    # the first side has an odd number of cubes, so a stack straddles sides.
    monkeypatch.setattr(maxlip.operators, "STACK_BYTES_MAX", 2 * 8 * g.cell_count)
    assert any(len({c.side_cells for c in group}) > 1 for group, _ in indicator_stacks(g, cubes))
    runs = cubes_by_side(g, mode)
    for weight, f in ((w.values, w), (1.0, 1.0)):
        blocks = list(on_cubes(tag, g, cubes, weight, mode))
        assert len(blocks) == len(runs)
        for (_, side), block in zip(runs, blocks):
            expected = np.stack([
                apply_operator(tag, indicator(g, cube) * f, mode).values[cube.slices()].reshape(-1)
                for cube in side])
            assert np.array_equal(block, expected)


def test_on_cubes_yields_one_block_per_side_of_a_run_of_sides(monkeypatch):
    g = make_grid(1, 7)
    runs = cubes_by_side(g)
    monkeypatch.setattr(maxlip.operators, "STACK_BYTES_MAX", 4 * 8 * g.cell_count)
    middle = [cube for _, side in runs[1:4] for cube in side]
    blocks = list(on_cubes(OperatorTag.hl(), g, middle, 1.0))
    assert [b.shape for b in blocks] == [(len(side), k) for k, side in runs[1:4]]
    for (_, side), block in zip(runs[1:4], blocks):
        (alone,) = on_cubes(OperatorTag.hl(), g, side, 1.0)
        assert np.array_equal(block, alone)
    assert list(on_cubes(OperatorTag.hl(), g, (), 1.0)) == []


COMMUTATOR_KERNELS = (("comm_m", "_average_max"), ("comm_sharp", "_sharp_rows"))


@pytest.mark.parametrize("kind, kernel", COMMUTATOR_KERNELS)
@pytest.mark.parametrize("dim, n", [(1, 13), (2, 6)])
def test_commutator_calls_its_kernel_once_per_stack(monkeypatch, kind, kernel, dim, n):
    g = make_grid(dim, n)
    tag = _stack_tag(kind, seeded_function(g, 97, -1.0, 1.0))
    real, calls = getattr(maxlip.operators, kernel), []

    def counted(grid, stack, mode, *args):
        calls.append(len(stack))
        return real(grid, stack, mode, *args)

    monkeypatch.setattr(maxlip.operators, kernel, counted)
    for rows in range(1, 6):
        calls.clear()
        apply_stack(tag, g, np.ones((rows,) + g.shape), CubeFamilyMode.FULL)
        assert calls == [2 * rows]  # f and b f, joined


@pytest.mark.parametrize("kind, kernel", COMMUTATOR_KERNELS)
@pytest.mark.parametrize("dim, n", [(1, 13), (2, 6)])
@pytest.mark.parametrize("mode", [CubeFamilyMode.FULL, CubeFamilyMode.DYADIC_SIDES])
def test_joined_commutator_equals_the_per_row_calls(monkeypatch, kind, kernel, dim, n, mode):
    # Under a 512-byte cap the joined rows are cut into chunks and every
    # kernel splits its chunk again; rows stay independent bit for bit.
    g = make_grid(dim, n)
    b = seeded_function(g, 98, -1.0, 1.0)
    tag = _stack_tag(kind, b)
    rng = np.random.default_rng(dim * 100 + n)
    monkeypatch.setattr(maxlip.operators, "STACK_BYTES_MAX", 512)
    for rows in range(1, 6):
        stack = np.stack([drawn_values(VALUE_KINDS[r % 3], rng, g.shape) for r in range(rows)])
        got = apply_stack(tag, g, stack, mode)
        per_row = np.stack([apply_operator(tag, GridFunction(g, row), mode).values
                            for row in stack])
        assert got.tobytes() == per_row.tobytes(), rows
        run = getattr(maxlip.operators, kernel)
        two_calls = b.values * run(g, stack, mode) - run(g, b.values * stack, mode)
        assert got.tobytes() == two_calls.tobytes(), rows


def test_pointwise_commutator_bound_nonneg_symbol():
    for seed in range(4):
        g = make_grid(1, 16)
        b = seeded_function(g, seed, 0.0, 2.0)
        f = seeded_function(g, seed + 10, -1.0, 1.0)
        mb = max_commutator(b, f).values
        assert (np.abs(comm_m(b, f).values) <= mb + 1e-12).all()
        assert (np.abs(comm_sharp(b, f).values) <= 2.0 * mb + 1e-12).all()


def test_apply_operator_dispatch():
    g = make_grid(1, 6)
    b = seeded_function(g, 60)
    f = seeded_function(g, 61)
    assert np.array_equal(apply_operator(OperatorTag.hl(), f).values, hl_max(f).values)
    out = apply_operator(OperatorTag.local(Cube((1,), 3)), b)
    assert isinstance(out, np.ndarray)
    assert out.shape == (3,)
    assert OperatorTag.fractional(0.25).label == "fractional[0.25]"
    with pytest.raises(ValueError, match="unknown operator"):
        apply_operator(OperatorTag("bogus"), f)


def test_mismatched_grids_rejected():
    b = seeded_function(make_grid(1, 8), 0)
    f = seeded_function(make_grid(1, 9), 0)
    with pytest.raises(ValueError, match="different grids"):
        max_commutator(b, f)


def sliding_cell_max(window_vals: np.ndarray, k: int, dim: int) -> np.ndarray:
    """The per-cell max as one window view over the -inf padded starts."""
    starts = window_vals.shape[-1]
    padded = np.full(window_vals.shape[:-dim] + (starts + 2 * (k - 1),) * dim, -np.inf,
                     dtype=window_vals.dtype)
    padded[(Ellipsis,) + (slice(k - 1, k - 1 + starts),) * dim] = window_vals
    axes = tuple(range(-dim, 0))
    return sliding_window_view(padded, (k,) * dim, axis=axes).max(axis=axes)


@pytest.mark.parametrize("dim, n", [(1, 1), (1, 2), (1, 33), (2, 1), (2, 2), (2, 12)])
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_windowed_cell_max_equals_sliding_window_reference(dim, n, dtype):
    rng = np.random.default_rng(100 * dim + n)
    for k in range(1, n + 1):
        starts = (n - k + 1,) * dim
        # Negative values, so a cell that let the padding in would read -inf
        # or miss its own windows; and integers, so maxima tie.
        stacks = [rng.uniform(-3.0, -1.0, (3,) + starts),
                  rng.integers(-2, 2, (2,) + starts).astype(float),
                  rng.uniform(-1.0, 1.0, starts)]
        for vals in stacks:
            vals = vals.astype(dtype)
            got = maxlip.operators._windowed_cell_max(vals, k, dim)
            want = sliding_cell_max(vals, k, dim)
            assert got.shape == vals.shape[:vals.ndim - dim] + (n,) * dim
            assert got.dtype == dtype
            assert np.array_equal(got, want)


def test_windowed_cell_max_at_the_boundary():
    # Each start holds its own index: a cell x of an N-cell axis sees the
    # starts max(0, x-k+1) .. min(x, N-k), so its max is min(x, N-k).
    n = 11
    for k in range(1, n + 1):
        starts = np.arange(n - k + 1, dtype=float)
        got = maxlip.operators._windowed_cell_max(starts, k, 1)
        assert np.array_equal(got, np.minimum(np.arange(n), n - k))
        plane = starts[:, None] * 100.0 + starts[None, :]
        edge = np.minimum(np.arange(n), n - k)
        got2 = maxlip.operators._windowed_cell_max(plane, k, 2)
        assert np.array_equal(got2, edge[:, None] * 100.0 + edge[None, :])


# ---------------------------------------------------------------------------
# The per-side kernels that the nested pass over the sides replaced, kept as
# references: one padded sliding max of width k per side, numpy's window
# views, and the commutator's start-range mask.


def per_side_average_max(grid, stack, mode, alpha=None):
    dim, n, h = grid.dim, grid.cells_per_axis, grid.spacing
    absf = np.abs(stack)
    out = np.full(stack.shape, -np.inf)
    for rows in maxlip.operators._chunks(len(stack), 16 * (2 * n) ** dim):
        table = maxlip.grid.prefix_table(absf[rows], dim)
        part = out[rows]
        for k in family_sides(n, mode):
            sums = maxlip.grid.table_window_sums(table, k, dim)
            vals = sums / k**dim if alpha is None else (k * h) ** alpha * sums / k**dim
            np.maximum(part, maxlip.operators._windowed_cell_max(vals, k, dim), out=part)
    return out


def per_side_sharp_rows(grid, stack, mode):
    dim, n = grid.dim, grid.cells_per_axis
    grid_axes = tuple(range(1, dim + 1))
    count_axes = tuple(range(dim + 1, 2 * dim + 1))
    out = np.full(stack.shape, -np.inf)
    for k in family_sides(n, mode):
        count = k**dim
        for rows in maxlip.operators._chunks(len(stack), 8 * ((n - k + 1) * k) ** dim):
            windows = sliding_window_view(stack[rows], (k,) * dim, axis=grid_axes)
            means = windows.sum(axis=count_axes, keepdims=True) / count
            osc = np.abs(windows - means).sum(axis=count_axes) / count
            part = out[rows]
            np.maximum(part, maxlip.operators._windowed_cell_max(osc, k, dim), out=part)
    return out


def start_mask(cells, k, n):
    """mask[c, s] is true when the side-k window starting at s holds cell c."""
    starts = np.arange(n - k + 1)
    per_axis = [(starts <= x[:, None]) & (starts > x[:, None] - k) for x in cells]
    if len(per_axis) == 1:
        return per_axis[0]
    return per_axis[0][:, :, None] & per_axis[1][:, None, :]


def masked_max_comm_rows(b, stack, mode):
    grid = b.grid
    dim, n = grid.dim, grid.cells_per_axis
    sides = family_sides(n, mode)
    flat_b = b.values.reshape(-1)
    coords = np.indices(grid.shape).reshape(dim, -1)
    absf = np.abs(stack)[:, None]
    out = np.zeros((len(stack), grid.cell_count))
    cell_bytes = 8 * (n + 1) ** dim
    for cols in maxlip.operators._chunks(grid.cell_count, cell_bytes):
        dist = np.abs(b.values[None] - flat_b[cols].reshape((-1,) + (1,) * dim))
        for rows in maxlip.operators._chunks(len(stack), cell_bytes * len(dist)):
            table = maxlip.grid.prefix_table(dist * absf[rows], dim, dtype=float)
            best = np.zeros(table.shape[:2])
            for k in sides:
                sums = maxlip.grid.table_window_sums(table, k, dim)
                np.copyto(sums, -np.inf, where=~start_mask(coords[:, cols], k, n))
                top = sums.reshape(sums.shape[:2] + (-1,)).max(axis=2)
                np.maximum(best, top / k**dim, out=best)
            out[rows, cols] = best
    return out.reshape(stack.shape)


def per_side_local_max(b, q0):
    absb = abs(b)
    m = q0.side_cells
    out = np.full((m,) * b.grid.dim, -np.inf)
    for k in range(1, m + 1):
        all_avgs = maxlip.grid.window_sums(absb, k) / k**b.grid.dim
        sub = all_avgs[tuple(slice(s, s + m - k + 1) for s in q0.start)]
        np.maximum(out, maxlip.operators._windowed_cell_max(sub, k, b.grid.dim), out=out)
    return out


def per_side_apply(kind, grid, stack, mode, b, alpha):
    if kind == "hl":
        return per_side_average_max(grid, stack, mode)
    if kind == "frac":
        return per_side_average_max(grid, stack, mode, alpha)
    if kind == "sharp":
        return per_side_sharp_rows(grid, stack, mode)
    if kind == "max_commutator":
        return masked_max_comm_rows(b, stack, mode)
    kernel = per_side_average_max if kind == "comm_m" else per_side_sharp_rows
    return b.values * kernel(grid, stack, mode) - kernel(grid, b.values * stack, mode)


def drawn_values(kind: str, rng, shape) -> np.ndarray:
    if kind == "uniform":
        return rng.uniform(-1.0, 1.0, shape)
    if kind == "integer":  # maxima tie
        return rng.integers(-2, 3, shape).astype(float)
    assert kind == "indicator"
    return (rng.uniform(size=shape) < 0.3).astype(float)


VALUE_KINDS = ("uniform", "integer", "indicator")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    size=st.one_of(st.tuples(st.just(1), st.integers(2, 50)),
                   st.tuples(st.just(2), st.integers(2, 11))),
    mode=st.sampled_from((CubeFamilyMode.FULL, CubeFamilyMode.DYADIC_SIDES)),
    rows=st.integers(1, 4),
    kinds=st.tuples(*[st.sampled_from(VALUE_KINDS)] * 2),
    seed=st.integers(0, 2**16),
    cap=st.sampled_from((None, 512)),
)
@example(size=(1, 300), mode=CubeFamilyMode.FULL, rows=1, kinds=("uniform", "integer"),
         seed=1, cap=None)
@example(size=(2, 32), mode=CubeFamilyMode.FULL, rows=1, kinds=("integer", "uniform"),
         seed=2, cap=None)
@example(size=(2, 13), mode=CubeFamilyMode.DYADIC_SIDES, rows=2,
         kinds=("indicator", "uniform"), seed=3, cap=None)
@example(size=(2, 17), mode=CubeFamilyMode.FULL, rows=3, kinds=("integer", "indicator"),
         seed=4, cap=4096)
def test_stacked_kernels_equal_the_per_side_references(size, mode, rows, kinds, seed, cap):
    # Bit for bit: the nested pass takes its max over the same window values,
    # and the holding template picks the windows the start-range mask kept.
    # A cap of 512 bytes splits every stack over rows and the commutator's
    # cells into blocks of one cell.  At the real cap the commutator takes
    # 2-D N=13 in a rectangle of 12 lines and one of 1, and cuts the lines of
    # 2-D N=32 into 30 cells and 2.
    dim, n = size
    g = make_grid(dim, n)
    rng = np.random.default_rng(seed)
    stack = np.stack([drawn_values(kinds[r % 2], rng, g.shape) for r in range(rows)])
    b = GridFunction(g, drawn_values(kinds[1], rng, g.shape))
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setattr(maxlip.operators, "STACK_BYTES_MAX", cap)
        for kind in STACK_KINDS:
            got = apply_stack(_stack_tag(kind, b), g, stack, mode)
            want = per_side_apply(kind, g, stack, mode, b, 0.5)
            assert got.tobytes() == want.tobytes(), kind
    k = int(rng.integers(1, n + 1))
    q0 = Cube(tuple(int(rng.integers(0, n - k + 1)) for _ in range(dim)), k)
    f = GridFunction(g, stack[0])
    assert local_max(f, q0).tobytes() == per_side_local_max(f, q0).tobytes()


@pytest.mark.parametrize("shape, k, dim", [((9,), 1, 1), ((9,), 4, 1), ((9,), 9, 1),
                                           ((3, 9), 4, 1), ((7, 7), 3, 2), ((2, 6, 6), 6, 2),
                                           ((2, 6, 6), 1, 2)])
def test_window_view_is_the_sliding_window_view(shape, k, dim):
    values = np.arange(float(np.prod(shape))).reshape(shape)
    axes = tuple(range(len(shape) - dim, len(shape)))
    for vals in (values, values.astype(np.longdouble)):
        want = sliding_window_view(vals, (k,) * dim, axis=axes)
        got = maxlip.grid.window_view(vals, k, dim)
        assert got.shape == want.shape and got.strides == want.strides
        assert got.dtype == vals.dtype and np.array_equal(got, want)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[(0,) * got.ndim] = 1.0
    # A non-contiguous array is read through a contiguous copy: same values.
    for strided in (values[..., ::2], values[..., ::-1]):
        kk = min(k, strided.shape[-1])
        got = maxlip.grid.window_view(strided, kk, dim)
        assert np.array_equal(got, sliding_window_view(strided, (kk,) * dim, axis=axes))


def test_holding_template_reads_the_windows_that_hold_each_cell():
    n = 9
    for k in range(1, n + 1):
        for cells, starts in ((slice(0, n), slice(0, n - k + 1)), (slice(3, 7), slice(1, 5)),
                              (slice(8, 9), slice(n - k, n - k + 1))):
            held = maxlip.operators._holding(n, k, cells, starts)
            x = np.arange(cells.start, cells.stop)[:, None]
            s = np.arange(starts.start, starts.stop)[None, :]
            assert np.array_equal(held, (s <= x) & (x < s + k)), (k, cells, starts)
            assert not held.flags.writeable


@pytest.mark.parametrize("n", [1, 2, 3, 13, 32, 65])
def test_line_max_commutator_equals_the_masked_reference_and_the_cell_loop(monkeypatch, n):
    # Dim 1, full family: each cell's max over its rectangle of prefix
    # differences equals the per-side masked reference byte for byte, for
    # stacks of 1-5 rows under the real cap and under 512 bytes, where every
    # block is one cell, every chunk one row and a rectangle is cut into
    # runs of starts.  The cell loop sums each cube directly, so it agrees
    # to rounding only.
    g = Grid(1, n, (0.0,), 1.0)  # make_grid refuses N = 1; the kernel does not
    rng = np.random.default_rng(n)
    b = GridFunction(g, rng.uniform(-1.0, 1.0, g.shape))
    stack = np.stack([drawn_values(VALUE_KINDS[r % 3], rng, g.shape) for r in range(5)])
    tag = OperatorTag.max_commutator(b)
    want = masked_max_comm_rows(b, stack, CubeFamilyMode.FULL)
    for row, vals in zip(want, stack):
        loop = cell_loop_max_comm(b, GridFunction(g, vals))
        assert np.allclose(row, loop, rtol=1e-12, atol=1e-15)
    for cap in (None, 512):
        with monkeypatch.context() as patch:
            if cap is not None:
                patch.setattr(maxlip.operators, "STACK_BYTES_MAX", cap)
            for rows in range(1, 6):
                got = apply_stack(tag, g, stack[:rows], CubeFamilyMode.FULL)
                assert got.tobytes() == want[:rows].tobytes(), (cap, rows)


def test_line_max_commutator_temporaries_fit_the_cap(monkeypatch):
    # At N = 129 under a 2 KiB cap every block is one cell and every chunk
    # one row, and a rectangle is cut into runs of starts of at most 2 KiB.
    # Besides |f| and the output, the traced peak then holds a few such
    # temporaries, numpy's buffers for the strided operands and about 15 KB
    # of Python objects: 14 caps.  The middle cell's whole rectangle would
    # take 65 * 65 * 8 bytes, 16.5 caps, and numpy's buffers for it more:
    # 73 caps.
    import tracemalloc

    g = make_grid(1, 129)
    b = seeded_function(g, 12, -1.0, 1.0)
    stack = np.random.default_rng(12).uniform(-1.0, 1.0, (2,) + g.shape)
    cap, cells = 2048, np.arange(129)
    monkeypatch.setattr(maxlip.operators, "STACK_BYTES_MAX", cap)
    maxlip.operators._max_comm_line(b, stack, cells)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        maxlip.operators._max_comm_line(b, stack, cells)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * stack.nbytes + 24 * cap


@pytest.mark.parametrize("dim, n, mode", [
    (1, 1, CubeFamilyMode.FULL), (1, 2, CubeFamilyMode.FULL), (1, 13, CubeFamilyMode.FULL),
    (1, 32, CubeFamilyMode.FULL), (1, 13, CubeFamilyMode.DYADIC_SIDES),
    (2, 5, CubeFamilyMode.FULL), (2, 5, CubeFamilyMode.DYADIC_SIDES)])
@pytest.mark.parametrize("cap", [None, 512])
def test_max_commutator_at_cells_reads_max_commutator_bit_for_bit(monkeypatch, dim, n, mode, cap):
    g = Grid(dim, n, (0.0,) * dim, 1.0)
    rng = np.random.default_rng(10 * n + dim)
    b = GridFunction(g, rng.uniform(-1.0, 1.0, g.shape))
    if cap is not None:
        monkeypatch.setattr(maxlip.operators, "STACK_BYTES_MAX", cap)
    for kind in VALUE_KINDS:
        f = GridFunction(g, drawn_values(kind, rng, g.shape))
        full = max_commutator(b, f, mode).values
        for size in (0, 1, 3, 2 * n):
            # Random cells, repeats and negative indices included, read as numpy reads them.
            cells = [tuple(int(c) for c in rng.integers(-n, n, dim)) for _ in range(size)]
            got = max_commutator_at_cells(b, f, cells, mode)
            want = np.array([full[cell] for cell in cells], dtype=float)
            assert got.shape == (size,) and got.tobytes() == want.tobytes(), (kind, cells)
    with pytest.raises(IndexError):
        max_commutator_at_cells(b, f, [(n,) * dim], mode)
    with pytest.raises(ValueError, match="different grids"):
        max_commutator_at_cells(b, GridFunction(Grid(dim, n + 1, (0.0,) * dim, 1.0),
                                                np.ones((n + 1,) * dim)), [(0,) * dim], mode)


def test_max_commutator_at_cells_computes_only_its_cells_in_dim_1(monkeypatch):
    # Dim 1, full family: the listed cells' rectangles only, through the
    # same kernel as the whole grid; dim 2 reads off the whole grid.
    g = make_grid(1, 32)
    b, f = seeded_function(g, 13, -1.0, 1.0), seeded_function(g, 14, -1.0, 1.0)
    real, seen = maxlip.operators._max_comm_line, []

    def recorded(b, stack, cells):
        seen.append(list(cells))
        return real(b, stack, cells)

    monkeypatch.setattr(maxlip.operators, "_max_comm_line", recorded)
    max_commutator_at_cells(b, f, [(4,), (5,), (6,), (-1,)])
    assert seen == [[4, 5, 6, 31]]
    seen.clear()
    max_commutator_at_cells(b, f, [(4,)], CubeFamilyMode.DYADIC_SIDES)
    g2 = make_grid(2, 4)
    max_commutator_at_cells(seeded_function(g2, 1), seeded_function(g2, 2), [(1, 2)])
    assert seen == []


def test_naive_scatter_reads_one_cached_joined_index_per_family():
    joined = maxlip.operators._family_cells
    assert joined.cache_info().maxsize == 8
    for dim, n in ((1, 9), (2, 5)):
        cells = joined(n, dim)
        assert joined(n, dim) is cells and not cells.flags.writeable
        with pytest.raises(ValueError):
            cells[0] = 0
        rows = [maxlip.operators._cube_cells(n, dim, k) for k in range(1, n + 1)]
        assert np.array_equal(cells, np.concatenate(rows, axis=None))


def test_naive_oracles_equal_the_slice_loops_past_the_pairwise_block():
    # 2-D N=12: the largest cubes hold 144 cells, more than numpy's pairwise
    # summation block of 128, so a row sum splits the way its slice's does
    # only if each side's gathered rows are summed as they lie.  The
    # max-commutator cell loop is left out at this size.
    g = Grid(2, 12, (0.0, 0.0), 1.0)
    b = seeded_function(g, 42, -1.0, 1.0)
    rng = np.random.default_rng(12)
    for vals in (rng.uniform(-1.0, 1.0, g.shape), rng.integers(-2, 3, g.shape).astype(float),
                 rng.uniform(-3.0, -1.0, g.shape)):
        f = GridFunction(g, vals)
        for tag in _naive_tags(g, b):
            if tag.kind == "max_commutator":
                continue
            got = maxlip.operators._naive_apply(tag, f)
            assert np.array_equal(got, slice_loop_apply(tag, f)), tag.label


def test_family_rows_are_cached_read_only_offsets_into_the_joined_index():
    family_rows = maxlip.operators._family_rows
    assert family_rows.cache_info().maxsize == 8
    for dim, n in ((1, 1), (1, 9), (2, 5), (2, 12)):
        sides, counts = family_rows(n, dim)
        assert family_rows(n, dim)[1] is counts and not counts.flags.writeable
        with pytest.raises(ValueError):
            counts[0] = 0
        joined = maxlip.operators._family_cells(n, dim)
        cell_at = cube_at = 0
        for k, (cells, cubes) in enumerate(sides, 1):
            want = maxlip.operators._cube_cells(n, dim, k)
            assert (cells.start, cubes.start) == (cell_at, cube_at), k
            assert np.array_equal(joined[cells].reshape(want.shape), want), k
            assert cubes.stop - cubes.start == len(want) and (counts[cubes] == k**dim).all(), k
            cell_at, cube_at = cells.stop, cubes.stop
        assert (cell_at, cube_at) == (len(joined), len(counts))
    for n in range(2, 12):
        family_rows(n, 1)
    assert family_rows.cache_info().currsize == 8


def test_one_dim_adjacent_sides_fold_in_place(monkeypatch):
    # In dim 1 a step to a side one smaller folds the carried max into the
    # new side without _windowed_cell_max; only the final spread (width 1 in
    # a full family) calls it.  2-D steps and wider dyadic steps keep it.
    widths = []
    windowed = maxlip.operators._windowed_cell_max

    def counted(vals, k, dim):
        widths.append(k)
        return windowed(vals, k, dim)

    monkeypatch.setattr(maxlip.operators, "_windowed_cell_max", counted)
    g = make_grid(1, 32)
    rng = np.random.default_rng(5)
    stack = rng.uniform(-1.0, 1.0, (3,) + g.shape)
    b = GridFunction(g, stack[0])
    for tag in (OperatorTag.hl(), OperatorTag.sharp(), OperatorTag.fractional(0.5),
                OperatorTag.comm_m(b), OperatorTag.comm_sharp(b)):
        apply_stack(tag, g, stack)
    local_max(b, Cube((3,), 20))
    assert widths and set(widths) == {1}
    widths.clear()
    apply_stack(OperatorTag.hl(), g, stack, CubeFamilyMode.DYADIC_SIDES)
    assert widths == [17, 9, 5, 3, 1]  # sides 32, 16, 8, 4, 2 -> 1 folds, 1
    widths.clear()
    g2 = make_grid(2, 8)
    apply_stack(OperatorTag.sharp(), g2, rng.uniform(-1.0, 1.0, (2,) + g2.shape))
    local_max(GridFunction(g2, rng.uniform(-1.0, 1.0, g2.shape)), Cube((1, 2), 5))
    assert widths == [2] * 7 + [1] + [2] * 4 + [1]
