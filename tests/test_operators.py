"""Maximal operators and commutators against naive oracles and hand counts."""

import itertools

import numpy as np
import pytest

import maxlip.operators
from maxlip import (
    Cube,
    CubeFamilyMode,
    GridFunction,
    OperatorTag,
    apply_operator,
    apply_stack,
    comm_m,
    comm_sharp,
    cubes_containing,
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


def test_oracle_guard_messages():
    g = make_grid(1, 65)
    f = seeded_function(g, 0)
    with pytest.raises(ValueError, match=r"oracle guard: N = 65 exceeds 64 for dim 1"):
        oracle_check(OperatorTag.hl(), f)
    g2 = make_grid(2, 17)
    with pytest.raises(ValueError, match=r"exceeds 16 for dim 2"):
        oracle_check(OperatorTag.hl(), seeded_function(g2, 0))


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
    # oracle_check only runs the full family; hold the start-range mask of
    # the all-cells kernel against the dyadic cubes holding each cell.
    for dim, n in ((1, 13), (2, 7)):
        g = make_grid(dim, n)
        b = seeded_function(g, 80, -1.0, 1.0)
        f = seeded_function(g, 81, -1.0, 1.0)
        expected = np.zeros(g.shape)
        for cell in np.ndindex(g.shape):
            for cube in cubes_containing(g, cell, CubeFamilyMode.DYADIC_SIDES):
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


def test_indicator_stacks_split_by_side_and_cap(monkeypatch):
    g = make_grid(2, 5)
    cubes = enumerate_cubes(g, CubeFamilyMode.FULL)
    monkeypatch.setattr(maxlip.operators, "STACK_BYTES_MAX", 3 * 8 * g.cell_count)
    seen = []
    for group, stack in indicator_stacks(g, cubes):
        assert 1 <= len(group) <= 3 and len({c.side_cells for c in group}) == 1
        for cube, chi in zip(group, stack):
            assert np.array_equal(chi, indicator(g, cube).values)
        seen.extend(group)
    assert tuple(seen) == cubes


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
