"""Grid, cube family, and integration tests against hand-counted oracles."""

import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlip import (
    Cube,
    CubeFamilyMode,
    GridFunction,
    check_cube,
    cube_rows,
    cubes_by_side,
    enumerate_cubes,
    family_sides,
    indicator,
    make_grid,
    read_gridfunction_csv,
    sample,
    window_sums,
    write_gridfunction_csv,
)
from maxlip.grid import write_cells_csv

from conftest import cell_center, fsum_integral, seeded_function


def integral(f: GridFunction, cube: Cube) -> float:
    """Integral over the cube: its window_sums entry times the cell measure."""
    return float(window_sums(f, cube.side_cells)[cube.start]) * f.grid.cell_measure


def brute_cubes(n: int, dim: int, sides) -> list[Cube]:
    """Independent cube enumeration by direct triple loop."""
    out = []
    for k in sides:
        if dim == 1:
            out.extend(Cube((s,), k) for s in range(n - k + 1))
        else:
            out.extend(
                Cube((i, j), k) for i in range(n - k + 1) for j in range(n - k + 1)
            )
    return out


def test_make_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_grid(3, 8)
    with pytest.raises(ValueError):
        make_grid(1, 1)
    with pytest.raises(ValueError):
        make_grid(1, 8, box_side=0.0)
    with pytest.raises(ValueError):
        make_grid(2, 8, box_origin=(0.0,))


def test_cell_centers_match_convention():
    g = make_grid(1, 4)
    assert g.spacing == 0.25
    assert np.allclose(g.centers(0), [0.125, 0.375, 0.625, 0.875])
    g2 = make_grid(2, 2, box_origin=(1.0, -1.0), box_side=2.0)
    assert g2.cell_measure == 1.0
    assert cell_center(g2, (0, 1)) == (1.5, 0.5)


def test_family_sides():
    assert family_sides(10, CubeFamilyMode.FULL) == list(range(1, 11))
    assert family_sides(10, CubeFamilyMode.DYADIC_SIDES) == [1, 2, 4, 8]
    assert family_sides(16, CubeFamilyMode.DYADIC_SIDES) == [1, 2, 4, 8, 16]


def test_enumerate_cube_counts_against_brute_force():
    g = make_grid(1, 4)
    full = enumerate_cubes(g, CubeFamilyMode.FULL)
    assert len(full) == 10
    assert set(full) == set(brute_cubes(4, 1, range(1, 5)))
    dyadic = enumerate_cubes(g, CubeFamilyMode.DYADIC_SIDES)
    assert len(dyadic) == 8
    g2 = make_grid(2, 2)
    assert len(enumerate_cubes(g2, CubeFamilyMode.FULL)) == 5


def test_enumeration_order_is_ascending_side_then_start():
    g = make_grid(1, 4)
    cubes = enumerate_cubes(g, CubeFamilyMode.FULL)
    keys = [(c.side_cells, c.start) for c in cubes]
    assert keys == sorted(keys)


def test_check_cube_rejects_overflow():
    g = make_grid(1, 8)
    check_cube(g, Cube((6,), 2))
    with pytest.raises(ValueError):
        check_cube(g, Cube((7,), 2))
    with pytest.raises(ValueError):
        check_cube(g, Cube((0, 0), 2))


def test_integrate_matches_fsum_oracle():
    for seed in range(20):
        g = make_grid(1, 31) if seed % 2 else make_grid(2, 7)
        whole = Cube((0,) * g.dim, g.cells_per_axis)
        f = seeded_function(g, seed, -5.0, 5.0)
        assert integral(f, whole) == pytest.approx(fsum_integral(f), rel=1e-13, abs=1e-15)


def test_integrate_additive_over_partition():
    g = make_grid(2, 6)
    f = seeded_function(g, 3)
    total = sum(
        integral(f, Cube((i, j), 2)) for i in (0, 2, 4) for j in (0, 2, 4)
    )
    assert total == pytest.approx(integral(f, Cube((0, 0), 6)), rel=1e-12)


def test_indicator_and_measure():
    g = make_grid(2, 4)
    q = Cube((1, 1), 2)
    chi = indicator(g, q)
    assert set(np.unique(chi.values)) == {0.0, 1.0}
    assert integral(chi, Cube((0, 0), 4)) == pytest.approx(q.measure(g), rel=1e-14)
    assert q.measure(g) == pytest.approx((2 * g.spacing) ** 2)


def test_window_sums_against_slices():
    g = make_grid(1, 12)
    f = seeded_function(g, 11)
    for k in range(1, 13):
        expected = [float(f.values[s:s + k].sum()) for s in range(12 - k + 1)]
        assert np.allclose(window_sums(f, k), expected, atol=1e-12)
    g2 = make_grid(2, 5)
    f2 = seeded_function(g2, 12)
    for k in (1, 2, 3, 5):
        got = window_sums(f2, k)
        for i in range(5 - k + 1):
            for j in range(5 - k + 1):
                assert got[i, j] == pytest.approx(
                    float(f2.values[i:i + k, j:j + k].sum()), abs=1e-12
                )


def test_gridfunction_arithmetic():
    g = make_grid(1, 4)
    f = sample(g, lambda x: x)
    h = sample(g, lambda x: 1.0 - x)
    assert np.allclose((f + h).values, 1.0)
    assert np.allclose((f - f).values, 0.0)
    assert np.allclose((2.0 * f).values, (f + f).values)
    assert np.allclose(abs(-f).values, f.values)
    with pytest.raises(ValueError):
        f + sample(make_grid(1, 5), lambda x: x)


def test_csv_round_trip(tmp_path):
    for g in (make_grid(1, 9), make_grid(2, 4)):
        f = seeded_function(g, 21, -3.0, 3.0)
        path = tmp_path / f"dump{g.dim}.csv"
        write_gridfunction_csv(f, path)
        back = read_gridfunction_csv(path, g)
        assert np.array_equal(back.values, f.values)


def reference_cells_csv(values: np.ndarray, path, start=(0, 0)) -> None:
    """The csv.writer form of a cell dump: one row [*cell, f"{v:.17g}"] per cell."""
    cells = itertools.product(*(range(s, s + m) for s, m in zip(start, values.shape)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "value"] if values.ndim == 1 else ["i", "j", "value"])
        writer.writerows([*cell, f"{v:.17g}"]
                         for cell, v in zip(cells, values.reshape(-1).tolist()))


def test_cells_csv_bytes_equal_the_csv_writer(tmp_path):
    odd = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 1.0 / 3.0, 0.1, 7.0]
    cases = [
        (np.array(odd), (0, 0)),
        (np.array(odd), (5, 0)),
        (np.random.default_rng(3).standard_normal(64), (0, 0)),
        (np.array(odd).reshape(3, 3), (0, 0)),
        (np.array(odd).reshape(3, 3), (2, 7)),
        (np.random.default_rng(4).uniform(-1e300, 1e300, (4, 6)), (1, 0)),
    ]
    for i, (values, start) in enumerate(cases):
        got, want = tmp_path / f"got{i}.csv", tmp_path / f"want{i}.csv"
        write_cells_csv(values, got, start)
        reference_cells_csv(values, want, start)
        assert got.read_bytes() == want.read_bytes(), (values.shape, start)
    assert b"\r\n" in got.read_bytes()


def test_csv_missing_cell_rejected(tmp_path):
    g = make_grid(1, 4)
    path = tmp_path / "short.csv"
    path.write_text("index,value\n0,1.0\n1,1.0\n")
    with pytest.raises(ValueError, match="missing"):
        read_gridfunction_csv(path, g)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=24),
    seed=st.integers(min_value=0, max_value=999),
    a=st.floats(min_value=-4.0, max_value=4.0, allow_nan=False),
)
def test_integrate_is_linear(n, seed, a):
    g = make_grid(1, n)
    whole = Cube((0,), n)
    f = seeded_function(g, seed)
    h = seeded_function(g, seed + 1)
    lhs = integral(a * f + h, whole)
    rhs = a * integral(f, whole) + integral(h, whole)
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=16))
def test_every_family_cube_fits(n):
    g = make_grid(2, n)
    for cube in enumerate_cubes(g, CubeFamilyMode.FULL):
        check_cube(g, cube)
        assert 1 <= cube.side_cells <= n
    for cube in enumerate_cubes(g, CubeFamilyMode.DYADIC_SIDES):
        assert cube.side_cells & (cube.side_cells - 1) == 0


@pytest.mark.parametrize("dim, n", [(1, 2), (1, 9), (2, 2), (2, 6)])
@pytest.mark.parametrize("mode", [CubeFamilyMode.FULL, CubeFamilyMode.DYADIC_SIDES])
def test_cube_rows_follow_the_enumeration(dim, n, mode):
    g = make_grid(dim, n)
    values = seeded_function(g, 7).values * 1e3
    runs = cubes_by_side(g, mode)
    assert [k for k, _ in runs] == family_sides(g.cells_per_axis, mode)
    assert tuple(c for _, side in runs for c in side) == enumerate_cubes(g, mode)
    for k, side in runs:
        rows = cube_rows(values, k)
        assert rows.shape == (len(side), k**dim) and rows.flags.c_contiguous
        for cube, row in zip(side, rows):
            block = values[cube.slices()]
            assert np.array_equal(row, block.reshape(-1))
            assert row.sum() == block.sum()
