"""Holder seminorm and oscillation functionals, with pairwise brute force."""

import itertools
import math

import numpy as np
import pytest

import maxlip.operators
from maxlip import (
    Cube,
    CubeFamilyMode,
    GridFunction,
    LipResult,
    OperatorTag,
    cube_oscillation_rows,
    enumerate_cubes,
    lambda_sharp,
    lambda_star,
    lambda_var,
    lip_seminorm,
    make_grid,
    opnorm_lower,
    opnorm_lower_stacked,
    osc_norm_q,
    sample,
)

from conftest import affine_exponent, const_exponent, seeded_function


def brute_lip(b: GridFunction, beta: float) -> float:
    """All-pairs seminorm, no offset tricks."""
    centers = [b.grid.center_of(c) for c in np.ndindex(b.grid.shape)]
    vals = b.values.reshape(-1)
    best = 0.0
    for i, j in itertools.combinations(range(len(vals)), 2):
        dist = math.dist(centers[i], centers[j])
        best = max(best, abs(float(vals[i] - vals[j])) / dist**beta)
    return best


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
    dist = abs(g.center_of(x)[0] - g.center_of(y)[0])
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
    for bound in (opnorm_lower, opnorm_lower_stacked):
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
    bank = [seeded_function(g, 71 + s) for s in range(3)]
    expected = opnorm_lower(tag, p, q, bank, mode)
    if chunked:
        # Two rows per stack: the bank splits, and so does every side's indicators.
        monkeypatch.setattr(maxlip.operators, "STACK_BYTES_MAX", 2 * 8 * g.cell_count)
    assert opnorm_lower_stacked(tag, p, q, bank, mode) == expected


def test_result_float_protocol():
    g = make_grid(1, 8)
    res = lambda_var(seeded_function(g, 2), 0.5, const_exponent(g, 2.0))
    assert isinstance(res, LipResult)
    assert float(res) == res.value
