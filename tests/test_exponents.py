"""Exponent admissibility, conjugation, and pair construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxlip import (
    GridFunction,
    build_pair,
    conjugate,
    make_grid,
    sample,
    split_exponents,
    validate_p,
)

from maxlip.exponents import _log_holder

from conftest import affine_exponent, const_exponent


def test_validate_rejects_endpoint_one():
    g = make_grid(1, 4)
    with pytest.raises(ValueError, match=r"1 < p_-"):
        validate_p(sample(g, lambda x: 1.0))
    with pytest.raises(ValueError, match="class violation"):
        validate_p(sample(g, lambda x: 1.0 + x - x))


def test_validate_rejects_dip_below_one():
    g = make_grid(1, 8)
    vals = np.full(8, 2.0)
    vals[5] = 0.9
    with pytest.raises(ValueError):
        validate_p(GridFunction(g, vals))


def test_bounds_of_affine_exponent():
    g = make_grid(1, 4)
    p = affine_exponent(g, 2.0, 1.0)
    # Centers at 1/8, 3/8, 5/8, 7/8.
    assert p.p_minus == pytest.approx(2.125)
    assert p.p_plus == pytest.approx(2.875)
    assert not p.is_constant
    assert const_exponent(g, 3.0).is_constant


def test_conjugate_closed_forms():
    g = make_grid(1, 6)
    assert np.allclose(conjugate(const_exponent(g, 2.0)).values.values, 2.0)
    assert np.allclose(conjugate(const_exponent(g, 1.5)).values.values, 3.0)
    assert np.allclose(conjugate(const_exponent(g, 4.0)).values.values, 4.0 / 3.0)


def test_conjugate_is_cached_involution():
    g = make_grid(1, 8)
    p = affine_exponent(g, 1.5, 1.0)
    q = conjugate(p)
    assert conjugate(q) is p
    assert np.allclose(1.0 / p.values.values + 1.0 / q.values.values, 1.0, atol=1e-14)


def test_build_pair_constant_closed_form():
    g = make_grid(1, 8)
    pair = build_pair(const_exponent(g, 1.5), 0.5)
    # 1/q = 2/3 - 1/2 = 1/6.
    assert np.allclose(pair.q.values.values, 6.0, atol=1e-12)
    assert pair.beta == 0.5


def test_build_pair_requires_small_beta():
    g = make_grid(1, 8)
    with pytest.raises(ValueError, match="beta < dim/p_+"):
        build_pair(const_exponent(g, 2.0), 0.5)
    with pytest.raises(ValueError, match="beta < dim/p_+"):
        build_pair(const_exponent(g, 2.0), 0.6)


def test_build_pair_identity_residual():
    g = make_grid(1, 32)
    p = validate_p(sample(g, lambda x: 1.2 + 0.5 * x))
    pair = build_pair(p, 0.25)
    resid = np.abs(1.0 / pair.q.values.values - (1.0 / p.values.values - 0.25))
    assert float(resid.max()) <= 1e-12


def test_build_pair_dim2():
    g = make_grid(2, 8)
    p = validate_p(sample(g, lambda x, y: 2.0 + 0.5 * x + 0.25 * y))
    pair = build_pair(p, 0.5)
    resid = np.abs(1.0 / pair.q.values.values - (1.0 / p.values.values - 0.25))
    assert float(resid.max()) <= 1e-12


def test_split_exponents_threshold():
    g = make_grid(1, 8)
    q = const_exponent(g, 3.0)
    # dim/(dim - beta) = 2 at beta = 1/2; r must exceed it strictly.
    with pytest.raises(ValueError, match="needs r >"):
        split_exponents(q, 0.5, 2.0)
    q0, rq, p0 = split_exponents(q, 0.5, 3.0)
    assert np.allclose(q0.values.values, 9.0)
    assert np.allclose(rq.values.values, 4.5)
    assert np.allclose(p0.values.values, 18.0 / 11.0, atol=1e-12)


def test_split_consistent_with_pair():
    g = make_grid(1, 16)
    q = affine_exponent(g, 2.0, 1.0)
    q0, _, p0 = split_exponents(q, 0.5, 3.0)
    rebuilt = build_pair(p0, 0.5)
    assert np.allclose(rebuilt.q.values.values, q0.values.values, atol=1e-12)


def test_log_holder_constant_and_flag():
    g = make_grid(1, 64)
    assert const_exponent(g, 2.0).log_holder_const == 0.0
    p = affine_exponent(g, 2.0, 1.0)
    assert p.log_holder_exact
    assert p.log_holder_const > 0.0
    big = make_grid(2, 80)
    q = validate_p(sample(big, lambda x, y: 2.0 + 0.5 * x))
    assert not q.log_holder_exact


def test_constant_exponent_skips_the_pair_sweep():
    # The short cut returns what the exact pair sweep would, without running it.
    for g in (make_grid(1, 2), make_grid(1, 17), make_grid(2, 3), make_grid(2, 9)):
        for value in (1.5, 2.0, 7.25):
            field = sample(g, lambda *xy: value)
            p = validate_p(field)
            assert (p.log_holder_const, p.log_holder_exact) == _log_holder(field)
            assert p.log_holder_const == 0.0 and p.log_holder_exact
    big = make_grid(2, 80)
    assert validate_p(sample(big, lambda *xy: 3.0)).log_holder_exact


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    lo=st.floats(min_value=1.05, max_value=3.0),
)
def test_conjugate_pointwise_identity(seed, lo):
    g = make_grid(1, 12)
    rng = np.random.default_rng(seed)
    p = validate_p(GridFunction(g, rng.uniform(lo, lo + 2.0, g.shape)))
    q = conjugate(p)
    assert np.allclose(
        p.values.values * q.values.values,
        p.values.values + q.values.values,
        rtol=1e-12,
    )
