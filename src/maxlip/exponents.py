"""Variable exponents on a grid: admissibility, conjugation, pair building.

An exponent field p(.) is admissible when 1 < p_- <= p_+ < infinity over
the cell centers.  A discrete log-Holder modulus is reported alongside as a
diagnostic: max over cell-center pairs of |p(x) - p(y)| * log(e + 1/|x-y|).
It is one score of the cell-pair sweep in ``sweep``: exact on small grids,
from a seeded pair sample on large ones, with the choice flagged; a constant
field has modulus 0 exactly and skips the sweep.  The score is increasing in
the difference, as the sweep requires: it bounds each offset by the score of
min(range, sum of |o_a| times the largest step along axis a) and evaluates
offsets in descending order of that bound only until the bound falls below
the best modulus found.  A smooth exponent (affine, say) stops after a few
offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, GridFunction
from .sweep import pair_sweep

__all__ = [
    "VariableExponent",
    "ExponentPair",
    "validate_p",
    "conjugate",
    "build_pair",
    "split_exponents",
]


@dataclass
class VariableExponent:
    """Validated exponent field with cached bounds and diagnostics."""

    values: GridFunction
    p_minus: float
    p_plus: float
    log_holder_const: float
    log_holder_exact: bool
    _conjugate: "VariableExponent | None" = field(default=None, repr=False, compare=False)

    @property
    def grid(self) -> Grid:
        return self.values.grid

    @property
    def is_constant(self) -> bool:
        return self.p_minus == self.p_plus


def _log_holder_score(diff, dist):
    # math.log on the exact sweep's floats and np.log on the sample's arrays:
    # the two differ in the last bit on some distances.
    log = np.log if isinstance(dist, np.ndarray) else math.log
    return diff * log(math.e + 1.0 / dist)


def _log_holder(values: GridFunction) -> tuple[float, bool]:
    value, _, exact = pair_sweep(values, _log_holder_score)
    return value, exact


def validate_p(p: GridFunction) -> VariableExponent:
    """Admit an exponent field, rejecting p_- <= 1 with the cell named."""
    v = p.values
    p_minus = float(v.min())
    p_plus = float(v.max())
    if p_minus <= 1.0:
        bad = np.argwhere(v <= 1.0)[0]
        cell = tuple(int(i) for i in bad)
        raise ValueError(
            f"exponent class violation: admissibility requires 1 < p_-, "
            f"got p({cell}) = {v[tuple(bad)]:g}"
        )
    if not np.isfinite(p_plus):
        raise ValueError("exponent class violation: p_+ must be finite")
    if p_minus == p_plus:
        # Every pair difference vanishes, so the modulus is exactly 0.
        return VariableExponent(p, p_minus, p_plus, 0.0, True)
    const, exact = _log_holder(p)
    return VariableExponent(p, p_minus, p_plus, const, exact)


def conjugate(p: VariableExponent) -> VariableExponent:
    """Pointwise conjugate p'(x) = p(x)/(p(x)-1); an involution."""
    if p._conjugate is None:
        vals = p.values.values
        conj = validate_p(p.values.with_values(vals / (vals - 1.0)))
        conj._conjugate = p
        p._conjugate = conj
    return p._conjugate


@dataclass(frozen=True)
class ExponentPair:
    """Pair (p, q) coupled by 1/q = 1/p - beta/dim on every cell."""

    p: VariableExponent
    q: VariableExponent
    beta: float


def build_pair(p: VariableExponent, beta: float) -> ExponentPair:
    """Derive q from p via 1/q(x) = 1/p(x) - beta/dim.

    Requires 0 < beta < dim/p_+ so that q stays finite, and checks the
    induced lower bound q_- (dim - beta)/dim > 1 which the recovered
    exponent pair relies on.
    """
    dim = p.grid.dim
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if beta >= dim / p.p_plus:
        raise ValueError(
            f"pair construction needs beta < dim/p_+ = {dim / p.p_plus:g}, got beta = {beta:g}"
        )
    pv = p.values.values
    qv = dim * pv / (dim - beta * pv)
    q = validate_p(p.values.with_values(qv))
    resid = np.max(np.abs(1.0 / qv - (1.0 / pv - beta / dim)))
    if resid > 1e-12:
        raise AssertionError(f"pair identity drift {resid:g} exceeds 1e-12")
    q0_check = q.p_minus * (dim - beta) / dim
    if q0_check <= 1.0:
        raise ValueError(
            f"recovered exponent q_-(dim-beta)/dim = {q0_check:g} must exceed 1"
        )
    return ExponentPair(p, q, float(beta))


def split_exponents(
    q: VariableExponent, beta: float, r: float
) -> tuple[VariableExponent, VariableExponent, VariableExponent]:
    """Split q for the norm-product argument: returns (q0, r'q, p0).

    q0 = r q and r' q with 1/r + 1/r' = 1 give the two Holder factors,
    and p0 solves 1/p0 = 1/q0 + beta/dim.  Requires r > dim/(dim - beta)
    strictly, which keeps p0 admissible.
    """
    dim = q.grid.dim
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    threshold = dim / (dim - beta)
    if not r > threshold:
        raise ValueError(f"splitting needs r > dim/(dim-beta) = {threshold:g}, got r = {r:g}")
    r_prime = r / (r - 1.0)
    qv = q.values.values
    q0 = validate_p(q.values.with_values(r * qv))
    r_conj_q = validate_p(q.values.with_values(r_prime * qv))
    p0_vals = 1.0 / (1.0 / (r * qv) + beta / dim)
    p0 = validate_p(q.values.with_values(p0_vals))
    return q0, r_conj_q, p0
