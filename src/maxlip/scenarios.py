"""Named verification scenarios assembled into reports.

Each scenario builds its function and exponent banks first, so a malformed
spec is rejected before any sweep runs, then computes its check rows in a
fixed order; a report is deterministic up to its timestamp.  A swept row
reports the worst case of its sweep with the witness attaining it
(``sweep.Worst``), and a sweep that saw nothing emits no row.

Hard rows (pass/fail) correspond to relations that hold exactly in this
discrete setting, with explicit constants.  Boundedness-flavored
quantities whose sharp constants are not pinned down here are emitted as
monitored rows instead.
"""

from __future__ import annotations

import itertools
from typing import Callable

import numpy as np

from .catalog import (
    ConfigError,
    build_exponent,
    build_function,
    exponent_label,
    function_label,
)
from .config import ScenarioConfig, parse_config
from .exponents import (
    ExponentPair,
    VariableExponent,
    build_pair,
    conjugate,
    split_exponents,
    validate_p,
)
from .grid import (
    Cube,
    CubeFamilyMode,
    Grid,
    GridFunction,
    average,
    enumerate_cubes,
    family_sides,
)
from .lipschitz import (
    LipResult,
    lambda_sharp,
    lambda_star,
    lambda_var,
    lip_seminorm,
    opnorm_lower_stacked,
    osc_norm_q,
)
from .luxemburg import (
    _lux_solve_batch,
    check_s_norm,
    embedding_bound,
    holder_constant,
    holder_defect,
    lux_norm,
    modular,
)
from .operators import (
    OperatorTag,
    apply_stack,
    comm_m,
    comm_sharp,
    cube_blocks,
    frac_max,
    indicator_stacks,
    local_max_sweep,
    max_commutator,
)
from .report import Check, Report, check_eq, check_ge, check_le, new_report, report_row
from .sweep import Worst

# Sharp-sweep cost grows with the square of the cube count, so the
# per-cube sharp functional is only swept on grids up to these sizes.
_SHARP_SWEEP_MAX = {1: 64, 2: 16}


def _bank(grid: Grid, specs: list[dict], build, label_of) -> list[tuple[str, object]]:
    """Build every spec, labelled uniquely; a spec is labelled only once it built."""
    out = []
    seen: dict[str, int] = {}
    for spec in specs:
        item = build(grid, spec)
        label = label_of(spec)
        count = seen.get(label, 0) + 1
        seen[label] = count
        if count > 1:
            label = f"{label}#{count}"
        out.append((label, item))
    return out


def _function_bank(grid: Grid, specs: list[dict]) -> list[tuple[str, GridFunction]]:
    return _bank(grid, specs, build_function, function_label)


def _operand_bank(cfg: ScenarioConfig, grid: Grid) -> list[tuple[str, GridFunction]]:
    """The f bank of theorem1-3, whose operator-norm bounds divide by ||f||_p."""
    fs = _function_bank(grid, cfg.functions_f)
    for label, f in fs:
        if not np.any(f.values):
            raise ConfigError(f"functions.f: {label} is the zero function, which has no "
                              "operator-norm ratio")
    return fs


def _exponent_bank(grid: Grid, specs: list[dict]) -> list[tuple[str, VariableExponent]]:
    return _bank(grid, specs, build_exponent, exponent_label)


def _pair_bank(cfg: ScenarioConfig, grid: Grid) -> list[tuple[str, ExponentPair]]:
    out = []
    for label, p in _exponent_bank(grid, cfg.pair_exponents):
        try:
            out.append((label, build_pair(p, cfg.beta)))
        except ValueError as exc:
            raise ConfigError(
                f"pair exponent {label} is incompatible with beta = {cfg.beta:g}: {exc}"
            ) from exc
    return out


def _dim_factor(dim: int, beta: float) -> float:
    return float(dim) ** (beta / 2.0)


def _indicator_norms(
    grid: Grid, q: VariableExponent, cubes: tuple[Cube, ...]
) -> dict[Cube, float]:
    """Luxemburg norm of every cube indicator, batched by cube side."""
    by_side: dict[int, list[Cube]] = {}
    for cube in cubes:
        by_side.setdefault(cube.side_cells, []).append(cube)
    qv = q.values.values
    out: dict[Cube, float] = {}
    for group in by_side.values():
        rows = np.stack([qv[c.slices()].reshape(-1) for c in group])
        norms = _lux_solve_batch(np.ones_like(rows), rows, grid.cell_measure)
        for cube, val in zip(group, norms):
            out[cube] = float(val)
    return out


def _half_overlap_eligible(grid: Grid, cube: Cube) -> bool:
    """Whether a family cube exists with exactly half its cells inside Q,
    reachable from every cell of Q."""
    n = grid.cells_per_axis
    k = cube.side_cells
    if grid.dim == 1:
        return 2 * k <= n
    if k % 2:
        return False
    half = k // 2
    for axis in range(2):
        s = cube.start[axis]
        if s >= half and s + k + half <= n:
            return True
    return False


def _containing_cube(grid: Grid, cube: Cube, mode: CubeFamilyMode) -> Cube | None:
    """Smallest family cube strictly containing the given one, if any."""
    n = grid.cells_per_axis
    k = cube.side_cells
    for m in family_sides(n, mode):
        if m <= k:
            continue
        start = tuple(max(0, s + k - m) for s in cube.start)
        return Cube(start, m)
    return None


def _local_max_by_cube(b: GridFunction, mode: CubeFamilyMode):
    """(cube, local_max(b, cube)) for every family cube, in enumeration order."""
    dim = b.grid.dim
    for k, levels in local_max_sweep(b, family_sides(b.grid.cells_per_axis, mode)):
        for start in np.ndindex(levels.shape[:dim]):
            yield Cube(start, k), levels[start]


# ---------------------------------------------------------------------------
# identities: exact pointwise identities for indicators and localized symbols.


def _identities(cfg: ScenarioConfig) -> list[Check]:
    grid = cfg.build_grid()
    mode = cfg.cube_family
    tol = cfg.tolerances.identity_tol
    beta = cfg.beta
    cubes = enumerate_cubes(grid, mode)
    bs = _function_bank(grid, cfg.functions_b)

    dev_hl, top_hl, dev_sharp, top_sharp, dev_frac, excess_frac = (Worst() for _ in range(6))
    tags = (OperatorTag.hl(), OperatorTag.sharp(), OperatorTag.fractional(beta))
    for group, chis in indicator_stacks(grid, cubes):
        target = group[0].side_length(grid) ** beta
        outs = [apply_stack(tag, grid, chis, mode) for tag in tags]
        top_m, top_s, top_fr = (out.reshape(len(group), -1).max(axis=1) for out in outs)
        on_m, on_s, on_fr = (cube_blocks(out, group) for out in outs)
        dev_m = np.abs(on_m - 1.0).max(axis=1)
        dev_s = np.abs(on_s - 0.5).max(axis=1)
        dev_fr = np.abs(on_fr - target).max(axis=1)
        for r, cube in enumerate(group):
            dev_hl.offer(float(dev_m[r]), cube)
            top_hl.offer(float(top_m[r]), cube)
            top_sharp.offer(float(top_s[r]), cube)
            if _half_overlap_eligible(grid, cube):
                dev_sharp.offer(float(dev_s[r]), cube)
            dev_frac.offer(float(dev_fr[r]), cube)
            excess_frac.offer(float(top_fr[r]) - target, cube)

    rows = [
        check_eq("identities/hl-on-cube", "M(chi_Q) = 1 on Q", dev_hl.value, 0.0, tol,
                 {"cube": dev_hl.witness}),
        check_le("identities/hl-bound", "M(chi_Q) <= 1 everywhere", top_hl.value, 1.0, tol,
                 {"cube": top_hl.witness}),
    ]
    if dev_sharp.count:
        rows.append(check_eq(
            "identities/sharp-on-cube",
            "M#(chi_Q) = 1/2 on Q when a half-overlap cube exists",
            dev_sharp.value, 0.0, tol,
            {"cube": dev_sharp.witness, "eligible_cubes": dev_sharp.count},
        ))
    rows += [
        check_le("identities/sharp-bound", "M#(chi_Q) <= 1/2 everywhere", top_sharp.value,
                 0.5, tol, {"cube": top_sharp.witness}),
        check_eq("identities/frac-on-cube", "M_beta(chi_Q) = |Q|^{beta/dim} on Q",
                 dev_frac.value, 0.0, tol, {"cube": dev_frac.witness}),
        check_le("identities/frac-bound", "M_beta(chi_Q) <= |Q|^{beta/dim} everywhere",
                 excess_frac.value, 0.0, tol, {"cube": excess_frac.witness}),
    ]

    for label, b in bs:
        local = Worst()
        locs = _local_max_by_cube(b, mode)
        for group, chis in indicator_stacks(grid, cubes):
            full = apply_stack(OperatorTag.hl(), grid, b.values * chis, CubeFamilyMode.FULL)
            # The group's rows come first, so zip never draws the next group's cube.
            for row, (cube, loc) in zip(cube_blocks(full, group), locs):
                local.offer(float(np.max(np.abs(row - loc.reshape(-1)))), cube)
        rows.append(check_eq(
            f"identities/local-on-cube/{label}",
            "M(b chi_Q) = M_Q(b) on Q for the full family",
            local.value, 0.0, tol, {"cube": local.witness},
        ))

        split = Worst()
        for cube in cubes:
            block = b.values[cube.slices()]
            bq = average(b, cube)
            below = float(np.sum(np.where(block <= bq, bq - block, 0.0)))
            half = 0.5 * float(np.sum(np.abs(block - bq)))
            split.offer(abs(below - half), cube)
        rows.append(check_eq(
            f"identities/median-split/{label}",
            "sum over Q of (b - b_Q) splits evenly around the average",
            split.value, 0.0, tol, {"cube": split.witness},
        ))
    return rows


# ---------------------------------------------------------------------------
# lemmas: norm-level machinery with explicit constants.


def _lemmas(cfg: ScenarioConfig) -> list[Check]:
    grid = cfg.build_grid()
    mode = cfg.cube_family
    tol = cfg.tolerances.identity_tol
    beta = cfg.beta
    dim = grid.dim
    cubes = enumerate_cubes(grid, mode)
    # No lemma uses b; its bank is built so that a bad spec is rejected here too.
    _function_bank(grid, cfg.functions_b)
    fs = _function_bank(grid, cfg.functions_f)
    qs = _exponent_bank(grid, cfg.exponents)
    pairs = _pair_bank(cfg, grid)

    def lux(lq: str, q: VariableExponent) -> list[Check]:
        mod, hom = Worst(), Worst()
        for lf, f in fs:
            lam = lux_norm(f, q).value
            if lam == 0.0:
                continue
            mod.offer(abs(modular(f * (1.0 / lam), q) - 1.0), lf)
            hom.offer(abs(lux_norm(2.0 * f, q).value - 2.0 * lam) / lam, lf)
        if not mod.count:
            return []
        return [
            check_eq(f"lemmas/unit-modular/{lq}", "modular at the norm equals one",
                     mod.value, 0.0, max(tol, 1e-10), {"f": mod.witness}),
            check_eq(f"lemmas/homogeneity/{lq}", "||2f||_q = 2 ||f||_q",
                     hom.value, 0.0, max(tol, 1e-10), {"f": hom.witness}),
        ]

    def holder(lq: str, q: VariableExponent) -> list[Check]:
        worst = Worst(lowest=True)
        for i, (lf, f) in enumerate(fs):
            for lg, g in fs[i:]:
                worst.offer(holder_defect(f, g, q), (lf, lg))
        if not worst.count:
            return []
        return [check_ge(
            f"lemmas/holder/{lq}",
            "integral of |f g| <= (1 + 1/p_- - 1/p_+) ||f||_p ||g||_{p'}",
            worst.value, 0.0, tol, {"pair": worst.witness},
        )]

    def snorm(lq: str, q: VariableExponent) -> list[Check]:
        worst = Worst()
        for s in (0.5, 1.0, 1.5, 2.0):
            if s * q.p_minus < 1.0:
                continue
            for lf, f in fs:
                worst.offer(check_s_norm(f, q, s), {"f": lf, "s": s})
        if not worst.count:
            return []
        return [check_eq(f"lemmas/s-norm/{lq}", "|| |f|^s ||_p = ||f||^s_{s p}",
                         worst.value, 0.0, tol, worst.witness)]

    def duality(lq: str, q: VariableExponent, base: dict[Cube, float]) -> list[Check]:
        low, top = Worst(lowest=True), Worst()
        dual = _indicator_norms(grid, conjugate(q), cubes)
        for cube in cubes:
            prod = base[cube] * dual[cube] / cube.measure(grid)
            low.offer(prod, cube)
            top.offer(prod, cube)
        if q.is_constant:
            return [check_eq(
                f"lemmas/duality/{lq}",
                "(1/|Q|) ||chi_Q||_q ||chi_Q||_{q'} = 1 for constant q",
                max(abs(low.value - 1.0), abs(top.value - 1.0)), 0.0, tol,
                {"cube": top.witness},
            )]
        return [
            check_ge(
                f"lemmas/duality-lower/{lq}",
                "(1/|Q|) ||chi_Q||_q ||chi_Q||_{q'} >= 1/(1 + 1/q_- - 1/q_+)",
                low.value, 1.0 / holder_constant(q), tol, {"cube": low.witness},
            ),
            report_row(
                f"lemmas/duality-top/{lq}",
                "largest normalized duality product over the family",
                top.value, 1.0, {"cube": top.witness},
            ),
        ]

    def embedding(lp: str, pair: ExponentPair) -> list[Check]:
        bound = embedding_bound(pair)
        top = Worst()
        num = _indicator_norms(grid, pair.p, cubes)
        den = _indicator_norms(grid, pair.q, cubes)
        for cube in cubes:
            top.offer(num[cube] / (cube.measure(grid) ** (pair.beta / dim) * den[cube]), cube)
        rows = [check_le(
            f"lemmas/embedding/{lp}",
            "||chi_Q||_p <= C |Q|^{beta/dim} ||chi_Q||_q with derived C",
            top.value, bound, tol, {"cube": top.witness, "bound": bound},
        )]
        if pair.p.is_constant:
            rows.append(check_eq(
                f"lemmas/embedding-const/{lp}",
                "||chi_Q||_p = |Q|^{beta/dim} ||chi_Q||_q for constant pairs",
                abs(top.value - 1.0), 0.0, tol, {"cube": top.witness},
            ))
        return rows

    def split(lq: str, q: VariableExponent, base: dict[Cube, float]) -> list[Check]:
        rows = []
        qv = q.values.values
        for r in (2.0, 3.0):
            rp = r / (r - 1.0)
            q_r = validate_p(q.values.with_values(r * qv))
            q_rp = validate_p(q.values.with_values(rp * qv))
            big = _indicator_norms(grid, q_r, cubes)
            small = _indicator_norms(grid, q_rp, cubes)
            power, product, gap = Worst(), Worst(), Worst()
            for cube in cubes:
                power.offer(abs(big[cube] - base[cube] ** (1.0 / r)), cube)
                product.offer(abs(big[cube] * small[cube] - base[cube]), cube)
            for i, (lf, f) in enumerate(fs):
                for lg, g in fs[i:]:
                    gap.offer(lux_norm(f * g, q).value
                              - lux_norm(f, q_r).value * lux_norm(g, q_rp).value, (lf, lg))
            rows.extend([
                check_eq(f"lemmas/split-power/{lq}/r{r:g}",
                         "||chi_Q||_{r q} = ||chi_Q||_q^{1/r}",
                         power.value, 0.0, tol, {"cube": power.witness}),
                check_eq(f"lemmas/split-product/{lq}/r{r:g}",
                         "||chi_Q||_{r q} ||chi_Q||_{r' q} = ||chi_Q||_q",
                         product.value, 0.0, tol, {"cube": product.witness}),
            ])
            if gap.count:
                rows.append(check_le(f"lemmas/split-holder/{lq}/r{r:g}",
                                     "||f g||_q <= ||f||_{r q} ||g||_{r' q}",
                                     gap.value, 0.0, tol, {"pair": gap.witness}))
        r_split = dim / (dim - beta) + 1.0
        q0, _, p0 = split_exponents(q, beta, r_split)
        rebuilt = build_pair(p0, beta)
        dev = float(np.max(np.abs(rebuilt.q.values.values - q0.values.values)))
        rows.append(check_eq(
            f"lemmas/split-consistency/{lq}",
            "exponent split is consistent with the pair construction",
            dev, 0.0, tol, {"r": r_split},
        ))
        return rows

    rows: list[Check] = []
    for lq, q in qs:
        rows += lux(lq, q)
        rows += holder(lq, q)
        rows += snorm(lq, q)
        base = _indicator_norms(grid, q, cubes)
        rows += duality(lq, q, base)
        rows += split(lq, q, base)
        rows.append(report_row(
            f"lemmas/log-holder/{lq}",
            "log-Holder modulus of the exponent",
            q.log_holder_const, 0.0, {"exact": q.log_holder_exact},
        ))
    for lp, pair in pairs:
        rows += embedding(lp, pair)
    return rows


# ---------------------------------------------------------------------------
# theorem1 and theorem2: commutators [b, M] and [b, M#].


def _commutator_checks(theorem: str, op: str, const: float, comm: Callable,
                       tag: Callable[[GridFunction], OperatorTag],
                       fs: list[tuple[str, GridFunction]], beta: float, factor: float,
                       mode: CubeFamilyMode, tol: float):
    """The rows theorem1 ([b, M], const 1) and theorem2 ([b, M#], const 2) share:
    the pointwise bound |[b, T]f| <= const M_b f, its norm chain, and the
    operator-norm lower bound, as the functions (pointwise, chain, opnorm)."""
    times = "" if const == 1.0 else f"{const:g} "

    def pointwise(lb: str, b: GridFunction) -> list[Check]:
        worst = Worst()
        for lf, f in fs:
            worst.offer(float(np.max(
                np.abs(comm(b, f, mode).values) - const * max_commutator(b, f, mode).values
            )), lf)
        if not worst.count:
            return []
        return [check_le(
            f"{theorem}/pointwise/{lb}",
            f"|[b, {op}]f| <= {times}M_b f pointwise for b >= 0",
            worst.value, 0.0, tol, {"b": lb, "f": worst.witness},
        )]

    def chain(lb: str, b: GridFunction, lip: LipResult, lq: str,
              q: VariableExponent) -> list[Check]:
        worst = Worst()
        for lf, f in fs:
            lhs = lux_norm(comm(b, f, mode), q).value
            rhs = const * factor * lip.value * lux_norm(frac_max(f, beta, mode), q).value
            worst.offer(lhs - rhs, lf)
        if not worst.count:
            return []
        return [check_le(
            f"{theorem}/norm-chain/{lb}/{lq}",
            f"||[b, {op}]f||_q <= {times}dim^{{beta/2}} Lip_beta(b) ||M_beta f||_q for b >= 0",
            worst.value, 0.0, tol, {"b": lb, "f": worst.witness},
        )]

    def opnorm(lb: str, b: GridFunction, lp: str, pair: ExponentPair) -> list[Check]:
        return _opnorm_row(f"{theorem}/opnorm/{lb}/{lp}", f"[b, {op}]", tag(b), pair, fs, mode,
                           {"b": lb, "pair": lp})

    return pointwise, chain, opnorm


def _opnorm_row(check_id: str, op: str, tag: OperatorTag, pair: ExponentPair,
                fs: list[tuple[str, GridFunction]], mode: CubeFamilyMode,
                witness: dict) -> list[Check]:
    """Operator-norm lower bound from p to the paired q over the f bank; none without one."""
    if not fs:
        return []
    value = opnorm_lower_stacked(tag, pair.p, pair.q, [f for _, f in fs], mode)
    return [report_row(
        check_id, f"operator norm lower bound for {op} from p to the paired q",
        value, 0.0, witness,
    )]


def _theorem1(cfg: ScenarioConfig) -> list[Check]:
    grid = cfg.build_grid()
    mode = cfg.cube_family
    tol = cfg.tolerances.identity_tol
    beta = cfg.beta
    factor = _dim_factor(grid.dim, beta)
    bs = _function_bank(grid, cfg.functions_b)
    fs = _operand_bank(cfg, grid)
    qs = _exponent_bank(grid, cfg.exponents)
    pairs = _pair_bank(cfg, grid)
    pointwise, chain, opnorm = _commutator_checks(
        "theorem1", "M", 1.0, comm_m, OperatorTag.comm_m, fs, beta, factor, mode, tol)

    rows: list[Check] = []
    for lb, b in bs:
        lip = lip_seminorm(b, beta)
        nonneg = float(b.values.min()) >= 0.0
        if nonneg:
            rows += pointwise(lb, b)

        smooth = Worst()
        for lf, f in fs:
            bound = factor * lip.value * frac_max(f, beta, mode).values
            smooth.offer(float(np.max(max_commutator(b, f, mode).values - bound)), lf)
        if smooth.count:
            rows.append(check_le(
                f"theorem1/smoothing/{lb}",
                "M_b f <= dim^{beta/2} Lip_beta(b) M_beta f pointwise",
                smooth.value, 0.0, tol,
                {"b": lb, "f": smooth.witness, "lip": lip.value, "lip_exact": lip.exact},
            ))

        # The localized maximal function is a full-family object, so this
        # sweep always runs the full family regardless of the config.
        half, dom, neg = Worst(lowest=True), Worst(lowest=True), Worst(lowest=True)
        for cube, loc in _local_max_by_cube(b, CubeFamilyMode.FULL):
            block = b.values[cube.slices()]
            diff = loc - block
            dom.offer(float(diff.min()))
            bq = average(b, cube)
            half.offer(float(np.mean(np.abs(diff))) - 0.5 * float(np.mean(np.abs(block - bq))),
                       cube)
            neg.offer(float(np.mean(np.abs(diff))) - float(np.mean(np.maximum(-block, 0.0))),
                      cube)
        rows += [
            check_ge(f"theorem1/local-dominates/{lb}", "M_Q(b) >= b on Q",
                     dom.value, 0.0, tol, {"b": lb}),
            check_ge(f"theorem1/recovery-half/{lb}",
                     "avg_Q |b - M_Q b| >= (1/2) avg_Q |b - b_Q|",
                     half.value, 0.0, tol, {"cube": half.witness}),
            check_ge(f"theorem1/recovery-negative/{lb}",
                     "avg_Q of the negative part of b <= avg_Q |M_Q b - b|",
                     neg.value, 0.0, tol, {"cube": neg.witness}),
        ]

        for lq, q in qs:
            if nonneg:
                rows += chain(lb, b, lip, lq, q)
            lam = lambda_var(b, beta, q, mode)
            rows.append(report_row(
                f"theorem1/lambda-var/{lb}/{lq}",
                "oscillation functional centered at cube averages",
                lam.value, factor * lip.value, {"cube": lam.witness},
            ))
            if lip.exact:
                rows.append(check_le(
                    f"theorem1/lambda-upper/{lb}/{lq}",
                    "lambda_var(b) <= dim^{beta/2} Lip_beta(b)",
                    lam.value, factor * lip.value, tol, {"cube": lam.witness},
                ))
        for lp, pair in pairs:
            rows += opnorm(lb, b, lp, pair)
    return rows


def _theorem2(cfg: ScenarioConfig) -> list[Check]:
    grid = cfg.build_grid()
    mode = cfg.cube_family
    tol = cfg.tolerances.identity_tol
    beta = cfg.beta
    factor = _dim_factor(grid.dim, beta)
    containers = {cube: _containing_cube(grid, cube, mode) for cube in enumerate_cubes(grid, mode)}
    held = [cube for cube, container in containers.items() if container is not None]
    bs = _function_bank(grid, cfg.functions_b)
    fs = _operand_bank(cfg, grid)
    qs = _exponent_bank(grid, cfg.exponents)
    pairs = _pair_bank(cfg, grid)
    pointwise, chain, opnorm = _commutator_checks(
        "theorem2", "M#", 2.0, comm_sharp, OperatorTag.comm_sharp, fs, beta, factor, mode, tol)

    rows: list[Check] = []
    for lb, b in bs:
        lip = lip_seminorm(b, beta)
        nonneg = float(b.values.min()) >= 0.0
        if nonneg:
            rows += pointwise(lb, b)

        recovered = Worst()
        for group, chis in indicator_stacks(grid, held):
            sharp = apply_stack(OperatorTag.sharp(), grid, b.values * chis, mode)
            for cube, floor in zip(group, cube_blocks(sharp, group).min(axis=1)):
                t = (containers[cube].side_cells / cube.side_cells) ** grid.dim
                const = t * t / (2.0 * (t - 1.0))
                recovered.offer(abs(average(b, cube)) - const * float(floor),
                                {"cube": cube, "ratio": t})
        if recovered.count:
            rows.append(check_le(
                f"theorem2/mean-recovery/{lb}",
                "|b_Q| <= t^2/(2(t-1)) M#(b chi_Q) on Q, t the containing volume ratio",
                recovered.value, 0.0, tol, recovered.witness,
            ))

        for lq, q in qs:
            if nonneg:
                rows += chain(lb, b, lip, lq, q)
            lam = lambda_sharp(b, beta, q, mode)
            rows.append(report_row(
                f"theorem2/lambda-sharp/{lb}/{lq}",
                "oscillation functional centered at twice the sharp maximal function",
                lam.value, 0.0, {"cube": lam.witness},
            ))
        for lp, pair in pairs:
            rows += opnorm(lb, b, lp, pair)
    return rows


# ---------------------------------------------------------------------------
# theorem3: the maximal commutator itself.


def _theorem3(cfg: ScenarioConfig) -> list[Check]:
    grid = cfg.build_grid()
    mode = cfg.cube_family
    tol = cfg.tolerances.identity_tol
    beta = cfg.beta
    cubes = enumerate_cubes(grid, mode)
    bs = _function_bank(grid, cfg.functions_b)
    fs = _operand_bank(cfg, grid)
    qs = _exponent_bank(grid, cfg.exponents)
    pairs = _pair_bank(cfg, grid)

    cm = grid.cell_measure
    sides = [tuple(side) for _, side in itertools.groupby(cubes, key=lambda c: c.side_cells)]
    # Per exponent: the q values on each cube's cells, per side, and ||chi_Q||_q.
    q_rows = {lq: [np.stack([q.values.values[c.slices()].reshape(-1) for c in side])
                   for side in sides]
              for lq, q in qs}
    chi_norms = {lq: _indicator_norms(grid, q, cubes) for lq, q in qs}

    def commutator_rows(b: GridFunction) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per side, rows |b - b_Q| and rows M_b(chi_Q), on each cube's own cells."""
        tag = OperatorTag.max_commutator(b)
        out = []
        for side in sides:
            mb = np.concatenate([cube_blocks(apply_stack(tag, grid, chis, mode), group)
                                 for group, chis in indicator_stacks(grid, side)])
            osc = np.empty_like(mb)
            for r, cube in enumerate(side):
                block = b.values[cube.slices()].reshape(-1)
                osc[r] = np.abs(block - block.mean())
            out.append((osc, mb))
        return out

    def ratio(lb: str, b_rows: list, lq: str) -> list[Check]:
        worst, top = Worst(), Worst()
        den = chi_norms[lq]
        for side, (osc_rows, mb_rows), side_q in zip(sides, b_rows, q_rows[lq]):
            osc = _lux_solve_batch(osc_rows, side_q, cm)
            mb = _lux_solve_batch(mb_rows, side_q, cm)
            scale = (side[0].side_cells * grid.spacing) ** (-beta)
            for r, cube in enumerate(side):
                lhs = scale * float(osc[r]) / den[cube]
                rhs = scale * float(mb[r]) / den[cube]
                worst.offer(lhs - rhs, cube)
                top.offer(rhs, cube)
        return [
            check_le(
                f"theorem3/ratio-dominated/{lb}/{lq}",
                "oscillation ratio of b - b_Q is dominated by the M_b(chi_Q) ratio",
                worst.value, 0.0, tol, {"cube": worst.witness},
            ),
            report_row(
                f"theorem3/mb-functional/{lb}/{lq}",
                "oscillation functional built from M_b(chi_Q)",
                top.value, 0.0, {"cube": top.witness},
            ),
        ]

    rows: list[Check] = []
    for lb, b in bs:
        b_rows = commutator_rows(b)
        lower = Worst(lowest=True)
        for side, (_, mb_rows) in zip(sides, b_rows):
            for cube, mb in zip(side, mb_rows):
                dev = np.abs(b.values[cube.slices()].reshape(-1) - average(b, cube))
                lower.offer(float(np.min(mb - dev)), cube)
        rows.append(check_ge(
            f"theorem3/pointwise-lower/{lb}",
            "|b(x) - b_Q| <= M_b(chi_Q)(x) on Q",
            lower.value, 0.0, tol, {"cube": lower.witness},
        ))
        for lq, _ in qs:
            rows += ratio(lb, b_rows, lq)
        for lp, pair in pairs:
            rows += _opnorm_row(f"theorem3/opnorm/{lb}/{lp}", "M_b",
                                OperatorTag.max_commutator(b), pair, fs, mode,
                                {"b": lb, "pair": lp})
    for lp, pair in pairs:
        rows += _opnorm_row(f"theorem3/frac-opnorm/{lp}", "M_beta", OperatorTag.fractional(beta),
                            pair, fs, mode, {"pair": lp})
    return rows


# ---------------------------------------------------------------------------
# normequiv: the oscillation functional against the pairwise seminorm.


def _normequiv(cfg: ScenarioConfig) -> list[Check]:
    beta = cfg.beta
    tol = cfg.tolerances.identity_tol
    mode = cfg.cube_family

    def pair_rows(b_spec: dict, q_spec: dict) -> list[Check]:
        rows: list[Check] = []
        ratios: dict[int, float] = {}
        for n in cfg.refinements:
            grid_n = cfg.build_grid(n)
            factor = _dim_factor(grid_n.dim, beta)
            b = build_function(grid_n, b_spec)
            q = build_exponent(grid_n, q_spec)
            # Labelled after building, which rejects a malformed spec first.
            lb, lq = function_label(b_spec), exponent_label(q_spec)
            lam = lambda_var(b, beta, q, mode)
            lip = lip_seminorm(b, beta)
            bound = factor * lip.value
            if lip.exact:
                if bound > 0.0:
                    rows.append(check_le(
                        f"normequiv/upper/{lb}/{lq}/N{n}",
                        "lambda_var(b) <= dim^{beta/2} Lip_beta(b)",
                        lam.value, bound, tol, {"cube": lam.witness},
                    ))
                else:
                    rows.append(check_eq(
                        f"normequiv/constant/{lb}/{lq}/N{n}",
                        "lambda_var vanishes exactly when b is constant",
                        lam.value, 0.0, tol, {"cube": lam.witness},
                    ))
            if bound > 0.0:
                ratios[n] = lam.value / bound
                rows.append(report_row(
                    f"normequiv/ratio/{lb}/{lq}/N{n}",
                    "lambda_var over its seminorm bound",
                    ratios[n], 1.0, {"lip": lip.value, "lip_exact": lip.exact},
                ))
            if q.is_constant:
                closed = osc_norm_q(b, beta, q.p_minus, mode)
                rows.append(check_eq(
                    f"normequiv/const-reduction/{lb}/{lq}/N{n}",
                    "variable-exponent sweep reduces to the closed form for constant q",
                    abs(lam.value - closed.value), 0.0, max(tol, 1e-9),
                    {"cube": closed.witness},
                ))
            star = lambda_star(b, beta, q, CubeFamilyMode.DYADIC_SIDES)
            rows.append(report_row(
                f"normequiv/lambda-star/{lb}/{lq}/N{n}",
                "oscillation functional centered at the local maximal function",
                star.value, lam.value, {"cube": star.witness},
            ))
        if len(ratios) == len(cfg.refinements) and len(ratios) > 1:
            values = list(ratios.values())
            spread = max(values) / min(values)
            rows.append(check_le(
                f"normequiv/stability/{lb}/{lq}",
                "ratio variation across refinements stays within the stability factor",
                spread, cfg.stability_factor, tol,
                {"ratios": {str(n): v for n, v in ratios.items()}},
            ))
        return rows

    return [row for b_spec in cfg.functions_b for q_spec in cfg.exponents
            for row in pair_rows(b_spec, q_spec)]


# ---------------------------------------------------------------------------
# counterexamples: functionals that blow up under refinement.


def _counterexamples(cfg: ScenarioConfig) -> list[Check]:
    beta = cfg.beta
    tol = cfg.tolerances.identity_tol
    mode = cfg.cube_family

    def _max_adjacent_diff(b: GridFunction) -> float:
        v = b.values
        if b.grid.dim == 1:
            return float(np.max(np.abs(np.diff(v))))
        return max(
            float(np.max(np.abs(np.diff(v, axis=0)))),
            float(np.max(np.abs(np.diff(v, axis=1)))),
        )

    def symbol_rows(b_spec: dict, q_spec: dict) -> list[Check]:
        rows: list[Check] = []
        stars: dict[int, float] = {}
        is_const = False
        for n in cfg.refinements:
            grid_n = cfg.build_grid(n)
            b = build_function(grid_n, b_spec)
            q = build_exponent(grid_n, q_spec)
            # Labelled after building, which rejects a malformed spec first.
            lb, lq = function_label(b_spec), exponent_label(q_spec)
            h = grid_n.spacing
            is_const = float(np.ptp(b.values)) == 0.0
            lam = lambda_var(b, beta, q, mode)
            star = lambda_star(b, beta, q, mode)
            stars[n] = star.value
            lip = lip_seminorm(b, beta)
            if is_const:
                c = abs(float(b.values.reshape(-1)[0]))
                target = 2.0 * c * h ** (-beta)
                rows.append(check_eq(
                    f"counterexamples/lambda-var-const/{lb}/{lq}/N{n}",
                    "lambda_var(const) = 0",
                    lam.value, 0.0, tol, {"cube": lam.witness},
                ))
                rows.append(check_eq(
                    f"counterexamples/lip-const/{lb}/N{n}",
                    "Lip_beta(const) = 0",
                    lip.value, 0.0, tol, None,
                ))
                if c > 0.0:
                    rows.append(check_eq(
                        f"counterexamples/lambda-star-const/{lb}/{lq}/N{n}",
                        "lambda_star(const c) = 2|c| h^{-beta}, attained at single cells",
                        star.value, target, tol * (1.0 + target), {"cube": star.witness},
                    ))
                    if grid_n.dim == 1 and n <= _SHARP_SWEEP_MAX[1]:
                        sharp = lambda_sharp(b, beta, q, mode)
                        rows.append(check_eq(
                            f"counterexamples/lambda-sharp-const/{lb}/{lq}/N{n}",
                            "lambda_sharp(const c) = 2|c| h^{-beta} in dim 1",
                            sharp.value, target, tol * (1.0 + target),
                            {"cube": sharp.witness},
                        ))
                else:
                    rows.append(check_eq(
                        f"counterexamples/lambda-star-zero/{lb}/{lq}/N{n}",
                        "lambda_star(0) = 0",
                        star.value, 0.0, tol, {"cube": star.witness},
                    ))
            else:
                d = _max_adjacent_diff(b)
                lower = (2.0 * h) ** (-beta) * d / 2.0
                rows.append(check_ge(
                    f"counterexamples/lambda-var-lower/{lb}/{lq}/N{n}",
                    "lambda_var >= (2h)^{-beta} d/2, d the largest adjacent jump",
                    lam.value, lower, tol * (1.0 + lower), {"cube": lam.witness},
                ))
                rows.append(check_ge(
                    f"counterexamples/lip-lower/{lb}/N{n}",
                    "Lip_beta(b) >= d h^{-beta}, d the largest adjacent jump",
                    lip.value, d * h ** (-beta), tol * (1.0 + d * h ** (-beta)),
                    {"pair": lip.witness},
                ))
                rows.append(report_row(
                    f"counterexamples/lambda-var/{lb}/{lq}/N{n}",
                    "oscillation functional under refinement",
                    lam.value, lower, {"cube": lam.witness},
                ))
                sharp_cap = _SHARP_SWEEP_MAX[grid_n.dim]
                if n <= sharp_cap:
                    sharp = lambda_sharp(b, beta, q, mode)
                    rows.append(report_row(
                        f"counterexamples/lambda-sharp/{lb}/{lq}/N{n}",
                        "sharp-centered oscillation functional under refinement",
                        sharp.value, 0.0, {"cube": sharp.witness},
                    ))
            rows.append(report_row(
                f"counterexamples/lambda-star/{lb}/{lq}/N{n}",
                "local-max-centered oscillation functional under refinement",
                star.value, 0.0, {"cube": star.witness},
            ))
        for n1, n2 in zip(cfg.refinements, cfg.refinements[1:]):
            if stars[n1] <= 0.0:
                continue
            expected = (n2 / n1) ** beta
            observed = stars[n2] / stars[n1]
            if is_const:
                rows.append(check_eq(
                    f"counterexamples/star-growth/{lb}/{lq}/N{n1}-N{n2}",
                    "lambda_star(const) scales like (N2/N1)^beta under refinement",
                    observed, expected, tol * (1.0 + expected), None,
                ))
            else:
                rows.append(report_row(
                    f"counterexamples/star-growth/{lb}/{lq}/N{n1}-N{n2}",
                    "lambda_star growth per refinement step",
                    observed, expected, None,
                ))
        return rows

    return [row for b_spec in cfg.functions_b for q_spec in cfg.exponents
            for row in symbol_rows(b_spec, q_spec)]


_BUILDERS: dict[str, Callable[[ScenarioConfig], list[Check]]] = {
    "identities": _identities,
    "lemmas": _lemmas,
    "theorem1": _theorem1,
    "theorem2": _theorem2,
    "theorem3": _theorem3,
    "normequiv": _normequiv,
    "counterexamples": _counterexamples,
}

SCENARIO_ORDER = tuple(_BUILDERS)


def run_scenario(scenario: str, raw: dict | None = None) -> Report:
    """Run one named scenario (or all of them) and return its report."""
    if scenario == "all":
        cfgs = {name: parse_config(name, raw) for name in SCENARIO_ORDER}
        # A zero f stops theorem1-3; find it before any scenario computes.
        for name in ("theorem1", "theorem2", "theorem3"):
            _operand_bank(cfgs[name], cfgs[name].build_grid())
        report = new_report("all", {
            "scenario": "all",
            "scenarios": {name: cfg.echo() for name, cfg in cfgs.items()},
        })
        for name in SCENARIO_ORDER:
            report.checks.extend(_BUILDERS[name](cfgs[name]))
        return report
    cfg = parse_config(scenario, raw)
    report = new_report(scenario, cfg.echo())
    report.checks.extend(_BUILDERS[scenario](cfg))
    return report
