"""Named verification scenarios assembled into reports.

Each scenario builds its function and exponent banks first (normequiv and
counterexamples every b and q on every refinement), so a malformed spec is
rejected before any sweep runs, then computes its check rows in a fixed
order; a report is deterministic up to its timestamp.  theorem1-3 apply
each operator once per stack and read all they need off that pass: a
bound pass (lipschitz._tag_passes) over the f bank and the cube
indicators gives per operator its bounds, its outputs on the f bank and
its rows on the cubes.  A swept row reports the worst case of its sweep
with the witness attaining it, both taken by ``sweep.worst_of`` over the
sweep's whole array of values, and a sweep that saw nothing emits no row.

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
    CubeFamily,
    CubeFamilyMode,
    Grid,
    GridFunction,
    cube_rows,
    family_sides,
    window_sums,
)
from .lipschitz import (
    LipResult,
    _pow_like_scalar,
    _sweep_result,
    _tag_passes,
    cube_ratios,
    lambda_sharp,
    lambda_star,
    lambda_var,
    lip_seminorm,
    osc_norm_q,
)
from .luxemburg import (
    _stack_norms,
    check_s_norms,
    embedding_bound,
    holder_constant,
    holder_defects,
    indicator_norms,
    lux_norm,  # noqa: F401  (an alias the benchmark's tracer test pins)
    lux_norms,
    modular,
)
from .operators import (
    OperatorTag,
    apply_stack,
    cube_blocks,
    indicator_stacks,
    local_max_sweep,
    on_cubes,
)
from .report import Check, Report, check_eq, check_ge, check_le, new_report, report_row
from .sweep import worst_of

__all__ = ["run_scenario"]

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


def _conjugable_bank(grid: Grid, specs: list[dict]) -> list[tuple[str, VariableExponent]]:
    """The exponent bank of lemmas, whose Holder and duality rows read each q's conjugate."""
    qs = _exponent_bank(grid, specs)
    for label, q in qs:
        try:
            conjugate(q)
        except ValueError as exc:
            raise ConfigError(f"exponent {label} has no admissible conjugate: {exc}") from exc
    return qs


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


def _cube_averages(b: GridFunction, k: int) -> np.ndarray:
    """The mean of b on every side-k cube in enumeration order: its window sum over k^dim."""
    return window_sums(b, k).reshape(-1) / k**b.grid.dim


def _half_overlap_eligible(grid: Grid, mode: CubeFamilyMode) -> np.ndarray:
    """The enumeration indices of the family cubes Q for which a family cube
    exists with exactly half its cells inside Q, reachable from every cell of Q."""
    n = grid.cells_per_axis
    masks = []
    for k in family_sides(n, mode):
        s = np.arange(n - k + 1)
        if grid.dim == 1:
            masks.append(np.full(s.size, 2 * k <= n))
        else:
            ok = (k % 2 == 0) & (s >= k // 2) & (s + k + k // 2 <= n)
            masks.append((ok[:, None] | ok[None, :]).reshape(-1))
    return np.flatnonzero(np.concatenate(masks))


# ---------------------------------------------------------------------------
# identities: exact pointwise identities for indicators and localized symbols.


def _identities(cfg: ScenarioConfig) -> list[Check]:
    grid = cfg.build_grid()
    mode = cfg.cube_family
    tol = cfg.tolerances["identity_tol"]
    beta = cfg.beta
    cubes = CubeFamily.of(grid, mode)
    bs = _function_bank(grid, cfg.functions_b)

    tags = (OperatorTag.hl(), OperatorTag.sharp(), OperatorTag.fractional(beta))
    stats = []
    for part, chis in indicator_stacks(cubes):
        outs = [apply_stack(tag, grid, chis, mode) for tag in tags]
        tops = [out.reshape(len(chis), -1).max(axis=1) for out in outs]
        for span, k, local in cubes.runs(part):
            target = (k * grid.spacing) ** beta
            starts = cubes.starts(k, local)
            on_m, on_s, on_fr = (cube_blocks(out[span], k, starts) for out in outs)
            top_m, top_s, top_fr = (top[span] for top in tops)
            stats.append((np.abs(on_m - 1.0).max(axis=1), top_m, np.abs(on_s - 0.5).max(axis=1),
                          top_s, np.abs(on_fr - target).max(axis=1), top_fr - target))
    dev_m, top_m, dev_s, top_s, dev_fr, excess_fr = (
        np.concatenate(column) for column in zip(*stats))
    dev_hl, top_hl, top_sharp, dev_frac, excess_frac = (
        worst_of(v, cubes) for v in (dev_m, top_m, top_s, dev_fr, excess_fr))
    eligible = _half_overlap_eligible(grid, mode)
    dev_sharp = worst_of(dev_s[eligible], eligible)

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
            {"cube": cubes[dev_sharp.witness], "eligible_cubes": dev_sharp.count},
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
        local = worst_of(np.concatenate([
            np.abs(on_q - levels.reshape(on_q.shape)).max(axis=1)
            for on_q, (_, levels) in zip(
                on_cubes(OperatorTag.hl(), cubes, b.values, CubeFamilyMode.FULL),
                local_max_sweep(b, cubes.sides), strict=True)
        ]), cubes)
        rows.append(check_eq(
            f"identities/local-on-cube/{label}",
            "M(b chi_Q) = M_Q(b) on Q for the full family",
            local.value, 0.0, tol, {"cube": local.witness},
        ))

        gaps = []
        for k in cubes.sides:
            blocks = cube_rows(b.values, k)
            bq = _cube_averages(b, k)[:, None]
            below = np.where(blocks <= bq, bq - blocks, 0.0).sum(axis=1)
            gaps.append(np.abs(below - 0.5 * np.abs(blocks - bq).sum(axis=1)))
        split = worst_of(np.concatenate(gaps), cubes)
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
    tol = cfg.tolerances["identity_tol"]
    beta = cfg.beta
    dim = grid.dim
    cubes = CubeFamily.of(grid, mode)
    # No lemma uses b; its bank is built so that a bad spec is rejected here too.
    _function_bank(grid, cfg.functions_b)
    fs = _function_bank(grid, cfg.functions_f)
    fpairs = list(itertools.combinations_with_replacement(fs, 2))
    pair_labels = [(lf, lg) for (lf, _), (lg, _) in fpairs]
    qs = _conjugable_bank(grid, cfg.exponents)
    pairs = _pair_bank(cfg, grid)

    def lux(lq: str, q: VariableExponent) -> list[Check]:
        norms = lux_norms([f for _, f in fs] + [2.0 * f for _, f in fs], [q] * (2 * len(fs)))
        kept = [(lf, f, lam, doubled) for (lf, f), lam, doubled in
                zip(fs, norms[:len(fs)].tolist(), norms[len(fs):].tolist()) if lam != 0.0]
        labels = [lf for lf, *_ in kept]
        mod = worst_of([abs(modular(f * (1.0 / lam), q) - 1.0) for _, f, lam, _ in kept], labels)
        hom = worst_of([abs(doubled - 2.0 * lam) / lam for *_, lam, doubled in kept], labels)
        if not mod.count:
            return []
        return [
            check_eq(f"lemmas/unit-modular/{lq}", "modular at the norm equals one",
                     mod.value, 0.0, max(tol, 1e-10), {"f": mod.witness}),
            check_eq(f"lemmas/homogeneity/{lq}", "||2f||_q = 2 ||f||_q",
                     hom.value, 0.0, max(tol, 1e-10), {"f": hom.witness}),
        ]

    def holder(lq: str, q: VariableExponent) -> list[Check]:
        worst = worst_of(holder_defects([(f, g) for (_, f), (_, g) in fpairs], q),
                         pair_labels, lowest=True)
        if not worst.count:
            return []
        return [check_ge(
            f"lemmas/holder/{lq}",
            "integral of |f g| <= (1 + 1/p_- - 1/p_+) ||f||_p ||g||_{p'}",
            worst.value, 0.0, tol, {"pair": worst.witness},
        )]

    def snorm(lq: str, q: VariableExponent) -> list[Check]:
        powers = [s for s in (0.5, 1.0, 1.5, 2.0) if s * q.p_minus >= 1.0]
        worst = worst_of([d for s in powers for d in check_s_norms([f for _, f in fs], q, s)],
                         [{"f": lf, "s": s} for s in powers for lf, _ in fs])
        if not worst.count:
            return []
        return [check_eq(f"lemmas/s-norm/{lq}", "|| |f|^s ||_p = ||f||^s_{s p}",
                         worst.value, 0.0, tol, worst.witness)]

    # |Q| and its powers depend on the side alone: one value per side, repeated.
    side_measures = [(k * grid.spacing) ** dim for k in cubes.sides]
    measures = np.repeat(side_measures, cubes.counts)

    def duality(lq: str, q: VariableExponent, base: np.ndarray) -> list[Check]:
        prod = base * indicator_norms(conjugate(q), mode) / measures
        low, top = worst_of(prod, cubes, lowest=True), worst_of(prod, cubes)
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
        scale = np.repeat([pow(measure, pair.beta / dim) for measure in side_measures],
                          cubes.counts)
        top = worst_of(indicator_norms(pair.p, mode) / (scale * indicator_norms(pair.q, mode)),
                       cubes)
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

    def split(lq: str, q: VariableExponent, base: np.ndarray) -> list[Check]:
        rows = []
        qv = q.values.values
        for r in (2.0, 3.0):
            rp = r / (r - 1.0)
            q_r = validate_p(q.values.with_values(r * qv))
            q_rp = validate_p(q.values.with_values(rp * qv))
            big = indicator_norms(q_r, mode)
            small = indicator_norms(q_rp, mode)
            power = worst_of(np.abs(big - _pow_like_scalar(base, 1.0 / r)), cubes)
            product = worst_of(np.abs(big * small - base), cubes)
            norms = lux_norms([f * g for (_, f), (_, g) in fpairs] + [f for (_, f), _ in fpairs]
                              + [g for _, (_, g) in fpairs],
                              [q] * len(fpairs) + [q_r] * len(fpairs) + [q_rp] * len(fpairs))
            whole, left, right = norms.reshape(3, -1).tolist()
            gap = worst_of([fg - f_r * g_rp for fg, f_r, g_rp in zip(whole, left, right)],
                           pair_labels)
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
        base = indicator_norms(q, mode)
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


def _commutator_theorem(cfg: ScenarioConfig, theorem: str, op: str, const: float,
                        tag: Callable[[GridFunction], OperatorTag], symbol_rows: Callable,
                        reads_mb: bool) -> list[Check]:
    """The rows of theorem1 ([b, M], const 1) and theorem2 ([b, M#], const 2).

    Per b: the pointwise bound |[b, T]f| <= const M_b f for b >= 0; the
    theorem's own rows, with symbol_rows(lb, b, lip, fs, mbs, fracs) giving
    them and a function of (lq, q) that gives b's lambda rows for q; per q
    the norm chain for b >= 0 and those lambda rows; the operator-norm bound
    per pair.  The f bank is one stack: fracs = M_beta f is one operator call,
    and per b so is mbs = M_b f (for b >= 0, or every b when reads_mb).  With
    an f bank, one pass (_tag_passes) applies each [b, T] once per stack of
    the f bank and the family's indicators; per b it gives the bounds for
    every pair and [b, T]f, which the rows read for b >= 0.  The norms of
    fracs, and of [b, T]f per b, under every q are one solve.
    """
    grid = cfg.build_grid()
    mode = cfg.cube_family
    tol = cfg.tolerances["identity_tol"]
    factor = _dim_factor(grid.dim, cfg.beta)
    bs = _function_bank(grid, cfg.functions_b)
    fs = _operand_bank(cfg, grid)
    qs = _exponent_bank(grid, cfg.exponents)
    pairs = _pair_bank(cfg, grid)
    bank = np.stack([f.values for _, f in fs]) if fs else np.zeros((0,) + grid.shape)
    fracs = apply_stack(OperatorTag.fractional(cfg.beta), grid, bank, mode)
    frac_norms = _stack_norms(fracs, [q for _, q in qs]).tolist()
    labels = [lf for lf, _ in fs]
    # Without an f bank there is no pass: no bound and no [b, T]f.
    passes = (_tag_passes(grid, [tag(b) for _, b in bs], [(pair.p, pair.q) for _, pair in pairs],
                          [f for _, f in fs], mode)
              if fs else itertools.repeat(([], None, None)))
    times = "" if const == 1.0 else f"{const:g} "

    rows: list[Check] = []
    for lb, b in bs:
        bounds, _, comms = next(passes)
        lip = lip_seminorm(b, cfg.beta)
        if float(b.values.min()) < 0.0:
            comms = None
        mbs = (apply_stack(OperatorTag.max_commutator(b), grid, bank, mode)
               if comms is not None or reads_mb else None)
        if comms is not None:
            worst = worst_of([np.max(np.abs(c) - const * mb) for c, mb in zip(comms, mbs)],
                             labels)
            rows.append(check_le(
                f"{theorem}/pointwise/{lb}",
                f"|[b, {op}]f| <= {times}M_b f pointwise for b >= 0",
                worst.value, 0.0, tol, {"b": lb, "f": worst.witness},
            ))
            comm_norms = _stack_norms(comms, [q for _, q in qs]).tolist()
        own, lambda_rows = symbol_rows(lb, b, lip, fs, mbs, fracs)
        rows += own
        for j, (lq, q) in enumerate(qs):
            if comms is not None:
                worst = worst_of([norm - const * factor * lip.value * frac_norm
                                  for norm, frac_norm in zip(comm_norms[j], frac_norms[j])],
                                 labels)
                rows.append(check_le(
                    f"{theorem}/norm-chain/{lb}/{lq}",
                    f"||[b, {op}]f||_q <= {times}dim^{{beta/2}} Lip_beta(b) ||M_beta f||_q "
                    "for b >= 0",
                    worst.value, 0.0, tol, {"b": lb, "f": worst.witness},
                ))
            rows += lambda_rows(lq, q)
        for (lp, _), value in zip(pairs, bounds):
            rows.append(_opnorm_row(f"{theorem}/opnorm/{lb}/{lp}", f"[b, {op}]", value,
                                    {"b": lb, "pair": lp}))
    return rows


def _opnorm_row(check_id: str, op: str, value: float, witness: dict) -> Check:
    return report_row(check_id, f"operator norm lower bound for {op} from p to the paired q",
                      value, 0.0, witness)


def _theorem1(cfg: ScenarioConfig) -> list[Check]:
    grid = cfg.build_grid()
    mode = cfg.cube_family
    tol = cfg.tolerances["identity_tol"]
    beta = cfg.beta
    factor = _dim_factor(grid.dim, beta)
    # The localized maximal function is a full-family object, so its sweep
    # always runs the full family regardless of the config.
    full = CubeFamily.of(grid, CubeFamilyMode.FULL)

    def symbol_rows(lb: str, b: GridFunction, lip: LipResult, fs: list, mbs: np.ndarray,
                    fracs: np.ndarray):
        rows = []
        smooth = worst_of([np.max(mb - factor * lip.value * frac) for mb, frac in zip(mbs, fracs)],
                          [lf for lf, _ in fs])
        if smooth.count:
            rows.append(check_le(
                f"theorem1/smoothing/{lb}",
                "M_b f <= dim^{beta/2} Lip_beta(b) M_beta f pointwise",
                smooth.value, 0.0, tol,
                {"b": lb, "f": smooth.witness, "lip": lip.value, "lip_exact": lip.exact},
            ))
        dom, half, neg = [], [], []
        for k, (_, levels) in zip(full.sides, local_max_sweep(b, full.sides), strict=True):
            blocks = cube_rows(b.values, k)
            diff = levels.reshape(blocks.shape) - blocks
            spread = np.abs(diff).mean(axis=1)
            bq = _cube_averages(b, k)[:, None]
            dom.append(diff.min(axis=1))
            half.append(spread - 0.5 * np.abs(blocks - bq).mean(axis=1))
            neg.append(spread - np.maximum(-blocks, 0.0).mean(axis=1))
        dom, half, neg = (worst_of(np.concatenate(v), full, lowest=True)
                          for v in (dom, half, neg))
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

        def lambda_rows(lq: str, q: VariableExponent) -> list[Check]:
            lam = lambda_var(b, beta, q, mode)
            out = [report_row(
                f"theorem1/lambda-var/{lb}/{lq}",
                "oscillation functional centered at cube averages",
                lam.value, factor * lip.value, {"cube": lam.witness},
            )]
            if lip.exact:
                out.append(check_le(
                    f"theorem1/lambda-upper/{lb}/{lq}",
                    "lambda_var(b) <= dim^{beta/2} Lip_beta(b)",
                    lam.value, factor * lip.value, tol, {"cube": lam.witness},
                ))
            return out

        return rows, lambda_rows

    return _commutator_theorem(cfg, "theorem1", "M", 1.0, OperatorTag.comm_m, symbol_rows,
                               reads_mb=True)


def _theorem2(cfg: ScenarioConfig) -> list[Check]:
    grid = cfg.build_grid()
    mode = cfg.cube_family
    tol = cfg.tolerances["identity_tol"]
    cubes = CubeFamily.of(grid, mode)
    # A cube's smallest strict container in the family has the next side up,
    # t times its volume; the cubes of the largest side have none.
    held = [(k, (m / k) ** grid.dim) for k, m in zip(cubes.sides, cubes.sides[1:])]
    ratios = np.repeat([t for _, t in held], cubes.counts[:len(held)])

    def symbol_rows(lb: str, b: GridFunction, lip: LipResult, *bank):
        # M#(b chi_Q) on every cube's cells, once per b: the held sides' rows
        # bound the means, and lambda_sharp centres at twice every row.
        sharp = list(on_cubes(OperatorTag.sharp(), cubes, b.values, mode))
        gaps = [np.empty(0)]
        for (k, t), on_q in zip(held, sharp[:len(held)], strict=True):
            gaps.append(np.abs(_cube_averages(b, k)) - t * t / (2.0 * (t - 1.0)) * on_q.min(axis=1))
        gaps = np.concatenate(gaps)
        recovered = worst_of(gaps, range(len(gaps)))
        rows = []
        if recovered.count:
            rows.append(check_le(
                f"theorem2/mean-recovery/{lb}",
                "|b_Q| <= t^2/(2(t-1)) M#(b chi_Q) on Q, t the containing volume ratio",
                recovered.value, 0.0, tol,
                {"cube": cubes[recovered.witness], "ratio": float(ratios[recovered.witness])},
            ))

        def lambda_rows(lq: str, q: VariableExponent) -> list[Check]:
            lam = _sweep_result(b, cfg.beta, q, mode, "sharp_double", sharp)
            return [report_row(
                f"theorem2/lambda-sharp/{lb}/{lq}",
                "oscillation functional centered at twice the sharp maximal function",
                lam.value, 0.0, {"cube": lam.witness},
            )]

        return rows, lambda_rows

    return _commutator_theorem(cfg, "theorem2", "M#", 2.0, OperatorTag.comm_sharp, symbol_rows,
                               reads_mb=False)


# ---------------------------------------------------------------------------
# theorem3: the maximal commutator itself.


def _theorem3(cfg: ScenarioConfig) -> list[Check]:
    grid = cfg.build_grid()
    mode = cfg.cube_family
    tol = cfg.tolerances["identity_tol"]
    beta = cfg.beta
    cubes = CubeFamily.of(grid, mode)
    bs = _function_bank(grid, cfg.functions_b)
    fs = _operand_bank(cfg, grid)
    qs = _exponent_bank(grid, cfg.exponents)
    pairs = _pair_bank(cfg, grid)
    # One pass applies each M_b, and M_beta last, once per stack of the f bank
    # and the indicators: the bounds for every pair, and M_b(chi_Q) on each
    # cube's cells.  Without an f bank it takes no bound and only reads M_b(chi_Q).
    b_tags = [OperatorTag.max_commutator(b) for _, b in bs]
    tags = b_tags + [OperatorTag.fractional(beta)] if fs else b_tags
    bound_pairs = [(pair.p, pair.q) for _, pair in pairs] if fs else []
    passes = _tag_passes(grid, tags, bound_pairs, [f for _, f in fs], mode, rows_of=b_tags)

    rows: list[Check] = []
    for lb, b in bs:
        # Per side, the rows of M_b(chi_Q) and of b, on each cube's own cells.
        bounds, mb_rows, _ = next(passes)
        b_rows = [cube_rows(b.values, k) for k in cubes.sides]
        lower = worst_of(np.concatenate([
            (mb - np.abs(b_k - _cube_averages(b, k)[:, None])).min(axis=1)
            for k, b_k, mb in zip(cubes.sides, b_rows, mb_rows, strict=True)
        ]), cubes, lowest=True)
        rows.append(check_ge(
            f"theorem3/pointwise-lower/{lb}",
            "|b(x) - b_Q| <= M_b(chi_Q)(x) on Q",
            lower.value, 0.0, tol, {"cube": lower.witness},
        ))
        osc_rows = [np.abs(b_k - b_k.mean(axis=1)[:, None]) for b_k in b_rows]
        for lq, q in qs:
            osc, mb = cube_ratios([osc_rows, mb_rows], beta, q, mode)
            worst = worst_of(osc - mb, cubes)
            top = worst_of(mb, cubes)
            rows += [
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
        for (lp, _), value in zip(pairs, bounds):
            rows.append(_opnorm_row(f"theorem3/opnorm/{lb}/{lp}", "M_b", value,
                                    {"b": lb, "pair": lp}))
    for bounds, *_ in passes:  # M_beta's, with an f bank
        for (lp, _), value in zip(pairs, bounds):
            rows.append(_opnorm_row(f"theorem3/frac-opnorm/{lp}", "M_beta", value,
                                    {"pair": lp}))
    return rows


# ---------------------------------------------------------------------------
# normequiv: the oscillation functional against the pairwise seminorm.


def _refined_pairs(cfg: ScenarioConfig) -> list[tuple[str, str, list]]:
    """Per (b, q) spec pair of the banks, its labels and, per refinement N,
    (N, the grid, b, q) on that grid.

    Every spec is built here, before any sweep runs: b then q, per N, per
    pair, and each label only once its spec has built, so a malformed spec
    is the first fault reported.
    """
    out = []
    for b_spec in cfg.functions_b:
        for q_spec in cfg.exponents:
            levels = []
            for n in cfg.refinements:
                grid_n = cfg.build_grid(n)
                levels.append((n, grid_n, build_function(grid_n, b_spec),
                               build_exponent(grid_n, q_spec)))
            out.append((function_label(b_spec), exponent_label(q_spec), levels))
    return out


def _normequiv(cfg: ScenarioConfig) -> list[Check]:
    beta = cfg.beta
    tol = cfg.tolerances["identity_tol"]
    mode = cfg.cube_family

    def pair_rows(lb: str, lq: str, levels: list) -> list[Check]:
        rows: list[Check] = []
        ratios: dict[int, float] = {}
        for n, grid_n, b, q in levels:
            factor = _dim_factor(grid_n.dim, beta)
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

    return [row for pair in _refined_pairs(cfg) for row in pair_rows(*pair)]


# ---------------------------------------------------------------------------
# counterexamples: functionals that blow up under refinement.


def _positive_const_sharp(row_id: str, sharp: LipResult, target: float, box_is_a_cube: bool,
                          tol: float) -> Check:
    """lambda_sharp of a constant c > 0 in dim 1 against c |box|^{-beta}.

    That is the ratio on the whole box, where the sharp function of c chi_Q
    vanishes.  When the box is a family cube it attains the sweep (so in
    every case probed: N = 2 to 40, full and dyadic, constant and affine q)
    and the row is a hard check; in a dyadic family with N not a power of 2
    it is no family cube, the sweep misses it, and the row is monitored.
    """
    if box_is_a_cube:
        return check_eq(row_id, "lambda_sharp(const c > 0) = c |box|^{-beta} in dim 1",
                        sharp.value, target, tol * (1.0 + target), {"cube": sharp.witness})
    return report_row(row_id, "lambda_sharp(const c > 0), the box not a family cube, in dim 1",
                      sharp.value, target, {"cube": sharp.witness})


def _counterexamples(cfg: ScenarioConfig) -> list[Check]:
    beta = cfg.beta
    tol = cfg.tolerances["identity_tol"]
    mode = cfg.cube_family

    def _max_adjacent_diff(b: GridFunction) -> float:
        return max(float(np.max(np.abs(np.diff(b.values, axis=a)))) for a in range(b.grid.dim))

    def symbol_rows(lb: str, lq: str, levels: list) -> list[Check]:
        rows: list[Check] = []
        stars: dict[int, float] = {}
        for n, grid_n, b, q in levels:
            h = grid_n.spacing
            is_const = float(np.ptp(b.values)) == 0.0
            lam = lambda_var(b, beta, q, mode)
            star = lambda_star(b, beta, q, mode)
            stars[n] = star.value
            lip = lip_seminorm(b, beta)
            if is_const:
                c = float(b.values.reshape(-1)[0])
                target = 2.0 * abs(c) * h ** (-beta)
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
                if c < 0.0:
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
                elif c > 0.0:
                    # M_Q c = c on every cube, so b - M_Q b vanishes.
                    rows.append(check_eq(
                        f"counterexamples/lambda-star-const/{lb}/{lq}/N{n}",
                        "lambda_star(const c > 0) = 0",
                        star.value, 0.0, tol, {"cube": star.witness},
                    ))
                    if grid_n.dim == 1 and n <= _SHARP_SWEEP_MAX[1]:
                        rows.append(_positive_const_sharp(
                            f"counterexamples/lambda-sharp-const/{lb}/{lq}/N{n}",
                            lambda_sharp(b, beta, q, mode), c * (n * h) ** (-beta),
                            n in family_sides(n, mode), tol))
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

    return [row for pair in _refined_pairs(cfg) for row in symbol_rows(*pair)]


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
        # A zero f stops theorem1-3 and an exponent with no admissible conjugate
        # stops lemmas; find them before any scenario computes.
        for name in ("theorem1", "theorem2", "theorem3"):
            _operand_bank(cfgs[name], cfgs[name].build_grid())
        _conjugable_bank(cfgs["lemmas"].build_grid(), cfgs["lemmas"].exponents)
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
