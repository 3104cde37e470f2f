"""Grid-level laboratory for maximal operators, their commutators, and
Lipschitz-type oscillation functionals measured in variable-exponent norms.

Everything is exact on a fixed cell-centered grid: integrals are plain cell
sums, cubes are axis-aligned blocks of cells, and every fast code path has a
slow independent counterpart used by the test oracles.
"""

__version__ = "0.1.0"

from .catalog import ConfigError, build_exponent, build_function
from .config import KNOWN_SCENARIOS, ScenarioConfig, load_config, parse_config
from .exponents import (
    ExponentPair,
    VariableExponent,
    build_pair,
    conjugate,
    log_holder_constant,
    split_exponents,
    validate_p,
)
from .grid import (
    Cube,
    CubeFamilyMode,
    Grid,
    GridFunction,
    average,
    check_cube,
    cube_rows,
    cubes_by_side,
    cubes_containing,
    enumerate_cubes,
    family_sides,
    indicator,
    integrate,
    make_grid,
    read_gridfunction_csv,
    sample,
    side_runs,
    window_sums,
    write_gridfunction_csv,
)
from .lipschitz import (
    LipResult,
    cube_oscillation_rows,
    cube_ratios,
    lambda_sharp,
    lambda_star,
    lambda_var,
    lip_seminorm,
    opnorm_lower,
    opnorm_lower_stacked,
    osc_norm_q,
)
from .luxemburg import (
    ConvergenceError,
    NormResult,
    check_s_norm,
    cube_duality_product,
    cube_embedding_ratio,
    embedding_bound,
    holder_constant,
    holder_defect,
    indicator_norms,
    lux_norm,
    modular,
)
from .operators import (
    OperatorTag,
    apply_operator,
    apply_stack,
    comm_m,
    comm_sharp,
    cube_blocks,
    frac_max,
    hl_max,
    indicator_stacks,
    local_max,
    local_max_sweep,
    max_commutator,
    max_commutator_at_cells,
    on_cubes,
    oracle_check,
    sharp_max,
)
from .report import (
    Check,
    Report,
    check_eq,
    check_ge,
    check_le,
    new_report,
    report_from_json,
    report_row,
)
from .scenarios import run_scenario
