"""The package's public surface: each module's __all__, re-exported whole."""

import importlib
import pkgutil
import types

import maxlip

PUBLIC_NAMES = [
    "Check", "ConfigError", "ConvergenceError", "Cube", "CubeFamily", "CubeFamilyMode",
    "ExponentPair", "Grid", "GridFunction", "KNOWN_SCENARIOS", "LipResult", "NormResult",
    "OperatorTag", "Report", "ScenarioConfig", "VariableExponent", "apply_operator",
    "apply_stack", "build_exponent", "build_function", "build_pair", "check_cube", "check_eq",
    "check_ge", "check_le", "check_s_norm", "comm_m", "comm_sharp", "conjugate", "cube_blocks",
    "cube_duality_product", "cube_embedding_ratio", "cube_oscillation_rows", "cube_ratios",
    "cube_rows", "embedding_bound", "enumerate_cubes", "family_sides", "frac_max", "hl_max",
    "holder_constant", "holder_defect", "indicator", "indicator_norms", "indicator_stacks",
    "lambda_sharp", "lambda_star", "lambda_var", "lip_seminorm", "load_config", "local_max",
    "local_max_sweep", "lux_norm", "make_grid", "max_commutator", "max_commutator_at_cells",
    "modular", "new_report", "on_cubes", "opnorm_lower", "opnorm_lower_stacked", "oracle_check",
    "osc_norm_q", "parse_config", "read_gridfunction_csv", "report_from_json", "report_row",
    "run_scenario", "sample", "sharp_max", "split_exponents", "validate_p", "window_sums",
    "write_gridfunction_csv",
]


def test_the_package_exports_exactly_the_pinned_names_from_the_module_lists():
    exported = sorted(name for name, value in vars(maxlip).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert len(PUBLIC_NAMES) == 74
    assert exported == PUBLIC_NAMES
    declared = []
    for info in pkgutil.iter_modules(maxlip.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"maxlip.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert getattr(maxlip, name) is getattr(module, name), (info.name, name)
            declared.append(name)
    assert sorted(declared) == PUBLIC_NAMES
