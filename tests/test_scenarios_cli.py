"""End-to-end runs of the named scenarios and the command line front end."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import maxlip

from maxlip import (
    KNOWN_SCENARIOS,
    ConfigError,
    ConvergenceError,
    CubeFamilyMode,
    make_grid,
    parse_config,
    read_gridfunction_csv,
    report_from_json,
    run_scenario,
)
from maxlip.cli import main


def test_identities_scenario_passes():
    rep = run_scenario("identities", {"grid": {"dim": 1, "cells": 16}})
    assert not rep.has_failures
    assert rep.failed == 0
    assert rep.passed > 0
    ids = [c.check_id for c in rep.checks]
    assert len(ids) == len(set(ids))


def test_all_scenario_merges_subreports():
    rep = run_scenario(
        "all",
        {"grid": {"dim": 1, "cells": 8}, "refinements": [8, 16]},
    )
    assert not rep.has_failures
    assert rep.config["scenario"] == "all"
    assert set(rep.config["scenarios"]) == {
        "identities",
        "lemmas",
        "theorem1",
        "theorem2",
        "theorem3",
        "normequiv",
        "counterexamples",
    }


def test_counterexample_star_value_is_closed_form():
    rep = run_scenario(
        "counterexamples",
        {
            "grid": {"dim": 1},
            "beta": 0.5,
            "exponents": [{"const": 2.0}],
            "functions": {"b": [{"kind": "const", "value": -1.0}], "f": []},
            "refinements": [256],
        },
    )
    assert not rep.has_failures
    rows = [c for c in rep.checks if "lambda-star-const" in c.check_id and "N256" in c.check_id]
    assert rows
    assert rows[0].lhs == pytest.approx(32.0, rel=1e-6)
    assert rows[0].status == "pass"


def test_runs_are_deterministic():
    raw = {"grid": {"dim": 1, "cells": 16}}
    a = run_scenario("theorem1", raw).to_dict()
    b = run_scenario("theorem1", raw).to_dict()
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def test_unknown_scenario_and_key_rejected():
    with pytest.raises(ConfigError, match="unknown scenario"):
        run_scenario("theorem9")
    with pytest.raises(ConfigError, match=r"unknown keys \['grdi'\]"):
        run_scenario("identities", {"grdi": {}})


def test_config_echo_parses_back_to_itself():
    for scenario in KNOWN_SCENARIOS:
        echo = parse_config(scenario, None).echo()
        assert echo["tolerances"] == {"identity_tol": 1e-9}
        raw = {key: value for key, value in echo.items() if key != "scenario"}
        assert parse_config(scenario, raw).echo() == echo, scenario
    with pytest.raises(ConfigError, match=r"unknown keys \['oracle_tol'\]"):
        parse_config("lemmas", {"tolerances": {"oracle_tol": 1e-12}})


def test_report_json_round_trip(tmp_path):
    rep = run_scenario("identities", {"grid": {"dim": 1, "cells": 8}})
    path = tmp_path / "rep.json"
    path.write_text(rep.to_json())
    back = report_from_json(path.read_text())
    assert back.to_dict() == rep.to_dict()


def test_cli_verify_exits_zero_and_writes_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"dim": 1, "cells": 16}}))
    out = tmp_path / "rep.json"
    code = main(["verify", "identities", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["failed"] == 0
    assert payload["scenario"] == "identities"


def test_cli_failure_exit_code(tmp_path):
    # Zero tolerance turns benign solver residue into red rows.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"dim": 1, "cells": 16},
                "tolerances": {"identity_tol": 0.0},
            }
        )
    )
    assert main(["verify", "lemmas", "--config", str(cfg)]) == 1


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"exponents": [{"const": 1.0}]}))
    code = main(["verify", "lemmas", "--config", str(cfg)])
    assert code == 2
    assert "admissibility requires 1 < p_-" in capsys.readouterr().err


def test_cli_unwritable_out_exit_code(tmp_path, capsys):
    code = main(
        ["verify", "identities", "--out", "/nonexistent-dir/rep.json"]
    )
    assert code == 3
    assert "cannot write output" in capsys.readouterr().err


def test_cli_csv_format(tmp_path):
    out = tmp_path / "rep.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"dim": 1, "cells": 8}}))
    code = main(
        ["verify", "identities", "--config", str(cfg), "--format", "csv", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "check_id,anchor,relation,lhs,rhs,tolerance,status,witness"
    rep = run_scenario("identities", {"grid": {"dim": 1, "cells": 8}})
    assert len(lines) == 1 + len(rep.checks)


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "maxlip" in capsys.readouterr().out


def test_cli_builds_one_parser_and_keeps_no_state_between_calls(tmp_path, monkeypatch, capsys):
    built = []

    def counted():
        built.append(1)
        return real()

    real = maxlip.cli.build_parser
    monkeypatch.setattr(maxlip.cli, "build_parser", counted)
    maxlip.cli._parser.cache_clear()
    try:
        cfg, step = tmp_path / "cfg.json", tmp_path / "step.json"
        cfg.write_text(json.dumps({"grid": {"dim": 1, "cells": 8}}))
        step.write_text(json.dumps({"grid": {"dim": 1, "cells": 8}, "function": {
            "kind": "step", "left": 0.0, "right": 1.0, "split": 0.5}}))
        csv_out, json_out, hl_out = tmp_path / "r.csv", tmp_path / "r.json", tmp_path / "hl.csv"
        assert main(["verify", "identities", "--config", str(cfg), "--format", "csv",
                     "--out", str(csv_out)]) == 0
        assert csv_out.read_text().startswith("check_id,")
        # The csv format of the call before does not carry over: the default is json.
        assert main(["verify", "identities", "--config", str(cfg), "--out", str(json_out)]) == 0
        assert json.loads(json_out.read_text())["scenario"] == "identities"
        assert main(["compute", "hl", "--config", str(step), "--out", str(hl_out)]) == 0
        assert read_gridfunction_csv(hl_out, make_grid(1, 8)).values[0] == pytest.approx(0.5)
        for bad in (["verify", "no-such-scenario"], ["compute", "hl"], []):
            with pytest.raises(SystemExit) as exc:
                main(bad)
            assert exc.value.code == 2, bad
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert maxlip.__version__ in capsys.readouterr().out
        assert main(["verify", "identities", "--config", str(cfg), "--out", str(json_out)]) == 0
        assert len(built) == 1
    finally:
        maxlip.cli._parser.cache_clear()


def test_cli_compute_round_trip(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"dim": 1, "cells": 8},
                "function": {"kind": "step", "left": 0.0, "right": 1.0, "split": 0.5},
            }
        )
    )
    out = tmp_path / "hl.csv"
    assert main(["compute", "hl", "--config", str(cfg), "--out", str(out)]) == 0
    f = read_gridfunction_csv(out, make_grid(1, 8))
    # Every window holding cell 0 starts at 0; the full window wins with 4/8.
    assert f.values[-1] == pytest.approx(1.0)
    assert f.values[0] == pytest.approx(0.5)


def test_cli_compute_missing_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"dim": 1, "cells": 8}}))
    out = tmp_path / "x.csv"
    code = main(["compute", "hl", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert "requires 'function'" in capsys.readouterr().err


def test_cli_compute_scalar_output(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"dim": 1, "cells": 16},
                "beta": 0.5,
                "exponent": {"const": 2.0},
                "symbol": {"kind": "const", "value": -1.0},
            }
        )
    )
    out = tmp_path / "v.txt"
    assert main(["compute", "lambda-star", "--config", str(cfg), "--out", str(out)]) == 0
    assert float(out.read_text()) == pytest.approx(8.0, rel=1e-9)


@pytest.mark.parametrize("scenario, count", [
    ("identities", 6), ("lemmas", 18), ("theorem1", 0), ("theorem2", 0), ("theorem3", 0),
    ("normequiv", 0), ("counterexamples", 0),
])
def test_empty_banks_emit_no_vacuous_row(tmp_path, scenario, count):
    # A sweep over an empty bank emits no row, never a worst-case sentinel.
    raw = {"grid": {"cells": 8}, "functions": {"b": [], "f": []}}
    if scenario in ("normequiv", "counterexamples"):
        raw["refinements"] = [8, 16]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "r.json"
    assert main(["verify", scenario, "--config", str(cfg), "--out", str(out)]) == 0
    checks = report_from_json(out.read_text()).checks
    assert len(checks) == count
    assert not [c.check_id for c in checks if c.status == "fail"]
    assert not [c.check_id for c in checks if c.lhs in (-1.0, math.inf, -math.inf)]
    swept = ("unit-modular", "homogeneity", "s-norm", "holder", "split-holder")
    assert not [c.check_id for c in checks if c.check_id.split("/")[1] in swept]


@pytest.mark.parametrize("raw, message", [
    ({"grid": {"box_origin": None}}, "box_origin must be a number"),
    ({"exponents": [{"affine": [1, 2]}]}, "affine exponent spec must be an object"),
    ({"grid": {"cells": 8}, "tolerances": {"identity_tol": math.nan}}, "identity_tol must be finite"),
    ({"beta": None}, "beta must be a number"),
    ({"stability_factor": math.inf}, "stability_factor must be finite"),
    ({"functions": {"b": [7], "f": [7]}}, "function spec must be a dict"),
    ({"functions": {"b": [{"kind": "const", "value": "2"}], "f": [{"kind": "const", "value": "2"}]}},
     "'value' must be a number"),
    ({"functions": {"b": [7], "f": []}}, "function spec must be a dict"),
    ({"functions": {"b": [{"kind": "random", "seed": 1, "low": 2.0, "high": 1.0}],
                    "f": [{"kind": "random", "seed": 1, "low": 2.0, "high": 1.0}]}},
     "random function needs low <= high"),
])
def test_malformed_config_is_a_one_line_error(tmp_path, capsys, raw, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    for scenario in ("lemmas", "normequiv"):
        code = main(["verify", scenario, "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and message in err
        assert err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("grid", [{"dim": True}, {"cells": True}, {"dim": False, "cells": 8}],
                         ids=["dim-true", "cells-true", "dim-false"])
def test_a_bool_grid_dim_or_cells_is_a_config_error(tmp_path, capsys, grid):
    cfg, compute_cfg = tmp_path / "cfg.json", tmp_path / "compute.json"
    cfg.write_text(json.dumps({"grid": grid}))
    compute_cfg.write_text(json.dumps({"grid": grid, "function": {"kind": "const", "value": 1.0}}))
    runs = [["verify", scenario, "--config", str(cfg)] for scenario in KNOWN_SCENARIOS]
    runs.append(["compute", "hl", "--config", str(compute_cfg), "--out", str(tmp_path / "hl.csv")])
    for argv in runs:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: grid dim and cells must be integers")
        assert err.count("\n") == 1
    assert not (tmp_path / "hl.csv").exists()


@pytest.mark.parametrize("raw, label", [
    ({"functions": {"b": [{"kind": "const", "value": 1.0}]}, "refinements": [4, 8]}, "const1"),
    # The default step symbol (1 right of x = 0.5) is the constant 1 on this box.
    ({"grid": {"box_origin": 0.75}}, "step"),
    # Dyadic sides of N = 6 stop at 4, so the box is no family cube there.
    ({"grid": {"box_side": 2.0}, "functions": {"b": [{"kind": "const", "value": 2.0}]},
      "refinements": [6, 8]}, "const2"),
], ids=["const-plus-one", "step-off-its-jump", "box-not-a-cube"])
def test_counterexamples_of_a_positive_constant_pass(tmp_path, capsys, raw, label):
    cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
    cfg.write_text(json.dumps(raw))
    assert main(["verify", "counterexamples", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    report = report_from_json(out.read_text())
    mine = [c for c in report.checks if c.check_id.split("/")[2] == label]
    stars = [c for c in mine if c.check_id.split("/")[1] == "lambda-star-const"]
    sharps = [c for c in mine if c.check_id.split("/")[1] == "lambda-sharp-const"]
    assert stars and all(c.lhs == 0.0 and c.status == "pass" for c in stars)
    assert sharps
    box = report.config["grid"]["box_side"]
    c_value = 2.0 if label == "const2" else 1.0
    for check in sharps:
        n = int(check.check_id.rsplit("/N", 1)[1])
        assert check.rhs == pytest.approx(c_value * box ** -report.config["beta"], rel=1e-12)
        assert check.status == ("pass" if n & (n - 1) == 0 else "monitored")
        if check.status == "pass":
            assert check.lhs == pytest.approx(check.rhs, rel=1e-9)
    assert not [c for c in mine if c.check_id.split("/")[1] == "star-growth"]


@pytest.mark.parametrize("text", ["idx,value\n0,2\n1,2\n", "index,value\n0,2\n",
                                  "index,value\nx,2\n1,2\n", "index,value\n0,2\n5,2\n"],
                         ids=["bad-header", "missing-cell", "x-index", "cell-off-the-grid"])
def test_a_malformed_exponent_csv_is_a_config_error(tmp_path, capsys, text):
    table = tmp_path / "p.csv"
    table.write_text(text)
    scenario_cfg, compute_cfg = tmp_path / "scenario.json", tmp_path / "compute.json"
    scenario_cfg.write_text(json.dumps({"grid": {"cells": 2}, "exponents": [{"csv": str(table)}]}))
    compute_cfg.write_text(json.dumps({"grid": {"cells": 2}, "exponent": {"csv": str(table)},
                                       "function": {"kind": "const", "value": 1.0}}))
    for argv in (["verify", "lemmas", "--config", str(scenario_cfg)],
                 ["compute", "lux", "--config", str(compute_cfg), "--out", str(tmp_path / "o")]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad exponent csv {str(table)!r}: ")
        assert err.count("\n") == 1


def test_a_non_finite_sampled_function_is_a_config_error_without_warnings(tmp_path, capsys):
    # gamma -1 centred on the centre of cell 4 of 9 divides by zero there.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "grid": {"cells": 9}, "refinements": [9],
        "functions": {"b": [{"kind": "power", "gamma": -1.0, "center": 0.5}], "f": []}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scenario in ("counterexamples", "normequiv"):
            assert main(["verify", scenario, "--config", str(cfg)]) == 2
            assert capsys.readouterr().err == (
                "config error: power function: non-finite value at cell (4,)\n")


def test_an_overflowing_value_range_is_a_config_error_without_warnings(tmp_path, capsys):
    # Every pair difference of such a field overflows: the sweeps used to
    # print numpy's RuntimeWarning and report inf.
    table = tmp_path / "p.csv"
    table.write_text("index,value\n0,-1e308\n1,1e308\n")
    step = {"kind": "step", "left": -1e308, "right": 1e308}
    cases = [(["compute", "lip"], {"grid": {"cells": 8}, "symbol": step}, "step function"),
             (["verify", "counterexamples"],
              {"grid": {"cells": 8}, "refinements": [8], "functions": {"b": [step], "f": []}},
              "step function"),
             (["compute", "lux"], {"grid": {"cells": 2}, "exponent": {"csv": str(table)},
                                   "function": {"kind": "const", "value": 1.0}},
              f"exponent csv {str(table)!r}")]
    out = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command, raw, what in cases:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(raw))
            assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"config error: {what}: value range [-1e+308, 1e+308] overflows a float\n")
            assert not out.exists()


@pytest.mark.parametrize("command, raw, measure", [
    (["verify", "lemmas"], {"grid": {"box_side": 1e-320}}, "h^1 = 3.11261e-322"),
    (["verify", "theorem1"], {"grid": {"dim": 2, "cells": 8, "box_side": 1e-160}},
     "h^2 = 1.58101e-322"),
    (["compute", "lux"], {"grid": {"cells": 64, "box_side": 1e-320}, "exponent": {"const": 2.0},
                          "function": {"kind": "random", "seed": 1}}, "h^1 = 1.58101e-322"),
    (["compute", "hl"], {"grid": {"dim": 2, "cells": 8, "box_side": 1e-160},
                         "function": {"kind": "random", "seed": 1}}, "h^2 = 1.58101e-322"),
])
def test_a_cell_measure_below_the_normal_floats_is_a_config_error(tmp_path, capsys, command,
                                                                  raw, measure):
    # Such a box used to print numpy's RuntimeWarning and exit 4 from the solver.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: grid box_side ")
    assert captured.err.endswith(f"gives a cell measure {measure}, below the smallest normal "
                                 f"float 2.22507e-308\n")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


def test_the_smallest_normal_cell_measure_is_admitted():
    from maxlip.config import parse_grid

    tiny = float(np.finfo(float).tiny)
    assert parse_grid({"cells": 4, "box_side": 4 * tiny}, 32)[3] == 4 * tiny
    with pytest.raises(ConfigError, match="below the smallest normal float"):
        parse_grid({"cells": 4, "box_side": 4 * np.nextafter(tiny, 0.0)}, 32)
    side = 8 * math.sqrt(tiny) * (1 + 1e-15)
    assert (side / 8) ** 2 >= tiny
    assert parse_grid({"dim": 2, "cells": 8, "box_side": side}, 32)[3] == side
    with pytest.raises(ConfigError, match="h\\^2 = "):
        parse_grid({"dim": 2, "cells": 8, "box_side": 8 * math.sqrt(tiny) * (1 - 1e-15)}, 32)
    # A large box is not measured by a power that would overflow.
    assert parse_grid({"dim": 2, "cells": 2, "box_side": 1e308}, 32)[3] == 1e308


def test_zero_operand_is_refused_before_any_operator_runs(tmp_path, monkeypatch, capsys):
    # theorem1-3 divide by ||f||_p in their operator-norm rows, so a zero f
    # is a config error found when the f bank is built, not after the sweeps.
    def no_operator(*args, **kwargs):
        raise AssertionError("an operator ran before the f bank was checked")

    raw = {"grid": {"cells": 8},
           "functions": {"b": [{"kind": "const", "value": 1.0}],
                         "f": [{"kind": "const", "value": 0.0}]}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    for name in ("apply_stack", "comm_m", "comm_sharp", "frac_max", "hl_max", "sharp_max",
                 "max_commutator", "max_commutator_at_cells"):
        monkeypatch.setattr(f"maxlip.scenarios.{name}", no_operator, raising=False)
    for scenario in ("theorem1", "theorem2", "theorem3", "all"):
        code = main(["verify", scenario, "--config", str(cfg), "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 2, scenario
        assert err.startswith("config error: ") and "zero function" in err
        assert err.count("\n") == 1
    monkeypatch.undo()
    # lemmas has no operator-norm row and skips a zero f.
    assert main(["verify", "lemmas", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 0


def test_normequiv_past_the_exact_pair_limit_backs_no_hard_row_with_a_sampled_bound():
    # At 2-D N=65 the pair sweep samples, so Lip_beta is only a lower bound:
    # its ratio row is monitored and flagged, and no upper or constant row is emitted.
    rep = run_scenario("normequiv", {"grid": {"dim": 2}, "cube_family": "dyadic",
                                     "refinements": [65], "exponents": [{"const": 2.0}]})
    rows = {c.check_id: c for c in rep.checks}
    ratios = [c for i, c in rows.items() if i.startswith("normequiv/ratio/")]
    assert ratios and all(c.witness["lip_exact"] is False for c in ratios)
    assert not [i for i in rows if i.startswith(("normequiv/upper/", "normequiv/constant/"))]
    reductions = [c for i, c in rows.items() if i.startswith("normequiv/const-reduction/")]
    assert reductions and all(c.status == "pass" for c in reductions)


@pytest.mark.parametrize("scenario, n", [("counterexamples", 128), ("normequiv", 64),
                                         ("all", 64), ("identities", 64)])
def test_a_grid_over_the_cube_cell_limit_is_refused_before_computing(
        tmp_path, monkeypatch, capsys, scenario, n):
    import time

    import maxlip.scenarios

    def no_work(cfg):
        raise AssertionError("computed a grid over the limit")

    for name in maxlip.scenarios.SCENARIO_ORDER:
        monkeypatch.setitem(maxlip.scenarios._BUILDERS, name, no_work)
    cfg = tmp_path / "cfg.json"
    # Default refinements up to N=256 (counterexamples) and 128 (normequiv).
    raw = {"grid": {"dim": 2}} if scenario != "identities" else {"grid": {"dim": 2, "cells": 64}}
    cfg.write_text(json.dumps(raw))
    start = time.perf_counter()
    code = main(["verify", scenario, "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("config error: grid too large: ") and f"N = {n}," in err
    assert err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("p", [9.1e15, 1e16, 1e17, 1e308])
def test_all_refuses_an_exponent_with_no_admissible_conjugate_before_computing(monkeypatch, p):
    # Above 2^53, p/(p - 1) rounds to 1, so lemmas' Holder and duality rows have
    # no conjugate exponent to read.
    import re

    import maxlip.scenarios

    def no_work(cfg):
        raise AssertionError("a scenario computed")

    for name in maxlip.scenarios.SCENARIO_ORDER:
        monkeypatch.setitem(maxlip.scenarios._BUILDERS, name, no_work)
    with pytest.raises(ConfigError, match=re.escape(f"exponent const{p:g} has no admissible")):
        run_scenario("all", {"exponents": [{"const": p}]})


def test_every_default_grid_is_under_the_cube_cell_limit():
    from maxlip.config import MAX_CUBE_CELLS, cube_cells

    assert cube_cells(1, 4, CubeFamilyMode.FULL) == 4 * 1 + 3 * 2 + 2 * 3 + 1 * 4
    assert cube_cells(2, 4, CubeFamilyMode.DYADIC_SIDES) == 16 * 1 + 9 * 4 + 1 * 16
    largest = 0
    for name in KNOWN_SCENARIOS:
        cfg = parse_config(name, None)
        grids = cfg.refinements if name in ("normequiv", "counterexamples") else [cfg.cells]
        largest = max(largest, *(cube_cells(cfg.dim, n, cfg.cube_family) for n in grids))
    assert largest == 357760 < MAX_CUBE_CELLS  # normequiv, 1-D N=128, full family
    parse_config("normequiv", {"refinements": [256]})  # 2,829,056 cube cells
    with pytest.raises(ConfigError, match="grid too large"):
        parse_config("normequiv", {"refinements": [512]})


@pytest.mark.parametrize("error", [
    ConvergenceError("Newton budget exhausted", (1.0, 2.0)),
    MemoryError(),
    # A ValueError from inside the program is no config error.
    ValueError("operands could not be broadcast together"),
])
def test_internal_error_exit_code(tmp_path, monkeypatch, capsys, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("maxlip.cli.run_scenario", fail)
    assert main(["verify", "identities", "--out", str(tmp_path / "r.json")]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"internal error: {type(error).__name__}: ")
    assert err.count("\n") == 1


def test_unwritable_out_is_found_before_computing(tmp_path, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("computed before probing --out")

    monkeypatch.setattr("maxlip.cli.run_scenario", no_work)
    monkeypatch.setattr("maxlip.cli._run_compute", no_work)
    missing = str(tmp_path / "no-such-dir" / "rep.json")
    assert main(["verify", "identities", "--out", missing]) == 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"cells": 8}}))
    assert main(["compute", "hl", "--config", str(cfg), "--out", missing]) == 3
    assert main(["verify", "identities", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err.count("cannot write output") == 3
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


def test_python_dash_m_runs_the_cli(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"cells": 8}}))
    out = tmp_path / "rep.json"
    src = str(Path(maxlip.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "maxlip", "verify", "identities", "--config", str(cfg),
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(out.read_text())["scenario"] == "identities"


@pytest.mark.parametrize("error, code", [(OSError(28, "No space left on device"), 3),
                                         (MemoryError(), 4)])
@pytest.mark.parametrize("command", ["verify", "compute-csv", "compute-scalar"])
def test_failed_write_keeps_the_old_output(tmp_path, monkeypatch, capsys, error, code, command):
    scenario_cfg, compute_cfg = tmp_path / "scenario.json", tmp_path / "compute.json"
    scenario_cfg.write_text(json.dumps({"grid": {"cells": 8}}))
    compute_cfg.write_text(json.dumps({"grid": {"dim": 1, "cells": 8},
                                       "function": {"kind": "const", "value": 1.0},
                                       "exponent": {"const": 2.0}}))
    out = tmp_path / "out" / "result.txt"
    out.parent.mkdir()
    out.write_bytes(b"old bytes\n")
    argv = {"verify": ["verify", "identities", "--config", str(scenario_cfg), "--out", str(out)],
            "compute-csv": ["compute", "hl", "--config", str(compute_cfg), "--out", str(out)],
            "compute-scalar": ["compute", "lux", "--config", str(compute_cfg), "--out", str(out)]}
    writer = "write_gridfunction_csv" if command == "compute-csv" else "_write_text"

    def fail(*args):
        with open(args[0] if writer == "_write_text" else args[1], "w") as fh:
            fh.write("partial")
        raise error

    monkeypatch.setattr(f"maxlip.cli.{writer}", fail)
    assert main(argv[command]) == code
    assert out.read_bytes() == b"old bytes\n"
    assert os.listdir(out.parent) == ["result.txt"]
    assert capsys.readouterr().err.count("\n") == 1

    monkeypatch.undo()
    assert main(argv[command]) == 0
    assert out.read_bytes() != b"old bytes\n"
    assert os.listdir(out.parent) == ["result.txt"]


def test_output_that_is_not_a_regular_file_is_written_in_place(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"cells": 8}}))
    assert main(["verify", "identities", "--config", str(cfg), "--out", os.devnull]) == 0
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


@pytest.mark.parametrize("dim", [1, 2])
def test_cli_compute_local_writes_the_cube_cells(tmp_path, dim):
    from maxlip import Cube, build_function, local_max

    symbol = {"kind": "random", "seed": 5, "low": -1.0, "high": 1.0}
    start = [2] * dim
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"dim": dim, "cells": 7}, "symbol": symbol,
                               "cube": {"start": start, "side_cells": 3}}))
    out = tmp_path / "local.csv"
    assert main(["compute", "local", "--config", str(cfg), "--out", str(out)]) == 0
    values = local_max(build_function(make_grid(dim, 7), symbol), Cube(tuple(start), 3))
    header = "index,value" if dim == 1 else "i,j,value"
    lines = [header] + [",".join([*(str(s + c) for s, c in zip(start, cell)),
                                  f"{float(values[cell]):.17g}"])
                        for cell in np.ndindex(values.shape)]
    assert out.read_text().splitlines() == lines


@pytest.mark.parametrize("grid, family", [({"dim": 1, "cells": 12}, "full"),
                                          ({"dim": 2, "cells": 6}, "dyadic")])
def test_theorem3_ratio_rows_equal_the_per_cube_lux_norm_loop(grid, family):
    from maxlip import (build_exponent, build_function, enumerate_cubes, indicator, lux_norm,
                        max_commutator)
    from maxlip.catalog import exponent_label, function_label

    raw = {"grid": grid, "cube_family": family, "beta": 0.4,
           "exponents": [{"const": 2.0}, {"affine": {"a": 2.0, "b": 1.0}}],
           "functions": {"b": [{"kind": "affine", "a": 0.0, "b": 1.0},
                               {"kind": "random", "seed": 5, "low": -1.0, "high": 1.0}],
                         "f": [{"kind": "const", "value": 1.0}]}}
    cfg = parse_config("theorem3", raw)
    g, mode = cfg.build_grid(), cfg.cube_family
    rows = {c.check_id: c for c in run_scenario("theorem3", raw).checks}
    for b_spec in cfg.functions_b:
        b = build_function(g, b_spec)
        for q_spec in cfg.exponents:
            q = build_exponent(g, q_spec)
            osc, mb = {}, {}
            for cube in enumerate_cubes(g, mode):
                chi = indicator(g, cube)
                den = cube.measure(g) ** (cfg.beta / g.dim) * lux_norm(chi, q).value
                mean = float(np.mean(b.values[cube.slices()]))
                osc[cube] = lux_norm(abs(b - mean) * chi, q).value / den
                mb[cube] = lux_norm(max_commutator(b, chi, mode) * chi, q).value / den
            top = max(mb.values())
            labels = f"{function_label(b_spec)}/{exponent_label(q_spec)}"
            functional = rows[f"theorem3/mb-functional/{labels}"]
            assert functional.lhs == pytest.approx(top, rel=1e-12)
            witness = maxlip.Cube(tuple(functional.witness["cube"]["start"]),
                                  functional.witness["cube"]["side_cells"])
            assert mb[witness] == pytest.approx(top, rel=1e-12)
            dominated = rows[f"theorem3/ratio-dominated/{labels}"]
            assert dominated.lhs == pytest.approx(max(osc[c] - mb[c] for c in osc),
                                                  rel=0.0, abs=1e-12 * top)


@pytest.mark.parametrize("cube", [
    {"start": [True], "side_cells": 2.9}, {"start": [1], "side_cells": 2.9},
    {"start": [True], "side_cells": 2}, {"start": ["1"], "side_cells": "2"},
    {"start": [1.0], "side_cells": 2}, {"start": [1], "side_cells": True},
    {"start": 1, "side_cells": 2}, {"start": [1], "side_cells": None},
])
def test_a_cube_of_non_integers_is_a_config_error(tmp_path, capsys, cube):
    # int() used to take these: [true] with side 2.9 wrote the side-2 cube at 1.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"cells": 8}, "cube": cube,
                               "symbol": {"kind": "random", "seed": 5}}))
    out = tmp_path / "local.csv"
    assert main(["compute", "local", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: cube start must be a list of integers and side_cells an integer, "
        f"got {cube['start']!r} and {cube['side_cells']!r}\n")
    assert not out.exists()


# The theorem scenarios apply each operator once per stack and read every
# quantity they need off that one pass.

THEOREM3_CONFIGS = [
    {"grid": {"dim": 1, "cells": 12}, "cube_family": "full"},
    {"grid": {"dim": 2, "cells": 5}, "cube_family": "dyadic", "beta": 0.7},
    {"grid": {"dim": 1, "cells": 10}, "functions": {
        "b": [{"kind": "step", "left": -1.0, "right": 2.0, "split": 0.3}], "f": []}},
]


@pytest.mark.parametrize("raw", THEOREM3_CONFIGS, ids=["1d-full", "2d-dyadic", "no-f-bank"])
@pytest.mark.parametrize("cap_rows", [None, 2], ids=["real-cap", "two-rows"])
def test_theorem3_mb_rows_equal_on_cubes(monkeypatch, raw, cap_rows):
    """The M_b(chi_Q) rows theorem3 reads off its bound pass are on_cubes' rows bit for bit;
    a cap of two grid rows makes a stack hold both f bank and indicator rows."""
    from maxlip import OperatorTag, build_function, enumerate_cubes, on_cubes

    cfg = parse_config("theorem3", raw)
    g, mode = cfg.build_grid(), cfg.cube_family
    cubes = enumerate_cubes(g, mode)
    expected = [list(on_cubes(OperatorTag.max_commutator(build_function(g, spec)), g, cubes,
                              1.0, mode))
                for spec in cfg.functions_b]
    seen = []
    ratios = maxlip.scenarios.cube_ratios

    def capture(row_sets, *args):
        seen.append(row_sets[1])
        return ratios(row_sets, *args)

    monkeypatch.setattr(maxlip.scenarios, "cube_ratios", capture)
    if cap_rows:
        monkeypatch.setattr(maxlip.operators, "STACK_BYTES_MAX", cap_rows * 8 * g.cell_count)
    rows = run_scenario("theorem3", raw).checks
    q_count = len(cfg.exponents)
    assert len(seen) == len(expected) * q_count
    for i, rows_of_b in enumerate(expected):
        for got in seen[i * q_count:(i + 1) * q_count]:
            assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes())
                                                            for a in rows_of_b]
    kinds = {c.check_id.split("/")[1] for c in rows}
    assert {"pointwise-lower", "ratio-dominated", "mb-functional"} <= kinds
    assert ("opnorm" in kinds) == bool(cfg.functions_f)


def test_theorem3_applies_each_operator_once_per_stack(tmp_path, monkeypatch):
    from collections import Counter

    from maxlip import enumerate_cubes

    cfg = parse_config("theorem3", None)
    g = cfg.build_grid()
    cap_rows = 10
    monkeypatch.setattr(maxlip.operators, "STACK_BYTES_MAX", cap_rows * 8 * g.cell_count)
    members = len(cfg.functions_f) + len(enumerate_cubes(g, cfg.cube_family))
    stacks = -(-members // cap_rows)
    calls = []
    apply = maxlip.operators.apply_stack

    def counting(tag, grid, stack, *args):
        symbol = None if tag.symbol is None else tag.symbol.values.tobytes()
        calls.append((tag.kind, symbol, len(stack)))
        return apply(tag, grid, stack, *args)

    for module in (maxlip.operators, maxlip.lipschitz, maxlip.scenarios):
        monkeypatch.setattr(module, "apply_stack", counting)
    assert main(["verify", "theorem3", "--out", str(tmp_path / "r.json")]) == 0
    # Each M_b and M_beta: one call per stack of the f bank and the indicators.
    per_tag = Counter((kind, symbol) for kind, symbol, _ in calls)
    assert len(per_tag) == len(cfg.functions_b) + 1
    assert set(per_tag.values()) == {stacks}
    assert sum(rows for *_, rows in calls) == len(per_tag) * members


def test_theorem2_takes_the_sharp_rows_once_per_symbol(tmp_path, monkeypatch):
    cfg = parse_config("theorem2", None)
    assert len(cfg.exponents) > 1
    kinds = []
    on_cubes = maxlip.operators.on_cubes

    def counting(tag, *args):
        kinds.append(tag.kind)
        return on_cubes(tag, *args)

    for module in (maxlip.operators, maxlip.lipschitz, maxlip.scenarios):
        monkeypatch.setattr(module, "on_cubes", counting)
    assert main(["verify", "theorem2", "--out", str(tmp_path / "r.json")]) == 0
    # The mean recovery and lambda_sharp for every q share one M#(b chi_Q) per b.
    assert kinds == ["sharp"] * len(cfg.functions_b)


# Every config error the CLI can raise, one config per rule: exit 2, one
# stderr line, no output file.  An expected text ending in a newline is the
# whole line; one without is a prefix, for lines that embed an OS or JSON
# parser message.  A config of bytes is written as is, and None writes no
# file.  TMP in a config or a line stands for the test's directory.
# The multi-fault rows pin which of several faults is reported first.

_LEMMAS = ["verify", "lemmas"]


def _compute(op):
    return ["compute", op]


def _b_bank(*specs):
    return {"functions": {"b": list(specs), "f": []}}


CONFIG_ERRORS = [
    ("fn-unknown-key", _LEMMAS, _b_bank({"kind": "const", "extra": 1}),
     "unknown keys ['extra'] in const function spec\n"),
    ("exp-unknown-key", _LEMMAS, {"exponents": [{"affine": {"a": 2.0, "c": 1.0}}]},
     "unknown keys ['c'] in affine exponent spec\n"),
    ("exp-affine-not-object", _LEMMAS, {"pair_exponents": [{"affine": 2.0}]},
     "affine exponent spec must be an object, got 2.0\n"),
    ("fn-spec-not-object", _compute("lip"), {"symbol": 3},
     "function spec must be a dict with a 'kind' key, got 3\n"),
    ("power-center-short", _LEMMAS,
     {"grid": {"dim": 2, "cells": 4}, **_b_bank({"kind": "power", "center": [0.5]})},
     "power function center needs 2 coordinates, got [0.5]\n"),
    ("random-no-seed", _compute("lip"), {"symbol": {"kind": "random"}},
     "random function spec must carry an explicit seed\n"),
    ("random-seed-negative", _LEMMAS, _b_bank({"kind": "random", "seed": -1}),
     "random function seed must be a nonnegative integer, got -1\n"),
    ("random-seed-bool", _compute("lip"), {"symbol": {"kind": "random", "seed": True}},
     "random function seed must be a nonnegative integer, got True\n"),
    ("random-seed-float", _compute("lip"), {"symbol": {"kind": "random", "seed": 1.0}},
     "random function seed must be a nonnegative integer, got 1.0\n"),
    ("fn-kind-unknown", _compute("hl"), {"function": {"kind": "triangle"}},
     "unknown function kind 'triangle'\n"),
    ("fn-kind-unhashable", _compute("hl"), {"function": {"kind": [1]}},
     "unknown function kind [1]\n"),
    ("random-range-reversed", _compute("lip"),
     {"symbol": {"kind": "random", "seed": 1, "low": 2, "high": 1}},
     "random function needs low <= high with high - low finite, got [2, 1]\n"),
    ("exp-empty", _compute("lux"), {"exponent": {}, "function": {"kind": "const"}},
     "exponent spec must be a single-key dict, got {}\n"),
    ("exp-two-keys", _LEMMAS, {"exponents": [{"const": 2.0, "step": {}}]},
     "exponent spec must be a single-key dict, got {'const': 2.0, 'step': {}}\n"),
    ("exp-csv-not-path", _compute("lux"), {"exponent": {"csv": 3}, "function": {"kind": "const"}},
     "csv exponent spec needs a file path, got 3\n"),
    ("exp-csv-missing", _LEMMAS, {"exponents": [{"csv": "TMP/missing.csv"}]},
     "cannot read exponent csv 'TMP/missing.csv': "),
    ("exp-no-conjugate", _LEMMAS, {"exponents": [{"const": 1e16}]},
     "exponent const1e+16 has no admissible conjugate: exponent class violation: "
     "admissibility requires 1 < p_-, got p((0,)) = 1\n"),
    ("all-exp-no-conjugate", ["verify", "all"], {"exponents": [{"const": 1e308}]},
     "exponent const1e+308 has no admissible conjugate: exponent class violation: "
     "admissibility requires 1 < p_-, got p((0,)) = 1\n"),
    ("exp-key-unknown", _compute("lambda-var"),
     {"exponent": {"triadic": 2}, "symbol": {"kind": "const"}},
     "unknown exponent spec key 'triadic'\n"),
    ("config-missing", _LEMMAS, None, "cannot read config 'TMP/cfg.json': "),
    ("config-not-json", _compute("hl"), b"{", "config 'TMP/cfg.json' is not valid JSON: "),
    ("root-not-object", _LEMMAS, [1], "config root must be a JSON object\n"),
    ("compute-root-not-object", _compute("hl"), "text", "config root must be a JSON object\n"),
    ("grid-not-object", _LEMMAS, {"grid": 3}, "'grid' must be an object\n"),
    ("compute-grid-not-object", _compute("hl"), {"grid": [8], "function": {"kind": "const"}},
     "'grid' must be an object\n"),
    ("grid-unknown-key", _LEMMAS, {"grid": {"side": 1.0}}, "unknown keys ['side'] in grid config\n"),
    ("grid-dim-3", _LEMMAS, {"grid": {"dim": 3}}, "dim must be 1 or 2, got 3\n"),
    ("grid-cells-1", _compute("hl"), {"grid": {"cells": 1}, "function": {"kind": "const"}},
     "cells_per_axis must be an integer >= 2, got 1\n"),
    ("beta-out-of-range", _LEMMAS, {"beta": 1.5}, "beta must lie in (0, 1), got 1.5\n"),
    ("compute-beta-zero", _compute("frac"), {"beta": 0, "function": {"kind": "const"}},
     "beta must lie in (0, 1), got 0.0\n"),
    ("family-verify", _LEMMAS, {"cube_family": "triadic"},
     "unknown cube family 'triadic', expected 'full' or 'dyadic'\n"),
    ("family-compute", _compute("hl"), {"cube_family": "triadic", "function": {"kind": "const"}},
     "unknown cube family 'triadic', expected 'full' or 'dyadic'\n"),
    ("family-not-a-string", _LEMMAS, {"cube_family": 2},
     "unknown cube family 2, expected 'full' or 'dyadic'\n"),
    ("exponents-empty", _LEMMAS, {"exponents": []},
     "'exponents' must be a nonempty list of exponent specs\n"),
    ("exponents-not-a-list", _LEMMAS, {"exponents": {"const": 2.0}},
     "'exponents' must be a nonempty list of exponent specs\n"),
    ("pair-exponents-empty", _LEMMAS, {"pair_exponents": []},
     "'pair_exponents' must be a nonempty list of exponent specs\n"),
    ("functions-not-object", _LEMMAS, {"functions": []},
     "'functions' must be an object with keys 'b' and 'f'\n"),
    ("functions-unknown-key", _LEMMAS, {"functions": {"g": []}},
     "unknown keys ['g'] in functions config\n"),
    ("bank-not-a-list", _LEMMAS, {"functions": {"b": {}}},
     "function banks 'b' and 'f' must be lists of function specs\n"),
    ("tolerances-not-object", _LEMMAS, {"tolerances": 3}, "'tolerances' must be an object\n"),
    ("tolerance-negative", _LEMMAS, {"tolerances": {"identity_tol": -1.0}},
     "tolerances must be nonnegative\n"),
    ("stability-factor-one", _LEMMAS, {"stability_factor": 1},
     "stability_factor must exceed 1, got 1.0\n"),
    ("refinements-empty", _LEMMAS, {"refinements": []},
     "'refinements' must be a nonempty list of cell counts\n"),
    ("refinements-not-a-list", _LEMMAS, {"refinements": 8},
     "'refinements' must be a nonempty list of cell counts\n"),
    ("refinement-float", _LEMMAS, {"refinements": [8.0]},
     "refinement cell counts must be integers >= 2, got 8.0\n"),
    ("refinement-one", _LEMMAS, {"refinements": [1]},
     "refinement cell counts must be integers >= 2, got 1\n"),
    ("refinement-bool", _LEMMAS, {"refinements": [True, 8]},
     "refinement cell counts must be integers >= 2, got True\n"),
    ("refinements-repeat", _LEMMAS, {"refinements": [8, 8]},
     "'refinements' must be strictly increasing\n"),
    ("cube-missing-side", _compute("local"),
     {"grid": {"cells": 8}, "cube": {"start": [0]}, "symbol": {"kind": "const"}},
     "'cube' must be an object with keys 'start' and 'side_cells'\n"),
    ("cube-extra-key", _compute("local"),
     {"grid": {"cells": 8}, "cube": {"start": [0], "side_cells": 2, "end": 2},
      "symbol": {"kind": "const"}},
     "'cube' must be an object with keys 'start' and 'side_cells'\n"),
    ("cube-off-the-grid", _compute("local"),
     {"grid": {"cells": 8}, "cube": {"start": [6], "side_cells": 4}, "symbol": {"kind": "const"}},
     "cube start=(6,) side=4 leaves the 8-cell grid\n"),
    ("cube-wrong-dim", _compute("local"),
     {"grid": {"cells": 8}, "cube": {"start": [0, 0], "side_cells": 2},
      "symbol": {"kind": "const"}},
     "cube start (0, 0) does not match grid dim 1\n"),
    ("cube-side-zero", _compute("local"),
     {"grid": {"cells": 8}, "cube": {"start": [0], "side_cells": 0}, "symbol": {"kind": "const"}},
     "cube side must be a positive integer, got 0\n"),
    ("compute-unknown-key", _compute("hl"), {"grdi": {}, "function": {"kind": "const"}},
     "unknown keys ['grdi'] in compute config\n"),
    ("multi-compute-key-before-grid", _compute("hl"), {"grdi": {}, "grid": 3},
     "unknown keys ['grdi'] in compute config\n"),
    ("multi-compute-grid-before-family", _compute("hl"), {"grid": {"dim": 3}, "cube_family": "x"},
     "dim must be 1 or 2, got 3\n"),
    ("multi-compute-family-before-beta", _compute("frac"), {"cube_family": "x", "beta": 2},
     "unknown cube family 'x', expected 'full' or 'dyadic'\n"),
    ("multi-compute-beta-before-need", _compute("frac"), {"beta": 2},
     "beta must lie in (0, 1), got 2.0\n"),
    ("multi-compute-symbol-before-function", _compute("maxcomm"), {},
     "compute op 'maxcomm' requires 'symbol' in config\n"),
    ("multi-compute-exponent-before-function", _compute("lux"), {},
     "compute op 'lux' requires 'exponent' in config\n"),
    ("multi-compute-exponent-before-symbol", _compute("lambda-star"), {"symbol": {"kind": "x"}},
     "compute op 'lambda-star' requires 'exponent' in config\n"),
    ("multi-compute-cube-before-symbol", _compute("local"), {"symbol": {"kind": "x"}},
     "compute op 'local' requires 'cube' in config\n"),
    ("multi-key-before-seed", _compute("lip"), {"symbol": {"kind": "random", "extra": 1}},
     "unknown keys ['extra'] in random function spec\n"),
    ("multi-seed-before-low", _compute("lip"), {"symbol": {"kind": "random", "low": "x"}},
     "random function spec must carry an explicit seed\n"),
    ("multi-gamma-before-center", _compute("lip"),
     {"grid": {"dim": 2, "cells": 4}, "symbol": {"kind": "power", "gamma": "x", "center": [0.5]}},
     "power function spec 'gamma' must be a number, got 'x'\n"),
    ("multi-left-before-split", _compute("lip"),
     {"symbol": {"kind": "step", "left": None, "split": None}},
     "step function spec 'left' must be a number, got None\n"),
    ("multi-sine-amplitude-before-offset", _compute("lip"),
     {"symbol": {"kind": "sine", "offset": None, "amplitude": None}},
     "sine function spec 'amplitude' must be a number, got None\n"),
    ("multi-exp-right-before-split", _LEMMAS, {"exponents": [{"step": {"right": None, "split": None}}]},
     "step exponent spec 'right' must be a number, got None\n"),
    ("multi-exp-a-before-b", _LEMMAS, {"exponents": [{"affine": {"a": None, "b": None}}]},
     "affine exponent spec 'a' must be a number, got None\n"),
    ("multi-verify-key-before-grid", _LEMMAS, {"grdi": 1, "grid": 3},
     "unknown keys ['grdi'] in config\n"),
    ("multi-verify-grid-before-family", _LEMMAS, {"grid": {"dim": 3}, "cube_family": "x"},
     "dim must be 1 or 2, got 3\n"),
    ("multi-verify-family-before-beta", _LEMMAS, {"cube_family": "x", "beta": 2},
     "unknown cube family 'x', expected 'full' or 'dyadic'\n"),
    ("multi-verify-exponents-before-pairs", _LEMMAS, {"exponents": [], "pair_exponents": []},
     "'exponents' must be a nonempty list of exponent specs\n"),
    ("multi-verify-tolerance-before-stability", _LEMMAS, {"tolerances": 3, "stability_factor": 0},
     "'tolerances' must be an object\n"),
]


@pytest.mark.parametrize("command, raw, expected", [case[1:] for case in CONFIG_ERRORS],
                         ids=[case[0] for case in CONFIG_ERRORS])
def test_every_config_error_is_one_line_with_exit_2(tmp_path, capsys, command, raw, expected):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    if isinstance(raw, bytes):
        cfg.write_bytes(raw)
    elif raw is not None:
        cfg.write_text(json.dumps(raw).replace("TMP", str(tmp_path)))
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    line = "config error: " + expected.replace("TMP", str(tmp_path))
    if line.endswith("\n"):
        assert captured.err == line
    else:
        assert captured.err.startswith(line) and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_a_config_root_that_is_no_object_is_refused_by_parse_config():
    # load_config refuses it first on the command line.
    with pytest.raises(ConfigError, match="^config root must be a JSON object$"):
        parse_config("lemmas", [1])


def test_compute_lux_under_a_huge_constant_exponent_is_finite(tmp_path, capsys):
    # It used to write nan and print numpy's RuntimeWarning four times.
    cfg, out = tmp_path / "cfg.json", tmp_path / "lux.txt"
    cfg.write_text(json.dumps({"grid": {"cells": 8}, "function": {"kind": "const"},
                               "exponent": {"const": 1e300}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compute", "lux", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert float(out.read_text()) == pytest.approx(1.0, rel=1e-12, abs=0.0)


# M#(chi_Q) = 1/2 on Q needs, at every cell of Q, a family cube through the
# cell with exactly half its cells in Q; identities checks it on those Q only.

def _half_overlap_by_definition(grid, mode):
    """The indices of the family cubes Q that every cell of Q reaches through
    some family cube holding it with exactly half its cells in Q."""
    cubes = maxlip.enumerate_cubes(grid, mode)
    cells = np.zeros((len(cubes), *grid.shape), dtype=np.int64)
    for row, cube in zip(cells, cubes):
        row[cube.slices()] = 1
    cells = cells.reshape(len(cubes), -1)
    half = 2 * (cells @ cells.T) == cells.sum(axis=1)[None, :]  # [Q, P]: |P & Q| = |P| / 2
    reached = (half.astype(np.int64) @ cells) > 0
    return np.flatnonzero(np.all(reached >= cells.astype(bool), axis=1))


@pytest.mark.parametrize("dim, n, family, count", [
    (1, 9, "full", 30), (1, 12, "dyadic", 32), (2, 6, "full", 21), (2, 7, "full", 32),
    (2, 8, "dyadic", 54),
])
def test_half_overlap_eligible_cubes_match_the_definition(dim, n, family, count):
    from maxlip.scenarios import _half_overlap_eligible

    grid, mode = make_grid(dim, n), CubeFamilyMode.parse(family)
    expected = _half_overlap_by_definition(grid, mode)
    assert expected.size == count
    assert np.array_equal(_half_overlap_eligible(grid, mode), expected)


@pytest.mark.parametrize("n, family, count", [(6, "full", 21), (8, "dyadic", 54)])
def test_two_dim_identities_pass_on_the_half_overlap_cubes(n, family, count):
    rep = run_scenario("identities", {"grid": {"dim": 2, "cells": n}, "cube_family": family})
    assert not [c.check_id for c in rep.checks if c.status == "fail"]
    (sharp,) = [c for c in rep.checks if c.check_id == "identities/sharp-on-cube"]
    assert sharp.witness["eligible_cubes"] == count


@pytest.mark.parametrize("spec, label", [
    ({"kind": "const"}, "const1"), ({"kind": "const", "value": 3}, "const3"),
    ({"kind": "affine"}, "affine(0,1)"), ({"kind": "affine", "a": 2, "b": -0.5}, "affine(2,-0.5)"),
    ({"kind": "power"}, "power0.5"), ({"kind": "power", "gamma": 2, "center": 0.5}, "power2"),
    ({"kind": "step", "left": 3}, "step"), ({"kind": "sine", "frequency": 2}, "sine"),
    ({"kind": "random", "seed": 7, "high": 2}, "random7"),
])
def test_function_labels_read_the_spec_or_its_defaults(spec, label):
    from maxlip.catalog import function_label

    maxlip.build_function(make_grid(1, 4), spec)
    assert function_label(spec) == label


@pytest.mark.parametrize("spec, label", [
    ({"const": 3}, "const3"), ({"const": 2.5}, "const2.5"), ({"affine": {}}, "affine(2,0)"),
    ({"affine": {"b": 1}}, "affine(2,1)"), ({"step": {}}, "step(2,4)"),
    ({"step": {"right": 3, "split": 0.2}}, "step(2,3)"),
])
def test_exponent_labels_read_the_spec_or_its_defaults(spec, label):
    from maxlip.catalog import exponent_label

    maxlip.build_exponent(make_grid(1, 4), spec)
    assert exponent_label(spec) == label
