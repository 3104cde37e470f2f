"""End-to-end runs of the named scenarios and the command line front end."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxlip

from maxlip import (
    KNOWN_SCENARIOS,
    ConfigError,
    ConvergenceError,
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


@pytest.mark.parametrize("error", [
    ConvergenceError("Newton budget exhausted", (1.0, 2.0)),
    MemoryError(),
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
