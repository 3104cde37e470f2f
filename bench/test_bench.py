"""Tests of the benchmark itself: its statistic, its checks and its tracer.

    python3 -m pytest bench/test_bench.py -q

They run the program, so they need ``src/`` next to ``bench/``.  The
slowest, the verify part split, runs five scenarios twice (about 40 s).
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import independent as ind  # noqa: E402
import report_diff  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402


# --- the timing statistic --------------------------------------------------

def test_quantile_known_answers():
    assert timing.quantile([3.0, 1.0, 2.0], 0.0) == 1.0
    assert timing.quantile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert timing.quantile([3.0, 1.0, 2.0], 1.0) == 3.0
    assert timing.quantile([1.0, 2.0, 3.0, 4.0], 0.25) == pytest.approx(1.75)
    assert timing.quantile([10.0, 0.0], 0.1) == pytest.approx(1.0)
    assert timing.quantile([5.0], 0.3) == 5.0
    with pytest.raises(ValueError):
        timing.quantile([], 0.5)


def test_op_time_ignores_slow_repeats():
    # A fast level of 4 ms with repeats stretched by a slow level of 1.6x.
    samples = [0.004 * (1.6 if i % 3 else 1.0) for i in range(30)]
    assert timing.op_time(samples) == pytest.approx(0.004)


def test_spread_quartiles_match_statistics_module():
    samples = [1.0, 2.0, 4.0, 8.0, 16.0]
    ref = timing.spread(samples)
    assert ref["median"] == 4.0 and ref["q1"] == 2.0 and ref["q3"] == 8.0


def test_run_rounds_stops_before_overrunning():
    clock = [0.0]
    visited = []

    def run_one(i):
        visited.append(i)
        clock[0] += 1.0  # every operation takes one second

    rounds = timing.run_rounds(3, 10.0, random.Random(0), run_one, clock=lambda: clock[0])
    assert rounds == 3  # a fourth round would end at 12 s
    assert sorted(visited) == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    clock[0] = 0.0
    assert timing.run_rounds(3, 1.0, random.Random(0), lambda i: run_one(i),
                             clock=lambda: clock[0]) == 1


# --- the checks catch wrong outputs ---------------------------------------

def _measure_one(op) -> run.Measurement:
    m = run.Measurement([op])
    m.execute(0)
    return m


def _corrupting(op, corrupt):
    call = op.call

    def wrong():
        result = call()
        corrupt()
        return result

    op.call = wrong
    return op


@pytest.fixture
def work(tmp_path):
    return tmp_path


def _nudge(out: Path) -> None:
    """Move every value of a CSV output by 1e-9, or a scalar output by 1e-8 relative."""
    text = out.read_text()
    if "," not in text:
        out.write_text(f"{float(text) * (1 + 1e-8)!r}\n")
        return
    header, *rows = text.splitlines()
    moved = [",".join(r.split(",")[:-1] + [repr(float(r.split(",")[-1]) + 1e-9)]) for r in rows]
    out.write_text("\n".join([header] + moved) + "\n")


def test_compute_outputs_pass_their_checks(work):
    ops = workloads.compute_ops(work, 3)
    m = run.Measurement(ops)
    for i in range(len(ops)):
        m.execute(i)
    assert m.failed == 0 and not m.unexpected


@pytest.mark.parametrize("name", ["hl-2d-32-full", "maxcomm-1d-256-full", "comm-sharp-2d-16-full",
                                  "local-2d-64", "lux-1d-4096-const", "lux-2d-64-affine",
                                  "lip-1d-4096-affine", "lambda-star-2d-16-dyadic"])
def test_compute_check_catches_a_nudged_output(work, name):
    op = {op.name: op for op in workloads.compute_ops(work, 5)}[name]
    m = _measure_one(_corrupting(op, lambda: _nudge(work / f"compute-{name}.out")))
    assert m.failed == 1 and m.unexpected, name


def test_compute_repeat_must_match_first(work):
    op = {op.name: op for op in workloads.compute_ops(work, 7)}["lip-2d-64-affine"]
    m = run.Measurement([op])
    m.execute(0)
    out = work / "compute-lip-2d-64-affine.out"
    _corrupting(op, lambda: out.write_text(out.read_text().strip() + "0\n"))
    m.execute(0)
    assert m.failed == 1 and "first repeat" in m.unexpected[0]


def test_verify_check_catches_a_flipped_row(work):
    op = next(op for op in workloads.verify_ops(work, 0) if op.name == "lemmas/q0")
    out = work / "verify-lemmas-q0.json"

    def flip():
        data = json.loads(out.read_text())
        data["checks"][0]["status"] = "fail"
        out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

    m = _measure_one(_corrupting(op, flip))
    assert m.failed == 1 and "hard rows failed" in m.unexpected[0]


def test_verify_closed_form_rows():
    row = {"check_id": "counterexamples/lambda-star-const/const-1/const2/N64",
           "lhs": 2.0 * 64**0.5, "rhs": 2.0 * 64**0.5, "status": "pass"}
    data = {"scenario": "counterexamples",
            "config": {"beta": 0.5, "grid": {"box_side": 1.0},
                       "functions": {"b": [{"kind": "const", "value": -1.0}]}},
            "checks": [row]}
    assert workloads._closed_form_rows(data) is None
    row["lhs"] *= 1 + 1e-8
    assert "2|c| h^-beta" in workloads._closed_form_rows(data)
    data["checks"] = [{"check_id": "counterexamples/lip-const/const-1/N32", "lhs": 1e-300,
                       "rhs": 0.0, "status": "pass"}]
    assert "expected 0" in workloads._closed_form_rows(data)


def test_known_faults_fail_but_stay_correct(work):
    ops = [op for op in workloads.verify_ops(work, 0) if op.fault]
    m = run.Measurement(ops)
    for i in range(len(ops)):
        m.execute(i)
    # Today every known fault shows; once one is mended it stops counting as failed.
    assert m.attempted == 4 and m.failed == len(m.faults_seen) and not m.unexpected


def test_oracle_check_rejects_a_deviation():
    assert workloads._check_deviation(1e-15) is None
    assert workloads._check_deviation(1e-9) is not None
    assert workloads._check_deviation(ValueError("guard")) is not None


# --- inputs and independent computations ----------------------------------

def test_compute_inputs_are_what_the_program_builds(work):
    from maxlip import build_exponent, build_function, make_grid

    for name, kind, dim, n, family in workloads.COMPUTE_CASES:
        cfg = workloads._compute_inputs(kind, dim, n, family, np.random.default_rng(1))
        g = make_grid(dim, n)
        for key in ("function", "symbol"):
            if key in cfg:
                got = build_function(g, cfg[key]).values
                assert np.array_equal(got, workloads._field(cfg[key], dim, n)), (name, key)
        if "exponent" in cfg:
            got = build_exponent(g, cfg["exponent"]).values.values
            assert np.array_equal(got, workloads._field(cfg["exponent"], dim, n)), name


def test_exact_sums_against_fsum():
    rng = np.random.default_rng(0)
    v = rng.uniform(-1, 1, (9, 9))
    sums = ind.ExactSums(v)
    assert sums.average((2, 3), 4) == math.fsum(v[2:6, 3:7].ravel().tolist()) / 16
    w = rng.uniform(-1, 1, 40)
    assert ind.ExactSums(w).average((5,), 7) == pytest.approx(
        math.fsum(w[5:12].tolist()) / 7, rel=1e-15)


def test_independent_operators_against_program():
    from maxlip import CubeFamilyMode, GridFunction, Cube, hl_max, local_max, make_grid, \
        max_commutator, sharp_max

    for dim, n in ((1, 20), (2, 7)):
        g = make_grid(dim, n)
        rng = np.random.default_rng(dim)
        v = rng.uniform(-1, 1, g.shape)
        w = rng.uniform(-1, 1, g.shape)
        f, b = GridFunction(g, v), GridFunction(g, w)
        for family, mode in (("full", CubeFamilyMode.FULL), ("dyadic", CubeFamilyMode.DYADIC_SIDES)):
            assert np.allclose(ind.maximal(v, family), hl_max(f, mode).values, rtol=0, atol=1e-13)
            assert np.allclose(ind.sharp(v, family), sharp_max(f, mode).values, rtol=0, atol=1e-13)
            cell = (n - 2,) * dim
            assert ind.max_commutator_at(w, v, cell, family) == pytest.approx(
                max_commutator(b, f, mode).values[cell], abs=1e-13)
        start = (1,) * dim
        assert np.allclose(ind.local_maximal(v, start, 4), local_max(f, Cube(start, 4)),
                           rtol=0, atol=1e-13)


# --- the verify parts cover the default rows ------------------------------

def test_verify_parts_rows_equal_default_rows():
    from maxlip import run_scenario

    by_scenario: dict[str, list] = {}
    for scenario, _, overlay in workloads.verify_parts():
        if overlay is not None:
            rows = [c.to_dict() for c in run_scenario(scenario, overlay).checks]
            by_scenario.setdefault(scenario, []).extend(rows)
    for scenario, rows in by_scenario.items():
        default = [c.to_dict() for c in run_scenario(scenario, None).checks]
        key = lambda r: r["check_id"]  # noqa: E731
        assert sorted(rows, key=key) == sorted(default, key=key), scenario


# --- the tracer ------------------------------------------------------------

def test_tracer_wraps_every_alias_and_restores():
    import maxlip
    import maxlip.lipschitz
    import maxlip.luxemburg
    import maxlip.scenarios

    original = maxlip.luxemburg.lux_norm
    tracer = spans.Tracer()
    tracer.install()
    try:
        names = tracer.installed_names()
        for alias in ("maxlip.scenarios.lux_norm", "maxlip.lipschitz.local_max",
                      "maxlip.lux_norm", "maxlip.luxemburg.lux_norm", "maxlip.cli.main",
                      "Report.render"):
            assert alias in names, alias
        assert maxlip.scenarios.lux_norm is not original
        assert maxlip.scenarios.lux_norm is maxlip.lipschitz.lux_norm
    finally:
        tracer.uninstall()
    assert maxlip.scenarios.lux_norm is original and maxlip.lux_norm is original


def test_tracer_self_time_and_work_counts():
    import maxlip.lipschitz
    from maxlip import build_exponent, build_function, make_grid

    g = make_grid(1, 16)
    b = build_function(g, {"kind": "random", "seed": 1, "low": 0.0, "high": 1.0})
    q = build_exponent(g, {"const": 2.0})
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = maxlip.lipschitz.opnorm_lower(
            maxlip.operators.OperatorTag.hl(), q, q, [b])
        norm = maxlip.luxemburg.lux_norm(b, q)
    finally:
        tracer.uninstall()
    assert result > 0
    calls = tracer.calls
    assert calls["lipschitz.opnorm_lower"] == 1
    assert calls["luxemburg.lux_norm"] == 2 * (1 + 136) + 1  # bank of b and 136 indicators
    assert calls["operators.hl_max"] == 137 and calls["grid.indicator"] == 136
    assert tracer.counts["luxemburg.lux_norm.evals"] >= norm.iterations * 1
    assert all(v >= 0.0 for v in tracer.self_s.values())
    assert tracer.self_s["lipschitz.opnorm_lower"] > 0.0


# --- the report diff -------------------------------------------------------

def _report(lhs: float, status: str = "pass", stamp: str = "2026-01-01T00:00:00+00:00") -> str:
    data = {"scenario": "lemmas", "version": "0.1.0", "timestamp": stamp, "config": {"beta": 0.5},
            "summary": {"checks": 1},
            "checks": [{"check_id": "lemmas/x", "anchor": "a", "relation": "le", "lhs": lhs,
                        "rhs": 1.0, "tolerance": 1e-9, "status": status, "witness": None}]}
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_report_diff_modes():
    assert report_diff.diff_identical(_report(0.5), _report(0.5, stamp="other")) == []
    assert report_diff.diff_identical(_report(0.5), _report(0.5 + 1e-15)) != []
    assert report_diff.diff_numeric(_report(0.5), _report(0.5 + 1e-15)) == []
    assert report_diff.diff_numeric(_report(0.5), _report(0.5 + 1e-9)) != []
    assert any("status" in line
               for line in report_diff.diff_numeric(_report(0.5), _report(0.5, "fail")))


def test_report_diff_compare_dirs(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    (old / "lemmas.json").write_text(_report(0.5))
    (new / "lemmas.json").write_text(_report(0.5, stamp="later"))
    assert report_diff.compare(old, new, "identical") == 0
    (new / "extra.json").write_text(_report(0.5))
    assert report_diff.compare(old, new, "identical") == 1


# --- the command -----------------------------------------------------------

def test_command_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
