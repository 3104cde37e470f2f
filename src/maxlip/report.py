"""Typed check rows and run reports, rendered as JSON or CSV.

A check row records one verified relation between two computed numbers.
Hard rows carry status pass/fail; monitored rows record observations that
are reported but never fail a run.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any

from .grid import Cube

__all__ = [
    "Check",
    "Report",
    "check_eq",
    "check_le",
    "check_ge",
    "report_row",
    "new_report",
    "report_from_json",
]

CSV_COLUMNS = ("check_id", "anchor", "relation", "lhs", "rhs", "tolerance", "status", "witness")


def _jsonable(value: Any) -> Any:
    """Flatten cubes, cells, and numpy scalars into plain JSON types."""
    if isinstance(value, Cube):
        return {"start": list(value.start), "side_cells": value.side_cells}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool):
        return value
    if hasattr(value, "item"):
        return value.item()
    return value


@dataclass
class Check:
    check_id: str
    anchor: str
    relation: str
    lhs: float
    rhs: float
    tolerance: float
    status: str
    witness: dict | None = None

    def to_dict(self) -> dict:
        return dict(vars(self), witness=_jsonable(self.witness))


def _finish(check_id: str, anchor: str, relation: str, lhs: float, rhs: float,
            tolerance: float, ok: bool, witness: dict | None) -> Check:
    return Check(check_id, anchor, relation, float(lhs), float(rhs), float(tolerance),
                 "pass" if ok else "fail", _jsonable(witness))


def check_eq(check_id: str, anchor: str, lhs: float, rhs: float, tolerance: float,
             witness: dict | None = None) -> Check:
    ok = abs(float(lhs) - float(rhs)) <= tolerance
    return _finish(check_id, anchor, "eq", lhs, rhs, tolerance, ok, witness)


def check_le(check_id: str, anchor: str, lhs: float, rhs: float, tolerance: float,
             witness: dict | None = None) -> Check:
    ok = float(lhs) <= float(rhs) + tolerance
    return _finish(check_id, anchor, "le", lhs, rhs, tolerance, ok, witness)


def check_ge(check_id: str, anchor: str, lhs: float, rhs: float, tolerance: float,
             witness: dict | None = None) -> Check:
    ok = float(lhs) >= float(rhs) - tolerance
    return _finish(check_id, anchor, "ge", lhs, rhs, tolerance, ok, witness)


def report_row(check_id: str, anchor: str, value: float, reference: float = 0.0,
               witness: dict | None = None) -> Check:
    """An observation row: recorded for inspection, never a failure."""
    return Check(check_id, anchor, "report", float(value), float(reference), 0.0, "monitored",
                 _jsonable(witness))


@dataclass
class Report:
    scenario: str
    version: str
    timestamp: str
    config: dict
    checks: list[Check] = field(default_factory=list)

    def _count(self, status: str) -> int:
        return sum(c.status == status for c in self.checks)

    passed = property(lambda self: self._count("pass"))
    failed = property(lambda self: self._count("fail"))
    monitored = property(lambda self: self._count("monitored"))

    @property
    def has_failures(self) -> bool:
        return self.failed > 0

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "version": self.version,
            "timestamp": self.timestamp,
            "config": self.config,
            "summary": {
                "checks": len(self.checks),
                "passed": self.passed,
                "failed": self.failed,
                "monitored": self.monitored,
            },
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for c in self.checks:
            writer.writerow([
                c.check_id,
                c.anchor,
                c.relation,
                repr(c.lhs),
                repr(c.rhs),
                repr(c.tolerance),
                c.status,
                json.dumps(_jsonable(c.witness), sort_keys=True) if c.witness else "",
            ])
        return buffer.getvalue()

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown report format {fmt!r}")


def new_report(scenario: str, config_echo: dict) -> Report:
    from . import __version__

    return Report(
        scenario=scenario,
        version=__version__,
        timestamp=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        config=config_echo,
        checks=[],
    )


def report_from_json(text: str) -> Report:
    data = json.loads(text)
    return Report(data["scenario"], data["version"], data["timestamp"], data["config"],
                  [Check(**row) for row in data["checks"]])
