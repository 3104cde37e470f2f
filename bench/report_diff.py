"""Compare two sets of ``maxlip verify`` reports.

    python3 bench/report_diff.py collect OUT_DIR [--commit REV]
    python3 bench/report_diff.py compare OLD_DIR NEW_DIR --mode identical|numeric

``collect`` writes one JSON report per default scenario into OUT_DIR,
running ``maxlip verify <scenario> --out`` at the scenario defaults.
Without ``--commit`` it runs the sources under ``src/``; with it, it first
extracts ``src/`` of that commit (``git archive``) into a scratch
directory, so a reference set is made on demand and none is committed.

``compare`` checks every report of OLD_DIR against the one of the same
name in NEW_DIR:

  identical  byte-identical apart from the ``timestamp`` value, for
             refactors;
  numeric    the same rows by id, no status flip, and every number within
             1e-12 * (1 + |old|), for numerical changes.

It prints one line per difference and exits 0 when there is none, 1 when
there is, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from workloads import SCENARIOS, TIMESTAMP

ROOT = Path(__file__).resolve().parent.parent
REL_TOL = 1e-12
_RUN_CLI = "import sys; sys.path.insert(0, sys.argv[1]); from maxlip.cli import main; " \
           "sys.exit(main(sys.argv[2:]))"


def collect(out_dir: Path, commit: str | None) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="report-diff-", dir=ROOT / ".bench_out")) \
        if commit else None
    try:
        src = ROOT / "src"
        if commit:
            archive = scratch / "src.tar"
            with open(archive, "wb") as fh:
                subprocess.run(["git", "archive", commit, "src"], cwd=ROOT, stdout=fh, check=True)
            with tarfile.open(archive) as tar:
                tar.extractall(scratch, filter="data")
            src = scratch / "src"
        env = {k: v for k, v in os.environ.items() if k != "MAXLIP_THREADS"}
        for scenario in SCENARIOS:
            out = out_dir / f"{scenario}.json"
            code = subprocess.run([sys.executable, "-c", _RUN_CLI, str(src), "verify", scenario,
                                   "--out", str(out)], env=env).returncode
            print(f"{scenario}: exit {code}")
    finally:
        if scratch:
            shutil.rmtree(scratch, ignore_errors=True)
    return 0 if all((out_dir / f"{s}.json").is_file() for s in SCENARIOS) else 1


def _numbers_close(old, new, path: str, out: list[str]) -> None:
    if isinstance(old, bool) or isinstance(new, bool) or isinstance(old, str):
        if old != new:
            out.append(f"{path}: {old!r} -> {new!r}")
    elif isinstance(old, (int, float)) and isinstance(new, (int, float)):
        if abs(new - old) > REL_TOL * (1.0 + abs(old)):
            out.append(f"{path}: {old!r} -> {new!r}")
    elif isinstance(old, dict) and isinstance(new, dict):
        if set(old) != set(new):
            out.append(f"{path}: keys {sorted(old)} -> {sorted(new)}")
        for key in sorted(set(old) & set(new)):
            _numbers_close(old[key], new[key], f"{path}.{key}", out)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            _numbers_close(a, b, f"{path}[{i}]", out)
    elif old != new:
        out.append(f"{path}: {old!r} -> {new!r}")


def diff_identical(old_text: str, new_text: str) -> list[str]:
    if TIMESTAMP.sub("", old_text) == TIMESTAMP.sub("", new_text):
        return []
    old_lines = TIMESTAMP.sub("", old_text).splitlines()
    new_lines = TIMESTAMP.sub("", new_text).splitlines()
    for i, (a, b) in enumerate(zip(old_lines, new_lines)):
        if a != b:
            return [f"line {i + 1}: {a.strip()} -> {b.strip()}"]
    return [f"length {len(old_lines)} -> {len(new_lines)} lines"]


def diff_numeric(old_text: str, new_text: str) -> list[str]:
    old, new = json.loads(old_text), json.loads(new_text)
    out: list[str] = []
    _numbers_close(old["config"], new["config"], "config", out)
    old_rows = {r["check_id"]: r for r in old["checks"]}
    new_rows = {r["check_id"]: r for r in new["checks"]}
    for rid in sorted(set(old_rows) ^ set(new_rows)):
        out.append(f"{rid}: only in {'old' if rid in old_rows else 'new'}")
    for rid in [r["check_id"] for r in old["checks"] if r["check_id"] in new_rows]:
        a, b = dict(old_rows[rid]), dict(new_rows[rid])
        old_status, new_status = a.pop("status"), b.pop("status")
        if old_status != new_status:
            out.append(f"{rid}: status {old_status} -> {new_status}")
        _numbers_close(a, b, rid, out)
    return out


def compare(old_dir: Path, new_dir: Path, mode: str) -> int:
    diff = diff_identical if mode == "identical" else diff_numeric
    old_names = sorted(p.name for p in old_dir.glob("*.json"))
    new_names = sorted(p.name for p in new_dir.glob("*.json"))
    problems = [f"{n}: only in {old_dir}" for n in old_names if n not in new_names]
    problems += [f"{n}: only in {new_dir}" for n in new_names if n not in old_names]
    for name in (n for n in old_names if n in new_names):
        old_text = (old_dir / name).read_text(encoding="utf-8")
        new_text = (new_dir / name).read_text(encoding="utf-8")
        problems += [f"{name}: {line}" for line in diff(old_text, new_text)]
    for line in problems:
        print(line)
    print(f"{len(old_names)} reports compared ({mode}): "
          f"{'no differences' if not problems else f'{len(problems)} differences'}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="write one verify report per default scenario")
    c.add_argument("out_dir", type=Path)
    c.add_argument("--commit", default=None, help="run the sources of this commit instead")
    d = sub.add_parser("compare", help="compare two report sets")
    d.add_argument("old_dir", type=Path)
    d.add_argument("new_dir", type=Path)
    d.add_argument("--mode", choices=("identical", "numeric"), required=True)
    args = parser.parse_args(argv)
    if args.command == "collect":
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        return collect(args.out_dir, args.commit)
    return compare(args.old_dir, args.new_dir, args.mode)


if __name__ == "__main__":
    sys.exit(main())
