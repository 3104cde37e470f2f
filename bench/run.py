"""Benchmark for maxlip: one workload per run, timed per operation.

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree; it imports maxlip from ``src/``.
Workloads are ``verify``, ``compute`` and ``oracle`` (see README.md).
With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` every operation runs both plainly
and traced, and the JSON carries the per-layer metrics and the tracing
overhead.  The lines before it are a table for people.  Scratch files go
to ``.bench_out/`` under the root and are removed before the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import WORK_COUNTS, Tracer, layer_names
from timing import op_time, run_rounds, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "compute", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import maxlip, build the workload's inputs and exit")
    return parser.parse_args(argv)


def _isolate() -> None:
    """One thread, and no thread pool inside maxlip."""
    os.environ.pop("MAXLIP_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


class SetupTimer:
    """Times fresh processes that start, import maxlip and build the inputs.

    The samples are spread over the run, one due every ``seconds /
    SETUP_SAMPLES``, so that their median sees the same machine as the
    operations do rather than the first second of the run.
    """

    def __init__(self, args):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                     "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        self.due = [args.seconds * i / SETUP_SAMPLES for i in range(SETUP_SAMPLES)]
        self.start = time.perf_counter()
        self.samples: list[float] = []

    def _sample(self) -> None:
        start = time.perf_counter()
        subprocess.run(self.argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        self.samples.append(time.perf_counter() - start)

    def poll(self) -> None:
        """Take the samples that have fallen due."""
        while self.due and time.perf_counter() - self.start >= self.due[0]:
            self.due.pop(0)
            self._sample()

    def finish(self) -> list[float]:
        while self.due:
            self.due.pop(0)
            self._sample()
        return self.samples


class Measurement:
    """Runs operations, times them and keeps what each run of each did."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.plain = [[] for _ in ops]
        self.traced = [[] for _ in ops]
        self.layers = [[] for _ in ops]  # tracer snapshots per traced repeat
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.faults_seen: dict[str, str] = {}

    def execute(self, index: int, traced: bool = False) -> None:
        op = self.ops[index]
        if traced:
            self.tracer.reset()
            self.tracer.install()
        start = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # recorded as this operation's failure
            out = exc
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.uninstall()
            self.layers[index].append(self.tracer.snapshot())
        (self.traced if traced else self.plain)[index].append(elapsed)
        try:
            problem = op.check(out)
        except Exception as exc:  # an output the check cannot even read
            problem = f"check raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        if op.fault is None:
            self.unexpected.append(f"{op.name}: {problem}")
        else:
            self.faults_seen[op.name] = problem

    def both(self, index: int, traced_first: bool) -> None:
        for traced in (traced_first, not traced_first):
            self.execute(index, traced)

    def timed(self, indices=None, samples=None) -> float:
        """Sum of per-operation times over the timed (not known-faulty) operations."""
        samples = self.plain if samples is None else samples
        indices = range(len(self.ops)) if indices is None else indices
        return sum(op_time(samples[i]) for i in indices if self.ops[i].fault is None)

    def groups(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for i, op in enumerate(self.ops):
            if op.fault is None:
                out.setdefault(op.group, []).append(i)
        return out


def _round_totals(m: Measurement) -> list[float]:
    timed = [s for s, op in zip(m.plain, m.ops) if op.fault is None]
    return [sum(s[r] for s in timed) for r in range(min(len(s) for s in timed))]


def _print_table(m: Measurement, rounds: int, title: str) -> None:
    print(f"{title}: {len(m.ops)} operations x {rounds} rounds")
    for group, idx in m.groups().items():
        print(f"  {group:<24} {m.timed(idx):10.4f} s  ({len(idx)} ops)")
    totals = _round_totals(m)
    ref = spread(totals)
    print(f"  {'sum of op times':<24} {m.timed():10.4f} s")
    print(f"  {'whole rounds':<24} median {ref['median']:.4f} s, "
          f"quartiles {ref['q1']:.4f} .. {ref['q3']:.4f} s over {ref['n']} rounds")
    medians = sum(statistics.median(s) for s, op in zip(m.plain, m.ops) if op.fault is None)
    print(f"  {'sum of op medians':<24} {medians:10.4f} s")
    slowest = sorted(range(len(m.ops)), key=lambda i: -op_time(m.plain[i]))[:5]
    for i in slowest:
        print(f"    {m.ops[i].name:<40} {op_time(m.plain[i]):.4f} s")
    for name, problem in m.faults_seen.items():
        print(f"  known fault {name}: {problem}")
    for line in m.unexpected:
        print(f"  FAILED {line}")


def _layer_metrics(m: Measurement) -> dict:
    metrics: dict[str, dict] = {}
    for op, snaps in zip(m.ops, m.layers):
        if op.fault is None and any(s["calls"] != snaps[0]["calls"]
                                    or s["counts"] != snaps[0]["counts"] for s in snaps):
            m.unexpected.append(f"{op.name}: per-layer counts differ between repeats")
    for name in layer_names():
        calls = 0
        self_s = 0.0
        for i, snaps in enumerate(m.layers):
            if m.ops[i].fault is not None:
                continue
            calls += snaps[0]["calls"][name]
            self_s += op_time([s["self_s"][name] for s in snaps])
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    for name in WORK_COUNTS:
        total = sum(snaps[0]["counts"][name] for i, snaps in enumerate(m.layers)
                    if m.ops[i].fault is None)
        metrics[name] = {"value": total, "unit": "bytes" if name.endswith(".bytes") else "count"}
    from workloads import SCENARIOS

    groups = m.groups()
    for scenario in SCENARIOS:
        value = m.timed(groups.get(scenario, []))
        metrics[f"scenarios.{scenario}.wall_s"] = {"value": value, "unit": "s"}
    untraced = m.timed()
    traced = m.timed(samples=m.traced)
    metrics["tracing.untraced_wall_s"] = {"value": untraced, "unit": "s"}
    metrics["tracing.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    return metrics


def _print_layers(metrics: dict) -> None:
    """Layers by self time, with their share of all self time, then the counts."""
    total = sum(metrics[f"{n}.self_s"]["value"] for n in layer_names())
    print(f"  {'layer':<42} {'calls':>9} {'self_s':>10} {'share':>7}")
    for name in sorted(layer_names(), key=lambda n: -metrics[f"{n}.self_s"]["value"]):
        calls = metrics[f"{name}.calls"]["value"]
        if calls:
            self_s = metrics[f"{name}.self_s"]["value"]
            print(f"  {name:<42} {calls:>9} {self_s:>10.4f} {self_s / total:>7.1%}")
    for name in WORK_COUNTS:
        print(f"  {name:<42} {metrics[name]['value']:>9}")
    solves = metrics["luxemburg.lux_norm.calls"]["value"]
    if solves:
        evals = metrics["luxemburg.lux_norm.evals"]["value"]
        print(f"  modular evaluations per lux_norm solve: {evals / solves:.1f}")
    print(f"  tracing overhead {metrics['tracing.overhead_s']['value']:.4f} s on "
          f"{metrics['tracing.untraced_wall_s']['value']:.4f} s untraced")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "maxlip" / "__init__.py").is_file():
        print(f"bench: no maxlip sources under {SRC}", file=sys.stderr)
        return 2
    _isolate()
    import workloads

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.BUILDERS[args.workload](work, args.seed)
        return 0 if args.setup_only else _measure(args, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, ops) -> int:
    rng = random.Random(args.seed)
    if args.trace:
        m = Measurement(ops, Tracer())
        rounds = run_rounds(len(ops), args.seconds, rng,
                            lambda i: m.both(i, traced_first=rng.random() < 0.5))
        metrics = _layer_metrics(m)
        _print_table(m, rounds, f"{args.workload} (traced run, untraced times)")
        _print_layers(metrics)
    else:
        setup_timer = SetupTimer(args)
        m = Measurement(ops)

        def run_one(index: int) -> None:
            setup_timer.poll()
            m.execute(index)

        rounds = run_rounds(len(ops), args.seconds, rng, run_one)
        setup = setup_timer.finish()
        _print_table(m, rounds, args.workload)
        metrics = {
            "wall_s": {"value": m.timed(), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MiB"},
        }
        print(f"  setup {', '.join(f'{s:.3f}' for s in setup)} s; "
              f"peak RSS {metrics['peak_rss_mb']['value']:.1f} MiB")
    result = {
        "correct": not m.unexpected,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
