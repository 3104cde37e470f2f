"""Per-layer tracing from outside the program.

The tracer replaces public functions of maxlip's modules with wrappers
that record one span per call.  A wrapper is installed under every name
that holds the function: the defining module's, every module that
imported it (``maxlip.scenarios.lux_norm``, ``maxlip.lipschitz.local_max``)
and the package's.  Spans nest on one stack, so each closing span knows
its parent; a layer's self time is its duration minus the time its child
spans cover.  Spans are folded into per-layer totals as they close, which
keeps memory flat however many calls a run makes.

Private helpers (``_lux_solve_batch``, ``_windowed_cell_max``) are not
wrapped: their time shows in their public callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable

# (module, attribute path) of every traced layer, in report order.
LAYERS: tuple[tuple[str, str], ...] = (
    ("operators", "hl_max"),
    ("operators", "sharp_max"),
    ("operators", "frac_max"),
    ("operators", "local_max"),
    ("operators", "max_commutator"),
    ("operators", "max_commutator_at_cells"),
    ("operators", "comm_m"),
    ("operators", "comm_sharp"),
    ("operators", "oracle_check"),
    ("grid", "window_sums"),
    ("grid", "indicator"),
    ("grid", "enumerate_cubes"),
    ("grid", "write_gridfunction_csv"),
    ("luxemburg", "lux_norm"),
    ("luxemburg", "modular"),
    ("luxemburg", "holder_defect"),
    ("luxemburg", "check_s_norm"),
    ("luxemburg", "cube_duality_product"),
    ("luxemburg", "cube_embedding_ratio"),
    ("lipschitz", "cube_oscillation_rows"),
    ("lipschitz", "lip_seminorm"),
    ("lipschitz", "osc_norm_q"),
    ("lipschitz", "opnorm_lower"),
    ("exponents", "validate_p"),
    ("exponents", "build_pair"),
    ("config", "parse_config"),
    ("catalog", "build_function"),
    ("catalog", "build_exponent"),
    ("scenarios", "run_scenario"),
    ("report", "Report.render"),
    ("cli", "main"),
)


def _bytes(text) -> int:
    return len(text.encode("utf-8"))


# Work counts: metric name -> (layer, function of the layer's return value).
WORK_COUNTS: dict[str, tuple[str, Callable[[object], int]]] = {
    "luxemburg.lux_norm.evals": ("luxemburg.lux_norm", lambda r: r.iterations),
    "lipschitz.cube_oscillation_rows.cubes": ("lipschitz.cube_oscillation_rows", len),
    "scenarios.run_scenario.rows": ("scenarios.run_scenario", lambda r: len(r.checks)),
    "report.render.bytes": ("report.Report.render", _bytes),
}


def layer_names() -> list[str]:
    return [f"{module}.{attr}" for module, attr in LAYERS]


class Tracer:
    """Installs span-recording wrappers and folds spans into per-layer totals."""

    def __init__(self, package: str = "maxlip"):
        self.package = package
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        names = layer_names()
        self.calls = dict.fromkeys(names, 0)
        self.self_s = dict.fromkeys(names, 0.0)
        self.counts = dict.fromkeys(WORK_COUNTS, 0)
        self._stack = []

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counters = [(metric, measure) for metric, (layer, measure) in WORK_COUNTS.items()
                    if layer == name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frames = self._stack
            span = [0.0]  # time covered by child spans
            frames.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                frames.pop()
                if frames:
                    frames[-1][0] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - span[0]
            for metric, measure in counters:
                self.counts[metric] += measure(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer under every name that refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = {name: importlib.import_module(f"{self.package}.{name}") for name, _ in LAYERS}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for module_name, attr in LAYERS:
            owner = owners[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(f"{module_name}.{attr}", original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module_name}.{attr}", original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, target, attr: str, wrapper) -> None:
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches = []

    def installed_names(self) -> list[str]:
        """Every ``module.attr`` that currently holds a wrapper (for tests)."""
        return sorted(f"{t.__name__}.{a}" for t, a, _ in self._patches)
