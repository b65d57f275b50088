"""Per-layer spans for the traced run, recorded from the benchmark's side.

``Tracer.install`` replaces each target function with a wrapper in every
``groverdyn`` module that holds a reference to it (``from .core import
load_state`` makes a second reference in ``harness``), so no file of the
package is edited.  Each wrapper records a span: layer name, start, end,
the enclosing span and counts taken from the call.  Spans stay in memory
until ``layer_metrics`` turns them into per-layer figures.

A target that no longer exists, say after a refactor renames it, is
reported by ``missing`` and every metric that reads its span is left
out, so a rename shows as a missing span rather than as zero time.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

# One Grover step reads the vector for its mean, then reads and writes it
# for the reflection: three passes over 16-byte complex128 amplitudes.
# The r-element oracle flip is left out.  The figure is computed from N,
# not measured.
KERNEL_BYTES_PER_AMPLITUDE = 3 * 16


@dataclass
class Span:
    name: str
    parent: Span | None
    start: float = 0.0
    end: float = 0.0
    child_time: float = 0.0
    counts: dict = field(default_factory=dict)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(index: int, name: str) -> Callable:
    return lambda args, kwargs, _: {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}


def _kernel_counts(args, kwargs, _):
    steps = _arg(args, kwargs, 2, "steps")
    amps = _arg(args, kwargs, 0, "amps")
    return {"steps": steps, "bytes": steps * KERNEL_BYTES_PER_AMPLITUDE * len(amps)}


def _optimizer_counts(args, kwargs, result):
    useful = sum(abs(v - result.p_max) <= 1e-9 for v in result.best_per_restart)
    return {"restarts": result.restarts_used, "useful": useful}


@dataclass(frozen=True)
class Target:
    """A function wrapped as a span: ``attr`` may be ``Class.method``."""

    span: str
    module: str
    attr: str
    count: Callable | None = None


TARGETS = (
    Target("kernels.run_grover", "groverdyn._kernels", "run_grover", _kernel_counts),
    Target("core.moments", "groverdyn.core", "moments"),
    Target("core.moments", "groverdyn.core", "_moments_from_array"),
    Target("core.save_state", "groverdyn.core", "save_state", _file_bytes(1, "path")),
    Target("core.load_state", "groverdyn.core", "load_state", _file_bytes(0, "path")),
    Target("simulator.evolve", "groverdyn.simulator", "evolve",
           lambda a, kw, _: {"steps": _arg(a, kw, 2, "t_max")}),
    Target("simulator.write_csv", "groverdyn.simulator", "Trajectory.write_csv"),
    Target("analytic.compute_params", "groverdyn.analytic", "compute_params"),
    Target("analytic.averaged_success", "groverdyn.analytic", "averaged_success"),
    Target("dynamics.classify", "groverdyn.dynamics", "classify"),
    Target("dynamics.detect_cycle", "groverdyn.dynamics", "detect_cycle"),
    Target("groverian.optimize_product", "groverdyn.groverian", "optimize_product",
           _optimizer_counts),
    Target("groverian.grid_search_oracle", "groverdyn.groverian", "grid_search_oracle"),
    Target("harness.resolve_state", "groverdyn.harness", "resolve_state"),
    Target("harness.sweep_marked_sets", "groverdyn.harness", "sweep_marked_sets",
           lambda a, kw, result: {"sets": result.num_sets}),
    Target("harness.compare_run", "groverdyn.harness", "compare_run"),
    Target("cli.main", "groverdyn.cli", "main"),
    Target("cli.write_json", "groverdyn.harness", "write_json", _file_bytes(0, "path")),
)


def _resolve(target: Target):
    try:
        owner = importlib.import_module(target.module)
        *path, name = target.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name, getattr(owner, name)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Records spans while installed; ``spans`` keeps every finished one."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing = sorted(
            f"{t.span} ({t.module}.{t.attr})" for t in targets if _resolve(t) is None
        )

    def _wrap(self, target: Target, fn):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent.name == target.span:
                return fn(*args, **kwargs)  # e.g. moments -> _moments_from_array
            span = Span(target.span, parent)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
                spans.append(span)
            if target.count is not None:
                span.counts = target.count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "groverdyn" or name.startswith("groverdyn."))
        ]
        for target in self.targets:
            resolved = _resolve(target)
            if resolved is None:
                continue
            owner, name, fn = resolved
            wrapper = self._wrap(target, fn)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, key, fn))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()


@dataclass
class _Totals:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    counts: dict = field(default_factory=dict)


def _totals(spans: list[Span]) -> dict[str, _Totals]:
    totals: dict[str, _Totals] = {}
    for span in spans:
        t = totals.setdefault(span.name, _Totals())
        duration = span.end - span.start
        t.calls += 1
        t.busy += duration
        t.self_time += duration - span.child_time
        for key, value in span.counts.items():
            t.counts[key] = t.counts.get(key, 0) + value
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Self time is busy time minus the covered child spans, so a missing
# child inflates it: self-time metrics depend on every span.
_EVERY_SPAN = "*"


def _metric_table(cycles: int):
    """(metric, unit, span it reads, value from the per-span totals)."""

    def per_call(span, scale=1.0):
        return lambda t: _ratio(t[span].busy, t[span].calls) * scale

    def per_cycle(span, key=None):
        return lambda t: (t[span].counts.get(key, 0) if key else t[span].calls) / cycles

    def per_count(span, key, scale=1.0, self_time=False):
        def value(t):
            time = t[span].self_time if self_time else t[span].busy
            return _ratio(time, t[span].counts.get(key, 0)) * scale
        return value

    def self_per_call(span):
        return lambda t: _ratio(t[span].self_time, t[span].calls)

    def bytes_per_call(span):
        return lambda t: _ratio(t[span].counts.get("bytes", 0), t[span].calls)

    k, opt = "kernels.run_grover", "groverian.optimize_product"
    return (
        (f"{k}.us_per_step", "us", k, per_count(k, "steps", 1e6)),
        (f"{k}.steps", "count", k, per_cycle(k, "steps")),
        (f"{k}.calls", "count", k, per_cycle(k)),
        ("kernels.bytes_per_step_computed", "B", k,
         lambda t: _ratio(t[k].counts.get("bytes", 0), t[k].counts.get("steps", 0))),
        ("core.moments.us_per_call", "us", "core.moments", per_call("core.moments", 1e6)),
        ("core.moments.calls", "count", "core.moments", per_cycle("core.moments")),
        ("core.save_state.s", "s", "core.save_state", per_call("core.save_state")),
        ("core.save_state.bytes", "B", "core.save_state", bytes_per_call("core.save_state")),
        ("core.load_state.s", "s", "core.load_state", per_call("core.load_state")),
        ("core.load_state.bytes", "B", "core.load_state", bytes_per_call("core.load_state")),
        ("simulator.evolve.us_per_step", "us", "simulator.evolve",
         per_count("simulator.evolve", "steps", 1e6)),
        ("simulator.evolve.self_us_per_step", "us", _EVERY_SPAN,
         per_count("simulator.evolve", "steps", 1e6, self_time=True)),
        ("simulator.write_csv.s", "s", "simulator.write_csv", per_call("simulator.write_csv")),
        ("analytic.compute_params.us_per_call", "us", "analytic.compute_params",
         per_call("analytic.compute_params", 1e6)),
        ("analytic.compute_params.calls", "count", "analytic.compute_params",
         per_cycle("analytic.compute_params")),
        ("analytic.averaged_success.us_per_call", "us", "analytic.averaged_success",
         per_call("analytic.averaged_success", 1e6)),
        ("dynamics.classify.us_per_call", "us", "dynamics.classify",
         per_call("dynamics.classify", 1e6)),
        ("dynamics.detect_cycle.us_per_call", "us", "dynamics.detect_cycle",
         per_call("dynamics.detect_cycle", 1e6)),
        (f"{opt}.s", "s", opt, per_call(opt)),
        (f"{opt}.restarts", "count", opt,
         lambda t: _ratio(t[opt].counts.get("restarts", 0), t[opt].calls)),
        ("groverian.useful_restart_ratio", "ratio", opt,
         lambda t: _ratio(t[opt].counts.get("useful", 0), t[opt].counts.get("restarts", 0))),
        ("groverian.grid_search_oracle.s", "s", "groverian.grid_search_oracle",
         per_call("groverian.grid_search_oracle")),
        ("harness.resolve_state.s", "s", "harness.resolve_state",
         per_call("harness.resolve_state")),
        ("harness.sweep_marked_sets.us_per_set", "us", "harness.sweep_marked_sets",
         per_count("harness.sweep_marked_sets", "sets", 1e6)),
        ("harness.sweep_marked_sets.sets", "count", "harness.sweep_marked_sets",
         per_cycle("harness.sweep_marked_sets", "sets")),
        ("harness.sweep_marked_sets.self_s", "s", _EVERY_SPAN,
         self_per_call("harness.sweep_marked_sets")),
        ("harness.compare_run.self_s", "s", _EVERY_SPAN, self_per_call("harness.compare_run")),
        ("cli.self_s", "s", _EVERY_SPAN, self_per_call("cli.main")),
        ("cli.write_json.s", "s", "cli.write_json", per_call("cli.write_json")),
        ("cli.write_json.bytes", "B", "cli.write_json", bytes_per_call("cli.write_json")),
    )


def layer_metrics(tracer: Tracer, cycles: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures over ``cycles`` traced cycles, by metric name.

    Times are per call (or per step or set), counts per traced cycle.  A
    layer the workload never calls reads 0; a metric whose span is
    missing is left out.
    """
    totals = _totals(tracer.spans)
    for target in tracer.targets:
        totals.setdefault(target.span, _Totals())
    missing = {entry.split(" ")[0] for entry in tracer.missing}
    metrics = {}
    for name, unit, span, value in _metric_table(cycles):
        if span in missing or (span == _EVERY_SPAN and missing):
            continue
        metrics[name] = (float(value(totals)), unit)
    return metrics


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    return {name: unit for name, unit, _, _ in _metric_table(1)}
