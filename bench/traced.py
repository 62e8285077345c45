"""Traced runs: per-layer metrics from spans recorded around public functions.

The benchmark wraps public functions of each package module (and every
name in `clustergauss.*` bound to them, such as the ones `cli` imports)
with spans.  A span records its name, start, end and parent; spans are
recorded on one thread, so children never overlap and a span's self time
is its duration minus the sum of its children's.  In one extra
iteration the spans marked ``memory`` also record, from ``tracemalloc``,
the peak of memory allocated while they were open; tracemalloc runs only
inside them and only in that iteration, so it slows no timed span.

A traced run alternates an untraced and a traced in-process pass of the
workload (``cli.main(argv)`` for the CLI workloads) until ``seconds`` have
passed, with the start-up samples of the three `startup.*` modules taken in
turn between the passes, as in the untraced run.  `trace.overhead_s` is
the difference of the median traced and untraced iteration (one pass, or
one target on `design-loop`).
Layer metrics of a layer the workload does not call read 0.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

import measure
import workloads as wl
from clustergauss import cli, core, errormodel, gkp, phases, simulate

# (metric name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("startup.numpy_s", "s"),
    ("startup.scipy_special_s", "s"),
    ("startup.clustergauss_cli_s", "s"),
    ("cli.main_s", "s"),
    ("cli.self_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("core.validate_target_calls", "count"),
    ("core.validate_target_us.p50", "us"),
    ("errormodel.error_surface_s", "s"),
    ("errormodel.error_surface_peak_mb", "MB"),
    ("errormodel.cells", "count"),
    ("errormodel.invalid_cells", "count"),
    ("errormodel.to_rows_s", "s"),
    ("errormodel.optimize_theta4_ms.p50", "ms"),
    ("errormodel.optimize_theta4_ms.p95", "ms"),
    ("errormodel.error_vector_gaussian_us.p50", "us"),
    ("errormodel.optimizer_misses", "count"),
    ("errormodel.error_surface_2w_speedup", "ratio"),
    ("gkp.gain_surface_s", "s"),
    ("gkp.self_s", "s"),
    ("gkp.p_err_values_s", "s"),
    ("gkp.to_rows_s", "s"),
    ("phases.solve_phases_us.p50", "us"),
    ("phases.solve_phases_us.p95", "us"),
    ("simulate.run_s.gaussian", "s"),
    ("simulate.run_s.cubic", "s"),
    ("simulate.shots_per_s.gaussian", "1/s"),
    ("simulate.shots_per_s.cubic", "1/s"),
    ("simulate.run_peak_mb.gaussian", "MB"),
    ("simulate.run_peak_mb.cubic", "MB"),
    ("simulate.blocks", "count"),
    ("simulate.kept", "count"),
    ("simulate.discarded", "count"),
    ("simulate.z_gate_exceeded", "count"),
    ("simulate.run_2w_speedup.gaussian", "ratio"),
    ("trace.overhead_s", "s"),
)

STARTUP_MODULES = (
    ("startup.numpy_s", "numpy"),
    ("startup.scipy_special_s", "scipy.special"),
    ("startup.clustergauss_cli_s", wl.CLI_ENTRY),
)
MB = 2.0**20


class Span:
    __slots__ = ("name", "parent", "start", "end", "peak_bytes", "attrs")

    def __init__(self, name: str, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.peak_bytes = 0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``wrap`` makes a function record one per call.

    With ``memory`` set, spans of functions wrapped with ``memory=True``
    also record their tracemalloc peak.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn, *, memory: bool = False, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(span)
            owns_tracemalloc = (memory and self.memory
                                and not tracemalloc.is_tracing())
            if owns_tracemalloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if owns_tracemalloc:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            if annotate is not None:
                span.attrs = annotate(args, result)
            return result
        return traced


def _surface_counts(args, result):
    return {"cells": int(result.err_inf.size), "invalid": result.n_invalid}


def _run_counts(args, result):
    config = args[0]
    return {"variant": config.variant, "shots": int(config.n_shots),
            "kept": int(result.n_kept), "discarded": int(result.n_discarded)}


# (span name, owner, attribute, wrap options)
WRAPPED = (
    ("cli.main", cli, "main", {}),
    ("core.validate_target", core, "validate_target", {}),
    ("errormodel.error_surface", errormodel, "error_surface",
     {"memory": True, "annotate": _surface_counts}),
    ("errormodel.to_rows", errormodel.ErrorSurface, "to_rows", {}),
    ("errormodel.optimize_theta4", errormodel, "optimize_theta4", {}),
    ("errormodel.error_vector_gaussian", errormodel, "error_vector_gaussian",
     {}),
    ("gkp.gain_surface", gkp, "gain_surface", {}),
    ("gkp.p_err_values", gkp, "p_err_values", {}),
    ("gkp.to_rows", gkp.GainSurface, "to_rows", {}),
    ("phases.solve_phases", phases, "solve_phases", {}),
    ("simulate.run", simulate, "run",
     {"memory": True, "annotate": _run_counts}),
)


def install(tracer: Tracer) -> list:
    """Wrap every WRAPPED function wherever `clustergauss.*` binds it.

    Returns the (object, attribute, original) list that ``uninstall``
    restores.
    """
    package = [m for n, m in sorted(sys.modules.items())
               if n == "clustergauss" or n.startswith("clustergauss.")]
    undo = []
    for name, owner, attr, options in WRAPPED:
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, **options)
        for obj in package + [owner]:
            for key, value in list(vars(obj).items()):
                if value is original:
                    setattr(obj, key, wrapped)
                    undo.append((obj, key, original))
    return undo


def uninstall(undo: list) -> None:
    for obj, key, original in reversed(undo):
        setattr(obj, key, original)


# ---------------------------------------------------------------------------
# metrics from spans

def _percentile(values: list, q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if values else 0.0


def iteration_metrics(spans: list) -> dict:
    """Per-iteration totals of the span-derived metrics."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_time[id(s.parent)] += s.duration

    def total(name):
        return sum(s.duration for s in by_name[name])

    def self_total(name):
        return sum(s.duration - child_time[id(s)] for s in by_name[name])

    surfaces = by_name["errormodel.error_surface"]
    m = {
        "cli.main_s": total("cli.main"),
        "cli.self_s": self_total("cli.main"),
        "core.validate_target_calls": len(by_name["core.validate_target"]),
        "errormodel.error_surface_s": total("errormodel.error_surface"),
        "errormodel.cells": sum(s.attrs["cells"] for s in surfaces),
        "errormodel.invalid_cells": sum(s.attrs["invalid"] for s in surfaces),
        "errormodel.to_rows_s": total("errormodel.to_rows"),
        "gkp.gain_surface_s": total("gkp.gain_surface"),
        "gkp.self_s": self_total("gkp.gain_surface"),
        "gkp.p_err_values_s": total("gkp.p_err_values"),
        "gkp.to_rows_s": total("gkp.to_rows"),
    }
    runs = by_name["simulate.run"]
    for variant in simulate.VARIANTS:
        mine = [s for s in runs if s.attrs["variant"] == variant]
        run_s = sum(s.duration for s in mine)
        shots = sum(s.attrs["shots"] for s in mine)
        m[f"simulate.run_s.{variant}"] = run_s
        m[f"simulate.shots_per_s.{variant}"] = shots / run_s if mine else 0.0
    m["simulate.blocks"] = sum(math.ceil(s.attrs["shots"] / simulate.SHOT_BLOCK)
                               for s in runs)
    m["simulate.kept"] = sum(s.attrs["kept"] for s in runs)
    m["simulate.discarded"] = sum(s.attrs["discarded"] for s in runs)
    return m


def _peak_mb(spans: list) -> float:
    return max((s.peak_bytes for s in spans), default=0) / MB


def memory_metrics(spans: list) -> dict:
    """Peak tracemalloc memory of the memory spans of one iteration."""
    runs = [s for s in spans if s.name == "simulate.run"]
    m = {"errormodel.error_surface_peak_mb": _peak_mb(
        [s for s in spans if s.name == "errormodel.error_surface"])}
    for variant in simulate.VARIANTS:
        m[f"simulate.run_peak_mb.{variant}"] = _peak_mb(
            [s for s in runs if s.attrs["variant"] == variant])
    return m


def call_metrics(spans: list) -> dict:
    """Per-call latency percentiles, pooled over all traced iterations."""
    durations = defaultdict(list)
    for s in spans:
        durations[s.name].append(s.duration)
    opt = durations["errormodel.optimize_theta4"]
    solve = durations["phases.solve_phases"]
    return {
        "core.validate_target_us.p50":
            _percentile(durations["core.validate_target"], 50, 1e6),
        "errormodel.optimize_theta4_ms.p50": _percentile(opt, 50, 1e3),
        "errormodel.optimize_theta4_ms.p95": _percentile(opt, 95, 1e3),
        "errormodel.error_vector_gaussian_us.p50":
            _percentile(durations["errormodel.error_vector_gaussian"], 50, 1e6),
        "phases.solve_phases_us.p50": _percentile(solve, 50, 1e6),
        "phases.solve_phases_us.p95": _percentile(solve, 95, 1e6),
    }


# ---------------------------------------------------------------------------
# measurements outside the spans

def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


def two_worker_speedup(fn, arg) -> float:
    """1-thread over 2-thread time, while ``fn`` takes ``n_workers``."""
    if "n_workers" not in inspect.signature(fn).parameters:
        return 0.0
    return _timed(fn, arg, n_workers=1) / _timed(fn, arg, n_workers=2)


def speedups(name: str, sizes, seed: int) -> dict:
    if name == "maps":
        spec = errormodel.ErrorSurfaceSpec(
            b_range=(-5.0, 5.0), d_range=(-5.0, 5.0), nb=sizes.grid,
            nd=sizes.grid, w=wl.WEIGHTS, mode=errormodel.MODE_GAUSSIAN_OPTIMIZED)
        return {"errormodel.error_surface_2w_speedup":
                two_worker_speedup(errormodel.error_surface, spec)}
    if name == "montecarlo":
        config = simulate.SimConfig(
            target=core.SymplecticTarget(*wl.MC_TARGET), w=wl.WEIGHTS,
            theta4p=wl.HALF_PI, squeezing=core.SqueezingSpec.from_db(-15.0),
            variant=simulate.VARIANT_GAUSSIAN, n_shots=sizes.gauss_shots,
            seed=seed)
        return {"simulate.run_2w_speedup.gaussian":
                two_worker_speedup(simulate.run, config)}
    return {}


# ---------------------------------------------------------------------------
# the traced run

def _run_inprocess(name: str, sizes, seed: int, tmp: Path, targets) -> tuple:
    """(wall seconds of each iteration, outputs) of one unchecked pass.

    As in the untraced run, a `design-loop` iteration is one target.
    """
    if targets is not None:
        outputs, walls, _ = wl.run_design(targets)
        return walls, outputs
    t0 = time.perf_counter()
    outputs = [(call,) + wl.run_cli_inprocess(call)
               for call in wl.cli_calls(name, sizes, seed, tmp)]
    return [time.perf_counter() - t0], outputs


def _check_inprocess(outputs: list, seed: int, tmp: Path, targets) -> tuple:
    """(attempted, failure reasons, counts) of one iteration."""
    if targets is not None:
        return len(targets), wl.design_failures(targets, outputs), {}
    reasons = [wl.run_checked(call.check, call, rc, stdout, seed)
               for call, rc, stdout in outputs]
    counts = {
        "cli.out_bytes": sum(
            len(stdout.encode())
            + sum(p.stat().st_size for p in tmp.glob(call.out.name + "*"))
            for call, _, stdout in outputs),
        "simulate.z_gate_exceeded": sum(
            rc == wl.EXIT_Z_GATE for _, rc, _ in outputs),
    }
    return len(outputs), [r for r in reasons if r], counts


def trace(name: str, seed: int, seconds: float,
          sizes=wl.FULL) -> measure.Result:
    """Traced run of one workload; its metrics are the PER_LAYER ones."""
    values = {metric: 0.0 for metric, _ in PER_LAYER}
    startup = defaultdict(list)
    modules = itertools.cycle(STARTUP_MODULES)
    untraced, traced, per_iteration, spans = [], [], [], []
    reasons = []
    attempted = 0
    with measure.workdir() as tmp_name:
        tmp = Path(tmp_name)
        targets = None
        if name == "design-loop":
            targets = wl.design_targets(sizes.targets, seed)
            wl.run_design(targets[:measure.DESIGN_WARMUP_TARGETS])

        def iteration(tracer=None):
            # Checks run after the wrappers are removed, so that the library
            # calls they make are not traced.
            nonlocal attempted
            undo = install(tracer) if tracer else []
            try:
                walls, outputs = _run_inprocess(name, sizes, seed, tmp, targets)
            finally:
                uninstall(undo)
            n, why, counts = _check_inprocess(outputs, seed, tmp, targets)
            attempted += n
            reasons.extend(why)
            if tracer is None:
                untraced.extend(walls)
            elif not tracer.memory:
                traced.extend(walls)
            return outputs, counts

        def traced_pass():
            # Alternate which goes first, so warm-up and drift fall on both.
            nonlocal outputs
            first = len(per_iteration) % 2 == 0
            if first:
                outputs, _ = iteration()
            tracer = Tracer()
            _, counts = iteration(tracer)
            if not first:
                outputs, _ = iteration()
            per_iteration.append({**iteration_metrics(tracer.spans), **counts})
            spans.extend(tracer.spans)

        def sample_startup():
            metric, module = next(modules)
            startup[metric].append(measure.startup_sample(module, tmp)[1])

        outputs = None
        measure.paced(traced_pass, seconds, sample_startup)
        # Peak memory comes from one more iteration, so that tracemalloc
        # does not slow the timed ones.
        tracer = Tracer(memory=True)
        iteration(tracer)
        values.update(memory_metrics(tracer.spans))
        if targets is not None:
            values["errormodel.optimizer_misses"] = \
                wl.optimizer_misses(targets, outputs)

    for metric in per_iteration[0]:
        values[metric] = statistics.median(m[metric] for m in per_iteration)
    for metric, samples in startup.items():
        values[metric] = statistics.median(samples)
    values.update(call_metrics(spans))
    values.update(speedups(name, sizes, seed))
    values["trace.overhead_s"] = \
        statistics.median(traced) - statistics.median(untraced)

    n = len(per_iteration)
    metrics = {metric: (float(values[metric]), unit, n)
               for metric, unit in PER_LAYER}
    table = {"failed_frac": (len(reasons) / attempted, "1", attempted)}
    return measure.Result(attempted, len(reasons), reasons, metrics, table)
