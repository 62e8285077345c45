"""Untraced runs: the end-to-end metrics of one workload.

`setup_s` is the median start-up of fresh interpreters that import the
workload's entry module, sampled between passes so that the samples spread
over the run.  One iteration is one pass of a CLI workload (its CLI
processes) or one target of `design-loop`; `design-loop` passes over all
its targets in turn.  A run repeats passes for about ``seconds`` (at least
one pass).  It reports the mean iteration time of a CLI workload, a low
percentile of the per-target times of `design-loop` (see time_statistic),
and medians of the other samples.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads as wl

# Start-up samples per run, untraced and traced.
STARTUP_SAMPLES = 6
DESIGN_WARMUP_TARGETS = 10
# On hosts whose cores are shared, the speed of a core follows the other
# tenants' load: on the 2-vCPU Xeon host the bounds were set on, one
# `gain-surface` process took 2.1 to 4.2 s over eight minutes, and a
# pure-Python loop ran up to 1.5x slower for seconds at a time.  A CLI
# iteration lasts seconds, and a run holds a few of them.  Over that
# recording, cut into 24 s windows, the quartile spread of the windows' mean
# iteration time was 0.10 of its median, of their median 0.13 and of their
# 5th percentile 0.14; so a CLI workload reports the mean, the run's
# iteration time over its iteration count.  A `design-loop` target lasts
# 12-25 ms and falls on one speed level, so the median of a run's targets
# lands on either level; the 5th percentile, the uncontended call time,
# spread 0.08 of its median over ten 18 s windows against 0.37 for the
# median.
DESIGN_PERCENTILE = 5


def time_statistic(name: str, values: list) -> float:
    """The run's iteration time of workload ``name``; see above."""
    if name == "design-loop":
        return float(np.percentile(values, DESIGN_PERCENTILE))
    return statistics.fmean(values)


# The throughput metric, named per workload in the table.
THROUGHPUT = {
    "maps": "cells_per_s",
    "montecarlo": "shots_per_s",
    "design-loop": "targets_per_s",
}


class SetupError(RuntimeError):
    """The program under test cannot be started at all."""


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    rss_mb: float
    items: int
    attempted: int
    reasons: list
    z_gate_exceeded: int = 0


@dataclass
class Result:
    """Operation counts, the metrics of the JSON line and extra table rows.

    ``metrics`` and ``table`` map a name to (value, unit, sample count).
    """

    attempted: int
    failed: int
    reasons: list
    metrics: dict
    table: dict


def workdir():
    """Temporary directory inside the checkout, removed on exit."""
    return tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=wl.ROOT)


def entry_module(name: str) -> str:
    return wl.LIB_ENTRY if name == "design-loop" else wl.CLI_ENTRY


def startup_sample(module: str, tmp: Path) -> tuple:
    """(wall, import) seconds of a fresh interpreter importing ``module``.

    The wall time covers interpreter start and exit; the import time is
    measured by the child around the import alone.
    """
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(repr(time.perf_counter() - t))")
    out, err = tmp / "startup.out", tmp / "startup.err"
    stats = wl.run_process((sys.executable, "-c", code), out, err)
    if stats.rc != 0:
        raise SetupError(f"`import {module}` failed: "
                         + err.read_text()[-2000:])
    return stats.wall_s, float(out.read_text())


def paced(step, seconds: float, startup) -> None:
    """Call ``step`` for about ``seconds`` (at least once), and ``startup``
    STARTUP_SAMPLES times, spread between the steps in proportion to the
    step time so far.

    Steps stop when one more, as long as the last, would end further past
    ``seconds`` than stopping now falls short of it.
    """
    spent, last, taken, steps = 0.0, 0.0, 0, 0
    while not steps or spent + last / 2 < seconds:
        t0 = time.perf_counter()
        step()
        last = time.perf_counter() - t0
        spent += last
        steps += 1
        share = spent / seconds if spent < seconds else 1.0
        while taken < math.ceil(STARTUP_SAMPLES * share):
            startup()
            taken += 1
    while taken < STARTUP_SAMPLES:
        startup()
        taken += 1


def cli_iteration(name: str, sizes, seed: int, tmp: Path) -> Iteration:
    """One iteration of a CLI workload, each call in a fresh interpreter."""
    it = Iteration(0.0, 0.0, 0.0, 0, 0, [])
    for call in wl.cli_calls(name, sizes, seed, tmp):
        stats, stdout = wl.run_cli_process(call, tmp)
        it.wall_s += stats.wall_s
        it.cpu_s += stats.cpu_s
        it.rss_mb = max(it.rss_mb, stats.rss_mb)
        it.items += call.items
        it.attempted += 1
        it.z_gate_exceeded += stats.rc == wl.EXIT_Z_GATE
        reason = wl.run_checked(call.check, call, stats.rc, stdout, seed)
        if reason:
            it.reasons.append(reason)
    return it


def design_pass(targets: list) -> tuple:
    """(one iteration per target, results) of a pass over the targets."""
    results, walls, cpus = wl.run_design(targets)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    iterations = [
        Iteration(wall, cpu, rss, 1, 1, [reason] if reason else [])
        for wall, cpu, reason in zip(
            walls, cpus, map(wl.design_failure, targets, results))
    ]
    return iterations, results


def median_row(values: list, unit: str) -> tuple:
    return (statistics.median(values), unit, len(values))


def measure(name: str, seed: int, seconds: float, sizes=wl.FULL) -> Result:
    """Untraced run of one workload for about ``seconds`` seconds."""
    module = entry_module(name)
    with workdir() as tmp_name:
        tmp = Path(tmp_name)
        if name == "design-loop":
            targets = wl.design_targets(sizes.targets, seed)
            wl.run_design(targets[:DESIGN_WARMUP_TARGETS])

            def step():
                return design_pass(targets)[0]
        else:
            def step():
                return [cli_iteration(name, sizes, seed, tmp)]

        iterations, setup = [], []
        paced(lambda: iterations.extend(step()), seconds,
              lambda: setup.append(startup_sample(module, tmp)[0]))

    walls = [it.wall_s for it in iterations]

    def time_row(values, unit):
        return (time_statistic(name, values), unit, len(values))

    wall = time_row(walls, "s")
    items = iterations[0].items
    metrics = {
        "setup_s": median_row(setup, "s"),
        "wall_s": wall,
        "cpu_s": time_row([it.cpu_s for it in iterations], "s"),
        "peak_rss_mb": median_row([it.rss_mb for it in iterations], "MB"),
        "items_per_s": (items / wall[0], "1/s", len(walls)),
    }
    attempted = sum(it.attempted for it in iterations)
    reasons = [r for it in iterations for r in it.reasons]
    table = {THROUGHPUT[name]: metrics["items_per_s"]}
    if name == "design-loop":
        call_ms = np.array(walls) * 1e3
        for q in (50, 95):
            table[f"call_ms.p{q}"] = (float(np.percentile(call_ms, q)), "ms",
                                      call_ms.size)
    if name == "montecarlo":
        table["z_gate_exceeded"] = median_row(
            [it.z_gate_exceeded for it in iterations], "count")
    table["failed_frac"] = (len(reasons) / attempted, "1", attempted)
    return Result(attempted, len(reasons), reasons, metrics, table)
