"""The three benchmark workloads: what each runs and how its output is checked.

Every workload is a closed loop with one caller in one process, at the
default worker count (1).  The CLI workloads run `clustergauss` the way the
tier-1 tests do, from ``src/`` on ``PYTHONPATH``; `design-loop` calls the
library in the benchmark's own process.

An *operation* is one CLI process (or one in-process ``cli.main`` call) or,
on `design-loop`, one target.  A check returns ``None`` when the output is
correct and a one-line reason otherwise; a failed check counts the
operation as failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from clustergauss import cli, errormodel, gkp, phases
from clustergauss.core import (
    CubicConfig,
    DenominatorPole,
    SqueezingSpec,
    SymplecticTarget,
    WeightConfig,
)
from clustergauss.errormodel import (
    MODE_CUBIC_OPTIMIZED,
    MODE_GAUSSIAN_OPTIMIZED,
    error_vector_cubic,
    error_vector_gaussian,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_ENTRY = "clustergauss.cli"
LIB_ENTRY = "clustergauss"

# The paper's strong-weight operating point and the cubic acceptance point.
WEIGHTS = WeightConfig(5.0, 5.0, 4.0, 4.0)
CUBIC = CubicConfig(gamma=0.1, alpha=math.sqrt(125.0))
MC_TARGET = (1.2, 0.5, 0.3, 0.9583333333333334)
HALF_PI = math.pi / 2.0
# The gain map's baseline: unweighted (the `gain-surface` default), pi/2.
GAIN_BASE_WEIGHTS = WeightConfig(1.0, 1.0, 1.0, 1.0)
GAIN_DB = -15.0

# A CLI process that runs longer than this is killed and counted as failed.
CALL_TIMEOUT_S = 150.0
# Relative agreement between the surface/optimizer value and the public
# closed form re-evaluated at the reported theta4'.
AGREE_REL = 1e-9
# "Optimized <= pi/2" compares two evaluations of the same closed form at
# different phases; this slack absorbs rounding when the two are equal.
ORDER_REL = 1e-12
RESIDUAL_MAX = 1e-9
# The simulate z-score gate, passed explicitly so the check knows it.  Exit
# code 3 is the CLI's verdict that a z-score exceeds it; see check_simulate.
Z_GATE = 5.0
EXIT_Z_GATE = 3
# The one z-score allowed above the gate, and how far: z_error_var[1] of the
# cubic variant at 1M shots, a gap between the cubic error model and the
# simulation.  Over seeds 0-149 it ranged from 1.0 to 6.9 (mean 3.9, standard
# deviation 1.4; above 5 on 35 seeds); the ceiling is 4 deviations above the
# mean.  The other cubic z-scores stayed within 4.4.
CUBIC_Z_EXCEPTION = "z_error_var[1]"
CUBIC_Z_CEILING = 10.0
SURFACE_SAMPLE = 1000
ERROR_SURFACE_HEADER = ["b", "d", "err_x", "err_y", "err_inf", "theta4p_used"]
GAIN_SURFACE_HEADER = ["b", "d", "p_err_base", "p_err_opt", "ratio"]


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the defaults are the benchmark's, tests use tiny ones."""

    grid: int = 401
    gauss_shots: int = 2_000_000
    cubic_shots: int = 1_000_000
    targets: int = 300


FULL = Sizes()


@dataclass(frozen=True)
class Call:
    """One CLI invocation and the check applied to its output."""

    argv: tuple
    out: Path
    check: object  # (call, rc, stdout, seed) -> Optional[str]
    items: int


def _floats(values) -> list:
    return [repr(float(v)) for v in values]


def cli_calls(name: str, sizes: Sizes, seed: int, outdir: Path) -> list:
    """The CLI invocations of one iteration of a CLI workload."""
    w = _floats(WEIGHTS.as_tuple())
    n = str(sizes.grid)
    cells = sizes.grid * sizes.grid
    if name == "maps":
        surface = outdir / "surface.csv"
        gain = outdir / "gain.csv"
        return [
            Call(("error-surface", "--mode", MODE_GAUSSIAN_OPTIMIZED,
                  "--g1", w[0], "--g2", w[1], "--g3", w[2], "--g4", w[3],
                  "--nb", n, "--nd", n, "--out", str(surface)),
                 surface, check_surface, cells),
            Call(("gain-surface", "--db", repr(GAIN_DB),
                  "--opt-mode", "gaussian_fixed_phase",
                  "--nb", n, "--nd", n, "--out", str(gain)),
                 gain, check_gain, cells),
        ]
    if name == "montecarlo":
        a, b, c, d = _floats(MC_TARGET)
        common = ("simulate", "--a", a, "--b", b, "--c", c, "--d", d,
                  "--g1", w[0], "--g2", w[1], "--g3", w[2], "--g4", w[3],
                  "--db", "-15", "--seed", str(seed),
                  "--z-gate", repr(Z_GATE))
        gauss = outdir / "mc_gaussian.json"
        cubic = outdir / "mc_cubic.json"
        return [
            Call(common + ("--variant", "gaussian",
                           "--shots", str(sizes.gauss_shots),
                           "--out", str(gauss)),
                 gauss, check_simulate, sizes.gauss_shots),
            Call(common + ("--variant", "cubic",
                           "--gamma", repr(CUBIC.gamma),
                           "--alpha", repr(CUBIC.alpha),
                           "--shots", str(sizes.cubic_shots),
                           "--out", str(cubic)),
                 cubic, check_simulate, sizes.cubic_shots),
        ]
    raise ValueError(f"{name!r} is not a CLI workload")


def child_env() -> dict:
    """Environment for child interpreters: src/ first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class ProcStats:
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_process(argv, stdout_path: Path, stderr_path: Path) -> ProcStats:
    """Run a child interpreter and collect its own wall, CPU and peak RSS."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcStats(rc=proc.returncode, wall_s=wall,
                     cpu_s=usage.ru_utime + usage.ru_stime,
                     rss_mb=usage.ru_maxrss / 1024.0)


def run_cli_process(call: Call, workdir: Path) -> tuple:
    """(stats, stdout text) of one CLI call in a fresh interpreter."""
    stdout = workdir / (call.out.name + ".stdout")
    stderr = workdir / (call.out.name + ".stderr")
    stats = run_process((sys.executable, "-m", CLI_ENTRY) + call.argv,
                        stdout, stderr)
    return stats, stdout.read_text()


def run_cli_inprocess(call: Call) -> tuple:
    """(exit code, stdout text) of one CLI call through ``cli.main``.

    An exception that would end the CLI process with a traceback gives
    exit code 1, as it would there.
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(call.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # counted as a failed operation by the caller
        traceback.print_exc()
        rc = 1
    return rc, buf.getvalue()


def run_checked(check, *args) -> str | None:
    """Apply a check; an output it cannot read or evaluate fails it."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"check raised {exc!r}"


# ---------------------------------------------------------------------------
# output checks

def _fill_empty(body: str) -> str:
    """``body`` with "nan" in every empty field of its comma-separated rows."""
    body = "\n" + body.replace("\r\n", "\n") + "\n"
    for _ in range(2):  # one pass fills every other field of a run of empties
        body = body.replace(",,", ",nan,")
    return body.replace("\n,", "\nnan,").replace(",\n", ",nan\n")


def read_csv(path: Path) -> tuple:
    """(header, float array); empty fields, which mark missing cells, are NaN.

    The rows are parsed by numpy's C reader, so that a check costs a small
    share of an iteration; a ragged row raises ValueError.
    """
    with open(path, newline="") as f:
        header = next(csv.reader([f.readline()]))
        body = _fill_empty(f.read())
    data = np.loadtxt(io.StringIO(body), delimiter=",", dtype=float, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError("ragged CSV")
    return header, data


def _grid_problem(data: np.ndarray, n: int) -> str | None:
    if data.shape[0] != n * n:
        return f"{data.shape[0]} rows, expected {n * n}"
    axis = np.linspace(-5.0, 5.0, n)
    if not (np.array_equal(data[:, 0], np.repeat(axis, n))
            and np.array_equal(data[:, 1], np.tile(axis, n))):
        return "b, d columns are not the requested grid"
    return None


def _grid_size(call: Call) -> int:
    return int(call.argv[call.argv.index("--nb") + 1])


def gaussian_error(target: SymplecticTarget, theta4p: float) -> float:
    return error_vector_gaussian(target, WEIGHTS, theta4p).inf_norm


def cubic_error(target: SymplecticTarget, theta4p: float) -> float:
    return error_vector_cubic(target, WEIGHTS, None, theta4p, CUBIC).inf_norm


def fixed_phase_error(target: SymplecticTarget, error=gaussian_error) -> float:
    """inf-norm error at theta4' = pi/2; +inf where pi/2 is a pole (b = 0)."""
    try:
        return error(target, HALF_PI)
    except DenominatorPole:
        return math.inf


def cell_target(b: float, d: float) -> SymplecticTarget:
    """The target of grid cell (b, d), as the surfaces define it."""
    return SymplecticTarget(1.0 / d, b, 0.0, d)


def sample_cells(usable: np.ndarray, seed: int) -> np.ndarray:
    """A seeded sample of SURFACE_SAMPLE row indices out of ``usable``."""
    rng = np.random.default_rng(seed)
    return rng.choice(usable, size=min(SURFACE_SAMPLE, usable.size),
                      replace=False)


def p_err_cell(ev, var_y: float) -> float:
    """Correction-failure probability of one error vector.

    An independent transcription of the GKP model with ``math.erfc``: the
    squeezed variance enters in the correction model's units.
    """
    var_s = gkp.CORRECTION_VARIANCE_UNITS * var_y
    amp = math.sqrt(math.pi) / (2.0 * math.sqrt(2.0))
    a = math.erfc(amp / math.sqrt(var_s * (ev.ex + gkp.GKP_X_OFFSET)))
    b = math.erfc(amp / math.sqrt(var_s * (ev.ey + gkp.GKP_Y_OFFSET)))
    return a + b - a * b


def _rel_diff(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def check_surface(call: Call, rc: int, stdout: str, seed: int) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    header, data = read_csv(call.out)
    if header != ERROR_SURFACE_HEADER:
        return f"header {header}"
    problem = _grid_problem(data, _grid_size(call))
    if problem:
        return problem
    b, d, ex, ey, err, theta = data.T
    finite = np.isfinite(err)
    if not np.array_equal(err[finite], np.maximum(ex[finite], ey[finite])):
        return "err_inf != max(err_x, err_y)"
    usable = np.flatnonzero(finite & (np.abs(d) >= 1e-6))
    for i in sample_cells(usable, seed):
        target = cell_target(b[i], d[i])
        ev = error_vector_gaussian(target, WEIGHTS, theta[i])
        for got, want in ((ex[i], ev.ex), (ey[i], ev.ey), (err[i], ev.inf_norm)):
            if _rel_diff(got, want) > AGREE_REL:
                return f"cell (b={b[i]!r}, d={d[i]!r}) disagrees with " \
                       f"error_vector_gaussian: {got!r} vs {want!r}"
        if ev.inf_norm > fixed_phase_error(target) * (1.0 + ORDER_REL):
            return f"cell (b={b[i]!r}, d={d[i]!r}) above its pi/2 value"
    return None


def check_gain(call: Call, rc: int, stdout: str, seed: int) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    header, data = read_csv(call.out)
    if header != GAIN_SURFACE_HEADER:
        return f"header {header}"
    problem = _grid_problem(data, _grid_size(call))
    if problem:
        return problem
    b, d, p_base, p_opt, ratio = data.T
    finite = np.isfinite(ratio)
    if not np.array_equal(ratio[finite], p_base[finite] / p_opt[finite]):
        return "ratio != p_err_base / p_err_opt"
    summary = json.loads(stdout)
    if summary["max_ratio"] != float(np.max(ratio[finite])):
        return "stdout max_ratio is not the CSV maximum"
    var_y = SqueezingSpec.from_db(GAIN_DB).var_y
    usable = np.flatnonzero(finite & (np.abs(d) >= 1e-6))
    for i in sample_cells(usable, seed):
        target = cell_target(b[i], d[i])
        for got, weights in ((p_base[i], GAIN_BASE_WEIGHTS),
                             (p_opt[i], WEIGHTS)):
            want = p_err_cell(
                error_vector_gaussian(target, weights, HALF_PI), var_y)
            if _rel_diff(got, want) > AGREE_REL:
                return f"cell (b={b[i]!r}, d={d[i]!r}) p_err disagrees " \
                       f"with the closed form: {got!r} vs {want!r}"
    return None


def _non_finite(obj, path=""):
    """Paths of JSON numbers that are NaN, infinite or null."""
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _non_finite(v, f"{path}[{i}]")]
    if obj is None or (isinstance(obj, float) and not math.isfinite(obj)):
        return [path]
    return []


def z_limit(variant: str, name: str) -> float:
    """The largest |z| the check accepts for one z-score of the summary."""
    if variant == "cubic" and name == CUBIC_Z_EXCEPTION:
        return CUBIC_Z_CEILING
    return Z_GATE


def check_simulate(call: Call, rc: int, stdout: str, seed: int) -> str | None:
    """Summary sanity, z-scores within their limits, and the exit code.

    Every z-score must be within the gate, except ``CUBIC_Z_EXCEPTION`` of
    the cubic variant, which may reach ``CUBIC_Z_CEILING``.  The exit code
    must be the CLI's verdict on the summary it wrote: 0, or 3 (the gate
    exceeded) only when that one z-score is above the gate.
    """
    if rc not in (0, EXIT_Z_GATE):
        return f"exit code {rc}"
    summary = json.loads(call.out.read_text())
    shots = int(call.argv[call.argv.index("--shots") + 1])
    if summary["n_kept"] + summary["n_discarded"] != shots:
        return "n_kept + n_discarded != shots"
    bad = _non_finite(summary)
    if summary["variant"] == "gaussian":
        bad = [p for p in bad if p != ".mean_im"]  # null by design
    if bad:
        return f"non-finite summary values at {bad}"
    cov = summary["cov_out"]
    if not (cov[0][0] > 0 and cov[1][1] > 0):
        return "cov_out diagonal not positive"
    z = {f"{key}[{i}]": abs(v) for key in ("z_mean", "z_error_var")
         for i, v in enumerate(summary[key])}
    over = {name: v for name, v in z.items()
            if v > z_limit(summary["variant"], name)}
    if over:
        return f"{summary['variant']} |z| above its limit: {over}"
    worst = max(z.values())
    if (rc == EXIT_Z_GATE) != (worst > Z_GATE):
        return f"exit code {rc} with max |z| = {worst!r}, gate {Z_GATE!r}"
    return None


# ---------------------------------------------------------------------------
# design-loop

def design_targets(n: int, seed: int) -> list:
    a, b, c, d = phases.sample_targets(n, seed)
    return [SymplecticTarget(*map(float, t)) for t in zip(a, b, c, d)]


def design_call(target: SymplecticTarget) -> tuple:
    """One design step; the module lookups let the traced run wrap them."""
    solved = phases.solve_phases(target, WEIGHTS, HALF_PI)
    gauss = errormodel.optimize_theta4(target, WEIGHTS, MODE_GAUSSIAN_OPTIMIZED)
    cubic = errormodel.optimize_theta4(target, WEIGHTS, MODE_CUBIC_OPTIMIZED,
                                       CUBIC)
    ev = errormodel.error_vector_gaussian(target, WEIGHTS, gauss.theta4p)
    return solved, gauss, cubic, ev


def check_design(target: SymplecticTarget, result) -> str | None:
    solved, gauss, cubic, ev = result
    if not solved.residual < RESIDUAL_MAX:
        return f"solve_phases residual {solved.residual!r}"
    if _rel_diff(ev.inf_norm, gauss.err_inf) > AGREE_REL:
        return "optimize_theta4 value disagrees with error_vector_gaussian"
    if ev.inf_norm > fixed_phase_error(target) * (1.0 + ORDER_REL):
        return "optimized error above the fixed-phase error"
    cubic_value = cubic_error(target, cubic.theta4p)
    if _rel_diff(cubic_value, cubic.err_inf) > AGREE_REL:
        return "cubic optimize_theta4 value disagrees with error_vector_cubic"
    cubic_fixed = fixed_phase_error(target, cubic_error)
    if cubic_value > cubic_fixed * (1.0 + ORDER_REL):
        return "cubic optimized error above its fixed-phase error"
    return None


def run_design(targets: list) -> tuple:
    """(results, wall seconds, CPU seconds), one entry per target.

    A target whose calls raise yields the exception.
    """
    results, walls, cpus = [], [], []
    for target in targets:
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result = design_call(target)
        except Exception as exc:  # a failed operation, reported by the caller
            result = exc
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        results.append(result)
    return results, walls, cpus


def design_failure(target: SymplecticTarget, result) -> str | None:
    """Why one design step failed, or None."""
    if isinstance(result, Exception):
        return f"target {target}: raised {result!r}"
    reason = run_checked(check_design, target, result)
    return reason and f"target {target}: {reason}"


def design_failures(targets: list, results: list) -> list:
    """One reason per failed target."""
    return [r for r in map(design_failure, targets, results) if r]


def objective(b: float, d: float, mid_weight: float, u):
    """max(ex, ey) at u = cot(theta4'), vectorised over u.

    An independent transcription of the closed form: mid_weight is 1 in the
    Gaussian scheme and 1/(12 gamma I_m) in the cubic one.
    """
    g1, g2, g3, g4 = WEIGHTS.as_tuple()
    r2 = g3 / g2
    ratio = g1 * g3 / (g2 * g4)
    with np.errstate(divide="ignore", invalid="ignore"):
        cot3 = (d - ratio) / (r2**2 * b + d * u)
        ex = ((cot3 * u - 1.0) / r2) ** 2 / g1**2 \
            + mid_weight * (u / r2) ** 2 + 1.0 / g3**2
        ey = (r2 * cot3) ** 2 / g1**2 + mid_weight * r2**2 + 1.0
    return np.maximum(ex, ey)


def scan_minimum(b: float, d: float, mid_weight: float,
                 n: int = 40_000) -> float:
    """Dense brute-force minimum of ``objective`` over theta4'.

    Evaluated at n phases spaced evenly in (0, pi) plus pi/2 (u = 0).
    """
    theta = (np.arange(n) + 0.5) * (np.pi / n)
    u = np.append(np.cos(theta) / np.sin(theta), 0.0)
    return float(np.nanmin(objective(b, d, mid_weight, u)))


def optimizer_misses(targets: list, results: list) -> int:
    """Targets where either optimize_theta4 call is above the dense scan."""
    misses = 0
    for target, result in zip(targets, results):
        if isinstance(result, Exception):
            continue
        _, gauss, cubic, _ = result
        worse = (
            gauss.err_inf > scan_minimum(target.b, target.d, 1.0)
            * (1.0 + AGREE_REL)
            or cubic.err_inf > scan_minimum(
                target.b, target.d, 1.0 / CUBIC.twelve_gamma_im)
            * (1.0 + AGREE_REL)
        )
        misses += bool(worse)
    return misses
