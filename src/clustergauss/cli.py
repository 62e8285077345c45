"""Command-line interface.

Subcommands:
  solve-phases    homodyne phases realising a target operation
  error-surface   closed-form error multipliers on a (b, d) grid (CSV)
  simulate        Monte Carlo run with closed-form cross-check (JSON)
  gain-surface    correction-failure probability ratios (CSV + summary)
  weight-bound    largest admissible cluster weight for a squeezing level
  cz-decompose    five-factor optical decomposition of a weighted CZ gate

Every subcommand runs through one pipeline in ``main``: parse the
flags, convert a flag-given ``--theta4p`` under ``--degrees``, resolve
the values, check the output paths, run the command on them, and write
``<out>.manifest.json`` whenever ``--out`` is set.  Value flags may
also be supplied through ``--config FILE`` (JSON); explicit flags win
over the file, the file wins over built-in defaults.  A run manifest is
accepted directly as a config file, which reproduces that run
bit-for-bit: data outputs never contain timestamps.

Exit codes: 0 success; 2 invalid input or configuration, usage errors
such as an unknown flag included (a JSON object with ``error`` and
``message`` fields is printed to stderr); 3 for ``simulate`` when a
consistency z-score exceeds the gate, or when a z-score is not finite or
a variance estimate is not positive; 1 (``child-process-failed``) when
the child process of a surface command fails without an error that the
other codes name.  Python warnings, such as
``SmallDisplacementWarning``, still print to stderr as text, on exit 0
too.  Every config value is checked against its option's kind, a key
the chosen mode or variant does not use included.  Numeric values must
be finite: a manifest is JSON, which has no NaN or infinity.  So
``--z-gate`` must be finite and > 0, and ``inf`` does not mean "no gate".

``simulate --records`` streams each shot block's records to the file as
the block is simulated, so the file is complete before the gate verdict
(exit 3 included); a run that ends in exit 2 after sampling, with fewer
than two kept shots, leaves the records it wrote.  Every path a command
will write (``--out``, its manifest, ``--records``) is checked before any
work: one in a missing directory, one that is a directory, one the
process may not write or create, or two that are one file exit 2 and
leave every file as it was.

``error-surface`` and ``gain-surface`` use a second process where a
second CPU is usable: a forked child evaluates the first half of the
grid's b rows while this process does the other half
(``_in_two_processes``).  The output bytes are those of one process,
and nothing selects the route but the host: the command forks only
where ``os.fork`` exists, at least two CPUs are usable, the grid has
two b rows or more, and no other thread runs.

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` where the
environment does not set it or sets it empty (which OpenBLAS reads as
unset), before numpy loads, so that OpenBLAS starts no thread pool.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

# Set before numpy loads, here or through .core.  numpy's bundled OpenBLAS
# starts one server thread per extra CPU at load, and each spin-waits for
# work before it sleeps: a fresh `import numpy` took 0.18 s of wall and
# CPU time with the pool, 0.11 s without (2-vCPU Xeon).  The package hands
# BLAS no work a pool would share: its dot products of at most one shot
# block and its 2x2 / 4x4 matrix products run on the calling thread anyway.
# A value the user set is kept; an empty one, which OpenBLAS reads as unset,
# is not.
if not os.environ.get("OPENBLAS_NUM_THREADS"):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
# Only core at module level: each command imports the modules it computes
# with, so that a process loads no more of the package than its command.
from .core import (
    MODE_CUBIC_OPTIMIZED,
    MODE_GAUSSIAN_FIXED,
    MODE_GAUSSIAN_OPTIMIZED,
    MODES,
    VARIANT_CUBIC,
    VARIANT_GAUSSIAN,
    VARIANTS,
    CubicConfig,
    DegenerateD,
    DenominatorPole,
    DomainError,
    NonpositiveIm,
    NotSymplectic,
    SqueezingSpec,
    SymplecticTarget,
    WeightConfig,
)

MANIFEST_SCHEMA_VERSION = 1
# No command reads this variable.  Only the benchmark harness reads the
# name, to unset it, so it stays while the harness does.
WORKERS_ENV = "CLUSTERGAUSS_WORKERS"

# Values formatted and written per write call; bounds the text held at
# once, whatever the column count.  The formatter's work arrays take about
# 400 bytes a value.  Under the allocator thresholds below, a fresh 401^2
# error-surface process wrote its CSV in 0.21 s at 2**14 values against
# 0.24 s at 2**13 (medians of 16 alternating pairs, 2-vCPU Xeon).  Under
# glibc's defaults, a chunk's cost was mostly faulting in the pages of the
# work arrays the last chunk freed, not cache misses.
CSV_CHUNK_VALUES = 2**14

# glibc malloc thresholds that ``main`` sets for its process (mallopt).
# glibc's defaults mmap a block above 128 KiB and trim free memory above
# 128 KiB off the heap top.  Both adapt upwards as mmapped blocks are freed,
# but the evaluator's and the CSV writer's per-chunk temporaries (a few
# hundred KB at a time) still went back to the system when freed, and the
# next chunk faulted them in afresh: about 86 000 minor faults for a 401^2
# error-surface.  Fixed thresholds keep such blocks in the heap for reuse;
# the cost is up to TRIM_THRESHOLD_BYTES of freed memory left resident.
# 32 MiB is the ceiling of glibc's adaptive mmap threshold on 64-bit.
MMAP_THRESHOLD_BYTES = 32 * 2**20
TRIM_THRESHOLD_BYTES = 64 * 2**20
# mallopt's parameter numbers, from glibc's malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_ERROR_SLUGS = (
    (NotSymplectic, "not-symplectic"),
    (DegenerateD, "degenerate-d"),
    (DenominatorPole, "denominator-pole"),
    (NonpositiveIm, "nonpositive-im"),
)


def _slug(exc: Exception) -> str:
    for cls, slug in _ERROR_SLUGS:
        if isinstance(exc, cls):
            return slug
    return "invalid-config"


def _emit_error(slug: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": slug, "message": message}) + "\n")


class _ChildFailed(Exception):
    """The forked child's band failed; args are its ``_failure`` triple."""


def _failure(exc: Exception):
    """(exit code, slug, message) that ``main`` reports for ``exc``.

    None for an exception that ``main`` lets through.
    """
    if isinstance(exc, _ChildFailed):
        return exc.args
    if isinstance(exc, DomainError):
        return 2, _slug(exc), str(exc)
    if isinstance(exc, (ValueError, OSError)):
        return 2, "invalid-config", str(exc)
    if isinstance(exc, ArithmeticError):
        # Float arithmetic overflowed or divided by zero on extreme inputs
        # (say --db 1e308 or a weight of 5e-324).
        return 2, "invalid-config", f"input out of range: {exc}"
    if isinstance(exc, MemoryError):
        # An array for the input could not be allocated (say --nb 1e12).
        return 2, "invalid-config", f"input too large: {exc}"
    return None


def _jsonify(obj):
    """Recursively coerce to plain JSON types; non-finite floats -> null."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def _dumps(obj) -> str:
    return json.dumps(_jsonify(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _deliver(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _open_out(out):
    """``out`` opened for writing text, or stdout if None."""
    return contextlib.nullcontext(sys.stdout) if out is None else open(out, "w")


def _csv_chunks(columns):
    """The CSV rows of ``columns``, about CSV_CHUNK_VALUES values a piece.

    ``columns`` is a tuple of equal-length float64 columns.  Each value is
    written as the repr of its Python float, a non-finite one as an empty
    field; nothing needs quoting.  The columns are stacked into rows and
    formatted (``csvtext.csv_rows``) a chunk at a time.
    """
    # Imported here, so that only the commands that write CSV load it.
    from .csvtext import csv_rows

    chunk = max(1, CSV_CHUNK_VALUES // len(columns))
    for start in range(0, len(columns[0]), chunk):
        yield csv_rows(np.column_stack(
            [col[start:start + chunk] for col in columns]))


@contextlib.contextmanager
def _csv_writer(header, out):
    """Open ``out`` (stdout if None), write ``header``, yield a column writer.

    The writer takes a tuple of columns in header order (``_csv_chunks``)
    and may be called again for more rows.  It writes each chunk as it is
    formatted, so the text is never held whole.
    """
    with _open_out(out) as fh:
        fh.write(",".join(header) + "\n")
        yield lambda columns: fh.writelines(_csv_chunks(columns))


def _manifest_path(out) -> Path:
    return Path(str(out) + ".manifest.json")


def _write_manifest(out, subcommand: str, resolved: dict) -> None:
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "tool": "clustergauss",
        "version": __version__,
        "subcommand": subcommand,
        "resolved_config": resolved,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    _manifest_path(out).write_text(_dumps(manifest))


def _check_outputs(values: dict) -> None:
    """Refuse, before any work, an output path the command could not write.

    ``--out``, its manifest and ``--records`` must each lie in an existing
    directory, not be one or a loop of symbolic links, be writable (an
    existing file) or creatable (in a directory the process may write
    and search), and not be the file of another, however spelled.
    """
    out, records = values["out"], values.get("records")
    paths = [] if out is None else [(f"--out {out!r}", Path(out)), (
        f"the manifest of --out {out!r}", _manifest_path(out))]
    if records is not None:
        paths.append((f"--records {records!r}", Path(records)))
    written = {}
    for name, path in paths:
        # A missing target is fine, as open() creates it; a loop of
        # symbolic links, which is_dir and realpath pass, is not.
        try:
            os.stat(path)
        except OSError as exc:
            if exc.errno == errno.ELOOP:
                raise DomainError(f"{name} is a loop of symbolic links") \
                    from None
        # The kernel resolves "x/.." as open() will, failing if x is
        # missing; realpath, which names the file, does not.
        if path.is_dir():
            raise DomainError(f"{name} is a directory")
        if not path.parent.is_dir():
            raise DomainError(f"{name}: no directory {str(path.parent)!r}")
        if not (os.access(path, os.W_OK) if path.exists()
                else os.access(path.parent, os.W_OK | os.X_OK)):
            raise DomainError(f"{name}: permission denied")
        real = os.path.realpath(path)
        if real in written:
            raise DomainError(f"{name} is the file of {written[real]}")
        written[real] = name


def _load_config(path):
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except RecursionError:
        raise DomainError("config file is nested too deeply to parse") from None
    if isinstance(data, dict) and "resolved_config" in data:
        data = data["resolved_config"]
        # Manifests of error-surface, gain-surface and simulate from
        # earlier versions record a thread count, which no command takes
        # now; dropping it lets them rerun.
        if isinstance(data, dict):
            data.pop("workers", None)
    if not isinstance(data, dict):
        raise DomainError("config file must contain a JSON object")
    return data


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _resolve(args, config: dict, options: dict) -> tuple:
    """Merge flag values, config-file values and defaults (in that order).

    ``options`` is the subcommand's option table of keys, kinds and
    defaults.  Every value is checked against its kind here, a value that
    the chosen mode or variant never reads included, since the manifest
    records it: a float is a finite int or float, never a bool; an int is
    an integral one; a choice is a member of its tuple; [float] is a list
    of floats; a FILE is a string.  Null means "not given" only where the
    default is null.  NaN and infinity fail because the manifest is JSON,
    which has neither, so such a run could not be rerun.

    Returns ``(values, recorded)``: the values converted to their kinds,
    which the command reads, and as given, which the manifest records.
    So a config ``"g1": 5`` runs as 5.0 and is recorded as 5.
    """
    unknown = sorted(set(config) - set(options))
    if unknown:
        raise DomainError(f"unknown config keys: {unknown}")
    values, recorded = {}, {}
    for key, (kind, default, _) in options.items():
        val = getattr(args, key)
        if val is None:
            val = config.get(key, default)
        recorded[key] = values[key] = val
        if val is None and default is None:
            continue
        if kind == "FILE":
            ok, want = isinstance(val, str), "a path"
        elif isinstance(kind, tuple):
            ok, want = val in kind, f"one of {kind}"
        else:
            many = isinstance(kind, list)
            of = kind[0] if many else kind
            items = val if many else [val]
            want = ("a list of finite {}s" if many
                    else "a finite {}").format(of.__name__)
            try:
                ok = (not many or isinstance(val, list)) and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v) and (of is float or v == int(v))
                    for v in items)
            except OverflowError:  # an int too large for a float
                ok = False
            if ok:
                values[key] = [of(v) for v in val] if many else of(val)
        if not ok:
            raise DomainError(f"{_flag(key)} must be {want}, got {val!r}")
    return values, recorded


def _require(values: dict, *keys: str) -> None:
    missing = [k for k in keys if values[k] is None]
    if missing:
        flags = ", ".join(_flag(k) for k in missing)
        raise DomainError(f"missing required value(s): {flags}")


def _weight_config(values: dict, prefix: str = "g") -> WeightConfig:
    return WeightConfig(*(values[f"{prefix}{k}"] for k in range(1, 5)))


def _target(values: dict) -> SymplecticTarget:
    _require(values, *"abcd")
    return SymplecticTarget(*(values[k] for k in "abcd"))


def _cubic_config(values: dict, needed: bool):
    if not needed:
        return None
    _require(values, "gamma", "alpha")
    return CubicConfig(gamma=values["gamma"], alpha=values["alpha"],
                       i_m=values.get("im"))


def _surface_spec(values: dict, prefix: str, mode: str, rows):
    """The ErrorSurfaceSpec of b ``rows`` of the (b, d) grid for weights
    ``prefix``1-4."""
    from .errormodel import ErrorSurfaceSpec

    return ErrorSurfaceSpec(
        b_range=(values["b_min"], values["b_max"]),
        d_range=(values["d_min"], values["d_max"]),
        nb=values["nb"], nd=values["nd"],
        w=_weight_config(values, prefix), mode=mode,
        cubic=_cubic_config(values, mode == MODE_CUBIC_OPTIMIZED), rows=rows)


# ---------------------------------------------------------------------------
# surfaces in two processes
#
# A surface command splits the grid's b rows into two bands.  Where a
# second CPU is usable, a forked child evaluates and formats the first band
# while this process does the second; the child shares no interpreter lock
# with it and inherits its loaded modules.  Otherwise the two bands run
# here, one after the other.  Either way the output is written in band
# order, so its bytes are those of the whole grid.


def _bands(nb: int) -> list:
    """The b rows [0, nb//2) and [nb//2, nb) as (lo, hi) pairs.

    A grid of fewer than two rows is one band.
    """
    half = nb // 2
    return [(0, half), (half, nb)] if half > 0 else [(0, nb)]


def _forks(n_bands: int) -> bool:
    """Whether the first of ``n_bands`` bands goes to a forked child.

    Two bands, fork and a second usable CPU are needed, and no other
    thread: a child forked beside a running thread may inherit a lock
    that thread holds, and never see it released.
    """
    import threading

    return (n_bands == 2 and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def _leave_parent_cpu() -> None:
    """Move the forked child off the CPU it shares with its parent.

    On a 2-vCPU Xeon VM (Linux 6.18) the scheduler mostly left a forked
    child on its parent's CPU for the whole band: in a 401^2 optimized
    map each band took 0.33 s of wall time for 0.17 s of CPU time, while
    the other CPU idled.  An affinity mask without the current CPU moves
    the child at once; the full mask, restored next, leaves it free to
    move again.  A no-op where the C library has no sched_getcpu, or the
    kernel refuses the mask.
    """
    import ctypes

    try:
        sched_getcpu = ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError, TypeError):
        return
    sched_getcpu.argtypes = ()
    sched_getcpu.restype = ctypes.c_int
    here = sched_getcpu()
    usable = os.sched_getaffinity(0)
    with contextlib.suppress(OSError):  # say, a mask the cpuset refuses
        os.sched_setaffinity(0, usable - {here})
        os.sched_setaffinity(0, usable)


def _child(work, band, read_fd: int, write_fd: int) -> None:
    """In the forked child: send the pickle of (True, ``work(band)``), or
    of (False, its ``_failure`` triple), to ``write_fd``; then exit.

    The child leaves through ``os._exit``, so it flushes no buffer and
    runs no exit handler of the parent's.  It writes nothing else.
    """
    import pickle

    code = 1
    try:
        os.close(read_fd)
        _leave_parent_cpu()
        try:
            payload = (True, work(band))
        except Exception as exc:
            payload = (False, _failure(exc) or (
                1, "child-process-failed", f"{type(exc).__name__}: {exc}"))
        with open(write_fd, "wb") as pipe:
            pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _in_two_processes(work, bands) -> list:
    """``[work(band) for band in bands]`` for two bands, the first in a
    forked child.

    Failures are raised in band order, as the loop would raise them.  A
    child's failure raises ``_ChildFailed`` with the triple ``main``
    reports: the one it reports here for the same exception, or exit 1
    with ``child-process-failed`` for any other exception and for a child
    that ends without a result.  An interrupt here kills the child.
    """
    import pickle
    import signal

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        _child(work, bands[0], read_fd, write_fd)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            try:
                mine = work(bands[1])
            except Exception as exc:  # raised after the child's failure
                mine = exc
            try:
                ok, theirs = pickle.load(pipe)
            except Exception:  # no result, or a cut-off one
                ok, theirs = False, None
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if not ok:
        raise _ChildFailed(*theirs or (
            1, "child-process-failed",
            "the child process evaluating the first b rows ended with exit "
            f"status {os.waitstatus_to_exitcode(status)} and no result"))
    if isinstance(mine, Exception):
        raise mine
    return [theirs, mine]


def _surface_csv(header, out, evaluate, bands) -> list:
    """Write the CSV of ``bands`` of b rows to ``out`` in band order.

    ``evaluate(band)`` returns the (columns, summary) of one band.  Every
    band is evaluated before ``out`` is opened.  In one process the rows
    are formatted as they are written.  In two (``_forks``) each process
    formats its own band, and this one holds the text of both until it
    writes them.  Returns the summaries, in band order.
    """
    def formatted(band):
        columns, summary = evaluate(band)
        return list(_csv_chunks(columns)), summary

    if _forks(len(bands)):
        parts = _in_two_processes(formatted, bands)
    else:
        parts = [(_csv_chunks(columns), summary)
                 for columns, summary in map(evaluate, bands)]
    with _open_out(out) as fh:
        fh.write(",".join(header) + "\n")
        for chunks, _ in parts:
            fh.writelines(chunks)
    return [summary for _, summary in parts]


# ---------------------------------------------------------------------------
# option tables
#
# Each subcommand declares its value flags once, as a table of
# key: (kind, default, help).  ``kind`` is the flag's type, a tuple of
# choices, [float] for a repeatable flag, or "FILE" for a path.  The
# parser adds one flag per key; ``_resolve`` takes the defaults and checks
# the kinds from the same table, so a flag and its key cannot drift apart.

_TARGET = {k: (float, None, f"target matrix entry {k}") for k in "abcd"}


def _weights(prefix: str = "g", what: str = "cluster",
             defaults=(1.0, 1.0, 1.0, 1.0)) -> dict:
    return {f"{prefix}{k}": (float, g, f"{what} weight g{k}")
            for k, g in enumerate(defaults, start=1)}


_GRID = {
    "b_min": (float, -5.0, "grid lower bound for b"),
    "b_max": (float, 5.0, "grid upper bound for b"),
    "nb": (int, 101, "number of b samples"),
    "d_min": (float, -5.0, "grid lower bound for d"),
    "d_max": (float, 5.0, "grid upper bound for d"),
    "nd": (int, 101, "number of d samples"),
}
_CUBIC = {
    "gamma": (float, None, "cubic gate strength"),
    "alpha": (float, None, "displacement before the cubic gate"),
}
_IM = {"im": (float, None, "photocurrent scale (default 3*gamma*alpha^2)")}
_THETA4P = {"theta4p": (float, math.pi / 2.0,
                        "free phase theta4' in (0, pi); default pi/2")}
_DB = (float, -15.0, "squeezing level in dB")
_JSON_OUT = ("FILE", None, "write JSON here instead of stdout")


# ---------------------------------------------------------------------------
# solve-phases

_SOLVE_OPTIONS = {**_TARGET, **_weights(), **_THETA4P, "out": _JSON_OUT}


def cmd_solve_phases(values: dict) -> int:
    from .phases import solve_phases, theta2_unprimed, theta4_unprimed

    target = _target(values)
    w = _weight_config(values)
    result = solve_phases(target, w, values["theta4p"])
    ph = result.phases
    payload = {
        "target": asdict(target),
        "weights": list(w.as_tuple()),
        "phases": {**ph.angles(),
                   "theta2": theta2_unprimed(ph.cot2p, w),
                   "theta4": theta4_unprimed(ph.cot4p, w)},
        "cots": {
            "cot_theta1": ph.cot1,
            "cot_theta2p": ph.cot2p,
            "cot_theta3": ph.cot3,
            "cot_theta4p": ph.cot4p,
        },
        "realized": asdict(result.realized),
        "residual": result.residual,
    }
    _deliver(_dumps(payload), values["out"])
    return 0


# ---------------------------------------------------------------------------
# error-surface

_SURFACE_OPTIONS = {
    "mode": (MODES, MODE_GAUSSIAN_FIXED, "evaluation mode"),
    **_weights(),
    **_GRID,
    "db": (float, -15.0, "squeezing level in dB (recorded in the manifest; "
                         "surface values are variance multipliers)"),
    **_CUBIC,
    **_IM,
    "out": ("FILE", None, "write CSV here (plus a manifest sidecar) "
                          "instead of stdout"),
}


def cmd_error_surface(values: dict) -> int:
    from .errormodel import ErrorSurface, error_surface

    bands = [_surface_spec(values, "g", values["mode"], rows)
             for rows in _bands(values["nb"])]
    _surface_csv(ErrorSurface.COLUMNS, values["out"],
                 lambda spec: (error_surface(spec).to_rows(), None), bands)
    return 0


# ---------------------------------------------------------------------------
# gain-surface

_GAIN_OPTIONS = {
    "db": _DB,
    **_weights("base_g", "baseline"),
    "base_mode": (MODES, MODE_GAUSSIAN_FIXED, "baseline mode"),
    **_weights("opt_g", "optimized", (5.0, 5.0, 4.0, 4.0)),
    "opt_mode": (MODES, MODE_GAUSSIAN_OPTIMIZED, "optimized mode"),
    **_GRID,
    **_CUBIC,
    **_IM,
    "out": ("FILE", None, "write CSV here (required; a manifest sidecar "
                          "is written next to it)"),
}


def _gain_summary(parts: list) -> dict:
    """The summary of a gain map from those of its bands, in b order.

    The largest finite ``max_ratio`` wins, the earlier band on a tie, as
    the first largest cell does on the whole grid; NaN, a band with no
    valid cell, never wins unless every band has it.  The invalid counts
    add up.
    """
    best = max(parts, key=lambda p: -math.inf if math.isnan(p["max_ratio"])
               else p["max_ratio"])
    return {**best, **{key: sum(p[key] for p in parts) for key in
                       ("n_invalid_baseline", "n_invalid_optimized")}}


def cmd_gain_surface(values: dict) -> int:
    from .gkp import GainSurface, gain_surface

    _require(values, "out")
    bands = [(_surface_spec(values, "base_g", values["base_mode"], rows),
              _surface_spec(values, "opt_g", values["opt_mode"], rows))
             for rows in _bands(values["nb"])]
    squeezing = SqueezingSpec.from_db(values["db"])

    def evaluate(specs):
        gs = gain_surface(*specs, squeezing)
        bmax, dmax = gs.argmax_cell
        return gs.to_rows(), {
            "max_ratio": gs.max_ratio,
            "argmax_b": bmax,
            "argmax_d": dmax,
            "n_invalid_baseline": gs.baseline.n_invalid,
            "n_invalid_optimized": gs.optimized.n_invalid,
        }

    summaries = _surface_csv(GainSurface.COLUMNS, values["out"], evaluate,
                             bands)
    sys.stdout.write(_dumps(_gain_summary(summaries)))
    return 0


# ---------------------------------------------------------------------------
# simulate

# No "im": the cross-check uses each shot's measured photocurrents.
_SIMULATE_OPTIONS = {
    "variant": (VARIANTS, VARIANT_GAUSSIAN, "protocol variant"),
    **_TARGET,
    **_weights(),
    **_THETA4P,
    "db": _DB,
    "shots": (int, 100000, "number of shots"),
    "seed": (int, 0, "RNG seed"),
    **_CUBIC,
    "mean_x": (float, 0.0, "input mean of x"),
    "mean_y": (float, 0.0, "input mean of y"),
    "var_x": (float, 0.25, "input variance of x"),
    "var_y": (float, 0.25, "input variance of y"),
    "z_gate": (float, 5.0, "max |z| before exit code 3 (default 5); finite "
                           "and > 0: inf is rejected because the manifest "
                           "could not record it"),
    "records": ("FILE", None, "also write per-shot records as CSV, streamed "
                              "block by block; written in full before the "
                              "gate verdict"),
    "out": ("FILE", None, "write the JSON summary here (plus a manifest "
                          "sidecar) instead of stdout"),
}


def _gate_failure(summary, z_gate: float):
    """(slug, message) when ``summary`` fails the statistical gate, else None.

    A non-finite z-score or a variance estimate that is not positive fails
    outright: no comparison with the gate can pass on them.
    """
    z = np.concatenate([summary.z_mean, summary.z_error_var])
    if not np.all(np.isfinite(z)):
        return "invalid-statistics", f"non-finite z-score in {z.tolist()!r}"
    variances = np.concatenate([np.diag(summary.cov_out),
                                np.diag(summary.error_cov)])
    if not np.all(variances > 0.0):
        return ("invalid-statistics",
                f"variance estimate not positive in {variances.tolist()!r}")
    worst = float(np.max(np.abs(z)))
    if worst > z_gate:
        return "z-gate-exceeded", f"max |z| = {worst!r} exceeds gate {z_gate!r}"
    return None


def cmd_simulate(values: dict) -> int:
    from .simulate import RECORD_COLUMNS, InputState, SimConfig, run

    target = _target(values)
    z_gate = values["z_gate"]
    if z_gate <= 0.0:
        raise DomainError(f"--z-gate must be > 0, got {z_gate!r}")
    records = values["records"]
    variant = values["variant"]
    config = SimConfig(
        target=target,
        w=_weight_config(values),
        theta4p=values["theta4p"],
        squeezing=SqueezingSpec.from_db(values["db"]),
        variant=variant,
        n_shots=values["shots"],
        seed=values["seed"],
        cubic=_cubic_config(values, variant == VARIANT_CUBIC),
        input_state=InputState(*(values[k] for k in
                                 ("mean_x", "mean_y", "var_x", "var_y"))),
    )
    with (contextlib.nullcontext() if records is None
          else _csv_writer(RECORD_COLUMNS, records)) as write_records:
        summary = run(config, record_sink=write_records)
    _deliver(_dumps(summary.to_dict()), values["out"])
    failure = _gate_failure(summary, z_gate)
    if failure is not None:
        _emit_error(*failure)
        return 3
    return 0


# ---------------------------------------------------------------------------
# weight-bound

_WEIGHT_BOUND_OPTIONS = {
    "db": (float, None, "squeezing level in dB"),
    "g": ([float], None, "weight >= 0 to test for admissibility (repeatable)"),
    "out": _JSON_OUT,
}


def cmd_weight_bound(values: dict) -> int:
    from .czgate import check_weight, max_weight

    _require(values, "db")
    db = values["db"]
    bound = max_weight(db)
    # null, from a config file, means "not given", as for every other key.
    weights = [] if values["g"] is None else values["g"]
    for g in weights:
        check_weight(g)
    payload = {
        "db": db,
        "max_weight": bound,
        "weights": [{"g": g, "admissible": g <= bound} for g in weights],
    }
    _deliver(_dumps(payload), values["out"])
    return 0


# ---------------------------------------------------------------------------
# cz-decompose

_CZ_OPTIONS = {"g": (float, None, "CZ weight (nonnegative)"), "out": _JSON_OUT}


def cmd_cz_decompose(values: dict) -> int:
    from .czgate import bloch_messiah

    _require(values, "g")
    dec = bloch_messiah(values["g"])
    payload = {
        "g": dec.g,
        "s": dec.s,
        "r_bs": dec.r_bs,
        "t_bs": dec.t_bs,
        "factors": {
            "phase_left": dec.phase_left,
            "bs_left": dec.bs_left,
            "squeezer": dec.squeezer,
            "bs_right": dec.bs_right,
            "phase_right": dec.phase_right,
        },
        "residual": dec.residual,
    }
    _deliver(_dumps(payload), values["out"])
    return 0


# ---------------------------------------------------------------------------
# parser

# name: (help, command, option table), in the order --help lists them.
_SUBCOMMANDS = {
    "solve-phases": ("homodyne phases realising a target operation",
                     cmd_solve_phases, _SOLVE_OPTIONS),
    "error-surface": ("closed-form error multipliers on a (b, d) grid",
                      cmd_error_surface, _SURFACE_OPTIONS),
    "simulate": ("Monte Carlo run cross-checked against the closed-form "
                 "error model", cmd_simulate, _SIMULATE_OPTIONS),
    "gain-surface": ("correction-failure probability ratio surface",
                     cmd_gain_surface, _GAIN_OPTIONS),
    "weight-bound": ("largest admissible weight for a squeezing level",
                     cmd_weight_bound, _WEIGHT_BOUND_OPTIONS),
    "cz-decompose": ("decompose a weighted CZ gate into linear optics and "
                     "one squeezer", cmd_cz_decompose, _CZ_OPTIONS),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one JSON line, in subparsers too."""

    def error(self, message):
        _emit_error("invalid-config", message)
        self.exit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clustergauss",
        description="Design and error analysis of single-mode operations "
                    "on weighted four-node cluster states.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, options) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", metavar="FILE",
                        help="JSON file supplying defaults for the value "
                             "flags; a run manifest (*.manifest.json) is "
                             "accepted")
        for key, (kind, _, flag_help) in options.items():
            if kind == "FILE":
                spec = {"metavar": "FILE"}
            elif isinstance(kind, tuple):
                spec = {"choices": kind}
            elif isinstance(kind, list):
                spec = {"type": kind[0], "action": "append"}
            else:
                spec = {"type": kind}
            sp.add_argument(_flag(key), help=flag_help, **spec)
            if key == "theta4p":
                sp.add_argument("--degrees", action="store_true",
                                help="interpret angle flags in degrees "
                                     "(stored and reported values are "
                                     "radians)")
    return parser


def _tune_allocator() -> None:
    """Set the malloc thresholds above; a no-op where libc has no mallopt."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _tune_allocator()
    _, command, options = _SUBCOMMANDS[args.command]
    if getattr(args, "degrees", False) and args.theta4p is not None:
        # Only flags take degrees: configs and manifests store radians.
        args.theta4p = math.radians(args.theta4p)
    try:
        values, recorded = _resolve(args, _load_config(args.config), options)
        _check_outputs(values)
        code = command(values)
        if values["out"] is not None:
            _write_manifest(values["out"], args.command, recorded)
        return code
    except Exception as exc:
        failure = _failure(exc)
        if failure is None:
            raise
        code, slug, message = failure
        _emit_error(slug, message)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
