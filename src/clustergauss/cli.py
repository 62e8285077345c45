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
a variance estimate is not positive.  Python warnings, such as
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

``error-surface``, ``gain-surface`` and ``simulate`` share their work
with one helper thread (``core.in_turns``): the surface evaluator's
blocks of cells, the CSV writer's chunks of rows and ``simulate``'s shot
blocks, each drawn into an array of its own, are taken in turns, the odd
ones on the helper, and are used in order.  Where the process may use
one CPU only, the caller takes them all and no helper starts.  So the
output bytes are those of one thread, on one CPU or several.  An
interrupt ends the command after the helper's current block or chunk.
No command starts a process.

A CLI process (``clustergauss`` or ``python -m clustergauss.cli``) enters
through ``entry``, which freezes the heap once ``main`` has returned so
that the interpreter's exit skips collecting it; ``main`` itself leaves
the collector alone.

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` where the
environment does not set it or sets it empty (which OpenBLAS reads as
unset), before numpy loads, so that OpenBLAS starts no thread pool.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
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
    in_turns,
)

MANIFEST_SCHEMA_VERSION = 1
# No command reads this variable.  Only the benchmark harness reads the
# name, to unset it, so it stays while the harness does.
WORKERS_ENV = "CLUSTERGAUSS_WORKERS"

# Values formatted per chunk; bounds the text formatted at once, whatever
# the column count.  The formatter's work arrays take about 400 bytes a
# value.  With the chunks formatted in turns on two threads, a fresh 401^2
# gain-surface process took 0.369 s at 2**14, 0.341 s at 2**15 and 0.380 s
# at 2**16, and the optimized error-surface 0.458, 0.426 and 0.449 s
# (medians of 20 alternating runs, 2-vCPU Xeon).  Under glibc's default
# malloc thresholds a chunk's cost was mostly faulting in the pages of the
# work arrays the last chunk freed.
CSV_CHUNK_VALUES = 2**15

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


@contextlib.contextmanager
def _csv_writer(header, out):
    """Open ``out`` (stdout if None), write ``header``, yield ``write``.

    Every CSV output is opened here.  ``write(columns)`` writes the rows of
    a tuple of equal-length float64 columns in header order, and may be
    called again.  Each value is written as the repr of its Python float,
    a non-finite one as an empty field; nothing needs quoting.  The columns
    are stacked into rows and formatted (``csvtext.csv_rows``) about
    CSV_CHUNK_VALUES values at a time, in turns by the caller and one
    helper thread (``core.in_turns``), and each chunk is written as it is
    used, so the text is never held whole.
    """
    # Imported here, so that only the commands that write CSV load it.
    from .csvtext import csv_rows

    with (contextlib.nullcontext(sys.stdout) if out is None
          else open(out, "w")) as fh:
        fh.write(",".join(header) + "\n")

        def write(columns):
            chunk = max(1, CSV_CHUNK_VALUES // len(columns))

            def text(k):
                return csv_rows(np.column_stack(
                    [col[k * chunk:(k + 1) * chunk] for col in columns]))

            fh.writelines(in_turns(text, -(-len(columns[0]) // chunk)))

        yield write


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


def _surface_spec(values: dict, prefix: str, mode: str):
    """The ErrorSurfaceSpec of the (b, d) grid for weights ``prefix``1-4."""
    from .errormodel import ErrorSurfaceSpec

    return ErrorSurfaceSpec(
        b_range=(values["b_min"], values["b_max"]),
        d_range=(values["d_min"], values["d_max"]),
        nb=values["nb"], nd=values["nd"],
        w=_weight_config(values, prefix), mode=mode,
        cubic=_cubic_config(values, mode == MODE_CUBIC_OPTIMIZED))


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
    from .errormodel import error_surface

    surface = error_surface(_surface_spec(values, "g", values["mode"]))
    with _csv_writer(surface.COLUMNS, values["out"]) as write:
        write(surface.to_rows())
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


def cmd_gain_surface(values: dict) -> int:
    from .gkp import gain_surface

    _require(values, "out")
    gs = gain_surface(_surface_spec(values, "base_g", values["base_mode"]),
                      _surface_spec(values, "opt_g", values["opt_mode"]),
                      SqueezingSpec.from_db(values["db"]))
    with _csv_writer(gs.COLUMNS, values["out"]) as write:
        write(gs.to_rows())
    bmax, dmax = gs.argmax_cell
    sys.stdout.write(_dumps({
        "max_ratio": gs.max_ratio,
        "argmax_b": bmax,
        "argmax_d": dmax,
        "n_invalid_baseline": gs.baseline.n_invalid,
        "n_invalid_optimized": gs.optimized.n_invalid,
    }))
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
          else _csv_writer(RECORD_COLUMNS, records)) as write:
        summary = run(config, record_sink=write)
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
    except DomainError as exc:
        _emit_error(_slug(exc), str(exc))
        return 2
    except (ValueError, OSError) as exc:
        _emit_error("invalid-config", str(exc))
        return 2
    except ArithmeticError as exc:
        # Float arithmetic overflowed or divided by zero on extreme inputs
        # (say --db 1e308 or a weight of 5e-324).
        _emit_error("invalid-config", f"input out of range: {exc}")
        return 2
    except MemoryError as exc:
        # An array for the input could not be allocated (say --nb 1e12).
        _emit_error("invalid-config", f"input too large: {exc}")
        return 2


def entry() -> int:
    """The process entry: ``main()``, then ``gc.freeze()``, its exit code.

    The freeze moves every object left to the permanent generation, which
    the interpreter's collections at exit skip (README has the timings).
    Output flushes, atexit hooks and exit codes are unchanged.  ``main``
    itself does not freeze, so in-process callers keep their collections.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
