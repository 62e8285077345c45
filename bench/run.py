"""clustergauss benchmark: one workload per invocation.

    python3 bench/run.py --workload maps --seed 1 --seconds 15 --trace 0

Prints the environment, one table row per metric (name, value, unit,
sample count), and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  Exits
2 without a result when the package under ``src/`` cannot be run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("maps", "montecarlo", "design-loop")


def _fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _loadavg() -> str:
    try:
        with open("/proc/loadavg") as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def environment() -> dict:
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "loadavg_at_start": _loadavg(),
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    # Let an interrupted run stop its child processes and remove its
    # temporary directory before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = environment()
    if not (SRC / "clustergauss" / "__init__.py").is_file():
        return _fail(f"no clustergauss package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import measure
        import traced
    except ImportError as exc:
        return _fail(f"cannot import the package under test: {exc}")
    # Every workload runs at the default worker count.
    os.environ.pop(traced.cli.WORKERS_ENV, None)

    run = traced.trace if args.trace else measure.measure
    try:
        result = run(args.workload, args.seed, args.seconds)
    except measure.SetupError as exc:
        return _fail(str(exc))

    print("env " + json.dumps(env, sort_keys=True))
    for reason in result.reasons:
        print(f"FAILED {args.workload}: {reason}")
    print(f"{'workload':<12} {'metric':<42} {'value':>16} {'unit':<6} n")
    for name, (value, unit, n) in {**result.metrics, **result.table}.items():
        print(f"{args.workload:<12} {name:<42} {value:>16.6g} {unit:<6} {n}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
