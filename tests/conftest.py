import os
from concurrent.futures import Future

import numpy as np
import pytest

import acceptance_log

from clustergauss import SqueezingSpec, SymplecticTarget, WeightConfig
from clustergauss import simulate


@pytest.fixture
def unit_weights():
    return WeightConfig(1.0, 1.0, 1.0, 1.0)


@pytest.fixture
def strong_weights():
    """Asymmetric high-weight operating point used throughout the suite."""
    return WeightConfig(5.0, 5.0, 4.0, 4.0)


@pytest.fixture
def squeezing_15db():
    return SqueezingSpec.from_db(-15.0)


@pytest.fixture
def generic_target():
    a, b, c = 1.2, 0.5, 0.3
    return SymplecticTarget(a, b, c, (1.0 + b * c) / a)


def complete_target(a, b, c):
    """Symplectic target with d completed from the determinant."""
    return SymplecticTarget(float(a), float(b), float(c),
                            (1.0 + float(b) * float(c)) / float(a))


@pytest.fixture
def make_target():
    return complete_target


@pytest.fixture
def pool_sizes(monkeypatch):
    """Record the ``max_workers`` of each ``simulate`` pool; start no thread.

    The pool becomes an inline stand-in that runs each submitted task on
    the calling thread, and the process appears to have three CPUs.
    Returns the list of recorded sizes.
    """
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    return sizes


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_log.LINES:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance criteria")
        for line in acceptance_log.LINES:
            terminalreporter.write_line(line)
