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


def exact_protocol_map(config, phases):
    """Offset and 2x10 linear map L of a Gaussian run's ``_propagate``.

    The Gaussian protocol is affine in the 10 sampled quadratures (the
    ``_draw_block`` rows), so propagating 11 columns, zero and then each
    unit vector, gives (x_out, y_out) = offset + L @ q exactly, with no
    sampling.  Only ``simulate._propagate`` is called, and it reads only
    ``config.w`` and ``config.cubic`` (None).

    ``phases`` is a ``PhaseSet`` for one target, giving offset (2,) and L
    (2, 10).  For n cells at once, pass any record with the four
    cotangent fields as arrays of shape (n, 1); ``_propagate`` broadcasts
    over the cells, and offset has shape (2, n) and L (2, n, 10).
    """
    q = np.hstack([np.zeros((10, 1)), np.eye(10)])
    shots = simulate._propagate(q, config, phases)
    out = np.stack([shots.x_out, shots.y_out])
    return out[..., 0], out[..., 1:] - out[..., :1]


@pytest.fixture
def protocol_map():
    return exact_protocol_map


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_log.LINES:
        terminalreporter.ensure_newline()
        terminalreporter.section("acceptance criteria")
        for line in acceptance_log.LINES:
            terminalreporter.write_line(line)
