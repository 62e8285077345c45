"""Design and error analysis of measurement-based single-mode operations.

A four-node linear cluster state with edge weights (g1, g2, g3, g4)
plus homodyne measurement and one feedforward displacement implements
an arbitrary single-mode symplectic operation.  This package solves for
the measurement phases, predicts the implementation error added by
finite resource squeezing (with an optional cubic-phase variant and a
free-phase optimizer), validates the closed forms against a Monte Carlo
simulator, decomposes weighted CZ gates into linear optics, and maps
the resulting gain in grid-state error correction.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it: the package's only list
# of public names, since no submodule declares an ``__all__``.  A name is
# imported on first use (PEP 562), so ``import clustergauss`` loads no
# submodule, and each CLI command loads only the modules it computes with.
_EXPORTS = {
    # core types, conversions, errors and the mode / variant choices
    "core": (
        "CubicConfig", "ErrorVector", "PhaseSet", "SqueezingSpec",
        "SymplecticTarget", "WeightConfig", "arccot", "db_to_variance",
        "validate_target",
        "DomainError", "DegenerateD", "DenominatorPole", "NonpositiveIm",
        "NotSymplectic",
        "MODES", "MODE_CUBIC_OPTIMIZED", "MODE_GAUSSIAN_FIXED",
        "MODE_GAUSSIAN_OPTIMIZED",
        "VARIANTS", "VARIANT_CUBIC", "VARIANT_GAUSSIAN",
    ),
    # phase solving
    "phases": (
        "ArbitrarinessReport", "SolverResult", "check_arbitrariness",
        "forward_entries", "forward_matrix", "sample_targets", "solve_cots",
        "solve_phases", "theta2_unprimed", "theta4_unprimed",
    ),
    # error model
    "errormodel": (
        "ErrorSurface", "ErrorSurfaceSpec", "OptimizeResult",
        "error_surface", "error_vector_cubic", "error_vector_gaussian",
        "error_vector_raw", "optimize_theta4",
    ),
    # CZ gate decomposition
    "czgate": (
        "CzDecomposition", "bloch_messiah", "cz_matrix", "max_weight",
        "squeeze_ratio",
    ),
    # simulation
    "simulate": (
        "RECORD_COLUMNS", "SHOT_BLOCK", "InputState", "LinearizationReport",
        "SimConfig", "SimSummary", "SmallDisplacementWarning",
        "linearization_check", "run",
    ),
    # grid-state correction
    "gkp": (
        "CORRECTION_VARIANCE_UNITS", "GKP_X_OFFSET", "GKP_Y_OFFSET",
        "GainSurface", "gain_surface", "p_err_values",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # Unknown here, so ``from clustergauss import cli`` imports the
        # submodule instead.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
