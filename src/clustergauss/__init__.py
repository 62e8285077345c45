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

from .core import (
    CubicConfig,
    DegenerateD,
    DenominatorPole,
    DomainError,
    ErrorVector,
    NonpositiveIm,
    NotSymplectic,
    PhaseSet,
    SqueezingSpec,
    SymplecticTarget,
    WeightConfig,
    arccot,
    cot,
    db_to_variance,
    validate_target,
)
from .czgate import (
    CzDecomposition,
    bloch_messiah,
    cz_matrix,
    max_weight,
    squeeze_ratio,
)
from .errormodel import (
    MODE_CUBIC_OPTIMIZED,
    MODE_GAUSSIAN_FIXED,
    MODE_GAUSSIAN_OPTIMIZED,
    MODES,
    ErrorSurface,
    ErrorSurfaceSpec,
    OptimizeResult,
    error_surface,
    error_vector_cubic,
    error_vector_gaussian,
    error_vector_raw,
    optimize_theta4,
)
from .gkp import (
    CORRECTION_VARIANCE_UNITS,
    GKP_X_OFFSET,
    GKP_Y_OFFSET,
    GainSurface,
    PerrInput,
    gain_surface,
    p_err,
    p_err_values,
)
from .phases import (
    ArbitrarinessReport,
    SolverResult,
    check_arbitrariness,
    forward_entries,
    forward_matrix,
    sample_targets,
    solve_cots,
    solve_phases,
    theta2_unprimed,
    theta4_unprimed,
)
from .simulate import (
    RECORD_COLUMNS,
    SHOT_BLOCK,
    VARIANT_CUBIC,
    VARIANT_GAUSSIAN,
    VARIANTS,
    InputState,
    LinearizationReport,
    SimConfig,
    SimSummary,
    SmallDisplacementWarning,
    linearization_check,
    replay_record,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core types and conversions
    "CubicConfig", "ErrorVector", "PhaseSet", "SqueezingSpec",
    "SymplecticTarget", "WeightConfig", "arccot", "cot",
    "db_to_variance", "validate_target",
    # errors
    "DomainError", "DegenerateD", "DenominatorPole", "NonpositiveIm",
    "NotSymplectic",
    # phase solving
    "ArbitrarinessReport", "SolverResult", "check_arbitrariness",
    "forward_entries", "forward_matrix", "sample_targets", "solve_cots",
    "solve_phases", "theta2_unprimed", "theta4_unprimed",
    # error model
    "MODES", "MODE_CUBIC_OPTIMIZED", "MODE_GAUSSIAN_FIXED",
    "MODE_GAUSSIAN_OPTIMIZED", "ErrorSurface", "ErrorSurfaceSpec",
    "OptimizeResult", "error_surface", "error_vector_cubic",
    "error_vector_gaussian", "error_vector_raw", "optimize_theta4",
    # CZ gate decomposition
    "CzDecomposition", "bloch_messiah", "cz_matrix", "max_weight",
    "squeeze_ratio",
    # simulation
    "RECORD_COLUMNS", "SHOT_BLOCK", "VARIANTS", "VARIANT_CUBIC",
    "VARIANT_GAUSSIAN", "InputState", "LinearizationReport", "SimConfig",
    "SimSummary", "SmallDisplacementWarning", "linearization_check",
    "replay_record", "run",
    # grid-state correction
    "CORRECTION_VARIANCE_UNITS", "GKP_X_OFFSET", "GKP_Y_OFFSET",
    "GainSurface", "PerrInput", "gain_surface", "p_err", "p_err_values",
]
