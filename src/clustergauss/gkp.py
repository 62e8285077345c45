"""Residual error probability of grid-state correction, and gain surfaces.

After a computation, each output quadrature carries Gaussian noise of
variance (multiplier * var_s).  Correcting that displacement noise with
non-ideal grid states fails with probability

    P_err = 1 - erf(sqrt(pi) / (2*sqrt(2)*sqrt(var_s*(x_er + (sqrt5+1)/2))))
              * erf(sqrt(pi) / (2*sqrt(2)*sqrt(var_s*(y_er + sqrt5 + 1))))

where the two additive constants are the correction-circuit overhead
(the asymmetry reflects the order in which the quadratures are
corrected).  The correction model is calibrated in units where the
vacuum quadrature variance is 1/2; this package works in vacuum-1/4
units, so squeezed variances must be doubled on the way in
(CORRECTION_VARIANCE_UNITS).  ``gain_surface`` applies the conversion;
``p_err`` takes ``var_s`` literally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DomainError, SqueezingSpec
from .errormodel import ErrorSurface, ErrorSurfaceSpec, error_surface

__all__ = [
    "GKP_X_OFFSET",
    "GKP_Y_OFFSET",
    "CORRECTION_VARIANCE_UNITS",
    "PerrInput",
    "GainSurface",
    "p_err",
    "p_err_values",
    "gain_surface",
]

GKP_X_OFFSET = (np.sqrt(5.0) + 1.0) / 2.0
GKP_Y_OFFSET = np.sqrt(5.0) + 1.0

# The correction-probability formula is calibrated with vacuum variance
# 1/2; this package's squeezed variances use vacuum 1/4.  Multiply a
# var_y from SqueezingSpec by this factor before feeding the formula.
CORRECTION_VARIANCE_UNITS = 2.0


@dataclass(frozen=True)
class PerrInput:
    """Dimensionless error multipliers and the squeezed variance scale.

    The actual quadrature error variances are x_er*var_s and y_er*var_s;
    ``var_s`` must already be expressed in the correction model's
    vacuum-1/2 units.
    """

    x_er: float
    y_er: float
    var_s: float

    def __post_init__(self):
        if not (np.isfinite(self.x_er) and self.x_er >= 0):
            raise DomainError(f"x_er = {self.x_er!r} must be >= 0")
        if not (np.isfinite(self.y_er) and self.y_er >= 0):
            raise DomainError(f"y_er = {self.y_er!r} must be >= 0")
        if not (np.isfinite(self.var_s) and self.var_s > 0):
            raise DomainError(f"var_s = {self.var_s!r} must be > 0")


def p_err_values(x_er, y_er, var_s):
    """Vectorised residual-failure probability (see module docstring).

    Evaluated as a + b - a*b with a, b the complementary error functions
    of the two arguments; this is exactly 1 - erf*erf but immune to the
    cancellation both erf factors ~ 1 would cause.
    """
    # Imported here, so that only the failure probabilities load it.
    from .ndtr import erfc

    x_er = np.asarray(x_er, dtype=float)
    y_er = np.asarray(y_er, dtype=float)
    amp = np.sqrt(np.pi) / (2.0 * np.sqrt(2.0))
    with np.errstate(invalid="ignore"):
        a = erfc(amp / np.sqrt(var_s * (x_er + GKP_X_OFFSET)))
        b = erfc(amp / np.sqrt(var_s * (y_er + GKP_Y_OFFSET)))
    return a + b - a * b


def p_err(inp: PerrInput) -> float:
    """Probability that the quadrature-displacement correction fails."""
    return float(p_err_values(inp.x_er, inp.y_er, inp.var_s))


@dataclass(frozen=True)
class GainSurface:
    """Cellwise ratio of baseline over optimized failure probabilities.

    Arrays are indexed [i_b, i_d] over the baseline's grid, which the
    optimized surface shares; cells missing in either input surface are
    NaN.
    """

    baseline: ErrorSurface
    optimized: ErrorSurface
    squeezing: SqueezingSpec
    p_base: np.ndarray
    p_opt: np.ndarray
    ratio: np.ndarray

    @property
    def b_values(self) -> np.ndarray:
        return self.baseline.b_values

    @property
    def d_values(self) -> np.ndarray:
        return self.baseline.d_values

    def _argmax(self):
        """Index of the largest finite ratio, or None if no cell is valid."""
        finite = np.where(np.isfinite(self.ratio), self.ratio, -np.inf)
        i, j = np.unravel_index(int(np.argmax(finite)), finite.shape)
        return (i, j) if np.isfinite(finite[i, j]) else None

    @property
    def max_ratio(self) -> float:
        """Largest finite p_base / p_opt on the grid (NaN if none).

        Over a fixed-phase baseline a free-phase maximum sits next to the
        baseline's pole b = 0, where p_base -> 1, on a d edge; it tends to
        1/p_opt there, so it grows with resolution: 576.1 at (-0.1, -5) on
        the default 101x101 map (p_base 0.907), 605.4 at 201x201, ~635.
        """
        ij = self._argmax()
        return float("nan") if ij is None else float(self.ratio[ij])

    @property
    def argmax_cell(self) -> tuple:
        """(b, d) of the maximal ratio cell (NaN pair if none valid)."""
        ij = self._argmax()
        if ij is None:
            return (float("nan"), float("nan"))
        return (float(self.b_values[ij[0]]), float(self.d_values[ij[1]]))

    def to_rows(self):
        """The CSV columns b, d, p_err_base, p_err_opt, ratio, b-major.

        A tuple of equal-length float64 arrays: entry k of each column
        belongs to row k of the table.  Missing cells are NaN.
        """
        nb, nd = self.ratio.shape
        return (
            np.repeat(self.b_values, nd), np.tile(self.d_values, nb),
            self.p_base.ravel(), self.p_opt.ravel(), self.ratio.ravel(),
        )


def gain_surface(
    baseline: ErrorSurfaceSpec,
    optimized: ErrorSurfaceSpec,
    squeezing: SqueezingSpec,
) -> GainSurface:
    """Ratio of correction-failure probabilities, baseline over optimized.

    Both specs must describe the same (b, d) grid.  Error multipliers
    come from the closed-form surfaces; the squeezed variance is
    converted to the correction model's units before entering the
    probability formula.

    Args:
        baseline: spec of the non-optimized computation (typically
            unweighted, fixed phase).
        optimized: spec of the optimized computation.
        squeezing: resource squeezing level.

    Returns:
        GainSurface; a cell is NaN if either surface is missing there.
    """
    if (tuple(baseline.b_range) != tuple(optimized.b_range)
            or tuple(baseline.d_range) != tuple(optimized.d_range)
            or baseline.nb != optimized.nb or baseline.nd != optimized.nd):
        raise DomainError("baseline and optimized specs must share the grid")

    base = error_surface(baseline)
    opt = error_surface(optimized)
    var_s = CORRECTION_VARIANCE_UNITS * squeezing.var_y

    # A cell missing in either surface is missing in both columns, and a
    # NaN probability makes the ratio NaN.
    invalid = ~np.isfinite(base.err_inf) | ~np.isfinite(opt.err_inf)
    p_base = np.where(invalid, np.nan, p_err_values(base.ex, base.ey, var_s))
    p_opt = np.where(invalid, np.nan, p_err_values(opt.ex, opt.ey, var_s))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = p_base / p_opt

    return GainSurface(
        baseline=base,
        optimized=opt,
        squeezing=squeezing,
        p_base=p_base,
        p_opt=p_opt,
        ratio=ratio,
    )
