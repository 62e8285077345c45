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
``p_err_values`` takes ``var_s`` literally.  The complementary error
function is the C library's, through ``math.erfc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, SqueezingSpec
from .errormodel import ErrorSurface, ErrorSurfaceSpec, error_surface

GKP_X_OFFSET = (np.sqrt(5.0) + 1.0) / 2.0
GKP_Y_OFFSET = np.sqrt(5.0) + 1.0

# The correction-probability formula is calibrated with vacuum variance
# 1/2; this package's squeezed variances use vacuum 1/4.  Multiply a
# var_y from SqueezingSpec by this factor before feeding the formula.
CORRECTION_VARIANCE_UNITS = 2.0


def _erfc(x: np.ndarray) -> np.ndarray:
    """libm's complementary error function (``math.erfc``), elementwise.

    NaN passes through; +inf and -inf give 0 and 2.  ``math.erfc`` is
    called once per run of equal values in the flattened array: a
    fixed-phase surface has one ex in every cell.  NaN never equals
    itself, so each NaN is a run of its own; 0.0 and -0.0 share a run,
    and both give 1.
    """
    flat = x.ravel()
    starts = np.ones(flat.size, dtype=bool)
    starts[1:] = flat[1:] != flat[:-1]
    starts = np.flatnonzero(starts)
    values = np.fromiter(map(math.erfc, flat[starts].tolist()), float,
                         starts.size)
    return np.repeat(values, np.diff(starts, append=flat.size)).reshape(
        x.shape)


def p_err_values(x_er, y_er, var_s):
    """Vectorised residual-failure probability (see module docstring).

    Evaluated as a + b - a*b with a, b the complementary error functions
    of the two arguments; this is exactly 1 - erf*erf but immune to the
    cancellation both erf factors ~ 1 would cause.
    """
    x_er = np.asarray(x_er, dtype=float)
    y_er = np.asarray(y_er, dtype=float)
    amp = np.sqrt(np.pi) / (2.0 * np.sqrt(2.0))
    with np.errstate(invalid="ignore"):
        a = _erfc(amp / np.sqrt(var_s * (x_er + GKP_X_OFFSET)))
        b = _erfc(amp / np.sqrt(var_s * (y_er + GKP_Y_OFFSET)))
    return a + b - a * b


@dataclass(frozen=True)
class GainSurface:
    """Cellwise ratio of baseline over optimized failure probabilities.

    Arrays are indexed [i_b, i_d] over the baseline's grid, which the
    optimized surface shares; cells missing in either input surface are
    NaN.
    """

    # The CSV header: the names of ``to_rows``' columns, in order.
    COLUMNS = ("b", "d", "p_err_base", "p_err_opt", "ratio")

    baseline: ErrorSurface
    optimized: ErrorSurface
    p_base: np.ndarray
    p_opt: np.ndarray

    @property
    def ratio(self) -> np.ndarray:
        """p_base / p_opt per cell, NaN where either is missing.

        A ratio beyond the float range is inf, which the CSV leaves empty
        and ``max_ratio`` skips, like a missing cell.
        """
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            return self.p_base / self.p_opt

    def _argmax(self):
        """Index of the largest finite ratio, or None if no cell is valid."""
        ratio = self.ratio
        finite = np.where(np.isfinite(ratio), ratio, -np.inf)
        i, j = np.unravel_index(int(np.argmax(finite)), finite.shape)
        return (i, j) if np.isfinite(finite[i, j]) else None

    @property
    def max_ratio(self) -> float:
        """Largest finite p_base / p_opt on the grid (NaN if none).

        Over a fixed-phase baseline a free-phase maximum sits next to the
        baseline's pole b = 0, where p_base -> 1, on a d edge; it tends to
        1/p_opt there, so it grows with resolution: 576.1 at (-0.1, -5) on
        the default 101x101 map (p_base 0.907), 605.4 at 201x201, 627.3 at
        (-0.025, 5) at 401x401.  The limits 1/p_opt(0, d) at the d edges
        are 650.1 at d = 5 and 634.8 at d = -5.
        """
        ij = self._argmax()
        return float("nan") if ij is None else float(self.ratio[ij])

    @property
    def argmax_cell(self) -> tuple:
        """(b, d) of the maximal ratio cell (NaN pair if none valid)."""
        ij = self._argmax()
        if ij is None:
            return (float("nan"), float("nan"))
        spec = self.baseline.spec
        return (float(spec.b_values[ij[0]]), float(spec.d_values[ij[1]]))

    def to_rows(self):
        """The COLUMNS as arrays, flattened b-major.

        A tuple of equal-length float64 arrays: entry k of each column
        belongs to row k of the table.  Missing cells are NaN.
        """
        return (*self.baseline.spec.cells(), self.p_base.ravel(),
                self.p_opt.ravel(), self.ratio.ravel())


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
    if baseline.grid != optimized.grid:
        raise DomainError("baseline and optimized specs must share the grid")

    base = error_surface(baseline)
    opt = error_surface(optimized)
    var_s = CORRECTION_VARIANCE_UNITS * squeezing.var_y

    # A cell missing in either surface is missing in both columns, and a
    # NaN probability makes the ratio NaN.
    invalid = ~np.isfinite(base.err_inf) | ~np.isfinite(opt.err_inf)
    p_base = np.where(invalid, np.nan, p_err_values(base.ex, base.ey, var_s))
    p_opt = np.where(invalid, np.nan, p_err_values(opt.ex, opt.ey, var_s))
    return GainSurface(baseline=base, optimized=opt, p_base=p_base,
                       p_opt=p_opt)
