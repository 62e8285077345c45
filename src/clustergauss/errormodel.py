"""Closed-form implementation-error variances and the phase optimizer.

All variances are reported in units of the resource squeezed-quadrature
variance: multiply by ``SqueezingSpec.var_y`` to get absolute numbers.

Two algebraically equivalent routes exist for the Gaussian scheme:

* ``error_vector_raw`` evaluates the error directly from measurement
  phases (the form the derivation produces first);
* ``error_vector_gaussian`` evaluates the substituted closed form in the
  target entries (b, d) and theta4'.

They are kept as separate code paths on purpose — their agreement on
random instances is a regression check on the whole phase-solution
algebra, so neither is implemented in terms of the other.

The x-component of the error always carries a term scaled by
1/(12*gamma*I_m) in the cubic variant where the Gaussian scheme has the
same term at full weight; the cubic error is therefore never larger,
candidate-for-candidate, than the Gaussian one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import (
    POLE_TOL,
    CubicConfig,
    DenominatorPole,
    DomainError,
    ErrorVector,
    NonpositiveIm,
    PhaseSet,
    SymplecticTarget,
    WeightConfig,
    angle_cot,
    arccot,
    pole_masks,
    validate_target,
)

__all__ = [
    "MODES",
    "ErrorSurfaceSpec",
    "ErrorSurface",
    "OptimizeResult",
    "error_vector_raw",
    "error_vector_gaussian",
    "error_vector_cubic",
    "inf_norm",
    "optimize_theta4",
    "error_surface",
]

MODE_GAUSSIAN_FIXED = "gaussian_fixed_phase"
MODE_GAUSSIAN_OPTIMIZED = "gaussian_optimized_phase"
MODE_CUBIC_OPTIMIZED = "cubic_optimized_phase"
MODES = (MODE_GAUSSIAN_FIXED, MODE_GAUSSIAN_OPTIMIZED, MODE_CUBIC_OPTIMIZED)

# Newton steps that polish each closed-form root on its own polynomial.
_NEWTON_STEPS = 2
# Cells per optimizer block.
_BLOCK_CELLS = 2048


class OptimizeResult(NamedTuple):
    """Minimizing node-3 phase and the minimized inf-norm error."""

    theta4p: float
    err_inf: float


def inf_norm(e: ErrorVector) -> float:
    """Scalar error measure: max of the two quadrature error variances."""
    return e.inf_norm


def _components_from_cots(cot3, u4, w: WeightConfig, mid_weight):
    """(ex, ey) from stage-two cotangents.

    ``mid_weight`` scales the middle term of each component: 1 for the
    Gaussian scheme, 1/(12*gamma*I_m) for the cubic variant.
    """
    g1, g2, g3, g4 = w.as_tuple()
    r2 = w.g3_over_g2
    ex = (1.0 / g1**2) * ((cot3 * u4 - 1.0) / r2) ** 2 \
        + mid_weight * (u4 / r2) ** 2 + 1.0 / g3**2
    ey = (1.0 / g1**2) * (r2 * cot3) ** 2 + mid_weight * r2**2 + 1.0
    return ex, ey


def _solved_cot3(b, d, u4, w: WeightConfig):
    """Stage-two node cot solved from (b, d) at a given cot(theta4').

    Returns (cot3, pole_mask); on the removable 0/0 set (vanishing
    denominator with d equal to the weight cross ratio) the finite limit
    cot3 = 0 is used and the cell is not flagged.
    """
    b, d, u4 = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (b, d, u4))
    )
    r2 = w.g3_over_g2
    ratio = w.cross_ratio
    denom = r2**2 * b + d * u4
    removable, pole = pole_masks(denom, d, ratio)
    near = removable | pole
    with np.errstate(divide="ignore", invalid="ignore"):
        cot3 = np.where(near, 0.0, (d - ratio) / np.where(near, 1.0, denom))
    return cot3, pole


def error_vector_raw(phases: PhaseSet, w: WeightConfig) -> ErrorVector:
    """Error variances evaluated directly from the measurement phases.

    Args:
        phases: homodyne phases (only theta3 and theta4' enter).
        w: cluster weights.

    Returns:
        ErrorVector in units of the squeezed-quadrature variance.
    """
    ex, ey = _components_from_cots(phases.cot3, phases.cot4p, w, 1.0)
    return ErrorVector(float(ex), float(ey))


def error_vector_gaussian(
    target: SymplecticTarget, w: WeightConfig, theta4p: float,
) -> ErrorVector:
    """Error variances in closed form from the target entries (b, d).

    Args:
        target: symplectic target; only b and d enter the result.
        w: cluster weights.
        theta4p: node-3 measurement phase in (0, pi).

    Returns:
        ErrorVector in units of the squeezed-quadrature variance.

    Raises:
        DenominatorPole: if b + d*(g2/g3)^2*cot(theta4') vanishes away
            from the removable set d = g1*g3/(g2*g4), where the finite
            0/0 limit is returned instead.
    """
    validate_target(target)
    g1, g2, g3, g4 = w.as_tuple()
    b, d = target.b, target.d
    u4 = angle_cot("theta4p", theta4p)

    r2 = w.g3_over_g2
    denom = b + d * (g2 / g3) ** 2 * u4
    removable, pole = pole_masks(denom * r2**2, d, w.cross_ratio)
    if pole:
        raise DenominatorPole(
            "error denominator b + d*(g2/g3)^2*cot(theta4') vanishes"
        )
    if removable:
        ex, ey = _components_from_cots(0.0, u4, w, 1.0)
        return ErrorVector(float(ex), float(ey))
    ex = 1.0 / g3**2 + (g2 / g3) ** 2 * u4**2 \
        + g2**2 * (b * g4 / g1 + (g2 / g3) * u4) ** 2 \
        / (g3**2 * g4**2 * denom**2)
    ey = 1.0 + (g3 / g2) ** 2 \
        + (d * (g2 / g3) * (g4 / g1) - 1.0) ** 2 / (g4**2 * denom**2)
    return ErrorVector(float(ex), float(ey))


def error_vector_cubic(
    target: Optional[SymplecticTarget],
    w: WeightConfig,
    theta3p: Optional[float],
    theta4p: float,
    cubic: CubicConfig,
) -> ErrorVector:
    """Error variances of the cubic-resource variant.

    Args:
        target: symplectic target; used to solve theta3' when ``theta3p``
            is None, ignored otherwise.
        w: cluster weights.
        theta3p: corrected stage-two input phase; None means "solve it
            from the target at this theta4'".
        theta4p: node-3 measurement phase in (0, pi).
        cubic: nonlinearity, displacement and measured-value operating
            point supplying 12*gamma*I_m.

    Returns:
        ErrorVector in units of the squeezed-quadrature variance.

    Raises:
        NonpositiveIm: if 12*gamma*I_m is not positive.
        DenominatorPole: when theta3p must be solved and the shared
            denominator vanishes irremovably.
    """
    mid = _mode_mid_weight(MODE_CUBIC_OPTIMIZED, cubic)
    u4 = angle_cot("theta4p", theta4p)
    if theta3p is None:
        if target is None:
            raise DomainError("either target or theta3p must be given")
        validate_target(target)
        cot3, pole = _solved_cot3(target.b, target.d, u4, w)
        if pole:
            raise DenominatorPole(
                "phase-solution denominator vanishes at this theta4'"
            )
        cot3 = float(cot3)
    else:
        cot3 = angle_cot("theta3p", theta3p)
    ex, ey = _components_from_cots(cot3, u4, w, mid)
    return ErrorVector(float(ex), float(ey))


def _objective(b, d, u4, w: WeightConfig, mid_weight):
    cot3, pole = _solved_cot3(b, d, u4, w)
    ex, ey = _components_from_cots(cot3, u4, w, mid_weight)
    return np.where(pole, np.inf, np.maximum(ex, ey))


def _horner(coeffs):
    """(f, f') of a polynomial given highest power first, as one function."""
    def value_and_slope(x):
        f = coeffs[0]
        df = np.zeros_like(x)
        for c in coeffs[1:]:
            df = df * x + f
            f = f * x + c
        return f, df
    return value_and_slope


def _newton(value_and_slope, x, steps=_NEWTON_STEPS):
    """Newton steps on f, keeping each step only where it lowers |f|.

    A guess at a flat point (f' ~ 0) or a non-finite guess is therefore
    left where it is.
    """
    f, df = value_and_slope(x)
    for _ in range(steps):
        x_new = x - f / df
        f_new, df_new = value_and_slope(x_new)
        better = np.abs(f_new) < np.abs(f)
        x = np.where(better, x_new, x)
        f = np.where(better, f_new, f)
        df = np.where(better, df_new, df)
    return x


def _largest_cubic_root(c2, c1, c0):
    """Largest real root of x^3 + c2 x^2 + c1 x + c0, elementwise."""
    p = c1 - c2 * c2 / 3.0
    # Cubes are written as products: numpy's ** 3 goes through pow().
    q = c0 - c2 * c1 / 3.0 + 2.0 * c2 * c2 * c2 / 27.0
    disc = (q / 2.0) ** 2 + p * p * p / 27.0
    # Three real roots (disc < 0, so p < 0): trigonometric form.
    rp = np.sqrt(np.maximum(-p / 3.0, 0.0))
    cube = np.where(disc < 0, rp * rp * rp, 1.0)
    cos_arg = np.clip(-q / (2.0 * cube), -1.0, 1.0)
    t_trig = 2.0 * rp * np.cos(np.arccos(cos_arg) / 3.0)
    # One real root: Cardano, with the cube root taken on the side that
    # does not cancel.
    a = np.cbrt(-q / 2.0 - np.where(q < 0, -1.0, 1.0) * np.sqrt(np.abs(disc)))
    t_card = a - p / (3.0 * np.where(a == 0, 1.0, a))
    return np.where(disc < 0, t_trig, t_card) - c2 / 3.0


def _quartic_candidates(coeffs):
    """Real parts of the four roots of a quartic, per cell (Ferrari).

    Complex pairs contribute their real part; cells whose leading
    coefficient vanishes yield non-finite values.
    """
    c4, c3, c2, c1, c0 = coeffs
    bb, cc, dd, ee = c3 / c4, c2 / c4, c1 / c4, c0 / c4
    # Depressed quartic y^4 + P y^2 + Q y + R with x = y - bb/4.
    bb2 = bb * bb
    P = cc - 0.375 * bb2
    Q = dd - 0.5 * bb * cc + 0.125 * bb2 * bb
    R = ee - 0.25 * bb * dd + bb2 * cc / 16.0 - 3.0 * bb2 * bb2 / 256.0
    # Largest root of the resolvent cubic m^3 + P m^2 + (P^2/4 - R) m - Q^2/8;
    # it is >= 0 for real coefficients, and > 0 unless Q = 0.
    resolvent = (np.ones_like(P), P, 0.25 * P * P - R, -0.125 * Q * Q)
    m = np.maximum(
        _newton(_horner(resolvent), _largest_cubic_root(*resolvent[1:])), 0.0
    )
    half_s = np.sqrt(0.5 * m)
    # h = Q / (2 sqrt(2m)), which equals sign(Q) sqrt((P/2 + m)^2 - R) at
    # the root m.  The quotient loses precision when m is tiny (m = 0 when
    # Q = 0), the square root when the difference cancels: take the form
    # whose relative conditioning is better.
    mid = 0.5 * P + m
    gap2 = mid * mid - R
    use_quotient = m * (mid * mid + np.abs(R)) > np.maximum(gap2, 0.0) * (
        np.abs(P) + m + np.sqrt(np.abs(R)))
    h = np.where(use_quotient, Q / (4.0 * half_s),
                 np.copysign(np.sqrt(np.maximum(gap2, 0.0)), Q))
    # (y^2 + P/2 + m)^2 = 2m (y - Q/(4m))^2 splits into two quadratics.
    rad_plus = np.sqrt(np.maximum(-0.5 * (P + m) - h, 0.0))
    rad_minus = np.sqrt(np.maximum(-0.5 * (P + m) + h, 0.0))
    shift = bb / 4.0
    return (half_s + rad_plus - shift, half_s - rad_plus - shift,
            -half_s + rad_minus - shift, -half_s - rad_minus - shift)


def _trailing_quadratic_roots(coeffs):
    """Both roots of the quadratic formed by the last three coefficients.

    At d = 0 the quartics lose their leading terms (Q1 becomes linear,
    Q2 quadratic) and these are their roots; for tiny |d| they are the
    limits of the moderate roots, which Ferrari loses to cancellation.
    The stable form gives the linear root when the u^2 term vanishes.
    """
    c2, c1, c0 = coeffs[-3:]
    rad = np.sqrt(np.maximum(c1 * c1 - 4.0 * c2 * c0, 0.0))
    q = -0.5 * (c1 + np.copysign(rad, c1))
    return (q / c2, c0 / q)


def _optimize_u(b, d, w: WeightConfig, mid_weight):
    """Exact minimum of max(ex, ey) over cot(theta4'), vectorised over cells.

    With p = r2^2 b, beta = d - cross_ratio, s = p + d u and
    N = cross_ratio u + p, the two components are

        ex = N^2 / (g1^2 r2^2 s^2) + m u^2 / r2^2 + 1/g3^2
        ey = r2^2 beta^2 / (g1^2 s^2) + m r2^2 + 1

    with m = ``mid_weight``.  ey has no interior stationary point and
    ex -> inf as |u| -> inf, so the minimum lies at a stationary point of
    ex (a real root of Q1 = m g1^2 u s^3 - beta p N), at a crossing
    ex = ey (a real root of Q2 = s^2 (ex - ey)), or at u = 0.  Every
    candidate goes through ``_objective``, so pole and removable cells
    are treated exactly as at a fixed phase, and u = 0 (theta4' = pi/2)
    keeps the result at or below the fixed-phase error.

    Args:
        b, d: flat cell arrays.
        w: cluster weights.
        mid_weight: middle-term scale (1 or 1/(12*gamma*I_m)).

    Returns:
        (u_best, err_best); err_best is +inf where no candidate avoids
        the denominator pole (only b = d = 0 behaves this way).
    """
    b = np.asarray(b, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    u_best = np.empty_like(b)
    err_best = np.empty_like(b)
    # Blocks keep the candidate arrays small enough to stay in cache.
    for lo in range(0, b.size, _BLOCK_CELLS):
        cells = slice(lo, lo + _BLOCK_CELLS)
        u_best[cells], err_best[cells] = _optimize_block(
            b[cells], d[cells], w, mid_weight
        )
    return u_best, err_best


def _optimize_block(b, d, w: WeightConfig, mid_weight):
    """``_optimize_u`` on one block of cells."""
    with np.errstate(all="ignore"):
        cand = np.concatenate([
            np.zeros((1, b.size)),
            _critical_points(b, d, w, mid_weight),
            _pole_window_edges(b, d, w),
        ])
        # Non-finite rows (Ferrari at d = 0, 0/0 roots) fall back to u = 0.
        cand = np.where(np.isfinite(cand), cand, 0.0)
        vals = _objective(b, d, cand, w, mid_weight)
    # argmin keeps the first of equal values, so ties go to u = 0.
    best = np.argmin(vals, axis=0)
    cells = np.arange(b.size)
    return cand[best, cells], vals[best, cells]


def _pole_window_edges(b, d, w: WeightConfig):
    """u just outside either edge of the window |s| <= POLE_TOL, per cell.

    ``_objective`` treats that window as a pole, so where the continuous
    minimum lies inside it (near b = d = 0, or with d within about 1e-5
    of the cross ratio) the best admissible phase sits at an edge.
    """
    p = w.g3_over_g2**2 * b
    eps = np.finfo(float).eps
    # The margin covers the rounding of s = p + d u recomputed from u.
    t = POLE_TOL * (1.0 + 8.0 * eps) + 8.0 * eps * np.abs(p)
    return np.stack([(t - p) / d, (-t - p) / d])


def _critical_points(b, d, w: WeightConfig, m):
    """Real roots of Q1 and Q2 for each cell, shape (12, cells).

    Complex roots contribute their real part and some rows are spurious
    or non-finite; the caller evaluates every row and keeps the best.
    """
    g1, _, g3, _ = w.as_tuple()
    r2 = w.g3_over_g2
    ratio = w.cross_ratio
    p = r2**2 * b
    beta = d - ratio
    k = m * g1**2
    q1 = (k * d * d * d, 3.0 * k * d * d * p, 3.0 * k * d * p * p,
          k * p * p * p - beta * p * ratio, -beta * p * p)
    a = 1.0 / (g1**2 * r2**2)
    c0 = 1.0 / g3**2 - m * r2**2 - 1.0
    ey_num = r2**2 * beta**2 / g1**2
    q2 = (m * d**2 / r2**2, 2.0 * m * d * p / r2**2,
          m * p**2 / r2**2 + c0 * d**2 + ratio**2 * a,
          2.0 * c0 * d * p + 2.0 * ratio * p * a,
          c0 * p**2 + p**2 * a - ey_num)

    def gap(u):
        """ex - ey and its slope, unexpanded."""
        s = p + d * u
        n = ratio * u + p
        num = a * n * n - ey_num
        return (num / s**2 + m * u * u / r2**2 + c0,
                (2.0 * a * ratio * n - 2.0 * d * num / s) / s**2
                + 2.0 * m * u / r2**2)

    # Both quartics at once: each coefficient is a (2, cells) array.
    coeffs = tuple(np.stack(pair) for pair in zip(q1, q2))
    guesses = np.stack(
        _quartic_candidates(coeffs) + _trailing_quadratic_roots(coeffs)
    )
    u = _newton(_horner(coeffs), guesses)
    # Q2 is s^2 (ex - ey) expanded, which cancels badly near the pole
    # s = 0; a last step on the unexpanded gap puts each crossing at the
    # precision of the objective itself.
    u[:, 1] = _newton(gap, u[:, 1], steps=1)
    return u.reshape(-1, b.size)


def optimize_theta4(
    target: SymplecticTarget,
    w: WeightConfig,
    mode: str = MODE_GAUSSIAN_OPTIMIZED,
    cubic: Optional[CubicConfig] = None,
) -> OptimizeResult:
    """Minimize the inf-norm error over the free phase theta4'.

    The minimum is exact: it is taken over the closed-form stationary
    points of ex, the crossings ex = ey and pi/2 (see ``_optimize_u``),
    not over a scan grid.

    Args:
        target: symplectic target (only b, d enter the objective).
        w: cluster weights.
        mode: one of MODES; the fixed-phase mode evaluates at pi/2
            without searching.
        cubic: required for the cubic mode, forbidden otherwise.

    Returns:
        OptimizeResult(theta4p, err_inf).  Pi/2 is always one of the
        evaluated candidates, so err_inf never exceeds the fixed-phase
        value.
    """
    validate_target(target)
    mid = _mode_mid_weight(mode, cubic)
    if mode == MODE_GAUSSIAN_FIXED:
        val = _objective(target.b, target.d, 0.0, w, mid)
        if not np.isfinite(val):
            raise DenominatorPole(
                "error denominator vanishes at theta4' = pi/2"
            )
        return OptimizeResult(float(np.pi / 2), float(val))
    u_best, err_best = _optimize_u(
        np.array([target.b]), np.array([target.d]), w, mid
    )
    if not np.isfinite(err_best[0]):
        raise DenominatorPole("no pole-free theta4' candidate for this target")
    return OptimizeResult(float(arccot(u_best[0])), float(err_best[0]))


def _mode_mid_weight(mode: str, cubic: Optional[CubicConfig]) -> float:
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == MODE_CUBIC_OPTIMIZED:
        if cubic is None:
            raise DomainError("cubic mode requires a CubicConfig")
        twelve = cubic.twelve_gamma_im
        if not (twelve > 0):
            raise NonpositiveIm(f"12*gamma*I_m = {twelve!r} must be positive")
        return 1.0 / twelve
    if cubic is not None:
        raise DomainError(f"mode {mode!r} does not accept a CubicConfig")
    return 1.0


@dataclass(frozen=True)
class ErrorSurfaceSpec:
    """Grid specification for an error surface over target entries (b, d).

    Attributes:
        b_range: inclusive (min, max) interval for b.
        d_range: inclusive (min, max) interval for d.
        nb: number of b samples (>= 1).
        nd: number of d samples (>= 1).
        w: cluster weights.
        mode: one of MODES.
        cubic: operating point; present exactly when mode is cubic.
    """

    b_range: tuple
    d_range: tuple
    nb: int
    nd: int
    w: WeightConfig
    mode: str
    cubic: Optional[CubicConfig] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise DomainError(
                f"unknown mode {self.mode!r}; expected one of {MODES}"
            )
        for name, rng in (("b_range", self.b_range), ("d_range", self.d_range)):
            if len(rng) != 2 or not all(np.isfinite(v) for v in rng):
                raise DomainError(f"{name} must be a finite (min, max) pair")
            if rng[0] > rng[1]:
                raise DomainError(f"{name} must satisfy min <= max")
        for name, n in (("nb", self.nb), ("nd", self.nd)):
            if int(n) != n or n < 1:
                raise DomainError(f"{name} must be an integer >= 1")
        if (self.mode == MODE_CUBIC_OPTIMIZED) != (self.cubic is not None):
            raise DomainError(
                "cubic operating point must be given exactly for the cubic mode"
            )

    @property
    def b_values(self) -> np.ndarray:
        return np.linspace(self.b_range[0], self.b_range[1], self.nb)

    @property
    def d_values(self) -> np.ndarray:
        return np.linspace(self.d_range[0], self.d_range[1], self.nd)


@dataclass(frozen=True)
class ErrorSurface:
    """Error surface on a (b, d) grid.

    Arrays are indexed [i_b, i_d].  Cells with no pole-free evaluation
    hold NaN and serialize as missing values.
    """

    spec: ErrorSurfaceSpec
    b_values: np.ndarray
    d_values: np.ndarray
    ex: np.ndarray
    ey: np.ndarray
    err_inf: np.ndarray
    theta4p: np.ndarray

    @property
    def n_invalid(self) -> int:
        return int(np.count_nonzero(~np.isfinite(self.err_inf)))

    def to_rows(self):
        """The CSV columns b, d, ex, ey, err_inf, theta4p, flattened b-major.

        A tuple of equal-length float64 arrays: entry k of each column
        belongs to row k of the table.  Missing cells are NaN.
        """
        nb, nd = self.err_inf.shape
        return (
            np.repeat(self.b_values, nd), np.tile(self.d_values, nb),
            self.ex.ravel(), self.ey.ravel(), self.err_inf.ravel(),
            self.theta4p.ravel(),
        )


def _surface_chunk(b_flat, d_flat, w, mode, mid):
    """Evaluate flat arrays of grid cells, cell by cell in order."""
    if mode == MODE_GAUSSIAN_FIXED:
        u = np.zeros_like(b_flat)
        err = _objective(b_flat, d_flat, u, w, mid)
    else:
        u, err = _optimize_u(b_flat, d_flat, w, mid)
    cot3, pole = _solved_cot3(b_flat, d_flat, u, w)
    ex, ey = _components_from_cots(cot3, u, w, mid)
    invalid = ~np.isfinite(err) | pole
    nan = np.nan
    ex = np.where(invalid, nan, ex)
    ey = np.where(invalid, nan, ey)
    err = np.where(invalid, nan, err)
    theta = np.where(invalid, nan, arccot(u))
    return ex, ey, err, theta


def error_surface(spec: ErrorSurfaceSpec) -> ErrorSurface:
    """Evaluate the selected error mode on the (b, d) grid.

    Args:
        spec: grid specification.

    Returns:
        ErrorSurface with NaN marking pole cells.
    """
    mid = _mode_mid_weight(spec.mode, spec.cubic)
    bs = spec.b_values
    ds = spec.d_values
    B, D = np.meshgrid(bs, ds, indexing="ij")
    cells = _surface_chunk(B.ravel(), D.ravel(), spec.w, spec.mode, mid)
    ex, ey, err, theta = (part.reshape(spec.nb, spec.nd) for part in cells)
    return ErrorSurface(
        spec=spec, b_values=bs, d_values=ds,
        ex=ex, ey=ey, err_inf=err, theta4p=theta,
    )
