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
    MODE_CUBIC_OPTIMIZED,
    MODE_GAUSSIAN_FIXED,
    MODE_GAUSSIAN_OPTIMIZED,
    MODES,
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
    in_turns,
    pole_window_edges,
    solve_cot3,
    stage_matrix,
    validate_target,
)

# Newton steps that polish each closed-form root on its own polynomial.
_NEWTON_STEPS = 2
# Most candidate values (cells x candidates) per evaluator block.
# ``_best_phase`` splits the cells into the fewest blocks within it, all
# of one size but the last: a 401^2 grid makes 19 blocks of 8 464 cells
# with the search, 2 of 80 401 without.  Each block is a few dozen numpy
# calls, between which the caller and the helper thread
# (``core.in_turns``) take turns with the interpreter lock.  A fresh
# 401^2 optimized error-surface process took 0.461 s at 2**15, 0.418 s at
# 2**16 and 0.400 s at 2**17, and the fixed-phase gain map 0.322, 0.331
# and 0.338 s (medians of 20 alternating runs, 2-vCPU Xeon; blocks of the
# whole bound then, the last one shorter).  Under glibc's default malloc
# thresholds a block's cost was mostly faulting in the temporaries the
# last block freed, which ``cli.main``'s thresholds avoid.
_BLOCK_VALUES = 1 << 17


class OptimizeResult(NamedTuple):
    """Minimizing node-3 phase and the minimized inf-norm error."""

    theta4p: float
    err_inf: float


def _components_from_cots(cot3, u4, w: WeightConfig, mid_weight):
    """(ex, ey) from stage-two cotangents.

    ``mid_weight`` scales the middle term of each component: 1 for the
    Gaussian scheme, 1/(12*gamma*I_m) for the cubic variant.
    """
    f00, f01, f10, f11 = stage_matrix(cot3, u4, w.g3_over_g2)
    # Each sum is accumulated in place, in the order
    # (1/g1^2) f00^2 + m f01^2 + 1/g3^2 (ey: f10, f11, 1).  f11 is the
    # scalar -rho, so ey takes cot3's shape as written out it would.
    ex = f00**2
    ex *= 1.0 / w.g1**2
    ex += mid_weight * f01**2
    ex += 1.0 / w.g3**2
    ey = f10**2
    ey *= 1.0 / w.g1**2
    ey += mid_weight * f11**2
    ey += 1.0
    return ex, ey


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

    denom = b + d * (g2 / g3) ** 2 * u4
    _, removable, pole = solve_cot3(denom * w.g3_over_g2**2, d,
                                    w.cross_ratio)
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
    mid, _ = _mode_terms(MODE_CUBIC_OPTIMIZED, cubic)
    u4 = angle_cot("theta4p", theta4p)
    if theta3p is None:
        if target is None:
            raise DomainError("either target or theta3p must be given")
        validate_target(target)
        denom = w.g3_over_g2**2 * target.b + target.d * u4
        cot3, _, pole = solve_cot3(denom, target.d, w.cross_ratio)
        if pole:
            raise DenominatorPole(
                "phase-solution denominator vanishes at this theta4'"
            )
        cot3 = float(cot3)
    else:
        cot3 = angle_cot("theta3p", theta3p)
    ex, ey = _components_from_cots(cot3, u4, w, mid)
    return ErrorVector(float(ex), float(ey))


def _horner(coeffs):
    """(f, f') of a polynomial given highest power first, as one function.

    With ``slope=False`` it returns (f, None) and skips the slope's work,
    for Newton's last step.  The first slope is ``x * 0.0 + coeffs[0]``,
    so it has x's shape and is NaN where x is not finite.  Each step
    ``f = f * x + c`` (``df = df * x + f``) is taken in place on the
    arrays made here, in the same order.
    """
    def value_and_slope(x, slope=True):
        f = coeffs[0] * x
        f += coeffs[1]
        df = None
        if slope:
            df = x * 0.0
            df += coeffs[0]
        for c in coeffs[2:]:
            if slope:
                df *= x
                df += f
            f *= x
            f += c
        return f, df
    return value_and_slope


def _newton(value_and_slope, x, steps=_NEWTON_STEPS):
    """Newton steps on f, keeping each step only where it lowers |f|.

    A guess at a flat point (f' ~ 0) or a non-finite guess is therefore
    left where it is.  ``value_and_slope(x, slope=False)`` serves the last
    step, which keeps only x and so needs no slope at the new point.
    """
    f, df = value_and_slope(x)
    for left in range(steps - 1, -1, -1):
        x_new = x - f / df
        f_new, df_new = value_and_slope(x_new, slope=left > 0)
        better = np.abs(f_new) < np.abs(f)
        x = np.where(better, x_new, x)
        if left:
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
    resolvent = (1.0, P, 0.25 * P * P - R, -0.125 * Q * Q)
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
    Q2 quadratic) and these are their roots; for small |d| they are the
    limits of the moderate roots, which Ferrari loses to cancellation.
    They are not only a d -> 0 device: Ferrari plus the Newton polish
    misses some minima that these rows reach.  Without them the optimized
    error is higher in 31 to about 880 cells of a 401x401 map over
    [-5, 5]^2 (weights 5,5,4,4, 1,1,1,1 and 0.3,2,7,0.5; both optimized
    modes), at |d| up to about 2.
    The stable form gives the linear root when the u^2 term vanishes.
    """
    c2, c1, c0 = coeffs[-3:]
    rad = np.sqrt(np.maximum(c1 * c1 - 4.0 * c2 * c0, 0.0))
    q = -0.5 * (c1 + np.copysign(rad, c1))
    return (q / c2, c0 / q)


def _best_phase(b, d, w: WeightConfig, mid_weight, search: bool):
    """Best cot(theta4') of each (b, d) cell, with its error components.

    The candidates are u = 0 (theta4' = pi/2), the whole set of the
    fixed phase, and with ``search`` the exact minimizers of max(ex, ey).
    With p = r2^2 b, beta = d - cross_ratio, s = p + d u and
    N = cross_ratio u + p, the two components are

        ex = N^2 / (g1^2 r2^2 s^2) + m u^2 / r2^2 + 1/g3^2
        ey = r2^2 beta^2 / (g1^2 s^2) + m r2^2 + 1

    with m = ``mid_weight``.  ey has no interior stationary point and
    ex -> inf as |u| -> inf, so the minimum lies at a stationary point of
    ex (a real root of Q1 = m g1^2 u s^3 - beta p N), at a crossing
    ex = ey (a real root of Q2 = s^2 (ex - ey)), or at u = 0; the search
    adds those roots and the edges of the pole window.  Each candidate
    is evaluated once: cot(theta3) is solved, (ex, ey) follow from it,
    and a pole scores +inf.

    Of equal errors, exact ties included, the earliest candidate wins
    (``argmin`` keeps the first).  The candidates are, in order: u = 0;
    the twelve polished roots of ``_critical_points`` in (guess, quartic)
    order, that is for each of the six guesses (four Ferrari roots, then
    the two trailing-quadratic roots) its root of Q1 and then of Q2; and
    the two pole-window edges, (t - p)/d then (-t - p)/d.  A non-finite
    root is replaced by u = 0, so it ties with the first candidate and
    loses.  So u = 0 wins every tie it is in, and a searched error never
    exceeds the fixed-phase one.

    Cells are evaluated in blocks of at most ``_BLOCK_VALUES`` candidate
    values, so a block holds 15 times as many fixed-phase cells as
    searched ones: a 401^2 map is 2 blocks without the search and 19
    with it.  The blocks are taken in turns by the caller and one helper
    thread (``core.in_turns``); a block's values do not depend on the
    thread.

    Args:
        b, d: cell arrays of one shape; they are flattened.
        w: cluster weights.
        mid_weight: middle-term scale (1 or 1/(12*gamma*I_m)).
        search: whether to search beyond u = 0.

    Returns:
        Flat arrays (u, ex, ey, err) of the winning candidates, with
        err = max(ex, ey); err is +inf where no candidate avoids the
        denominator pole (with the search, only at b = d = 0).
    """
    b = np.asarray(b, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    # The search has 15 candidates: u = 0, six roots of each quartic
    # (``_critical_points``) and two pole-window edges.  Blocks of one
    # size give the caller and the helper equal shares.
    n_blocks = -(-b.size // (_BLOCK_VALUES // (15 if search else 1)))
    step = -(-b.size // max(n_blocks, 1))
    best = np.empty((4, b.size))

    def fill(k):
        cells = slice(k * step, (k + 1) * step)
        best[:, cells] = _best_in_block(b[cells], d[cells], w, mid_weight,
                                        search)

    for _ in in_turns(fill, n_blocks):
        pass
    return best


def _best_in_block(b, d, w: WeightConfig, mid_weight, search: bool):
    """``_best_phase`` on one block of cells."""
    with np.errstate(all="ignore"):
        p = w.g3_over_g2**2 * b
        cand = np.zeros((1, b.size))
        if search:
            cand = np.concatenate([
                cand,
                _critical_points(b, d, w, mid_weight),
                pole_window_edges(p, d),
            ])
            # Non-finite rows (Ferrari at d = 0, 0/0 roots) become u = 0.
            cand = np.where(np.isfinite(cand), cand, 0.0)
        cot3, _, pole = solve_cot3(p + d * cand, d, w.cross_ratio)
        ex, ey = _components_from_cots(cot3, cand, w, mid_weight)
        err = np.where(pole, np.inf, np.maximum(ex, ey))
    # argmin keeps the first of equal values, so ties go to u = 0.
    best = np.argmin(err, axis=0)
    cells = np.arange(b.size)
    return [part[best, cells] for part in (cand, ex, ey, err)]


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

    def gap(u, slope=True):
        """ex - ey and its slope (None without ``slope``), unexpanded.

        In place, in the order of

            value = num / s^2 + m u u / r2^2 + c0
            slope = (2 a ratio n - 2 d num / s) / s^2 + 2 m u / r2^2

        with s = d u + p, n = ratio u + p and num = a n n - ey_num.
        """
        s = d * u
        s += p
        n = ratio * u
        n += p
        num = a * n
        num *= n
        num -= ey_num
        s2 = s**2
        value = num / s2
        term = m * u
        term *= u
        term /= r2**2
        value += term
        value += c0
        if not slope:
            return value, None
        dvalue = 2.0 * a * ratio * n
        term = 2.0 * d * num
        term /= s
        dvalue -= term
        dvalue /= s2
        term = 2.0 * m * u
        term /= r2**2
        dvalue += term
        return value, dvalue

    # Both quartics at once: coefficient k of Q1 and Q2 is coeffs[k].
    coeffs = np.empty((5, 2, b.size))
    coeffs[:, 0] = q1
    coeffs[:, 1] = q2
    guesses = np.array(
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

    The target is the one-cell case of the surfaces' evaluator
    (``_best_phase``), which evaluates each candidate phase once.  The
    fixed-phase mode has the one candidate pi/2; the optimized modes add
    the closed-form stationary points of ex and the crossings ex = ey,
    so their minimum is exact, not a scan point.

    Args:
        target: symplectic target (only b, d enter the objective).
        w: cluster weights.
        mode: one of MODES.
        cubic: required for the cubic mode, forbidden otherwise.

    Returns:
        OptimizeResult(theta4p, err_inf).  Pi/2 is always one of the
        evaluated candidates, so err_inf never exceeds the fixed-phase
        value.

    Raises:
        DenominatorPole: if every candidate phase is a pole.
    """
    validate_target(target)
    u, _, _, err = _best_phase(target.b, target.d, w,
                               *_mode_terms(mode, cubic))
    if not np.isfinite(err[0]):
        raise DenominatorPole("no pole-free theta4' candidate for this target")
    return OptimizeResult(float(arccot(u[0])), float(err[0]))


def _mode_terms(mode: str, cubic: Optional[CubicConfig]) -> tuple:
    """(mid_weight, search) of a mode; the fixed phase does not search."""
    if mode not in MODES:
        raise DomainError(f"unknown mode {mode!r}; expected one of {MODES}")
    search = mode != MODE_GAUSSIAN_FIXED
    if mode == MODE_CUBIC_OPTIMIZED:
        if cubic is None:
            raise DomainError("cubic mode requires a CubicConfig")
        twelve = cubic.twelve_gamma_im
        if not (twelve > 0):
            raise NonpositiveIm(f"12*gamma*I_m = {twelve!r} must be positive")
        return 1.0 / twelve, search
    if cubic is not None:
        raise DomainError(f"mode {mode!r} does not accept a CubicConfig")
    return 1.0, search


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
        _mode_terms(self.mode, self.cubic)
        for name, rng in (("b_range", self.b_range), ("d_range", self.d_range)):
            if len(rng) != 2 or not all(np.isfinite(v) for v in rng):
                raise DomainError(f"{name} must be a finite (min, max) pair")
            if rng[0] > rng[1]:
                raise DomainError(f"{name} must satisfy min <= max")
        for name, n in (("nb", self.nb), ("nd", self.nd)):
            if int(n) != n or n < 1:
                raise DomainError(f"{name} must be an integer >= 1")

    @property
    def b_values(self) -> np.ndarray:
        return np.linspace(self.b_range[0], self.b_range[1], self.nb)

    @property
    def d_values(self) -> np.ndarray:
        return np.linspace(self.d_range[0], self.d_range[1], self.nd)

    @property
    def grid(self) -> tuple:
        """(b_range, d_range, nb, nd): what two specs share to share a grid."""
        return (tuple(self.b_range), tuple(self.d_range), self.nb, self.nd)

    def cells(self) -> tuple:
        """(b, d) of every cell, flattened b-major: cell (i, j) is i*nd + j."""
        return (np.repeat(self.b_values, self.nd),
                np.tile(self.d_values, self.nb))


@dataclass(frozen=True)
class ErrorSurface:
    """Error surface on a (b, d) grid.

    Arrays are indexed [i_b, i_d] over the grid of ``spec``.  Cells with
    no pole-free evaluation hold NaN and serialize as missing values.
    """

    # The CSV header: the names of ``to_rows``' columns, in order.
    COLUMNS = ("b", "d", "err_x", "err_y", "err_inf", "theta4p_used")

    spec: ErrorSurfaceSpec
    ex: np.ndarray
    ey: np.ndarray
    theta4p: np.ndarray

    @property
    def err_inf(self) -> np.ndarray:
        """max(err_x, err_y) per cell, NaN where either is."""
        return np.maximum(self.ex, self.ey)

    @property
    def n_invalid(self) -> int:
        return int(np.count_nonzero(~np.isfinite(self.err_inf)))

    def to_rows(self):
        """The COLUMNS as arrays, flattened b-major.

        A tuple of equal-length float64 arrays: entry k of each column
        belongs to row k of the table.  Missing cells are NaN.
        """
        return (*self.spec.cells(), self.ex.ravel(), self.ey.ravel(),
                self.err_inf.ravel(), self.theta4p.ravel())


def error_surface(spec: ErrorSurfaceSpec) -> ErrorSurface:
    """Evaluate the selected error mode on the (b, d) grid.

    Every cell goes through the evaluator that ``optimize_theta4`` uses,
    so a cell equals ``optimize_theta4`` on its target.  Rows with |d|
    below ``core.DEGENERATE_D_TOL`` are still evaluated, although that
    raises there (``core.is_degenerate``).

    Args:
        spec: grid specification.

    Returns:
        ErrorSurface with NaN marking pole cells.
    """
    mid, search = _mode_terms(spec.mode, spec.cubic)
    u, ex, ey, err = _best_phase(*spec.cells(), spec.w, mid, search)
    invalid = ~np.isfinite(err)
    ex, ey, theta = (
        np.where(invalid, np.nan, part).reshape(spec.nb, spec.nd)
        for part in (ex, ey, arccot(u))
    )
    return ErrorSurface(spec=spec, ex=ex, ey=ey, theta4p=theta)
