"""Shared conventions, value types and validation helpers.

Units
-----
All quadrature variances are expressed in units where the vacuum variance
is 1/4.  A y-squeezed oscillator with squeezing parameter ``r`` then has

    var_y = exp(-2 r) / 4        (squeezed quadrature)
    var_x = exp(+2 r) / 4        (anti-squeezed quadrature)

and the decibel scale used throughout is ``db = 10 log10(4 var_y)``, so
vacuum is 0 dB and squeezed states are negative.

Angles
------
Homodyne phases live on the open interval (0, pi), on which the cotangent
is a bijection onto the real line.  ``arccot`` below always returns the
branch in (0, pi).  The phase solution is closed-form in the cotangents,
and a double-precision angle near 0 or pi cannot carry the full precision
of a huge cotangent, so :class:`PhaseSet` stores the four cotangents and
derives the angles from them; solve -> forward round trips are therefore
not limited by angle quantisation.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

#: Tolerance on |det - 1| for a matrix to count as symplectic.
SYMPLECTIC_TOL = 1e-12

#: |d| below this is treated as degenerate (the phase solution divides by d).
DEGENERATE_D_TOL = 1e-9

#: |b g3^2/g2^2 + d cot(theta4')| below this is treated as a denominator pole.
POLE_TOL = 1e-9

# The choices the CLI's option tables list.  They are declared here, and
# re-exported by errormodel and simulate, so that a command loads only the
# modules it computes with.

#: Error-model modes: the fixed free phase theta4' = pi/2, or the optimized
#: one for the Gaussian scheme or the cubic variant.
MODE_GAUSSIAN_FIXED = "gaussian_fixed_phase"
MODE_GAUSSIAN_OPTIMIZED = "gaussian_optimized_phase"
MODE_CUBIC_OPTIMIZED = "cubic_optimized_phase"
MODES = (MODE_GAUSSIAN_FIXED, MODE_GAUSSIAN_OPTIMIZED, MODE_CUBIC_OPTIMIZED)

#: Protocol variants of the simulator.
VARIANT_GAUSSIAN = "gaussian"
VARIANT_CUBIC = "cubic"
VARIANTS = (VARIANT_GAUSSIAN, VARIANT_CUBIC)


def is_degenerate(d):
    """|d| < DEGENERATE_D_TOL (a float, or elementwise): no phases exist."""
    return abs(d) < DEGENERATE_D_TOL


def solve_cot3(denom, d, cross_ratio: float):
    """cot(theta3) = (d - cross_ratio) / D elementwise, and D's pole rule.

    Every phase-solution route solves cot(theta3) here, with its own
    denominator D (b g3^2/g2^2 + d cot(theta4'), up to a positive factor).
    Where |D| <= POLE_TOL the cell is either a removable 0/0 point, where
    d equals the cross ratio g1 g3/(g2 g4) too and the limit 0 applies,
    or a genuine pole, where the 0 returned is no solution.

    Args:
        denom: the caller's denominator, scalar or array.
        d: target entry d, broadcasting against ``denom``.
        cross_ratio: g1 g3 / (g2 g4).

    Returns:
        (cot3, removable, pole); at most one mask is set per cell.
    """
    near = np.abs(denom) <= POLE_TOL
    scale = np.maximum(np.maximum(np.abs(d), cross_ratio), 1.0)
    removable = near & (np.abs(d - cross_ratio) <= 1e-9 * scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        cot3 = np.where(near, 0.0,
                        (d - cross_ratio) / np.where(near, 1.0, denom))
    return cot3, removable, near & ~removable


def pole_window_edges(p, d):
    """cot(theta4') just outside either edge of the pole window, per cell.

    The inverse of ``solve_cot3``'s pole rule for D = p + d cot(theta4'),
    with a margin for the rounding of D recomputed from it: where the
    continuous minimum lies in the window, the best phase is an edge.
    """
    eps = np.finfo(float).eps
    t = POLE_TOL * (1.0 + 8.0 * eps) + 8.0 * eps * np.abs(p)
    return np.array([(t - p) / d, (-t - p) / d])


def stage_matrix(cot_in, cot_node, rho):
    """Entries (f00, f01, f10, f11) of one stage's matrix F, elementwise.

    F(cot_in, cot_node, rho) = [[(cot_in cot_node - 1)/rho, cot_node/rho],
                                [-rho cot_in,               -rho        ]]
    acts on the stage input's (x, y); rho = g1/g4 for stage one and g3/g2
    for stage two.  f11 is ``-rho`` itself, whatever the cotangents' shape.
    """
    return ((cot_in * cot_node - 1.0) / rho, cot_node / rho,
            -rho * cot_in, -rho)


class DomainError(ValueError):
    """Base class for configuration/domain errors raised by this package."""


class NotSymplectic(DomainError):
    """Target matrix determinant differs from 1 beyond tolerance."""


class DegenerateD(DomainError):
    """Target has |d| too small for the closed-form phase solution."""


class DenominatorPole(DomainError):
    """The shared phase-solution denominator vanishes for this input."""


class NonpositiveIm(DomainError):
    """The measured/assumed photocurrent combination I_m is not positive."""


def arccot(value):
    """Inverse cotangent on the branch (0, pi), elementwise on arrays.

    ``arccot`` is continuous and strictly decreasing on this branch, with
    ``arccot(0) = pi/2``.
    """
    value = np.asarray(value, dtype=float)
    out = np.arctan2(1.0, value)
    return out if out.ndim else float(out)


def db_to_variance(db: float) -> float:
    """Convert squeezing in dB to the squeezed-quadrature variance.

    Args:
        db: squeezing level, ``db = 10 log10(4 var_y)``; negative values
            mean squeezing below vacuum.

    Returns:
        ``10**(db/10) / 4``.
    """
    return 10.0 ** (db / 10.0) / 4.0


@dataclass(frozen=True)
class SymplecticTarget:
    """A 2x2 real symplectic matrix ((a, b), (c, d)) with ad - bc = 1."""

    a: float
    b: float
    c: float
    d: float

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=float)


def validate_target(target: SymplecticTarget) -> SymplecticTarget:
    """Check that ``target`` is symplectic and usable by the phase solver.

    Args:
        target: candidate single-mode operation.

    Returns:
        The validated target, unchanged.

    Raises:
        NotSymplectic: if |det - 1| > SYMPLECTIC_TOL.
        DegenerateD: if |d| < DEGENERATE_D_TOL, because the closed-form
            phase solution divides by d.
    """
    det = target.det
    if not math.isfinite(det) or abs(det - 1.0) > SYMPLECTIC_TOL:
        raise NotSymplectic(
            f"determinant {det!r} differs from 1 beyond {SYMPLECTIC_TOL}")
    if is_degenerate(target.d):
        raise DegenerateD(f"matrix element d = {target.d!r} is degenerate")
    return target


@dataclass(frozen=True)
class WeightConfig:
    """Edge weights (g1, g2, g3, g4) of the four-node linear cluster.

    g4 couples the input to node 1, g1 links nodes 1-2, g2 couples the
    stage-one output to node 3, and g3 links nodes 3-4.  All weights are
    strictly positive.
    """

    g1: float
    g2: float
    g3: float
    g4: float

    def __post_init__(self):
        for name in ("g1", "g2", "g3", "g4"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DomainError(f"weight {name} must be positive, got {value!r}")

    @property
    def g1_over_g4(self) -> float:
        return self.g1 / self.g4

    @property
    def g3_over_g2(self) -> float:
        return self.g3 / self.g2

    @property
    def cross_ratio(self) -> float:
        """g1 g3 / (g2 g4); the d-value at which cot(theta3) changes sign."""
        return self.g1 * self.g3 / (self.g2 * self.g4)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.g1, self.g2, self.g3, self.g4)


@dataclass(frozen=True)
class SqueezingSpec:
    """Resource squeezing level in dB; the variances and r follow from it."""

    db: float

    def __post_init__(self):
        if not math.isfinite(self.db):
            raise DomainError(f"db must be finite, got {self.db!r}")
        try:
            var_y = self.var_y
        except OverflowError:
            raise DomainError(
                f"db = {self.db!r} is out of range: 10^(db/10) overflows"
            ) from None
        if not (var_y > 0):
            raise DomainError(f"var_y must be positive, got {var_y!r}: "
                              f"db = {self.db!r} is out of range")

    @classmethod
    def from_db(cls, db: float) -> "SqueezingSpec":
        return cls(db)

    @property
    def var_y(self) -> float:
        """Squeezed quadrature variance 10^(db/10)/4."""
        return db_to_variance(self.db)

    @property
    def r(self) -> float:
        """Squeezing parameter, with var_y = exp(-2r)/4."""
        return -self.db * math.log(10.0) / 20.0

    @property
    def var_x(self) -> float:
        """Anti-squeezed quadrature variance exp(2r)/4 (minimum uncertainty).

        Raises DomainError where exp(2r) overflows (db below about -3083),
        although var_y is then still positive.
        """
        try:
            return math.exp(2.0 * self.r) / 4.0
        except OverflowError:
            raise DomainError(
                f"db = {self.db!r} is out of range: exp(2r) overflows"
            ) from None


def angle_cot(name: str, theta: float) -> float:
    """cot(theta) of a measurement phase ``name``, checked to lie in (0, pi)."""
    if not (0.0 < theta < math.pi):
        raise DomainError(f"{name} = {theta!r} outside the open interval (0, pi)")
    return float(np.cos(theta) / np.sin(theta))


@dataclass(frozen=True, kw_only=True)
class PhaseSet:
    """Homodyne phases, stored as their cotangents (see module docstring).

    The fields are cot(theta1), cot(theta2'), cot(theta3) and cot(theta4');
    the angles are their ``arccot``.  theta2' and theta4' are the
    weight-rescaled node phases with cot(theta2) = g4^2 cot(theta2') and
    cot(theta4) = g2^2 cot(theta4').

    An angle can read exactly pi although the branch is open: float64 pi
    lies 1.2e-16 below pi, so ``arccot`` rounds to it once a cotangent
    is below about -2.9e15 (``solve_phases`` gives cot2p = -1e16 for the
    target (1, 1e16, 0, 1) at unit weights, with residual 0).  The stored
    cotangent stays exact, and the realized matrix is built from it.
    """

    cot1: float
    cot2p: float
    cot3: float
    cot4p: float

    def __post_init__(self):
        for name in ("cot1", "cot2p", "cot3", "cot4p"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} = {value!r} is not finite")

    @property
    def theta1(self) -> float:
        return arccot(self.cot1)

    @property
    def theta2p(self) -> float:
        return arccot(self.cot2p)

    @property
    def theta3(self) -> float:
        return arccot(self.cot3)

    @property
    def theta4p(self) -> float:
        return arccot(self.cot4p)

    def angles(self) -> dict:
        """The four angles by name: theta1, theta2p, theta3, theta4p."""
        return {"theta1": self.theta1, "theta2p": self.theta2p,
                "theta3": self.theta3, "theta4p": self.theta4p}


@dataclass(frozen=True)
class ErrorVector:
    """Dimensionless error-variance multipliers (ex, ey).

    The physical added variances are (ex, ey) * var_y of the resource
    squeezing.  ey >= 1 always: the last node's squeezed noise enters the
    output y-quadrature with unit weight.
    """

    ex: float
    ey: float

    def __post_init__(self):
        if not (self.ex >= -1e-12):
            raise DomainError(f"ex must be non-negative, got {self.ex!r}")
        if not (self.ey >= 1.0 - 1e-9):
            raise DomainError(f"ey must be >= 1, got {self.ey!r}")

    @property
    def inf_norm(self) -> float:
        return max(self.ex, self.ey)

    def as_tuple(self) -> tuple[float, float]:
        return (self.ex, self.ey)


@dataclass(frozen=True)
class CubicConfig:
    """Operating point of the cubic-phase-state variant.

    Args:
        gamma: cubicity of the auxiliary gate.
        alpha: y-displacement of the node-2 state.
        i_m: photocurrent combination used by the closed-form error model;
            defaults to its model estimate 3 * gamma * alpha**2.
    """

    gamma: float
    alpha: float
    i_m: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise DomainError(f"gamma must be positive, got {self.gamma!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError(f"alpha must be positive, got {self.alpha!r}")
        if self.i_m is None:
            object.__setattr__(self, "i_m", 3.0 * self.gamma * self.alpha**2)
        if not (self.i_m > 0):
            raise NonpositiveIm(f"i_m must be positive, got {self.i_m!r}")

    @property
    def twelve_gamma_im(self) -> float:
        return 12.0 * self.gamma * self.i_m


def _current_cpu():
    """The calling thread's CPU; None without libc's ``sched_getcpu``."""
    import ctypes

    try:
        sched_getcpu = ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError, TypeError):
        return None
    sched_getcpu.argtypes = ()
    sched_getcpu.restype = ctypes.c_int
    return sched_getcpu()


def _leave_current_cpu() -> None:
    """Move the calling thread off its CPU, then give it every usable CPU.

    On a 2-vCPU Xeon VM (Linux 6.18) the scheduler mostly kept a new
    thread, or a forked process, on the CPU of the one that started it
    while the other CPU idled.  A mask without the current CPU moves the
    thread at once; the full mask, set next, leaves it free to move again.
    A no-op with one usable CPU, without ``sched_getcpu``, or where the
    kernel refuses the mask.  It never raises: an executor whose
    initializer raises is broken.
    """
    here = _current_cpu()
    with contextlib.suppress(AttributeError, OSError):
        usable = os.sched_getaffinity(0)
        if here is not None and usable - {here}:
            os.sched_setaffinity(0, usable - {here})
            os.sched_setaffinity(0, usable)


def in_turns(fn, n: int):
    """Yield fn(0), ..., fn(n - 1) in order, the odd k on one helper thread.

    The caller computes the even k.  While it computes and handles item k,
    the helper computes k + 1, and it starts k + 3 only once the caller
    asks for the item after k + 1.  A failure is raised in index order,
    after the helper's current item is done.  Fewer than two items build
    no executor; otherwise the helper thread leaves the CPU it starts on
    (``_leave_current_cpu``) and ends before the generator does.
    """
    if n < 2:
        yield from map(fn, range(n))
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1,
                            initializer=_leave_current_cpu) as helper:
        for k in range(0, n, 2):
            odd = helper.submit(fn, k + 1) if k + 1 < n else None
            yield fn(k)
            if odd is not None:
                yield odd.result()
