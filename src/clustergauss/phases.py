"""Closed-form homodyne-phase synthesis for a target symplectic operation.

The computation consists of two identical stages.  Each stage measures the
stage input at one phase and the first node of a pair at another, and
applies the matrix

    F(cot_in, cot_node, rho) = [[(cot_in*cot_node - 1)/rho, cot_node/rho],
                                [-rho*cot_in,               -rho       ]]

(``core.stage_matrix``) to the (x, y) quadratures, where rho = g1/g4 for
the first stage and rho = g3/g2 for the second.  The full operation is
U = F2 @ F1.  Given a target ((a, b), (c, d)) and a free stage-two node
phase theta4', the three remaining cotangents follow in closed form; all
four share the denominator

    D = (g3^2/g2^2) * b + d * cot(theta4').

D -> 0 is a genuine pole except on the measure-zero set where the
numerator d - g1*g3/(g2*g4) vanishes as well; there the 0/0 limit is finite
and is resolved explicitly (the identity target at theta4' = pi/2 with
balanced weights sits exactly on this set).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DenominatorPole,
    PhaseSet,
    SymplecticTarget,
    WeightConfig,
    angle_cot,
    arccot,
    is_degenerate,
    solve_cot3,
    stage_matrix,
    validate_target,
)

# Largest solve -> forward round-trip residual that check_arbitrariness
# accepts.
ROUND_TRIP_TOL = 1e-9


@dataclass(frozen=True)
class SolverResult:
    """Phases realising a target, the realised matrix and its residual."""

    phases: PhaseSet
    realized: SymplecticTarget
    residual: float


@dataclass(frozen=True)
class ArbitrarinessReport:
    """Round-trip statistics over a random sample of symplectic targets."""

    n_samples: int
    n_solved: int
    n_degenerate: int
    n_pole: int
    max_residual: float
    failures: tuple

    @property
    def all_ok(self) -> bool:
        return not self.failures


def forward_entries(cot1, cot2p, cot3, cot4p, w: WeightConfig):
    """Entries (a, b, c, d) of U = F2 @ F1, broadcasting over cot arrays."""
    cot1, cot2p, cot3, cot4p = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (cot1, cot2p, cot3, cot4p))
    )
    a1, b1, c1, d1 = stage_matrix(cot1, cot2p, w.g1_over_g4)
    a2, b2, c2, d2 = stage_matrix(cot3, cot4p, w.g3_over_g2)
    a = a2 * a1 + b2 * c1
    b = a2 * b1 + b2 * d1
    c = c2 * a1 + d2 * c1
    d = c2 * b1 + d2 * d1
    return a, b, c, d


def forward_matrix(phases: PhaseSet, w: WeightConfig) -> SymplecticTarget:
    """Realised operation for a set of homodyne phases.

    Args:
        phases: homodyne phases.
        w: cluster weights.

    Returns:
        The realised 2x2 operation as a :class:`SymplecticTarget`.
    """
    a, b, c, d = forward_entries(phases.cot1, phases.cot2p, phases.cot3, phases.cot4p, w)
    return SymplecticTarget(float(a), float(b), float(c), float(d))


def solve_cots(a, b, c, d, w: WeightConfig, cot4p):
    """Vectorised closed-form solution for (cot1, cot2p, cot3).

    Args:
        a, b, c, d: target entries (arrays broadcast together).
        w: cluster weights.
        cot4p: cot(theta4'), scalar or array.

    Returns:
        Tuple ``(cot1, cot2p, cot3, degenerate_mask, pole_mask)``.  A cell
        is flagged exactly where ``solve_phases`` raises ``DegenerateD``
        or ``DenominatorPole``.  Cells where D ~ 0 but d - g1 g3/(g2 g4)
        vanishes as well take their finite limit.
    """
    a, b, c, d, cot4p = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (a, b, c, d, cot4p))
    )
    g1, g2, g3, g4 = w.as_tuple()
    ratio = w.cross_ratio  # g1 g3 / (g2 g4)
    denom = (g3**2 / g2**2) * b + d * cot4p
    cot3, resolvable, pole = solve_cot3(denom, d, ratio)

    with np.errstate(divide="ignore", invalid="ignore"):
        cot2p = -(g1 * g2 / (g3 * g4)) * denom
        correction = ((ratio - d) * (g3 / g2)) / (denom * w.g1_over_g4 * d)
        cot1 = c / d + np.where(resolvable, 0.0, correction)
    return cot1, cot2p, cot3, is_degenerate(d), pole


def solve_phases(
    target: SymplecticTarget,
    w: WeightConfig,
    theta4p: float,
) -> SolverResult:
    """Solve for the homodyne phases realising ``target`` at a given theta4'.

    Args:
        target: desired symplectic operation.
        w: cluster weights.
        theta4p: free stage-two node phase, in (0, pi).

    Returns:
        :class:`SolverResult` with the phases, the realised matrix and the
        max-abs entry residual.

    Raises:
        NotSymplectic, DegenerateD, DenominatorPole.
    """
    validate_target(target)
    u4 = angle_cot("theta4p", theta4p)
    cot1, cot2p, cot3, _, pole = solve_cots(
        target.a, target.b, target.c, target.d, w, u4,
    )
    if pole:
        raise DenominatorPole(
            "phase-solution denominator b*g3^2/g2^2 + d*cot(theta4') vanishes"
        )
    phases = PhaseSet(cot1=float(cot1), cot2p=float(cot2p), cot3=float(cot3),
                      cot4p=u4)
    realized = forward_matrix(phases, w)
    residual = float(
        np.max(np.abs(realized.as_matrix() - target.as_matrix()))
    )
    return SolverResult(phases=phases, realized=realized, residual=residual)


def theta2_unprimed(cot2p, w: WeightConfig):
    """Physical node-1 phase from cot(theta2'): cot(theta2) = g4^2 cot(theta2').

    Takes the cotangent, as ``PhaseSet.cot2p`` stores it, not the angle:
    near 0 or pi an angle has lost digits that the cotangent keeps.
    """
    return arccot(w.g4**2 * cot2p)


def theta4_unprimed(cot4p, w: WeightConfig):
    """Physical node-3 phase from cot(theta4'): cot(theta4) = g2^2 cot(theta4').

    Takes the cotangent, as ``PhaseSet.cot4p`` stores it; see
    ``theta2_unprimed``.
    """
    return arccot(w.g2**2 * cot4p)


def sample_targets(n: int, seed: int):
    """Draw random symplectic targets (a, b, c, d) with d = (1 + b c)/a.

    a, b, c are centred Gaussians of standard deviation 2; draws with
    |a| < 0.1 are rejected so d stays finite.

    Returns:
        Four float arrays of shape (n,).
    """
    rng = np.random.default_rng(seed)
    a = np.empty(n)
    b = np.empty(n)
    c = np.empty(n)
    filled = 0
    while filled < n:
        take = n - filled
        ca = rng.normal(0.0, 2.0, take)
        cb = rng.normal(0.0, 2.0, take)
        cc = rng.normal(0.0, 2.0, take)
        keep = np.abs(ca) >= 0.1
        k = int(np.count_nonzero(keep))
        a[filled:filled + k] = ca[keep]
        b[filled:filled + k] = cb[keep]
        c[filled:filled + k] = cc[keep]
        filled += k
    d = (1.0 + b * c) / a
    return a, b, c, d


def check_arbitrariness(
    w: WeightConfig,
    theta4p: float,
    n_samples: int = 1000,
    seed: int = 0,
) -> ArbitrarinessReport:
    """Verify the solver round-trips a random sample of symplectic targets.

    Flagged degenerate/pole instances are excluded from the residual
    statistics and reported separately; any non-flagged instance whose
    round-trip residual exceeds ROUND_TRIP_TOL is recorded as a failure.
    """
    a, b, c, d = sample_targets(n_samples, seed)
    u4 = angle_cot("theta4p", theta4p)
    cot1, cot2p, cot3, degenerate, pole = solve_cots(a, b, c, d, w, u4)
    ok = ~(degenerate | pole)
    ra, rb, rc, rd = forward_entries(cot1[ok], cot2p[ok], cot3[ok], u4, w)
    residuals = np.max(
        np.abs(np.stack([ra - a[ok], rb - b[ok], rc - c[ok], rd - d[ok]])), axis=0
    )
    indices = np.flatnonzero(ok)
    failures = tuple(
        (int(indices[i]), float(residuals[i]))
        for i in np.flatnonzero(residuals > ROUND_TRIP_TOL)
    )
    return ArbitrarinessReport(
        n_samples=n_samples,
        n_solved=int(np.count_nonzero(ok)),
        n_degenerate=int(np.count_nonzero(degenerate)),
        n_pole=int(np.count_nonzero(pole)),
        max_residual=float(residuals.max()) if residuals.size else 0.0,
        failures=failures,
    )
