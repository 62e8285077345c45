"""Monte Carlo validation of the cluster computation by direct sampling.

This module is an oracle deliberately independent of the closed forms: it
samples every initial quadrature (input mode + four resource modes),
propagates the exact measurement-and-feedforward protocol shot by shot,
and compares empirical statistics against the analytic predictions.

Protocol per shot:

1. All CZ couplings in—(g4)—1—(g1)—2—(g2)—3—(g3)—4 act on the sampled
   quadratures (x unchanged, y picks up g * x of each neighbour).
2. Four homodyne measurements at the physical phases theta1, theta2,
   theta3, theta4 (node phases relate to the primed solver angles by
   cot(theta2) = g4^2 cot(theta2'), cot(theta4) = g2^2 cot(theta4')).
3. One displacement on the output node removes every measured c-number
   term, leaving out = U @ (x_in, y_in) + noise.

In the Gaussian variant the relation above is exact and affine.  In the
cubic variant node 2 carries the non-Gaussian state
(x, y) = (-y_s2 + 3*gamma*(alpha + x_s2)^2, alpha + x_s2); the first-pair
photocurrent combination I_m is computed from measured data, the mode-2
measurement basis is precompensated per shot so the realised matrix is
the target one, and the feedforward additionally removes sqrt(I_m/(3*gamma)).
Shots with I_m <= 0 are discarded and counted, never clamped.

Shots are drawn in blocks, each from its own counter-based Philox
generator, so a block's samples do not depend on the thread that draws
it.  ``run`` draws the odd-numbered blocks on one helper thread while the
calling thread draws the even-numbered ones and does everything else,
block by block in block order (``core.in_turns``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (
    VARIANT_CUBIC,
    VARIANT_GAUSSIAN,
    VARIANTS,
    CubicConfig,
    DomainError,
    PhaseSet,
    SqueezingSpec,
    SymplecticTarget,
    WeightConfig,
    angle_cot,
    in_turns,
    stage_matrix,
)
from .phases import solve_phases

# Shots are generated in fixed-size blocks; block k always uses the
# counter-based generator advanced by k * _BLOCK_STRIDE from the seed.
# This seeding defines every sample a run draws, and so every output byte:
# one generator stream over all shots would draw different samples.
SHOT_BLOCK = 8192
_BLOCK_STRIDE = 2**40

# Both linearization ratios must reach this for LinearizationReport.passed.
LINEARIZATION_SAFETY = 10.0

RECORD_COLUMNS = (
    "x_in", "y_in",
    "x_s1", "y_s1", "x_s2", "y_s2", "x_s3", "y_s3", "x_s4", "y_s4",
    "i_in", "i_1", "i_2", "i_3", "i_m",
    "ff_x", "ff_y", "x_out", "y_out",
    "cot_theta3_used", "discarded",
)


class SmallDisplacementWarning(UserWarning):
    """Cubic displacement alpha^2 is not large against the node-2 x spread."""


@dataclass(frozen=True)
class InputState:
    """Gaussian input mode: coherent amplitudes plus quadrature variances.

    Defaults describe a coherent state at the origin (vacuum variances
    1/4 in both quadratures).
    """

    mean_x: float = 0.0
    mean_y: float = 0.0
    var_x: float = 0.25
    var_y: float = 0.25

    def __post_init__(self):
        for name, v in (("mean_x", self.mean_x), ("mean_y", self.mean_y)):
            if not np.isfinite(v):
                raise DomainError(f"{name} must be finite")
        for name, v in (("var_x", self.var_x), ("var_y", self.var_y)):
            if not (np.isfinite(v) and v > 0):
                raise DomainError(f"{name} must be positive and finite")
        if self.var_x * self.var_y < 1.0 / 16.0 - 1e-12:
            raise DomainError(
                "var_x * var_y below the uncertainty bound 1/16"
            )

    @property
    def mean(self) -> np.ndarray:
        return np.array([self.mean_x, self.mean_y])

    @property
    def covariance(self) -> np.ndarray:
        return np.diag([self.var_x, self.var_y])


@dataclass(frozen=True)
class SimConfig:
    """Full description of one Monte Carlo run."""

    target: SymplecticTarget
    w: WeightConfig
    theta4p: float
    squeezing: SqueezingSpec
    variant: str
    n_shots: int
    seed: int
    cubic: Optional[CubicConfig] = None
    input_state: InputState = field(default_factory=InputState)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if (self.variant == VARIANT_CUBIC) != (self.cubic is not None):
            raise DomainError(
                "cubic operating point must be given exactly for the cubic variant"
            )
        if int(self.n_shots) != self.n_shots or self.n_shots < 1:
            raise DomainError("n_shots must be an integer >= 1")
        if int(self.seed) != self.seed or self.seed < 0:
            raise DomainError("seed must be a nonnegative integer")
        angle_cot("theta4p", self.theta4p)
        # Read for both variants, so that a var_x that overflows fails
        # here, before any sampling.
        spread = self.squeezing.var_x
        if (self.variant == VARIANT_CUBIC
                and self.cubic.alpha**2 < 100.0 * spread):
            warnings.warn(
                "alpha^2 = {:.4g} is less than 100x the node-2 x spread "
                "{:.4g}; the square-root linearisation may be inaccurate"
                .format(self.cubic.alpha**2, spread),
                SmallDisplacementWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class SimSummary:
    """Monte Carlo estimates next to their closed-form predictions.

    The per-shot error is out - U @ (x_in, y_in) with U the realised
    target matrix; its empirical covariance is compared against the
    predicted error covariance (diagonal = the closed-form error vector
    times the squeezed variance).
    """

    variant: str
    n_kept: int
    n_discarded: int
    mean_out: np.ndarray
    cov_out: np.ndarray
    error_mean: np.ndarray
    error_cov: np.ndarray
    predicted_mean: np.ndarray
    predicted_out_cov: np.ndarray
    predicted_error_cov: np.ndarray
    z_mean: np.ndarray
    z_error_var: np.ndarray
    mean_im: Optional[float]
    realized: SymplecticTarget
    phases: PhaseSet

    @property
    def n_shots(self) -> int:
        """Every shot is either kept or discarded."""
        return self.n_kept + self.n_discarded

    def to_dict(self) -> dict:
        """Fields as plain values (``realized`` a matrix, ``phases`` angles)."""
        out = {f.name: np.asarray(getattr(self, f.name)).tolist()
               for f in fields(self)}
        out.update(n_shots=self.n_shots,
                   realized=self.realized.as_matrix().tolist(),
                   phases=self.phases.angles())
        return out


@dataclass(frozen=True)
class LinearizationReport:
    """Dimensionless validity ratios of the square-root series truncation."""

    ratio_first_moment: float
    ratio_second_moment: float

    @property
    def passed(self) -> bool:
        return min(self.ratio_first_moment, self.ratio_second_moment) \
            >= LINEARIZATION_SAFETY


def _sin_cos_from_cot(cot):
    """sin, cos of an angle in (0, pi) given its cotangent (sin > 0)."""
    sin = 1.0 / np.sqrt(1.0 + np.square(cot))
    return sin, cot * sin


def _block_rng(seed: int, block: int) -> np.random.Generator:
    bitgen = np.random.Philox(key=seed)
    return np.random.Generator(bitgen.advance(block * _BLOCK_STRIDE))


def _draw_block(config: SimConfig, block: int,
                buffer: np.ndarray) -> np.ndarray:
    """Sample the 10 initial quadratures of block ``block`` into ``buffer``.

    ``buffer`` is a (10, SHOT_BLOCK) array; the returned view of it holds
    the block's shots (10 x n, n < SHOT_BLOCK only for the last block).
    Row order: x_in, y_in, then (x_s, y_s) for nodes 1..4.  The node x
    rows carry the anti-squeezed variance e^{2r}/4, the node y rows the
    squeezed variance e^{-2r}/4.  Nothing is allocated per block beyond
    the generator.
    """
    _block_rng(config.seed, block).standard_normal(out=buffer)
    q = buffer[:, :min(SHOT_BLOCK, config.n_shots - block * SHOT_BLOCK)]
    inp = config.input_state
    q[0] *= math.sqrt(inp.var_x)
    q[0] += inp.mean_x
    q[1] *= math.sqrt(inp.var_y)
    q[1] += inp.mean_y
    q[2::2] *= math.sqrt(config.squeezing.var_x)
    q[3::2] *= math.sqrt(config.squeezing.var_y)
    return q


class _Shots(NamedTuple):
    """Per-shot protocol quantities of one block, in RECORD_COLUMNS order.

    Each field is an array over the block's shots, except that
    ``cot3_used`` is the scalar cot(theta3) in the Gaussian variant.
    ``kept`` marks the shots that enter the statistics (None: all of
    them); the stage-2 quantities of the others are meaningless.
    """

    i_in: np.ndarray
    i_1: np.ndarray
    i_2: np.ndarray
    i_3: np.ndarray
    i_m: np.ndarray
    ff_x: np.ndarray
    ff_y: np.ndarray
    x_out: np.ndarray
    y_out: np.ndarray
    cot3_used: np.ndarray | float
    kept: Optional[np.ndarray]


def _propagate(q: np.ndarray, config: SimConfig, phases: PhaseSet) -> _Shots:
    """Exact protocol on sampled quadratures, one shot per column.

    ``q`` has shape (10, n) in _draw_block row order and ``phases`` are
    the solved phases of ``config``; the i_m field carries the first-pair
    x correction.  In the cubic variant node 2 holds the displaced
    cubic-phase state, whose x-quadrature feeds the neighbours through
    the CZ couplings; the mode-2 basis is precompensated shot by shot, and
    shots with I_m <= 0 are not kept.  In the Gaussian variant every shot
    is kept.
    """
    x_in, y_in = q[0], q[1]
    x1, y1, x2, y2, x3, y3, x4, y4 = q[2:10]
    g1, g2, g3, g4 = config.w.as_tuple()
    r2 = config.w.g3_over_g2
    cubic = config.cubic
    # Physical node phases: cot(theta2) = g4^2 cot(theta2'), likewise theta4.
    cot2 = g4**2 * phases.cot2p
    cot4 = g2**2 * phases.cot4p
    s1, c1 = _sin_cos_from_cot(phases.cot1)
    s2, c2 = _sin_cos_from_cot(cot2)
    s4, c4 = _sin_cos_from_cot(cot4)
    if cubic is not None:
        x2, y2 = -y2 + 3.0 * cubic.gamma * (cubic.alpha + x2) ** 2, \
            cubic.alpha + x2

    i_in = s1 * (y_in + g4 * x1) + c1 * x_in
    i_1 = s2 * (y1 + g1 * x2 + g4 * x_in) + c2 * x1
    c1x = i_1 / (g1 * s2) - i_in * cot2 / (g1 * g4 * s1)
    c1y = i_in * g1 / (g4 * s1)

    cot3, kept = phases.cot3, None
    if cubic is not None:
        kept = c1x > 0.0
        im_safe = np.where(kept, c1x, 1.0)
        cot3 = phases.cot3 - 1.0 / np.sqrt(12.0 * cubic.gamma * im_safe)
        c1y = c1y + np.sqrt(im_safe / (3.0 * cubic.gamma))
    s3, c3 = _sin_cos_from_cot(cot3)

    i_2 = s3 * (y2 + g1 * x1 + g2 * x3) + c3 * x2
    i_3 = s4 * (y3 + g2 * x2 + g3 * x4) + c4 * x3
    c2x = i_3 / (g3 * s4) - i_2 * cot4 / (g3 * g2 * s3)
    c2y = i_2 * g3 / (g2 * s3)

    # Written out, not core.stage_matrix: the oracle's feedforward stays
    # independent of the F that the closed forms use.
    f00 = (cot3 * phases.cot4p - 1.0) / r2
    f01 = phases.cot4p / r2
    f10 = -r2 * cot3
    f11 = -r2
    ff_x = f00 * c1x + f01 * c1y + c2x
    ff_y = f10 * c1x + f11 * c1y + c2y

    x_out = x4 - ff_x
    y_out = (y4 + g3 * x3) - ff_y
    return _Shots(i_in, i_1, i_2, i_3, c1x, ff_x, ff_y, x_out, y_out,
                  cot3, kept)


def _record_block(q: np.ndarray, shots: _Shots) -> tuple:
    """Per-shot record columns of one block, in RECORD_COLUMNS order.

    A tuple of float64 arrays over the block's shots: the ten rows of
    ``q`` (copied, since the next block is drawn into the same buffer),
    the ``_Shots`` fields and the discarded flag, 0.0 or 1.0.  A
    discarded shot has NaN in the seven stage-2 columns, the quantities
    that depend on the per-shot mode-2 basis, which I_m <= 0 leaves
    undefined.
    """
    n = q.shape[1]
    i_in, i_1, i_2, i_3, i_m, ff_x, ff_y, x_out, y_out, cot3, kept = shots
    cot3 = np.broadcast_to(cot3, n)
    if kept is None:
        discarded = np.zeros(n)
    else:
        discarded = np.where(kept, 0.0, 1.0)
        i_2, i_3, ff_x, ff_y, x_out, y_out, cot3 = (
            np.where(kept, v, np.nan)
            for v in (i_2, i_3, ff_x, ff_y, x_out, y_out, cot3))
    return (*q.copy(), i_in, i_1, i_2, i_3, i_m, ff_x, ff_y, x_out, y_out,
            cot3, discarded)


@dataclass(frozen=True)
class _Moments:
    """Count, means and centred moment sums of a set of kept shots.

    ``c_out`` and ``c_err`` are the 2x2 co-moment sums
    sum (v - mean)(v - mean)^T of the output and of the error
    out - U @ (x_in, y_in); ``m3_err`` and ``m4_err`` are the per-component
    sums of (err - mean)^3 and (err - mean)^4.  Keeping sums about the mean,
    never raw power sums, is what keeps the statistics exact at any input
    amplitude.
    """

    n: int
    n_discarded: int
    mean_out: np.ndarray
    c_out: np.ndarray
    mean_err: np.ndarray
    c_err: np.ndarray
    m3_err: np.ndarray
    m4_err: np.ndarray
    sum_im: float


_NO_SHOTS = _Moments(0, 0, np.zeros(2), np.zeros((2, 2)), np.zeros(2),
                     np.zeros((2, 2)), np.zeros(2), np.zeros(2), 0.0)


def _centred(x: np.ndarray, y: np.ndarray):
    """Means, co-moment matrix and the deviations of a pair of samples."""
    mean = np.array([x.mean(), y.mean()])
    dx, dy = x - mean[0], y - mean[1]
    cxy = dx @ dy
    return mean, np.array([[dx @ dx, cxy], [cxy, dy @ dy]]), dx, dy


def _block_moments(q: np.ndarray, shots: _Shots, u: np.ndarray) -> _Moments:
    """Two-pass moments of one block's kept shots."""
    columns = (q[0], q[1], shots.x_out, shots.y_out, shots.i_m)
    if shots.kept is not None:
        columns = [a[shots.kept] for a in columns]
    x_in, y_in, x_out, y_out, i_m = columns
    n = x_out.size
    n_discarded = q.shape[1] - n
    if n == 0:
        return replace(_NO_SHOTS, n_discarded=n_discarded)
    err_x = x_out - (u[0, 0] * x_in + u[0, 1] * y_in)
    err_y = y_out - (u[1, 0] * x_in + u[1, 1] * y_in)
    mean_out, c_out, _, _ = _centred(x_out, y_out)
    mean_err, c_err, dx, dy = _centred(err_x, err_y)
    dx2, dy2 = dx * dx, dy * dy
    return _Moments(
        n=n,
        n_discarded=n_discarded,
        mean_out=mean_out,
        c_out=c_out,
        mean_err=mean_err,
        c_err=c_err,
        m3_err=np.array([dx2 @ dx, dy2 @ dy]),
        m4_err=np.array([dx2 @ dx2, dy2 @ dy2]),
        sum_im=float(i_m.sum()),
    )


def _merge(a: _Moments, b: _Moments) -> _Moments:
    """Moments of the union of two disjoint shot sets.

    Pairwise updates of Chan, Golub & LeVeque (Am. Stat. 37, 1983) for
    means and co-moments and of Pebay (SAND2008-6212) for the third and
    fourth moments; every term is a difference of means or a centred sum,
    so nothing cancels at large amplitudes.
    """
    n_discarded = a.n_discarded + b.n_discarded
    if b.n == 0:
        return replace(a, n_discarded=n_discarded)
    if a.n == 0:
        return replace(b, n_discarded=n_discarded)
    na, nb = float(a.n), float(b.n)
    n = na + nb
    d_out = b.mean_out - a.mean_out
    d = b.mean_err - a.mean_err
    m2a, m2b = a.c_err.diagonal(), b.c_err.diagonal()
    m3 = (a.m3_err + b.m3_err
          + d**3 * (na * nb * (na - nb) / n**2)
          + 3.0 * d * (na * m2b - nb * m2a) / n)
    m4 = (a.m4_err + b.m4_err
          + d**4 * (na * nb * (na * na - na * nb + nb * nb) / n**3)
          + 6.0 * d**2 * (na * na * m2b + nb * nb * m2a) / n**2
          + 4.0 * d * (na * b.m3_err - nb * a.m3_err) / n)
    return _Moments(
        n=a.n + b.n,
        n_discarded=n_discarded,
        mean_out=a.mean_out + d_out * (nb / n),
        c_out=a.c_out + b.c_out + np.outer(d_out, d_out) * (na * nb / n),
        mean_err=a.mean_err + d * (nb / n),
        c_err=a.c_err + b.c_err + np.outer(d, d) * (na * nb / n),
        m3_err=m3,
        m4_err=m4,
        sum_im=a.sum_im + b.sum_im,
    )


def _predicted_error_cov(config: SimConfig, phases: PhaseSet,
                         mean_im: Optional[float]) -> np.ndarray:
    """Full 2x2 error covariance from the stage-noise propagation.

    Stage-1 noise (-y_s1/g1, y_s2 [/sqrt(12 gamma I_m) in the cubic
    variant]) passes through the stage-2 matrix; stage-2 adds
    (-y_s3/g3, y_s4).  The diagonal reproduces the closed-form error
    vector times var_y.
    """
    w = config.w
    f00, f01, f10, f11 = stage_matrix(phases.cot3, phases.cot4p, w.g3_over_g2)
    m2 = np.array([[f00, f01], [f10, f11]])
    var_y = config.squeezing.var_y
    mid = 1.0 if mean_im is None else 1.0 / (12.0 * config.cubic.gamma
                                             * mean_im)
    stage1 = np.diag([var_y / w.g1**2, var_y * mid])
    stage2 = np.diag([var_y / w.g3**2, var_y])
    return m2 @ stage1 @ m2.T + stage2


def _summarize(config: SimConfig, m: _Moments, u: np.ndarray,
               solved) -> SimSummary:
    n_kept = m.n
    if n_kept < 2:
        raise DomainError("fewer than two kept shots; cannot form statistics")
    cov_out = m.c_out / (n_kept - 1)
    err_cov = m.c_err / (n_kept - 1)
    mean_im = m.sum_im / n_kept if config.variant == VARIANT_CUBIC else None

    pred_err_cov = _predicted_error_cov(config, solved.phases, mean_im)
    inp = config.input_state
    pred_mean = u @ inp.mean
    pred_out_cov = u @ inp.covariance @ u.T + pred_err_cov

    # Distribution-free standard errors.  The cubic variant's per-shot
    # error is heavy-tailed (near-zero photocurrents), so the Gaussian
    # sqrt(2/n) rule understates the variance estimator's sampling
    # error; the fourth-moment formula is exact asymptotically for any
    # distribution and reduces to sqrt(2/n) in the Gaussian variant.
    se_mean = np.sqrt(np.diag(cov_out) / n_kept)
    z_mean = (m.mean_out - pred_mean) / se_mean
    pred_var = np.diag(pred_err_cov)
    m2 = m.c_err.diagonal() / n_kept
    m4 = m.m4_err / n_kept
    se_var = np.sqrt(np.maximum(m4 - m2**2, 0.0) / n_kept)
    se_var = np.where(se_var > 0.0, se_var,
                      pred_var * np.sqrt(2.0 / (n_kept - 1)))
    # An exact match with zero standard error (0/0) is a z of 0; any other
    # non-finite z is kept so that the gate sees it.
    diff = np.diag(err_cov) - pred_var
    z_err = np.where(diff == 0.0, 0.0, diff / se_var)

    return SimSummary(
        variant=config.variant,
        n_kept=n_kept,
        n_discarded=m.n_discarded,
        mean_out=m.mean_out,
        cov_out=cov_out,
        error_mean=m.mean_err,
        error_cov=err_cov,
        predicted_mean=pred_mean,
        predicted_out_cov=pred_out_cov,
        predicted_error_cov=pred_err_cov,
        z_mean=z_mean,
        z_error_var=z_err,
        mean_im=mean_im,
        realized=solved.realized,
        phases=solved.phases,
    )


def run(config: SimConfig,
        record_sink: Optional[Callable[[tuple], object]] = None
        ) -> SimSummary:
    """Run the Monte Carlo protocol described by ``config``.

    Shots are generated in fixed blocks with counter-based seeding, so a
    block's samples do not depend on the thread that draws it: the calling
    thread draws the even-numbered blocks and one helper thread the
    odd-numbered ones (``core.in_turns``), each into its own half of a
    (2, 10, SHOT_BLOCK) buffer.  Everything else runs on the calling
    thread: each block is propagated, reduced to centred moments (count,
    means, co-moment sums and the error's third and fourth moment sums)
    and merged into the running total in block order, so memory does not
    grow with ``n_shots``.  A one-block run starts no helper thread.

    Args:
        config: run description.
        record_sink: if given, called with each block's per-shot records,
            a tuple of len(RECORD_COLUMNS) float64 columns over the
            block's shots in RECORD_COLUMNS order, in block order, before
            that block's half of the buffer is drawn into again.

    Returns:
        SimSummary.
    """
    solved = solve_phases(config.target, config.w, config.theta4p)
    u = solved.realized.as_matrix()
    buffers = np.empty((2, 10, SHOT_BLOCK))
    n_blocks = -(-config.n_shots // SHOT_BLOCK)
    total = _NO_SHOTS

    def consume(q):
        nonlocal total
        shots = _propagate(q, config, solved.phases)
        if record_sink is not None:
            record_sink(_record_block(q, shots))
        total = _merge(total, _block_moments(q, shots, u))

    # At huge input amplitudes shots and statistics overflow to inf or
    # NaN; the CLI's gate reports non-finite statistics, so numpy need
    # not warn about them on the way.  The helper thread does not share
    # this error state, but a draw's scalings of finite values cannot
    # overflow.  The helper draws block k + 1 into buffers[1] while the
    # caller draws and consumes block k from buffers[0], and draws k + 3
    # only after k + 1 is consumed.  In-process, ``run`` on 2M Gaussian
    # shots took 0.38 s (median of 10 fresh processes, 2-vCPU Xeon).
    with np.errstate(all="ignore"):
        for q in in_turns(lambda k: _draw_block(config, k, buffers[k % 2]),
                          n_blocks):
            consume(q)
        return _summarize(config, total, u, solved)


def linearization_check(config: SimConfig) -> LinearizationReport:
    """Check the square-root series truncation for a cubic run.

    Evaluates the two dimensionless validity conditions — the
    first-moment condition 3*gamma*alpha^2 >> |M11 <x_in> + M12 <y_in>|
    and the second-moment condition (3*gamma*alpha^2)^2 >>
    M11^2 <x_in^2> + 2 M11 M12 <x_in><y_in> + M12^2 <y_in^2>
    + <y_s1^2>/g1^2 + <y_s2^2> — and reports the two ratios; ``passed``
    requires both to reach LINEARIZATION_SAFETY.

    Args:
        config: cubic run description.

    Returns:
        LinearizationReport (ratios are +inf when the moment term is 0).
    """
    if config.variant != VARIANT_CUBIC:
        raise DomainError("linearization_check requires variant='cubic'")
    solved = solve_phases(config.target, config.w, config.theta4p)
    p = solved.phases
    m11, m12, _, _ = stage_matrix(p.cot1, p.cot2p, config.w.g1_over_g4)

    inp = config.input_state
    var_y = config.squeezing.var_y
    scale = 3.0 * config.cubic.gamma * config.cubic.alpha**2

    first = abs(m11 * inp.mean_x + m12 * inp.mean_y)
    second = (
        m11**2 * (inp.var_x + inp.mean_x**2)
        + 2.0 * m11 * m12 * inp.mean_x * inp.mean_y
        + m12**2 * (inp.var_y + inp.mean_y**2)
        + var_y / config.w.g1**2
        + var_y
    )
    ratio1 = math.inf if first == 0.0 else scale / first
    ratio2 = math.inf if second == 0.0 else scale**2 / second
    return LinearizationReport(
        ratio_first_moment=float(ratio1),
        ratio_second_moment=float(ratio2),
    )
