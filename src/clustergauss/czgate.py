"""Weighted CZ gate: matrix, optical decomposition, and weight bound.

The two-mode CZ gate with weight g acts on the quadrature vector
(X1, X2, Y1, Y2) as the identity plus g couplings Y1 <- g*x2 and
Y2 <- g*x1.  Its Bloch-Messiah form is a five-factor product

    CZ(g) = P_left @ B_left @ S @ B_right @ P_right

(rightmost factor acts first) of two phase shifters, two beam splitters
and one two-mode squeezer with single-mode ratios sqrt(s), 1/sqrt(s).
The squeezer is realised in practice by a measurement-induced in-line
squeezer whose beam-splitter reflectivity R plays the role of s; the
added noise sqrt(1-R)*y_s of that circuit is what limits the usable
weight for a given resource squeezing level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DomainError


def cz_matrix(g: float) -> np.ndarray:
    """4x4 CZ matrix with weight g on quadrature order (X1, X2, Y1, Y2)."""
    m = np.eye(4)
    m[2, 1] = g
    m[3, 0] = g
    return m


def check_weight(g: float) -> None:
    """Raise DomainError unless the CZ weight g is nonnegative."""
    if g < 0:
        raise DomainError(f"weight g = {g!r} must be nonnegative")


def squeeze_ratio(g: float) -> float:
    """Squeezer ratio s(g) = (2 + g^2 - g*sqrt(4 + g^2))/2.

    Monotone decreasing from s(0) = 1 toward 0; computed in the
    subtraction-free form 2/(2 + g^2 + g*sqrt(4 + g^2)) to avoid
    cancellation at large g.  From g ~ 9.5e153 the denominator overflows
    and s is 0.0; from ~1.34e154 g^2 itself overflows: DomainError.
    """
    check_weight(g)
    try:
        g2 = g**2
    except OverflowError:
        raise DomainError(
            f"weight g = {g!r} is too large: g^2 overflows") from None
    with np.errstate(over="ignore"):
        return 2.0 / (2.0 + g2 + g * np.sqrt(4.0 + g2))


@dataclass(frozen=True)
class CzDecomposition:
    """Five-factor optical decomposition of a weighted CZ gate.

    Factors are stored left to right as displayed; the rightmost factor
    acts first on the quadrature vector (X1, X2, Y1, Y2).

    Attributes:
        g: CZ weight.
        s: squeezer ratio, in (0, 1].
        r_bs: beam-splitter reflection amplitude sqrt(s/(1+s)).
        t_bs: beam-splitter transmission amplitude 1/sqrt(1+s).
        phase_left, bs_left, squeezer, bs_right, phase_right: the factor
            matrices.
    """

    g: float
    s: float
    r_bs: float
    t_bs: float
    phase_left: np.ndarray
    bs_left: np.ndarray
    squeezer: np.ndarray
    bs_right: np.ndarray
    phase_right: np.ndarray

    @property
    def factors(self) -> tuple:
        return (self.phase_left, self.bs_left, self.squeezer,
                self.bs_right, self.phase_right)

    def product(self) -> np.ndarray:
        p = np.eye(4)
        for f in self.factors:
            p = p @ f
        return p

    @property
    def residual(self) -> float:
        """Max-abs deviation of the factor product from cz_matrix(g)."""
        return float(np.max(np.abs(self.product() - cz_matrix(self.g))))


def bloch_messiah(g: float) -> CzDecomposition:
    """Decompose cz_matrix(g) into phase shifters, beam splitters, squeezer.

    Args:
        g: nonnegative CZ weight.

    Returns:
        CzDecomposition whose factor product reconstructs the gate.

    Raises:
        DomainError: if the squeezer ratio underflows to 0 (g from about
            9.5e153), where the squeezer has no finite factor, or if g^2
            overflows (g from about 1.34e154).
    """
    s = squeeze_ratio(g)
    if not s > 0.0:
        raise DomainError(f"squeezer ratio of weight g = {g!r} is 0")
    r = np.sqrt(s / (1.0 + s))
    t = 1.0 / np.sqrt(1.0 + s)
    phase_left = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])
    bs_left = np.array([
        [t, r, 0.0, 0.0],
        [r, -t, 0.0, 0.0],
        [0.0, 0.0, t, r],
        [0.0, 0.0, r, -t],
    ])
    sq = np.sqrt(s)
    squeezer = np.diag([sq, 1.0 / sq, 1.0 / sq, sq])
    bs_right = np.array([
        [r, t, 0.0, 0.0],
        [t, -r, 0.0, 0.0],
        [0.0, 0.0, r, t],
        [0.0, 0.0, t, -r],
    ])
    phase_right = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
    ])
    return CzDecomposition(
        g=float(g), s=float(s), r_bs=float(r), t_bs=float(t),
        phase_left=phase_left, bs_left=bs_left, squeezer=squeezer,
        bs_right=bs_right, phase_right=phase_right,
    )


def max_weight(db: float) -> float:
    """Largest admissible CZ weight for resource squeezing of ``db`` dB.

    The in-line squeezer noise stays small compared with the main
    transformation only while g < 10^(-x/20)/sqrt(1 + 10^(x/10)) where
    x is the squeezing level in dB (negative for squeezed states).
    Monotone decreasing in db: less squeezing admits smaller weights.
    """
    x = float(db)
    try:
        return 10.0 ** (-x / 20.0) / np.sqrt(1.0 + 10.0 ** (x / 10.0))
    except OverflowError:
        raise DomainError(
            f"db = {db!r} is out of range: the weight bound overflows"
        ) from None
