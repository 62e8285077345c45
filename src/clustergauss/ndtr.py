"""The complementary error function of Cephes ``ndtr.c``, bit for bit.

A port of S. L. Moshier's ``erfc`` / ``erf`` pair (Methods and Programs
for Mathematical Functions, 1989), which is what ``scipy.special.erfc``
evaluates, so that the package does not depend on scipy for it.
"""

from __future__ import annotations

import math

import numpy as np

# Highest power first; Q, S and U write out p1evl's implicit leading 1.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2


def _polevl(x, coefs):
    """Horner's rule in Cephes's order (``polevl``)."""
    total = np.full_like(x, coefs[0])
    for c in coefs[1:]:
        total = total * x + c
    return total


def erfc(a):
    """Complementary error function, bit for bit Cephes's ``erfc``.

    Vectorised over ``a``; NaN passes through.  exp(-a**2) is libm's,
    through ``math.exp``, as in Cephes; ``np.exp`` rounds some values
    differently.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # huge |a|
        out = np.full(a.shape, np.nan)
        x = np.abs(a)
        # |a| < 1: 1 - erf(a), erf(a) = a T(a^2) / U(a^2).
        near = x < 1.0
        an = a[near]
        z = an * an
        out[near] = 1.0 - an * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
        # |a| >= 1: exp(-a^2) P(|a|) / Q(|a|), with R / S from |a| = 8 on;
        # 0 (2 for a < 0) once a^2 exceeds MAXLOG or the result underflows.
        far = x >= 1.0
        af, xf = a[far], x[far]
        z = -af * af
        z_ok = z >= -_MAXLOG
        expz = np.fromiter(map(math.exp, np.where(z_ok, z, 0.0).tolist()),
                           dtype=float, count=z.size)
        p, q = _polevl(xf, _ERFC_P), _polevl(xf, _ERFC_Q)
        tail = xf >= 8.0
        if tail.any():
            p[tail] = _polevl(xf[tail], _ERFC_R)
            q[tail] = _polevl(xf[tail], _ERFC_S)
        y = expz * p / q
        y = np.where(z_ok & (y != 0.0), y, 0.0)
        out[far] = np.where(af < 0.0, 2.0 - y, y)
    return out
