"""CSV text of float64 rows, byte for byte what ``repr`` writes.

Every CSV value is written as the repr of its float: the shortest decimal
that reads back as the same double, the nearest one when there is a
choice.  ``csv_rows`` finds that decimal for a whole block at once in
exact float64 / int64 arithmetic, for each x with 1e-4 <= |x| < 1e16, the
range where repr writes positional notation, and for zero.  What it
cannot decide (other magnitudes, exact ties between two shortest
decimals, a log10 off by one) goes to repr.
"""

from __future__ import annotations

import numpy as np

_POW10 = 10.0 ** np.arange(21)  # exact doubles
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)
# "0000" .. "9999" as 4-byte words.
_DIGITS4 = np.stack(
    np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
    axis=-1).view(np.uint32).ravel()
# Bytes of one value's row, at their widest: up to 16 integer digits
# right-aligned to column 16, the point in column 17, up to 20 fraction
# digits from column 18, and a column for the separator after the last
# one.  The sign goes just before the first integer digit, so a field is
# one run of its row.  _RUNS[21 * first + n_frac] keeps columns first ..
# 18 + n_frac of such a row.
_RUNS = ((np.arange(39) >= np.arange(19)[:, None, None])
         & (np.arange(39) <= 18 + np.arange(21)[:, None])).reshape(-1, 39)


def _split(a):
    """Veltkamp's split: a == hi + lo, each of 26 significant bits or fewer."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _shortest_decimals(x: np.ndarray):
    """The repr digits of each x in [1e-4, 1e16) as an integer.

    Returns ``(digits, zeros, scale, exact)``: x reads back from
    ``digits * 10**-scale``, digits has ``zeros`` trailing decimal zeros,
    and where ``exact`` is False the result is not decided.

    Scaled by 10**scale, x lands in [1e16, 1e17), where the shortest
    decimal that rounds to x (17 significant digits at most) is an
    integer.  The integer with the most trailing zeros in x's rounding
    interval is the shortest (the idea of Ryu: Adams, PLDI 2018); of
    several such, repr takes the one nearest x.
    """
    bits = x.view(np.int64)
    mantissa = bits & (2**52 - 1)
    # In [0, 20]; when log10 is off by one, big misses [1e16, 1e17).
    scale = 16 - np.floor(np.log10(x)).astype(np.int64)
    # x * 10**scale == big + err exactly, by Dekker's product (numpy has
    # no fma).  big >= 1e16 > 2**53 is an integer and |err| <= 8.
    power = _POW10.take(scale, mode="clip")
    big = x * power
    x_hi, x_lo = _split(x)
    p_hi = _POW10_HI.take(scale, mode="clip")
    p_lo = _POW10_LO.take(scale, mode="clip")
    err = ((x_hi * p_hi - big) + x_hi * p_lo + x_lo * p_hi) + x_lo * p_lo
    # Half the gap to the next double, scaled: a power of two times
    # 10**scale, so exact; below a power of two the gap is half as wide.
    # err and both halves are multiples of 2**-48 below 32 in size, so
    # the interval's ends err -+ half are exact too.  They read back as x
    # only when its mantissa is even.
    half = np.ldexp(power, ((bits >> 52) - 1076).astype(np.int32))
    odd = mantissa & 1 == 1
    low = err - np.where(mantissa == 0, 0.5 * half, half)
    lo = np.ceil(low)
    lo += (lo == low) & odd
    high = err + half
    hi = np.floor(high)
    hi -= (hi == high) & odd
    width = (hi - lo).astype(np.int64) + 1  # integers in the interval: < 25
    exact = (big >= 1e16) & (big < 1e17)
    big = big.astype(np.int64)
    hi = big + hi.astype(np.int64)
    # The interval holds a multiple of 10**k iff hi % 10**k < width; past
    # k = 2 that needs hi's digits 2 .. k - 1 to be zero.
    last2 = hi - hi // 100 * 100
    zeros = (last2 - last2 // 10 * 10 < width).astype(np.int64)
    more = np.flatnonzero(last2 < width)
    if more.size:
        zeros[more] = 2 + _trailing_zeros(hi[more] // 100)
    step = _POW10_INT.take(zeros)
    below = big + np.floor(err).astype(np.int64)
    below -= below % step
    above = below + step
    fits_below = below > hi - width
    fits_above = above <= hi
    # Which is nearer big + err: compare 2 err with this.
    middle = ((above - big) - (big - below)).astype(np.float64)
    exact &= ~(fits_below & fits_above & (2.0 * err == middle))
    use_below = fits_below & ~(fits_above & (2.0 * err > middle))
    return np.where(use_below, below, above), zeros, scale, exact


def _trailing_zeros(n: np.ndarray) -> np.ndarray:
    """Trailing decimal zeros of each positive int64 below 10**16."""
    zeros = np.zeros(n.shape, dtype=np.int64)
    for k in (8, 4, 2, 1):
        quotient = n // _POW10_INT[k]
        divides = quotient * _POW10_INT[k] == n
        n = np.where(divides, quotient, n)
        zeros += k * divides
    return zeros


def _put_digits(columns: np.ndarray, n: np.ndarray) -> None:
    """Write each n, zero-padded, into its row of uint8 ``columns``."""
    words = columns.view(np.uint32)
    for g in range(words.shape[1] - 1, 0, -1):
        quotient = n // 10000
        words[:, g] = _DIGITS4.take(n - quotient * 10000, mode="clip")
        n = quotient
    words[:, 0] = _DIGITS4.take(n, mode="clip")  # undecided rows overflow


def csv_rows(block: np.ndarray) -> str:
    """CSV text of the rows of a C-contiguous float64 ``block``.

    Each value is the repr of its Python float, a non-finite one an empty
    field.  Each value is laid out in a row of bytes, and one compress
    joins the fields' runs of their rows.
    """
    values = block.ravel()
    size = np.abs(values)
    nonzero = size != 0.0
    fast = (size >= 1e-4) & (size < 1e16)
    # Zero is written as 1.0 is, less its integer digit.
    digits, zeros, scale, exact = _shortest_decimals(
        np.where(fast, size, 1.0))
    fast = fast & exact | ~nonzero
    # digits has 17 decimal digits (16 or 18 at the ends of its range),
    # the last ``scale`` of them after the point.
    n_whole = np.maximum(
        17 - (digits < 10**16) + (digits >= 10**17) - scale, 1) * fast
    n_frac = np.maximum(scale - zeros, 1) * fast
    unit = _POW10_INT.take(np.minimum(scale, 18))
    whole = digits // unit
    frac = digits - whole * unit
    whole *= nonzero
    # The fraction's first 16 and next 4 digits, left-aligned.
    frac *= _POW10_INT.take(np.maximum(16 - scale, 0))
    shift = _POW10_INT.take(np.maximum(scale - 16, 0))
    frac16 = frac // shift
    # The block's rows hold only the digit groups some field keeps.
    point = 1 + -(-max(int(n_whole.max()), 1) // 4) * 4
    width = point + 18 + 4 * (int(n_frac.max()) > 16)
    rows = np.empty((values.size, width), dtype=np.uint8)
    _put_digits(rows[:, 1:point], whole)
    rows[:, point] = ord(".")
    _put_digits(rows[:, point + 1:point + 17], frac16)
    if width > point + 18:
        _put_digits(rows[:, point + 17:point + 21],
                    (frac - frac16 * shift)
                    * _POW10_INT.take(np.minimum(20 - scale, 4)))
    flat = rows.ravel()
    starts = np.arange(0, flat.size, width)
    flat.put(starts + (point - 1 - n_whole), ord("-"))
    separators = np.full(block.shape, ord(","), dtype=np.uint8)
    separators[:, -1] = ord("\n")
    flat.put(starts + (point + 1 + n_frac), separators)
    negative = np.signbit(values)
    first = 18 - (negative + n_whole + 1) * fast
    cut = 17 - point
    text = rows[_RUNS[:, cut:cut + width].take(
        21 * first + n_frac, axis=0)].tobytes()
    slow = np.flatnonzero(~fast & np.isfinite(values))
    if slow.size:
        # Each repr goes in just before its field's separator.
        ends = (np.cumsum(19 + n_frac - first)[slow] - 1).tolist()
        pieces, start = [], 0
        for end, x in zip(ends, values[slow].tolist()):
            pieces += [text[start:end], repr(x).encode()]
            start = end
        pieces.append(text[start:])
        text = b"".join(pieces)
    return text.decode("ascii")
