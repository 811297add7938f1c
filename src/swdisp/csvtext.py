"""CSV text of float columns, byte for byte as ``"%.17g"`` writes it.

:func:`csv_body` formats a block of values per numpy pass.  With
X = floor(log10|v|), T = |v| 10^(16-X) is formed as p + l: 10^k is a table
double plus its rounded remainder, and Dekker's split (Numer. Math. 18,
1971) makes p = fl(|v| 10^k) an integer-valued double and l the rest to
within about 1e-14.  X is corrected once where T leaves [1e16, 1e17), and
N = p + floor(l + 1/2) is the correctly rounded 17-digit significand unless
frac(l + 1/2) lies within ``_TIE_MARGIN`` of 0 or 1.  Those values, inf,
nan and nonzero values outside (1e-100, 1e100) go to ``"%.17g"`` one at a
time (Loitsch, PLDI 2010: a fast path that knows when it cannot decide).
Each value fills a fixed slot with every byte that any of ``"%.17g"``'s
layouts uses; a mask chosen by the layout and the count of significant
digits keeps the bytes that ``"%.17g"`` writes and turns the rest to NUL,
which one ``bytes.translate`` deletes (with the spaces that pad the
one-at-a-time values).

The tables are built on first use, in plain Python, and a block is 1024
values: the numpy code and heap that more would touch raise a run's peak
RSS.  The formatter is a module of its own because compiling it as part
of ``io``, where no bytecode is cached, raised by 0.1-0.3 MB the peak RSS
of runs that write no CSV.
"""

import functools

import numpy as np

__all__ = ["csv_body"]

_BLOCK = 1024  # values per numpy pass
_POW10_MIN, _POW10_MAX = -85, 118  # the exponents k of the 10^k table
_TIE_MARGIN = 1e-6
# layouts: fixed point with X = code - 4 for codes 0-20, then these
_EXPONENT, _ZERO, _SLOW = 21, 22, 23
# slot bytes: sign, "0.000" at 1-5, digit j at 6 + 2j with a point after
# it, "e" and the exponent's sign and two digits at 40-43, separator at 44;
# the slot is built as six int64 words
_SLOT = 48
_SLOT_HEAD = int.from_bytes(b"\0" + b"0.000\0.", "little")  # bytes 0-7


def _digit(j):
    return 6 + 2 * j


@functools.cache
def _tables():
    """Tables of :func:`csv_body`, built on first use: 10^k as the nearest
    double, its two Dekker halves and its rounded remainder; each 4-digit
    group as slot bytes and its count of trailing zeros; each exponent as
    the slot's sixth word; and the slot mask of each layout and count of
    significant digits."""
    pow10 = []
    for k in range(_POW10_MIN, _POW10_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den  # correctly rounded
        p, q = hi.as_integer_ratio()
        c = hi * 134217729.0  # 2^27 + 1
        top = c - (c - hi)
        pow10.append((hi, top, hi - top, (num * q - p * den) / (den * q)))

    # each four-digit group as "d.d.d.d." and its count of trailing zeros,
    # from its two pairs of digits (a low pair "00" adds the high pair's)
    pairs = [b"%d.%d." % divmod(i, 10) for i in range(100)]
    digits = b"".join(b"".join(a + b for b in pairs) for a in pairs)
    pair_zeros = [2] + [int(i % 10 == 0) for i in range(1, 100)]
    zeros = [b + (b == 2) * a for a in pair_zeros for b in pair_zeros]
    # "e", the sign and two digits of each exponent from -101 to 101; those
    # beyond +-99 only fill the table
    exps = b"".join(b"e%+03d\0\0\0\0" % min(max(x, -99), 99)
                    for x in range(-101, 102))

    masks = bytearray((_SLOW + 1) * 18 * _SLOT)
    for code in range(_SLOW + 1):
        for nd in range(1, 18):
            keep = [0, 44]
            if code < 4:  # 0.000ddd
                keep += [1, 2, 3, 4, 5][:5 - code]
                keep += [_digit(j) for j in range(nd)]
            elif code < _EXPONENT:  # ddd.ddd: no integer digit is dropped
                point, kept = code - 3, max(nd, code - 3)
                keep += [_digit(j) for j in range(kept)]
                keep += [_digit(point - 1) + 1] * (kept > point)
            elif code == _EXPONENT:
                keep += [_digit(j) for j in range(nd)] + [40, 41, 42, 43]
                keep += [_digit(0) + 1] * (nd > 1)
            elif code == _ZERO:
                keep += [1]
            else:
                keep = [44]
            for i in keep:
                masks[(code * 18 + nd) * _SLOT + i] = 255
    return (*np.array(pow10).T, np.frombuffer(digits, np.int64),
            np.array(zeros), np.frombuffer(exps, np.int64),
            np.frombuffer(masks, np.int64).reshape(-1, _SLOT // 8))


def _scaled(a, X, tables):
    """``|v| 10^(16 - X)`` as ``p + l``: Dekker's exact product of ``a``
    with the table's 10^k, plus ``a`` times its remainder."""
    k = 16 - _POW10_MIN - X
    h, h1, h2, rest = (table[k] for table in tables[:4])
    p = a * h
    c = a * 134217729.0
    a1 = c - (c - a)
    a2 = a - a1
    return p, ((a1 * h1 - p) + a1 * h2 + a2 * h1) + a2 * h2 + a * rest


def _block(v, seps, tables):
    """The bytes of the values ``v``, each followed by its byte of
    ``seps``."""
    digits, zeros, exps, masks = tables[4:]
    a = np.abs(v)
    fast = (a > 1e-100) & (a < 1e100)
    a = np.where(fast, a, 1.0)
    X = np.floor(np.log10(a)).astype(np.intp)
    p, l = _scaled(a, X, tables)
    # X is one off where log10 rounded across a power of ten
    shift = ((p - 1e17) + l >= 0.0).astype(np.intp) - ((p - 1e16) + l < 0.0)
    wrong = np.flatnonzero(shift)
    if wrong.size:
        X[wrong] += shift[wrong]
        p[wrong], l[wrong] = _scaled(a[wrong], X[wrong], tables)
    l += 0.5
    r = np.floor(l)
    tie = np.abs(l - r - 0.5) > 0.5 - _TIE_MARGIN
    over = (p - 1e17) + r  # N - 1e17, exact where it is small
    top = over == 0.0  # N rounds up to 1e17: 1e16 at X + 1
    p[top], r[top] = 1e16, 0.0
    X += top
    N = p.astype(np.int64) + r.astype(np.int64)
    zero = v == 0.0
    slow = ~zero & (~fast | tie | (X < -99) | (X > 99) | (over > 0.0)
                    | ((p - 1e16) + r < 0.0))

    # the first digit and the four 4-digit groups after it
    upper = N // 10**8
    lower = N - upper * 10**8
    first = upper // 10**8
    groups = np.empty((4, v.size), np.int64)
    groups[0] = upper // 10**4
    groups[1] = upper - groups[0] * 10**4
    groups[0] -= first * 10**4
    groups[2] = lower // 10**4
    groups[3] = lower - groups[2] * 10**4
    z, empty = zeros[groups], groups == 0
    nd = 17 - (z[3] + empty[3] * (z[2] + empty[2] * (z[1] + empty[1] * z[0])))
    code = np.where((X >= -4) & (X <= 16), X + 4, _EXPONENT)
    code[zero] = _ZERO
    code[slow] = _SLOW

    slots = np.empty((v.size, _SLOT // 8), np.int64)
    slots[:, 0] = ((first + ord("0")) * 2**48 + np.signbit(v) * ord("-")
                   + _SLOT_HEAD)
    slots[:, 1:5] = digits[groups.T]
    slots[:, 5] = exps[X + 101] + seps  # exps starts at X = -101
    slots &= masks[code * 18 + nd]  # one mask per code and nd = 0-17
    out = slots.view(np.uint8)
    rest = v[slow].tolist()
    if rest:  # at most 24 bytes each, padded with spaces
        text = b"%-24.17g" * len(rest) % tuple(rest)
        out[slow, :24] = np.frombuffer(text, np.uint8).reshape(-1, 24)
    return out.tobytes().translate(None, b"\0 ")


def csv_body(columns) -> bytes:
    """The CSV lines of the equal-length number ``columns``, byte for byte
    ``",".join(["%.17g"] * len(columns)) % row + "\\n"`` for each row."""
    tables = _tables()
    values = np.asarray(columns, dtype=float).T.ravel()
    seps = np.full(len(columns), ord(",") << 32)  # slot byte 44
    seps[-1] = ord("\n") << 32
    seps = np.tile(seps, values.size // len(columns))
    with np.errstate(all="ignore"):
        return b"".join(
            _block(values[i:i + _BLOCK], seps[i:i + _BLOCK], tables)
            for i in range(0, values.size, _BLOCK))
