"""Decimal CSV cells to float64 in bulk, bit for bit what ``float`` gives.

``columns`` decodes a plain numeric CSV body: every line has the same
number of ``,``-separated fields, every byte is one of ``0-9 . e E + - ,``
and ``\\n``, and every cell that is read is ``-?D+(.D+)?([eE][-+]?D+)?``.
Any other body is declined (``None``), and the caller parses it another way.

The body is read in blocks of about ``BLOCK`` bytes. In each, one
``flatnonzero`` finds every byte that is not a digit; the separators among
them fix the lines and cells, and each cell's few others (a sign, a dot, an
exponent marker) fix its digit runs. A run is decoded eight bytes at a time
from unaligned little-endian words (SWAR: the bytes before the run are
masked off, and three multiplies fold the eight digits).

Rounding. A cell's mantissa M, its digits without the dot, is exact in a
uint64 when it is below 10**19, and so in an x87 long double, whose
significand has 64 bits. Its value is M * 10**e, and 10**k is exact in a
long double for 0 <= k <= 27 (5**27 < 2**64). So one multiply, or one
divide for e < 0, gives r = M * 10**e rounded once, within half an
extended ulp of the exact value v. Rounding r to double gives the double
nearest v unless a midpoint of two doubles lies between r and v or equals
r; a midpoint has 0x400 in the low 11 of the 64 significand bits, so a
cell whose r has 0x3ff, 0x400 or 0x401 there is left to ``float``. With
M < 10**19 and |e| <= 27 the value is 0 or between 1e-27 and 1e46, so no
subnormal and no overflow. A cell with M of 10**19 or more, a digit run of
more than 24 digits, an exponent of more than 8 digits, or |e| > 27 is
also left to ``float``, which parses its bytes.

The argument needs a long double with a 64-bit significand whose
operations round to it, stored in 16 bytes of little-endian words (the
midpoint test reads its low word): ``supported()``.
"""

from __future__ import annotations

import mmap
import sys

import numpy as np

# Bytes of the body decoded at once: large enough that numpy's per-call
# cost is small, small enough that a block's arrays stay in cache.
BLOCK = 2**19

_NEWLINE = ord("\n")
_ZERO_BYTE, _NINE = np.uint8(ord("0")), np.uint8(9)
# Kinds of the bytes that are not digits; 0 is a byte outside the alphabet.
_MINUS, _PLUS, _DOT, _EXP, _COMMA, _END = 1, 2, 3, 4, 5, 6
_KIND = np.zeros(256, np.uint8)
for _byte, _kind in ((b"-", _MINUS), (b"+", _PLUS), (b".", _DOT), (b"e", _EXP), (b"E", _EXP),
                     (b",", _COMMA), (b"\n", _END)):
    _KIND[ord(_byte)] = _kind

# A cell's inner non-digits, in order, 3 bits each: the codes of the
# shapes -?D+(.D+)?([eE][-+]?D+)?, and their parts.
_VALID = np.zeros(1 << 12, bool)
_HAS_DOT = np.zeros(1 << 12, np.int64)
_EXP_SIGN = np.zeros(1 << 12, np.int64)  # 1 for '+', -1 for '-', else 0
for _minus in ((), (_MINUS,)):
    for _dot in ((), (_DOT,)):
        for _exp in ((), (_EXP,), (_EXP, _MINUS), (_EXP, _PLUS)):
            _code = sum(k << 3 * t for t, k in enumerate(_minus + _dot + _exp))
            _VALID[_code] = True
            _HAS_DOT[_code] = bool(_dot)
            if len(_exp) == 2:
                _EXP_SIGN[_code] = -1 if _exp[1] == _MINUS else 1

_ONES = (1 << 64) - 1
_ZEROS = np.uint64(0x3030303030303030)
_PAIRS = np.uint64(0x000000FF000000FF)
_MUL_LOW, _MUL_HIGH = np.uint64(100 + (1000000 << 32)), np.uint64(1 + (10000 << 32))
_U2, _U8, _U10, _U16, _U32, _U63, _U1000 = (np.uint64(k) for k in (2, 8, 10, 16, 32, 63, 1000))
# The low 11 of the 64 significand bits of a long double, and a midpoint of
# doubles less an extended ulp there.
_LOW_BITS, _BELOW_MIDPOINT = np.uint64(0x7FF), np.uint64(0x3FF)
# _KEEP[n]: for a run of n digits, the bytes of each of its three words
# (the last one ends where the run does) that hold its digits.
_KEEP = np.array([[_ONES << 8 * (8 - c) & _ONES if c > 0 else 0
                   for c in (min(max(n - 8 * k, 0), 8) for k in (2, 1, 0))] for n in range(25)],
                 np.uint64)
_POW10 = np.array([10**k for k in range(20)], np.uint64)
# A whole part below _LIMIT[f] keeps a mantissa with f fraction digits under 10**19.
_LIMIT = np.array([10 ** (19 - f) if f <= 19 else 1 for f in range(25)], np.uint64)
_POW10_LD = np.array([10**k for k in range(28)], np.longdouble)  # exact: 5**27 < 2**64


def supported() -> bool:
    """Whether this platform's long double rounds to a 64-bit significand and
    takes 16 bytes of little-endian words, as the rounding argument and the
    midpoint test need (a 12-byte long double, as on 32-bit x86, is not
    read as two words)."""
    one = np.longdouble(1)
    return (np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
            and sys.byteorder == "little" and one + np.longdouble(2.0**-63) != one)


def _digits(base, ends, lengths):
    """(value, exact) of each digit run of ``lengths[i]`` (at most 24) bytes
    that ends at byte ``ends[i]`` of ``base``, a uint8 array. A run is read
    at once as the 8, 16 or 24 bytes before its end, three little-endian
    words at most; the bytes outside the run are masked off, and each word
    is folded in three multiplies. A value is exact when below 10**19, that
    is, when a third word is below 1000."""
    count = min(-(-int(lengths.max(initial=0)) // 8), 3)
    if not count:
        return np.zeros(ends.size, np.uint64), True
    width = 8 * count
    items = np.ndarray((base.size - width + 1,), f"V{width}", buffer=base, strides=(1,))
    v = items[ends - width].view(np.uint64).reshape(-1, count)  # word count-1 ends at the end
    v ^= _ZEROS
    v &= np.take(_KEEP[:, 3 - count:], lengths, axis=0)
    high = v >> _U8
    v *= _U10
    v += high  # each even byte: the two digits it starts
    np.right_shift(v, _U16, out=high)
    high &= _PAIRS
    v &= _PAIRS
    v *= _MUL_LOW
    high *= _MUL_HIGH
    v += high
    v >>= _U32
    value = v[:, -1].copy()
    for k in range(1, count):
        value += v[:, -1 - k] * _POW10[8 * k]
    return value, v[:, 0] < _U1000 if count == 3 else True


def _shape(kind, before, inner):
    """The codes of the cells' shapes: their inner non-digits' kinds, 3 bits
    each (an int when every cell has the same), or None if a cell has more
    than 4. Cell i's inner non-digits are ``kind[before[i] + 1:][:inner[i]]``."""
    most = int(inner.max(initial=0))
    if most > 4:
        return None
    if not most:
        return 0
    lead = np.take(kind, before + 1)
    if int(inner.min()) == 1 and most == 1 and lead.min() == lead.max():
        return int(lead[0])
    code = lead.astype(np.int64)
    code *= inner > 0
    more = np.flatnonzero(inner > 1)
    for t in (1, 2, 3):
        code[more] |= np.take(kind, before[more] + 1 + t).astype(np.int64) << 3 * t
        more = more[inner[more] > t + 1]
    return code


def _cells(base, nd, kind, before, after):
    """The values of the cells between the separators ``nd[before]`` and
    ``nd[after]``, or None if one is not a plain number. ``nd`` are the
    positions in ``base`` of a block's non-digit bytes and ``kind`` their
    kinds."""
    code = _shape(kind, before, after - before - 1)
    if code is None or not np.take(_VALID, code).all():
        return None
    neg = (code & 7) == _MINUS
    dot = np.take(_HAS_DOT, code)
    start = np.take(nd, before)
    start += 1
    end = np.take(nd, after)
    if np.any(neg) and not (np.take(nd, before + 1) == start)[neg].all():
        return None  # a minus that does not open its cell
    first = before + 1 + neg  # the non-digit that ends the whole part
    int_end = np.take(nd, first)
    mant_end = np.take(nd, first + dot) if np.any(dot) else int_end
    int_len = int_end - start
    int_len -= neg
    frac_len = mant_end - int_end
    frac_len -= dot
    if not (int_len > 0).all() or not ((frac_len > 0) | (dot == 0)).all():
        return None

    fallback = []  # masks of the cells left to float
    long_runs = (int_len > 24) | (frac_len > 24)
    if long_runs.any():
        fallback.append(long_runs)
        int_len, frac_len = np.minimum(int_len, 24), np.minimum(frac_len, 24)
    whole, whole_exact = _digits(base, int_end, int_len)
    frac, frac_exact = _digits(base, mant_end, frac_len)
    fallback += [~m for m in (whole_exact, frac_exact) if m is not True]
    if (int_len + frac_len).max() > 19:
        fallback.append(whole >= np.take(_LIMIT, frac_len))
    mant = np.take(_POW10, np.minimum(frac_len, 19))
    mant *= whole
    mant += frac
    power = -frac_len
    with_exp = np.flatnonzero(mant_end != end)
    if with_exp.size:
        exp_at = mant_end[with_exp]
        sign = np.take(_EXP_SIGN, np.broadcast_to(code, end.shape)[with_exp])
        sign_at = np.broadcast_to(first + dot + 1, end.shape)[with_exp]  # if it has one
        if (np.take(nd, sign_at[sign != 0]) != exp_at[sign != 0] + 1).any():
            return None  # the exponent's sign is not right after its marker
        length = end[with_exp] - exp_at - 1 - (sign != 0)
        if (length <= 0).any():
            return None
        exponent = _digits(base, end[with_exp], np.minimum(length, 8))[0]
        exponent = exponent.astype(np.int64)
        exponent[sign < 0] *= -1
        power[with_exp] += exponent
        fallback.append(np.zeros(power.size, bool))
        fallback[-1][with_exp[length > 8]] = True
    if power.min() < -27 or power.max() > 27:
        fallback.append(np.abs(power) > 27)
        power = np.clip(power, -27, 27)
    scaled = mant.astype(np.longdouble)
    if power.max() > 0:
        scaled *= np.take(_POW10_LD, np.maximum(power, 0))
        scaled /= np.take(_POW10_LD, np.maximum(-power, 0))
    else:
        scaled /= np.take(_POW10_LD, -power)
    low = scaled.view(np.uint64)[::2] & _LOW_BITS
    low -= _BELOW_MIDPOINT
    near = low <= _U2  # within an extended ulp of a midpoint of doubles
    out = scaled.astype(np.float64)
    if np.ndim(neg):
        out.view(np.uint64)[:] ^= neg.view(np.uint8).astype(np.uint64) << _U63
    elif neg:
        np.negative(out, out=out)
    for mask in fallback:
        near |= mask
    for i in np.flatnonzero(near).tolist():
        out[i] = float(base[start[i]:end[i]].tobytes())
    return out


def _block(data, lo: int, hi: int):
    """(block, base, offset): the bytes ``data[lo:hi]`` as ``base[offset:]``,
    where ``base`` holds at least 24 bytes before them, the most a run's
    read looks back. A block too near the start of ``data``, or that does
    not end in a line break, is copied, and the copy ends in one."""
    if lo >= 24 and data[hi - 1] == _NEWLINE:
        return data[lo:hi], data, lo
    base = np.zeros(hi - lo + 25, np.uint8)
    base[24:hi - lo + 24] = data[lo:hi]
    base[-1] = _NEWLINE
    return base[24:hi - lo + 24 + (data[hi - 1] != _NEWLINE)], base, 24


def lines(raw, lo: int, hi: int) -> int:
    """The lines of ``raw[lo:hi]`` (``lo < hi``), a last one without a line
    break included."""
    data = np.frombuffer(raw, np.uint8)
    count = 0
    for at in range(lo, hi, 2**20):
        count += int(np.count_nonzero(data[at:min(at + 2**20, hi)] == _NEWLINE))
    return count + (data[hi - 1] != _NEWLINE)


def columns(raw, lo: int, hi: int, positions, width: int, out=None):
    """The cells at ``positions`` of each line of the body ``raw[lo:hi]``,
    whose lines all have ``width`` fields, as float64 columns; or None if
    the body is empty or not plain. ``raw`` is a bytes-like object with
    ``find`` (bytes, an mmap) whose byte ``lo - 1`` is a line break. With
    ``out`` given (one float64 array a position, of ``lines(raw, lo, hi)``
    rows), the columns are written there; a declined body may leave some
    of them written."""
    if hi <= lo:
        return None
    data = np.frombuffer(raw, np.uint8)
    if out is None:
        out = [np.empty(lines(raw, lo, hi)) for _ in positions]
    row = 0
    scratch = np.empty(min(BLOCK + 2**16, hi - lo + 1), np.uint8)
    # A map's pages already decoded are let go, so that the process's
    # resident memory holds about a block of the file, not all it read.
    release = raw.madvise if isinstance(raw, mmap.mmap) else None
    released = lo // mmap.PAGESIZE * mmap.PAGESIZE
    start = lo - 1  # each block starts at the line break before its first line
    while start < hi - 1:
        stop = hi
        if start + BLOCK < hi:
            stop = raw.find(b"\n", start + BLOCK, hi) + 1 or hi
        block, base, offset = _block(data, start, stop)
        if block.size > scratch.size:
            scratch = np.empty(block.size, np.uint8)
        digit = np.subtract(block, _ZERO_BYTE, out=scratch[:block.size])
        nd = np.flatnonzero(np.greater(digit, _NINE, out=digit.view(bool)))
        kind = np.take(_KIND, np.take(block, nd))
        if not kind.all():
            return None
        nd += offset
        seps = np.flatnonzero(kind >= _COMMA)
        count = (seps.size - 1) // width
        if (seps.size - 1) % width or not (np.take(kind, seps[::width]) == _END).all() \
                or np.count_nonzero(kind == _END) != count + 1 or max(positions) >= width:
            return None
        for col, at in zip(out, positions):
            values = _cells(base, nd, kind, seps[at:-1:width], seps[at + 1::width])
            if values is None:
                return None
            col[row:row + count] = values
        row += count
        start = stop - 1
        done = (start - 24) // mmap.PAGESIZE * mmap.PAGESIZE  # the next block reads from here
        if release is not None and done > released:
            release(mmap.MADV_DONTNEED, released, done - released)
            released = done
    return out
