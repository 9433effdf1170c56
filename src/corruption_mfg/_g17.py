"""Python's ``"%.17g" % x`` and ``"%d" % n`` for whole numpy arrays.

:func:`g17` turns a float64 array into one :data:`FIELD`-byte field per
value, and :func:`d` a count array into fields of 4, 8, 12 or 16 bytes.  A
field holds the value's text with NUL bytes at fixed places among and after
its characters; dropping every NUL from a row of fields and literal bytes
leaves exactly what ``%`` writes for the row.  The CLI's tables are formatted
this way a chunk at a time, with a few dozen numpy passes per chunk instead
of one ``%`` conversion per cell.

**Digits.**  For finite nonzero ``x`` with decimal exponent ``k`` (``10**k <=
|x| < 10**(k+1)``), ``"%.17g"`` writes ``N = round(V)``, ``V = |x| * 10**(16
- k)``, rounded half to even; ``N = 10**17`` carries to ``10**16`` at
exponent ``k + 1``.  It then drops trailing zeros and writes fixed notation
for ``-4 <= k < 17`` and exponent notation otherwise.  Here ``V`` is formed
as a double-double ``hi + lo``:

- ``|x| = m * 2**e`` with ``m`` in [1/2, 1) (``frexp``, exact also for
  subnormals);
- ``10**p = (H + L) * 2**s`` for ``p`` in [-292, 340], ``H`` in [1, 2],
  from 128-bit roundings built with Python integers;
- Dekker's exact product ``m * H = P + err`` (Veltkamp splitting; Dekker,
  Numer. Math. 18, 1971), then ``hi = P * 2**(e+s)``, an integer, and
  ``lo = (err + m * L) * 2**(e+s)``.

**Error bound.**  In units of ``2**(e+s)``, ``hi + lo`` differs from ``V``
by three errors: the table's, ``m |H + L - 10**p 2**-s| < 2**-106``
(``10**p`` rounded to 128 bits, the rest after ``H`` to 53); rounding ``m * L``,
below ``2**-53``, at most ``2**-107``; and rounding ``err + m * L``, below
``2**-52``, at most ``2**-106``.  With ``Q = m (H + L) >= 1/2``, ``2**(e+s)
= V / Q <= 2 V < 2**58`` for ``V < 10**17``, so ``hi + lo`` is within
``5 * 2**-107 * 2**58 < 1e-14`` of ``V``.  ``k`` starts as ``floor(log10|x|)``
and moves by one where ``hi + lo`` lies outside [10**16, 10**17).  Where
``V`` is within the bound of either end, both exponents give the same
text: from below, ``10 V`` rounds to ``10**17`` and carries.

**Fallback.**  ``N = hi + rint(lo)`` is the right rounding unless the
fraction of ``lo`` lies within :data:`TOL` (``1e-9``, 10**5 times the
bound) of one half, as it does at a true tie.  Those values, NaN and
``+-inf`` are written by ``"%.17g" % x`` into their fields instead.

**Layout.**  Bytes 0-6 of a field hold the sign and a ``0.000`` prefix
(fixed notation below 1), bytes 6-23 the digits with the point, and bytes
24-28 the exponent suffix.  The digits are ASCII words from a 4-digit
table; the integer digits are the word shifted one byte down, the fraction
digits the word in place, each masked per (notation, ``k``, digit count)
layout, with the point between them.
"""

import numpy as np

FIELD = 32  # bytes per g17 field: 24 for sign, prefix and digits, 8 for the exponent
TOL = 1e-9  # the fallback band around one half; the rounding error is below 1e-14

_K_MIN, _K_MAX = -324, 308  # decimal exponents of nonzero finite float64
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_U8, _U56, _U63 = (np.uint64(b) for b in (8, 56, 63))


def _power_table():
    """Columns ``(H, L, H_hi, H_lo)`` and exponents ``s`` with ``10**(16 - k)
    = (H + L) * 2**s`` for ``k`` from :data:`_K_MIN`; ``H_hi + H_lo = H`` is
    Veltkamp's split of ``H`` into two 26-bit halves."""
    rows = {}
    five = 1  # 5**q
    for q in range(16 - _K_MIN + 1):
        bits = five.bit_length()
        # t in [2**127, 2**128] with 10**p = t * 2**shift, rounded to nearest.
        if bits <= 128:
            rows[q] = five << (128 - bits), q + bits - 128
        else:
            rows[q] = (five + (1 << (bits - 129))) >> (bits - 128), q + bits - 128
        if 0 < q <= _K_MAX - 16:
            rows[-q] = ((1 << (bits + 128)) // five + 1) >> 1, -q - bits - 127
        five *= 5
    columns, scale = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        t, shift = rows[16 - k]
        head = float(t)
        h = head * 2.0**-127
        split = h * _SPLIT
        h_hi = split - (split - h)
        columns.append((h, float(t - int(head)) * 2.0**-127, h_hi, h - h_hi))
        scale.append(shift + 127)
    return np.array(columns).T.copy(), np.array(scale, dtype=np.int32)


def _digit_tables():
    """``(digits, trailing)``.  ``digits`` holds each ``g < 10**4`` as four
    ASCII digits in a word read little-endian; then each ``g < 1000`` with
    its leading zeros as NUL, once writing 0 as nothing (:func:`d`'s leading
    group) and once as ``0`` (its last group).  ``trailing`` holds each
    ``g``'s count of trailing zero digits (4 for 0)."""
    digits = bytearray(4 * 12000)
    for place in range(4):
        run = 10 ** (3 - place)  # each digit repeats this often
        digits[place:40000:4] = b"".join(bytes([48 + i]) * run for i in range(10)) * (1000 // run)
    for start in (40000, 44000):
        digits[start:start + 4000] = digits[:4000]
        for place, below in enumerate((1000, 100, 10)):
            digits[start + place:start + 4 * below:4] = bytes(below)
    digits[40003] = 0
    trailing = bytearray(10**4)
    for count, step in enumerate((10, 100, 1000), start=1):
        trailing[::step] = bytes([count]) * (10**4 // step)
    trailing[0] = 4
    return np.frombuffer(digits, dtype="<u4"), np.frombuffer(trailing, dtype=np.uint8)


def _layout_table():
    """The words ``KEEP_SHIFTED``, ``KEEP`` and ``ADD`` of each layout: a
    field is ``(words >> 8 & KEEP_SHIFTED) | (words & KEEP) | ADD``.

    ``words`` holds the sign at byte 0, the 17 digits at bytes 7-23 and the
    exponent suffix at bytes 24-31; shifted down a byte, digit ``j`` is at
    byte ``6 + j``.  Layout ``17 c + n - 1`` writes ``n`` significant digits
    in fixed notation with ``k = c - 4`` for ``c <= 20``, and in exponent
    notation for ``c = 21``: its integer digits from the shifted words, its
    point, then its fraction digits from the words in place.  The last
    layout writes a zero.
    """
    keep_shifted, keep, add = bytearray(), bytearray(), bytearray()
    for c in range(22):
        k = c - 4
        lead = max(k + 1, 0) if c < 21 else 1  # digits before the point
        shifted = bytes(6) + b"\xff" * lead + bytes(26 - lead)
        # Bytes 0-5: 0.000 below 1 (the digits from byte 7), else nothing.
        prefix = b"\0" + b"0." + b"0" * (-k - 1) + bytes(4 + k) if lead == 0 else bytes(6)
        for n in range(1, 18):
            keep_shifted += shifted
            shown = max(n - lead, 0)  # fraction digits
            keep += b"\xff" + bytes(6 + lead) + b"\xff" * shown + bytes(17 - lead - shown) + b"\xff" * 8
            point = b"." if shown and lead else b""
            add += prefix + bytes(lead) + point + bytes(26 - lead - len(point))
    keep_shifted += bytes(32)
    keep += b"\xff" + bytes(23) + b"\xff" * 8
    add += bytes(7) + b"0" + bytes(24)
    return tuple(np.frombuffer(table, dtype="<u8").reshape(-1, 4)
                 for table in (keep_shifted, keep, add))


_POWERS, _SCALE = _power_table()
_DIGITS, _TRAILING = _digit_tables()
_KEEP_SHIFTED, _KEEP, _ADD = _layout_table()
_ZERO = len(_ADD) - 1
# Per k: the exponent suffix, and the layout of 17 digits (less one per
# trailing zero).
_SUFFIX = np.frombuffer(b"".join(bytes(8) if -4 <= k <= 16 else (b"e%+03d" % k).ljust(8, b"\0")
                                 for k in range(_K_MIN, _K_MAX + 1)), dtype="<u8")
_CLASS = np.array([17 * (k + 4 if -4 <= k <= 16 else 21) + 16
                   for k in range(_K_MIN, _K_MAX + 1)], dtype=np.intp)


def _scaled(m, e, row):
    """``(hi, lo)``: ``m * 2**e * 10**(16 - k)`` as a double-double, with
    ``row = k - _K_MIN``."""
    h, l, h_hi, h_lo = _POWERS
    p = h.take(row)
    p *= m
    m_hi = m * _SPLIT
    m_hi -= m_hi - m
    m_lo = m - m_hi
    # Dekker's ((m_hi h_hi - p) + m_hi h_lo + m_lo h_hi) + m_lo h_lo, in order.
    err = h_hi.take(row)
    m_lo_h_hi = err * m_lo
    err *= m_hi
    err -= p
    m_hi *= h_lo.take(row)
    err += m_hi
    err += m_lo_h_hi
    m_lo *= h_lo.take(row)
    err += m_lo
    lo = l.take(row)
    lo *= m
    lo += err
    scale = _SCALE.take(row)
    scale += e
    return np.ldexp(p, scale, out=p), np.ldexp(lo, scale, out=lo)


def _round(x):
    """``(row, n, fallback)``: each value's decimal exponent as ``row = k -
    _K_MIN`` and its 17 digits ``n`` (those of 1 for zeros, NaN and
    ``+-inf``), and the indices of the values :func:`g17` writes with ``%``."""
    ax = np.abs(x)
    finite = ax < np.inf
    ax[~(finite & (ax > 0.0))] = 1.0
    m, e = np.frexp(ax)
    # log10 of the smallest subnormal is -323.3, so the difference is
    # positive and astype floors it: row = k - _K_MIN, or one off near a
    # power of ten.
    row = np.log10(ax, out=ax)
    row -= _K_MIN
    row = row.astype(np.intp)
    hi, lo = _scaled(m, e, row)
    # hi - 10**16 is exact where it is small, so each sum has the sign of
    # V - 10**16 (V - 10**17) wherever that exceeds the error bound.
    below = (hi - 1e16) + lo < 0.0
    moved = (below | ((hi - 1e17) + lo >= 0.0)).nonzero()[0]
    if len(moved):
        row[moved] += np.where(below[moved], -1, 1)
        hi[moved], lo[moved] = _scaled(m[moved], e[moved], row[moved])
    n = hi.astype(np.int64)
    rounded = np.rint(lo, out=hi)
    n += rounded.astype(np.int64)
    lo -= rounded
    fallback = ((np.abs(lo, out=lo) >= 0.5 - TOL) | ~finite).nonzero()[0]
    carry = (n == 10**17).nonzero()[0]
    n[carry] = 10**16
    row[carry] += 1
    return row, n, fallback


def _words(x, row, n):
    """``(words, layout)``: each field's four words before its layout (the
    sign at byte 0 and the lead digit at byte 7, the other 16 digits, the
    exponent suffix), and the row of its layout in the layout tables."""
    lead = n // 10**16
    n -= lead * 10**16
    groups = np.empty((4, len(x)), dtype=np.intp)
    high, low = groups[1], n
    np.floor_divide(n, 10**8, out=high)
    low -= high * 10**8
    for i, part in ((0, high), (2, low)):
        np.floor_divide(part, 10**4, out=groups[i])
        np.subtract(part, groups[i] * 10**4, out=groups[i + 1])
    trailing = _TRAILING.take(groups[3])
    zeros = (groups[3] == 0).nonzero()[0]
    for i in (2, 1, 0):
        if not len(zeros):
            break
        group = groups[i, zeros]
        trailing[zeros] += _TRAILING.take(group)
        zeros = zeros[group == 0]
    layout = _CLASS.take(row)
    layout -= trailing
    layout[x == 0.0] = _ZERO

    words = np.empty((len(x), 4), dtype="<u8")
    lead += 48
    words[:, 0] = lead.view(np.uint64) << _U56
    words[:, 0] |= (x.view(np.uint64) >> _U63) * np.uint64(ord("-"))
    words.view("<u4")[:, 2:6] = _DIGITS.take(groups).T
    words[:, 3] = _SUFFIX.take(row)
    return words, layout


def g17(x) -> np.ndarray:
    """``"%.17g" % v`` for each float64 ``v`` of ``x``: a ``(len(x),
    FIELD)`` uint8 array of NUL-padded fields."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    row, n, fallback = _round(x)
    words, layout = _words(x, row, n)
    del row, n  # each del keeps the chunk's peak memory down
    # Each layout keeps the integer digits from the words shifted down a
    # byte (digit j at byte 6 + j), the rest from the words in place, and
    # adds its point or 0.000 prefix.  The flat shift carries each word's
    # low byte into the word before; what lands at byte 23 or in a field's
    # last word is never kept.
    out = words >> _U8
    out.reshape(-1)[:-1] |= words.reshape(-1)[1:] << _U56
    out &= _KEEP_SHIFTED.take(layout, axis=0)
    words &= _KEEP.take(layout, axis=0)
    out |= words
    del words
    out |= _ADD.take(layout, axis=0)
    fields = out.view(np.uint8)
    for i in fallback.tolist():
        text = b"%.17g" % x[i]
        fields[i] = 0
        fields[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return fields


def d(v) -> np.ndarray:
    """``"%d" % n`` for each ``n`` of the int64 array ``v``, ``0 <= n <
    10**16``: a ``(len(v), 4 * groups)`` uint8 array of NUL-padded fields,
    with as many 4-digit groups as the largest ``n`` needs."""
    v = np.asarray(v, dtype=np.int64)
    top = int(v.max()) if len(v) else 0
    count = 1 + (top >= 10**4) + (top >= 10**8) + (top >= 10**12)
    out = np.empty((len(v), count), dtype="<u4")
    # A group after a nonzero group, or from 1000 up, is written whole;
    # the others from the words that drop leading zeros, the last group's
    # writing 0 as 0.
    before = np.zeros(len(v), dtype=bool)
    for i in range(count):
        group = v // 10 ** (4 * (count - 1 - i))
        group -= group // 10**4 * 10**4
        dropped = group + (11000 if i == count - 1 else 10000)
        out[:, i] = _DIGITS.take(np.where(before | (group >= 1000), group, dropped))
        before |= group != 0
    return out.view(np.uint8)
