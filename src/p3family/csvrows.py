"""CSV rows of two float arrays, "%.12g,%.12g\n" each, formatted by numpy
to the bytes that Python's % operator gives.

`write_rows` takes BLOCK_ROWS rows at a time. `_format` writes each
number of a block as four words of NUL-padded ASCII, and one
bytes.translate drops the padding. The few numbers it leaves undecided
(NaN, infinities, and values within 2^-9 of a rounding tie at the 12th
digit) and blocks of fewer than SMALL_ROWS rows, where its fixed cost is
higher than that of %, are formatted by %.
"""

import functools

import numpy as np

__all__ = ["BLOCK_ROWS", "SMALL_ROWS", "write_rows"]

_ROW = "%.12g,%.12g\n"
BLOCK_ROWS = 2048  # rows formatted by one `_format` call
SMALL_ROWS = 128  # a block of fewer rows is one % call
_E_LO, _E_HI = -325, 308  # decimal exponents in the tables; zeros and NaN take _E_LO
_TIE = 0.5 - 2.0 ** -9  # a scaled number this close to a rounding tie is left to %
_WORD = np.dtype("<u8")


def _as_words(raw):
    """Rows of 8k bytes as rows of k little-endian 64-bit words."""
    return np.ascontiguousarray(raw, dtype=np.uint8).view(_WORD)


@functools.cache
def _tables():
    """The read-only tables of `_format`, built on its first call:
    digits  the 4 ASCII digits of g = 0..9999 in the low bytes of a word;
    trailing  the trailing zeros of g, 64 for g = 0;
    shift, scale  10^(11-e) = scale 2^shift, scale correctly rounded, and
    form, tail    the row of `forms` for e's notation and e's exponent
                  suffix ("e-05", "e+123"; 0 in fixed notation), for each
                  decimal exponent e in [_E_LO, _E_HI];
    forms   per notation (exponent form, or fixed with e = -4..11) and
            number of significant digits nd = 0..12 (0 for a zero) the
            words [lead mask x2, fraction mask x2, point x2, prefix]."""
    g = np.arange(10_000, dtype=np.uint16)
    raw = np.zeros((g.size, 8), np.uint8)
    trailing = np.zeros(g.size, np.uint8)
    for i, unit in enumerate((1000, 100, 10, 1)):
        raw[:, i] = 48 + g // unit % 10
        trailing += g % (10 * unit) == 0
    digits = _as_words(raw).ravel()
    trailing[0] = 64

    e = np.arange(_E_LO, _E_HI + 1)
    shift, scale = np.empty(e.size, np.int32), np.empty(e.size)
    for i, k in enumerate((11 - e).tolist()):
        p = 10 ** abs(k)  # exact, so p / 2^b rounds once
        b = p.bit_length()
        shift[i], scale[i] = (b, p / (1 << b)) if k >= 0 else (1 - b, (1 << (b - 1)) / p)
    fixed = (e >= -4) & (e <= 11)
    form = np.where(fixed, e + 5, 0) * 13
    raw = np.zeros((e.size, 8), np.uint8)
    raw[:, :5] = np.stack([0 * e + ord("e"), np.where(e < 0, ord("-"), ord("+")),
                           np.where(abs(e) >= 100, 48 + abs(e) // 100, 0),
                           48 + abs(e) // 10 % 10, 48 + abs(e) % 10], axis=1)
    raw[fixed | (e == _E_LO)] = 0
    tail = _as_words(raw).ravel()

    # form c: 0 exponent form, else fixed with e = c - 5; p digits go before the point
    c, nd = np.arange(17)[:, None, None], np.arange(13)[None, :, None]
    p = np.where(c == 0, 1, np.maximum(c - 4, 0))
    col = np.arange(16)
    lead = np.where(nd == 0, col < 1, col < p)
    frac = (col >= p) & (col < nd)
    point = (col == p) & (nd > p) & (p > 0)
    zeros_after_point = np.where((c >= 1) & (c <= 4), 4 - c, -1)  # "0.", "0.0", ...
    col = col[:8]
    prefix = np.select([col == 1, col == 2, (col >= 3) & (col < 3 + zeros_after_point)],
                       [ord("0"), ord("."), ord("0")], 0) * ((zeros_after_point >= 0) & (nd > 0))
    forms = _as_words(np.concatenate(
        [255 * lead, 255 * frac, ord(".") * point, prefix], axis=2).reshape(17 * 13, 56))
    tables = digits, trailing, shift, scale, form, tail, forms
    for t in tables:
        t.flags.writeable = False
    return tables


def _format(x, rows, laid):
    """Write "%.12g" % v of each number v of x into its row of `rows`: four
    words of NUL-padded ASCII, [sign, "0.0..." prefix | lead digits, point,
    fraction digits | exponent suffix], whose top byte is left 0 for a
    separator. `laid` is a work array of x.size x 7 words.
    Return the mask of the numbers whose row is wrong: NaN and infinities,
    and those whose scaled value lies within 2^-9 of a rounding tie.

    Each |v| is scaled by 10^(11-e), e = floor(log10 |v|), into
    [1e11, 1e12) with an error under 3 2^-14, rounded half to even to N, and
    written as three groups of 4 digits with the trailing zeros stripped,
    in fixed notation for e = -4..11 and in exponent form otherwise, as
    printf's %g does. log10 misjudges e only within a few ulps of a power
    of ten, which v then rounds to: N = 1e11 at the power's exponent."""
    digits, trailing, shift, scale, form, tail, forms = _tables()
    n = x.size
    ax = np.abs(x)
    e = np.floor(np.log10(ax))
    np.fmin(np.fmax(e, _E_LO, out=e), _E_HI, out=e)  # zeros and NaN: _E_LO
    ei = e.astype(np.intp) - _E_LO
    s = np.ldexp(ax, shift.take(ei, mode="clip")) * scale.take(ei, mode="clip")
    N = np.rint(s)
    wrong = ~(np.abs(s - N) < _TIE)
    high = N >= 1e12  # a carry, or log10 rounded down just above a power of ten
    if high.any():
        N[high] = 1e11
        ei[high] += 1
    t = np.floor(N / 1e4)
    g2 = (N - t * 1e4).astype(np.intp)
    g0 = np.floor(t / 1e4)
    g1 = (t - g0 * 1e4).astype(np.intp)
    g0 = g0.astype(np.intp)
    z = np.minimum(trailing.take(g1, mode="clip"), trailing.take(g0, mode="clip") + 4)
    z += 4
    np.minimum(z, trailing.take(g2, mode="clip"), out=z)
    np.minimum(z, 12, out=z)  # trailing zeros of N, 12 for a zero
    f = forms.take(form.take(ei, mode="clip") + (12 - z), axis=0, mode="clip", out=laid[:n])
    d0 = digits.take(g0, mode="clip") | (digits.take(g1, mode="clip") << np.uint64(32))
    d1 = digits.take(g2, mode="clip")
    r = rows[:n]
    np.bitwise_or(f[:, 6], np.signbit(x) * np.uint64(ord("-")), out=r[:, 0])
    f0, f1 = d0 & f[:, 2], d1 & f[:, 3]  # the fraction digits, one byte on for the point
    np.bitwise_and(d0, f[:, 0], out=r[:, 1])
    r[:, 1] |= f0 << np.uint64(8)
    r[:, 1] |= f[:, 4]
    np.bitwise_and(d1, f[:, 1], out=r[:, 2])
    r[:, 2] |= f1 << np.uint64(8)
    r[:, 2] |= f0 >> np.uint64(56)
    r[:, 2] |= f[:, 5]
    r[:, 3] = tail.take(ei, mode="clip")
    return wrong


def write_rows(out, points, values):
    """Write one "%.12g,%.12g" line per point and its value, from two
    sequences of numbers of one length, byte for byte as the % operator
    formats them, BLOCK_ROWS rows per `out.write` and never joined into one
    string: a sweep may have 10^6 points. In a block of SMALL_ROWS rows or
    more, the rows holding a number that `_format` leaves undecided are
    formatted by one % call over them. The work arrays are allocated once
    per call, at most a block in size, and reused."""
    points, values = np.asarray(points, dtype=float), np.asarray(values, dtype=float)
    size = 2 * min(points.size, BLOCK_ROWS)
    pairs = np.empty((size // 2, 2))
    rows, laid = np.empty((size, 4), _WORD), np.empty((size, 7), _WORD)
    seps = np.zeros((size, 8), np.uint8)
    seps[:, 7] = np.frombuffer(b",\n", np.uint8)[np.arange(size) % 2]
    seps = _as_words(seps).ravel()
    with np.errstate(all="ignore"):
        for i in range(0, points.size, BLOCK_ROWS):
            p, v = points[i:i + BLOCK_ROWS], values[i:i + BLOCK_ROWS]
            if p.size < SMALL_ROWS:
                out.write((_ROW * p.size) % tuple(np.column_stack((p, v)).ravel().tolist()))
                continue
            block = pairs[:p.size]
            block[:, 0], block[:, 1] = p, v
            wrong = _format(block.ravel(), rows, laid)
            rows[:2 * p.size, 3] |= seps[:2 * p.size]
            text = rows[:2 * p.size].view(np.uint8).reshape(p.size, 64)
            redo = np.flatnonzero(wrong[0::2] | wrong[1::2])
            if redo.size:
                lines = ((_ROW * redo.size) % tuple(block[redo].ravel().tolist())).encode()
                text[redo] = np.frombuffer(b"".join(
                    line.ljust(64, b"\0") for line in lines.splitlines(True)), np.uint8).reshape(-1, 64)
            out.write(text.tobytes().translate(None, b"\0").decode("ascii"))
