"""Python's float repr for whole float64 arrays: the trajectory dump's formatter.

`repr_join(values)` returns ",".join(map(repr, values.tolist())) byte for byte,
vectorized over numpy arrays (rows of a 2-D array joined by newlines). Only
`artifacts.write_trajectories` uses it, and imports this module on first use:
a process that writes no dump never compiles or loads it.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# Ryu's d2d (U. Adams, "Ryu: fast float-to-string conversion", PLDI 2018) over
# uint64 arrays. For a double m2 * 2**e2 with e2 < 0, Ryu scales the value and
# its rounding interval by C = 5**i / 2**q (i = -e2 - q, q = floor(-e2 log10 5)
# - 1, so 10 <= C < 100): vr, vp, vm = floor((4 m2 + {0, 2, -1 - s}) * C). The
# shortest digits are vr with k digits removed, k the most that keep vp and vm
# apart, rounded up when the removed part is past half, or reaches vm. Here C is
# ip + f / 2**124, truncated on a finer grid than Ryu's table (2**-118 to
# 2**-121), so the floors are Ryu's; the products come from 31-bit limbs. An
# exact vr (Ryu's trailing-zero branch, e.g. 0.5) breaks a tie to even. Zeros,
# nan and inf print fixed strings, and |x| >= 2**50 (Ryu's q <= 1 and e2 >= 0
# branches) goes through repr.

_U64 = np.uint64
_LOW31 = _U64((1 << 31) - 1)
_HIDDEN = _U64(1 << 52)
_SIGN_BIT = _U64(1 << 63)
_MANTISSA = _U64((1 << 52) - 1)
_EXP_MASK = _U64(0x7FF)
_MAX_EXPONENT = 1072  # largest biased exponent of the vectorized path
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_HALF_POW10 = np.array([0] + [5 * 10**k for k in range(19)], dtype=np.uint64)
# uint64 operands made once: a Python int operand costs a conversion on every call
_K = {k: _U64(k) for k in (0, 1, 2, 10, 17, 30, 31, 48, 52, 62, 100, 1000, _MAX_EXPONENT,
                          10**4, 10**8, 10**16, 10**17, 10**18)}
# A value's text is laid out in a 48-byte slot, then the kept bytes are
# gathered: integer digits right-aligned in [7, 23), the point at 23, fraction
# digits in [24, 41), an exponent or special text from 41. The separator, sign
# and "0." of |x| < 1 are written just before the first digit, so a value is one
# run of the slot (two with an exponent). Layout rows are decpt + _BIAS (decpt:
# the point's position, value = 0.d1d2... * 10**decpt) and four special rows.
_SLOT = 48
_DOT, _FRAC, _TEXT, _SPARE = 23, 24, 41, 47
_BIAS = 400
_NAN, _INF, _REPR, _ZERO = 800, 801, 802, 803
_N_DIGITS = 20  # rows per form in the keep table


def _floor_log10_pow5(x: int) -> int:
    q = x * 699 // 1000
    while 10 ** (q + 1) <= 5**x:
        q += 1
    while 10**q > 5**x:
        q -= 1
    return q


@cache
def _tables() -> dict[str, np.ndarray]:
    """Multipliers per biased exponent, digit and layout tables; built on first use."""
    n = _MAX_EXPONENT + 1
    t = {name: np.empty(n, dtype=np.uint64) for name in
         ("f0", "f1", "f2", "f3", "ip", "g_hi", "g_lo", "tz")}
    t["row"] = np.empty(n, dtype=np.int64)
    low62, low124 = (1 << 62) - 1, (1 << 124) - 1
    for eb in range(n):
        x = 1076 if eb == 0 else 1077 - eb  # -e2
        q = _floor_log10_pow5(x) - 1
        scaled = (5 ** (x - q) << 124) >> q
        ip, f = scaled >> 124, scaled & low124
        g = (2 * f) & low124
        for limb in range(4):
            t[f"f{limb}"][eb] = (f >> (31 * limb)) & 0x7FFFFFFF
        t["ip"][eb] = ip
        t["g_hi"][eb], t["g_lo"][eb] = g >> 62, g & low62
        t["tz"][eb] = (1 << (q - 2)) - 1 if q - 2 <= 53 else 2**64 - 1  # vr exact iff m2 & tz == 0
        t["row"][eb] = q - x + _BIAS
    g = np.arange(10000, dtype=np.uint32)  # four ASCII digits a word, first in the low byte
    t["digits4"] = sum(((g // 10**j % 10 + 48) << 8 * (3 - j)) for j in range(4))

    # per layout row: keep-table form, integer digits a, first unsigned byte,
    # where the point and the extra zero go, and the exponent or special text
    rows = _ZERO + 1
    form, first = np.empty(rows, dtype=np.int64), np.empty(rows, dtype=np.int64)
    int_digits = np.ones(rows, dtype=np.int64)
    dot = np.full(rows, _DOT, dtype=np.int64)
    zero_at = np.full(rows, _SPARE, dtype=np.int64)
    text = np.zeros((rows, 8), dtype=np.uint8)
    for row in range(_NAN):
        decpt = row - _BIAS
        if -4 < decpt <= 16:  # repr's fixed notation
            form[row] = decpt + 3
            int_digits[row] = max(decpt, 0)
            first[row] = _DOT - max(decpt, 1)
            if decpt < 0:  # "0.", then -decpt zeros; the last zero takes the point's byte
                first[row] = _DOT - 1 + decpt
                dot[row] = _DOT + decpt
                zero_at[row] = _DOT
        else:
            exponent = f"e{decpt - 1:+03d}".encode()
            form[row] = 20 + (len(exponent) == 5)
            first[row] = _DOT - 1
            text[row, :len(exponent)] = list(exponent)
    for row, word in ((_NAN, b"nan"), (_INF, b"inf"), (_REPR, b"?"), (_ZERO, b"0.0")):
        form[row] = 22 if len(word) == 3 else 23
        first[row] = _TEXT
        text[row, :len(word)] = list(word)
    t.update(form=form, int_digits=int_digits, first=first, dot=dot, zero_at=zero_at,
             text=text.view(np.uint64).ravel())

    # kept bytes per (form, digits n, sign): separator, sign, digits, point, exponent
    keep = np.zeros((24, _N_DIGITS, 2, _SLOT), dtype=bool)
    for f in range(24):
        for nd in range(_N_DIGITS):
            for neg in range(2):
                row = keep[f, nd, neg]
                if f < 20:
                    decpt = f - 3
                    end = _FRAC + (max(nd - decpt, 1) if decpt > 0 else nd)
                    row[first[decpt + _BIAS] - 1 - neg:end] = True
                elif f < 22:
                    row[_DOT - 2 - neg:_DOT + (nd > 1)] = True
                    row[_FRAC:_FRAC + max(nd - 1, 0)] = True
                    row[_TEXT:_TEXT + f - 16] = True
                else:
                    row[_TEXT - 1 - neg:_TEXT + (3 if f == 22 else 1)] = True
    t["keep"] = keep.reshape(-1, _SLOT)
    return t


class ReprWork:
    """Working arrays of `repr_join` for up to `size` values, reused across calls."""

    def __init__(self, size: int):
        self.size = size
        self.words = np.empty((8, size), dtype=np.uint64)
        self.flags = np.empty((4, size), dtype=bool)
        self.slots = np.empty((size, _SLOT), dtype=np.uint8)
        self.keep = np.empty((size, _SLOT), dtype=bool)
        self.offsets = np.arange(0, size * _SLOT, _SLOT, dtype=np.int64)


def repr_join(values: np.ndarray, work: ReprWork | None = None) -> str:
    """",".join(map(repr, values.tolist())) for a 1-D float64 array, byte for byte.

    The rows of a 2-D array are joined the same way and separated by newlines.
    `work` holds the working arrays, reused when it is large enough.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = values.size
    if n == 0:
        return ""
    if work is None or work.size < n:
        work = ReprWork(n)
    t, c = _tables(), _K
    w0, w1, w2, w3, w4, w5, w6, w7 = work.words[:, :n]
    neg, pow2, b1, b2 = work.flags[:, :n]
    slots, keep = work.slots[:n], work.keep[:n]
    # the slot and keep buffers hold intermediate words until the layout and keep stages
    s0, s1, s2 = (slots.reshape(-1).view(np.uint64)[j * n:(j + 1) * n] for j in range(3))
    k0, k1, k2, k3 = (keep.reshape(-1).view(np.uint64)[j * n:(j + 1) * n] for j in range(4))
    bits = values.reshape(-1).view(np.uint64)

    # decode m2 * 2**e2, e2 = max(eb, 1) - 1077. Zeros, subnormals, nan, inf and
    # |x| >= 2**50 are rare: found once, they are handled as index sets.
    eb, m2, ix, tmp = w0, w1, k0, w7
    np.greater_equal(bits, _SIGN_BIT, out=neg)
    np.right_shift(bits, c[52], out=eb)
    np.bitwise_and(eb, _EXP_MASK, out=eb)
    np.bitwise_and(bits, _MANTISSA, out=m2)
    np.equal(m2, c[0], out=pow2)                      # a power of two, if normal
    np.bitwise_or(m2, _HIDDEN, out=m2)
    np.minimum(eb, c[_MAX_EXPONENT], out=ix)
    i = ix.view(np.intp)
    np.subtract(eb, c[1], out=tmp)                    # eb = 0 wraps around
    np.greater_equal(tmp, c[_MAX_EXPONENT], out=b1)
    rare = np.flatnonzero(b1)
    subnormal = fallback = nan = bad = rare
    special = {}
    if rare.size:
        e_rare, mant_rare = eb[rare], bits[rare] & _MANTISSA
        m2[rare] = np.where(e_rare == 0, mant_rare, m2[rare])  # no hidden bit below the normals
        subnormal = rare[(e_rare == 0) & (mant_rare != 0)]
        fallback = rare[(e_rare > _MAX_EXPONENT) & (e_rare < _EXP_MASK)]
        nan = rare[(e_rare == _EXP_MASK) & (mant_rare != 0)]
        special = {_ZERO: rare[(e_rare == 0) & (mant_rare == 0)], _NAN: nan,
                   _INF: rare[(e_rare == _EXP_MASK) & (mant_rare == 0)], _REPR: fallback}
        bad = np.concatenate(list(special.values()))  # no digits of their own
    powers = np.flatnonzero(pow2)                     # Ryu's mmShift s = 0: mm = mv - 1
    if powers.size:
        powers = powers[(eb[powers] > c[1]) & (eb[powers] <= c[_MAX_EXPONENT])]

    # mv * C = vr + y / 2**124: mv = hi 2**31 + lo, f in 31-bit limbs, so every column
    # sum is below 2**63; y in two 62-bit words (y_hi, y_lo)
    mv, hi, lo, f, p, col, y_lo, y_hi, low = w2, w3, w4, w5, w0, s0, s1, s2, w6
    np.left_shift(m2, c[2], out=mv)
    np.right_shift(mv, c[31], out=hi)
    np.bitwise_and(mv, _LOW31, out=lo)
    for limb in range(5):
        if limb:  # column limb - 1 is complete: keep its low 31 bits, carry the rest
            word = (y_lo, y_hi)[(limb - 1) // 2]
            if limb % 2:
                np.bitwise_and(col, _LOW31, out=word)
            else:
                np.bitwise_and(col, _LOW31, out=low)
                np.left_shift(low, c[31], out=low)
                np.bitwise_or(word, low, out=word)
            np.right_shift(col, c[31], out=tmp)
            np.add(tmp, p, out=tmp)
        if limb == 4:
            break
        t[f"f{limb}"].take(i, out=f, mode="clip")
        np.multiply(lo, f, out=col)
        if limb:
            np.add(col, tmp, out=col)
        np.multiply(hi, f, out=p)
    col = tmp                                         # the integer part of mv * f / 2**124
    vr, vp, vm, ip = k1, k2, k3, w6
    t["ip"].take(i, out=ip, mode="clip")
    np.multiply(mv, ip, out=vr)
    np.add(vr, col, out=vr)
    # 2 C = D + g / 2**124 with D = 2 ip + [f >= 2**123]: vp = vr + D + carry(y + g),
    # vm = vr - D - [y < g]
    np.right_shift(f, c[30], out=tmp)                 # f holds the top limb
    np.add(tmp, ip, out=tmp)
    np.add(tmp, ip, out=tmp)
    g_hi, g_lo = hi, lo
    t["g_hi"].take(i, out=g_hi, mode="clip")
    t["g_lo"].take(i, out=g_lo, mode="clip")
    np.less(y_lo, g_lo, out=b1)
    np.equal(y_hi, g_hi, out=b2)
    np.logical_and(b1, b2, out=b1)
    np.less(y_hi, g_hi, out=b2)
    np.logical_or(b1, b2, out=b1)
    np.subtract(vr, tmp, out=vm)
    np.subtract(vm, b1, out=vm)
    np.add(vr, tmp, out=vp)
    np.add(y_lo, g_lo, out=p)
    np.right_shift(p, c[62], out=p)
    np.add(p, y_hi, out=p)
    np.add(p, g_hi, out=p)
    np.right_shift(p, c[62], out=p)
    np.add(vp, p, out=vp)
    if powers.size:  # vm = vr - ip - [y < f]
        ia = i[powers]
        f_hi = (t["f3"][ia] << c[31]) | t["f2"][ia]
        f_lo = (t["f1"][ia] << c[31]) | t["f0"][ia]
        y_hi_a, y_lo_a = y_hi[powers], y_lo[powers]
        vm[powers] = vr[powers] - ip[powers] - ((y_hi_a < f_hi) | ((y_hi_a == f_hi) & (y_lo_a < f_lo)))

    # digits removed: k = 1 + [vp % 100 < d] + [vp % 1000 < d] (1 + tz10(vp // 1000)),
    # d = vp - vm (29 <= d <= 400): a multiple of 10**j is in (vm, vp] iff vp % 10**j < d
    d, z, r, k, tmp2 = w3, w4, w5, w0, w6
    np.subtract(vp, vm, out=d)
    np.floor_divide(vp, c[1000], out=z)
    np.multiply(z, c[1000], out=r)
    np.subtract(vp, r, out=r)
    np.less(r, d, out=b1)
    np.floor_divide(r, c[100], out=tmp)
    np.multiply(tmp, c[100], out=tmp)
    np.subtract(r, tmp, out=r)
    np.less(r, d, out=b2)
    np.add(b1, b2, out=k, dtype=np.uint64)
    np.add(k, c[1], out=k)
    np.floor_divide(z, c[10], out=tmp)
    np.multiply(tmp, c[10], out=tmp)
    np.equal(tmp, z, out=b2)
    np.logical_and(b1, b2, out=b2)
    if bad.size:
        b2[bad] = False
    deep = np.flatnonzero(b2)
    if deep.size:  # z < 10**16, so its trailing zeros number at most 15
        k[deep] += np.count_nonzero(z[deep, None] % _POW10[1:16] == 0, axis=1).astype(np.uint64)

    # round: up past half, at an exact half unless vr is exact and the digit even,
    # and when vr // 10**k falls at or below vm
    out, kx = w2, k.view(np.intp)
    _POW10.take(kx, out=tmp, mode="clip")
    np.floor_divide(vr, tmp, out=out)
    np.multiply(out, tmp, out=tmp)
    np.less_equal(tmp, vm, out=b1)
    np.subtract(vr, tmp, out=tmp)
    _HALF_POW10.take(kx, out=tmp2, mode="clip")
    np.greater(tmp, tmp2, out=b2)
    np.logical_or(b1, b2, out=b1)
    np.equal(tmp, tmp2, out=b2)
    tie = np.flatnonzero(b2)
    if tie.size:  # up unless vr is exact (m2 has q - 2 trailing zero bits) and the digit even
        inexact = (m2[tie] & t["tz"][i[tie]]) != 0
        b1[tie] |= inexact | (out[tie] & c[1]).astype(bool)
    np.add(out, b1, out=out)
    # digits: vr has 18 or 19 of them for normal values; rounding up 0 gives 1
    nd, row = k0, w1.view(np.int64)
    t["row"].take(i, out=row, mode="clip")
    np.add(row, k.view(np.int64), out=row)
    np.greater_equal(vr, c[10**17], out=b1)
    np.greater_equal(vr, c[10**18], out=b2)
    np.add(b1, b2, out=nd, dtype=np.uint64)
    np.add(nd, c[17], out=nd)
    np.subtract(nd, k, out=nd)
    np.maximum(nd, c[1], out=nd)
    if subnormal.size:
        nd[subnormal] = np.searchsorted(_POW10, out[subnormal], side="right")
    np.add(row, nd.view(np.int64), out=row)
    for special_row, at in special.items():
        row[at] = special_row
    if bad.size:
        neg[nan] = False
        neg[fallback] = False
    code = w0.view(np.int64)                          # k is spent
    t["form"].take(row, out=code, mode="clip")
    np.multiply(code, _N_DIGITS, out=code)
    np.add(code, nd.view(np.int64), out=code)
    np.add(code, code, out=code)
    np.add(code, neg, out=code)

    # the digits L = out * 10**(17 - nd): integer part A = L // 10**(17 - a) and
    # fraction B = (L % 10**(17 - a)) * 10**a, 16 and 17 digits wide
    np.subtract(c[17], nd, out=tmp)
    _POW10.take(tmp.view(np.intp), out=tmp, mode="clip")
    np.multiply(out, tmp, out=out)
    a, A, B = w5.view(np.int64), w3, w4
    t["int_digits"].take(row, out=a, mode="clip")
    np.subtract(17, a, out=tmp.view(np.int64))
    _POW10.take(tmp.view(np.intp), out=tmp, mode="clip")
    np.floor_divide(out, tmp, out=A)
    np.multiply(A, tmp, out=tmp)
    np.subtract(out, tmp, out=tmp)
    _POW10.take(a, out=B, mode="clip")
    np.multiply(tmp, B, out=B)
    np.floor_divide(B, c[10**16], out=tmp)            # B's first digit stands alone
    np.multiply(tmp, c[10**16], out=out)
    np.subtract(B, out, out=B)
    np.add(tmp, c[48], out=tmp)
    slots[:, _FRAC] = tmp
    keep_words = keep.reshape(-1)
    groups = keep_words.view(np.int64)[:4 * n].reshape(n, 4)
    chars = keep_words.view(np.uint32)[8 * n:12 * n].reshape(n, 4)
    for number, start in ((A, _FRAC - 17), (B, _FRAC + 1)):
        np.floor_divide(number, c[10**8], out=tmp)
        np.multiply(tmp, c[10**8], out=tmp2)
        np.subtract(number, tmp2, out=tmp2)
        g = groups.view(np.uint64)
        np.floor_divide(tmp, c[10**4], out=g[:, 0])
        np.multiply(g[:, 0], c[10**4], out=g[:, 1])
        np.subtract(tmp, g[:, 1], out=g[:, 1])
        np.floor_divide(tmp2, c[10**4], out=g[:, 2])
        np.multiply(g[:, 2], c[10**4], out=g[:, 3])
        np.subtract(tmp2, g[:, 3], out=g[:, 3])
        t["digits4"].take(groups, out=chars, mode="clip")
        slots[:, start:start + 16] = chars.view(np.uint8)
    t["text"].take(row, out=tmp, mode="clip")
    slots[:, _TEXT:_TEXT + 5] = tmp.view(np.uint8).reshape(n, 8)[:, :5]
    # the point, the zero on its byte, the sign and the separator
    flat, pos = slots.reshape(-1), tmp.view(np.int64)
    offsets = work.offsets[:n]
    for table, char in (("dot", "."), ("zero_at", "0"), ("first", "-")):
        t[table].take(row, out=pos, mode="clip")
        np.add(pos, offsets, out=pos)
        if char == "-":
            np.subtract(pos, 1, out=pos)
        flat[pos] = ord(char)
    np.subtract(pos, neg, out=pos)
    flat[pos] = ord(",")
    if values.ndim == 2:
        flat[pos[::values.shape[1]]] = ord("\n")
    t["keep"].take(code, axis=0, out=keep, mode="clip")
    text = str(memoryview(flat[keep.reshape(-1)])[1:], "ascii")
    if fallback.size:
        parts = text.split("?")
        reprs = map(repr, values.reshape(-1)[fallback].tolist())
        text = parts[0] + "".join(r + part for r, part in zip(reprs, parts[1:]))
    return text
