"""Bit-packed kernels for the stabilizer tableau.

Layout ("qubit-major packed words"):

* ``xs``, ``zs``: ``(n, W)`` uint64, C-contiguous.  ``xs[q]`` packs the X bits
  of qubit-column ``q`` across all 2n tableau rows; destabilizer ``i`` lives
  at row-bit ``2i`` and stabilizer ``i`` at row-bit ``2i + 1`` so the two
  halves of the tableau interleave within the same words.
* ``rs``: ``(W,)`` uint64 of packed sign bits, same row-bit convention.
* ``lo``, ``hi``: ``(2n,)`` int32 per-row column windows, a conservative
  superset of each row's support.  They keep row extraction and rowsum
  passes local for lattice-protocol states while remaining correct (just
  slower) for dense adversarial states.

Each kernel expresses its update as vectorized numpy word operations.  The
tableau reaches them through :func:`active_lane`, so a caller can swap in a
substitute object exposing the same static methods (e.g. to time each call).
"""

from __future__ import annotations

import numpy as np

_U1 = np.uint64(1)
ODD_MASK = np.uint64(0xAAAAAAAAAAAAAAAA)  # stabilizer row-bits
EVEN_MASK = np.uint64(0x5555555555555555)  # destabilizer row-bits

# Phase table for the site-wise Pauli product A*B in the (x, z) bit encoding
# where (1,1) means Y: A*B = i^g * C with g below (g is always 0, 1, or 3).
_G4 = np.zeros(16, np.int64)
for _xa in range(2):
    for _za in range(2):
        for _xb in range(2):
            for _zb in range(2):
                _g = (_xa * _za + _xb * _zb + 2 * _za * _xb
                      - (_xa ^ _xb) * (_za ^ _zb)) % 4
                _G4[_xa * 8 + _za * 4 + _xb * 2 + _zb] = _g


def bits_of(words: np.ndarray) -> np.ndarray:
    """Ascending indices of set bits in a packed uint64 vector."""
    nz = np.flatnonzero(words)
    if nz.size == 0:
        return np.empty(0, np.int64)
    out = []
    for w in nz:
        base = int(w) << 6
        word = int(words[w])
        while word:
            lsb = word & -word
            out.append(base + lsb.bit_length() - 1)
            word ^= lsb
    return np.array(out, np.int64)


def popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _np_gate_h(xs, zs, rs, q):
    rs ^= xs[q] & zs[q]
    tmp = xs[q].copy()
    xs[q] = zs[q]
    zs[q] = tmp


def _np_gate_s(xs, zs, rs, q):
    rs ^= xs[q] & zs[q]
    zs[q] ^= xs[q]


def _np_gate_sdg(xs, zs, rs, q):
    rs ^= xs[q] & ~zs[q]
    zs[q] ^= xs[q]


def _np_gate_x(xs, zs, rs, q):
    rs ^= zs[q]


def _np_gate_y(xs, zs, rs, q):
    rs ^= xs[q] ^ zs[q]


def _np_gate_z(xs, zs, rs, q):
    rs ^= xs[q]


def _np_extend_ranges(lo, hi, rows, col):
    if rows.size:
        np.minimum.at(lo, rows, col)
        np.maximum.at(hi, rows, col + 1)


def _np_gate_cz(xs, zs, rs, lo, hi, a, b):
    rs ^= xs[a] & xs[b] & (zs[a] ^ zs[b])
    zs[a] ^= xs[b]
    zs[b] ^= xs[a]
    _np_extend_ranges(lo, hi, bits_of(xs[a]), b)
    _np_extend_ranges(lo, hi, bits_of(xs[b]), a)


def _np_gate_cnot(xs, zs, rs, lo, hi, a, b):
    rs ^= xs[a] & zs[b] & ~(xs[b] ^ zs[a])
    xs[b] ^= xs[a]
    zs[a] ^= zs[b]
    _np_extend_ranges(lo, hi, bits_of(xs[a]), b)
    _np_extend_ranges(lo, hi, bits_of(zs[b]), a)


def _np_measure_x_random(xs, zs, rs, lo, hi, q, p, coin):
    """Anticommuting-row replacement for an X_q measurement (AG case 1).

    ``p`` is the chosen anticommuting stabilizer row-bit; ``coin`` the sign
    bit of the fresh generator.  Every other row with an anticommute bit is
    multiplied by row p with exact mod-4 phase bookkeeping.
    """
    wp, bp = p >> 6, np.uint64(p & 63)
    d = p - 1  # paired destabilizer, same word
    bd = np.uint64(d & 63)
    M = zs[q].copy()
    M[wp] &= ~(_U1 << bp)
    r_p = int((rs[wp] >> bp) & _U1)
    lop, hip = int(lo[p]), int(hi[p])
    lod, hid = int(lo[d]), int(hi[d])

    accl = np.zeros_like(M)
    acch = np.zeros_like(M)
    for c in range(lop, hip):
        xp = int((xs[c, wp] >> bp) & _U1)
        zp = int((zs[c, wp] >> bp) & _U1)
        if not (xp or zp):
            continue
        xb, zb = xs[c], zs[c]
        if xp and zp:
            gl, gh = xb ^ zb, xb & ~zb
        elif xp:
            gl, gh = zb, zb & ~xb
        else:
            gl, gh = xb, xb & zb
        gl = gl & M
        gh = gh & M
        carry = accl & gl
        accl ^= gl
        acch ^= gh ^ carry
        if xp:
            xs[c] = xb ^ M
        if zp:
            zs[c] = zb ^ M

    flips = acch & M
    if r_p:
        flips = flips ^ M
    rs ^= flips

    rows = bits_of(M)
    if rows.size:
        np.minimum.at(lo, rows, lop)
        np.maximum.at(hi, rows, hip)

    # Row d := row p, row p := fresh X_q with sign `coin`.
    keep = ~((_U1 << bp) | (_U1 << bd))
    for c in range(min(lop, lod), max(hip, hid)):
        wx = xs[c, wp]
        xs[c, wp] = (wx & keep) | (((wx >> bp) & _U1) << bd)
        wz = zs[c, wp]
        zs[c, wp] = (wz & keep) | (((wz >> bp) & _U1) << bd)
    xs[q, wp] |= _U1 << bp
    rw = rs[wp] & keep
    rw |= np.uint64(r_p) << bd
    rw |= np.uint64(coin) << bp
    rs[wp] = rw
    lo[d], hi[d] = lop, hip
    lo[p], hi[p] = q, q + 1


def _np_group_sign(xs, zs, rs, lo, hi, rows):
    """Exponent (mod 4) and packed bits of the ordered product of rows."""
    n = xs.shape[0]
    wq = (n + 63) >> 6
    ax = np.zeros(wq, np.uint64)
    az = np.zeros(wq, np.uint64)
    exp = 0
    for b in rows:
        wb, bb = b >> 6, np.uint64(b & 63)
        exp += 2 * int((rs[wb] >> bb) & _U1)
        for c in range(int(lo[b]), int(hi[b])):
            xb = int((xs[c, wb] >> bb) & _U1)
            zb = int((zs[c, wb] >> bb) & _U1)
            if not (xb or zb):
                continue
            wc, bc = c >> 6, np.uint64(c & 63)
            xa = int((ax[wc] >> bc) & _U1)
            za = int((az[wc] >> bc) & _U1)
            exp += int(_G4[xa * 8 + za * 4 + xb * 2 + zb])
            ax[wc] ^= np.uint64(xb) << bc
            az[wc] ^= np.uint64(zb) << bc
    return exp & 3, ax, az


def _np_clean_column(xs, zs, rs, q, p):
    """Multiply stabilizer rows sharing the generator's Pauli at q by row p."""
    wp, bp = p >> 6, np.uint64(p & 63)
    xp = int((xs[q, wp] >> bp) & _U1)
    zp = int((zs[q, wp] >> bp) & _U1)
    M = (xs[q] | zs[q]) & ODD_MASK
    M[wp] &= ~(_U1 << bp)
    if xp:
        xs[q] ^= M
    if zp:
        zs[q] ^= M
    if (rs[wp] >> bp) & _U1:
        rs ^= M


def _np_extract_rows_transposed(xs, zs, rs, row_map, colmap, n_out, k):
    """Column-driven extraction: cost scales with total support, not windows.

    ``row_map[row_bit]`` is the output row index or -1; ``colmap[c]`` the
    output column or -1.  Windows come out tight.
    """
    n = xs.shape[0]
    wq = max(1, (n_out + 63) >> 6)
    xm = np.zeros((k, wq), np.uint64)
    zm = np.zeros((k, wq), np.uint64)
    sg = np.zeros(k, np.uint8)
    rlo = np.full(k, n_out, np.int32)
    rhi = np.zeros(k, np.int32)
    for b in bits_of(rs):
        orow = int(row_map[b])
        if orow >= 0:
            sg[orow] = 1
    for c in range(n):
        mc = int(colmap[c])
        if mc < 0:
            continue
        wc, bc = mc >> 6, np.uint64(mc & 63)
        for b in bits_of(xs[c] | zs[c]):
            orow = int(row_map[b])
            if orow < 0:
                continue
            wb, bb = b >> 6, np.uint64(b & 63)
            if (xs[c, wb] >> bb) & _U1:
                xm[orow, wc] |= _U1 << bc
            if (zs[c, wb] >> bb) & _U1:
                zm[orow, wc] |= _U1 << bc
            rlo[orow] = min(rlo[orow], mc)
            rhi[orow] = max(rhi[orow], mc + 1)
    for i in range(k):
        if rhi[i] == 0:
            rlo[i] = 0
    return xm, zm, sg, rlo, rhi


def _np_row_mult(xm, zm, sg, rlo, rhi, dst, src):
    """Row dst := row src * row dst with exact sign tracking."""
    l = min(rlo[dst], rlo[src])
    h = max(rhi[dst], rhi[src])
    wl, wh = l >> 6, ((h + 63) >> 6)
    xa, za = xm[src, wl:wh], zm[src, wl:wh]
    xb, zb = xm[dst, wl:wh], zm[dst, wl:wh]
    # Per-site phase g in {0,1,3}: low bit = anticommute, high bit marks g=3.
    gl = (xa & zb) ^ (za & xb)
    gh = ((xa & ~za & ~xb & zb) | (~xa & za & xb & zb) | (xa & za & xb & ~zb))
    exp = (popcount(gl) + 2 * popcount(gh)) & 3
    if exp & 1:
        raise AssertionError("row product of commuting rows has odd phase")
    xm[dst, wl:wh] = xb ^ xa
    zm[dst, wl:wh] = zb ^ za
    sg[dst] ^= sg[src] ^ (exp >> 1)
    rlo[dst], rhi[dst] = l, h


def _np_rref_x_block(xm, zm, sg, rlo, rhi):
    """Reduced row echelon form of the X block via sign-tracked row ops.

    Rows enter an active working set when the column sweep reaches their
    window and retire once it passes, so banded matrices reduce in
    O(n * bandwidth) row visits.  Returns (pivot_row_of_col, free_cols).
    """
    k, _ = xm.shape
    used = np.zeros(k, bool)
    pivrow = np.full(k, -1, np.int32)
    free_cols = []
    order = np.argsort(rlo, kind="stable")
    ptr = 0
    active: list[int] = []
    for col in range(k):
        while ptr < k and rlo[order[ptr]] <= col:
            active.append(int(order[ptr]))
            ptr += 1
        w, bit = col >> 6, np.uint64(1) << np.uint64(col & 63)
        alive = []
        piv = -1
        for r in active:
            if rhi[r] <= col:
                continue
            alive.append(r)
            if piv < 0 and not used[r] and rlo[r] <= col and (xm[r, w] & bit):
                piv = r
        active = alive
        if piv < 0:
            free_cols.append(col)
            continue
        used[piv] = True
        pivrow[col] = piv
        for r in active:
            if r != piv and rlo[r] <= col and (xm[r, w] & bit):
                _np_row_mult(xm, zm, sg, rlo, rhi, r, piv)
    return pivrow, np.array(free_cols, np.int32)


class _NumpyLane:
    name = "numpy"
    gate_h = staticmethod(_np_gate_h)
    gate_s = staticmethod(_np_gate_s)
    gate_sdg = staticmethod(_np_gate_sdg)
    gate_x = staticmethod(_np_gate_x)
    gate_y = staticmethod(_np_gate_y)
    gate_z = staticmethod(_np_gate_z)
    gate_cz = staticmethod(_np_gate_cz)
    gate_cnot = staticmethod(_np_gate_cnot)
    measure_x_random = staticmethod(_np_measure_x_random)
    group_sign = staticmethod(_np_group_sign)
    clean_column = staticmethod(_np_clean_column)
    extract_rows_transposed = staticmethod(_np_extract_rows_transposed)
    rref_x_block = staticmethod(_np_rref_x_block)


_ACTIVE = _NumpyLane()


def active_lane():
    return _ACTIVE
