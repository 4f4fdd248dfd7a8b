"""Kernels of the packed graph reduction (``tableau.graph_from_stab_matrix``).

``xm``, ``zm`` are ``(k, W)`` uint64 arrays, one row per stabilizer generator,
with column ``c`` at bit ``c & 63`` of word ``c >> 6``; ``sg`` holds the sign
bits and ``rlo``, ``rhi`` each row's column window, a superset of its
support.  The windows keep the elimination of banded (lattice) matrices at
O(k * bandwidth) row visits.  The reduction reaches its kernel through
:func:`active_lane`, so a caller can swap in a substitute object exposing
the same static methods (e.g. to time each call).
"""

from __future__ import annotations

import numpy as np


def popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


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
    rref_x_block = staticmethod(_np_rref_x_block)


_ACTIVE = _NumpyLane()


def active_lane():
    return _ACTIVE
