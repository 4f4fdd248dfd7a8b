"""Row products of the stabilizer tableau and the RREF of the graph reduction.

Rows are bool arrays ``x`` and ``z`` with one column per qubit and signs
``r``, in the layout of ``sicluster.tableau``.  :func:`_rowsum` is the one
sign-tracked row product; measurement, restriction and the graph reduction
(``tableau.graph_from_stab_matrix``) all use it.  The reduction reaches its
RREF through :func:`active_lane`, so a caller can swap in a substitute
object exposing the same static methods (e.g. to time each call).
"""

from __future__ import annotations

import numpy as np


def _phase(ax, az, bx, bz):
    """Exponent of i picked up by the site-wise products a * b, summed over
    the last axis.  With Y = iXZ a letter is i^(xz) X^x Z^z, so a * b is
    i^(xa za + xb zb - xc zc) (-1)^(za xb) times the letter c = a ^ b."""
    return (np.count_nonzero(ax & az, axis=-1) + np.count_nonzero(bx & bz, axis=-1)
            - np.count_nonzero((ax ^ bx) & (az ^ bz), axis=-1)
            + 2 * np.count_nonzero(az & bx, axis=-1))


def _rowsum(x, z, r, rows, p):
    """Rows ``rows`` := row p times row (AG's rowsum, all rows at once).

    Signs are exact for rows that commute with row p; no sign of a
    destabilizer is ever read.  Returns the phase exponents of the products,
    which are even exactly for the commuting rows."""
    g = _phase(x[p], z[p], x[rows], z[rows])
    r[rows] = (g + 2 * (int(r[p]) + r[rows])) & 2 != 0
    x[rows] ^= x[p]
    z[rows] ^= z[p]
    return g


def _rref_x_block(x, z, r):
    """Reduced row echelon form of the X block via sign-tracked row products.

    The rows are commuting stabilizers, reduced in place.  Each pivot is the
    first unused row with the column; a column no other row has costs no
    product.  Returns (pivot_row_of_col, free_cols).
    """
    k = x.shape[1]
    used = np.zeros(x.shape[0], bool)
    pivrow = np.full(k, -1, np.int32)
    free_cols = []
    for col in range(k):
        hits = np.flatnonzero(x[:, col])
        cand = hits[~used[hits]]
        if not cand.size:
            free_cols.append(col)
            continue
        p = cand[0]
        used[p] = True
        pivrow[col] = p
        if hits.size > 1 and np.any(_rowsum(x, z, r, hits[hits != p], p) & 1):
            raise AssertionError("row product of commuting rows has odd phase")
    return pivrow, np.array(free_cols, np.int32)


class _NumpyLane:
    name = "numpy"
    rref_x_block = staticmethod(_rref_x_block)


_ACTIVE = _NumpyLane()


def active_lane():
    return _ACTIVE
