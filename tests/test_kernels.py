"""The sign-tracked RREF of the graph reduction against plain GF(2) elimination."""

import numpy as np
import pytest

import sicluster._kernels as kern
from sicluster.tableau import graph_from_stab_matrix


def gf2_rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a 0/1 matrix over GF(2).

    Returns (reduced, pivot_cols): ``reduced`` is a new uint8 matrix whose
    row i has its leading one in column pivot_cols[i]; rows past
    len(pivot_cols) are zero.  The form depends only on the row space.
    """
    a = np.asarray(a, np.uint8) % 2
    pivots: list[int] = []
    for c in range(a.shape[1]):
        top = len(pivots)
        if top == a.shape[0]:
            break
        hits = np.flatnonzero(a[top:, c])
        if not hits.size:
            continue
        a[[top, top + hits[0]]] = a[[top + hits[0], top]]
        others = a[:, c].astype(bool)
        others[top] = False
        a[others] ^= a[top]
        pivots.append(c)
    return a, pivots


@pytest.mark.parametrize("seed", range(20))
def test_rref_x_block_matches_gf2_rref(seed):
    # Banded random X blocks; the Z parts stay empty, so every row product
    # has a real phase.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 80))
    band = int(rng.integers(1, k + 1))
    cols = np.arange(k)
    x = (rng.random((k, k)) < 0.3) & (np.abs(cols[:, None] - cols[None, :]) < band)
    reduced, pivots = gf2_rref(x)
    pivrow, free_cols = kern.active_lane().rref_x_block(
        x, np.zeros_like(x), np.zeros(k, bool))
    assert [c for c in range(k) if pivrow[c] >= 0] == pivots
    assert list(free_cols) == sorted(set(range(k)) - set(pivots))
    assert np.array_equal(x[pivrow[pivots]], reduced[:len(pivots)])


def test_anticommuting_rows_raise():
    # X_0 and Y_0 anticommute: their product i Z_0 has an odd phase.
    x = np.array([[1, 0], [1, 0]], bool)
    z = np.array([[0, 0], [1, 0]], bool)
    with pytest.raises(AssertionError, match="odd phase"):
        kern.active_lane().rref_x_block(x, z, np.zeros(2, bool))


def test_non_symmetric_readout_raises():
    # X_0 Z_1 and X_1 are already reduced but anticommute, so the Z block
    # read off as an adjacency is not symmetric.
    x = np.eye(2, dtype=bool)
    z = np.array([[0, 1], [0, 0]], bool)
    with pytest.raises(AssertionError, match="symmetric"):
        graph_from_stab_matrix(x, z, np.zeros(2, bool))
