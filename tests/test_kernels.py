"""The windowed packed RREF of the graph reduction against plain GF(2) elimination."""

import numpy as np
import pytest

import sicluster._kernels as kern
from sicluster.statevec import gf2_rref


def _pack(bits):
    out = np.zeros((bits.shape[0], 8 * ((bits.shape[1] + 63) >> 6)), np.uint8)
    out[:, :(bits.shape[1] + 7) >> 3] = np.packbits(bits, axis=1, bitorder="little")
    return out.view("<u8").astype(np.uint64)


@pytest.mark.parametrize("seed", range(20))
def test_rref_x_block_matches_gf2_rref(seed):
    # Banded random X blocks; the Z parts stay empty, so every row product
    # has a real phase.  The windows are the rows' exact spans.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 80))
    band = int(rng.integers(1, k + 1))
    cols = np.arange(k)
    x = (rng.random((k, k)) < 0.3) & (np.abs(cols[:, None] - cols[None, :]) < band)
    rlo = np.where(x, cols, k).min(axis=1).astype(np.int32)
    rhi = np.where(x, cols + 1, 0).max(axis=1).astype(np.int32)
    xm, zm = _pack(x), np.zeros_like(_pack(x))
    pivrow, free_cols = kern.active_lane().rref_x_block(
        xm, zm, np.zeros(k, np.uint8), rlo, rhi)
    reduced, pivots = gf2_rref(x)
    assert [c for c in range(k) if pivrow[c] >= 0] == pivots
    assert list(free_cols) == sorted(set(range(k)) - set(pivots))
    unpacked = np.unpackbits(xm.view(np.uint8), axis=1, bitorder="little")[:, :k]
    assert np.array_equal(unpacked[pivrow[pivots]], reduced[:len(pivots)])
