"""Helpers of the bit-packed tableau kernels."""

import numpy as np

import sicluster._kernels as kern


def test_bits_of_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        bits = sorted(set(int(b) for b in rng.integers(0, 512, size=rng.integers(0, 20))))
        words = np.zeros(8, np.uint64)
        for b in bits:
            words[b >> 6] |= np.uint64(1) << np.uint64(b & 63)
        assert list(kern.bits_of(words)) == bits
