"""Deterministic RNG plumbing: one root seed, labeled substreams.

Every stochastic operation in the package draws from an explicit
``numpy.random.Generator``.  Substreams give independent, reproducible
streams per purpose (measurement coins, each noise channel, each Monte
Carlo trial) so that disabling one consumer never shifts another's draws.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _label_key(label: str) -> int:
    digest = hashlib.sha256(label.encode()).digest()
    return int.from_bytes(digest[:8], "little")


def substream(seed: int, *labels: str | int) -> np.random.Generator:
    """A generator derived from (seed, labels); stable across processes."""
    keys = tuple(_label_key(l) if isinstance(l, str) else int(l) for l in labels)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=keys)))


def draw_sign_bit(rng: np.random.Generator, p_minus: float) -> int:
    """One outcome draw: returns 1 (outcome -1) with probability p_minus.

    Both simulation backends use this single helper so that identical seeds
    give identical measurement transcripts.
    """
    return (rng.random() < p_minus) * 1


def draw_shared_sign_bit(rng: np.random.Generator, lo: float, hi: float) -> int | None:
    """One outcome draw for a set of probabilities from ``lo`` to ``hi``:
    the bit ``draw_sign_bit`` would give every one of them on this draw, or
    None when the draw splits them."""
    coin = rng.random()
    below_lo, below_hi = coin < lo, coin < hi
    return int(below_lo) if below_lo == below_hi else None
