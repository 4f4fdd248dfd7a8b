"""Deterministic RNG plumbing: one root seed, labeled substreams.

Every stochastic operation in the package draws from an explicit
``numpy.random.Generator``, or from coins pre-drawn from one
(``CoinRows``).  Substreams give independent, reproducible
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
    give identical measurement transcripts.  A caller draws no coin for a
    deterministic outcome; ``CoinRows`` applies the same rule to a batch.
    """
    return (rng.random() < p_minus) * 1


class CoinRows:
    """Pre-drawn coins for a batch of runs: row i holds the coins run i
    draws, in order, and ``cursor[i]`` counts those it has used.  A row of
    ``substream(...).random(m)`` holds the m coins that m ``draw_sign_bit``
    calls on that substream would draw, so each run reads out as it would
    alone; a row needs one coin per readout of its run."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, float)
        self.cursor = np.zeros(len(self.rows), np.intp)

    def sign_bits(self, p_minus: np.ndarray, random: np.ndarray) -> np.ndarray:
        """``draw_sign_bit(p_minus[i])`` for each run i that ``random`` marks,
        on the next coin of its own row; the other runs draw none (False)."""
        coins = self.rows[np.arange(len(self.cursor)), self.cursor]
        self.cursor += random
        return random & (coins < p_minus)
