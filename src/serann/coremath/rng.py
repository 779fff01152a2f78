"""Seeded random number generation.

One fixed algorithm (PCG64 behind numpy's Generator) so that a given seed
reproduces the same draw sequence across runs and platforms. Components
derive their own streams with ``spawn(tag)``, which hashes (seed, tag) into
a child seed; the derivation is stable, so adding a new consumer never
shifts an existing stream.
"""

from __future__ import annotations

import hashlib

import numpy as np


class Rng:
    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def spawn(self, tag: str) -> "Rng":
        digest = hashlib.sha256(f"{self.seed}:{tag}".encode()).digest()
        return Rng(int.from_bytes(digest[:8], "little"))

    def uniform(self, low: float, high: float, shape=None, dtype=np.float32) -> np.ndarray:
        return np.asarray(self._gen.uniform(low, high, size=shape)).astype(dtype)

    def normal(self, mean: float = 0.0, std: float = 1.0, shape=None, dtype=np.float32) -> np.ndarray:
        return np.asarray(self._gen.normal(mean, std, size=shape)).astype(dtype)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        if k > n:
            raise ValueError(f"cannot draw {k} items from a population of {n}")
        return self._gen.choice(n, size=k, replace=False)

    def shuffled(self, items: list) -> list:
        order = self._gen.permutation(len(items))
        return [items[i] for i in order]
