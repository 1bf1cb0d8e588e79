"""Deterministic named random streams.

Every stochastic component draws from its own Philox generator, derived
from the root seed plus a path of labels via SeedSequence spawn keys.
Philox is counter based, so streams never interfere no matter how many
draws other streams make. That is what lets two optimizer variants see
bit-identical minibatch and noise sequences in the reduction tests.

Stream paths used across the package:

    ("init",)                 parameter initialisation
    ("dataset",)              synthetic dataset generation
    ("data", epoch)           minibatch permutation for one epoch
    ("bandit",)               Bernoulli layer sampling
    ("noise", batch_id)       additive gradient noise, the whole vector of one batch
"""

from __future__ import annotations

import zlib

import numpy as np


def _key(part: int | str) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    part = int(part)
    if part < 0:
        raise ValueError(f"stream path ints must be non-negative, got {part}")
    return part


def stream(seed: int, *path: int | str) -> np.random.Generator:
    """Generator for the stream named by `path` under the root `seed`."""
    key = tuple(_key(p) for p in path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))
