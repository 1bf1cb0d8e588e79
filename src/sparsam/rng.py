"""Deterministic named random streams.

Every stochastic component draws from its own Philox generator. Philox
is counter based: a 128-bit key names a stream and a 256-bit counter
indexes into it (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC 2011). So streams never interfere no matter how many draws
other streams make. That is what lets two optimizer variants see
bit-identical minibatch and noise sequences in the reduction tests.

A stream's key is `SeedSequence(seed, spawn_key=label words)`, where a
string label's word is its crc32 and an int label enters as itself; it
is computed once per (seed, labels) and cached. The integer `index`
goes into the counter's two high words, so index i starts 2**128
blocks from index i + 1, and no draw this package makes comes near
that. Index 0, the default, is Philox's own starting counter.

Streams used across the package:

    labels        index       draws
    ("init",)     -           parameter initialisation
    ("dataset",)  -           synthetic dataset generation
    ("data",)     epoch       minibatch permutation for one epoch
    ("bandit",)   -           Bernoulli layer sampling
    ("noise",)    batch.id    additive gradient noise, the whole vector of one batch
"""

from __future__ import annotations

import operator
import zlib
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# (seed, labels) keys kept: a run opens streams under a handful of labels.
KEY_CACHE = 64

_MASK64 = (1 << 64) - 1


class _FixedKey(ISeedSequence):
    """Hands Philox a key computed once, as its SeedSequence would have.

    `Philox(key=...)` would also build an OS-entropy SeedSequence on
    every call, which costs more than the rest of opening a stream.
    """

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a fixed key gives only the two uint64 words of a Philox key")
        return self.key


def _word(label: int | str) -> int:
    return zlib.crc32(label.encode("utf-8")) if isinstance(label, str) else operator.index(label)


@lru_cache(maxsize=KEY_CACHE)
def _key(seed: int, words: tuple[int, ...]) -> _FixedKey:
    """The Philox key of (seed, words); SeedSequence refuses negative ints."""
    key = np.random.SeedSequence(seed, spawn_key=words).generate_state(2, np.uint64)
    key.flags.writeable = False
    return _FixedKey(key)


def stream(seed: int, *labels: int | str, index: int = 0) -> np.random.Generator:
    """Generator for entry `index` of the stream named by `labels` under `seed`."""
    index = operator.index(index)
    if not 0 <= index < 1 << 128:
        raise ValueError(f"stream index must lie in [0, 2**128), got {index}")
    counter = np.array([0, 0, index & _MASK64, index >> 64], dtype=np.uint64)
    key = _key(operator.index(seed), tuple(_word(l) for l in labels))
    return np.random.Generator(np.random.Philox(key, counter=counter))
