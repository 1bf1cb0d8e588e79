"""Deterministic named random streams.

Every stochastic component draws from its own Philox generator, keyed
by SeedSequence(seed, spawn_key=path words). Philox is counter based,
so streams never interfere no matter how many draws other streams make.
That is what lets two optimizer variants see bit-identical minibatch
and noise sequences in the reduction tests.

Stream paths used across the package:

    ("init",)                 parameter initialisation
    ("dataset",)              synthetic dataset generation
    ("data", epoch)           minibatch permutation for one epoch
    ("bandit",)               Bernoulli layer sampling
    ("noise", batch_id)       additive gradient noise, the whole vector of one batch

A Philox stream is fully determined by its 128-bit key. A quadratic
step opens one noise stream, and building a SeedSequence for it costs
more than hashing the key. So the hash is split where a path's last
word enters it. NumPy's own SeedSequence mixes the root entropy and
every path word but the last, once per (seed, prefix); a
least-recently-used cache of `PREFIX_CACHE` entries holds its pool and
the hash state that mixing leaves. A call absorbs only the last path
word and runs the output hash, both written out here with
SeedSequence's constants (NumPy's bit_generator, after M. O'Neill's
seed_seq), and hands the key to Philox through a fixed-key
`ISeedSequence`. Every key, and so every draw, is bit for bit what
`np.random.SeedSequence(seed, spawn_key=...)` gives; tests pin them
against it.
"""

from __future__ import annotations

import operator
import zlib
from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's hash constants and its pool of four 32-bit words.
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4

# (seed, prefix) pools kept: a run opens streams under a handful of prefixes.
PREFIX_CACHE = 64

# Philox's starting counter, as an array: Philox splits an int counter
# into words in Python, which an array skips.
_COUNTER0 = np.zeros(4, dtype=np.uint64)
_COUNTER0.flags.writeable = False


def _key(part: int | str) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    part = operator.index(part)
    if part < 0:
        raise ValueError(f"stream path ints must be non-negative, got {part}")
    return part


def _words(n: int) -> list[int]:
    """n as little-endian 32-bit words, as SeedSequence splits it (0 is one word)."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _absorb(pool: list[int], h: int, words: list[int]) -> int:
    """SeedSequence's mixing of words past the pool: each into every pool word in turn.

    Returns the next hash state. The one written-out copy of the mixing,
    since a stream's last path word runs here on every call.
    """
    for w in words:
        for dst in range(_POOL):
            v = w ^ h
            h = (h * _MULT_A) & _MASK32
            v = (v * h) & _MASK32
            r = (_MIX_L * pool[dst] - _MIX_R * (v ^ (v >> 16))) & _MASK32
            pool[dst] = r ^ (r >> 16)
    return h


def _output_states() -> list[tuple[int, int]]:
    """The (before, after) hash states of the output hash, one pair per pool word."""
    h, states = _INIT_B, []
    for _ in range(_POOL):
        states.append((h, (h * _MULT_B) & _MASK32))
        h = states[-1][1]
    return states


_OUTPUT_STATES = _output_states()


@lru_cache(maxsize=PREFIX_CACHE)
def _prefix_pool(seed: int, prefix: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """SeedSequence's pool after the root entropy and the prefix words, and its hash state.

    SeedSequence multiplies its hash state by `_MULT_A` once per hashmix,
    whatever the value hashed, and makes 4n of them: one per pool word for
    the first `_POOL` words, 12 to cross-mix the pool and 4 per later word.
    n counts the seed's words, at least `_POOL` of them, and the prefix's.
    """
    pool = np.random.SeedSequence(seed, spawn_key=prefix).pool.tolist()
    n = max(len(_words(seed)), _POOL) + sum(len(_words(p)) for p in prefix)
    return tuple(pool), _INIT_A * pow(_MULT_A, 4 * n, 1 << 32) & _MASK32


class _FixedKey(ISeedSequence):
    """Hands Philox a key computed here, as its SeedSequence would have."""

    __slots__ = ("key",)

    def __init__(self, key: tuple[int, int]):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a fixed key gives only the two uint64 words of a Philox key")
        return np.array(self.key, dtype=np.uint64)


def stream(seed: int, *path: int | str) -> np.random.Generator:
    """Generator for the stream named by `path` under the root `seed`."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    key = tuple(_key(p) for p in path)
    pool, h = _prefix_pool(seed, key[:-1])
    if key:
        pool = list(pool)
        _absorb(pool, h, _words(key[-1]))
    out = [((w ^ a) * b) & _MASK32 for w, (a, b) in zip(pool, _OUTPUT_STATES)]
    out = [w ^ (w >> 16) for w in out]
    return np.random.Generator(
        np.random.Philox(
            _FixedKey((out[0] | out[1] << 32, out[2] | out[3] << 32)), counter=_COUNTER0
        )
    )
