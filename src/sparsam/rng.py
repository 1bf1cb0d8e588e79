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
more than hashing the key. So `stream` reproduces SeedSequence's hash:
its constants, its pool of four 32-bit words, the mixing of the root
entropy and spawn-key words into the pool and the output hash that
yields the key (NumPy's bit_generator, after M. O'Neill's seed_seq).
The root entropy and every path word but the last are hashed once per
(seed, prefix); a least-recently-used cache of `PREFIX_CACHE` entries
holds the resulting pool and hash state. A call absorbs only the last
path word, runs the output hash and hands the key to Philox through a
fixed-key `ISeedSequence`. Every key, and so every draw, is bit for bit
what `np.random.SeedSequence(seed, spawn_key=...)` gives; tests pin
them against it.
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


def _hashmix(value: int, h: int) -> tuple[int, int]:
    """SeedSequence's hashmix of `value`: the hashed value and the next hash state."""
    value ^= h
    h = (h * _MULT_A) & _MASK32
    value = (value * h) & _MASK32
    return value ^ (value >> 16), h


def _mix(x: int, y: int) -> int:
    r = ((_MIX_L * x) - (_MIX_R * y)) & _MASK32
    return r ^ (r >> 16)


def _absorb(pool: list[int], h: int, words: list[int]) -> int:
    """Mix each word into every pool word in turn; returns the hash state.

    `_hashmix` and `_mix` written out, since a stream's last word runs here.
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
    """The pool and hash state after the root entropy and the prefix words."""
    # SeedSequence pads the root entropy to the pool size when a spawn key
    # follows; without one, it hashes 0 for each missing word, which is
    # the same.
    run = _words(seed)
    words = run + [0] * (_POOL - len(run)) + [w for p in prefix for w in _words(p)]
    h = _INIT_A
    pool = []
    for w in words[:_POOL]:
        v, h = _hashmix(w, h)
        pool.append(v)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    h = _absorb(pool, h, words[_POOL:])
    return tuple(pool), h


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
