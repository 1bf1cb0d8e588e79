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
    ("noise", batch_id, l)    additive gradient noise, one layer of one batch

A Philox stream is fully determined by its two-word key, and building a
SeedSequence per stream costs far more than drawing from it. So the
per-layer noise keys of one batch are derived in one vectorized pass by
`philox_keys`, which reproduces SeedSequence's hashing: the words shared
by every layer are mixed once, the layer word for all layers at once.
A test pins its keys against np.random.SeedSequence.
"""

from __future__ import annotations

import zlib

import numpy as np

# SeedSequence's hash constants (NumPy's bit_generator, after M. O'Neill's
# seed_seq design), and its pool of four 32-bit words.
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


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


def _words(n: int) -> list[int]:
    """n as little-endian 32-bit words, as SeedSequence splits it (0 is one word)."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value, h, mult: int = _MULT_A):
    """SeedSequence's hashmix of `value` under multiplier state h.

    Returns the hashed value and the next multiplier state. Works on
    Python ints below 2**32 and on uint32 arrays alike: the masks keep
    Python ints to 32 bits, and uint32 arithmetic wraps to the same bits.
    """
    value = value ^ h
    h = (h * mult) & _MASK32
    value = (value * h) & _MASK32
    return value ^ (value >> 16), h


def _mix(x, y):
    r = (((_MIX_L * x) & _MASK32) - ((_MIX_R * y) & _MASK32)) & _MASK32
    return r ^ (r >> 16)


def _chain(h: int, mult: int) -> np.ndarray:
    """h and the _POOL - 1 multiplier states after it, as a uint32 column.

    Hashing one word into every pool word in turn starts from these
    states, so `_hashmix(word, _chain(h, mult), mult)` is those _POOL
    hashes stacked in rows.
    """
    hs = [h]
    for _ in range(_POOL - 1):
        hs.append((hs[-1] * mult) & _MASK32)
    return np.array(hs, dtype=np.uint32)[:, None]


def philox_keys(seed: int, *path: int | str, n: int) -> np.ndarray:
    """The (n, 2) uint64 Philox keys of stream(seed, *path, l), l in range(n).

    Row l equals SeedSequence(seed, spawn_key=keys of (*path, l))
    .generate_state(2, np.uint64), the key Philox takes from that
    SeedSequence; its counter starts at zero. The root entropy and the
    shared path words are mixed into the pool once as Python ints; the
    last word l and the output hash run over all l at once.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    # With a spawn key present, SeedSequence pads the root entropy to the
    # pool size, so the shared words always fill the pool.
    run = _words(seed)
    words = run + [0] * (_POOL - len(run)) + [w for p in path for w in _words(_key(p))]
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
    for w in words[_POOL:]:
        for dst in range(_POOL):
            v, h = _hashmix(w, h)
            pool[dst] = _mix(pool[dst], v)
    # The last word, l, for every l: row k of each (_POOL, n) array is pool word k.
    v, _ = _hashmix(np.arange(n, dtype=np.uint32), _chain(h, _MULT_A))
    pool = _mix(np.array(pool, dtype=np.uint32)[:, None], v)
    out = _hashmix(pool, _chain(_INIT_B, _MULT_B), _MULT_B)[0].astype(np.uint64)
    return np.stack([out[0] | (out[1] << 32), out[2] | (out[3] << 32)], axis=1)
