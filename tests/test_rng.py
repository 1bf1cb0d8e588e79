"""Named streams and the vectorized Philox key derivation."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsam.rng import philox_keys, stream

NOISE = zlib.crc32(b"noise")


def seed_sequence_keys(seed: int, *spawn_key: int, n: int) -> np.ndarray:
    return np.array(
        [
            np.random.SeedSequence(seed, spawn_key=(*spawn_key, l)).generate_state(2, np.uint64)
            for l in range(n)
        ],
        dtype=np.uint64,
    ).reshape(n, 2)


class TestPhiloxKeys:
    @given(
        seed=st.integers(0, 2**130),
        bid=st.integers(0, 2**40),
        n=st.integers(1, 500),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_seed_sequence_keys(self, seed, bid, n):
        keys = philox_keys(seed, "noise", bid, n=n)
        assert keys.dtype == np.uint64 and keys.shape == (n, 2)
        assert np.array_equal(keys, seed_sequence_keys(seed, NOISE, bid, n=n))

    @pytest.mark.parametrize(
        "seed",
        # Word-count boundaries: SeedSequence pads the root entropy to four
        # words below 2**96 and splits seeds of 2**32 and above.
        [0, 1, 2**32 - 1, 2**32, 2**64, 2**96 - 1, 2**96, 2**128 - 1, 2**128, 2**160 + 5],
    )
    @pytest.mark.parametrize("bid", [0, 2**32 - 1, 2**32, 2**64 + 1])
    def test_word_boundaries(self, seed, bid):
        assert np.array_equal(
            philox_keys(seed, "noise", bid, n=3), seed_sequence_keys(seed, NOISE, bid, n=3)
        )

    def test_any_path(self):
        assert np.array_equal(philox_keys(7, n=4), seed_sequence_keys(7, n=4))
        assert np.array_equal(
            philox_keys(7, "data", 3, "x", n=2),
            seed_sequence_keys(7, zlib.crc32(b"data"), 3, zlib.crc32(b"x"), n=2),
        )

    def test_keys_drive_the_streams(self):
        for l, key in enumerate(philox_keys(3, "noise", 11, n=4).tolist()):
            assert stream(3, "noise", 11, l).bit_generator.state["state"]["key"].tolist() == key

    def test_empty_and_negative(self):
        assert philox_keys(0, "noise", 1, n=0).shape == (0, 2)
        with pytest.raises(ValueError):
            philox_keys(-1, "noise", 1, n=2)
        with pytest.raises(ValueError):
            philox_keys(0, "noise", -1, n=2)
