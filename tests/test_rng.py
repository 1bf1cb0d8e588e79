"""Named random streams and the Philox keys they derive."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsam.rng import stream

NOISE = zlib.crc32(b"noise")


def seed_sequence_key(seed: int, *spawn_key: int) -> list[int]:
    return np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(2, np.uint64).tolist()


def stream_key(seed: int, *path: int | str) -> list[int]:
    return stream(seed, *path).bit_generator.state["state"]["key"].tolist()


class TestStream:
    def test_same_path_same_draws(self):
        a = stream(2**70 + 9, "noise", 2**33 + 1).standard_normal(16)
        b = stream(2**70 + 9, "noise", 2**33 + 1).standard_normal(16)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "path",
        [("noise", 4), ("noise", 3, 0), ("data", 3), ("noise",), ()],
    )
    def test_different_paths_different_draws(self, path):
        base = stream(7, "noise", 3).standard_normal(16)
        assert not np.array_equal(stream(7, *path).standard_normal(16), base)

    def test_negative_path_int(self):
        with pytest.raises(ValueError):
            stream(0, "noise", -1)


class TestPhiloxKeys:
    """The key `stream` gives Philox: SeedSequence(seed, spawn_key=path words).

    Every recorded trace depends on this mapping, so a change to how path
    labels become spawn-key words shows here before it shows as a digest.
    """

    @given(seed=st.integers(0, 2**130), bid=st.integers(0, 2**40))
    @settings(max_examples=60, deadline=None)
    def test_equal_seed_sequence_keys(self, seed, bid):
        assert stream_key(seed, "noise", bid) == seed_sequence_key(seed, NOISE, bid)

    @pytest.mark.parametrize(
        "seed",
        # Word-count boundaries: SeedSequence pads the root entropy to four
        # words below 2**96 and splits seeds of 2**32 and above.
        [0, 1, 2**32 - 1, 2**32, 2**64, 2**96 - 1, 2**96, 2**128 - 1, 2**128, 2**160 + 5],
    )
    @pytest.mark.parametrize("bid", [0, 2**32 - 1, 2**32, 2**64 + 1])
    def test_word_boundaries(self, seed, bid):
        assert stream_key(seed, "noise", bid) == seed_sequence_key(seed, NOISE, bid)

    def test_any_path(self):
        assert stream_key(7) == seed_sequence_key(7)
        assert stream_key(7, "data", 3, "x") == seed_sequence_key(
            7, zlib.crc32(b"data"), 3, zlib.crc32(b"x")
        )

    def test_keys_drive_the_streams(self):
        for bid in range(4):
            key = np.array(seed_sequence_key(3, NOISE, bid), dtype=np.uint64)
            from_key = np.random.Generator(np.random.Philox(key=key)).standard_normal(8)
            assert np.array_equal(stream(3, "noise", bid).standard_normal(8), from_key)

    def test_empty_and_negative(self):
        assert len(stream_key(0)) == 2
        with pytest.raises(ValueError):
            stream(-1, "noise", 1)
        with pytest.raises(ValueError):
            stream(0, "noise", -1)
