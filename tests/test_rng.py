"""Named random streams and the Philox keys they derive."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsam import rng
from sparsam.rng import stream

NOISE = zlib.crc32(b"noise")

BIG = 2**200
# Labels and ints up to 2**200, so a path word can span several 32-bit words.
PATH_PARTS = st.one_of(st.text(max_size=8), st.integers(0, BIG))
PATHS = st.lists(PATH_PARTS, max_size=4).map(tuple)


def seed_sequence_key(seed: int, *spawn_key: int) -> list[int]:
    return np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(2, np.uint64).tolist()


def stream_key(seed: int, *path: int | str) -> list[int]:
    return stream(seed, *path).bit_generator.state["state"]["key"].tolist()


def spawn_words(path) -> list[int]:
    return [zlib.crc32(p.encode("utf-8")) if isinstance(p, str) else p for p in path]


def reference(seed: int, *path: int | str) -> np.random.Generator:
    """The generator SeedSequence gives for the path's spawn-key words."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=spawn_words(path)))
    )


def assert_same_state(a: dict, b: dict) -> None:
    """Philox states equal in key, counter, buffer and every scalar field."""
    assert a.keys() == b.keys()
    for name in a:
        if isinstance(a[name], dict):
            assert_same_state(a[name], b[name])
        else:
            assert np.array_equal(a[name], b[name]), name


def assert_matches_reference(seed: int, *path: int | str) -> None:
    got, want = stream(seed, *path), reference(seed, *path)
    assert_same_state(got.bit_generator.state, want.bit_generator.state)
    assert np.array_equal(got.standard_normal(5), want.standard_normal(5))
    assert np.array_equal(got.integers(0, 2**63, 3), want.integers(0, 2**63, 3))
    assert_same_state(got.bit_generator.state, want.bit_generator.state)


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

    @pytest.mark.parametrize("part", [1.5, 1.0, np.float64(2.0), None])
    def test_non_integral_path_part(self, part):
        # A float path part used to be truncated: ("noise", 1.5) drew ("noise", 1).
        with pytest.raises(TypeError):
            stream(0, "noise", part)

    @pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(2.0), "7", None])
    def test_non_integral_seed(self, seed):
        with pytest.raises(TypeError):
            stream(seed, "noise", 1)

    def test_numpy_integers(self):
        want = stream(3, "noise", 5).standard_normal(8)
        for seed, bid in [(np.int64(3), np.uint32(5)), (np.uint8(3), np.int64(5))]:
            assert np.array_equal(stream(seed, "noise", bid).standard_normal(8), want)

    def test_builds_no_seed_sequence(self, monkeypatch):
        """A call on a cached prefix builds none."""
        want = stream(4, "noise", 2).standard_normal(4)

        def refuse(*args, **kwargs):
            raise AssertionError("stream built a SeedSequence")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        assert np.array_equal(stream(4, "noise", 2).standard_normal(4), want)

    def test_equal_calls_give_independent_generators(self):
        a, b = stream(5, "noise", 9), stream(5, "noise", 9)
        assert a is not b and a.bit_generator is not b.bit_generator
        before = b.bit_generator.state
        a.standard_normal(100)
        assert_same_state(b.bit_generator.state, before)
        assert np.array_equal(b.standard_normal(100), stream(5, "noise", 9).standard_normal(100))


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
        # words below 2**96 and splits seeds of 2**32 and above. From 2**128
        # a seed has more words than the pool, so under an empty prefix the
        # hash state's word count comes from the seed alone.
        [0, 1, 2**32 - 1, 2**32, 2**64, 2**96 - 1, 2**96, 2**128 - 1, 2**128, 2**160 + 5],
    )
    @pytest.mark.parametrize("bid", [0, 2**32 - 1, 2**32, 2**64 + 1])
    def test_word_boundaries(self, seed, bid):
        assert stream_key(seed, "noise", bid) == seed_sequence_key(seed, NOISE, bid)
        # One-part paths: the empty prefix, then the one word absorbed.
        assert stream_key(seed, bid) == seed_sequence_key(seed, bid)
        assert stream_key(seed, "init") == seed_sequence_key(seed, zlib.crc32(b"init"))

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

    @given(seed=st.integers(0, BIG), path=PATHS)
    @settings(max_examples=300, deadline=None)
    def test_any_seed_and_path(self, seed, path):
        assert_matches_reference(seed, *path)

    @given(
        calls=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 2**32, 2**130 + 7, BIG]),
                st.sampled_from([(), ("noise",), ("data", 2**40), (2**33, "x", 0)]),
                st.one_of(st.none(), PATH_PARTS),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_interleaved_prefixes(self, calls):
        # The prefix pools are cached per (seed, prefix): calls that revisit
        # a few seeds and prefixes in any order must each match SeedSequence.
        rng._prefix_pool.cache_clear()
        for seed, prefix, last in calls:
            path = prefix if last is None else (*prefix, last)
            assert_matches_reference(seed, *path)

    def test_evicted_prefixes(self):
        rng._prefix_pool.cache_clear()
        paths = [("p", k, 3) for k in range(3 * rng.PREFIX_CACHE)]
        for path in paths + paths[::-1]:
            assert_matches_reference(11, *path)
        assert rng._prefix_pool.cache_info().currsize == rng.PREFIX_CACHE

    @pytest.mark.parametrize(
        "seed, path",
        [
            (-1, ("noise", 1)),
            (-BIG, ()),
            (0, ("noise", -1)),
            (1.5, ("noise", 1)),
            (0, ("noise", 1.5)),
        ],
    )
    def test_errors_as_seed_sequence(self, seed, path):
        with pytest.raises((TypeError, ValueError)) as want:
            reference(seed, *path)
        with pytest.raises(want.type):
            stream(seed, *path)
