"""Named random streams: the Philox keys they derive and the counters they index."""

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
# Labels and ints up to 2**200, so a label word can span several 32-bit words.
PATH_PARTS = st.one_of(st.text(max_size=8), st.integers(0, BIG))
PATHS = st.lists(PATH_PARTS, max_size=4).map(tuple)
INDICES = [0, 1, 2**64 - 1, 2**64, 2**128 - 1]

# The keys of the unindexed streams at seed 0, and their first two
# 63-bit draws, as recorded before streams took an index.
UNINDEXED_AT_SEED_0 = {
    "init": (
        [14686814483601983478, 9582111587465986952],
        [3304455373366860072, 8560718592329479214],
    ),
    "dataset": (
        [818760268357340236, 14743723807902064255],
        [4607952476567954641, 840369571829683041],
    ),
    "bandit": (
        [16514709765228419932, 6256210481138631186],
        [3741729297200664493, 8675759129165449070],
    ),
}


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


def indexed_reference(seed: int, *path: int | str, index: int) -> np.random.Generator:
    """Philox at the path's key, started from [0, 0, low word, high word] of `index`."""
    key = np.array(seed_sequence_key(seed, *spawn_words(path)), dtype=np.uint64)
    counter = np.array([0, 0, index & (2**64 - 1), index >> 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def assert_same_state(a: dict, b: dict) -> None:
    """Philox states equal in key, counter, buffer and every scalar field."""
    assert a.keys() == b.keys()
    for name in a:
        if isinstance(a[name], dict):
            assert_same_state(a[name], b[name])
        else:
            assert np.array_equal(a[name], b[name]), name


def assert_same_stream(got: np.random.Generator, want: np.random.Generator) -> None:
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
        """A call on a cached key builds none, whatever its index."""
        want = [stream(4, "noise", index=i).standard_normal(4) for i in (2, 3)]

        def refuse(*args, **kwargs):
            raise AssertionError("stream built a SeedSequence")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        assert np.array_equal(stream(4, "noise", index=2).standard_normal(4), want[0])
        assert np.array_equal(stream(4, "noise", index=3).standard_normal(4), want[1])
        assert not np.array_equal(stream(4, "noise", index=9).standard_normal(4), want[0])

    def test_equal_calls_give_independent_generators(self):
        a, b = stream(5, "noise", 9), stream(5, "noise", 9)
        assert a is not b and a.bit_generator is not b.bit_generator
        before = b.bit_generator.state
        a.standard_normal(100)
        assert_same_state(b.bit_generator.state, before)
        assert np.array_equal(b.standard_normal(100), stream(5, "noise", 9).standard_normal(100))


class TestKeysAndCounters:
    """The key `stream` gives Philox, SeedSequence(seed, spawn_key=label words),
    and the counter its index starts from.

    Every recorded trace depends on this mapping, so a change to how labels
    become spawn-key words, or an index becomes a counter, shows here
    before it shows as a digest.
    """

    @pytest.mark.parametrize("seed", [0, 2**32, 2**128 + 5])
    @pytest.mark.parametrize("labels", [("init",), ("dataset",), ("bandit",), ("noise",), ()])
    def test_unindexed_streams_draw_as_seed_sequence(self, seed, labels):
        assert_same_stream(stream(seed, *labels), reference(seed, *labels))

    @pytest.mark.parametrize("label", sorted(UNINDEXED_AT_SEED_0))
    def test_unindexed_keys_pinned(self, label):
        key, draws = UNINDEXED_AT_SEED_0[label]
        assert stream_key(0, label) == key
        assert stream(0, label).integers(0, 2**63, 2).tolist() == draws

    @given(seed=st.integers(0, BIG), path=PATHS)
    @settings(max_examples=200, deadline=None)
    def test_any_seed_and_labels(self, seed, path):
        assert_same_stream(stream(seed, *path), reference(seed, *path))

    @pytest.mark.parametrize(
        "seed",
        # Word-count boundaries: SeedSequence pads the root entropy to four
        # words below 2**96 and splits seeds of 2**32 and above; from 2**128
        # a seed has more words than the pool.
        [0, 1, 2**32 - 1, 2**32, 2**64, 2**96 - 1, 2**96, 2**128 - 1, 2**128, 2**160 + 5],
    )
    @pytest.mark.parametrize("label", [0, 2**32 - 1, 2**32, 2**64 + 1])
    def test_word_boundaries(self, seed, label):
        # An int label enters the spawn key whole, however many words it spans.
        assert stream_key(seed, "noise", label) == seed_sequence_key(seed, NOISE, label)
        assert stream_key(seed, label) == seed_sequence_key(seed, label)
        assert stream_key(seed, "init") == seed_sequence_key(seed, zlib.crc32(b"init"))
        # The index never enters the key, only the counter.
        assert stream_key(seed, "noise") == seed_sequence_key(seed, NOISE)
        indexed = stream(seed, "noise", index=label).bit_generator.state["state"]["key"]
        assert indexed.tolist() == seed_sequence_key(seed, NOISE)

    def test_any_labels(self):
        assert stream_key(7) == seed_sequence_key(7)
        assert stream_key(7, "data", 3, "x") == seed_sequence_key(
            7, zlib.crc32(b"data"), 3, zlib.crc32(b"x")
        )

    @pytest.mark.parametrize("index", INDICES)
    def test_index_is_the_counter(self, index):
        assert_same_stream(
            stream(3, "noise", index=index), indexed_reference(3, "noise", index=index)
        )
        assert_same_stream(stream(3, "data", index=index), indexed_reference(3, "data", index=index))

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint32)])
    def test_a_fixed_key_gives_only_two_uint64_words(self, n_words, dtype):
        key = rng._key(0, ())
        assert key.generate_state(2, np.uint64) is key.key
        with pytest.raises(ValueError, match="only the two uint64 words"):
            key.generate_state(n_words, dtype)

    @given(seed=st.integers(0, BIG), path=PATHS, index=st.integers(0, 2**128 - 1))
    @settings(max_examples=100, deadline=None)
    def test_any_index(self, seed, path, index):
        assert_same_stream(
            stream(seed, *path, index=index), indexed_reference(seed, *path, index=index)
        )

    @pytest.mark.parametrize("index", [0, 5, 2**64 - 1, 2**128 - 2])
    def test_neighbouring_indices(self, index):
        a, b = stream(7, "noise", index=index), stream(7, "noise", index=index + 1)
        ca = a.bit_generator.state["state"]["counter"].tolist()
        cb = b.bit_generator.state["state"]["counter"].tolist()
        assert ca[:2] == cb[:2] == [0, 0] and ca[2:] != cb[2:]
        assert stream_key(7, "noise") == a.bit_generator.state["state"]["key"].tolist()
        assert not np.array_equal(a.standard_normal(16), b.standard_normal(16))

    def test_numpy_integer_index(self):
        want = stream(3, "noise", index=2**40).standard_normal(8)
        for index in [np.int64(2**40), np.uint64(2**40)]:
            assert np.array_equal(stream(3, "noise", index=index).standard_normal(8), want)

    @pytest.mark.parametrize("index", [-1, 2**128, -(2**128)])
    def test_index_out_of_range(self, index):
        with pytest.raises(ValueError):
            stream(0, "noise", index=index)

    @pytest.mark.parametrize("index", [1.5, 1.0, np.float64(2.0), None, "3"])
    def test_non_integral_index(self, index):
        with pytest.raises(TypeError):
            stream(0, "noise", index=index)

    @given(
        calls=st.lists(
            st.tuples(
                st.sampled_from([0, 1, 2**32, 2**130 + 7, BIG]),
                st.sampled_from([(), ("noise",), ("data", 2**40), (2**33, "x", 0)]),
                st.sampled_from(INDICES),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_interleaved_keys(self, calls):
        # Calls that revisit a few cached keys in any order share one key
        # array: drawing from one generator must leave every other as opened.
        rng._key.cache_clear()
        opened = [
            (stream(seed, *labels, index=index), indexed_reference(seed, *labels, index=index))
            for seed, labels, index in calls
        ]
        for got, want in opened + opened[::-1]:
            assert np.array_equal(got.standard_normal(3), want.standard_normal(3))
        for (seed, labels, _), (got, _) in zip(calls, opened):
            assert got.bit_generator.state["state"]["key"].tolist() == seed_sequence_key(
                seed, *spawn_words(labels)
            )

    def test_evicted_keys(self):
        rng._key.cache_clear()
        paths = [("p", k) for k in range(3 * rng.KEY_CACHE)]
        for path in paths + paths[::-1]:
            assert_same_stream(stream(11, *path, index=3), indexed_reference(11, *path, index=3))
        assert rng._key.cache_info().currsize == rng.KEY_CACHE

    @pytest.mark.parametrize(
        "seed, path",
        [
            (-1, ("noise",)),
            (-BIG, ()),
            (0, ("noise", -1)),
            (1.5, ("noise",)),
            (0, ("noise", 1.5)),
        ],
    )
    def test_errors_as_seed_sequence(self, seed, path):
        with pytest.raises((TypeError, ValueError)) as want:
            reference(seed, *path)
        with pytest.raises(want.type):
            stream(seed, *path)
