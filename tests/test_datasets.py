"""Synthetic generators and minibatch scheduling."""

from __future__ import annotations

import numpy as np
import pytest

from sparsam.datasets import (
    BATCH_INDEX_BITS,
    Dataset,
    batch_id,
    gen_blobs,
    gen_two_moons,
    minibatches,
)


class TestTwoMoons:
    def test_noiseless_endpoints(self):
        ds = gen_two_moons(4, noise=0.0, seed=0)
        class0 = ds.features[ds.labels == 0]
        got = set(map(tuple, np.round(class0, 12)))
        assert got == {(1.0, 0.0), (-1.0, 0.0)}

    def test_class_balance(self):
        ds = gen_two_moons(64, noise=0.1, seed=1)
        assert int(np.sum(ds.labels == 0)) == 32
        assert int(np.sum(ds.labels == 1)) == 32
        assert ds.class_count == 2

    def test_second_moon_offset(self):
        ds = gen_two_moons(4, noise=0.0, seed=0)
        class1 = ds.features[ds.labels == 1]
        got = set(map(tuple, np.round(class1, 12)))
        # 1 - cos(theta), 0.5 - sin(theta) at theta in {0, pi}
        assert got == {(0.0, 0.5), (2.0, 0.5)}

    def test_same_seed_identical(self):
        a = gen_two_moons(40, noise=0.2, seed=5)
        b = gen_two_moons(40, noise=0.2, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        c = gen_two_moons(40, noise=0.2, seed=6)
        assert not np.array_equal(a.features, c.features)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            gen_two_moons(5, noise=0.1, seed=0)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            gen_two_moons(0, noise=0.1, seed=0)


class TestBlobs:
    def test_two_class_centers(self):
        ds = gen_blobs(4, k=2, sigma=0.0, seed=0)
        c0 = ds.features[ds.labels == 0]
        c1 = ds.features[ds.labels == 1]
        assert np.allclose(c0, [[1.0, 0.0]] * len(c0), atol=1e-12)
        assert np.allclose(c1, [[-1.0, 0.0]] * len(c1), atol=1e-12)

    def test_sigma_zero_exact_centers(self):
        ds = gen_blobs(9, k=3, sigma=0.0, seed=1)
        for j in range(3):
            angle = 2.0 * np.pi * j / 3.0
            center = np.array([np.cos(angle), np.sin(angle)])
            pts = ds.features[ds.labels == j]
            assert np.allclose(pts, center, atol=1e-12)

    def test_round_robin_counts(self):
        ds = gen_blobs(7, k=3, sigma=0.1, seed=2)
        counts = np.bincount(ds.labels, minlength=3)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 7

    def test_preconditions(self):
        with pytest.raises(ValueError):
            gen_blobs(1, k=2, sigma=0.1, seed=0)
        with pytest.raises(ValueError):
            gen_blobs(4, k=1, sigma=0.1, seed=0)


class TestDataset:
    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 2]), class_count=2)

    def test_as_batch(self):
        ds = gen_blobs(6, k=2, sigma=0.1, seed=0)
        b = ds.as_batch()
        assert b.size == 6
        assert np.array_equal(b.inputs, ds.features)


class TestMinibatches:
    def test_short_tail_kept(self):
        ds = gen_blobs(5, k=2, sigma=0.1, seed=0)
        batches = minibatches(ds, batch_size=2, seed=0, epoch=0)
        assert [b.size for b in batches] == [2, 2, 1]

    def test_same_seed_epoch_identical(self):
        ds = gen_blobs(16, k=2, sigma=0.1, seed=0)
        a = minibatches(ds, 4, seed=3, epoch=2)
        b = minibatches(ds, 4, seed=3, epoch=2)
        for ba, bb in zip(a, b):
            assert np.array_equal(ba.inputs, bb.inputs)
            assert np.array_equal(ba.targets, bb.targets)
            assert ba.id == bb.id

    def test_epochs_permute_same_multiset(self):
        ds = gen_blobs(16, k=2, sigma=0.1, seed=0)
        a = minibatches(ds, 16, seed=3, epoch=0)[0]
        b = minibatches(ds, 16, seed=3, epoch=1)[0]
        assert not np.array_equal(a.inputs, b.inputs)
        order_a = np.lexsort(a.inputs.T)
        order_b = np.lexsort(b.inputs.T)
        assert np.array_equal(a.inputs[order_a], b.inputs[order_b])
        assert np.array_equal(a.targets[order_a], b.targets[order_b])

    def test_batch_ids_encode_epoch_and_index(self):
        ds = gen_blobs(6, k=2, sigma=0.1, seed=0)
        batches = minibatches(ds, 2, seed=0, epoch=3)
        assert [b.id for b in batches] == [batch_id(3, i) for i in range(3)]

    def test_rows_match_dataset(self):
        ds = gen_two_moons(20, noise=0.1, seed=4)
        rows = {tuple(r) for r in ds.features}
        seen = set()
        for b in minibatches(ds, 6, seed=1, epoch=0):
            seen.update(tuple(r) for r in b.inputs)
        assert seen == rows


class TestBatchId:
    def test_layout(self):
        assert batch_id(0, 0) == 0
        assert batch_id(0, 5) == 5
        assert batch_id(2, 3) == (2 << BATCH_INDEX_BITS) | 3

    def test_uniqueness_across_epochs(self):
        ids = {batch_id(e, i) for e in range(4) for i in range(100)}
        assert len(ids) == 400

    def test_index_overflow_rejected(self):
        with pytest.raises(ValueError):
            batch_id(0, 1 << BATCH_INDEX_BITS)
