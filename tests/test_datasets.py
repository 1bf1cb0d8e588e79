"""Synthetic generators and minibatch scheduling."""

from __future__ import annotations

import numpy as np
import pytest

from sparsam.datasets import Dataset, gen_blobs, gen_two_moons, minibatches
from sparsam.rng import stream


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

    @pytest.mark.parametrize("noise", [-0.1, np.nan, np.inf, -np.inf])
    def test_noise_not_non_negative_and_finite_rejected(self, noise):
        with pytest.raises(ValueError, match="noise must be non-negative and finite"):
            gen_two_moons(8, noise=noise, seed=0)


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

    @pytest.mark.parametrize("sigma", [-0.1, np.nan, np.inf, -np.inf])
    def test_sigma_not_non_negative_and_finite_rejected(self, sigma):
        with pytest.raises(ValueError, match="noise must be non-negative and finite"):
            gen_blobs(8, k=2, sigma=sigma, seed=0)


class TestDataset:
    def test_label_range_checked(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 2]), class_count=2)

    @pytest.mark.parametrize(
        "labels",
        [[0.5, 1.5], [0.0, np.nan], [np.inf, 1.0], ["0", "1"]],
        ids=["fraction", "nan", "inf", "str"],
    )
    def test_labels_a_cast_would_change_are_refused(self, labels):
        with pytest.raises(ValueError, match="labels must be"):
            Dataset(np.zeros((2, 2)), np.array(labels), class_count=2)

    @pytest.mark.parametrize(
        "features, labels, class_count, message",
        [
            (np.zeros(2), [0, 1], 2, "features must be a 2-d matrix"),
            (np.zeros((3, 2)), [0, 1], 2, "3 feature rows vs 2 labels"),
            (np.zeros((2, 2)), [0, 0], 0, "class_count must be positive"),
        ],
        ids=["features-1d", "row-mismatch", "no-classes"],
    )
    def test_refuses_a_bad_shape_or_class_count(self, features, labels, class_count, message):
        with pytest.raises(ValueError, match=message):
            Dataset(features, np.array(labels), class_count=class_count)

    def test_whole_float_labels_convert(self):
        ds = Dataset(np.zeros((2, 2)), np.array([1.0, 0.0]), class_count=2)
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [1, 0]

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

    def test_refuses_a_zero_batch_size(self):
        ds = gen_blobs(5, k=2, sigma=0.1, seed=0)
        with pytest.raises(ValueError, match="batch_size must be at least 1"):
            minibatches(ds, batch_size=0, seed=0, epoch=0)

    def test_same_seed_epoch_identical(self):
        ds = gen_blobs(16, k=2, sigma=0.1, seed=0)
        a = minibatches(ds, 4, seed=3, epoch=2)
        b = minibatches(ds, 4, seed=3, epoch=2)
        for ba, bb in zip(a, b):
            assert np.array_equal(ba.inputs, bb.inputs)
            assert np.array_equal(ba.targets, bb.targets)

    def test_epochs_permute_same_multiset(self):
        ds = gen_blobs(16, k=2, sigma=0.1, seed=0)
        a = minibatches(ds, 16, seed=3, epoch=0)[0]
        b = minibatches(ds, 16, seed=3, epoch=1)[0]
        assert not np.array_equal(a.inputs, b.inputs)
        order_a = np.lexsort(a.inputs.T)
        order_b = np.lexsort(b.inputs.T)
        assert np.array_equal(a.inputs[order_a], b.inputs[order_b])
        assert np.array_equal(a.targets[order_a], b.targets[order_b])

    @pytest.mark.parametrize("epoch", [0, 1, 2**64])
    def test_epoch_indexes_the_data_stream(self, epoch):
        ds = gen_blobs(10, k=2, sigma=0.1, seed=0)
        (batch,) = minibatches(ds, 10, seed=3, epoch=epoch)
        order = stream(3, "data", index=epoch).permutation(ds.n)
        assert np.array_equal(batch.inputs, ds.features[order])
        assert np.array_equal(batch.targets, ds.labels[order])

    def test_rows_match_dataset(self):
        ds = gen_two_moons(20, noise=0.1, seed=4)
        rows = {tuple(r) for r in ds.features}
        seen = set()
        for b in minibatches(ds, 6, seed=1, epoch=0):
            seen.update(tuple(r) for r in b.inputs)
        assert seen == rows


    @pytest.mark.parametrize("n, batch_size", [(256, 32), (250, 32), (1024, 128)])
    def test_batches_are_views_of_one_gather_per_epoch(self, n, batch_size):
        # Each batch of epochs 0-3 holds the bytes a per-batch gather of its
        # rows gives, in C-contiguous views of the epoch's one gather, so
        # Batch keeps them without a copy.
        ds = gen_two_moons(n, noise=0.1, seed=4)
        for epoch in range(4):
            order = stream(7, "data", index=epoch).permutation(ds.n)
            batches = minibatches(ds, batch_size, seed=7, epoch=epoch)
            starts = range(0, ds.n, batch_size)
            assert len(batches) == len(starts)
            for b, start in zip(batches, starts):
                rows = order[start : start + batch_size]
                assert b.inputs.tobytes() == ds.features[rows].tobytes()
                assert b.targets.tobytes() == ds.labels[rows].tobytes()
                for got, first in ((b.inputs, batches[0].inputs), (b.targets, batches[0].targets)):
                    assert got.flags.c_contiguous
                    assert got.base is not None and got.base is first.base
