"""Synthetic datasets and deterministic minibatch streams.

Generators are pure functions of their parameters and seed, drawing
from the counter-based streams in sparsam.rng, so outputs are
byte-identical across runs and platforms for a fixed numpy version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sparsam.objectives import Batch
from sparsam.rng import stream

# Batch ids pack (epoch, index); indexes get the low bits.
BATCH_INDEX_BITS = 20


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self) -> None:
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} labels"
            )
        if self.class_count < 1:
            raise ValueError("class_count must be positive")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ValueError(f"labels outside [0, {self.class_count})")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def as_batch(self, batch_id: int = 0) -> Batch:
        return Batch(self.features, self.labels, id=batch_id)


def gen_two_moons(n: int, noise: float, seed: int) -> Dataset:
    """Two interleaved half circles, n/2 points per class.

    Class 0 sits at (cos t, sin t) and class 1 at (1 - cos t, 0.5 - sin t)
    for t on an even grid over [0, pi], plus isotropic Gaussian noise of
    std `noise`.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and at least 2, got {n}")
    if noise < 0:
        raise ValueError("noise must be non-negative")
    half = n // 2
    theta = np.linspace(0.0, np.pi, half)
    upper = np.column_stack([np.cos(theta), np.sin(theta)])
    lower = np.column_stack([1.0 - np.cos(theta), 0.5 - np.sin(theta)])
    features = np.vstack([upper, lower])
    if noise > 0:
        features = features + noise * stream(seed, "dataset").standard_normal(features.shape)
    labels = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])
    return Dataset(features, labels, class_count=2)


def gen_blobs(n: int, k: int, sigma: float, seed: int) -> Dataset:
    """k Gaussian blobs centered evenly on the unit circle, labels round-robin."""
    if k < 2:
        raise ValueError("need at least two classes")
    if n < k:
        raise ValueError(f"n={n} below class count {k}")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    angles = 2.0 * np.pi * np.arange(k) / k
    centers = np.column_stack([np.cos(angles), np.sin(angles)])
    labels = np.arange(n, dtype=np.int64) % k
    features = centers[labels]
    if sigma > 0:
        features = features + sigma * stream(seed, "dataset").standard_normal(features.shape)
    return Dataset(features, labels, class_count=k)


def batch_id(epoch: int, index: int) -> int:
    """Pack (epoch, index) into one non-negative int for noise keying."""
    if epoch < 0 or index < 0:
        raise ValueError("epoch and index must be non-negative")
    if index >= 1 << BATCH_INDEX_BITS:
        raise ValueError(f"batch index {index} exceeds {1 << BATCH_INDEX_BITS}")
    return (epoch << BATCH_INDEX_BITS) | index


def minibatches(ds: Dataset, batch_size: int, seed: int, epoch: int) -> list[Batch]:
    """One epoch of batches under a seeded permutation; the short tail batch
    is kept. Batch ids encode (epoch, index)."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    order = stream(seed, "data", epoch).permutation(ds.n)
    out = []
    for index, start in enumerate(range(0, ds.n, batch_size)):
        rows = order[start : start + batch_size]
        out.append(Batch(ds.features[rows], ds.labels[rows], id=batch_id(epoch, index)))
    return out
