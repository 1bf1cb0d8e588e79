"""Synthetic datasets and deterministic minibatch streams.

Generators are pure functions of their parameters and seed, drawing
from the counter-based streams in sparsam.rng, so outputs are
byte-identical across runs and platforms for a fixed numpy version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sparsam.objectives import Batch, as_labels
from sparsam.rng import stream

@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self) -> None:
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = as_labels(self.labels, "labels")
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

    def as_batch(self) -> Batch:
        return Batch(self.features, self.labels)


def check(kind: str, n: int, noise: float, classes: int, features: int = 2) -> None:
    """Raise ValueError unless the `kind` generator ("two_moons" or
    "blobs") makes n points of `features` inputs in `classes` classes
    at this noise: the one statement of each dataset's rules."""
    if features != 2:
        raise ValueError(f"synthetic datasets are 2-d, got {features} features")
    if kind == "two_moons":
        if classes != 2:
            raise ValueError(f"two_moons has 2 classes, got {classes}")
        if n < 2 or n % 2 != 0:
            raise ValueError(f"n must be even and at least 2, got {n}")
    elif classes < 2:
        raise ValueError("need at least two classes")
    elif n < classes:
        raise ValueError(f"n={n} below class count {classes}")
    if not 0.0 <= noise < np.inf:  # NaN fails it too
        raise ValueError("noise must be non-negative and finite")


def gen_two_moons(n: int, noise: float, seed: int) -> Dataset:
    """Two interleaved half circles, n/2 points per class.

    Class 0 sits at (cos t, sin t) and class 1 at (1 - cos t, 0.5 - sin t)
    for t on an even grid over [0, pi], plus isotropic Gaussian noise of
    std `noise`.
    """
    check("two_moons", n, noise, 2)
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
    check("blobs", n, sigma, k)
    angles = 2.0 * np.pi * np.arange(k) / k
    centers = np.column_stack([np.cos(angles), np.sin(angles)])
    labels = np.arange(n, dtype=np.int64) % k
    features = centers[labels]
    if sigma > 0:
        features = features + sigma * stream(seed, "dataset").standard_normal(features.shape)
    return Dataset(features, labels, class_count=k)


def minibatches(ds: Dataset, batch_size: int, seed: int, epoch: int) -> list[Batch]:
    """One epoch of batches under a seeded permutation; the short tail batch
    is kept. The epoch's rows are gathered once, in permuted order, and each
    batch holds contiguous row-slice views of them, which `Batch` keeps
    without copying."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    order = stream(seed, "data", index=epoch).permutation(ds.n)
    features, labels = ds.features[order], ds.labels[order]
    return [
        Batch(features[start : start + batch_size], labels[start : start + batch_size])
        for start in range(0, ds.n, batch_size)
    ]
