"""Shared test helpers: compact constructors and reference arithmetic."""

from __future__ import annotations

import numpy as np
import pytest

from sparsam.layered import ActiveSet, LayeredVector, layer_l2_norm
from sparsam.objectives import Batch
from sparsam.optimizers import SamConfig, sam_perturb


def lv(*blocks) -> LayeredVector:
    return LayeredVector([np.asarray(b, dtype=np.float64) for b in blocks])


def from_flat(flat, dims) -> LayeredVector:
    """A vector over `dims` holding a copy of the flat array `flat`."""
    v = LayeredVector.zeros(dims)
    v.data[:] = flat
    return v


def perturb(r: LayeredVector, active: ActiveSet, cfg: SamConfig) -> LayeredVector:
    """sam_perturb with the layer norms it takes, computed as sam_step does."""
    return sam_perturb(r, active, cfg, layer_l2_norm(r, active))


def scalar_batch(step: int = 0) -> Batch:
    # Placeholder minibatch for objectives that only key noise off batch.id.
    return Batch(np.zeros((1, 1)), np.zeros(1, dtype=np.int64), id=step)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def block(v: LayeredVector, l: int) -> np.ndarray:
    """Layer l of v: a view of its stretch of `data`, so writing to it writes v."""
    return v.data[v.offsets[l] : v.offsets[l + 1]]


def assert_bit_identical(a: LayeredVector, b: LayeredVector) -> None:
    assert a.dims == b.dims
    assert np.array_equal(a.data, b.data)


def full_set(n: int) -> ActiveSet:
    return ActiveSet.full(n)
