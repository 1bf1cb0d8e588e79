"""Shared test helpers: compact constructors and reference arithmetic."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sparsam.layered import ActiveSet, LayeredVector, layer_l2_norm
from sparsam.objectives import Batch
from sparsam.optimizers import SamConfig


def lv(*blocks) -> LayeredVector:
    return LayeredVector([np.asarray(b, dtype=np.float64) for b in blocks])


def from_flat(flat, dims) -> LayeredVector:
    """A vector over `dims` holding a copy of the flat array `flat`."""
    v = LayeredVector.zeros(dims)
    v.data[:] = flat
    return v


def perturb(r: LayeredVector, active: ActiveSet, cfg: SamConfig) -> LayeredVector:
    """The perturbation eps of radius rho along r, built whole: +0.0 off
    the active set and wherever a factor is 0, the scaled r elsewhere.
    x + eps on the active entries, as `ascent_point` adds it, is the
    reference for sam_perturb's ascent point; the layer norms are
    computed as sam_step does."""
    norms = layer_l2_norm(r, active)
    eps = LayeredVector.zeros(r.dims)
    if cfg.perturb_norm == "per_layer":
        key, _, sizes, pick = r.segments(active)
        scale = np.zeros(sizes.size)
        scale[pick] = cfg.rho / np.where(norms > 0.0, norms, np.inf)
        scale = scale.repeat(sizes)
        np.multiply(scale, r.data[key], out=eps.data[key], where=scale > 0.0)
        return eps
    with np.errstate(over="ignore"):
        joint = math.sqrt(norms @ norms)
    if joint == math.inf:
        top = float(np.maximum.reduce(norms))
        if top < math.inf:
            u = norms / top
            joint = top * math.sqrt(u @ u)
    factor = cfg.rho / joint if joint > 0.0 else 0.0
    if factor > 0.0:
        for k in r.select(active):
            eps.data[k] = factor * r.data[k]
    return eps


def ascent_point(x: LayeredVector, eps: LayeredVector, active: ActiveSet) -> LayeredVector:
    """A copy of x with eps added on the active entries, key by key."""
    point = x.copy()
    for k in x.select(active):
        point.data[k] += eps.data[k]
    return point


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
