"""Gathered short runs and viewed long runs give the run-by-run bits.

The references below are the run-by-run loops: one NumPy expression per
run of adjacent active layers, each on its slice of the buffer. The
layouts mix layers on both sides of GATHER_BELOW, so the same set holds
gathered runs, viewed runs and runs that only cross the cutoff by
joining short layers.
"""

from __future__ import annotations

import gc
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsam.config import ExperimentConfig
from sparsam.layered import GATHER_BELOW, ActiveSet, LayeredVector, layer_l2_norm, masked_axpy
from sparsam.objectives import BlockQuadratic
from sparsam.optimizers import (
    AdamWConfig,
    OptimizerState,
    SamConfig,
    adamw_step,
    sam_step,
)
from sparsam.rng import stream
from sparsam.runner import Trainer

from conftest import block, from_flat, perturb, reference_runs, scalar_batch

DIMS = [1, 2, 7, 64, GATHER_BELOW - 1, GATHER_BELOW, GATHER_BELOW + 1, 1024]


def run_slices(v: LayeredVector, active: ActiveSet) -> list[slice]:
    """One slice of the buffer per run of adjacent active layers."""
    active.validate(len(v.dims))
    o = v.offsets
    return [slice(o[lo], o[hi]) for lo, hi in reference_runs(set(active))]


def ref_adamw(state, x, g, active, cfg):
    for s in run_slices(x, active):
        gs, m, v, xs = g.data[s], state.m.data[s], state.v.data[s], x.data[s]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * gs
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * gs * gs
        decay = cfg.eta * cfg.weight_decay * xs
        xs -= cfg.eta * m / np.sqrt(v + cfg.adam_eps)
        xs -= decay


def ref_axpy(y, a, x, active):
    for s in run_slices(y, active):
        y.data[s] += float(a) * x.data[s]


def ref_perturb(r, active, cfg):
    eps = LayeredVector.zeros(r.dims)
    if cfg.rho == 0.0 or len(active) == 0:
        return eps
    # The norms are the segmented reduction's, checked against fsum in
    # test_layered; this reference checks the scaling run by run.
    norms = dict(zip(active, layer_l2_norm(r, active).tolist()))
    if cfg.perturb_norm == "per_layer":
        for l in active:
            if norms[l] > 0.0:
                np.multiply(cfg.rho / norms[l], block(r, l), out=block(eps, l))
    else:
        joint = math.sqrt(np.dot(list(norms.values()), list(norms.values())))
        if joint > 0.0:
            for s in run_slices(r, active):
                np.multiply(cfg.rho / joint, r.data[s], out=eps.data[s])
    return eps


def ref_quad_grad(obj, scales, x, batch, active):
    scale = np.repeat(scales, obj.layer_dims)
    z = stream(obj.noise_seed, "noise", index=batch.id).standard_normal(obj.dim)
    z *= obj.noise_sigma
    g = LayeredVector.zeros(obj.layer_dims)
    for s in run_slices(x, active):
        gs = g.data[s]
        np.multiply(x.data[s], scale[s], out=gs)
        gs += z[s]
    return g


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_inactive_unchanged(v: LayeredVector, before: np.ndarray, active: ActiveSet) -> None:
    o = v.offsets
    for l in range(len(v.dims)):
        if l not in active:
            assert_same_bits(v.data[o[l] : o[l + 1]], before[o[l] : o[l + 1]])


class RecordingQuadratic(BlockQuadratic):
    """Keeps a copy of every gradient it returns."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.grads: list[LayeredVector] = []

    def loss_and_grad(self, x, batch, active):
        loss, g = super().loss_and_grad(x, batch, active)
        self.grads.append(g.copy())
        return loss, g


class Case:
    """A random layout and active set, and vectors with zero-norm blocks
    and -0.0 entries."""

    def __init__(self, dims, kind, seed):
        self.rng = np.random.default_rng(seed)
        self.dims = dims
        n = len(dims)
        if kind == "full":
            self.active = ActiveSet.full(n)
        elif kind == "single":
            self.active = ActiveSet((int(self.rng.integers(n)),))
        else:
            self.active = ActiveSet.from_iterable(np.flatnonzero(self.rng.random(n) < 0.5))

    def vector(self, positive: bool = False) -> LayeredVector:
        v = LayeredVector.zeros(self.dims)
        size = v.data.size
        v.data[:] = self.rng.random(size) if positive else self.rng.standard_normal(size)
        v.data[self.rng.random(size) < 0.1] = 0.0 if positive else -0.0
        for l in np.flatnonzero(self.rng.random(len(self.dims)) < 0.2):
            block(v, l)[...] = 0.0
        return v


case_args = dict(
    dims=st.lists(st.sampled_from(DIMS), min_size=1, max_size=14),
    kind=st.sampled_from(["random", "random", "full", "single"]),
    seed=st.integers(0, 2**32 - 1),
)


class TestGatherMatchesRunByRun:
    @given(**case_args, wd=st.sampled_from([0.0, 0.01]))
    @settings(max_examples=60, deadline=None)
    def test_adamw_step(self, dims, kind, seed, wd):
        c = Case(dims, kind, seed)
        cfg = AdamWConfig(eta=0.01, weight_decay=wd)
        x, g = c.vector(), c.vector()
        state = OptimizerState(c.vector(), c.vector(positive=True))
        ref = OptimizerState(state.m.copy(), state.v.copy())
        x_ref = x.copy()
        befores = [v.data.copy() for v in (x, state.m, state.v)]
        adamw_step(state, x, g, c.active, cfg)
        ref_adamw(ref, x_ref, g, c.active, cfg)
        for got, want, before in zip((x, state.m, state.v), (x_ref, ref.m, ref.v), befores):
            assert_same_bits(got.data, want.data)
            assert_inactive_unchanged(got, before, c.active)

    @given(**case_args, a=st.sampled_from([-1.5, -0.0, 0.0, 2.0]))
    @settings(max_examples=60, deadline=None)
    def test_masked_axpy(self, dims, kind, seed, a):
        c = Case(dims, kind, seed)
        y, x = c.vector(), c.vector()
        y_ref, before = y.copy(), y.data.copy()
        masked_axpy(y, a, x, c.active)
        ref_axpy(y_ref, a, x, c.active)
        assert_same_bits(y.data, y_ref.data)
        assert_inactive_unchanged(y, before, c.active)

    @given(**case_args, mode=st.sampled_from(["global", "per_layer"]))
    @settings(max_examples=60, deadline=None)
    def test_sam_perturb(self, dims, kind, seed, mode):
        c = Case(dims, kind, seed)
        r = c.vector()
        cfg = SamConfig(0.05, mode)
        eps = perturb(r, c.active, cfg)
        assert_same_bits(eps.data, ref_perturb(r, c.active, cfg).data)
        assert_inactive_unchanged(eps, np.zeros(r.data.size), c.active)

    @given(**case_args)
    @settings(max_examples=40, deadline=None)
    def test_quad_loss_and_grad(self, dims, kind, seed):
        c = Case(dims, kind, seed)
        scales = (c.rng.random(len(dims)) + 0.5).tolist()
        obj = BlockQuadratic(dims, scales, noise_sigma=0.1, noise_seed=seed % 97)
        x, batch = c.vector(), scalar_batch(int(c.rng.integers(1000)))
        loss, g = obj.loss_and_grad(x, batch, c.active)
        assert loss == obj.loss(x, batch)
        want = ref_quad_grad(obj, scales, x, batch, c.active)
        for s in run_slices(x, c.active):
            assert_same_bits(g.data[s], want.data[s])
        # Outside the set the pass leaves the full gradient's blocks.
        full = ref_quad_grad(obj, scales, x, batch, ActiveSet.full(len(dims)))
        assert_same_bits(g.data, full.data)

    @given(**case_args)
    @settings(max_examples=40, deadline=None)
    def test_stale_stash_write(self, dims, kind, seed):
        c = Case(dims, kind, seed)
        active = c.active if len(c.active) else ActiveSet((0,))  # a step needs a layer
        obj = RecordingQuadratic(dims, noise_sigma=0.1, noise_seed=3)
        x = c.vector()
        state = OptimizerState.init(dims)
        cfg, sam_cfg = AdamWConfig(eta=0.01), SamConfig(0.05, "per_layer")
        # A dense first step fills every block, so a write that spills
        # outside the active set shows against non-zero values.
        sam_step(obj, x, scalar_batch(0), state, ActiveSet.full(len(dims)), "stale", sam_cfg, cfg)
        stash = state.prev_grad.data.copy()
        sam_step(obj, x, scalar_batch(1), state, active, "stale", sam_cfg, cfg)
        want = from_flat(stash, dims)
        inactive = np.ones(x.data.size, dtype=bool)
        for s in run_slices(want, active):
            want.data[s] = obj.grads[-1].data[s]
            inactive[s] = False
        assert not inactive.any() or stash[inactive].any()
        assert_same_bits(state.prev_grad.data, want.data)
        assert_inactive_unchanged(state.prev_grad, stash, active)


def test_steps_retain_no_selection():
    """A selection cached on the ActiveSet, which every StepTelemetry
    keeps, would add about 1.2 GC-tracked objects per step here (4.2
    against 3.0)."""
    trainer = Trainer(ExperimentConfig.from_dict({
        "objective": {"type": "blockquadratic", "layer_dims": [64] * 100, "noise_sigma": 1e-4},
        "optimizer": {"type": "slsam"},
        "bandit": {"s_over_n": 0.2},
        "train": {"steps": 420, "batch_size": 1, "seed": 0, "eval_every": 1000},
    }))
    for _ in range(20):
        trainer.step()
    gc.collect()
    before = len(gc.get_objects())
    for _ in range(400):
        trainer.step()
    gc.collect()
    assert (len(gc.get_objects()) - before) / 400 < 3.5
