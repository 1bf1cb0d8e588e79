"""Primitive micro-benchmarks, each call timed between reference blocks.

Inputs come from the seed. Sizes follow the workloads: n6 and n8 are
the MLP layer counts, n100 and n500 many-layer samplers, quad-aK the
quad-wide objective with K of its 100 layers active, mlp-aK the
mlp-deep objective (8 layers) with K layers active.
"""

from __future__ import annotations

import numpy as np
from sparsam.bandit import init_uniform, kl_project, sample_active_set
from sparsam.datasets import gen_blobs
from sparsam.layered import ActiveSet, LayeredVector
from sparsam.objectives import Batch, BlockQuadratic, MlpClassifier
from sparsam.optimizers import AdamWConfig, OptimizerState, adamw_step

from timing import Block, RefKernel

ROUNDS = 7
CALLS = 9
# mlp-deep layers are [W0, b0, W1, b1, W2, b2, W3, b3]; W2 is the 64x64 matrix.
MLP_ACTIVE = {1: (4,), 2: (4, 5), 8: tuple(range(8))}
KL_SIZES = {6: 0.5, 8: 0.25, 100: 0.2, 500: 0.2}
QUAD_ACTIVE = (10, 20, 100)


def _cases(seed: int):
    rng = np.random.default_rng(seed)
    for n, s_over_n in KL_SIZES.items():
        s = s_over_n * n
        u = (s / n) * np.exp(-rng.uniform(0.0, 2.0, n))
        yield f"bandit.kl_project.{{}}.n{n}", (lambda u=u, s=s, p=0.1 * s_over_n: kl_project(u, s, p))

    dist = init_uniform(100, 20.0, 0.02)
    draw_rng = np.random.Generator(np.random.Philox(seed))
    yield "bandit.sample_active_set.{}.n100", lambda: sample_active_set(dist, draw_rng)

    dims = [64] * 100
    x = LayeredVector([rng.standard_normal(d) for d in dims])
    g = LayeredVector([rng.standard_normal(d) for d in dims])
    state = OptimizerState.init(dims)
    full = ActiveSet.full(100)
    cfg = AdamWConfig()
    yield "optimizers.adamw_step.{}.n100", lambda: adamw_step(state, x, g, full, cfg)

    quad = BlockQuadratic(dims, noise_sigma=1e-4, noise_seed=seed)
    qx = quad.init_params(seed)
    qbatch = Batch(np.zeros((1, 1)), np.zeros(1, dtype=np.int64), id=seed)
    for a in QUAD_ACTIVE:
        act = ActiveSet.from_iterable(int(i) for i in rng.choice(100, size=a, replace=False))
        yield f"objectives.loss_and_grad.{{}}.quad-a{a}", (
            lambda act=act: quad.loss_and_grad(qx, qbatch, act)
        )

    mlp = MlpClassifier([2, 64, 64, 64, 2])
    mx = mlp.init_params(seed)
    ds = gen_blobs(1024, 2, 0.1, seed)
    mbatch = Batch(ds.features[:128], ds.labels[:128])
    for a, layers in MLP_ACTIVE.items():
        act = ActiveSet.from_iterable(layers)
        yield f"objectives.loss_and_grad.{{}}.mlp-a{a}", (
            lambda act=act: mlp.loss_and_grad(mx, mbatch, act)
        )


def run_micro(seed: int, ref: RefKernel) -> dict[str, tuple[float, str]]:
    """Per-call median of each primitive, in us and in ref units."""
    out = {}
    for pattern, call in _cases(seed):
        call()
        blocks = []
        before = ref.block_ns()
        for _ in range(ROUNDS):
            b = Block(pattern, before)
            for _ in range(CALLS):
                b.time_call(call)
            b.ref_after = before = ref.block_ns()
            blocks.append(b)
        raw = np.concatenate([b.kept() for b in blocks])
        norm = np.concatenate([b.normalised() for b in blocks])
        out[pattern.format("us")] = (float(np.median(raw)) / 1e3, "us")
        out[pattern.format("ref")] = (float(np.median(norm)), "ref")
    return out
