"""AdamW and the sharpness-aware optimizer family built on it.

The optimizer types differ on two axes only, and `OPTIMIZERS` is the one
table of them: which layers a step touches (the selector: all of them,
bandit-sampled, uniform without replacement, or the top-k by full
gradient norm) and where its ascent direction comes from (none, a fresh
ascent pass, or a stale per-layer stash of earlier gradients). Every
type-dependent choice elsewhere is read from that table.

`sam_step` is the one function that runs a step's gradient passes, for
any active set and ascent source; it updates with `adamw_step`, which
touches moments and parameters only on the active layers and applies
no bias correction. The per-type entry points are thin wrappers over it:

    adamw_baseline_step   all layers, no ascent
    adasam_step           all layers, fresh ascent
    s2sam_step            all layers, stale ascent
    slsam_step            bandit layers, fresh ascent, distribution update
    sl_s2sam_step         bandit layers, stale ascent, distribution update
    ablation_step         uniform or top-k layers, fresh ascent

Step functions mutate x and state in place and return a StepTelemetry
(plus the updated sampling distribution where one is involved). The
telemetry loss is the loss at the point where the step's first gradient
was evaluated; for a stale step with a stash that is the perturbed
point, the only point it ever visits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from sparsam.bandit import (
    BanditConfig,
    SamplingDistribution,
    sample_active_set,
    update_distribution,
)
from sparsam.errors import DivergenceError, in_pass
from sparsam.layered import (
    ActiveSet,
    LayeredVector,
    active_param_count,
    layer_l2_norm,
    masked_axpy,
    total_l1_norm,
)
from sparsam.objectives import Batch, Objective
from sparsam.telemetry import StepTelemetry

Selector = Literal["all", "bandit", "uniform_random", "greedy_topk"]
Ascent = Literal["none", "fresh", "stale"]

# Optimizer type -> (selector, ascent source).
OPTIMIZERS: dict[str, tuple[Selector, Ascent]] = {
    "adamw": ("all", "none"),
    "adasam": ("all", "fresh"),
    "s2sam": ("all", "stale"),
    "slsam": ("bandit", "fresh"),
    "sl_s2sam": ("bandit", "stale"),
    "random_slsam": ("uniform_random", "fresh"),
    "top_slsam": ("greedy_topk", "fresh"),
}


# Gradient entries at or beyond this square to inf.
_SQUARABLE = math.sqrt(np.finfo(np.float64).max)


@dataclass(frozen=True)
class AdamWConfig:
    eta: float = 1e-3
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it too.
        if not 0.0 < self.eta < math.inf:
            raise ValueError("eta must be positive and finite")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be non-negative and finite")
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise ValueError("beta1 and beta2 must lie in (0, 1)")
        if not 0.0 < self.adam_eps < math.inf:
            raise ValueError("adam_eps must be positive and finite")


@dataclass(frozen=True)
class SamConfig:
    rho: float = 0.01
    perturb_norm: str = "global"

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho < math.inf:  # NaN fails it too
            raise ValueError("rho must be non-negative and finite")
        if self.perturb_norm not in ("global", "per_layer"):
            raise ValueError(f"unknown perturb_norm {self.perturb_norm!r}")


@dataclass
class OptimizerState:
    m: LayeredVector
    v: LayeredVector
    t: int = 0
    prev_grad: LayeredVector | None = None
    # Step at which prev_grad[l] was written; 0 means never stashed, and
    # such a layer's stashed gradient is zeros.
    stash_step: np.ndarray | None = None
    # layer_l2_norm(prev_grad, l), recorded when prev_grad[l] was written.
    stash_norm: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not self.m.same_shape(self.v):
            raise ValueError("m and v shapes differ")

    @classmethod
    def init(cls, dims) -> "OptimizerState":
        return cls(LayeredVector.zeros(dims), LayeredVector.zeros(dims))


def adamw_step(
    state: OptimizerState,
    x: LayeredVector,
    g: LayeredVector,
    active: ActiveSet,
    cfg: AdamWConfig,
) -> tuple[LayeredVector, OptimizerState]:
    """Moment and parameter update on the active layers, no bias correction.

    Blocks outside the active set are left bit-identical, in x and in
    both moment vectors. A gradient entry on an active layer that has no
    finite square (NaN, or |g| at least the square root of the float
    maximum, about 1.34e154, where v's update would overflow) raises
    DivergenceError before anything is written.
    """
    if not x.same_shape(state.m) or not x.same_shape(g):
        raise ValueError(f"shape mismatch: x {x.dims}, m {state.m.dims}, g {g.dims}")
    keys = x.select(active)
    grads = [g.data[k] for k in keys]
    # Written so that a NaN fails it too.
    if not all(np.maximum.reduce(np.abs(gs)) < _SQUARABLE for gs in grads):
        o = g.offsets
        bad = next(
            l for l in active if not np.maximum.reduce(np.abs(g.data[o[l] : o[l + 1]])) < _SQUARABLE
        )
        raise DivergenceError(f"gradient in layer {bad} at step {state.t + 1} has no finite square")
    for k, gs in zip(keys, grads):
        m, v, xs = state.m.data[k], state.v.data[k], x.data[k]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * gs
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * gs * gs
        decay = cfg.eta * cfg.weight_decay * xs
        xs -= cfg.eta * m / np.sqrt(v + cfg.adam_eps)
        xs -= decay
        state.m.data[k], state.v.data[k], x.data[k] = m, v, xs
    state.t += 1
    return x, state


def sam_perturb(
    x: LayeredVector,
    r: LayeredVector,
    active: ActiveSet,
    cfg: SamConfig,
    norms: np.ndarray,
) -> LayeredVector:
    """The ascent point: a copy of x moved by radius rho along r on the
    active layers, and x's own bits everywhere else.

    per_layer mode scales each active block of r to norm rho on its own;
    global mode scales the whole active restriction jointly, by one
    factor. Either way each key of `x.select(active)` is written once, by
    one expression that adds the scaled r to x, and no full-size
    perturbation is built. A global factor of 0 (rho 0, or a joint norm
    that is 0 or not finite) is every active layer's factor, and both
    modes then write through one rule: an active entry whose factor is 0
    gets x + 0.0, whatever the sign of r there. `norms` holds
    layer_l2_norm(r, active), which the caller has already computed.

    The global joint norm is the square root of the norms' sum of
    squares, taken with overflow ignored. Only when that sum overflows
    while every norm is finite is it taken again over the norms scaled
    by the largest, so a joint norm within the float range stays finite.
    """
    if not x.same_shape(r):
        raise ValueError(f"shape mismatch: {x.dims} vs {r.dims}")
    point = x.copy()
    if cfg.perturb_norm == "per_layer":
        factors = cfg.rho / np.where(norms > 0.0, norms, np.inf)
    else:
        with np.errstate(over="ignore"):
            joint = math.sqrt(norms @ norms)
        if joint == math.inf:
            top = float(np.maximum.reduce(norms))
            if top < math.inf:
                # The squares overflowed, not the norm: sum them scaled by the largest.
                u = norms / top
                joint = top * math.sqrt(u @ u)
        factor = cfg.rho / joint if joint > 0.0 else 0.0
        if factor > 0.0:
            return masked_axpy(point, factor, r, active)
        factors = np.zeros(norms.size)
    span, _, sizes, pick = r.segments(active)
    scale = np.zeros(sizes.size)
    scale[pick] = factors
    scale = scale.repeat(sizes)  # each entry's factor, over data[span]
    all_positive = factors.all()
    lo = span.start
    for k in x.select(active):
        s = scale[k - lo] if isinstance(k, np.ndarray) else scale[k.start - lo : k.stop - lo]
        if all_positive:
            point.data[k] += s * r.data[k]
        else:  # a factor of 0 adds +0.0, not 0.0 * r
            point.data[k] += np.multiply(s, r.data[k], out=np.zeros(s.size), where=s > 0.0)
    return point


def sam_step(
    obj: Objective,
    x: LayeredVector,
    batch: Batch | None,
    state: OptimizerState,
    active: ActiveSet,
    ascent: Ascent,
    sam_cfg: SamConfig | None,
    adamw_cfg: AdamWConfig,
    ascent_pass: tuple[float, LayeredVector] | None = None,
) -> StepTelemetry:
    """One AdamW step on the active layers, descending from an ascent point.

    `ascent` picks where the perturbation direction comes from:

        none    no perturbation; one gradient pass (sam_cfg is unused)
        fresh   an ascent pass at x, then a descent pass at the ascent
                point sam_perturb builds along its gradient
        stale   one pass, at the ascent point along the per-layer stash
                of earlier gradients; the active blocks of the new
                gradient replace their stashed ones and the staleness of
                each is recorded

    Both take their point from sam_perturb: a copy of x whose active
    entries are each written once.

    A stale step perturbs only once a stash exists; the first one creates
    it after its update, and the stash starts as zeros stashed at step 0.
    Every stale step then writes its active blocks, their step number and
    their norms into it the same way, so a layer never stashed is perturbed
    by zero and its staleness is the step number. Both passes see the same
    minibatch.
    The telemetry loss, grad_l1 and per-layer norms come from the step's
    first gradient; a step with no ascent records no per-layer norms.
    A non-finite loss raises DivergenceError naming the step and the pass.

    A fresh step takes its ascent loss and gradient from `ascent_pass`
    when the caller has just made a pass at (x, batch), the objective's
    latest; only the active blocks of that gradient are read, and they
    equal the restricted gradient's.

    The descent pass of a fresh step reuses the forward of the pass at
    x. Below the lowest active layer the ascent point holds x's bits and
    the batch is the same, so an objective that keeps activations (the
    MLP) starts the descent forward and backprop at the lowest stage
    holding an active layer, with every loss and gradient bit for bit
    what a full pass would give. The descent loss is still computed and
    checked.
    """
    n = obj.n_layers
    step_no = state.t + 1
    stale = ascent == "stale"
    active.validate(n)
    idx = active.index
    staleness = np.zeros(0, dtype=np.int64)
    if ascent == "fresh":
        if ascent_pass is None:
            ascent_pass = in_pass(step_no, "ascent", obj.loss_and_grad, x, batch, active)
        loss, first = ascent_pass
        norms = layer_l2_norm(first, active)
        x_pert = sam_perturb(x, first, active, sam_cfg, norms)
        g = in_pass(step_no, "descent", obj.grad, x_pert, batch, active, reuse=True)
    else:
        x_eval = x
        if stale and state.prev_grad is not None:
            staleness = step_no - state.stash_step[idx]
            x_eval = sam_perturb(x, state.prev_grad, active, sam_cfg, state.stash_norm[idx])
        loss, g = in_pass(step_no, "descent", obj.loss_and_grad, x_eval, batch, active)
        first = g
        norms = np.zeros(0) if ascent == "none" else layer_l2_norm(g, active)
    adamw_step(state, x, g, active, adamw_cfg)
    if stale:
        if state.prev_grad is None:
            state.prev_grad = LayeredVector.zeros(g.dims)
            state.stash_step, state.stash_norm = np.zeros(n, dtype=np.int64), np.zeros(n)
        for k in g.select(active):
            state.prev_grad.data[k] = g.data[k]
        state.stash_step[idx] = step_no
        state.stash_norm[idx] = norms
    return StepTelemetry(
        step=step_no,
        loss=loss,
        grad_l1=total_l1_norm(first, active),
        active_layers=idx,
        active_param_count=active_param_count(x, active),
        grad_passes=2 if ascent == "fresh" else 1,
        per_layer_r_norms=norms,
        per_layer_staleness=staleness,
    )


def adamw_baseline_step(
    obj: Objective,
    x: LayeredVector,
    batch: Batch | None,
    state: OptimizerState,
    adamw_cfg: AdamWConfig,
) -> StepTelemetry:
    """One plain dense AdamW step: a single gradient pass over all layers."""
    full = ActiveSet.full(obj.n_layers)
    return sam_step(obj, x, batch, state, full, "none", None, adamw_cfg)


def adasam_step(
    obj: Objective,
    x: LayeredVector,
    batch: Batch | None,
    state: OptimizerState,
    sam_cfg: SamConfig,
    adamw_cfg: AdamWConfig,
) -> StepTelemetry:
    """Dense two-pass step: ascent gradient, perturb, descent gradient."""
    full = ActiveSet.full(obj.n_layers)
    return sam_step(obj, x, batch, state, full, "fresh", sam_cfg, adamw_cfg)


def s2sam_step(
    obj: Objective,
    x: LayeredVector,
    batch: Batch | None,
    state: OptimizerState,
    sam_cfg: SamConfig,
    adamw_cfg: AdamWConfig,
) -> StepTelemetry:
    """Single-pass dense SAM: perturb along the previous step's gradient."""
    full = ActiveSet.full(obj.n_layers)
    return sam_step(obj, x, batch, state, full, "stale", sam_cfg, adamw_cfg)


def _bandit_step(ascent: Ascent, obj, x, batch, state, dist, sam_cfg, adamw_cfg, bandit_cfg, rng):
    """The bandit round trip, on slsam_step's arguments: draw the active
    set, step on it from `ascent`, and update the distribution from the
    step's active-layer norms."""
    active, redraws = sample_active_set(dist, rng)
    tel = sam_step(obj, x, batch, state, active, ascent, sam_cfg, adamw_cfg)
    tel.redraws = redraws
    r = tel.per_layer_r_norms
    return in_pass(tel.step, "sampler", update_distribution, dist, active, r, bandit_cfg), tel


def slsam_step(
    obj: Objective,
    x: LayeredVector,
    batch: Batch | None,
    state: OptimizerState,
    dist: SamplingDistribution,
    sam_cfg: SamConfig,
    adamw_cfg: AdamWConfig,
    bandit_cfg: BanditConfig,
    rng: np.random.Generator,
) -> tuple[SamplingDistribution, StepTelemetry]:
    """Bandit-sampled two-pass SAM plus the distribution update."""
    return _bandit_step("fresh", obj, x, batch, state, dist, sam_cfg, adamw_cfg, bandit_cfg, rng)


def sl_s2sam_step(
    obj: Objective,
    x: LayeredVector,
    batch: Batch | None,
    state: OptimizerState,
    dist: SamplingDistribution,
    sam_cfg: SamConfig,
    adamw_cfg: AdamWConfig,
    bandit_cfg: BanditConfig,
    rng: np.random.Generator,
) -> tuple[SamplingDistribution, StepTelemetry]:
    """Bandit-sampled single-pass SAM with per-layer stale perturbations.

    The bootstrap is a dense s2sam step: it draws no layers and leaves
    the distribution as it is.
    """
    if state.prev_grad is None:
        return dist, s2sam_step(obj, x, batch, state, sam_cfg, adamw_cfg)
    return _bandit_step("stale", obj, x, batch, state, dist, sam_cfg, adamw_cfg, bandit_cfg, rng)


def select_layers_ablation(
    n_layers: int,
    k: int,
    rng: np.random.Generator,
    full_grad: LayeredVector | None = None,
) -> ActiveSet:
    """Non-bandit layer selection: the k layers with the largest norms in
    `full_grad` (ties to the lower index) when it is given, else k layers
    drawn uniformly without replacement.

    `full_grad` is the full gradient at the step's point and batch;
    callers that rank by it must charge its pass (obj.dim) to the step's
    selection_param_count.
    """
    if not 1 <= k <= n_layers:
        raise ValueError(f"k={k} out of range for {n_layers} layers")
    if full_grad is None:
        chosen = rng.choice(n_layers, size=k, replace=False)
    else:
        norms = layer_l2_norm(full_grad, ActiveSet.full(n_layers))
        chosen = np.argsort(-norms, kind="stable")[:k]
    mask = np.zeros(n_layers, dtype=bool)
    mask[chosen] = True
    return ActiveSet.from_mask(mask)


def ablation_step(
    kind: Selector,
    obj: Objective,
    x: LayeredVector,
    batch: Batch | None,
    state: OptimizerState,
    k: int,
    sam_cfg: SamConfig,
    adamw_cfg: AdamWConfig,
    rng: np.random.Generator,
) -> StepTelemetry:
    """Two-pass SAM step whose active set comes from an ablation selector:
    greedy_topk ranks the layers by a full-gradient selection pass, and
    any other kind draws them uniformly.

    greedy_topk's selection pass also serves as its ascent pass: its
    gradient's active blocks are the ones the ascent pass would compute,
    and its forward is the one the descent pass reads. The step is still
    charged a full selection pass (obj.dim) plus two sparse passes.
    """
    ascent_pass = full_grad = None
    if kind == "greedy_topk":
        full = ActiveSet.full(obj.n_layers)
        ascent_pass = in_pass(state.t + 1, "ascent", obj.loss_and_grad, x, batch, full)
        full_grad = ascent_pass[1]
    active = select_layers_ablation(obj.n_layers, k, rng, full_grad)
    tel = sam_step(obj, x, batch, state, active, "fresh", sam_cfg, adamw_cfg, ascent_pass)
    if full_grad is not None:
        tel.selection_param_count = obj.dim
    return tel
