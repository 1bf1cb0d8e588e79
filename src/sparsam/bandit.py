"""Adaptive sampling distribution over layers.

The sampler keeps one inclusion probability per layer, constrained to
the set {p : sum(p) = s, p_min <= p_l <= 1}. A SamplingDistribution
checks on construction that the set is non-empty and that p lies in
it; `kl_project` runs the same feasibility check before projecting.
Each iteration the sparse optimizer draws an active set by independent
Bernoulli trials, scores the sampled layers with a pseudo-loss built
from their ascent gradient norms, shrinks probabilities by an
exponentiated-gradient step, and projects back onto the constraint set
in KL geometry.

The pseudo-loss for a sampled layer is

    k_l = G^2 / p_min^2 - ||r_l||^2 / p_l^2

with G the largest gradient norm sampled this step, so k_l >= 0 and
layers with large gradients relative to their probability shrink least.
Only the sampled layers are scored and shrunk; an unsampled layer keeps
u_l = p_l and is only rescaled by the projection.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from sparsam.errors import DivergenceError
from sparsam.layered import ActiveSet

logger = logging.getLogger(__name__)

SUM_TOL = 1e-9
MAX_SAMPLE_ATTEMPTS = 10_000


def _check_feasible(n: int, s: float, p_min: float) -> None:
    """Raise unless {p : sum(p) = s, p_min <= p_l <= 1} over n layers is non-empty."""
    if not 0.0 < p_min <= 1.0:
        raise ValueError(f"p_min must be in (0, 1], got {p_min}")
    # Written so that a NaN s fails it too.
    if not (n * p_min <= s + SUM_TOL and s <= n + SUM_TOL):
        raise ValueError(f"target sum s={s} infeasible for n={n}, p_min={p_min}")


@dataclass(frozen=True)
class SamplingDistribution:
    """Per-layer inclusion probabilities with budget s and floor p_min."""

    p: np.ndarray
    s: float
    p_min: float

    def __post_init__(self) -> None:
        p = np.ascontiguousarray(self.p, dtype=np.float64)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "p_min", float(self.p_min))
        if p.ndim != 1 or p.size < 1:
            raise ValueError("p must be a non-empty 1-d array")
        _check_feasible(p.size, self.s, self.p_min)
        # min and max propagate NaN, which then fails the comparison.
        if not (self.p_min - SUM_TOL <= p.min() and p.max() <= 1.0 + SUM_TOL):
            raise ValueError("probabilities leave [p_min, 1]")
        if abs(float(p.sum()) - self.s) > SUM_TOL:
            raise ValueError(f"sum(p)={float(p.sum())} deviates from s={self.s}")

    @property
    def n_layers(self) -> int:
        return self.p.size


@dataclass(frozen=True)
class BanditConfig:
    alpha_p: float = 1e-4

    def __post_init__(self) -> None:
        if self.alpha_p <= 0:
            raise ValueError("alpha_p must be positive")


def init_uniform(n_layers: int, s: float, p_min: float) -> SamplingDistribution:
    """Uniform start p_l = s / n; the distribution rejects an infeasible s or p_min."""
    if n_layers < 1:
        raise ValueError("need at least one layer")
    return SamplingDistribution(np.full(n_layers, s / n_layers), s, p_min)


def sample_active_set(
    dist: SamplingDistribution, rng: np.random.Generator
) -> tuple[ActiveSet, int]:
    """Independent Bernoulli draw per layer, redrawn until non-empty.

    Returns the active set and how many redraws the non-empty guarantee
    cost (0 almost always).
    """
    redraws = 0
    while True:
        members = np.flatnonzero(rng.random(dist.n_layers) < dist.p).tolist()
        if members:
            if redraws:
                logger.debug("active set empty %d time(s); redrew", redraws)
            return ActiveSet.from_iterable(members), redraws
        redraws += 1
        if redraws >= MAX_SAMPLE_ATTEMPTS:
            raise RuntimeError(f"no non-empty active set after {redraws} draws")


def pseudo_loss(
    r_norms: np.ndarray, dist: SamplingDistribution, active: ActiveSet
) -> np.ndarray:
    """Scores k >= 0 of the active layers, aligned with `active.indices()`.

    `r_norms` holds the active layers' gradient norms in the same order,
    and the envelope G is the largest of them. Both terms are squared as
    products, so a layer at the envelope with p = p_min scores exactly 0.
    Scores that are not finite (G / p_min beyond about 1.3e154 squares to
    inf, or a norm is NaN) raise DivergenceError naming the layer with
    the largest or NaN norm.
    """
    active.validate(dist.n_layers)
    if len(active) == 0:
        raise ValueError("active set is empty")
    norms = np.asarray(r_norms, dtype=np.float64)
    if norms.shape != (len(active),):
        raise ValueError(f"need one norm per active layer, got shape {norms.shape}")
    if np.minimum.reduce(norms) < 0.0:
        raise ValueError("gradient norms must be non-negative")
    top = float(np.maximum.reduce(norms))
    with np.errstate(over="ignore", invalid="ignore"):
        env, r = top / dist.p_min, norms / dist.p[active.index]
        scores = env * env - r * r
    if not np.isfinite(scores).all():
        # r_l <= G / p_min, so only the envelope overflows: name its layer or the first NaN.
        i = int(np.argmax(norms))
        raise DivergenceError(
            f"pseudo-loss of layer {active.indices()[i]} is not finite: its gradient "
            f"norm {float(norms[i])!r} over p_min={dist.p_min} has no finite square"
        )
    if np.minimum.reduce(scores) < 0.0:
        raise AssertionError("pseudo-loss must be non-negative")
    return scores


def kl_project(u: np.ndarray, s: float, p_min: float) -> SamplingDistribution:
    """KL projection of positive weights u onto {q : sum(q) = s, p_min <= q <= 1}.

    The minimizer has the form q = clip(c * u, p_min, 1) for a scalar
    c > 0 (the capping step of Warmuth & Kuzmin, JMLR 2008, here with a
    floor as well as a cap). mass(c) = sum(clip(c * u, p_min, 1)) is
    continuous, non-decreasing and piecewise linear in c, with
    breakpoints at p_min / u_i and 1 / u_i, built by one sort.

    A binary search over the sorted breakpoints finds the segment whose
    mass brackets s, evaluating the mass only at the breakpoints it
    probes, about log2(2N) of them. At a breakpoint the counts of
    floored and capped coordinates come from bisecting the sorted u, and
    a prefix sum over it gives the free coordinates' total. Strictly
    inside the segment those counts are fixed, so c solves one linear
    equation there. The result is returned as a distribution, which
    re-checks every constraint on construction.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("u must be a non-empty 1-d array")
    # The sort puts NaN last, so the ends of the sorted u check it all.
    us = np.sort(u)
    ul = us.tolist()
    if not (0.0 < ul[0] and ul[-1] < np.inf):
        raise ValueError("u must be finite and strictly positive")
    n = u.size
    s = float(s)
    _check_feasible(n, s, p_min)

    bps = np.sort(np.concatenate((p_min / us, 1.0 / us))).tolist()
    csum = list(accumulate(ul, initial=0.0))  # np.cumsum's sequential sums

    def mass(c: float) -> float:
        n_floor = bisect_right(ul, p_min / c)
        n_cap = min(n - bisect_left(ul, 1.0 / c), n - n_floor)
        return p_min * n_floor + n_cap + c * (csum[n - n_cap] - csum[n_floor])

    # mass(bps[j - 1]) < s <= mass(bps[j]); when s sits at an end of the
    # feasible range (all floored or all capped) the clamp puts c on the
    # outer breakpoint.
    j = min(max(bisect_left(bps, s, key=mass), 1), n + n - 1)
    lo, hi = bps[j - 1], bps[j]
    mid = 0.5 * (lo + hi)
    k_floor, k_free_end = bisect_left(ul, p_min / mid), bisect_left(ul, 1.0 / mid)
    free = float(us[k_floor:k_free_end].sum())
    fixed = p_min * k_floor + (n - k_free_end)
    c = hi if free == 0.0 else min(max((s - fixed) / free, lo), hi)
    return SamplingDistribution(np.clip(c * u, p_min, 1.0), s, p_min)


# Floor of the shrink's exponent: it keeps every u_l > 0 for the projection.
EXPONENT_CLAMP = 50.0


def update_distribution(
    dist: SamplingDistribution,
    active: ActiveSet,
    r_norms: np.ndarray,
    config: BanditConfig,
) -> SamplingDistribution:
    """One sampler update from a step's active-layer norms.

    The active entries of a copy of p shrink by the exponentiated
    gradient u_l = p_l exp(max(-alpha k_l / p_l, -EXPONENT_CLAMP)), the
    others keep u_l = p_l, and u is projected back onto the constraint
    set. An exponent that overflows to -inf meets the clamp.
    """
    k = pseudo_loss(r_norms, dist, active)
    idx = active.index
    p = dist.p[idx]
    u = dist.p.copy()
    with np.errstate(over="ignore"):
        exponent = -config.alpha_p * k / p
    u[idx] = p * np.exp(np.maximum(exponent, -EXPONENT_CLAMP))
    return kl_project(u, dist.s, dist.p_min)
