"""Adaptive sampling distribution over layers.

The sampler keeps one inclusion probability per layer, constrained to
the set {p : sum(p) = s, p_min <= p_l <= 1}. Each iteration the sparse
optimizer draws an active set by independent Bernoulli trials, scores
the sampled layers with a pseudo-loss built from their ascent gradient
norms, shrinks probabilities by an exponentiated-gradient step, and
projects back onto the constraint set in KL geometry.

The pseudo-loss for a sampled layer is

    k_l = G^2 / p_min^2 - ||r_l||^2 / p_l^2

with G an upper envelope on the sampled gradient norms, so k_l >= 0 and
layers with large gradients relative to their probability shrink least.
Unsampled layers score zero and are only rescaled by the projection.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from sparsam.layered import ActiveSet

logger = logging.getLogger(__name__)

SUM_TOL = 1e-9
MAX_SAMPLE_ATTEMPTS = 10_000


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
        n = p.size
        if not 0.0 < self.p_min <= 1.0:
            raise ValueError(f"p_min must be in (0, 1], got {self.p_min}")
        if not n * self.p_min <= self.s + SUM_TOL:
            raise ValueError(f"budget s={self.s} infeasible: below {n} * p_min={self.p_min}")
        if self.s > n + SUM_TOL:
            raise ValueError(f"budget s={self.s} exceeds layer count {n}")
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
    exponent_clamp: float = 50.0
    g_mode: str = "current"

    def __post_init__(self) -> None:
        if self.alpha_p <= 0:
            raise ValueError("alpha_p must be positive")
        if self.exponent_clamp <= 0:
            raise ValueError("exponent_clamp must be positive")
        if self.g_mode not in ("current", "running"):
            raise ValueError(f"unknown g_mode {self.g_mode!r}")


def init_uniform(n_layers: int, s: float, p_min: float) -> SamplingDistribution:
    """Uniform feasible start p_l = s / n."""
    if n_layers < 1:
        raise ValueError("need at least one layer")
    s = float(s)
    if not 0.0 < s <= n_layers:
        raise ValueError(f"budget s={s} must be in (0, {n_layers}]")
    p0 = s / n_layers
    if p0 < p_min:
        raise ValueError(f"uniform start {p0} falls below p_min={p_min}")
    return SamplingDistribution(np.full(n_layers, p0), s, p_min)


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
    r_norms: np.ndarray,
    dist: SamplingDistribution,
    active: ActiveSet,
    g: float | None = None,
) -> np.ndarray:
    """Per-layer scores k, zero off the active set and >= 0 on it.

    `r_norms` holds the active layers' gradient norms, aligned with
    `active.indices()`. `g` overrides the envelope G; by default it is
    the max gradient norm over the current active set. Both terms are
    squared as products, so a layer at the envelope with p = p_min
    scores exactly 0.
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
    g_env = top if g is None else float(g)
    if g_env < top:
        raise ValueError("envelope G below a sampled gradient norm")
    env, r = g_env / dist.p_min, norms / dist.p[active.index]
    scores = env * env - r * r
    if np.minimum.reduce(scores) < 0.0:
        raise AssertionError("pseudo-loss must be non-negative")
    k = np.zeros(dist.n_layers)
    k[active.index] = scores
    return k


def exp_update(
    dist: SamplingDistribution, k: np.ndarray, config: BanditConfig
) -> np.ndarray:
    """Unnormalized exponentiated-gradient shrink u_l = p_l exp(-a k_l / p_l)."""
    k = np.asarray(k, dtype=np.float64)
    if k.shape != dist.p.shape:
        raise ValueError(f"k shape {k.shape} does not match p shape {dist.p.shape}")
    if (k < 0).any():
        raise ValueError("pseudo-losses must be non-negative")
    exponent = np.clip(-config.alpha_p * k / dist.p, -config.exponent_clamp, 0.0)
    return dist.p * np.exp(exponent)


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
    if not 0.0 < p_min <= 1.0:
        raise ValueError(f"p_min must be in (0, 1], got {p_min}")
    # Written so that a NaN s fails it too.
    if not (n * p_min <= s + SUM_TOL and s <= n + SUM_TOL):
        raise ValueError(f"target sum s={s} infeasible for n={n}, p_min={p_min}")

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


def update_distribution(
    dist: SamplingDistribution,
    active: ActiveSet,
    r_norms: np.ndarray,
    config: BanditConfig,
    g: float | None = None,
) -> SamplingDistribution:
    """One full sampler update: score, shrink, project."""
    k = pseudo_loss(r_norms, dist, active, g=g)
    u = exp_update(dist, k, config)
    return kl_project(u, dist.s, dist.p_min)
