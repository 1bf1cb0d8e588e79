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

    k_l = G^2 / p_min^2 - ||r_l||^2 / max(p_l, p_min)^2

with G the largest gradient norm sampled this step, so k_l >= 0 and
layers with large gradients relative to their probability shrink least.
A distribution may hold p_l up to SUM_TOL * p_min below the floor; the
score divides by the floor there, so it never goes negative.
Only the sampled layers are scored and shrunk; an unsampled layer keeps
u_l = p_l and is only rescaled by the projection.

The scores and the shrink's exponents and clamp run in Python floats
at every layer count. They touch only the sampled layers, where a
NumPy call on a few entries costs more than its arithmetic, and Python
floats add, multiply, divide, compare and sort as NumPy's float64
does. The projection's sort and clip touch all N weights, so
`kl_project` runs in Python floats over at most FLOAT_PATH_LAYERS
weights and on NumPy arrays over more. The two projections give the
same bits and raise the same errors, with the same type and message;
neither hands a call to the other, and both return through the
distribution's one constructor, which makes the range and sum checks.
Weights whose sum overflows are first scaled down by a power of two,
which leaves the projection as it is and keeps every sum of them
finite. Three calls stay NumPy's
because their bits are NumPy's own: np.exp for the shrink (math.exp
differs from it in the last bit for about 5% of arguments), and
np.add.reduce for the free coordinates' sum and for the sum check (its
order is neither left to right nor the compensated sum() of Python
3.12). The shrunk weights stay an array, so the projection converts no
list of N weights.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from sparsam.errors import ConfigError, DivergenceError
from sparsam.layered import ActiveSet

SUM_TOL = 1e-9
MAX_SAMPLE_ATTEMPTS = 10_000
# kl_project runs in Python floats over at most this many weights. By
# timeit (2-core x86 VM) the float projection takes 10 / 12 us at N = 6 / 8
# against 18 us on arrays, breaks even between 32 and 48 weights, and takes
# 43 us against 29 us at N = 100; so the shipped MLPs' 6 and 8 layers take
# it, and quad-wide's 100 do not.
FLOAT_PATH_LAYERS = 8


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
        # minimum and maximum propagate NaN, which then fails the comparison.
        # The slack below the floor scales with it, as 1 + SUM_TOL does with
        # the cap, so a floor far below SUM_TOL still refuses p far below it.
        lo = np.minimum.reduce(p)
        if not (self.p_min - SUM_TOL * self.p_min <= lo and np.maximum.reduce(p) <= 1.0 + SUM_TOL):
            raise ValueError("probabilities leave [p_min, 1]")
        total = float(np.add.reduce(p))
        if abs(total - self.s) > SUM_TOL:
            raise ValueError(f"sum(p)={total} deviates from s={self.s}")

    @property
    def n_layers(self) -> int:
        return self.p.size


@dataclass(frozen=True)
class BanditConfig:
    alpha_p: float = 1e-4

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha_p < math.inf:  # NaN fails it too
            raise ValueError("alpha_p must be positive and finite")


def init_uniform(n_layers: int, s: float, p_min: float) -> SamplingDistribution:
    """Uniform start p_l = s / n; the distribution rejects an infeasible s or p_min."""
    if n_layers < 1:
        raise ValueError("need at least one layer")
    return SamplingDistribution(np.full(n_layers, s / n_layers), s, p_min)


def sample_active_set(
    dist: SamplingDistribution, rng: np.random.Generator
) -> tuple[ActiveSet, int]:
    """Independent Bernoulli draw per layer, redrawn until non-empty.

    Returns the active set, built from the draw's mask (interned over at
    most INTERN_LAYERS layers), and how many redraws the non-empty
    guarantee cost (0 almost always). A budget s so small that
    MAX_SAMPLE_ATTEMPTS draws in a row come up empty raises ConfigError
    naming s, the layer count and the draws.
    """
    redraws = 0
    while True:
        active = ActiveSet.from_mask(rng.random(dist.n_layers) < dist.p)
        if len(active):
            return active, redraws
        redraws += 1
        if redraws >= MAX_SAMPLE_ATTEMPTS:
            budget = f"sampling budget s={dist.s!r} over {dist.n_layers} layer(s)"
            raise ConfigError(f"{budget} drew no layer in {redraws} draws; raise bandit.s_over_n")


def pseudo_loss(
    r_norms: np.ndarray, dist: SamplingDistribution, active: ActiveSet
) -> list[float]:
    """Scores k >= 0 of the active layers, a list aligned with `active.indices()`.

    `r_norms` holds the active layers' gradient norms in the same order,
    and the envelope G is the largest of them. Each layer is scored at
    max(p_l, p_min), so a p within the distribution's slack below the
    floor scores as the floor does, and every score lies in
    [0, (G / p_min)^2]. Both terms are squared as products, so a layer at
    the envelope with p at or below p_min scores exactly 0.
    The scores are Python floats with NumPy's float64 bits. A NaN norm
    raises DivergenceError naming the first one, ahead of any negative
    norm's ValueError; scores that are not finite (G / p_min beyond
    about 1.3e154 squares to inf) raise DivergenceError naming the first
    layer with the largest norm.
    """
    active.validate(dist.n_layers)
    if len(active) == 0:
        raise ValueError("active set is empty")
    norms = np.asarray(r_norms, dtype=np.float64)
    if norms.shape != (len(active),):
        raise ValueError(f"need one norm per active layer, got shape {norms.shape}")
    rl = norms.tolist()
    # No norm is negative or NaN: a NaN is first in neither min nor max,
    # but it makes the sum NaN.
    if 0.0 <= min(rl) and 0.0 <= sum(rl):
        top = max(rl)
        env = top / dist.p_min
        square = env * env
        if square < math.inf:
            p, p_min = dist.p.tolist(), dist.p_min
            scores = []
            for l, r in zip(active, rl):
                # r <= G and max(p_l, p_min) >= p_min, so x <= G / p_min
                # after rounding too, and the score lies in [0, square].
                x = r / max(p[l], p_min)
                scores.append(square - x * x)
            return scores
        # r_l <= G / p_min, so only the envelope overflows: name its layer.
        i = rl.index(top)
    else:
        i = next((i for i, r in enumerate(rl) if r != r), -1)
        if i < 0:
            raise ValueError("gradient norms must be non-negative")
    raise DivergenceError(
        f"pseudo-loss of layer {active.indices()[i]} is not finite: its gradient "
        f"norm {rl[i]!r} over p_min={dist.p_min} has no finite square"
    )


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

    Over at most FLOAT_PATH_LAYERS weights the projection runs in Python
    floats (`_kl_project_floats`), with the same bits and the same errors;
    over more it runs on arrays below, which compute the breakpoints and
    c * u with overflow ignored: a breakpoint or a product that overflows
    is inf, and the sort and the cap handle it as intended. Either path
    takes s and p_min as Python floats, whatever numeric type they come in,
    and projects weights whose sum overflows scaled down by a power of two
    (`_scaled_down`), which gives the same projection.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("u must be a non-empty 1-d array")
    if u.size <= FLOAT_PATH_LAYERS:
        return _kl_project_floats(u.tolist(), s, p_min)
    # The sort puts NaN last, so the ends of the sorted u check it all.
    us = np.sort(u)
    ul = us.tolist()
    if not (0.0 < ul[0] and ul[-1] < np.inf):
        raise ValueError("u must be finite and strictly positive")
    n = u.size
    s, p_min = float(s), float(p_min)
    _check_feasible(n, s, p_min)
    csum = list(accumulate(ul, initial=0.0))  # np.cumsum's sequential sums
    if csum[-1] == math.inf:
        return kl_project(_scaled_down(u, ul[-1]), s, p_min)
    with np.errstate(over="ignore"):
        bps = np.sort(np.concatenate((p_min / us, 1.0 / us))).tolist()
        q = _multiplier(us, ul, csum, bps, s, p_min) * u
    np.maximum(q, p_min, out=q)
    return SamplingDistribution(np.minimum(q, 1.0, out=q), s, p_min)


def _multiplier(us, ul: list[float], csum: list[float], bps: list[float], s, p_min) -> float:
    """The projection's c from the sorted weights, as an array or a list
    `us` and as a list `ul`, their prefix sums `csum` and their sorted
    breakpoints `bps`, for float s and p_min. Only the free coordinates'
    slice of `us` is summed, so a list `us` converts just that slice to
    an array."""
    n = len(ul)

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
    free = float(np.add.reduce(us[k_floor:k_free_end]))
    fixed = p_min * k_floor + (n - k_free_end)
    return hi if free == 0.0 else min(max((s - fixed) / free, lo), hi)


def _scaled_down(u: np.ndarray | list[float], top: float) -> np.ndarray:
    """u times the power of two that puts N * top, with top its largest
    weight, below half the float maximum, so no sum of the weights
    overflows. The projection is the same for u scaled. A weight scaled
    below the least subnormal is kept at it, where it floors."""
    k = 1023 - len(u).bit_length() - math.frexp(top)[1]
    return np.maximum(np.multiply(u, 2.0**k), 5e-324)


def _kl_project_floats(u: list[float], s: float, p_min: float) -> SamplingDistribution:
    """kl_project in Python floats, bit for bit, over a few weights.

    Every step is IEEE arithmetic, comparison or sorting, which Python
    floats do as NumPy does, except the two sums, which go through
    np.add.reduce: its pairwise order is NumPy's own. A weight that is
    not finite and positive and an infeasible budget raise the array
    path's errors, in its order. The result is built, as there, by the
    distribution's constructor, whose range and sum checks see the same
    array and raise the same errors.
    """
    for x in u:
        if not 0.0 < x < math.inf:  # NaN fails it too
            raise ValueError("u must be finite and strictly positive")
    # A NumPy scalar would compute in its own type and warn on overflows.
    s, p_min = float(s), float(p_min)
    _check_feasible(len(u), s, p_min)
    ul = sorted(u)
    csum = list(accumulate(ul, initial=0.0))
    if csum[-1] == math.inf:
        return kl_project(_scaled_down(u, ul[-1]), s, p_min)
    bps = sorted([p_min / x for x in ul] + [1.0 / x for x in ul])
    c = _multiplier(ul, ul, csum, bps, s, p_min)
    q = []
    for x in u:
        y = c * x
        # np.maximum, then np.minimum; NaN passes through both, as there.
        q.append(p_min if y < p_min else 1.0 if y > 1.0 else y)
    return SamplingDistribution(np.array(q), s, p_min)


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
    set through kl_project. The exponent and its clamp are Python floats
    at every layer count, so an exponent that overflows to -inf meets
    the clamp with no warning; np.exp and the product with p are one
    NumPy call each over the sampled entries, written into a copy of p,
    so kl_project gets an array and converts no list of N weights.
    """
    k = pseudo_loss(r_norms, dist, active)
    idx = active.index
    p = dist.p[idx]
    neg_alpha = -float(config.alpha_p)
    exponents = []
    for kl, pl in zip(k, p.tolist()):
        # k >= 0, p > 0 and alpha is finite and positive, so the exponent
        # is at most 0 and never NaN.
        e = neg_alpha * kl / pl
        exponents.append(e if e > -EXPONENT_CLAMP else -EXPONENT_CLAMP)
    u = dist.p.copy()
    u[idx] = p * np.exp(exponents)
    return kl_project(u, dist.s, dist.p_min)
