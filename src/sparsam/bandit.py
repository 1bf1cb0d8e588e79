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

Two paths give the same bits. Over at most FLOAT_PATH_LAYERS layers,
`update_distribution` and `kl_project` run in Python floats: the
scores, the shrink, the sort, the breakpoint search, the clamp and the
distribution's range check. There a NumPy call costs about a
microsecond whatever its length, and the update on arrays makes about
25 of them on 1 to 8 entries: by timeit (2-core x86 VM) it takes
14-15 us at N = 6 and 8 in floats against 28-29 us on arrays. The
float path's cost grows faster with N: it breaks even between 24 and
48 layers and is about 1.4 times slower at N = 100. So the cutoff
sits at the MLPs' 6 and 8 layers, and N = 100 keeps the NumPy path.
Python floats add, multiply, divide, compare and sort as NumPy's
float64 does. Three calls stay NumPy's because their bits are
NumPy's own: np.exp for the shrink (math.exp differs from it in the
last bit for about 5% of arguments), and np.add.reduce for the free
coordinates' sum and for the sum check (its order is neither left to
right nor the compensated sum() of Python 3.12). Where the float path
cannot show equal bits (a norm that is negative or not finite, an
envelope with no finite square, a score below zero, a p at or below
zero, a failed check) it hands the call to the NumPy path, so every
error keeps its type, its message and its warnings.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from sparsam.errors import DivergenceError
from sparsam.layered import ActiveSet

logger = logging.getLogger(__name__)

SUM_TOL = 1e-9
MAX_SAMPLE_ATTEMPTS = 10_000
# Distributions over at most this many layers update and project in
# Python floats: the shipped MLPs' 6 and 8, well below the crossover with
# the NumPy path (24 to 48 layers, see the module docstring).
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
        if not (self.p_min - SUM_TOL <= np.minimum.reduce(p) and np.maximum.reduce(p) <= 1.0 + SUM_TOL):
            raise ValueError("probabilities leave [p_min, 1]")
        total = float(np.add.reduce(p))
        if abs(total - self.s) > SUM_TOL:
            raise ValueError(f"sum(p)={total} deviates from s={self.s}")

    @classmethod
    def _from_floats(cls, q: list[float], s: float, p_min: float) -> SamplingDistribution | None:
        """The distribution over q, with the range check made in Python
        floats and the sum check as the constructor makes it, for float s
        and p_min whose budget _check_feasible has passed at len(q) layers.
        None where a check fails, so that the constructor can raise."""
        lo, hi = p_min - SUM_TOL, 1.0 + SUM_TOL
        for x in q:
            if not lo <= x <= hi:  # NaN fails it too
                return None
        p = np.array(q)
        if abs(float(np.add.reduce(p)) - s) > SUM_TOL:
            return None
        dist = object.__new__(cls)
        object.__setattr__(dist, "p", p)
        object.__setattr__(dist, "s", s)
        object.__setattr__(dist, "p_min", p_min)
        return dist

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

    Returns the active set, built from the draw's mask (interned over at
    most INTERN_LAYERS layers), and how many redraws the non-empty
    guarantee cost (0 almost always).
    """
    redraws = 0
    while True:
        active = ActiveSet.from_mask(rng.random(dist.n_layers) < dist.p)
        if len(active):
            if redraws:
                logger.debug("active set empty %d time(s); redrew", redraws)
            return active, redraws
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
        square = env * env
        scores = square - r * r
    # No score exceeds a finite square of the envelope, so with none below
    # zero (NaN fails the comparison) every score is finite.
    if square < math.inf and np.minimum.reduce(scores) >= 0.0:
        return scores
    if not np.isfinite(scores).all():
        # r_l <= G / p_min, so only the envelope overflows: name its layer or the first NaN.
        i = int(np.argmax(norms))
        raise DivergenceError(
            f"pseudo-loss of layer {active.indices()[i]} is not finite: its gradient "
            f"norm {float(norms[i])!r} over p_min={dist.p_min} has no finite square"
        )
    raise AssertionError("pseudo-loss must be non-negative")


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
    floats (`_kl_project_floats`), with the same bits; any other input,
    and any the float path declines, takes the NumPy path below.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.size <= FLOAT_PATH_LAYERS and u.ndim == 1 and u.size and isinstance(p_min, float):
        q = _kl_project_floats(u.tolist(), s, p_min)
        if q is not None:
            return q
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
    if 1e-300 < ul[0] and ul[-1] < 1e300 * ul[0]:
        q = _scaled(u, us, ul, s, p_min)
    else:
        # A weight below 1e-300, or weights spread wider than 1e300, can
        # overflow a breakpoint or c * u to inf, which the sort and the cap
        # handle as intended. errstate costs about a microsecond, so it is
        # entered only here.
        with np.errstate(over="ignore"):
            q = _scaled(u, us, ul, s, p_min)
    np.maximum(q, p_min, out=q)
    return SamplingDistribution(np.minimum(q, 1.0, out=q), s, p_min)


def _scaled(u: np.ndarray, us: np.ndarray, ul: list[float], s: float, p_min: float) -> np.ndarray:
    """c * u on arrays, with us the sorted u and ul the same as a list."""
    bps = np.sort(np.concatenate((p_min / us, 1.0 / us))).tolist()
    return _multiplier(us, ul, bps, s, p_min) * u


def _multiplier(us: np.ndarray, ul: list[float], bps: list[float], s: float, p_min: float) -> float:
    """The projection's c from the sorted weights, as an array `us` and as
    a list `ul`, and their sorted breakpoints `bps`."""
    n = len(ul)
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
    free = float(np.add.reduce(us[k_floor:k_free_end]))
    fixed = p_min * k_floor + (n - k_free_end)
    return hi if free == 0.0 else min(max((s - fixed) / free, lo), hi)


def _kl_project_floats(u: list[float], s: float, p_min: float) -> SamplingDistribution | None:
    """kl_project in Python floats, bit for bit, over a few weights.

    Every step is IEEE arithmetic, comparison or sorting, which Python
    floats do as NumPy does, except the two sums, which go through
    np.add.reduce: its pairwise order is NumPy's own. Returns None for a
    weight that is not finite and positive, or a result that fails the
    distribution's checks, so that the NumPy path raises as it would;
    an infeasible budget raises here with the same error.
    """
    for x in u:
        if not 0.0 < x < math.inf:
            return None
    s = float(s)
    _check_feasible(len(u), s, p_min)
    p_min = float(p_min)  # a NumPy scalar would warn on the overflows it computes
    ul = sorted(u)
    bps = sorted([p_min / x for x in ul] + [1.0 / x for x in ul])
    c = _multiplier(np.array(ul), ul, bps, s, p_min)
    q = []
    for x in u:
        y = c * x
        # np.maximum, then np.minimum; NaN passes through both, as there.
        q.append(p_min if y < p_min else 1.0 if y > 1.0 else y)
    return SamplingDistribution._from_floats(q, s, p_min)


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
    set through kl_project. An exponent that overflows to -inf meets the
    clamp. Over at most FLOAT_PATH_LAYERS layers the shrink runs in
    Python floats (`_shrink_floats`), with the same bits, unless it
    declines the input; then, and for more layers, NumPy arrays do it.
    """
    if dist.n_layers <= FLOAT_PATH_LAYERS:
        u = _shrink_floats(dist, active, r_norms, config.alpha_p)
        if u is not None:
            return kl_project(u, dist.s, dist.p_min)
    k = pseudo_loss(r_norms, dist, active)
    idx = active.index
    p = dist.p[idx]
    u = dist.p.copy()
    with np.errstate(over="ignore"):
        exponent = -config.alpha_p * k / p
    u[idx] = p * np.exp(np.maximum(exponent, -EXPONENT_CLAMP))
    return kl_project(u, dist.s, dist.p_min)


def _shrink_floats(
    dist: SamplingDistribution, active: ActiveSet, r_norms: np.ndarray, alpha: float
) -> list[float] | None:
    """The shrunk weights u in Python floats, bit for bit, with pseudo_loss's
    scores computed the same way; np.exp stays NumPy's.

    Returns None where the NumPy path would raise or warn, or where the
    equality is not shown: a norm that is negative or not finite, an
    envelope with no finite square, a score below zero, a sampled p at or
    below zero, or a step size that is not a finite positive float. The
    one check that raises here, the range of the active set, is
    pseudo_loss's first, with the same error.
    """
    active.validate(dist.n_layers)
    if not len(active) or not (isinstance(alpha, float) and 0.0 < alpha < math.inf):
        return None
    norms = np.asarray(r_norms, dtype=np.float64)
    if norms.shape != (len(active),):
        return None
    rl = norms.tolist()
    for r in rl:
        if not 0.0 <= r < math.inf:
            return None
    env = max(rl) / dist.p_min
    square = env * env
    if not square < math.inf:
        return None
    neg_alpha = -float(alpha)
    u = dist.p.tolist()
    exponents = []
    for l, r in zip(active, rl):
        p = u[l]
        if not p > 0.0:
            return None
        x = r / p
        k = square - x * x
        if not k >= 0.0:
            return None
        # k >= 0 and p > 0, so the exponent is at most 0 and never NaN; one
        # overflowing to -inf meets the clamp as np.maximum has it.
        e = neg_alpha * k / p
        exponents.append(e if e > -EXPONENT_CLAMP else -EXPONENT_CLAMP)
    for l, shrink in zip(active, np.exp(exponents).tolist()):
        u[l] *= shrink
    return u
