"""Sampling distribution, pseudo-loss, exponentiated update, KL projection."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparsam import bandit
from sparsam.bandit import (
    BanditConfig,
    SamplingDistribution,
    init_uniform,
    kl_project,
    pseudo_loss,
    sample_active_set,
    update_distribution,
)
from sparsam.errors import DivergenceError
from sparsam.layered import ActiveSet
from sparsam.rng import stream

# 0.5 * exp(-7.68), evaluated at 50 decimal digits and rounded to double.
EXP_UPDATE_HALF_E768 = 2.3098744939082559e-04


def feasible_instance(draw):
    n = draw(st.integers(2, 6))
    p_min = draw(st.floats(1e-3, 0.15))
    s = draw(st.floats(n * p_min * 1.01 + 1e-6, n * 0.999))
    u = [draw(st.floats(1e-6, 10.0)) for _ in range(n)]
    return np.array(u), float(s), float(p_min)


instances = st.builds(lambda d: d, st.data())


class TestSamplingDistribution:
    def test_rejects_sum_mismatch(self):
        with pytest.raises(ValueError):
            SamplingDistribution(np.array([0.5, 0.6]), s=1.0, p_min=0.1)

    def test_rejects_below_floor(self):
        with pytest.raises(ValueError):
            SamplingDistribution(np.array([0.05, 0.95]), s=1.0, p_min=0.1)

    def test_rejects_above_one(self):
        with pytest.raises(ValueError):
            SamplingDistribution(np.array([1.2, 0.8]), s=2.0, p_min=0.1)

    def test_rejects_infeasible_floor(self):
        with pytest.raises(ValueError):
            SamplingDistribution(np.array([0.5, 0.5]), s=1.0, p_min=0.6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_probability(self, bad):
        # Every comparison with NaN is false, so a check written as
        # "p < p_min or p > 1" lets a NaN through.
        with pytest.raises(ValueError, match=r"probabilities leave \[p_min, 1\]"):
            SamplingDistribution(np.array([bad, 0.5]), s=1.0, p_min=0.1)


class TestInitUniform:
    def test_ten_layers_budget_two(self):
        dist = init_uniform(10, 2.0, 0.02)
        assert np.array_equal(dist.p, np.full(10, 0.2))

    def test_dense_limit(self):
        dist = init_uniform(4, 4.0, 0.1)
        assert np.array_equal(dist.p, np.ones(4))

    def test_infeasible_floor(self):
        with pytest.raises(ValueError):
            init_uniform(2, 1.0, 0.6)

    def test_budget_above_n(self):
        with pytest.raises(ValueError):
            init_uniform(3, 3.5, 0.1)


class TestSampleActiveSet:
    def test_deterministic_probabilities(self):
        dist = SamplingDistribution(np.array([1.0, 1.0]), s=2.0, p_min=0.5)
        rng = stream(0, "test")
        for _ in range(20):
            active, redraws = sample_active_set(dist, rng)
            assert active.indices() == [0, 1]
            assert redraws == 0

    def test_mean_size_over_all_attempts(self):
        # Counting redrawn empty draws as size-0 attempts recovers the
        # unconditioned Bernoulli mean sum(p) = 1.
        dist = SamplingDistribution(np.array([0.5, 0.5]), s=1.0, p_min=0.1)
        rng = stream(1, "test")
        attempts = 0
        total = 0
        while attempts < 100_000:
            active, redraws = sample_active_set(dist, rng)
            attempts += redraws + 1
            total += len(active)
        assert abs(total / attempts - 1.0) <= 0.02

    def test_tiny_floor_still_nonempty(self):
        dist = SamplingDistribution(np.array([0.01, 0.01]), s=0.02, p_min=0.01)
        rng = stream(2, "test")
        for _ in range(10):
            active, _ = sample_active_set(dist, rng)
            assert len(active) >= 1

    def test_same_stream_same_sets(self):
        dist = init_uniform(6, 2.0, 0.02)
        a = [sample_active_set(dist, stream(7, "a"))[0].indices() for _ in range(1)]
        b = [sample_active_set(dist, stream(7, "a"))[0].indices() for _ in range(1)]
        assert a == b

    def test_inclusion_frequency_tracks_p(self):
        # N large enough that the nonempty-redraw correction is negligible
        # next to the 4-sigma band.
        n, p, trials = 20, 0.3, 10_000
        dist = SamplingDistribution(np.full(n, p), s=n * p, p_min=0.02)
        rng = stream(3, "test")
        counts = np.zeros(n)
        for _ in range(trials):
            active, _ = sample_active_set(dist, rng)
            for l in active:
                counts[l] += 1
        band = 4.0 * math.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(counts / trials - p) <= band)


class TestPseudoLoss:
    def test_worked_example(self):
        dist = SamplingDistribution(np.array([0.5, 0.5]), s=1.0, p_min=0.1)
        k = pseudo_loss(np.array([2.0]), dist, ActiveSet.of(0))
        assert k.tolist() == [384.0]

    def test_exact_cancellation_at_floor(self):
        dist = SamplingDistribution(np.array([0.1, 0.9]), s=1.0, p_min=0.1)
        k = pseudo_loss(np.array([2.0]), dist, ActiveSet.of(0))
        assert k[0] == 0.0

    def test_scores_only_the_active_layers(self):
        # One score per active layer, in the order of active.indices().
        dist = init_uniform(4, 1.0, 0.02)
        k = pseudo_loss(np.array([1.0, 0.5]), dist, ActiveSet.of(2, 1))
        env = 1.0 / 0.02
        assert k.tolist() == [env * env - 16.0, env * env - 4.0]

    def test_empty_active_rejected(self):
        dist = init_uniform(2, 1.0, 0.1)
        with pytest.raises(ValueError):
            pseudo_loss(np.zeros(0), dist, ActiveSet.from_iterable([]))

    def test_norms_must_cover_active(self):
        dist = init_uniform(3, 1.0, 0.02)
        with pytest.raises(ValueError):
            pseudo_loss(np.array([1.0]), dist, ActiveSet.of(0, 1))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_always_nonnegative(self, data):
        n = data.draw(st.integers(2, 6))
        dist = init_uniform(n, n * 0.3, 0.01)
        size = data.draw(st.integers(1, n))
        members = data.draw(
            st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)
        )
        active = ActiveSet.from_iterable(members)
        norms = np.array([data.draw(st.floats(0.0, 100.0)) for _ in active])
        k = pseudo_loss(norms, dist, active)
        assert k.shape == (len(active),)
        assert np.all(k >= 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_names_the_layer(self):
        # (1e154 / 0.5)^2 is beyond the float range: inf - inf would be NaN.
        dist = SamplingDistribution(np.array([0.5, 1.0]), s=1.5, p_min=0.5)
        norms, active = np.array([1e154, 0.0]), ActiveSet.of(0, 1)
        with pytest.raises(DivergenceError, match="pseudo-loss of layer 0 is not finite"):
            pseudo_loss(norms, dist, active)
        with pytest.raises(DivergenceError, match="pseudo-loss of layer 0 is not finite"):
            update_distribution(dist, active, norms, BanditConfig())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_norm_names_the_layer(self):
        dist = init_uniform(3, 1.0, 0.02)
        with pytest.raises(DivergenceError, match="pseudo-loss of layer 1 is not finite"):
            pseudo_loss(np.array([1.0, np.nan]), dist, ActiveSet.of(0, 1))


def closed_form_pseudo_loss(r_norms, dist, active) -> np.ndarray:
    """k_l = (G / p_min)^2 - (r_l / p_l)^2 for the active layers, in the
    order of active.indices(), with G the largest of their norms; layer
    by layer in Python floats, each square a product."""
    env = max(r_norms) / dist.p_min
    k = []
    for l, r in zip(active, r_norms):
        x = r / float(dist.p[l])
        k.append(env * env - x * x)
    return np.array(k)


class TestPseudoLossClosedForm:
    def test_squares_are_products(self):
        # Layer 1's (1.463 / 0.054) ** 2 through glibc's pow and the same
        # square as x*x differ in the last bit; the score takes x*x.
        dist = SamplingDistribution(np.array([0.946, 0.054]), s=1.0, p_min=0.05)
        k = pseudo_loss(np.array([0.852, 1.463]), dist, ActiveSet.of(0, 1))
        env, x = 1.463 / 0.05, 1.463 / 0.054
        assert k[1] == env * env - x * x

    @given(
        norm=st.floats(1e-100, 1e100),
        p_min=st.floats(1e-3, 0.5),
        other=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_envelope_layer_at_the_floor_scores_zero(self, norm, p_min, other):
        dist = SamplingDistribution(np.array([p_min, 1.0]), s=1.0 + p_min, p_min=p_min)
        k = pseudo_loss(np.array([norm, other * norm]), dist, ActiveSet.of(0, 1))
        assert k[0] == 0.0

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_closed_form(self, data):
        n = data.draw(st.integers(1, 40))
        s = n * data.draw(st.floats(0.05, 1.0))
        p_min = data.draw(st.floats(0.01, 1.0)) * s / n
        dist = init_uniform(n, s, p_min)
        # A few exponentiated updates move p off the uniform start.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
        for _ in range(3):
            u = reference_exp_update(dist, rng.random(n) * 1e3, BanditConfig(alpha_p=1e-3))
            dist = kl_project(u, dist.s, dist.p_min)
        members = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        active = ActiveSet.from_iterable(members)
        norms = np.array([data.draw(st.floats(0.0, 1e3)) for _ in active])
        want = closed_form_pseudo_loss(norms, dist, active)
        assert np.array_equal(pseudo_loss(norms, dist, active), want)


def reference_pseudo_loss(r_norms, dist, active) -> np.ndarray:
    """The pseudo-loss as an N-vector, zero off the active set, as the
    update first scored it."""
    norms = np.asarray(r_norms, dtype=np.float64)
    env, r = float(np.maximum.reduce(norms)) / dist.p_min, norms / dist.p[active.index]
    k = np.zeros(dist.n_layers)
    k[active.index] = env * env - r * r
    return k


def reference_exp_update(dist, k, config) -> np.ndarray:
    """The shrink as first implemented, over every layer:
    u_l = p_l exp(clip(-alpha k_l / p_l, -EXPONENT_CLAMP, 0))."""
    exponent = np.clip(-config.alpha_p * k / dist.p, -bandit.EXPONENT_CLAMP, 0.0)
    return dist.p * np.exp(exponent)


def reference_update(dist, active, r_norms, config) -> SamplingDistribution:
    """Score every layer, shrink every layer, project."""
    k = reference_pseudo_loss(r_norms, dist, active)
    return kl_project(reference_exp_update(dist, k, config), dist.s, dist.p_min)


class TestExpUpdate:
    """Worked examples of the reference shrink, which update_distribution
    must equal bit for bit."""

    def test_zero_loss_identity(self):
        dist = init_uniform(3, 1.0, 0.02)
        u = reference_exp_update(dist, np.zeros(3), BanditConfig())
        assert np.array_equal(u, dist.p)

    def test_frozen_value(self):
        dist = SamplingDistribution(np.array([0.5, 0.5]), s=1.0, p_min=0.1)
        u = reference_exp_update(dist, np.array([384.0, 0.0]), BanditConfig(alpha_p=0.01))
        assert u[0] == pytest.approx(EXP_UPDATE_HALF_E768, rel=1e-10)
        assert u[0] == pytest.approx(2.30e-4, abs=1e-6)
        assert u[1] == 0.5

    def test_clamp_floor(self):
        dist = SamplingDistribution(np.array([0.5, 0.5]), s=1.0, p_min=0.1)
        cfg = BanditConfig(alpha_p=1.0)
        u = reference_exp_update(dist, np.array([5e5, 0.0]), cfg)  # alpha*k/p = 1e6
        assert bandit.EXPONENT_CLAMP == 50.0
        assert u[0] == 0.5 * math.exp(-50.0)

    def test_bounded_by_p(self):
        dist = init_uniform(4, 1.2, 0.02)
        u = reference_exp_update(dist, np.array([0.0, 1.0, 10.0, 1e9]), BanditConfig())
        assert np.all(u > 0.0)
        assert np.all(u <= dist.p)


def kl_grid_oracle_2d(u: np.ndarray, s: float, p_min: float) -> np.ndarray:
    """Brute-force minimizer on the N=2 slice q = (q0, s - q0)."""

    def kl(q0: float) -> float:
        q = np.array([q0, s - q0])
        return float(np.sum(q * np.log(q / u)))

    lo = max(p_min, s - 1.0)
    hi = min(1.0, s - p_min)
    width = hi - lo
    best = lo
    # Coarse scan then repeated refinement down to a 1e-8 grid.
    for _ in range(5):
        grid = np.linspace(max(lo, best - width), min(hi, best + width), 2001)
        best = grid[int(np.argmin([kl(q) for q in grid]))]
        width /= 1000.0
    return np.array([best, s - best])


class TestKlProject:
    def test_identity_when_feasible(self):
        q = kl_project(np.array([0.4, 0.6]), 1.0, 0.1)
        assert np.allclose(q.p, [0.4, 0.6], atol=1e-9)

    def test_lower_clip_example(self):
        q = kl_project(np.array([2.30e-4, 0.5]), 1.0, 0.1)
        assert np.allclose(q.p, [0.1, 0.9], atol=1e-6)
        oracle = kl_grid_oracle_2d(np.array([2.30e-4, 0.5]), 1.0, 0.1)
        assert np.allclose(q.p, oracle, atol=1e-6)

    def test_upper_clip_example(self):
        q = kl_project(np.array([10.0, 0.5, 0.5]), 2.0, 0.1)
        assert np.allclose(q.p, [1.0, 0.5, 0.5], atol=1e-6)

    def test_two_sided_against_grid_oracle(self):
        for u, s, p_min in [
            (np.array([0.9, 0.1]), 1.0, 0.05),
            (np.array([5.0, 1e-3]), 1.5, 0.2),
            (np.array([0.3, 0.3]), 0.8, 0.1),
        ]:
            q = kl_project(u, s, p_min)
            oracle = kl_grid_oracle_2d(u, s, p_min)
            assert np.allclose(q.p, oracle, atol=1e-6)

    def test_result_is_valid_distribution(self):
        q = kl_project(np.array([3.0, 2.0, 1.0, 0.1]), 1.3, 0.05)
        assert isinstance(q, SamplingDistribution)
        assert abs(float(np.sum(q.p)) - 1.3) <= 1e-9

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            kl_project(np.array([0.0, 1.0]), 1.0, 0.1)

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError):
            kl_project(np.array([1.0, 1.0]), 1.0, 0.6)
        with pytest.raises(ValueError):
            kl_project(np.array([1.0, 1.0]), 2.5, 0.1)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_kkt_single_scalar(self, data):
        u, s, p_min = feasible_instance(data.draw)
        q = kl_project(u, s, p_min).p
        free = (q > p_min * (1 + 1e-9) + 1e-12) & (q < 1 - 1e-9)
        if not np.any(free):
            return
        ratios = q[free] / u[free]
        c = ratios[0]
        assert np.allclose(ratios, c, rtol=1e-6)
        # Clipped coordinates sit on the side their clip direction implies.
        low = q <= p_min * (1 + 1e-9)
        high = q >= 1 - 1e-9
        assert np.all(c * u[low] <= p_min * (1 + 1e-6) + 1e-9)
        assert np.all(c * u[high] >= 1 - 1e-6)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_output_always_feasible(self, data):
        u, s, p_min = feasible_instance(data.draw)
        q = kl_project(u, s, p_min).p
        assert abs(float(np.sum(q)) - s) <= 1e-9
        assert np.all(q >= p_min)
        assert np.all(q <= 1.0)


def bisection_reference(u: np.ndarray, s: float, p_min: float) -> np.ndarray:
    """The projection as first implemented: bisect the multiplier c.

    sum(clip(c * u, p_min, 1)) is non-decreasing in c, so halving
    [0, 1 / min(u)] until the mass is within 1e-12 of s finds c.
    """

    def mass(c: float) -> float:
        return float(np.clip(c * u, p_min, 1.0).sum())

    lo, hi = 0.0, 1.0 / float(u.min())
    c = hi
    for _ in range(200):
        c = 0.5 * (lo + hi)
        m = mass(c)
        if abs(m - s) <= 1e-12:
            break
        if m < s:
            lo = c
        else:
            hi = c
    else:
        assert abs(mass(c) - s) <= 1e-9, "reference bisection missed the target sum"
    return np.clip(c * u, p_min, 1.0)


def closed_form_reference(u: np.ndarray, s: float, p_min: float) -> np.ndarray:
    """The closed-form projection as first implemented: the mass at all
    2N breakpoints by cumulative sums, then one searchsorted."""
    n = u.size
    us = np.sort(u)
    csum = np.concatenate(([0.0], np.cumsum(us)))
    bps = np.sort(np.concatenate((p_min / us, 1.0 / us)))
    n_floor = np.searchsorted(us, p_min / bps, side="right")
    n_cap = np.minimum(n - np.searchsorted(us, 1.0 / bps, side="left"), n - n_floor)
    masses = p_min * n_floor + n_cap + bps * (csum[n - n_cap] - csum[n_floor])
    j = min(max(int(np.searchsorted(masses, s)), 1), n + n - 1)
    lo, hi = bps[j - 1], bps[j]
    mid = 0.5 * (lo + hi)
    k_floor, k_free_end = np.searchsorted(us, (p_min / mid, 1.0 / mid))
    free = float(us[k_floor:k_free_end].sum())
    fixed = p_min * k_floor + (n - k_free_end)
    c = hi if free == 0.0 else min(max((s - fixed) / free, lo), hi)
    return np.clip(c * u, p_min, 1.0)


@st.composite
def projection_instances(draw):
    """(u, s, p_min) with N up to 500, u over e^-50..e^50, and the budget edges."""
    n = draw(st.integers(1, 500))
    exponents = draw(hnp.arrays(np.float64, n, elements=st.floats(-50.0, 50.0)))
    if draw(st.booleans()):
        exponents = np.round(exponents / 10.0) * 10.0  # coarse grid: many ties
    p_min = 10.0 ** draw(st.floats(-6.0, 0.0))
    edge = draw(st.sampled_from(["interior", "s=N", "s=N*p_min", "p_min=s/N"]))
    if edge == "s=N":
        s = float(n)
    elif edge == "s=N*p_min":
        s = n * p_min
    elif edge == "p_min=s/N":
        s = n * p_min
        p_min = s / n
    else:
        s = n * p_min + draw(st.floats(0.0, 1.0)) * n * (1.0 - p_min)
    return np.exp(exponents), s, p_min


class TestKlProjectProperties:
    @given(projection_instances())
    @settings(max_examples=300, deadline=None)
    def test_feasible_and_matches_bisection(self, instance):
        u, s, p_min = instance
        q = kl_project(u, s, p_min).p
        assert abs(float(q.sum()) - s) <= 1e-12
        assert np.all(q >= p_min) and np.all(q <= 1.0)
        assert np.max(np.abs(q - bisection_reference(u, s, p_min))) <= 1e-9

    @given(projection_instances())
    @settings(max_examples=500, deadline=None)
    def test_bit_equal_to_closed_form_reference(self, instance):
        u, s, p_min = instance
        assert np.array_equal(kl_project(u, s, p_min).p, closed_form_reference(u, s, p_min))

    @pytest.mark.parametrize("n", [1, 2, 7, 500])
    def test_budget_edges(self, n):
        u = np.exp(np.linspace(-50.0, 50.0, n))
        assert np.allclose(kl_project(u, float(n), 0.01).p, 1.0, rtol=0.0, atol=1e-12)
        assert np.allclose(kl_project(u, n * 0.01, 0.01).p, 0.01, rtol=0.0, atol=1e-12)
        assert np.allclose(kl_project(np.ones(n), n * 0.3, 0.01).p, 0.3, rtol=0.0, atol=1e-12)

    def test_ties_share_one_probability(self):
        q = kl_project(np.array([2.0, 1.0, 1.0, 1.0, 1e-30]), 2.0, 0.05).p
        assert q[1] == q[2] == q[3]
        assert q[4] == 0.05

    @pytest.mark.parametrize(
        "u, s, p_min, message",
        [
            (np.array([]), 1.0, 0.1, "non-empty 1-d"),
            (np.ones((2, 2)), 1.0, 0.1, "non-empty 1-d"),
            (np.array([0.0, 1.0]), 1.0, 0.1, "finite and strictly positive"),
            (np.array([-1.0, 1.0]), 1.0, 0.1, "finite and strictly positive"),
            (np.array([np.nan, 1.0]), 1.0, 0.1, "finite and strictly positive"),
            (np.array([np.inf, 1.0]), 1.0, 0.1, "finite and strictly positive"),
            (np.array([1.0, 1.0]), 1.0, 0.0, r"p_min must be in \(0, 1\]"),
            (np.array([1.0, 1.0]), 1.0, 1.5, r"p_min must be in \(0, 1\]"),
            (np.array([1.0, 1.0]), 1.0, 0.6, "infeasible"),
            (np.array([1.0, 1.0]), 2.5, 0.1, "infeasible"),
            (np.array([1.0, 1.0]), np.nan, 0.1, "target sum s=nan infeasible"),
            (np.array([1.0, 1.0]), np.inf, 0.1, "target sum s=inf infeasible"),
            (np.array([np.nan, 1.0]), np.nan, 0.1, "finite and strictly positive"),
            (np.array([1.0, 1.0]), np.nan, 0.0, r"p_min must be in \(0, 1\]"),
        ],
    )
    def test_rejects_bad_input(self, u, s, p_min, message):
        with pytest.raises(ValueError, match=message):
            kl_project(u, s, p_min)


@st.composite
def update_instances(draw):
    """(dist, active, norms, config) with p moved off the uniform start,
    and step sizes from where no exponent reaches the clamp to where
    every one with k > 0 passes it."""
    n = draw(st.integers(1, 40))
    s = n * draw(st.floats(0.05, 1.0))
    p_min = draw(st.floats(0.01, 1.0)) * s / n
    dist = init_uniform(n, s, p_min)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    for _ in range(draw(st.integers(0, 3))):
        dist = reference_update(dist, ActiveSet.full(n), rng.random(n), BanditConfig(alpha_p=1e-3))
    members = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    active = ActiveSet.from_iterable(members)
    norms = np.array([draw(st.floats(0.0, 1e3)) for _ in active])
    if draw(st.booleans()):
        norms[draw(st.integers(0, len(active) - 1))] = norms.max()  # ties at the envelope
    alpha = 10.0 ** draw(st.floats(-9.0, 6.0))
    return dist, active, norms, BanditConfig(alpha_p=alpha)


class TestUpdateDistribution:
    def test_chained_worked_example(self):
        dist = SamplingDistribution(np.array([0.5, 0.5]), s=1.0, p_min=0.1)
        cfg = BanditConfig(alpha_p=0.01)
        new = update_distribution(dist, ActiveSet.of(0), np.array([2.0]), cfg)
        assert np.allclose(new.p, [0.1, 0.9], atol=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_exponent_meets_the_clamp(self):
        # alpha * k = 1e306 * 384 overflows to inf; the shrink still floors at the clamp.
        dist = SamplingDistribution(np.array([0.5, 0.5]), s=1.0, p_min=0.1)
        cfg = BanditConfig(alpha_p=1e306)
        new = update_distribution(dist, ActiveSet.of(0), np.array([2.0]), cfg)
        clamped = np.array([0.5 * np.exp(-bandit.EXPONENT_CLAMP), 0.5])
        assert np.array_equal(new.p, kl_project(clamped, 1.0, 0.1).p)

    def test_symmetry_identity(self):
        dist = init_uniform(4, 1.0, 0.02)
        new = update_distribution(
            dist, ActiveSet.full(4), np.ones(4), BanditConfig()
        )
        assert np.allclose(new.p, dist.p, atol=1e-9)

    def test_identity_chain_at_floor(self):
        dist = SamplingDistribution(np.array([0.1, 0.9]), s=1.0, p_min=0.1)
        new = update_distribution(dist, ActiveSet.of(0), np.array([3.0]), BanditConfig(alpha_p=0.01))
        assert np.allclose(new.p, dist.p, atol=1e-9)

    def test_larger_norm_never_lowers_relative_probability(self):
        # Equal starting p, distinct pseudo-losses: order must be preserved.
        dist = init_uniform(3, 1.2, 0.02)
        cfg = BanditConfig(alpha_p=0.05)
        new = update_distribution(
            dist, ActiveSet.full(3), np.array([3.0, 2.0, 1.0]), cfg
        )
        assert new.p[0] >= new.p[1] >= new.p[2]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_invariants_after_update(self, data):
        n = data.draw(st.integers(2, 6))
        s = n * data.draw(st.floats(0.1, 0.9))
        p_min = 0.1 * s / n
        dist = init_uniform(n, s, p_min)
        size = data.draw(st.integers(1, n))
        members = data.draw(
            st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True)
        )
        active = ActiveSet.from_iterable(members)
        norms = np.array([data.draw(st.floats(0.0, 50.0)) for _ in active])
        alpha = data.draw(st.floats(1e-5, 0.1))
        new = update_distribution(dist, active, norms, BanditConfig(alpha_p=alpha))
        assert abs(float(np.sum(new.p)) - s) <= 1e-9
        assert np.all(new.p >= p_min)
        assert np.all(new.p <= 1.0)

    def test_unsampled_layers_keep_p(self, monkeypatch):
        # The weights handed to the projection: only layer 1 shrinks.
        seen = []
        monkeypatch.setattr(bandit, "kl_project", lambda u, s, p_min: seen.append(u) or u)
        dist = init_uniform(3, 1.2, 0.02)
        update_distribution(dist, ActiveSet.of(1), np.array([2.0]), BanditConfig(alpha_p=1e-3))
        (u,) = seen
        assert u[0] == dist.p[0] and u[2] == dist.p[2]
        assert 0.0 < u[1] < dist.p[1]

    @given(update_instances())
    @settings(max_examples=300, deadline=None)
    def test_bit_equal_to_reference(self, instance):
        dist, active, norms, cfg = instance
        new = update_distribution(dist, active, norms, cfg)
        assert np.array_equal(new.p, reference_update(dist, active, norms, cfg).p)


@st.composite
def sampler_edges(draw):
    """(n, s, p_min) with the sampler's edge cases drawn often: one layer,
    the full budget s = N, the floor p_min = s/N and N = 500."""
    edge = draw(st.sampled_from(["n1", "s_is_n", "floor_is_mean", "n500", "any"]))
    n = {"n1": 1, "n500": 500}.get(edge) or draw(st.integers(1, 40))
    s = float(n) if edge == "s_is_n" else n * draw(st.floats(0.05, 1.0))
    p_min = s / n if edge == "floor_is_mean" else draw(st.floats(0.01, 1.0)) * s / n
    return n, s, p_min


class TestSamplerEdges:
    @given(
        case=sampler_edges(),
        seed=st.integers(0, 2**32),
        alpha=st.floats(1e-5, 1.0),
        norm_scale=st.floats(0.0, 1e3),
        steps=st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_sample_then_update_keeps_invariants(self, case, seed, alpha, norm_scale, steps):
        n, s, p_min = case
        dist = init_uniform(n, s, p_min)
        cfg = BanditConfig(alpha_p=alpha)
        rng = stream(seed, "bandit")
        norms_rng = np.random.default_rng(seed)
        for _ in range(steps):
            active, _ = sample_active_set(dist, rng)
            assert len(active) >= 1
            assert all(0 <= l < n for l in active)
            norms = norm_scale * norms_rng.random(len(active))
            dist = update_distribution(dist, active, norms, cfg)
            assert abs(float(dist.p.sum()) - s) <= 1e-9
            assert (dist.p >= p_min).all() and (dist.p <= 1.0).all()
