"""Sampling distribution, pseudo-loss, exponentiated update, KL projection."""

from __future__ import annotations

import bisect
import contextlib
import itertools
import math
import warnings

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
from sparsam.errors import ConfigError, DivergenceError
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


class TestBanditConfig:
    @pytest.mark.parametrize("alpha", [0.0, -1e-4, np.nan, np.inf, -np.inf])
    def test_refuses_a_step_size_not_positive_and_finite(self, alpha):
        # An infinite step size times a zero score would be NaN in the shrink.
        with pytest.raises(ValueError, match="alpha_p must be positive and finite"):
            BanditConfig(alpha_p=alpha)


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

    def test_no_layers(self):
        with pytest.raises(ValueError, match="need at least one layer"):
            init_uniform(0, 1.0, 0.1)


class TestSampleActiveSet:
    def test_deterministic_probabilities(self):
        dist = SamplingDistribution(np.array([1.0, 1.0]), s=2.0, p_min=0.5)
        rng = stream(0, "test")
        for _ in range(20):
            active, redraws = sample_active_set(dist, rng)
            assert list(active) == [0, 1]
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

    def test_budget_too_small_to_draw_is_a_config_error(self):
        # At p = 1e-5 about 90% of streams draw no layer in 10,000 tries;
        # this one is among them.
        dist = SamplingDistribution(np.array([1e-5]), s=1e-5, p_min=1e-5)
        want = rf"s=1e-05 over 1 layer\(s\) drew no layer in {bandit.MAX_SAMPLE_ATTEMPTS} draws"
        with pytest.raises(ConfigError, match=want):
            sample_active_set(dist, stream(1, "test"))

    def test_same_stream_same_sets(self):
        dist = init_uniform(6, 2.0, 0.02)
        a = [list(sample_active_set(dist, stream(7, "a"))[0]) for _ in range(1)]
        b = [list(sample_active_set(dist, stream(7, "a"))[0]) for _ in range(1)]
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
        k = pseudo_loss(np.array([2.0]), dist, ActiveSet((0,)))
        assert k == [384.0]

    def test_exact_cancellation_at_floor(self):
        dist = SamplingDistribution(np.array([0.1, 0.9]), s=1.0, p_min=0.1)
        k = pseudo_loss(np.array([2.0]), dist, ActiveSet((0,)))
        assert k[0] == 0.0

    def test_scores_only_the_active_layers(self):
        # One score per active layer, in the order of active.layers.
        dist = init_uniform(4, 1.0, 0.02)
        k = pseudo_loss(np.array([1.0, 0.5]), dist, ActiveSet((2, 1)))
        env = 1.0 / 0.02
        assert k == [env * env - 16.0, env * env - 4.0]

    def test_empty_active_rejected(self):
        dist = init_uniform(2, 1.0, 0.1)
        with pytest.raises(ValueError, match="active set is empty"):
            pseudo_loss(np.zeros(0), dist, ActiveSet.from_iterable([]))

    def test_norms_must_cover_active(self):
        dist = init_uniform(3, 1.0, 0.02)
        with pytest.raises(ValueError):
            pseudo_loss(np.array([1.0]), dist, ActiveSet((0, 1)))

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
        k = np.array(pseudo_loss(norms, dist, active))
        assert k.shape == (len(active),)
        assert np.all(k >= 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_names_the_layer(self):
        # (1e154 / 0.5)^2 is beyond the float range: inf - inf would be NaN.
        dist = SamplingDistribution(np.array([0.5, 1.0]), s=1.5, p_min=0.5)
        norms, active = np.array([1e154, 0.0]), ActiveSet((0, 1))
        with pytest.raises(DivergenceError, match="pseudo-loss of layer 0 is not finite"):
            pseudo_loss(norms, dist, active)
        with pytest.raises(DivergenceError, match="pseudo-loss of layer 0 is not finite"):
            update_distribution(dist, active, norms, BanditConfig())

    def test_a_layer_below_the_floor_scores_at_it(self):
        # The distribution admits p up to SUM_TOL * p_min below the floor;
        # the envelope there scores as it would at the floor, exactly 0.
        dist = SamplingDistribution(np.array([0.1 * (1 - 5e-10), 0.9 + 0.05e-9]), 1.0, 0.1)
        assert dist.p[0] < dist.p_min
        active, norms = ActiveSet((0,)), np.array([1.0])
        assert pseudo_loss(norms, dist, active) == [0.0]
        new = update_distribution(dist, active, norms, BanditConfig())
        assert SamplingDistribution(new.p, new.s, new.p_min).p.tobytes() == new.p.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_norm_names_the_layer(self):
        dist = init_uniform(3, 1.0, 0.02)
        with pytest.raises(DivergenceError, match="pseudo-loss of layer 1 is not finite"):
            pseudo_loss(np.array([1.0, np.nan]), dist, ActiveSet((0, 1)))


def closed_form_pseudo_loss(r_norms, dist, active) -> np.ndarray:
    """k_l = (G / p_min)^2 - (r_l / p_l)^2 for the active layers, in the
    order of active.layers, with G the largest of their norms; layer
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
        k = pseudo_loss(np.array([0.852, 1.463]), dist, ActiveSet((0, 1)))
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
        k = pseudo_loss(np.array([norm, other * norm]), dist, ActiveSet((0, 1)))
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
        assert np.array_equal(np.array(pseudo_loss(norms, dist, active)), want)


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

    @pytest.mark.parametrize("n", [6, 12, 100])
    @pytest.mark.parametrize("floor_type", [np.float32, np.float64, int])
    def test_a_floor_of_any_type_projects_as_its_float(self, n, floor_type):
        # A float32 floor kept in its type would carry float32 through the
        # multiplier, which then misses the budget; every type must project
        # as float(p_min) does.
        rng = np.random.default_rng(n)
        for _ in range(50):
            u = np.exp(rng.uniform(-3.0, 3.0, n))
            if floor_type is int:
                s, p_min = float(n), 1  # the only int floor in (0, 1]
            else:
                s = n * rng.uniform(0.1, 0.9)
                p_min = floor_type(rng.uniform(0.05, 0.95) * s / n)
            want = kl_project(u, s, float(p_min)).p
            assert_same_outcome(strict_outcome(kl_project, u, s, p_min), want)

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


def untrimmed_kl_project(u: np.ndarray, s: float, p_min: float) -> np.ndarray:
    """kl_project with its tail as it was before the in-place clamp:
    np.clip, then the distribution's checks through the method wrappers."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("u must be a non-empty 1-d array")
    us = np.sort(u)
    ul = us.tolist()
    if not (0.0 < ul[0] and ul[-1] < np.inf):
        raise ValueError("u must be finite and strictly positive")
    n = u.size
    s = float(s)
    bandit._check_feasible(n, s, p_min)
    bps = np.sort(np.concatenate((p_min / us, 1.0 / us))).tolist()
    csum = list(itertools.accumulate(ul, initial=0.0))

    def mass(c: float) -> float:
        n_floor = bisect.bisect_right(ul, p_min / c)
        n_cap = min(n - bisect.bisect_left(ul, 1.0 / c), n - n_floor)
        return p_min * n_floor + n_cap + c * (csum[n - n_cap] - csum[n_floor])

    j = min(max(bisect.bisect_left(bps, s, key=mass), 1), n + n - 1)
    lo, hi = bps[j - 1], bps[j]
    mid = 0.5 * (lo + hi)
    k_floor, k_free_end = bisect.bisect_left(ul, p_min / mid), bisect.bisect_left(ul, 1.0 / mid)
    free = float(us[k_floor:k_free_end].sum())
    fixed = p_min * k_floor + (n - k_free_end)
    c = hi if free == 0.0 else min(max((s - fixed) / free, lo), hi)
    return untrimmed_distribution(np.clip(c * u, p_min, 1.0), s, p_min)


def untrimmed_distribution(p, s, p_min) -> np.ndarray:
    """SamplingDistribution's checks through the method wrappers, as they
    were before the ufunc reductions: the checked p, or the same error."""
    p, s, p_min = np.ascontiguousarray(p, dtype=np.float64), float(s), float(p_min)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("p must be a non-empty 1-d array")
    bandit._check_feasible(p.size, s, p_min)
    if not (0.0 < p.min() and p_min - bandit.SUM_TOL * p_min <= p.min() and p.max() <= 1.0 + bandit.SUM_TOL):
        raise ValueError("probabilities leave [p_min, 1]")
    if abs(float(p.sum()) - s) > bandit.SUM_TOL:
        raise ValueError(f"sum(p)={float(p.sum())} deviates from s={s}")
    return p


def untrimmed_pseudo_loss(r_norms, dist, active) -> np.ndarray:
    """pseudo_loss as it was before the envelope check, each layer scored
    at max(p_l, p_min): every score checked for finiteness, then for sign."""
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
        env, r = top / dist.p_min, norms / np.maximum(dist.p[active.index], dist.p_min)
        scores = env * env - r * r
    if not np.isfinite(scores).all():
        i = int(np.argmax(norms))
        raise DivergenceError(
            f"pseudo-loss of layer {active.layers[i]} is not finite: its gradient "
            f"norm {float(norms[i])!r} over p_min={dist.p_min} has no finite square"
        )
    if np.minimum.reduce(scores) < 0.0:
        raise AssertionError("pseudo-loss must be non-negative")
    return scores


def pseudo_loss_array(r_norms, dist, active) -> np.ndarray:
    """pseudo_loss's list of scores, read through np.array."""
    return np.array(pseudo_loss(r_norms, dist, active))


def outcome(f, *args):
    """What f returns, its p for a distribution, or its error's type and
    message; a floating-point RuntimeWarning counts as an error."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = f(*args)
    except Exception as e:  # AssertionError included: it is one of the outcomes
        return type(e), str(e)
    return got.p if isinstance(got, SamplingDistribution) else got


def assert_same_outcome(got, want) -> None:
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray), got
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -1.0, -0.0, 0.0, 5e-324, 1e154, 1e300]


@st.composite
def budgets(draw):
    """(n, s, p_min) for N from 1 to 1,000, half the time at most
    FLOAT_PATH_LAYERS, the floor at s/N drawn often."""
    n = draw(st.integers(1, bandit.FLOAT_PATH_LAYERS if draw(st.booleans()) else 1000))
    s = n * draw(st.floats(0.05, 1.0))
    p_min = s / n if draw(st.booleans()) else draw(st.floats(1e-3, 1.0)) * s / n
    return n, s, p_min


@st.composite
def pseudo_loss_cases(draw):
    """(norms, dist, active): p off the uniform start and, at times, a
    layer up to SUM_TOL * p_min below the floor, which the distribution allows;
    norms from tiny to past an envelope with a finite square, with NaN,
    infinite and negative ones mixed in."""
    n, s, p_min = draw(budgets())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dist = kl_project(np.exp(draw(st.floats(0.0, 5.0)) * rng.standard_normal(n)), s, p_min)
    if n > 1 and draw(st.booleans()):
        p = dist.p.copy()
        shift = draw(st.floats(0.0, 1.0)) * bandit.SUM_TOL * p_min
        p[np.argmin(p)] -= shift
        p[np.argmax(p)] += shift
        with contextlib.suppress(ValueError):
            dist = SamplingDistribution(p, s, p_min)
    members = np.flatnonzero(rng.random(n) < draw(st.floats(0.0, 1.0))).tolist()
    active = ActiveSet.from_iterable(members or [int(rng.integers(n))])
    norms = rng.random(len(active)) * 10.0 ** draw(st.floats(-3.0, 160.0))
    for _ in range(draw(st.integers(0, 3))):
        norms[rng.integers(norms.size)] = draw(st.sampled_from(SPECIAL_VALUES))
    if draw(st.booleans()):
        norms[np.argmin(dist.p[active.index])] = np.max(norms)  # the envelope on a low p
    return norms, dist, active


@st.composite
def distribution_cases(draw):
    """(p, s, p_min): a projected p, then a special value, a shift of one
    entry or a rescale around the tolerances, or a budget made infeasible."""
    n, s, p_min = draw(budgets())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = kl_project(np.exp(draw(st.floats(0.0, 5.0)) * rng.standard_normal(n)), s, p_min).p.copy()
    kind = draw(st.sampled_from(["valid", "special", "shift", "scale", "budget"]))
    if kind == "special":
        p[rng.integers(n)] = draw(st.sampled_from(SPECIAL_VALUES + [1.0 + 2e-9, p_min - 2e-9]))
    elif kind == "shift":
        p[rng.integers(n)] += draw(st.floats(-3.0, 3.0)) * bandit.SUM_TOL
    elif kind == "scale":
        p *= 1.0 + draw(st.floats(-3.0, 3.0)) * bandit.SUM_TOL / s
    elif kind == "budget":
        s, p_min = draw(st.sampled_from([(s, 0.0), (s, 1.5), (np.nan, p_min), (n + 1.0, p_min)]))
    return p, s, p_min


@st.composite
def projection_cases(draw):
    """(u, s, p_min) for N from 1 to 1,000, u over e^-50..e^50 with ties at
    times, and at times a NaN, infinite, zero or negative weight."""
    n, s, p_min = draw(budgets())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = rng.uniform(-50.0, 50.0, n)
    if draw(st.booleans()):
        exponents = np.round(exponents / 10.0) * 10.0
    u = np.exp(exponents)
    if draw(st.booleans()):
        u[rng.integers(n)] = draw(st.sampled_from(SPECIAL_VALUES))
    return u, s, p_min


class TestAgainstTheUntrimmedRoundTrip:
    """pseudo_loss, kl_project and SamplingDistribution give the bits and
    the errors, type and message, of the versions kept above."""

    @given(pseudo_loss_cases())
    @settings(max_examples=300, deadline=None)
    def test_pseudo_loss(self, case):
        norms, dist, active = case
        want = outcome(untrimmed_pseudo_loss, norms, dist, active)
        assert_same_outcome(outcome(pseudo_loss_array, norms, dist, active), want)

    @pytest.mark.parametrize(
        "norms, p, error",
        [
            ([1.0, 0.5], [0.5, 0.5], None),
            ([1.0, -1.0], [0.5, 0.5], ValueError),
            ([1.0, -np.inf], [0.5, 0.5], ValueError),
            ([1.0, np.nan], [0.5, 0.5], DivergenceError),
            ([np.nan, -1.0], [0.5, 0.5], DivergenceError),
            ([np.inf, 1.0], [0.5, 0.5], DivergenceError),
            ([1e154, 1.0], [0.5, 0.5], DivergenceError),
            # A layer 1e-10 below the floor of 0.5 scores as the floor: 0.
            ([1.0, 1.0], [0.5 - 1e-10, 0.5 + 1e-10], None),
        ],
    )
    def test_pseudo_loss_outcomes(self, norms, p, error):
        dist = SamplingDistribution(np.array(p), 1.0, 0.5)
        args = np.array(norms), dist, ActiveSet((0, 1))
        got = outcome(pseudo_loss_array, *args)
        assert_same_outcome(got, outcome(untrimmed_pseudo_loss, *args))
        assert got[0] is error if error else isinstance(got, np.ndarray)

    @given(distribution_cases())
    @settings(max_examples=300, deadline=None)
    def test_sampling_distribution(self, case):
        want = outcome(untrimmed_distribution, *case)
        assert_same_outcome(outcome(SamplingDistribution, *case), want)

    @pytest.mark.parametrize("p", [np.zeros(0), np.full((2, 2), 0.25)])
    def test_sampling_distribution_shape(self, p):
        want = outcome(untrimmed_distribution, p, 1.0, 0.1)
        assert_same_outcome(outcome(SamplingDistribution, p, 1.0, 0.1), want)

    @given(projection_cases())
    @settings(max_examples=300, deadline=None)
    def test_kl_project(self, case):
        # A subnormal weight overflows the oracle's breakpoints to inf, as
        # intended; kl_project computes the same bits without the warning.
        with np.errstate(over="ignore"):
            want = outcome(untrimmed_kl_project, *case)
        assert_same_outcome(outcome(kl_project, *case), want)


def strict_outcome(f, *args):
    """outcome(f, *args) with every warning, not only RuntimeWarning, an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return outcome(f, *args)


@contextlib.contextmanager
def float_path_off():
    """No weights are few enough for the float projection: the NumPy path alone runs."""
    cutoff, bandit.FLOAT_PATH_LAYERS = bandit.FLOAT_PATH_LAYERS, 0
    try:
        yield
    finally:
        bandit.FLOAT_PATH_LAYERS = cutoff


def numpy_kl_project(u, s, p_min) -> SamplingDistribution:
    """kl_project through its NumPy path."""
    with float_path_off():
        return kl_project(u, s, p_min)


def numpy_update(dist, active, r_norms, config) -> SamplingDistribution:
    """update_distribution as it ran on arrays: the untrimmed pseudo-loss,
    the shrink on the active entries of a copy of p, the NumPy projection."""
    k = untrimmed_pseudo_loss(r_norms, dist, active)
    idx = active.index
    p = dist.p[idx]
    u = dist.p.copy()
    with np.errstate(over="ignore"):
        exponent = -config.alpha_p * k / p
    u[idx] = p * np.exp(np.maximum(exponent, -bandit.EXPONENT_CLAMP))
    return numpy_kl_project(u, dist.s, dist.p_min)


def step_sizes():
    """From where most layers stay free up to 1e306, where every exponent
    with k > 0 meets the clamp, and at times an int or a NumPy scalar."""
    return st.one_of(
        st.floats(-9.0, 0.0).map(lambda e: 10.0**e),  # most layers stay free
        st.floats(-9.0, 306.0).map(lambda e: 10.0**e),
        st.sampled_from([1, np.float64(1e-3)]),
    )


@st.composite
def update_cases(draw):
    """(dist, active, norms, config) for N from 1 to 1,000: pseudo_loss_cases
    and a step size."""
    norms, dist, active = draw(pseudo_loss_cases())
    return dist, active, norms, BanditConfig(alpha_p=draw(step_sizes()))


class TestAgainstTheArrayUpdate:
    """update_distribution gives the bits and the errors, type and message,
    of the update as it ran on NumPy arrays, at every layer count."""

    @given(update_cases())
    @settings(max_examples=300, deadline=None)
    def test_update_distribution(self, case):
        want = strict_outcome(numpy_update, *case)
        assert_same_outcome(strict_outcome(update_distribution, *case), want)


@st.composite
def float_path_budgets(draw):
    """(n, s, p_min) over 1 to FLOAT_PATH_LAYERS layers: the floor at s/N,
    at times below SUM_TOL, and s at the ends of its range."""
    n = draw(st.integers(1, bandit.FLOAT_PATH_LAYERS))
    s = n * draw(st.sampled_from([draw(st.floats(0.05, 1.0)), 1.0]))
    p_min = draw(st.sampled_from([s / n, draw(st.floats(1e-3, 1.0)) * s / n, 1e-12, 5e-10, 1e-9]))
    return n, s, p_min


@st.composite
def float_path_updates(draw):
    """(dist, active, norms, config) over at most FLOAT_PATH_LAYERS layers.

    p is moved off the uniform start, by a little or a lot, and at times its lowest entry is
    shifted down by up to SUM_TOL, or set to the floor less its slack SUM_TOL * p_min, or to
    zero; the distribution refuses an entry below the slack, so anything at or below zero.
    Norms run from subnormal to past an envelope with no finite square, with NaN, infinite,
    negative, subnormal and huge ones mixed in, and at times one too many. The step size comes
    from step_sizes().
    """
    n, s, p_min = draw(float_path_budgets())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dist = kl_project(np.exp(draw(st.sampled_from([0.01, 0.3, 5.0])) * rng.standard_normal(n)), s, p_min)
    if draw(st.booleans()):
        p = dist.p.copy()
        low = int(np.argmin(p))
        shift = draw(st.floats(0.0, 1.0)) * bandit.SUM_TOL
        edges = [p_min - bandit.SUM_TOL, p_min - bandit.SUM_TOL * p_min, 0.0, p[low] - shift]
        p[low] = draw(st.sampled_from(edges))
        with contextlib.suppress(ValueError):
            dist = SamplingDistribution(p, s, p_min)
    members = np.flatnonzero(rng.random(n) < draw(st.floats(0.0, 1.0))).tolist()
    active = ActiveSet.from_iterable(members or [int(rng.integers(n))])
    norms = rng.random(len(active) + draw(st.sampled_from([0, 0, 0, 0, 1])))
    norms *= 10.0 ** draw(st.one_of(st.floats(-3.0, 3.0), st.floats(-320.0, 160.0)))
    for _ in range(draw(st.integers(0, 3))):
        norms[rng.integers(norms.size)] = draw(st.sampled_from(SPECIAL_VALUES + [1e-310]))
    if draw(st.booleans()):
        norms[np.argmin(dist.p[active.index])] = np.max(norms)  # the envelope on a low p
    return dist, active, norms, BanditConfig(alpha_p=draw(step_sizes()))


@st.composite
def float_path_projections(draw):
    """(u, s, p_min) over at most FLOAT_PATH_LAYERS weights, spread up to
    e^-50..e^50, with ties at times and NaN, infinite, zero, negative, subnormal and
    huge weights mixed in; u at times a list and p_min a NumPy scalar;
    the budget at times infeasible."""
    n, s, p_min = draw(float_path_budgets())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = rng.uniform(-1.0, 1.0, n) * draw(st.sampled_from([0.01, 1.0, 5.0, 50.0]))
    if draw(st.booleans()):
        exponents = np.round(exponents / 10.0) * 10.0
    u = np.exp(exponents)
    for _ in range(draw(st.integers(0, 2))):
        u[rng.integers(n)] = draw(st.sampled_from(SPECIAL_VALUES + [1e-310]))
    s, p_min = draw(st.sampled_from([(s, p_min)] * 4 + [(s, 0.0), (s, 1.5), (np.nan, p_min), (n + 1.0, p_min)]))
    form = draw(st.sampled_from(["array", "list", "numpy floor"]))
    if form == "list":
        return u.tolist(), s, p_min
    return u, s, np.float64(p_min) if form == "numpy floor" else p_min


class TestFloatPath:
    """Over at most FLOAT_PATH_LAYERS layers, kl_project runs in Python
    floats, as the scores and the shrink's exponents do at every layer
    count; they give the NumPy path's bits, errors (type and message) and
    warnings, and no others."""

    @given(float_path_updates())
    @settings(max_examples=500, deadline=None)
    def test_update_distribution(self, case):
        want = strict_outcome(numpy_update, *case)
        assert_same_outcome(strict_outcome(update_distribution, *case), want)

    @given(float_path_projections())
    @settings(max_examples=500, deadline=None)
    def test_kl_project(self, case):
        want = strict_outcome(numpy_kl_project, *case)
        assert_same_outcome(strict_outcome(kl_project, *case), want)

    @pytest.mark.parametrize("n, s", [(6, 3.0), (8, 2.0)])
    def test_chained_updates_at_the_mlp_sizes(self, n, s):
        # Draws and updates as a run makes them, at the default floor: most
        # layers stay free, so a last-bit difference in a shrink shows.
        dist = init_uniform(n, s, 0.1 * s / n)
        rng, draws = np.random.default_rng(n), stream(n, "bandit")
        for alpha in (1e-4, 1e-2, 1.0):
            cfg = BanditConfig(alpha_p=alpha)
            for _ in range(100):
                active, _ = sample_active_set(dist, draws)
                norms = rng.random(len(active)) * 10.0 ** rng.uniform(-2.0, 2.0)
                new = update_distribution(dist, active, norms, cfg)
                assert new.p.tobytes() == numpy_update(dist, active, norms, cfg).p.tobytes()
                dist = new

    @pytest.mark.parametrize(
        "alpha, norms, p, p_min, outcome_type",
        [
            (1e-3, [1.0, 0.5], [0.5, 0.5], 0.5, None),
            (1e306, [2.0, 0.0], [0.5, 0.5], 0.5, None),  # -alpha * k overflows to -inf: the clamp
            (1e-3, [1.0, np.nan], [0.5, 0.5], 0.5, DivergenceError),
            (1e-3, [1e154, 1.0], [0.5, 0.5], 0.5, DivergenceError),
            (1e-3, [1.0, -1.0], [0.5, 0.5], 0.5, ValueError),
            (1e-3, [1.0, 1.0], [0.5 - 1e-10, 0.5 + 1e-10], 0.5, None),  # scored at the floor
        ],
    )
    def test_update_outcomes(self, alpha, norms, p, p_min, outcome_type):
        dist = SamplingDistribution(np.array(p), 1.0, p_min)
        args = dist, ActiveSet((0, 1)), np.array(norms), BanditConfig(alpha)
        got = strict_outcome(update_distribution, *args)
        assert_same_outcome(got, strict_outcome(numpy_update, *args))
        assert got[0] is outcome_type if outcome_type else isinstance(got, np.ndarray)

    @pytest.mark.parametrize("p", [[0.0, 1.0], [-0.0, 1.0]])
    def test_no_zero_probability_under_a_tiny_floor(self, p):
        # A floor below SUM_TOL would admit p = 0 within the tolerance, and
        # pseudo_loss would then divide by it: a RuntimeWarning, or a
        # DivergenceError that blames a finite square. The constructor refuses it.
        with pytest.raises(ValueError, match=r"probabilities leave \[p_min, 1\]"):
            SamplingDistribution(np.array(p), 1.0, 1e-12)

    @pytest.mark.parametrize("p", [[1e-300, 1.0], [5e-324, 1.0]])
    def test_no_probability_far_below_a_tiny_floor(self, p):
        # An absolute slack of SUM_TOL below a floor of 1e-12 admitted these,
        # and the update then blamed the wrong thing: with norms [1, 1] a
        # DivergenceError for a square that is finite, with norms [0, 2] a
        # ValueError from kl_project for a weight that is not positive.
        with pytest.raises(ValueError, match=r"probabilities leave \[p_min, 1\]"):
            SamplingDistribution(np.array(p), 1.0, 1e-12)

    def test_the_floor_keeps_a_slack_that_scales_with_it(self):
        p = [1e-12 * (1.0 - 0.5 * bandit.SUM_TOL), 1.0]
        assert SamplingDistribution(np.array(p), 1.0, 1e-12).p.tolist() == p
        p[0] = 1e-12 * (1.0 - 2.0 * bandit.SUM_TOL)
        with pytest.raises(ValueError, match=r"probabilities leave \[p_min, 1\]"):
            SamplingDistribution(np.array(p), 1.0, 1e-12)

    @pytest.mark.parametrize(
        "q", [[0.5, np.nan, 0.5], [np.nan, 0.5, 0.5], [0.5, 0.5, np.inf], [0.5, 0.5, 0.5 - 2e-9]]
    )
    def test_distribution_checks_every_entry(self, q):
        # Python's min and max skip a NaN that is not first; the check must not.
        with pytest.raises(ValueError, match=r"probabilities leave \[p_min, 1\]"):
            SamplingDistribution(np.array(q), 1.5, 0.5)

    def test_small_distributions_take_the_float_path(self, monkeypatch):
        taken = []
        f = bandit._kl_project_floats
        monkeypatch.setattr(bandit, "_kl_project_floats", lambda *a: taken.append(len(a[0])) or f(*a))
        for n in range(1, bandit.FLOAT_PATH_LAYERS + 1):
            dist = init_uniform(n, 0.5 * n, 0.02)
            update_distribution(dist, ActiveSet.full(n), np.linspace(0.1, 1.0, n), BanditConfig())
            kl_project(np.linspace(0.1, 1.0, n), 0.5 * n, 0.02)
        assert taken == [n for n in range(1, bandit.FLOAT_PATH_LAYERS + 1) for _ in range(2)]

    @pytest.mark.parametrize("n", [9, 100])
    def test_more_layers_never_take_it(self, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("the float path was taken")

        monkeypatch.setattr(bandit, "_kl_project_floats", refuse)
        dist = init_uniform(n, 0.5 * n, 0.02)
        new = update_distribution(dist, ActiveSet.full(n), np.linspace(0.1, 1.0, n), BanditConfig())
        assert abs(float(new.p.sum()) - 0.5 * n) <= bandit.SUM_TOL
        kl_project(np.linspace(0.1, 1.0, n), 0.5 * n, 0.02)


class TestOverflowingWeights:
    """A subnormal weight, or weights spread wider than the float range,
    overflow a breakpoint or c * u to inf, as intended: both paths
    project them without a warning. Weights whose sum overflows are
    projected scaled down by a power of two, which leaves the projection
    as it is; weights whose sum stays finite are projected as they come."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("project", [kl_project, numpy_kl_project], ids=["kl_project", "numpy"])
    @pytest.mark.parametrize(
        "u, s, want",
        [
            ([5e-324, 1.0], 1.0, [0.1, 0.9]),
            ([1e-310, 1.0], 1.0, [0.1, 0.9]),
            ([1e-10, 1e300], 2.0, [1.0, 1.0]),
            ([5e-324] + [1.0] * 9, 1.9, [0.1] + [0.2] * 9),
            # Their sums overflow.
            ([1e308] * 10, 5.0, [0.5] * 10),
            ([1e308] * 8, 4.0, [0.5] * 8),
            ([1e-306] + [1e308] * 9, 9.5, [0.5] + [1.0] * 9),
            # The scale takes 5e-324 below the least subnormal; it stays there and floors.
            ([5e-324, 1e308, 1e308], 2.1, [0.1, 1.0, 1.0]),
        ],
    )
    def test_projects_without_a_warning(self, project, u, s, want):
        assert project(np.array(u), s, 0.1).p.tolist() == pytest.approx(want, rel=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("project", [kl_project, numpy_kl_project], ids=["kl_project", "numpy"])
    @pytest.mark.parametrize("n", [6, 8, 10, 100])
    def test_as_the_weights_scaled_down(self, project, n):
        u = np.random.default_rng(n).uniform(0.1, 1.0, n) * np.finfo(np.float64).max
        for s in (0.2 * n, 0.5 * n, 0.9 * n):
            want = project(u * 2.0**-600, s, 0.1).p
            assert project(u, s, 0.1).p.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 6, 8, 10, 100])
    def test_a_finite_sum_is_not_scaled(self, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("the weights were scaled")

        monkeypatch.setattr(bandit, "_scaled_down", refuse)
        # Their sum is n / (n + 1) of the float maximum; c is near the least normal.
        u = np.full(n, np.finfo(np.float64).max / (n + 1))
        for project in (kl_project, numpy_kl_project):
            assert project(u, 0.5 * n, 0.1).p.tolist() == pytest.approx([0.5] * n, rel=1e-12)


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
        new = update_distribution(dist, ActiveSet((0,)), np.array([2.0]), cfg)
        assert np.allclose(new.p, [0.1, 0.9], atol=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_exponent_meets_the_clamp(self):
        # alpha * k = 1e306 * 384 overflows to inf; the shrink still floors at the clamp.
        dist = SamplingDistribution(np.array([0.5, 0.5]), s=1.0, p_min=0.1)
        cfg = BanditConfig(alpha_p=1e306)
        new = update_distribution(dist, ActiveSet((0,)), np.array([2.0]), cfg)
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
        new = update_distribution(dist, ActiveSet((0,)), np.array([3.0]), BanditConfig(alpha_p=0.01))
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
        update_distribution(dist, ActiveSet((1,)), np.array([2.0]), BanditConfig(alpha_p=1e-3))
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
