"""Optimizer family: update arithmetic, perturbations, reductions, accounting."""

from __future__ import annotations

import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsam import optimizers
from sparsam.bandit import BanditConfig, SamplingDistribution, init_uniform, sample_active_set
from sparsam.config import ExperimentConfig
from sparsam.errors import DivergenceError
from sparsam.layered import (
    GATHER_BELOW,
    ActiveSet,
    LayeredVector,
    layer_l2_norm,
    masked_axpy,
    total_l1_norm,
)
from sparsam.objectives import Batch, BlockQuadratic, MlpClassifier
from sparsam.optimizers import (
    AdamWConfig,
    OptimizerState,
    SamConfig,
    ablation_step,
    adamw_baseline_step,
    adamw_step,
    adasam_step,
    s2sam_step,
    sam_perturb,
    sam_step,
    select_layers_ablation,
    sl_s2sam_step,
    slsam_step,
)
from sparsam.rng import stream
from sparsam.runner import Trainer

from conftest import OPTIMIZER_TYPES, ascent_point, block, lv, perturb, scalar_batch

# One AdamW update from m=v=0, g=1, x=1 (eta=0.1, beta2=0.999, eps=1e-8),
# evaluated at 50 decimal digits and rounded to double:
#   x1 = 1 - 0.1 * 0.1 / sqrt(1e-3 + 1e-8)
ADAMW_SCALAR_X1 = 0.68377381511013370858
# Same update but g = 1.1 from the ascent point 1 + rho = 1.1:
#   x1 = 1 - 0.1 * 0.11 / sqrt(1.21e-3 + 1e-8)
SAM_SCALAR_X1 = 0.68377354070136843407

CFG = AdamWConfig(eta=0.1, weight_decay=0.0, beta1=0.9, beta2=0.999, adam_eps=1e-8)

NON_FINITE = [math.nan, math.inf, -math.inf]

# Layer sizes on both sides of GATHER_BELOW.
ASCENT_DIMS = [1, 2, 7, 64, GATHER_BELOW - 1, GATHER_BELOW, GATHER_BELOW + 1, 1024]


class TestConfigRanges:
    @pytest.mark.parametrize("value", [0.0, -1.0, *NON_FINITE])
    @pytest.mark.parametrize("field", ["eta", "adam_eps"])
    def test_refuses_a_value_not_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            AdamWConfig(**{field: value})

    @pytest.mark.parametrize("value", [-1.0, *NON_FINITE])
    def test_refuses_a_weight_decay_not_non_negative_and_finite(self, value):
        with pytest.raises(ValueError, match="weight_decay must be non-negative and finite"):
            AdamWConfig(weight_decay=value)

    @pytest.mark.parametrize("value", [-1.0, *NON_FINITE])
    def test_refuses_a_rho_not_non_negative_and_finite(self, value):
        with pytest.raises(ValueError, match="rho must be non-negative and finite"):
            SamConfig(rho=value)

    def test_refuses_an_unknown_perturb_norm(self):
        with pytest.raises(ValueError, match="unknown perturb_norm 'layer'"):
            SamConfig(perturb_norm="layer")

    def test_state_refuses_moments_of_different_shapes(self):
        with pytest.raises(ValueError, match="m and v shapes differ"):
            OptimizerState(LayeredVector.zeros([2, 3]), LayeredVector.zeros([3, 2]))


class TestAdamwStep:
    def test_scalar_frozen_trace(self):
        state = OptimizerState.init([1])
        x, state = adamw_step(state, lv([1.0]), lv([1.0]), ActiveSet((0,)), CFG)
        assert block(state.m, 0)[0] == pytest.approx(0.1, rel=1e-15)
        assert block(state.v, 0)[0] == pytest.approx(1e-3, rel=1e-15)
        assert block(x, 0)[0] == pytest.approx(ADAMW_SCALAR_X1, rel=1e-12)
        assert block(x, 0)[0] == pytest.approx(0.683772, abs=5e-6)
        assert state.t == 1

    def test_zero_gradient_isolates_decay(self):
        cfg = AdamWConfig(eta=0.1, weight_decay=0.5)
        state = OptimizerState.init([2])
        x, _ = adamw_step(state, lv([2.0, -4.0]), lv([0.0, 0.0]), ActiveSet((0,)), cfg)
        assert np.array_equal(block(x, 0), np.array([2.0, -4.0]) * (1.0 - 0.1 * 0.5))

    def test_frozen_layer_bit_identical(self):
        state = OptimizerState.init([1, 2])
        x = lv([1.0], [2.0, 3.0])
        g = lv([1.0], [5.0, 5.0])
        x_before = x.copy()
        adamw_step(state, x, g, ActiveSet((0,)), CFG)
        assert np.array_equal(block(x, 1), block(x_before, 1))
        assert np.array_equal(block(state.m, 1), np.zeros(2))
        assert np.array_equal(block(state.v, 1), np.zeros(2))

    def test_nonfinite_gradient_raises(self):
        state = OptimizerState.init([1])
        with pytest.raises(DivergenceError):
            adamw_step(state, lv([1.0]), lv([np.nan]), ActiveSet((0,)), CFG)

    def test_nonfinite_gradient_names_layer_and_writes_nothing(self):
        state = OptimizerState.init([1, 2, 1])
        x = lv([1.0], [2.0, 3.0], [4.0])
        before = x.copy()
        with pytest.raises(DivergenceError, match="layer 2 at step 1"):
            adamw_step(state, x, lv([1.0], [1.0, 1.0], [np.inf]), ActiveSet.full(3), CFG)
        assert np.array_equal(x.data, before.data)
        assert not state.m.data.any() and not state.v.data.any()
        assert state.t == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e155])
    def test_gathered_set_names_its_first_bad_layer(self, bad):
        # {0, 2, 4} over 2-float layers is three short runs: one gathered key.
        active = ActiveSet((0, 2, 4))
        x = LayeredVector([np.full(2, float(l)) for l in range(6)])
        (key,) = x.select(active)
        assert not isinstance(key, slice)
        state = OptimizerState.init(x.dims)
        before = x.copy()
        g = lv([1.0, 1.0], [np.nan] * 2, [1.0, bad], [np.inf] * 2, [bad, 1.0], [1.0, 1.0])
        with pytest.raises(DivergenceError, match="layer 2 at step 1"):
            adamw_step(state, x, g, active, CFG)
        assert np.array_equal(x.data, before.data)
        assert not state.m.data.any() and not state.v.data.any()
        assert state.t == 0

    def test_gathered_set_ignores_a_nonfinite_inactive_layer(self):
        active = ActiveSet((0, 2, 4))
        xa = LayeredVector([np.full(2, float(l)) for l in range(6)])
        xb = xa.copy()
        sa, sb = OptimizerState.init(xa.dims), OptimizerState.init(xa.dims)
        finite = [[1.0, -2.0], [0.5, 0.5], [3.0, 0.25], [0.5, 0.5], [-1.0, 4.0], [0.5, 0.5]]
        nonfinite = [b if l % 2 == 0 else [np.nan, np.inf] for l, b in enumerate(finite)]
        adamw_step(sa, xa, lv(*nonfinite), active, CFG)
        adamw_step(sb, xb, lv(*finite), active, CFG)
        for got, want in ((xa, xb), (sa.m, sb.m), (sa.v, sb.v)):
            assert np.array_equal(got.data, want.data)
        assert not any(np.array_equal(block(xa, l), np.full(2, float(l))) for l in active)
        assert all(np.array_equal(block(xa, l), np.full(2, float(l))) for l in (1, 3, 5))

    def test_shape_mismatch(self):
        state = OptimizerState.init([1])
        with pytest.raises(ValueError):
            adamw_step(state, lv([1.0, 2.0]), lv([1.0, 2.0]), ActiveSet((0,)), CFG)

    @pytest.mark.parametrize("m_dims, g_dims", [([1, 3], [2, 2]), ([2, 2], [1, 3])], ids=["m", "g"])
    def test_shape_mismatch_of_the_same_size_is_refused(self, m_dims, g_dims):
        # Same buffer size, other layout: without the check the keys of x's
        # layout would read and write across the other vector's layers.
        state = OptimizerState.init(m_dims)
        x, g = lv([1.0, 2.0], [3.0, 4.0]), LayeredVector.zeros(g_dims)
        with pytest.raises(ValueError, match="shape mismatch"):
            adamw_step(state, x, g, ActiveSet((0,)), CFG)

    def test_no_bias_correction(self):
        # With correction the first step would be ~eta regardless of beta;
        # without it the magnitudes follow the raw m/sqrt(v) ratio.
        state = OptimizerState.init([1])
        x, _ = adamw_step(state, lv([0.0]), lv([1.0]), ActiveSet((0,)), CFG)
        raw = 0.1 * 0.1 / math.sqrt(1e-3 + 1e-8)
        assert block(x, 0)[0] == pytest.approx(-raw, rel=1e-12)


class TestSamPerturb:
    def test_per_layer_three_four(self):
        eps = perturb(lv([3.0, 4.0]), ActiveSet((0,)), SamConfig(0.01, "per_layer"))
        assert np.allclose(block(eps, 0), [0.006, 0.008], rtol=1e-12)

    def test_zero_block_zero_perturbation(self):
        eps = perturb(lv([0.0, 0.0], [3.0, 4.0]), ActiveSet.full(2), SamConfig(0.01, "per_layer"))
        assert np.array_equal(block(eps, 0), [0.0, 0.0])
        assert np.allclose(block(eps, 1), [0.006, 0.008], rtol=1e-12)

    def test_global_joint_scaling(self):
        eps = perturb(lv([3.0], [4.0]), ActiveSet.full(2), SamConfig(0.01, "global"))
        assert block(eps, 0)[0] == pytest.approx(0.006, rel=1e-12)
        assert block(eps, 1)[0] == pytest.approx(0.008, rel=1e-12)

    def test_per_layer_norms_equal_rho(self):
        rng = np.random.default_rng(0)
        r = LayeredVector([rng.standard_normal(d) for d in (3, 5, 2)])
        eps = perturb(r, ActiveSet.full(3), SamConfig(0.37, "per_layer"))
        assert layer_l2_norm(eps, ActiveSet.full(3)) == pytest.approx([0.37] * 3, rel=1e-12)

    def test_global_joint_norm_equals_rho(self):
        rng = np.random.default_rng(1)
        r = LayeredVector([rng.standard_normal(d) for d in (3, 5)])
        active = ActiveSet((0, 1))
        eps = perturb(r, active, SamConfig(0.37, "global"))
        joint = math.sqrt(float(np.sum(layer_l2_norm(eps, active) ** 2)))
        assert joint == pytest.approx(0.37, rel=1e-12)

    def test_inactive_blocks_zero(self):
        eps = perturb(lv([3.0], [4.0]), ActiveSet((1,)), SamConfig(0.5, "per_layer"))
        assert block(eps, 0)[0] == 0.0
        assert block(eps, 1)[0] == pytest.approx(0.5, rel=1e-12)

    def test_rho_zero(self):
        # Layer 1 has zero norm; the signs in r must not reach the perturbation.
        r = lv([3.0, -4.0], [-0.0, -0.0], [-1.0])
        for mode in ("global", "per_layer"):
            for active in (ActiveSet(), ActiveSet((1,)), ActiveSet((0, 1, 2))):
                eps = perturb(r, active, SamConfig(0.0, mode))
                assert not eps.data.any() and not np.signbit(eps.data).any(), (mode, active)

    @pytest.mark.parametrize("n", [1, 2, 8, 100])
    @pytest.mark.parametrize("side", [0.5, 0.999, 1.0, 2.0, 4.0])
    def test_global_norm_around_the_overflow_of_its_squares(self, n, side):
        # n layer norms m with n * m * m at `side` times half the float
        # maximum: the sum of squares overflows from side 2, where the joint
        # norm is taken again over the norms scaled by the largest. Either
        # way the perturbation has norm rho and raises no warning.
        m = math.sqrt(side / n) * math.sqrt(float(np.finfo(np.float64).max) / 2)
        r = LayeredVector([np.array([m])] * n)
        x = LayeredVector.zeros(r.dims)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = sam_perturb(x, r, ActiveSet.full(n), SamConfig(0.37, "global"), np.full(n, m))
        assert np.allclose(point.data, 0.37 / math.sqrt(n), rtol=1e-12, atol=0.0)

    def test_global_norm_whose_square_overflows(self, monkeypatch):
        # Twenty layers of 64 gradient entries near 1e153: each layer's
        # squared norm is finite, their sum is not. The joint norm must be
        # too, or the step silently takes no ascent.
        trainer = Trainer(ExperimentConfig.from_dict({
            "objective": {"noise_sigma": 1e153, "layer_dims": [64] * 20},
            "optimizer": {"type": "adasam"},
            "train": {"steps": 3},
        }))
        norms = []

        def recording(x, *args):
            # x stays within 0.01 of 1, so rounding x + eps moves each of
            # the 1,280 entries of point - x by at most 1.1e-16: their norm
            # is within 4e-15 of rho = 0.01.
            point = sam_perturb(x, *args)
            norms.append(np.linalg.norm(point.data - x.data))
            return point

        monkeypatch.setattr(optimizers, "sam_perturb", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(3):
                trainer.step()
        assert norms == pytest.approx([trainer.config.optimizer.rho] * 3, rel=1e-12)


class TestAscentPoint:
    """sam_perturb's point is x plus the full-size reference perturbation
    added key by key, byte for byte and warning for warning. The layouts
    mix layers on both sides of GATHER_BELOW, so a set's keys hold slices
    and a gathered index; x and r hold -0.0 entries, and `special` makes
    one active layer zero, inf or too large to square, or every active
    layer's norm so large that their joint square overflows."""

    @given(
        dims=st.lists(st.sampled_from(ASCENT_DIMS), min_size=3, max_size=12),
        kind=st.sampled_from(["random", "alternate", "full", "single"]),
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(["global", "per_layer"]),
        rho=st.sampled_from([0.05, 0.05, 0.0]),
        special=st.sampled_from(["none", "zero", "inf", "huge", "joint_overflow"]),
    )
    @example(dims=[1, 2, 300, 64, 7, 1024], kind="full", seed=0, mode="per_layer", rho=0.05,
             special="zero")
    # One slice and one gathered index for either parity of "alternate".
    @example(dims=[1, 2, 300, 64, 7, 1024], kind="alternate", seed=3, mode="global", rho=0.05,
             special="joint_overflow")
    @example(dims=[1, 2, 300, 64, 7, 1024], kind="alternate", seed=3, mode="per_layer",
             rho=0.05, special="inf")
    @settings(max_examples=120, deadline=None)
    def test_point_is_x_plus_the_reference_eps(self, dims, kind, seed, mode, rho, special):
        rng = np.random.default_rng(seed)
        n = len(dims)
        if kind == "full":
            active = ActiveSet.full(n)
        elif kind == "single":
            active = ActiveSet((int(rng.integers(n)),))
        elif kind == "alternate":  # one-layer runs: two or more short ones are gathered
            active = ActiveSet(range(int(rng.integers(2)), n, 2))
        else:
            active = ActiveSet.from_iterable(np.flatnonzero(rng.random(n) < 0.5))
        x, r = (LayeredVector([rng.standard_normal(d) for d in dims]) for _ in range(2))
        for v in (x, r):
            v.data[rng.random(v.data.size) < 0.2] = -0.0
        if len(active) and special != "none":
            l = active.layers[int(rng.integers(len(active)))]
            if special == "zero":
                block(r, l)[...] = -0.0
            elif special == "inf":
                block(r, l)[0] = -math.inf
            elif special == "huge":
                block(r, l)[...] = 1e200
            else:
                # Each norm squares to 0.75 of the float maximum.
                top = math.sqrt(0.75 * float(np.finfo(np.float64).max))
                for l in active:
                    b = block(r, l)
                    b += 1.0
                    b *= top / float(np.linalg.norm(b))
        cfg = SamConfig(rho, mode)
        x_before = x.data.tobytes()
        want = ascent_point(x, perturb(r, active, cfg), active)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            point = sam_perturb(x, r, active, cfg, layer_l2_norm(r, active))
        assert point.data.tobytes() == want.data.tobytes()
        assert x.data.tobytes() == x_before

    @pytest.mark.parametrize("mode", ["global", "per_layer"])
    @pytest.mark.parametrize("rho", [0.05, 0.0])
    def test_refuses_a_direction_of_another_layout(self, mode, rho):
        # Same buffer size, other layout, as a masked axpy refuses it.
        x, r = lv([1.0, 2.0], [3.0, 4.0]), lv([1.0], [2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="shape mismatch"):
            sam_perturb(x, r, ActiveSet((0,)), SamConfig(rho, mode), np.ones(1))


@pytest.mark.parametrize("otype", [t for t, (_, a) in optimizers.OPTIMIZERS.items() if a != "none"])
@pytest.mark.parametrize("problem", [
    {"objective": {"type": "blockquadratic", "layer_dims": [4] * 10, "noise_sigma": 1e-3}},
    {"objective": {"type": "mlp", "widths": [2, 8, 8, 2]}, "dataset": {"type": "two_moons", "n": 64}},
])
def test_no_sam_step_after_the_first_builds_a_zero_vector(otype, problem, monkeypatch):
    # The first step of a stale type creates its stash; no step builds a
    # full-size perturbation.
    trainer = Trainer(ExperimentConfig.from_dict({
        **problem,
        "optimizer": {"type": otype},
        "bandit": {"s_over_n": 0.5},
        "train": {"steps": 6, "batch_size": 16, "seed": 0, "eval_every": 2},
    }))
    trainer.step()
    zeros, calls = LayeredVector.zeros, []

    def counting(cls, dims):
        calls.append(tuple(dims))
        return zeros(dims)

    monkeypatch.setattr(LayeredVector, "zeros", classmethod(counting))
    for _ in range(5):
        trainer.step()
    assert calls == []


def scalar_objective() -> BlockQuadratic:
    return BlockQuadratic([1])


class TestAdasamStep:
    def test_scalar_frozen_trace(self):
        obj = scalar_objective()
        x = lv([1.0])
        state = OptimizerState.init(obj.layer_dims)
        tel = adasam_step(obj, x, None, state, SamConfig(0.1, "global"), CFG)
        assert block(x, 0)[0] == pytest.approx(SAM_SCALAR_X1, rel=1e-12)
        assert block(x, 0)[0] == pytest.approx(0.683775, abs=5e-6)
        assert tel.grad_passes == 2
        assert tel.loss == pytest.approx(0.5, rel=1e-12)
        assert tel.grad_l1 == pytest.approx(1.0, rel=1e-12)

    def test_rho_zero_equals_adamw(self):
        obj = MlpClassifier([2, 8, 2], activation="tanh")
        rng = np.random.default_rng(3)
        batches = [
            Batch(rng.standard_normal((4, 2)), rng.integers(0, 2, 4), id=i)
            for i in range(50)
        ]
        xa = obj.init_params(0)
        xb = obj.init_params(0)
        sa = OptimizerState.init(obj.layer_dims)
        sb = OptimizerState.init(obj.layer_dims)
        for b in batches:
            adasam_step(obj, xa, b, sa, SamConfig(0.0, "global"), CFG)
            adamw_baseline_step(obj, xb, b, sb, CFG)
            assert np.array_equal(xa.data, xb.data)

    def test_pass_counter_total(self):
        obj = scalar_objective()
        x = lv([1.0])
        state = OptimizerState.init(obj.layer_dims)
        total = sum(
            adasam_step(obj, x, None, state, SamConfig(0.01, "global"), CFG).grad_passes
            for _ in range(7)
        )
        assert total == 14


class TestSparseSamStep:
    def test_single_layer_matches_dense_trace(self):
        # One layer makes per-layer and global normalization coincide.
        obj = scalar_objective()
        x = lv([1.0])
        state = OptimizerState.init(obj.layer_dims)
        tel = sam_step(
            obj, x, None, state, ActiveSet((0,)), "fresh", SamConfig(0.1, "per_layer"), CFG
        )
        assert block(x, 0)[0] == pytest.approx(SAM_SCALAR_X1, rel=1e-12)
        assert tel.active_param_count == 1
        assert tel.per_layer_r_norms.tolist() == [1.0]

    def test_rho_zero_equals_masked_adamw(self):
        obj = BlockQuadratic([2, 3], scales=[1.0, 2.0])
        active = ActiveSet((1,))
        xa = obj.init_params(0)
        xb = obj.init_params(0)
        sa = OptimizerState.init(obj.layer_dims)
        sb = OptimizerState.init(obj.layer_dims)
        for t in range(20):
            batch = scalar_batch(t)
            sam_step(obj, xa, batch, sa, active, "fresh", SamConfig(0.0, "per_layer"), CFG)
            g = obj.grad(xb, batch, active)
            adamw_step(sb, xb, g, active, CFG)
            assert np.array_equal(xa.data, xb.data)

    def test_frozen_layers_untouched(self):
        obj = BlockQuadratic([2, 3])
        x = obj.init_params(0)
        before = x.copy()
        state = OptimizerState.init(obj.layer_dims)
        sam_step(obj, x, None, state, ActiveSet((0,)), "fresh", SamConfig(0.01, "per_layer"), CFG)
        assert np.array_equal(block(x, 1), block(before, 1))


class TestSlsamStep:
    def test_telemetry_and_distribution_update(self):
        obj = BlockQuadratic([4] * 5)
        x = obj.init_params(0)
        state = OptimizerState.init(obj.layer_dims)
        dist = init_uniform(5, 1.0, 0.02)
        rng = stream(0, "bandit")
        new_dist, tel = slsam_step(
            obj, x, None, state, dist, SamConfig(0.01, "per_layer"), CFG,
            BanditConfig(), rng,
        )
        assert tel.grad_passes == 2
        assert len(tel.active_layers) >= 1
        assert tel.active_param_count == 4 * len(tel.active_layers)
        assert tel.per_layer_r_norms.shape == (len(tel.active_layers),)
        assert abs(float(np.sum(new_dist.p)) - 1.0) <= 1e-9

    def test_deterministic_trajectories(self):
        def run():
            obj = BlockQuadratic([3, 3, 3], noise_sigma=0.1, noise_seed=1)
            x = obj.init_params(0)
            state = OptimizerState.init(obj.layer_dims)
            dist = init_uniform(3, 1.0, 0.02)
            rng = stream(5, "bandit")
            for t in range(40):
                dist, _ = slsam_step(
                    obj, x, scalar_batch(t), state, dist,
                    SamConfig(0.01, "per_layer"), CFG, BanditConfig(), rng,
                )
            return x.data, dist.p

        xa, pa = run()
        xb, pb = run()
        assert np.array_equal(xa, xb)
        assert np.array_equal(pa, pb)

    def test_full_budget_matches_dense_layerwise_sam(self):
        obj = BlockQuadratic([2, 3], scales=[1.0, 3.0])
        xa = obj.init_params(0)
        xb = obj.init_params(0)
        sa = OptimizerState.init(obj.layer_dims)
        sb = OptimizerState.init(obj.layer_dims)
        dist = SamplingDistribution(np.ones(2), s=2.0, p_min=0.1)
        rng = stream(6, "bandit")
        sam = SamConfig(0.05, "per_layer")
        for t in range(30):
            batch = scalar_batch(t)
            dist, tel = slsam_step(obj, xa, batch, sa, dist, sam, CFG, BanditConfig(), rng)
            assert tel.active_layers.tolist() == [0, 1]
            adasam_step(obj, xb, batch, sb, sam, CFG)
            assert np.array_equal(xa.data, xb.data)
            assert np.allclose(dist.p, np.ones(2), atol=1e-12)


class TestS2samStep:
    def test_bootstrap_equals_adamw(self):
        obj = scalar_objective()
        xa, xb = lv([1.0]), lv([1.0])
        sa = OptimizerState.init(obj.layer_dims)
        sb = OptimizerState.init(obj.layer_dims)
        tel = s2sam_step(obj, xa, None, sa, SamConfig(0.1, "global"), CFG)
        adamw_baseline_step(obj, xb, None, sb, CFG)
        assert np.array_equal(block(xa, 0), block(xb, 0))
        assert tel.grad_passes == 1
        assert tel.per_layer_staleness.size == 0

    def test_rho_zero_equals_adamw_all_steps(self):
        obj = BlockQuadratic([2, 2], scales=[1.0, 4.0])
        xa = obj.init_params(0)
        xb = obj.init_params(0)
        sa = OptimizerState.init(obj.layer_dims)
        sb = OptimizerState.init(obj.layer_dims)
        for t in range(25):
            batch = scalar_batch(t)
            s2sam_step(obj, xa, batch, sa, SamConfig(0.0, "global"), CFG)
            adamw_baseline_step(obj, xb, batch, sb, CFG)
            assert np.array_equal(xa.data, xb.data)

    def test_one_pass_per_step_and_staleness_one(self):
        obj = BlockQuadratic([2, 2])
        x = obj.init_params(0)
        state = OptimizerState.init(obj.layer_dims)
        passes = 0
        for t in range(10):
            tel = s2sam_step(obj, x, scalar_batch(t), state, SamConfig(0.01, "global"), CFG)
            passes += tel.grad_passes
            if t >= 1:
                assert tel.per_layer_staleness.tolist() == [1, 1]
        assert passes == 10

    def test_uses_previous_gradient_direction(self):
        # After the bootstrap the perturbation must come from the stashed
        # gradient, not from a fresh ascent pass.
        obj = scalar_objective()
        x = lv([1.0])
        state = OptimizerState.init(obj.layer_dims)
        s2sam_step(obj, x, None, state, SamConfig(0.1, "global"), CFG)
        g_stash = block(state.prev_grad, 0)[0]
        x_before = block(x, 0)[0]
        s2sam_step(obj, x, None, state, SamConfig(0.1, "global"), CFG)
        # Expected: g evaluated at x_before + rho * sign(g_stash).
        expected_g = x_before + 0.1 * np.sign(g_stash)
        assert block(state.prev_grad, 0)[0] == pytest.approx(expected_g, rel=1e-12)


class TestOneStashWritePath:
    """Every stale step writes the stash the same way; the first one
    creates it, as zeros stashed at step 0."""

    CFG_SAM = SamConfig(0.05, "per_layer")

    @staticmethod
    def recording(obj) -> list:
        """Wrap obj's passes to record the point and gradient of each."""
        passes, inner = [], obj.loss_and_grad

        def loss_and_grad(x, batch, active, reuse=False):
            loss, g = inner(x, batch, active, reuse)
            passes.append((x.copy(), g))
            return loss, g

        obj.loss_and_grad = loss_and_grad
        return passes

    def first_step(self, active):
        obj = BlockQuadratic([2] * 4)
        x, state = obj.init_params(0), OptimizerState.init(obj.layer_dims)
        sam_step(obj, x, scalar_batch(0), state, active, "stale", self.CFG_SAM, CFG)
        return obj, x, state

    def test_first_stale_step_steps_on_its_set_and_stashes_a_copy(self):
        obj = BlockQuadratic([2] * 4)
        x, state = obj.init_params(0), OptimizerState.init(obj.layer_dims)
        before, passes = x.copy(), self.recording(obj)
        tel = sam_step(obj, x, scalar_batch(0), state, ActiveSet((1,)), "stale", self.CFG_SAM, CFG)
        moved = [not np.array_equal(block(x, l), block(before, l)) for l in range(4)]
        assert moved == [False, True, False, False]
        assert state.stash_step.tolist() == [0, 1, 0, 0]
        assert tel.per_layer_staleness.size == 0
        ((_, g),) = passes
        assert state.prev_grad is not g and not np.shares_memory(state.prev_grad.data, g.data)
        # The stash holds g on the set and zeros elsewhere, whatever the
        # pass left in g's other blocks.
        for l in range(4):
            want = block(g, l) if l == 1 else np.zeros(2)
            assert block(state.prev_grad, l).tobytes() == want.tobytes()

    def test_a_layer_never_stashed_is_perturbed_by_zero(self):
        obj, x, state = self.first_step(ActiveSet((1,)))
        before, passes = x.copy(), self.recording(obj)
        tel = sam_step(obj, x, scalar_batch(1), state, ActiveSet((0, 1)), "stale", self.CFG_SAM, CFG)
        ((point, _),) = passes
        assert np.array_equal(block(point, 0), block(before, 0))
        assert not np.array_equal(block(point, 1), block(before, 1))
        assert tel.per_layer_staleness.tolist() == [2, 1]
        assert state.stash_step.tolist() == [2, 2, 0, 0]

    def test_a_stale_step_refuses_layers_out_of_range_and_writes_nothing(self):
        obj, x, state = self.first_step(ActiveSet.full(4))
        kept = [x.copy(), state.m.copy(), state.v.copy(), state.prev_grad.copy()]
        stash = state.stash_step.copy(), state.stash_norm.copy()
        with pytest.raises(ValueError, match=r"layer indices \[4\] out of range for 4 layers"):
            sam_step(obj, x, scalar_batch(1), state, ActiveSet((0, 4)), "stale", self.CFG_SAM, CFG)
        assert state.t == 1
        now = [x, state.m, state.v, state.prev_grad]
        assert all(np.array_equal(a.data, b.data) for a, b in zip(kept, now))
        assert np.array_equal(stash[0], state.stash_step)
        assert np.array_equal(stash[1], state.stash_norm)


class TestStepsKeepNoSets:
    """A step's record keeps its set's index array, not the set, so the
    sets a run draws over many layers go when their steps are done."""

    def test_no_drawn_set_outlives_its_step(self, monkeypatch):
        obj = BlockQuadratic([3] * 12)
        x, state = obj.init_params(0), OptimizerState.init(obj.layer_dims)
        dist = init_uniform(12, 3.0, 0.02)
        rng = stream(0, "bandit")
        drawn = []

        def sample(*args):
            active, redraws = sample_active_set(*args)
            drawn.append(weakref.ref(active))
            return active, redraws

        monkeypatch.setattr(optimizers, "sample_active_set", sample)
        tels = []  # kept alive, as a run's record keeps them
        for t in range(20):
            dist, tel = slsam_step(
                obj, x, scalar_batch(t), state, dist, SamConfig(0.05), CFG, BanditConfig(), rng
            )
            tels.append(tel)
        gc.collect()
        assert len(drawn) == len(tels) == 20 and all(ref() is None for ref in drawn)


class TestSlS2samStep:
    def run_steps(self, n_steps: int, seed: int = 0):
        obj = BlockQuadratic([2] * 4, noise_sigma=0.05, noise_seed=seed)
        x = obj.init_params(seed)
        state = OptimizerState.init(obj.layer_dims)
        dist = init_uniform(4, 1.2, 0.03)
        rng = stream(seed, "bandit")
        tels = []
        for t in range(n_steps):
            dist, tel = sl_s2sam_step(
                obj, x, scalar_batch(t), state, dist,
                SamConfig(0.05, "per_layer"), CFG, BanditConfig(), rng,
            )
            tels.append(tel)
        return tels, state

    def test_bootstrap_dense_and_stashes_all(self):
        tels, state = self.run_steps(1)
        assert tels[0].active_layers.tolist() == [0, 1, 2, 3]
        assert tels[0].grad_passes == 1
        assert state.prev_grad is not None
        assert np.array_equal(state.stash_step, np.ones(4, dtype=np.int64))

    def test_staleness_matches_tracked_gaps(self):
        tels, _ = self.run_steps(200)
        last_stash = {l: 1 for l in range(4)}
        for tel in tels[1:]:
            assert tel.grad_passes == 1
            for l, staleness in zip(tel.active_layers, tel.per_layer_staleness):
                assert staleness == tel.step - last_stash[l]
                assert staleness >= 1
                last_stash[l] = tel.step

    def test_stashed_norms_match_stashed_gradient(self):
        # The stale perturbation reads its norms from stash_norm instead of
        # recomputing them, so each entry must be its stashed block's norm.
        for n_steps in (1, 2, 30):
            _, state = self.run_steps(n_steps)
            want = layer_l2_norm(state.prev_grad, ActiveSet.full(4))
            assert np.array_equal(state.stash_norm, want)

    def test_step_two_staleness_one(self):
        # A layer held at p=1 is sampled immediately after the bootstrap.
        obj = BlockQuadratic([2, 2])
        x = obj.init_params(0)
        state = OptimizerState.init(obj.layer_dims)
        dist = SamplingDistribution(np.array([1.0, 0.1]), s=1.1, p_min=0.1)
        rng = stream(1, "bandit")
        for t in range(2):
            dist, tel = sl_s2sam_step(
                obj, x, scalar_batch(t), state, dist,
                SamConfig(0.01, "per_layer"), CFG, BanditConfig(), rng,
            )
        assert tel.active_layers[0] == 0
        assert tel.per_layer_staleness[0] == 1

    def test_unsampled_gap_increments_staleness(self):
        tels, _ = self.run_steps(300, seed=2)
        # Find a layer that sat out k steps; its next staleness must be k+1.
        seen_gap = False
        last = {l: 1 for l in range(4)}
        for tel in tels[1:]:
            for l, staleness in zip(tel.active_layers, tel.per_layer_staleness):
                gap = tel.step - last[l] - 1
                if gap >= 1:
                    assert staleness == gap + 1
                    seen_gap = True
                last[l] = tel.step
        assert seen_gap


class TestAblationSelectors:
    def test_greedy_ranks_largest_scale_first(self):
        obj = BlockQuadratic([1, 1], scales=[1.0, 10.0])
        g = obj.grad(lv([1.0], [1.0]), None, ActiveSet.full(2))
        active = select_layers_ablation(2, 1, stream(0, "sel"), g)
        assert list(active) == [1]

    def test_uniform_k_equals_n_full_set(self):
        active = select_layers_ablation(3, 3, stream(0, "sel"))
        assert list(active) == [0, 1, 2]

    def test_greedy_tie_lower_index(self):
        obj = BlockQuadratic([1, 1], scales=[1.0, 1.0])
        g = obj.grad(lv([1.0], [1.0]), None, ActiveSet.full(2))
        active = select_layers_ablation(2, 1, stream(0, "sel"), g)
        assert list(active) == [0]

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            select_layers_ablation(2, 3, stream(0, "s"))
        with pytest.raises(ValueError):
            select_layers_ablation(2, 0, stream(0, "s"))

    def test_uniform_random_spread(self):
        rng = stream(4, "sel")
        counts = np.zeros(6)
        for _ in range(2000):
            for l in select_layers_ablation(6, 2, rng):
                counts[l] += 1
        assert np.all(np.abs(counts / 2000 - 2 / 6) < 0.05)

    def test_greedy_step_charges_selection_pass(self):
        obj = BlockQuadratic([2, 2])
        x = obj.init_params(0)
        state = OptimizerState.init(obj.layer_dims)
        tel = ablation_step(
            "greedy_topk", obj, x, None, state, 1, SamConfig(0.01, "per_layer"), CFG,
            stream(0, "sel"),
        )
        assert tel.selection_param_count == obj.dim
        tel2 = ablation_step(
            "uniform_random", obj, x, None, state, 1, SamConfig(0.01, "per_layer"), CFG,
            stream(0, "sel"),
        )
        assert tel2.selection_param_count == 0

    @pytest.mark.parametrize("perturb_norm", ["global", "per_layer"])
    def test_greedy_reused_ascent_matches_fresh_pass(self, perturb_norm):
        # The selection gradient's active blocks stand in for the ascent
        # pass; a step that recomputes them must land on the same bits.
        obj = BlockQuadratic([3, 1, 4, 2, 5], scales=[1.0, 3.0, 0.5, 2.0, 1.5], noise_sigma=0.1)
        sam = SamConfig(0.05, perturb_norm)
        xa, sa = obj.init_params(0), OptimizerState.init(obj.layer_dims)
        xb, sb = obj.init_params(0), OptimizerState.init(obj.layer_dims)
        for t in range(20):
            b = scalar_batch(t)
            ta = ablation_step("greedy_topk", obj, xa, b, sa, 2, sam, CFG, stream(0, "sel"))
            g = obj.grad(xb, b, ActiveSet.full(obj.n_layers))
            active = select_layers_ablation(obj.n_layers, 2, stream(0, "sel"), g)
            tb = sam_step(obj, xb, b, sb, active, "fresh", sam, CFG)
            assert np.array_equal(ta.active_layers, tb.active_layers)
            assert (ta.loss, ta.grad_l1) == (tb.loss, tb.grad_l1)
            assert np.array_equal(ta.per_layer_r_norms, tb.per_layer_r_norms)
            for u, w in ((xa, xb), (sa.m, sb.m), (sa.v, sb.v)):
                assert np.array_equal(u.data, w.data)


def _per_block_adamw(state, x, g, active, cfg):
    """Block-by-block AdamW, the reference for the run-wise update."""
    for l in active:
        gl, m, v, xl = (block(u, l) for u in (g, state.m, state.v, x))
        m[...] = cfg.beta1 * m + (1.0 - cfg.beta1) * gl
        v[...] = cfg.beta2 * v + (1.0 - cfg.beta2) * gl * gl
        xl[...] = (
            xl
            - cfg.eta * m / np.sqrt(v + cfg.adam_eps)
            - cfg.eta * cfg.weight_decay * xl
        )


def _per_block_perturb(r, active, cfg):
    """Block-by-block perturbation, the reference for sam_perturb's
    scaling, given the same per-layer and joint norms."""
    eps = [np.zeros(d) for d in r.dims]
    norms = dict(zip(active, layer_l2_norm(r, active).tolist()))
    if cfg.rho == 0.0 or not norms:
        return eps
    if cfg.perturb_norm == "per_layer":
        for l in active:
            if norms[l] > 0.0:
                eps[l] = (cfg.rho / norms[l]) * block(r, l)
    else:
        joint = math.sqrt(np.dot(list(norms.values()), list(norms.values())))
        if joint > 0.0:
            for l in active:
                eps[l] = (cfg.rho / joint) * block(r, l)
    return eps


class TestRunWiseMatchesPerBlock:
    """Run-wise updates over the flat buffer give the per-block bits, and
    leave every inactive slice of x, m and v untouched."""

    @given(
        n=st.integers(1, 500),
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["random", "full", "singleton"]),
        wd=st.sampled_from([0.0, 0.01]),
        rho=st.sampled_from([0.0, 0.05]),
        a=st.floats(-4.0, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_adamw_axpy_perturb(self, n, seed, kind, wd, rho, a):
        rng = np.random.default_rng(seed)
        dims = rng.integers(1, 9, n)
        if kind == "full":
            active = ActiveSet.full(n)
        elif kind == "singleton":
            active = ActiveSet((int(rng.integers(n)),))
        else:
            active = ActiveSet.from_iterable(np.flatnonzero(rng.random(n) < 0.5))
        cfg = AdamWConfig(eta=0.01, weight_decay=wd)

        def rand():
            return LayeredVector([rng.standard_normal(d) for d in dims])

        x, g = rand(), rand()
        state = OptimizerState(rand(), LayeredVector([rng.random(d) for d in dims]))
        x_ref, ref = x.copy(), OptimizerState(state.m.copy(), state.v.copy())
        adamw_step(state, x, g, active, cfg)
        _per_block_adamw(ref, x_ref, g, active, cfg)
        for got, want in ((x, x_ref), (state.m, ref.m), (state.v, ref.v)):
            assert np.array_equal(got.data, want.data)

        y = rand()
        y_ref = [block(y, l).copy() for l in range(len(y.dims))]
        masked_axpy(y, a, g, active)
        for l in active:
            y_ref[l] += a * block(g, l)
        assert np.array_equal(y.data, np.concatenate(y_ref))

        for mode in ("global", "per_layer"):
            eps = perturb(g, active, SamConfig(rho, mode))
            want = _per_block_perturb(g, active, SamConfig(rho, mode))
            assert np.array_equal(eps.data, np.concatenate(want))

    @given(n=st.integers(1, 500), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_inactive_slices_untouched(self, n, seed):
        rng = np.random.default_rng(seed)
        dims = rng.integers(1, 9, n)
        active = ActiveSet.from_iterable(np.flatnonzero(rng.random(n) < 0.3))
        x = LayeredVector([rng.standard_normal(d) for d in dims])
        g = LayeredVector([rng.standard_normal(d) for d in dims])
        state = OptimizerState.init(dims)
        before = [v.data.copy() for v in (x, state.m, state.v)]
        adamw_step(state, x, g, active, AdamWConfig(eta=0.01, weight_decay=0.01))
        masked_axpy(x, 2.0, g, active)
        for v, old in zip((x, state.m, state.v), before):
            for l in range(n):
                if l not in active:
                    assert np.array_equal(block(v, l), old[x.offsets[l] : x.offsets[l + 1]])


class TestMomentRatioBound:
    def test_moment_ratio_bounded_with_small_beta2(self):
        # beta2 <= sqrt(beta1) caps m^2/(v + eps); exhaustive run lives in
        # the acceptance suite, this is a quick smoke over 500 steps.
        cfg = AdamWConfig(eta=1e-3, beta1=0.9, beta2=0.94)
        obj = BlockQuadratic([3, 3], noise_sigma=0.1, noise_seed=7)
        x = obj.init_params(0)
        state = OptimizerState.init(obj.layer_dims)
        dist = init_uniform(2, 1.0, 0.05)
        rng = stream(7, "bandit")
        worst = 0.0
        for t in range(500):
            dist, _ = slsam_step(
                obj, x, scalar_batch(t), state, dist,
                SamConfig(0.01, "per_layer"), cfg, BanditConfig(), rng,
            )
            for l in range(2):
                ratio = np.max(block(state.m, l) ** 2 / (block(state.v, l) + cfg.adam_eps))
                worst = max(worst, float(ratio))
        assert worst <= 8.0


class TestBlocksOutsideTheSetAreNeverRead:
    """A gradient's blocks outside its pass's set are the objective's own
    business (`Objective.loss_and_grad`): a run whose objective fills them
    with NaN after every pass over fewer than all layers keeps every bit
    of the run that leaves them as computed."""

    CONFIGS = {
        "quadratic": {
            "objective": {
                "type": "blockquadratic",
                "layer_dims": [3, 64, 1, 300, 7, 2],
                "scales": [0.5, 2.0, 1.0, 0.25, 4.0, 1.5],
                "noise_sigma": 0.1,
            },
            "bandit": {"s_over_n": 0.5},
            "train": {"steps": 40, "batch_size": 1, "seed": 3, "eval_every": 10},
        },
        "mlp-moons": {
            "objective": {"type": "mlp", "widths": [2, 16, 16, 2], "activation": "tanh"},
            "dataset": {"type": "two_moons", "n": 256},
            "bandit": {"s_over_n": 0.5},
            "train": {"steps": 40, "batch_size": 32, "seed": 0, "eval_every": 10},
        },
    }

    @staticmethod
    def poison(obj) -> list:
        """Fill the blocks outside each restricted pass's set with NaN;
        returns the list of the sets it poisoned around."""
        sets, inner = [], obj.loss_and_grad

        def loss_and_grad(x, batch, active, reuse=False):
            loss, g = inner(x, batch, active, reuse)
            if len(active) < obj.n_layers:
                sets.append(active.index)
                for l in set(range(obj.n_layers)) - set(active):
                    g.data[g.offsets[l] : g.offsets[l + 1]] = np.nan
            return loss, g

        obj.loss_and_grad = loss_and_grad
        return sets

    @classmethod
    def run(cls, cfg: dict, poisoned: bool) -> tuple[list, list]:
        """The run's final bits (x, m, v, the stash, p, every StepTelemetry
        field but wall_ns, every probe) and the sets poisoned around."""
        trainer = Trainer(ExperimentConfig.from_dict(cfg))
        sets = cls.poison(trainer.objective) if poisoned else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(cfg["train"]["steps"]):
                trainer.step()

        def bits(v):
            if isinstance(v, np.ndarray):
                return v.dtype.str, v.tobytes()
            return float(v).hex() if isinstance(v, float) else v

        st = trainer.state
        out = [bits(v) for v in (trainer.x.data, st.m.data, st.v.data)]
        if st.prev_grad is not None:
            out += [bits(v) for v in (st.prev_grad.data, st.stash_step, st.stash_norm)]
        if trainer.dist is not None:
            out.append(bits(trainer.dist.p))
        for tel in trainer.record.steps:
            out.append({k: bits(v) for k, v in vars(tel).items() if k != "wall_ns"})
        out += [(p.step, bits(p.loss), bits(p.grad_l1)) for p in trainer.record.probes]
        return out, sets

    @pytest.mark.parametrize("otype", OPTIMIZER_TYPES)
    @pytest.mark.parametrize("workload", list(CONFIGS))
    def test_a_poisoned_run_keeps_every_bit(self, workload, otype):
        cfg = {**self.CONFIGS[workload], "optimizer": {"type": otype}}
        want, _ = self.run(cfg, poisoned=False)
        got, sets = self.run(cfg, poisoned=True)
        assert got == want
        if optimizers.OPTIMIZERS[otype][0] != "all":
            assert len(sets) >= 30
            if workload == "quadratic":
                # Sets with a gap, so layers outside the set lie in its span.
                assert any(np.diff(s).max(initial=1) > 1 for s in sets)


class TestOverflowOutsideTheSet:
    """A restricted quadratic gradient holds the full gradient outside its
    set, and total_l1_norm reduces the set's span without an errstate. So
    a layer outside the set but inside its span whose L1 sum overflows
    warns, though its inf is dropped; the full-set probe warns the same
    way, and a step that draws the layer diverges."""

    @staticmethod
    def case():
        obj = BlockQuadratic([64] * 3, scales=[1.0, 6e306, 1.0])
        x = obj.init_params(0)
        x.data[:] = 0.5
        return obj, x

    def test_the_span_warns_and_the_set_keeps_its_norm(self):
        obj, x = self.case()
        ends = ActiveSet((0, 2))
        loss, g = obj.loss_and_grad(x, None, ends)
        assert loss == pytest.approx(4.8e307, rel=1e-15)
        assert np.all(block(g, 1) == 3e306)
        with pytest.warns(RuntimeWarning, match="overflow encountered in reduceat"):
            assert total_l1_norm(g, ends) == 64.0
        with pytest.warns(RuntimeWarning, match="overflow encountered in reduceat"):
            assert total_l1_norm(g, ActiveSet.full(3)) == math.inf

    def test_a_step_on_the_layer_diverges(self):
        obj, x = self.case()
        state = OptimizerState.init(obj.layer_dims)
        with pytest.raises(DivergenceError, match="gradient in layer 1 at step 1 has no finite square"):
            sam_step(obj, x, None, state, ActiveSet((1, 2)), "none", None, CFG)
