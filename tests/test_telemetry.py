"""Run records and the derived metrics: active ratio and layer frequency."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from sparsam.bandit import SamplingDistribution, sample_active_set
from sparsam.layered import ActiveSet
from sparsam.rng import stream
from sparsam.telemetry import (
    RunRecord,
    StepTelemetry,
    active_ratio,
    layer_frequency,
)


def record(n_layers: int, total_params: int) -> RunRecord:
    return RunRecord(n_layers=n_layers, total_params=total_params)


def tel(step: int, active: ActiveSet, apc: int, passes: int, **kw) -> StepTelemetry:
    # A step records its set's index array, as sam_step does.
    return StepTelemetry(
        step=step, loss=1.0, grad_l1=1.0, active_layers=active.index,
        active_param_count=apc, grad_passes=passes, **kw,
    )


class TestStepTelemetry:
    def test_grad_passes_restricted(self):
        with pytest.raises(ValueError):
            tel(1, ActiveSet((0,)), 1, 3)

    def test_active_set_nonempty(self):
        with pytest.raises(ValueError):
            tel(1, ActiveSet.from_iterable([]), 0, 1)

    def test_step_numbers_start_at_one(self):
        with pytest.raises(ValueError, match="step numbers start at 1"):
            tel(0, ActiveSet((0,)), 1, 1)

    @pytest.mark.parametrize("counts", [{"apc": -1}, {"selection_param_count": -1}])
    def test_parameter_counts_non_negative(self, counts):
        kw = {"apc": 1, **counts}
        with pytest.raises(ValueError, match="parameter counts must be non-negative"):
            tel(1, ActiveSet((0,)), kw.pop("apc"), 1, **kw)

    def test_staleness_positive(self):
        with pytest.raises(ValueError):
            tel(1, ActiveSet((0,)), 1, 1, per_layer_staleness=np.array([0]))

    def test_per_layer_values_align_with_the_active_layers(self):
        tel(1, ActiveSet((0, 3)), 2, 2, per_layer_r_norms=np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="align"):
            tel(1, ActiveSet((0, 3)), 2, 2, per_layer_r_norms=np.array([1.0]))
        with pytest.raises(ValueError, match="align"):
            tel(1, ActiveSet((0,)), 1, 1, per_layer_staleness=np.array([1, 1]))


class TestRunRecord:
    def test_steps_strictly_increasing(self):
        rec = record(2, 10)
        rec.append(tel(1, ActiveSet((0,)), 5, 1))
        rec.append(tel(2, ActiveSet((0,)), 5, 1))
        with pytest.raises(ValueError):
            rec.append(tel(2, ActiveSet((0,)), 5, 1))

    @pytest.mark.parametrize("layers, bad", [((2,), [2]), ((0, 2), [2]), ((1, 3, 4), [3, 4])])
    def test_layers_at_or_beyond_n_layers_are_refused(self, layers, bad):
        rec = record(2, 10)
        msg = re.escape(f"layer indices {bad} out of range for 2 layers")
        with pytest.raises(ValueError, match=msg):
            rec.append(tel(1, ActiveSet(layers), 5, 1))
        assert rec.n_steps == 0
        rec.append(tel(1, ActiveSet((1,)), 5, 1))
        assert rec.n_steps == 1

    def test_n_steps(self):
        rec = record(2, 10)
        assert rec.n_steps == 0
        rec.append(tel(1, ActiveSet((0,)), 5, 1))
        assert rec.n_steps == 1


class TestEmptyRun:
    def test_metrics_refuse_a_run_without_steps(self):
        rec = record(2, 10)
        with pytest.raises(ValueError, match="empty run"):
            active_ratio(rec)
        with pytest.raises(ValueError, match="empty run"):
            layer_frequency(rec)

    def test_active_ratio_refuses_no_parameters(self):
        rec = record(2, 0)
        rec.append(tel(1, ActiveSet((0,)), 0, 1))
        with pytest.raises(ValueError, match="total_params must be positive"):
            active_ratio(rec)


class TestActiveRatio:
    def test_dense_single_pass_is_one(self):
        rec = record(3, 100)
        for t in range(1, 6):
            rec.append(tel(t, ActiveSet.full(3), 100, 1))
        assert active_ratio(rec) == 1.0

    def test_dense_two_pass_is_two(self):
        rec = record(3, 100)
        for t in range(1, 6):
            rec.append(tel(t, ActiveSet.full(3), 100, 2))
        assert active_ratio(rec) == 2.0

    def test_partial_step_arithmetic(self):
        # d = (10, 20, 70): one step on layers {0, 2} with two passes.
        rec = record(3, 100)
        rec.append(tel(1, ActiveSet((0, 2)), 80, 2))
        assert active_ratio(rec) == pytest.approx(1.6, rel=1e-15)

    def test_selection_cost_included(self):
        rec = record(3, 100)
        rec.append(tel(1, ActiveSet((0, 2)), 80, 2, selection_param_count=100))
        assert active_ratio(rec) == pytest.approx(2.6, rel=1e-15)

    def test_uniform_sampling_converges_to_twice_budget_fraction(self):
        # Equal layer sizes, p held uniform at s/N: the ratio concentrates
        # around 2 s/N. N is large enough that conditioning on nonempty
        # draws shifts the mean by far less than the 4-sigma band.
        n, s_over_n, trials = 25, 0.2, 2000
        dist = SamplingDistribution(
            np.full(n, s_over_n), s=n * s_over_n, p_min=0.01
        )
        rng = stream(11, "test")
        rec = record(n, n)
        for t in range(1, trials + 1):
            active, _ = sample_active_set(dist, rng)
            rec.append(tel(t, active, len(active), 2))
        band = 4.0 * math.sqrt(s_over_n * (1 - s_over_n) / trials)
        assert abs(active_ratio(rec) - 2 * s_over_n) <= 2 * band


class TestLayerFrequency:
    def test_always_and_never(self):
        rec = record(3, 30)
        for t in range(1, 11):
            rec.append(tel(t, ActiveSet((0,)), 10, 2))
        freq = layer_frequency(rec)
        assert freq[0] == 1.0
        assert freq[1] == 0.0 and freq[2] == 0.0

    def test_tracks_inclusion_probability(self):
        n, p, trials = 10, 0.3, 10_000
        dist = SamplingDistribution(np.full(n, p), s=n * p, p_min=0.02)
        rng = stream(12, "test")
        rec = record(n, n)
        for t in range(1, trials + 1):
            active, _ = sample_active_set(dist, rng)
            rec.append(tel(t, active, len(active), 2))
        freq = layer_frequency(rec)
        assert np.all(np.abs(freq - p) <= 0.02)

