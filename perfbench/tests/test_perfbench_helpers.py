"""Tests for the benchmark's own helpers.

Run with: python -m pytest perfbench/tests -q
"""

import json
import types

import numpy as np
import pytest

from checks import capture_trainers, parse_steps_csv, recompute_active_ratio
from spans import SpanFrame, Target, Tracer
from timing import Block, normalised_series, tail_choice, tail_value


class TestTail:
    @pytest.mark.parametrize(
        "n, pct, expected",
        [(1000, 99.0, (99.0, 10)), (5000, 99.0, (99.0, 50)), (20000, 99.0, (99.0, 200)),
         (200, 95.0, (95.0, 10)), (999, 90.0, (90.0, 99)),
         # Too few beyond the workload's percentile: the highest grid point with ten.
         (999, 99.0, (95.0, 49)), (199, 95.0, (90.0, 19)), (20, 95.0, (50.0, 10)),
         (19, 95.0, None)],
    )
    def test_percentile_with_at_least_ten_beyond(self, n, pct, expected):
        assert tail_choice(n, pct) == expected

    def test_value_has_exactly_beyond_samples_above(self):
        values = np.random.default_rng(0).permutation(1000).astype(float)
        value, pct, beyond = tail_value(values, 99.0)
        assert (pct, beyond) == (99.0, 10)
        assert value == 989.0
        assert int((values > value).sum()) == beyond

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            tail_value(np.arange(5.0), 90.0)


class TestNormalisation:
    def test_each_block_uses_the_mean_of_its_own_refs(self):
        a = Block("adamw", ref_before=100.0, ref_after=300.0, ns=[200, 400])
        b = Block("adamw", ref_before=300.0, ref_after=100.0, ns=[600])
        c = Block("adamw", ref_before=50.0, ref_after=50.0, ns=[100])
        assert a.ref == 200.0
        np.testing.assert_array_equal(normalised_series([a, b, c]), [1.0, 2.0, 3.0, 2.0])

    def test_preempted_calls_are_left_out(self):
        b = Block("adamw", ref_before=100.0, ref_after=100.0, ns=[200, 900_000, 300],
                  cpu=[199, 100_000, 299])
        np.testing.assert_array_equal(b.normalised(), [2.0, 3.0])

    def test_time_call_records_wall_and_cpu(self):
        b = Block("x", 1.0, 1.0)
        assert b.time_call(lambda: sum(range(1000))) == 499500
        assert len(b.ns) == len(b.cpu) == 1 and b.ns[0] > 0

    def test_empty_blocks_are_skipped(self):
        assert normalised_series([Block("x", 1.0, 1.0)]).size == 0


class TestSpans:
    def test_self_time_subtracts_direct_children(self):
        # root [0, 100) holds child [10, 40) with grandchild [20, 30), and child [50, 70).
        fr = SpanFrame(
            name_id=np.array([0, 1, 2, 1]),
            parent=np.array([-1, 0, 1, 0]),
            t0=np.array([0, 10, 20, 50]),
            t1=np.array([100, 40, 30, 70]),
        )
        np.testing.assert_array_equal(fr.self_time(), [50, 20, 10, 20])
        flag = np.array([False, True, False, False])
        np.testing.assert_array_equal(fr.has_ancestor(flag), [False, False, True, False])

    def test_tracer_records_nesting_and_restores(self):
        mod = types.ModuleType("fake")
        mod.inner = lambda x: x + 1
        mod.outer = lambda x: mod.inner(x) * 2
        original = (mod.inner, mod.outer)
        tracer = Tracer([Target(mod, "outer", "outer", "a"), Target(mod, "inner", "inner", "b")])
        with tracer:
            assert mod.outer(1) == 4
            assert mod.inner(1) == 2
        assert (mod.inner, mod.outer) == original
        fr = tracer.frame()
        np.testing.assert_array_equal(fr.name_id, [0, 1, 1])
        np.testing.assert_array_equal(fr.parent, [-1, 0, -1])
        assert (fr.self_time() >= 0).all()
        assert fr.duration[0] >= fr.duration[1]

    def test_tracer_wraps_classmethods(self):
        class C:
            @classmethod
            def make(cls, v):
                return (cls, v)

        tracer = Tracer([Target(C, "make", "C.make", "a")])
        with tracer:
            assert C.make(3) == (C, 3)
        assert isinstance(C.__dict__["make"], classmethod)
        assert len(tracer) == 1


CSV = """step,loss,grad_l1,active_layers,active_params,grad_passes,wall_ns
1,0.5,1.0,0|1|2,12,1,100
2,0.4,0.9,1,4,2,90
3,0.3,0.8,0|2,8,2,80
"""


class TestActiveRatio:
    def test_from_csv_columns(self):
        rows = parse_steps_csv(CSV)
        assert [r["active_layers"] for r in rows] == [[0, 1, 2], [1], [0, 2]]
        assert recompute_active_ratio(rows, 12, False) == (12 + 8 + 16) / 36
        assert recompute_active_ratio(rows, 12, True) == (12 + 8 + 16 + 36) / 36

    def test_malformed_rows_are_rejected(self):
        with pytest.raises(ValueError):
            parse_steps_csv(CSV.replace("2,0.4,0.9,1,4,2,90", "2,0.4,0.9,1,4"))
        with pytest.raises(ValueError):
            parse_steps_csv(CSV.replace("grad_l1", "g1"))

    @pytest.mark.parametrize("otype", ["slsam", "top_slsam", "adasam"])
    def test_matches_the_summary_of_a_real_run(self, otype, tmp_path):
        from sparsam import runner
        from sparsam.config import ExperimentConfig

        cfg = ExperimentConfig.from_dict(
            {"optimizer": {"type": otype}, "train": {"steps": 20, "eval_every": 5}}
        )
        with capture_trainers(runner) as made:
            runner.run(cfg, tmp_path)
        summary = json.loads((tmp_path / "summary.json").read_text())
        rows = parse_steps_csv((tmp_path / "steps.csv").read_text())
        ratio = recompute_active_ratio(rows, made[0].objective.dim, summary["expensive_selection"])
        assert ratio == summary["active_ratio"]
        assert runner.Trainer is not type(made[0])
