"""The benchmark's span targets still name call sites of the package.

`perfbench/spans.py` wraps module globals and class attributes by name;
a renamed function would otherwise only surface in a traced benchmark
run. Under the same tracer, a step's `layered.*` call count must not
grow with the number of layers.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from sparsam.config import ExperimentConfig
from sparsam.runner import Trainer

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def raw(target):
    if isinstance(target.owner, type):
        return target.owner.__dict__[target.attr]
    return getattr(target.owner, target.attr)


def test_every_target_resolves():
    for t in load_spans().package_targets():
        if isinstance(t.owner, type):
            assert t.attr in t.owner.__dict__, t.name
        assert callable(getattr(t.owner, t.attr)), t.name


def test_tracer_sees_a_sparse_step_and_restores_every_target():
    spans = load_spans()
    targets = spans.package_targets()
    before = [raw(t) for t in targets]
    trainer = Trainer(ExperimentConfig.from_dict({
        "objective": {"type": "blockquadratic", "layer_dims": [4] * 10, "noise_sigma": 1e-3},
        "optimizer": {"type": "slsam"},
        "train": {"steps": 2, "batch_size": 1, "seed": 0, "eval_every": 1},
    }))
    with spans.Tracer(targets) as tracer:
        assert all(raw(t) is not b for t, b in zip(targets, before))
        trainer.step()
    assert all(raw(t) is b for t, b in zip(targets, before))
    calls = [tracer.names[i] for i in tracer.name_id]
    assert {
        "Trainer.step",
        "optimizers.slsam_step",
        "optimizers.adamw_step",
        "optimizers.sam_perturb",
        "layered.layer_l2_norm",
        "layered.total_l1_norm",
        "layered.active_param_count",
        "BlockQuadratic.loss_and_grad",
        "Objective.grad",
        "RunRecord.append",
    } <= set(calls)
    # The step's two passes take their loss from the gradient's expression;
    # neither they nor the probe make a separate loss pass.
    frame = tracer.frame()
    in_step = frame.has_ancestor(frame.name_id == tracer.names.index("optimizers.slsam_step"))
    step_calls = [c for c, inside in zip(calls, in_step) if inside]
    assert step_calls.count("BlockQuadratic.loss_and_grad") == 2
    assert calls.count("BlockQuadratic.loss") == 0


def test_tracer_sees_both_passes_of_an_mlp_top_slsam_step():
    # The descent pass starts above the input when it reuses the
    # selection pass's forward; it must still enter through the traced
    # Objective.grad and MlpClassifier.loss_and_grad.
    spans = load_spans()
    trainer = Trainer(ExperimentConfig.from_dict({
        "objective": {"type": "mlp", "widths": [2, 8, 8, 8, 2]},
        "dataset": {"type": "blobs", "n": 64},
        "optimizer": {"type": "top_slsam"},
        "train": {"steps": 2, "batch_size": 16, "seed": 0, "eval_every": 1000},
    }))
    with spans.Tracer(spans.package_targets()) as tracer:
        trainer.step()
    calls = [tracer.names[i] for i in tracer.name_id]
    assert calls.count("Objective.grad") == 1
    assert calls.count("MlpClassifier.loss_and_grad") == 2


def layered_spans_per_step(otype: str, n_layers: int) -> int:
    """`layered.*` spans one step records on an n-layer quadratic."""
    spans = load_spans()
    trainer = Trainer(ExperimentConfig.from_dict({
        "objective": {"type": "blockquadratic", "layer_dims": [4] * n_layers, "noise_sigma": 1e-3},
        "optimizer": {"type": otype},
        "bandit": {"s_over_n": 0.5},
        "train": {"steps": 2, "batch_size": 1, "seed": 0, "eval_every": 1000},
    }))
    with spans.Tracer(spans.package_targets()) as tracer:
        trainer.step()
    return sum(tracer.names[i].startswith("layered.") for i in tracer.name_id)


@pytest.mark.parametrize("otype", ["adasam", "slsam"])
def test_layered_calls_per_step_do_not_grow_with_the_layer_count(otype):
    # Per-layer norms and the L1 sum are one segmented reduction each,
    # so the count is the same for 10 layers and for 200.
    assert layered_spans_per_step(otype, 10) == layered_spans_per_step(otype, 200)
