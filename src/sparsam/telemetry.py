"""Per-step telemetry and run-level metrics.

A run produces one StepTelemetry per optimizer step plus an optional
series of probe records. Probes evaluate the full population gradient
on a fixed schedule for reporting only; they are deliberately kept out
of the step list so cost metrics count exactly the work the optimizer
itself performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class StepTelemetry:
    step: int
    loss: float
    grad_l1: float
    # The step's layers: its set's sorted, read-only index array. A record
    # keeps numbers, not the set, so a step's set and plan go with it.
    active_layers: np.ndarray
    active_param_count: int
    grad_passes: int
    # Per-layer arrays are aligned with active_layers, or empty when the
    # step records none.
    per_layer_r_norms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # Parameters touched by a selection rule outside the optimizer's own
    # gradient passes (greedy full-gradient scoring); counted into
    # active_ratio but not into grad_passes, which stays in {1, 2}.
    selection_param_count: int = 0
    per_layer_staleness: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    redraws: int = 0
    wall_ns: int = 0

    def __post_init__(self) -> None:
        if self.step < 1:
            raise ValueError("step numbers start at 1")
        if self.grad_passes not in (1, 2):
            raise ValueError(f"grad_passes must be 1 or 2, got {self.grad_passes}")
        if self.active_param_count < 0 or self.selection_param_count < 0:
            raise ValueError("parameter counts must be non-negative")
        if len(self.active_layers) == 0:
            raise ValueError("a step must touch at least one layer")
        for a in (self.per_layer_r_norms, self.per_layer_staleness):
            if a.size not in (0, len(self.active_layers)):
                raise ValueError("per-layer values must align with the active layers")
        if self.per_layer_staleness.size and self.per_layer_staleness.min() < 1:
            raise ValueError("staleness counters start at 1")


@dataclass
class ProbeRecord:
    step: int
    loss: float
    grad_l1: float


@dataclass
class RunRecord:
    n_layers: int
    total_params: int
    steps: list[StepTelemetry] = field(default_factory=list)
    probes: list[ProbeRecord] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def append(self, t: StepTelemetry) -> None:
        if self.steps and t.step <= self.steps[-1].step:
            raise ValueError(f"step {t.step} not increasing after {self.steps[-1].step}")
        if t.active_layers[-1] >= self.n_layers:
            bad = t.active_layers[t.active_layers >= self.n_layers].tolist()
            raise ValueError(f"layer indices {bad} out of range for {self.n_layers} layers")
        self.steps.append(t)

    @property
    def n_steps(self) -> int:
        return len(self.steps)


def active_ratio(record: RunRecord) -> float:
    """Gradient work relative to full-vector passes, one per step.

    Each step contributes grad_passes * active_param_count, plus any
    selection-rule parameters; the denominator is steps * the record's
    total params. Dense AdamW gives exactly 1.0 and the dense two-pass
    variant 2.0.
    """
    if not record.steps:
        raise ValueError("empty run")
    if record.total_params < 1:
        raise ValueError("total_params must be positive")
    work = sum(
        t.grad_passes * t.active_param_count + t.selection_param_count for t in record.steps
    )
    return work / (record.n_steps * record.total_params)


def layer_frequency(record: RunRecord) -> np.ndarray:
    """Fraction of steps on which each layer was active."""
    if not record.steps:
        raise ValueError("empty run")
    layers = np.concatenate([t.active_layers for t in record.steps])
    return np.bincount(layers, minlength=record.n_layers) / record.n_steps

