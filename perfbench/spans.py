"""Spans around calls into the package's public functions.

A Tracer replaces each target with a wrapper at the name its caller
resolves (a module global or a class attribute) and restores the
original on exit. Each call becomes one span: name, start, end and the
id of the enclosing span. Spans stay in flat in-memory arrays until the
run ends and are aggregated then. The wrappers only time and count;
they pass arguments and results through untouched.
"""

from __future__ import annotations

import functools
import time
from array import array
from dataclasses import dataclass
from types import ModuleType

import numpy as np


@dataclass(frozen=True)
class Target:
    owner: type | ModuleType
    attr: str
    name: str
    layer: str


def package_targets() -> list[Target]:
    """Every call site the per-layer metrics need, keyed where it is resolved."""
    from sparsam import bandit, layered, objectives, optimizers, runner, telemetry

    t = []

    def add(owner, attrs, layer, prefix):
        for a in attrs:
            t.append(Target(owner, a, f"{prefix}.{a}", layer))

    add(runner.Trainer, ["step"], "runner", "Trainer")
    step_fns = [
        "adamw_baseline_step",
        "adasam_step",
        "s2sam_step",
        "slsam_step",
        "sl_s2sam_step",
        "ablation_step",
    ]
    add(runner, step_fns, "step_fn", "optimizers")
    add(runner, ["minibatches", "gen_two_moons", "gen_blobs"], "datasets", "datasets")
    add(runner, ["total_l1_norm"], "layered", "layered")
    add(optimizers, ["adamw_step", "sam_perturb", "select_layers_ablation"], "optimizers", "optimizers")
    add(optimizers, ["sample_active_set", "update_distribution"], "bandit", "bandit")
    add(bandit, ["kl_project"], "bandit", "bandit")
    add(
        optimizers,
        ["masked_axpy", "layer_l2_norm", "total_l1_norm", "active_param_count"],
        "layered",
        "layered",
    )
    add(layered.LayeredVector, ["copy", "zeros"], "layered", "LayeredVector")
    add(objectives, ["stream"], "rng", "rng")
    add(objectives.BlockQuadratic, ["loss", "loss_and_grad"], "objectives", "BlockQuadratic")
    add(objectives.MlpClassifier, ["loss", "loss_and_grad"], "objectives", "MlpClassifier")
    add(objectives.Objective, ["grad"], "objectives", "Objective")
    add(telemetry.RunRecord, ["append"], "telemetry", "RunRecord")
    return t


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self.names = [t.name for t in targets]
        self.layers = [t.layer for t in targets]
        self.name_id = array("q")
        self.parent = array("q")
        self.t0 = array("q")
        self.t1 = array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.t0)

    def _wrap(self, fn, nid: int):
        name_id, parent, t0s, t1s, stack = self.name_id, self.parent, self.t0, self.t1, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(t0s)
            name_id.append(nid)
            parent.append(stack[-1])
            t1s.append(0)
            stack.append(sid)
            t0s.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1s[sid] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for nid, t in enumerate(self.targets):
            if isinstance(t.owner, type):
                raw = t.owner.__dict__[t.attr]
            else:
                raw = getattr(t.owner, t.attr)
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, nid))
            else:
                new = self._wrap(raw, nid)
            self._saved.append((t.owner, t.attr, raw))
            setattr(t.owner, t.attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def frame(self) -> "SpanFrame":
        return SpanFrame(
            np.frombuffer(self.name_id, dtype=np.int64).copy(),
            np.frombuffer(self.parent, dtype=np.int64).copy(),
            np.frombuffer(self.t0, dtype=np.int64).copy(),
            np.frombuffer(self.t1, dtype=np.int64).copy(),
        )


@dataclass
class SpanFrame:
    """Recorded spans as arrays; parent -1 marks a root."""

    name_id: np.ndarray
    parent: np.ndarray
    t0: np.ndarray
    t1: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.t1 - self.t0

    def self_time(self) -> np.ndarray:
        """Duration minus the time covered by direct children."""
        dur = self.duration
        has = self.parent >= 0
        covered = np.bincount(self.parent[has], weights=dur[has], minlength=dur.size)
        return dur - covered

    def has_ancestor(self, flag: np.ndarray) -> np.ndarray:
        """Per span: whether any strict ancestor has `flag` set."""
        out = np.zeros(self.parent.size, dtype=bool)
        anc = self.parent.copy()
        while (anc >= 0).any():
            live = anc >= 0
            out[live] |= flag[anc[live]]
            anc[live] = self.parent[anc[live]]
        return out
