"""Training loop, output files, and optimizer comparisons.

A Trainer owns one objective, parameter vector, optimizer state, and
(for sampled variants) sampling distribution, and advances them one
step at a time so tests can inspect full trajectories. `run` drives a
Trainer to completion and writes the step CSV, the sampler CSV and the
summary JSON; `compare` repeats a config across optimizer types with
identical data and seed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path
from typing import Iterator

import numpy as np

from sparsam.bandit import init_uniform
from sparsam.config import ExperimentConfig
from sparsam.datasets import Dataset, gen_blobs, gen_two_moons, minibatches
from sparsam.errors import ConfigError, DivergenceError, in_pass
from sparsam.layered import ActiveSet, total_l1_norm
from sparsam.objectives import Batch, MlpClassifier
from sparsam.optimizers import (
    OptimizerState,
    ablation_step,
    adamw_baseline_step,
    adasam_step,
    s2sam_step,
    sl_s2sam_step,
    slsam_step,
)
from sparsam.rng import stream
from sparsam.telemetry import (
    ProbeRecord,
    RunRecord,
    StepTelemetry,
    active_ratio,
    layer_frequency,
)

CSV_HEADER = "step,loss,grad_l1,active_layers,active_params,grad_passes,wall_ns"
SAMPLER_HEADER = "step,redraws,staleness"


def build_datasets(config: ExperimentConfig) -> tuple[Dataset | None, Dataset | None]:
    """Train and held-out datasets for the config; (None, None) for
    objectives that synthesize their own batches."""
    d = config.dataset
    if d.type == "none":
        return None, None
    if d.type == "two_moons":
        return (
            gen_two_moons(d.n, d.noise, d.seed),
            gen_two_moons(d.n, d.noise, d.seed + 1),
        )
    k = config.objective.widths[-1]
    return gen_blobs(d.n, k, d.noise, d.seed), gen_blobs(d.n, k, d.noise, d.seed + 1)


class Trainer:
    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.selector, self.ascent = config.optimizer.kind()
        self.objective = config.objective.build(noise_seed=config.train.seed)
        self.train_ds, self.test_ds = build_datasets(config)
        seed = config.train.seed
        self.x = self.objective.init_params(seed)
        self.state = OptimizerState.init(self.objective.layer_dims)
        self.sam_cfg = config.optimizer.sam()
        n = self.objective.n_layers
        self.dist = None
        if self.selector == "bandit":
            self.dist = init_uniform(n, config.bandit.budget(n), config.bandit.p_min())
        self.k = config.bandit.ablation_k(n)
        self.bandit_rng = stream(seed, "bandit")
        self.record = RunRecord(
            config_digest=config.digest(),
            seed=seed,
            n_layers=n,
            total_params=self.objective.dim,
        )
        self._batches = self._batch_stream()

    def _batch_stream(self) -> Iterator[Batch]:
        if self.train_ds is None:
            t = 0
            while True:
                yield Batch(np.zeros((1, 1)), np.zeros(1, dtype=np.int64), id=t)
                t += 1
        else:
            epoch = 0
            while True:
                yield from minibatches(
                    self.train_ds, self.config.train.batch_size, self.config.train.seed, epoch
                )
                epoch += 1

    def step(self) -> StepTelemetry:
        batch = next(self._batches)
        t0 = time.perf_counter_ns()
        # Step functions are looked up here at call time, never cached, so
        # whatever wraps the module globals sees every call.
        head = (self.objective, self.x, batch, self.state)
        adamw_cfg = self.config.optimizer
        if self.selector == "bandit":
            step_fn = slsam_step if self.ascent == "fresh" else sl_s2sam_step
            self.dist, tel = step_fn(
                *head, self.dist, self.sam_cfg, adamw_cfg, self.config.bandit, self.bandit_rng
            )
        elif self.selector != "all":
            tel = ablation_step(
                self.selector, *head, self.k, self.sam_cfg, adamw_cfg, self.bandit_rng
            )
        elif self.ascent == "none":
            tel = adamw_baseline_step(*head, adamw_cfg)
        else:
            step_fn = adasam_step if self.ascent == "fresh" else s2sam_step
            tel = step_fn(*head, self.sam_cfg, adamw_cfg)
        tel.wall_ns = time.perf_counter_ns() - t0
        self.record.append(tel)
        if tel.step % self.config.train.eval_every == 0:
            self._probe(tel.step)
        return tel

    def _probe(self, step: int) -> None:
        """Full population gradient for the trend metric; off the books for
        pass counting."""
        full = ActiveSet.full(self.objective.n_layers)
        batch = None if self.train_ds is None else self.train_ds.as_batch()
        loss, g = in_pass(step, "probe", self.objective.loss_and_grad, self.x, batch, full)
        self.record.probes.append(ProbeRecord(step, loss, total_l1_norm(g, full)))

    def run_all(self) -> RunRecord:
        for _ in range(self.config.train.steps):
            self.step()
        self.finalize()
        return self.record

    def accuracy(self, ds: Dataset | None) -> float | None:
        if ds is None or not isinstance(self.objective, MlpClassifier):
            return None
        preds = self.objective.predict(self.x, ds.features)
        return float((preds == ds.labels).mean())

    def finalize(self) -> None:
        rec = self.record
        rec.summary = {
            "optimizer": self.config.optimizer.type,
            "final_loss": rec.steps[-1].loss if rec.steps else None,
            "active_ratio": active_ratio(rec) if rec.steps else None,
            "layer_frequency": [float(f) for f in layer_frequency(rec)] if rec.steps else [],
            "config_digest": rec.config_digest,
            "seed": rec.seed,
            "steps": rec.n_steps,
            "train_accuracy": self.accuracy(self.train_ds),
            "test_accuracy": self.accuracy(self.test_ds),
            "expensive_selection": any(t.selection_param_count for t in rec.steps),
            "probes": [[p.step, p.loss, p.grad_l1] for p in rec.probes],
        }


def _fmt(value: float) -> str:
    return repr(float(value))


def _csv_row(t: StepTelemetry) -> str:
    layers = "|".join(str(l) for l in t.active_layers)
    return ",".join(
        [
            str(t.step),
            _fmt(t.loss),
            _fmt(t.grad_l1),
            layers,
            str(t.active_param_count),
            str(t.grad_passes),
            str(t.wall_ns),
        ]
    )


def _sampler_row(t: StepTelemetry) -> str:
    staleness = "|".join(f"{l}:{n}" for l, n in zip(t.active_layers, t.per_layer_staleness))
    return f"{t.step},{t.redraws},{staleness}"


def _write_json_atomic(path: Path, obj: dict) -> None:
    """Write `obj` to a temp file beside `path`, then rename it over
    `path`, so a failed write never leaves a partial file."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _out_dir(out_dir: str | Path) -> Path:
    """`out_dir` as a Path, created with its parents if missing. A path
    that cannot be made a directory (an existing file, or a file on the
    way to it) is a ConfigError, raised before any step runs."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {out}: {e.strerror}") from e
    return out


def run(config: ExperimentConfig, out_dir: str | Path = "runs") -> RunRecord:
    """Execute one training run, streaming the step and sampler CSVs as
    it goes.

    `sampler.csv` has one row per step: the bandit's redraw count and,
    for stale-perturbation steps, `layer:staleness` pairs for the active
    layers (`|`-separated, empty otherwise). On divergence the rows
    written so far stay on disk and the error propagates to the caller.
    A `summary.json` an earlier run left in `out_dir` is removed before
    the first step, so a diverged run leaves none.
    """
    trainer = Trainer(config)
    out = _out_dir(out_dir)
    (out / "summary.json").unlink(missing_ok=True)
    with open(out / "steps.csv", "w") as fh, open(out / "sampler.csv", "w") as sfh:
        fh.write(CSV_HEADER + "\n")
        sfh.write(SAMPLER_HEADER + "\n")
        for _ in range(config.train.steps):
            tel = trainer.step()
            fh.write(_csv_row(tel) + "\n")
            sfh.write(_sampler_row(tel) + "\n")
            fh.flush()
            sfh.flush()
    trainer.finalize()
    _write_json_atomic(out / "summary.json", trainer.record.summary)
    return trainer.record


def compare(
    config: ExperimentConfig,
    optimizers: list[str],
    out_dir: str | Path = "runs",
) -> Path:
    """Run the same config under several optimizer types and tabulate.

    Every row sees identical data and seed; only the optimizer section's
    type changes, and with it the perturbation mode, which the type
    decides. Each type writes its run under `out_dir/<type>` and the
    table goes to `out_dir/compare.csv`. A type
    that diverges gets a `diverged` row and the remaining types still
    run; once the table is written, a DivergenceError naming every
    diverged type propagates to the caller.
    """
    if len(optimizers) < 2:
        raise ConfigError("compare needs at least two optimizers")
    if len(set(optimizers)) != len(optimizers):
        raise ConfigError("duplicate optimizer in compare list")
    config.validate()
    # Every row's config is built, and its type checked, before any row runs.
    row_configs = [replace(config, optimizer=replace(config.optimizer, type=o)) for o in optimizers]
    out = _out_dir(out_dir)
    rows, diverged = [], []
    for o, row_config in zip(optimizers, row_configs):
        try:
            rec = run(row_config, out / o)
        except DivergenceError as e:
            diverged.append(f"{o}: {e}")
            rows.append([o, "", "", "", "", "diverged"])
            continue
        s = rec.summary
        rows.append(
            [
                o,
                _fmt(s["final_loss"]),
                "" if s["train_accuracy"] is None else _fmt(s["train_accuracy"]),
                "" if s["test_accuracy"] is None else _fmt(s["test_accuracy"]),
                _fmt(s["active_ratio"]),
                "expensive:full-gradient-selection" if s["expensive_selection"] else "",
            ]
        )
    table = out / "compare.csv"
    with open(table, "w") as fh:
        fh.write("optimizer,final_loss,train_acc,test_acc,active_ratio,notes\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    if diverged:
        raise DivergenceError(f"{'; '.join(diverged)} (table written to {table})")
    return table
