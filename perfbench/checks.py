"""Output checks and trace digests for one short `runner.run` per type.

Each check reads the files the run wrote (`steps.csv`, `summary.json`)
plus the final state of the Trainer the run built, which the benchmark
captures by handing `runner.run` a recording subclass.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

from workloads import BANDIT_TYPES

COLUMNS = ("step", "loss", "grad_l1", "active_layers", "active_params", "grad_passes", "wall_ns")
P_SUM_TOL = 1e-9


@contextlib.contextmanager
def capture_trainers(runner_mod):
    """Make `runner.run` build a Trainer subclass that records each instance."""
    made = []
    base = runner_mod.Trainer

    class Recording(base):
        def __init__(self, config):
            super().__init__(config)
            made.append(self)

    runner_mod.Trainer = Recording
    try:
        yield made
    finally:
        runner_mod.Trainer = base


def parse_steps_csv(text: str) -> list[dict]:
    """Rows of steps.csv as typed dicts; raises ValueError when malformed."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != COLUMNS:
        raise ValueError(f"steps.csv header {header!r}")
    rows = []
    for lineno, fields in enumerate(reader, start=2):
        if len(fields) != len(COLUMNS):
            raise ValueError(f"steps.csv line {lineno}: {len(fields)} fields")
        rec = dict(zip(COLUMNS, fields))
        rows.append(
            {
                "step": int(rec["step"]),
                "loss": float(rec["loss"]),
                "grad_l1": float(rec["grad_l1"]),
                "active_layers": [int(l) for l in rec["active_layers"].split("|")],
                "active_params": int(rec["active_params"]),
                "grad_passes": int(rec["grad_passes"]),
                "wall_ns": int(rec["wall_ns"]),
            }
        )
    return rows


def recompute_active_ratio(rows: list[dict], total_params: int, selection_pass: bool) -> float:
    """Accounted gradient work from the CSV columns, per step and parameter.

    A selection rule that scores layers with a full gradient
    (`expensive_selection` in the summary) adds one full pass per step,
    which the CSV does not carry as a column.
    """
    extra = total_params if selection_pass else 0
    work = sum(r["grad_passes"] * r["active_params"] + extra for r in rows)
    return work / (len(rows) * total_params)


def digests(out: Path) -> tuple[str, str]:
    """SHA-256 of steps.csv without its wall_ns column, and of summary.json."""
    lines = (out / "steps.csv").read_text().splitlines()
    stripped = "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n"
    csv_digest = hashlib.sha256(stripped.encode()).hexdigest()
    summary_digest = hashlib.sha256((out / "summary.json").read_bytes()).hexdigest()
    return csv_digest, summary_digest


def check_run(out: Path, trainer, steps: int, is_mlp: bool) -> list[str]:
    """Names of the checks the run in `out` fails; empty when all pass."""
    failed = []
    try:
        rows = parse_steps_csv((out / "steps.csv").read_text())
        summary = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as e:
        return [f"well-formed ({e})"]
    if [r["step"] for r in rows] != list(range(1, steps + 1)):
        failed.append("one row per step")
    if not all(math.isfinite(r["loss"]) for r in rows):
        failed.append("finite loss")
    if rows:
        ratio = recompute_active_ratio(
            rows, trainer.objective.dim, bool(summary.get("expensive_selection"))
        )
        if ratio != summary.get("active_ratio"):
            failed.append(f"active_ratio ({ratio!r} vs {summary.get('active_ratio')!r})")
    otype = trainer.config.optimizer.type
    if otype in BANDIT_TYPES:
        n = trainer.objective.n_layers
        s = trainer.config.bandit.budget(n)
        p_min = trainer.config.bandit.p_min()
        p = trainer.dist.p
        if abs(float(p.sum()) - s) > P_SUM_TOL:
            failed.append(f"p sums to s ({float(p.sum())!r} vs {s!r})")
        if (p < p_min).any() or (p > 1.0).any():
            failed.append("p within [p_min, 1]")
    probes = summary.get("probes", [])
    if len(probes) < 2 or not probes[-1][2] < probes[0][2]:
        failed.append("last probe grad_l1 below first")
    if is_mlp:
        acc = summary.get("test_accuracy")
        chance = 1.0 / trainer.objective.n_classes
        if acc is None or not acc > chance:
            failed.append(f"test accuracy above chance ({acc!r})")
    return failed
