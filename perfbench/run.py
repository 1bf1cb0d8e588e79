"""Step-cost benchmark for the seven optimizer types of `sparsam`.

    python3 perfbench/run.py --workload mlp-moons --seed 0 --seconds 25 --trace 0

Builds seven Trainers (one per optimizer type) from the workload's
config, checks one short `runner.run` per type, then times
`Trainer.step()` round-robin over the types in short blocks, each
bracketed by reference-kernel blocks, for `--seconds`. With `--trace 0`
it reports the end-to-end metrics; with `--trace 1` half the rounds run
with span wrappers installed and it reports the per-layer metrics. The
last line of stdout is one JSON object: correct, attempted, failed,
metrics. The package is imported from `src/` next to this directory.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before NumPy loads it: the benchmark starts no
# threads or processes of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import metrics
from checks import capture_trainers, check_run, digests
from manifest import manifest
from spans import Tracer, package_targets
from timing import Block, RefKernel
from workloads import TYPES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_BASE = ROOT / ".perfbench_tmp"

SETUP_REPS = 9
WARMUP_PROBES = 2


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def import_package():
    """Import sparsam from this checkout's src/, never from site-packages."""
    if not (SRC / "sparsam" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {SRC / 'sparsam'}")
    sys.path.insert(0, str(SRC))
    import sparsam

    if Path(sparsam.__file__).resolve().parent != (SRC / "sparsam").resolve():
        raise SystemExit(f"perfbench: imported sparsam from {sparsam.__file__}, not {SRC}")


class Bench:
    """One invocation: a workload, a seed and a time budget."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        from sparsam import runner
        from sparsam.config import ExperimentConfig

        self.w = workload
        self.types = TYPES
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.runner = runner
        self.ExperimentConfig = ExperimentConfig
        self.ref = RefKernel()
        self.runs: dict[tuple[str, str], list[str]] = {}  # (type, repetition) -> failures
        self.summaries: dict[str, dict] = {}
        self.setups: list = []  # timing.Block per set-up
        self.load_ns: list[int] = []
        self.gen_ns: list[int] = []

    # -- output checks --------------------------------------------------

    def check_all(self) -> None:
        is_mlp = self.w.objective["type"] == "mlp"
        TMP_BASE.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=TMP_BASE) as tmp:
            for otype in self.types:
                reps = [("check", contextlib.nullcontext())]
                if self.trace:
                    reps.append(("check-traced", Tracer(package_targets())))
                found = {}
                for rep, ctx in reps:
                    out = Path(tmp) / f"{otype}-{rep}"
                    cfg = self.ExperimentConfig.from_dict(self.w.config(self.seed, otype))
                    try:
                        with capture_trainers(self.runner) as made, ctx:
                            self.runner.run(cfg, out)
                        failed = check_run(out, made[-1], self.w.check_steps, is_mlp)
                        found[rep] = digests(out)
                    except Exception as e:  # a run that raises is a failed run
                        traceback.print_exc()
                        failed = [f"raised {type(e).__name__}: {e}"]
                    if rep == "check" and not failed:
                        self.summaries[otype] = json.loads((out / "summary.json").read_text())
                    self.runs[(otype, rep)] = failed
                for rep, (csv_d, sum_d) in found.items():
                    print(f"digest {self.w.name} {otype} seed={self.seed} {rep}: "
                          f"steps.csv-wall_ns={csv_d} summary.json={sum_d}")
                if len(found) == 2 and found["check"] != found["check-traced"]:
                    self.runs[(otype, "check-traced")].append("traced digests differ from untraced")
                for rep, _ in reps:
                    for f in self.runs[(otype, rep)]:
                        print(f"CHECK FAILED {self.w.name} {otype} [{rep}]: {f}")
        with contextlib.suppress(OSError):
            TMP_BASE.rmdir()

    # -- set-up ---------------------------------------------------------

    def setup(self, before: float, tracer=None) -> tuple[dict, float]:
        """Config dicts to ready Trainers, timed between two reference blocks.

        `before` is the reference median just taken; returns the Trainers
        and the reference median taken after them.
        """
        trainers, load = {}, 0
        lo = len(tracer) if tracer is not None else 0
        with tracer if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter_ns()
            for otype in self.types:
                a = time.perf_counter_ns()
                cfg = self.ExperimentConfig.from_dict(self.w.config(self.seed, otype))
                load += time.perf_counter_ns() - a
                trainers[otype] = self.runner.Trainer(cfg)
            elapsed = time.perf_counter_ns() - t0
        after = self.ref.block_ns()
        self.setups.append(Block("setup", before, after, ns=[elapsed]))
        self.load_ns.append(load)
        if tracer is not None:
            fr = tracer.frame()
            gen = [i for i, n in enumerate(tracer.names) if n.startswith("datasets.gen_")]
            mask = np.isin(fr.name_id[lo:], gen)
            self.gen_ns.append(int(fr.duration[lo:][mask].sum()))
        return trainers, after

    # -- timing loop ----------------------------------------------------

    def step_block(self, otype, trainer, block) -> None:
        """Run one block of timed steps; raise on a non-finite loss."""
        for _ in range(self.w.block):
            tel = block.time_call(trainer.step)
            if not math.isfinite(tel.loss):
                raise FloatingPointError(f"{otype}: non-finite loss at step {tel.step}")

    def measure(self, trainers: dict):
        tracer = Tracer(package_targets()) if self.trace else None
        setup_tracer = Tracer(package_targets()) if self.trace else None
        live = dict(trainers)
        for otype, tr in list(live.items()):
            try:
                for _ in range(WARMUP_PROBES * self.w.eval_every):
                    tr.step()
            except Exception as e:
                self.fail_timed(otype, e, live)
        blocks = []
        start = time.perf_counter()
        setup_at = [start + k * self.seconds / SETUP_REPS for k in range(1, SETUP_REPS)]
        before = self.ref.block_ns()
        rnd = 0
        while time.perf_counter() - start < self.seconds and live:
            traced = self.trace and (rnd // 2) % 2 == 1
            order = [t for t in (self.types if rnd % 2 == 0 else reversed(self.types)) if t in live]
            for otype in order:
                b = Block(otype, before, traced=traced)
                try:
                    if traced:
                        b.lo = len(tracer)
                        with tracer:
                            self.step_block(otype, live[otype], b)
                        b.hi = len(tracer)
                    else:
                        self.step_block(otype, live[otype], b)
                except Exception as e:
                    self.fail_timed(otype, e, live)
                b.ref_after = before = self.ref.block_ns()
                blocks.append(b)
            if setup_at and time.perf_counter() >= setup_at[0]:
                setup_at.pop(0)
                _, before = self.setup(before, setup_tracer)
            rnd += 1
        return blocks, tracer, live

    def fail_timed(self, otype, exc, live) -> None:
        traceback.print_exception(exc)
        self.runs[(otype, "timed")] = [f"raised {type(exc).__name__}: {exc}"]
        print(f"CHECK FAILED {self.w.name} {otype} [timed]: {exc}")
        live.pop(otype, None)

    # -- whole run ------------------------------------------------------

    def run(self):
        self.ref()
        self.check_all()
        trainers, _ = self.setup(self.ref.block_ns())
        for otype in self.types:
            self.runs[(otype, "timed")] = []
        return self.measure(trainers)


def main(argv=None) -> int:
    import_package()
    args = parse_args(argv, WORKLOADS)
    w = WORKLOADS[args.workload]
    man = manifest(ROOT, args.seed, w.name)
    bench = Bench(w, args.seed, args.seconds, bool(args.trace))
    blocks, tracer, live = bench.run()
    man["loadavg_end"] = list(os.getloadavg())
    man["ref_us"] = float(np.median([b.ref for b in blocks])) / 1e3 if blocks else None
    print("manifest " + json.dumps(man, sort_keys=True))

    attempted = len(bench.runs)
    failed = sum(1 for f in bench.runs.values() if f)
    steps = metrics.step_costs(blocks, bench.types)
    metrics.print_headline(w.name, steps, bench.summaries, bench.types)
    if args.trace:
        values = metrics.per_layer(bench, blocks, tracer, live, steps)
        from micro import run_micro

        values.update(run_micro(args.seed, bench.ref))
    else:
        values = metrics.end_to_end(bench, steps, attempted, failed)
    for name, (value, unit) in values.items():
        print(f"{w.name} {name} = {metrics.fmt(value)} {unit}")
    print(f"{w.name} fail_ratio = {failed / attempted!r} ({failed} of {attempted} runs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
