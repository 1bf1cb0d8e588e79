"""The benchmark's workloads: one config per workload, all seven types.

Each workload stresses a different layer of the package; BENCHMARK.json
says which. `block` is how many steps of one type run between two
reference-kernel blocks; it keeps a block at a few milliseconds on every
workload.

`eval_every` fixes the share of probe steps (a full-dataset gradient
inside `Trainer.step`) and `tail_pct` the percentile reported as the
step-cost tail. Each `tail_pct` leaves at least ten samples beyond it at
the step counts the workload reaches in a run, even on a slow machine
(a hundred-odd steps per type on quad-wide, several hundred on mlp-deep,
thousands on mlp-moons), and lies well inside the probe share: 25%
probes against 10% beyond on quad-wide, 20% against 5% on mlp-deep and
20% against 1% on mlp-moons. A percentile that followed the step count
instead would jump between grid points as the machine speeds up or
slows down.
"""

from __future__ import annotations

from dataclasses import dataclass

# Order of the package README's table; the timing loop walks it
# forwards and backwards on alternate rounds.
TYPES = ("adamw", "adasam", "s2sam", "slsam", "sl_s2sam", "random_slsam", "top_slsam")
BANDIT_TYPES = ("slsam", "sl_s2sam")
SELECT_TYPES = ("random_slsam", "top_slsam")


@dataclass(frozen=True)
class Workload:
    name: str
    objective: dict
    dataset: dict
    s_over_n: float
    batch_size: int
    eval_every: int
    tail_pct: float
    block: int
    check_steps: int

    def config(self, seed: int, otype: str) -> dict:
        """Raw config dict for one type; the seed drives training and data.

        `train.steps` sizes the checked run; the timed Trainers step for as
        long as the benchmark measures.
        """
        return {
            "objective": dict(self.objective),
            "dataset": dict(self.dataset, seed=seed),
            "optimizer": {"type": otype},
            "bandit": {"s_over_n": self.s_over_n},
            "train": {
                "steps": self.check_steps,
                "batch_size": self.batch_size,
                "seed": seed,
                "eval_every": self.eval_every,
            },
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="quad-wide",
            objective={"type": "blockquadratic", "layer_dims": [64] * 100, "noise_sigma": 1e-4},
            dataset={"type": "none"},
            s_over_n=0.2,
            batch_size=32,
            eval_every=4,
            tail_pct=90.0,
            block=1,
            check_steps=16,
        ),
        Workload(
            name="mlp-moons",
            objective={"type": "mlp", "widths": [2, 16, 16, 2], "activation": "tanh"},
            dataset={"type": "two_moons", "n": 256},
            s_over_n=0.5,
            batch_size=32,
            eval_every=5,
            tail_pct=99.0,
            block=24,
            check_steps=200,
        ),
        Workload(
            name="mlp-deep",
            objective={"type": "mlp", "widths": [2, 64, 64, 64, 2], "activation": "tanh"},
            dataset={"type": "blobs", "n": 1024},
            s_over_n=0.25,
            batch_size=128,
            eval_every=5,
            tail_pct=95.0,
            block=8,
            check_steps=100,
        ),
    )
}
