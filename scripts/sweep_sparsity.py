"""Sweep the sampling budget and report cost against convergence.

    python3 scripts/sweep_sparsity.py [--steps 2000] [--seeds 3]

For each s/N the sampled optimizer runs on the noisy block quadratic;
the table shows the realized active ratio (gradient cost relative to a
single dense pass) and the final full-gradient probe norm, averaged
over seeds. Dense two-step rows (s/N = 1 equivalent) sit at ratio 2.0.
"""

from __future__ import annotations

import argparse

import numpy as np

from sparsam.config import ExperimentConfig
from sparsam.runner import Trainer

BUDGETS = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0]


def run_one(s_over_n: float, steps: int, seed: int) -> tuple[float, float]:
    eval_every = max(1, steps // 10)  # at least one probe, even for short runs
    config = ExperimentConfig.from_dict({
        "objective": {"type": "blockquadratic", "layer_dims": [4] * 5, "noise_sigma": 1e-4},
        "optimizer": {"type": "slsam", "eta": 4e-3},
        "bandit": {"s_over_n": s_over_n},
        "train": {"steps": steps, "batch_size": 1, "seed": seed, "eval_every": eval_every},
    })
    trainer = Trainer(config)
    trainer.run_all()
    summary = trainer.record.summary
    return summary["active_ratio"], trainer.record.probes[-1].grad_l1


def positive(text: str) -> int:
    """An integer of at least 1; anything else is a usage error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=positive, default=2000)
    ap.add_argument("--seeds", type=positive, default=3)
    args = ap.parse_args(argv)

    print("s_over_n,active_ratio,final_probe_grad_l1")
    for s_over_n in BUDGETS:
        ratios, grads = [], []
        for seed in range(args.seeds):
            ratio, grad = run_one(s_over_n, args.steps, seed)
            ratios.append(ratio)
            grads.append(grad)
        print(f"{s_over_n},{np.mean(ratios):.4f},{np.mean(grads):.6f}")


if __name__ == "__main__":
    main()
