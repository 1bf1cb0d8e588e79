"""Run every optimizer family on one two-moons classifier and tabulate.

    python3 scripts/run_comparison.py --out runs/comparison [--steps 2000]

Writes one sub-directory per optimizer (steps.csv, summary.json) plus
compare.csv, and prints the table. The sampled variants use the same
seed and data as the dense ones, so accuracy gaps are attributable to
the update rule alone.
"""

from __future__ import annotations

import argparse

from sparsam.config import OPTIMIZER_TYPES, ExperimentConfig
from sparsam.runner import compare


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="runs/comparison")
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--s-over-n", type=float, default=0.5)
    args = ap.parse_args()

    config = ExperimentConfig.from_dict({
        "objective": {"type": "mlp", "widths": [2, 16, 16, 2]},
        "dataset": {"type": "two_moons", "n": 256, "noise": 0.1, "seed": args.seed},
        "optimizer": {"type": "adamw", "eta": 0.01},
        "bandit": {"s_over_n": args.s_over_n},
        "train": {"steps": args.steps, "batch_size": 32, "seed": args.seed, "eval_every": 200},
    })
    table = compare(config, list(OPTIMIZER_TYPES), args.out)
    print(table.read_text(), end="")
    print(f"\nper-run files under {args.out}/<optimizer>/")


if __name__ == "__main__":
    main()
