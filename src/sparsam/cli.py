"""Command line entry points.

    sparsam train   --config cfg.json [--out dir]
    sparsam compare --config cfg.json --optimizers adamw,adasam,slsam
    sparsam project --probs weights.csv --s 2.0 --pmin 0.02

Exit codes: 0 success, 1 config error (including bad usage), 2 training
divergence, named by step and pass (for compare, after the table with
its `diverged` rows is written). SPARSAM_SEED in the environment
overrides the config seed.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from sparsam import runner
from sparsam.bandit import kl_project
from sparsam.config import ExperimentConfig, load_config
from sparsam.errors import ConfigError, DivergenceError


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors, which collides with the
    # divergence code; route usage problems through ConfigError instead.
    def error(self, message: str) -> None:
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparsam", description="Sparse-layer SAM benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_train = sub.add_parser("train", help="run one training config")
    p_train.add_argument("--config", required=True, help="JSON experiment config")
    p_train.add_argument("--out", default=None, help="output directory (default: config output.dir)")

    p_cmp = sub.add_parser("compare", help="run several optimizers on one config")
    p_cmp.add_argument("--config", required=True, help="JSON experiment config")
    p_cmp.add_argument("--optimizers", required=True, help="comma-separated optimizer types")
    p_cmp.add_argument("--out", default=None, help="output directory (default: config output.dir)")

    p_proj = sub.add_parser("project", help="project weights onto the sampling constraint set")
    p_proj.add_argument("--probs", required=True, help="file of positive weights (csv)")
    p_proj.add_argument("--s", required=True, type=float, help="target sum")
    p_proj.add_argument("--pmin", required=True, type=float, help="per-layer floor")
    return parser


def _apply_env_seed(config: ExperimentConfig) -> ExperimentConfig:
    raw = os.environ.get("SPARSAM_SEED")
    if raw is None:
        return config
    try:
        seed = int(raw)
    except ValueError as e:
        raise ConfigError(f"SPARSAM_SEED must be an integer, got {raw!r}") from e
    if seed < 0:
        raise ConfigError("SPARSAM_SEED must be non-negative")
    return replace(config, train=replace(config.train, seed=seed))


def _train(args: argparse.Namespace) -> int:
    config = _apply_env_seed(load_config(args.config))
    record = runner.run(config, out_dir=args.out)
    out = Path(args.out) if args.out is not None else Path(config.output.dir)
    s = record.summary
    print(f"wrote {out / 'steps.csv'} and {out / 'summary.json'}")
    print(
        f"optimizer={s['optimizer']} final_loss={s['final_loss']!r} "
        f"active_ratio={s['active_ratio']!r} seed={s['seed']}"
    )
    return 0


def _compare(args: argparse.Namespace) -> int:
    config = _apply_env_seed(load_config(args.config))
    optimizers = [o.strip() for o in args.optimizers.split(",") if o.strip()]
    table = runner.compare(config, optimizers, out_dir=args.out)
    print(f"wrote {table}")
    print(table.read_text(), end="")
    return 0


def _project(args: argparse.Namespace) -> int:
    try:
        text = Path(args.probs).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read {args.probs}: {e}") from e
    parts = [p for chunk in text.split() for p in chunk.split(",") if p]
    if not parts:
        raise ConfigError(f"{args.probs} holds no numbers")
    try:
        u = np.array([float(p) for p in parts])
    except ValueError as e:
        raise ConfigError(f"bad number in {args.probs}: {e}") from e
    q = kl_project(u, args.s, args.pmin)
    print(",".join(repr(float(v)) for v in q.p))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "train":
            return _train(args)
        if args.command == "compare":
            return _compare(args)
        return _project(args)
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
