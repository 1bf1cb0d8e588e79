"""Experiment configuration: parsing, validation, defaults, digest.

Configs are JSON documents with six sections (objective, dataset,
optimizer, bandit, train, output), all optional, all keys defaulted.
Unknown keys are rejected by name so typos fail loudly instead of
silently running a default. The resolved config has a canonical dict
form whose SHA-256 digest identifies the run in every output file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from sparsam.bandit import BanditConfig
from sparsam.errors import ConfigError
from sparsam.objectives import BlockQuadratic, MlpClassifier, Objective
from sparsam.optimizers import OPTIMIZERS, AdamWConfig, Ascent, SamConfig, Selector

OPTIMIZER_TYPES = tuple(OPTIMIZERS)
DATASET_TYPES = ("none", "two_moons", "blobs")


def _section(raw: Any, name: str, allowed: tuple[str, ...]) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section {name!r} must be an object")
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in section {name!r}")
    return dict(raw)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass
class ObjectiveConfig:
    type: str = "blockquadratic"
    # blockquadratic keys
    layer_dims: list[int] = field(default_factory=lambda: [4, 4, 4, 4, 4])
    scales: list[float] | None = None
    noise_sigma: float = 0.0
    # mlp keys
    widths: list[int] = field(default_factory=lambda: [2, 16, 16, 2])
    activation: str = "tanh"
    bias_mode: str = "separate"

    _QUAD_KEYS = ("type", "layer_dims", "scales", "noise_sigma")
    _MLP_KEYS = ("type", "widths", "activation", "bias_mode")

    @classmethod
    def from_dict(cls, raw: Any) -> "ObjectiveConfig":
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError("section 'objective' must be an object")
        kind = raw.get("type", "blockquadratic")
        _require(kind in ("blockquadratic", "mlp"), f"unknown objective type {kind!r}")
        allowed = cls._QUAD_KEYS if kind == "blockquadratic" else cls._MLP_KEYS
        return cls(**_section(raw, "objective", allowed))

    def build(self, noise_seed: int) -> Objective:
        try:
            if self.type == "blockquadratic":
                return BlockQuadratic(
                    self.layer_dims,
                    scales=self.scales,
                    noise_sigma=self.noise_sigma,
                    noise_seed=noise_seed,
                )
            return MlpClassifier(self.widths, self.activation, self.bias_mode)
        except ValueError as e:
            raise ConfigError(f"objective: {e}") from e

    def resolved(self) -> dict:
        if self.type == "blockquadratic":
            return {
                "type": self.type,
                "layer_dims": [int(d) for d in self.layer_dims],
                "scales": None if self.scales is None else [float(a) for a in self.scales],
                "noise_sigma": float(self.noise_sigma),
            }
        return {
            "type": self.type,
            "widths": [int(w) for w in self.widths],
            "activation": self.activation,
            "bias_mode": self.bias_mode,
        }


@dataclass
class DatasetConfig:
    type: str = "none"
    n: int = 256
    noise: float = 0.1
    seed: int = 0

    @classmethod
    def from_dict(cls, raw: Any) -> "DatasetConfig":
        cfg = cls(**_section(raw, "dataset", ("type", "n", "noise", "seed")))
        _require(cfg.type in DATASET_TYPES, f"unknown dataset type {cfg.type!r}")
        _require(cfg.n >= 2, "dataset n must be at least 2")
        _require(cfg.noise >= 0, "dataset noise must be non-negative")
        _require(cfg.seed >= 0, "dataset seed must be non-negative")
        return cfg

    def resolved(self) -> dict:
        return {
            "type": self.type,
            "n": int(self.n),
            "noise": float(self.noise),
            "seed": int(self.seed),
        }


@dataclass
class OptimizerConfig:
    type: str = "adamw"
    eta: float = 1e-3
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    rho: float = 0.01
    perturb_norm: str | None = None

    @classmethod
    def from_dict(cls, raw: Any) -> "OptimizerConfig":
        allowed = ("type", "eta", "lambda", "beta1", "beta2", "adam_eps", "rho", "perturb_norm")
        data = _section(raw, "optimizer", allowed)
        # The decay coefficient is spelled "lambda" in config files but that
        # is a reserved word here.
        if "lambda" in data:
            data["weight_decay"] = data.pop("lambda")
        cfg = cls(**data)
        _require(cfg.type in OPTIMIZER_TYPES, f"unknown optimizer type {cfg.type!r}")
        if cfg.perturb_norm is not None:
            _require(
                cfg.perturb_norm in ("global", "per_layer"),
                f"unknown perturb_norm {cfg.perturb_norm!r}",
            )
        try:
            cfg.adamw()
            cfg.sam()
        except ValueError as e:
            raise ConfigError(f"optimizer: {e}") from e
        return cfg

    def kind(self) -> tuple[Selector, Ascent]:
        """The type's layer selector and ascent source."""
        _require(self.type in OPTIMIZERS, f"unknown optimizer type {self.type!r}")
        return OPTIMIZERS[self.type]

    def resolved_perturb_norm(self) -> str:
        """Sampled-layer variants perturb per layer, dense ones globally,
        unless the config pins a mode."""
        if self.perturb_norm is not None:
            return self.perturb_norm
        return "global" if self.kind()[0] == "all" else "per_layer"

    def adamw(self) -> AdamWConfig:
        return AdamWConfig(
            eta=self.eta,
            weight_decay=self.weight_decay,
            beta1=self.beta1,
            beta2=self.beta2,
            adam_eps=self.adam_eps,
        )

    def sam(self) -> SamConfig:
        return SamConfig(rho=self.rho, perturb_norm=self.resolved_perturb_norm())

    def resolved(self) -> dict:
        return {
            "type": self.type,
            "eta": float(self.eta),
            "lambda": float(self.weight_decay),
            "beta1": float(self.beta1),
            "beta2": float(self.beta2),
            "adam_eps": float(self.adam_eps),
            "rho": float(self.rho),
            "perturb_norm": self.resolved_perturb_norm(),
        }


@dataclass
class BanditSection:
    s_over_n: float = 0.2
    p_min_factor: float = 0.1
    alpha_p: float = 1e-4
    exponent_clamp: float = 50.0
    g_mode: str = "current"

    @classmethod
    def from_dict(cls, raw: Any) -> "BanditSection":
        allowed = ("s_over_n", "p_min_factor", "alpha_p", "exponent_clamp", "g_mode")
        cfg = cls(**_section(raw, "bandit", allowed))
        _require(0.0 < cfg.s_over_n <= 1.0, f"s_over_n={cfg.s_over_n} outside (0, 1]")
        _require(0.0 < cfg.p_min_factor < 1.0, f"p_min_factor={cfg.p_min_factor} outside (0, 1)")
        try:
            cfg.to_bandit_config()
        except ValueError as e:
            raise ConfigError(f"bandit: {e}") from e
        return cfg

    def budget(self, n_layers: int) -> float:
        return self.s_over_n * n_layers

    def p_min(self) -> float:
        return self.p_min_factor * self.s_over_n

    def ablation_k(self, n_layers: int) -> int:
        return max(1, round(self.s_over_n * n_layers))

    def to_bandit_config(self) -> BanditConfig:
        return BanditConfig(
            alpha_p=self.alpha_p, exponent_clamp=self.exponent_clamp, g_mode=self.g_mode
        )

    def resolved(self) -> dict:
        return {
            "s_over_n": float(self.s_over_n),
            "p_min_factor": float(self.p_min_factor),
            "alpha_p": float(self.alpha_p),
            "exponent_clamp": float(self.exponent_clamp),
            "g_mode": self.g_mode,
        }


@dataclass
class TrainConfig:
    steps: int = 200
    batch_size: int = 32
    seed: int = 0
    eval_every: int = 10

    @classmethod
    def from_dict(cls, raw: Any) -> "TrainConfig":
        cfg = cls(**_section(raw, "train", ("steps", "batch_size", "seed", "eval_every")))
        _require(cfg.steps >= 1, "train steps must be at least 1")
        _require(cfg.batch_size >= 1, "batch_size must be at least 1")
        _require(cfg.eval_every >= 1, "eval_every must be at least 1")
        _require(cfg.seed >= 0, "seed must be non-negative")
        return cfg

    def resolved(self) -> dict:
        return {
            "steps": int(self.steps),
            "batch_size": int(self.batch_size),
            "seed": int(self.seed),
            "eval_every": int(self.eval_every),
        }


@dataclass
class OutputConfig:
    dir: str = "runs"

    @classmethod
    def from_dict(cls, raw: Any) -> "OutputConfig":
        return cls(**_section(raw, "output", ("dir",)))

    def resolved(self) -> dict:
        return {"dir": self.dir}


@dataclass
class ExperimentConfig:
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    bandit: BanditSection = field(default_factory=BanditSection)
    train: TrainConfig = field(default_factory=TrainConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    SECTIONS = ("objective", "dataset", "optimizer", "bandit", "train", "output")

    @classmethod
    def from_dict(cls, raw: Any) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        for key in raw:
            if key not in cls.SECTIONS:
                raise ConfigError(f"unknown key {key!r} at config top level")
        try:
            cfg = cls(
                objective=ObjectiveConfig.from_dict(raw.get("objective")),
                dataset=DatasetConfig.from_dict(raw.get("dataset")),
                optimizer=OptimizerConfig.from_dict(raw.get("optimizer")),
                bandit=BanditSection.from_dict(raw.get("bandit")),
                train=TrainConfig.from_dict(raw.get("train")),
                output=OutputConfig.from_dict(raw.get("output")),
            )
        except (TypeError, ValueError) as e:
            if isinstance(e, ConfigError):
                raise
            raise ConfigError(f"bad config value: {e}") from e
        cfg.validate()
        return cfg

    def validate(self) -> None:
        n = self.objective.build(noise_seed=0).n_layers
        if self.objective.type == "mlp":
            _require(
                self.dataset.type != "none",
                "mlp objective needs a dataset (two_moons or blobs)",
            )
            widths = self.objective.widths
            _require(
                widths[0] == 2,
                f"synthetic datasets are 2-d; mlp input width is {widths[0]}",
            )
            if self.dataset.type == "two_moons":
                _require(
                    widths[-1] == 2,
                    f"two_moons has 2 classes; mlp output width is {widths[-1]}",
                )
                _require(self.dataset.n % 2 == 0, "two_moons needs an even n")
            else:
                _require(widths[-1] >= 2, "blobs needs at least 2 classes")
                _require(
                    self.dataset.n >= widths[-1],
                    f"dataset n={self.dataset.n} below class count {widths[-1]}",
                )
        else:
            _require(
                self.dataset.type == "none",
                "blockquadratic runs on synthetic batches; set dataset type to 'none'",
            )
        if self.optimizer.kind()[0] != "all":
            # Feasibility of the uniform start stands in for the whole run.
            s = self.bandit.budget(n)
            _require(s > 0, "layer budget must be positive")
            _require(
                self.bandit.p_min() <= s / n,
                f"p_min={self.bandit.p_min()} above uniform start {s / n}",
            )

    def resolved(self) -> dict:
        return {
            "objective": self.objective.resolved(),
            "dataset": self.dataset.resolved(),
            "optimizer": self.optimizer.resolved(),
            "bandit": self.bandit.resolved(),
            "train": self.train.resolved(),
            "output": self.output.resolved(),
        }

    def digest(self) -> str:
        canon = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON experiment config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"malformed JSON in {path}: {e}") from e
    return ExperimentConfig.from_dict(raw)
