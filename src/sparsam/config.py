"""Experiment configuration: parsing, validation, defaults, digest.

Configs are JSON documents with five sections (objective, dataset,
optimizer, bandit, train), all optional, all keys defaulted.
Each section is a frozen dataclass and each option is declared once, as
a field with its default, in the dataclass that uses it; the range
checks run when a section is built, and the checks of how the sections
combine when an ExperimentConfig is. A section's keys, its parsing and
its canonical form all come from those fields. Unknown keys are
rejected by name so typos fail loudly instead of silently running a
default.

Values are stored in canonical form as they are parsed: a float key
holds a finite float, an int key an int (an integral 5.0 becomes 5, and
2.5 is rejected). The SHA-256 digest of the canonical dict therefore
identifies exactly the run that executes, in every output file.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from sparsam import datasets
from sparsam.bandit import BanditConfig
from sparsam.errors import ConfigError
from sparsam.objectives import BlockQuadratic, MlpClassifier, Objective
from sparsam.optimizers import OPTIMIZERS, AdamWConfig, Ascent, SamConfig, Selector

DATASET_TYPES = ("none", "two_moons", "blobs")

# Field name -> config key, where the config spelling is a reserved word here.
_SPELLING = {"weight_decay": "lambda"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _as_int(v: Any) -> int:
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise TypeError


def _as_float(v: Any) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError
    try:
        f = float(v)
    except OverflowError:  # an integer beyond the float range
        f = math.inf
    if not math.isfinite(f):
        # JSON's NaN and Infinity parse, but a run would die on them mid-training.
        raise ValueError("must be finite")
    return f


def _as_str(v: Any) -> str:
    if isinstance(v, str):
        return v
    raise TypeError


def _list_of(item):
    def coerce(v: Any) -> list:
        if not isinstance(v, list):
            raise TypeError
        return [item(x) for x in v]

    return coerce


def _or_none(coerce):
    return lambda v: None if v is None else coerce(v)


# A field's annotation, as written -> the coercion of a JSON value to it.
_COERCE = {
    "int": _as_int,
    "float": _as_float,
    "str": _as_str,
    "list[int]": _list_of(_as_int),
    "list[float] | None": _or_none(_list_of(_as_float)),
}


def _only(kind: str, **kw) -> Any:
    """A field that only the given objective kind reads."""
    return field(metadata={"kind": kind}, **kw)


@functools.cache
def _keys(cls: type, kind: str | None) -> dict[str, tuple[str, str]]:
    """Config key -> (field name, annotation) for the fields of `cls`;
    with a kind, only the fields that kind reads (all of them, for
    sections without per-kind fields)."""
    return {
        _SPELLING.get(f.name, f.name): (f.name, f.type)
        for f in fields(cls)
        if kind is None or f.metadata.get("kind", kind) == kind
    }


class _Section:
    """Parsing and canonical form of a config section, from its fields."""

    @classmethod
    def from_dict(cls, raw: Any, name: str):
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(f"section {name!r} must be an object")
        keys = _keys(cls, None)
        data = {}
        for key, value in raw.items():
            if key not in keys:
                raise ConfigError(f"unknown key {key!r} in section {name!r}")
            field_name, annotation = keys[key]
            try:
                data[field_name] = _COERCE[annotation](value)
            except TypeError:
                raise ConfigError(
                    f"key {key!r} in section {name!r} must be {annotation}, got {value!r}"
                ) from None
            except ValueError as e:
                raise ConfigError(f"key {key!r} in section {name!r} {e}, got {value!r}") from None
        try:
            cfg = cls(**data)
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(f"{name}: {e}") from e
        read = cfg._read_keys()
        for key in raw:
            if key not in read:
                raise ConfigError(f"unknown key {key!r} in section {name!r}")
        return cfg

    def _read_keys(self) -> dict[str, tuple[str, str]]:
        return _keys(type(self), getattr(self, "type", None))

    def resolved(self) -> dict:
        """Every key this section reads, under its config spelling."""
        return {key: getattr(self, f) for key, (f, _) in self._read_keys().items()}


@dataclass(frozen=True)
class ObjectiveConfig(_Section):
    type: str = "blockquadratic"
    layer_dims: list[int] = _only("blockquadratic", default_factory=lambda: [4, 4, 4, 4, 4])
    scales: list[float] | None = _only("blockquadratic", default=None)
    noise_sigma: float = _only("blockquadratic", default=0.0)
    widths: list[int] = _only("mlp", default_factory=lambda: [2, 16, 16, 2])
    activation: str = _only("mlp", default="tanh")
    bias_mode: str = _only("mlp", default="separate")

    def __post_init__(self) -> None:
        _require(self.type in ("blockquadratic", "mlp"), f"unknown objective type {self.type!r}")

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


@dataclass(frozen=True)
class DatasetConfig(_Section):
    type: str = "none"
    n: int = 256
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self.type in DATASET_TYPES, f"unknown dataset type {self.type!r}")
        _require(self.n >= 2, "dataset n must be at least 2")
        _require(self.noise >= 0, "dataset noise must be non-negative")
        _require(self.seed >= 0, "dataset seed must be non-negative")


@dataclass(frozen=True)
class OptimizerConfig(AdamWConfig, _Section):
    """The AdamW base, the SAM radius and the optimizer type."""

    rho: float = 0.01
    type: str = "adamw"

    def __post_init__(self) -> None:
        _require(self.type in OPTIMIZERS, f"unknown optimizer type {self.type!r}")
        super().__post_init__()
        self.sam()  # checks rho

    def kind(self) -> tuple[Selector, Ascent]:
        """The type's layer selector and ascent source."""
        return OPTIMIZERS[self.type]

    def sam(self) -> SamConfig:
        """The SAM settings; the type decides the perturbation mode:
        sampled-layer variants perturb per layer, dense ones globally."""
        return SamConfig(self.rho, "global" if self.kind()[0] == "all" else "per_layer")


@dataclass(frozen=True)
class BanditSection(BanditConfig, _Section):
    """The sampler's step settings plus the layer budget and its floor."""

    s_over_n: float = 0.2
    p_min_factor: float = 0.1

    def __post_init__(self) -> None:
        _require(0.0 < self.s_over_n <= 1.0, f"s_over_n={self.s_over_n} outside (0, 1]")
        _require(
            0.0 < self.p_min_factor < 1.0, f"p_min_factor={self.p_min_factor} outside (0, 1)"
        )
        super().__post_init__()

    def budget(self, n_layers: int) -> float:
        return self.s_over_n * n_layers

    def p_min(self) -> float:
        return self.p_min_factor * self.s_over_n

    def ablation_k(self, n_layers: int) -> int:
        return max(1, round(self.s_over_n * n_layers))


@dataclass(frozen=True)
class TrainConfig(_Section):
    steps: int = 200
    batch_size: int = 32
    seed: int = 0
    eval_every: int = 10

    def __post_init__(self) -> None:
        _require(self.steps >= 1, "train steps must be at least 1")
        _require(self.batch_size >= 1, "batch_size must be at least 1")
        _require(self.eval_every >= 1, "eval_every must be at least 1")
        _require(self.seed >= 0, "seed must be non-negative")


@dataclass(frozen=True)
class ExperimentConfig:
    """The five sections of a run, checked together as they are built:
    a config that exists is one its objective and dataset can run, so
    `dataclasses.replace` re-checks what it changes, and assigning to a
    field raises FrozenInstanceError. An invalid combination raises a
    one-line ConfigError."""

    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    bandit: BanditSection = field(default_factory=BanditSection)
    train: TrainConfig = field(default_factory=TrainConfig)

    @classmethod
    def from_dict(cls, raw: Any) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        for key in raw:
            if key not in _SECTIONS:
                raise ConfigError(f"unknown key {key!r} at config top level")
        return cls(**{k: s.from_dict(raw.get(k), k) for k, s in _SECTIONS.items()})

    def __post_init__(self) -> None:
        self.objective.build(noise_seed=0)  # checks the objective's own parameters
        d = self.dataset
        if self.objective.type == "mlp":
            _require(d.type != "none", "mlp objective needs a dataset (two_moons or blobs)")
            widths = self.objective.widths
            try:
                datasets.check(d.type, d.n, d.noise, widths[-1], widths[0])
            except ValueError as e:
                raise ConfigError(f"dataset: {e}") from e
        else:
            _require(
                d.type == "none",
                "blockquadratic runs on synthetic batches; set dataset type to 'none'",
            )

    def resolved(self) -> dict:
        return {k: getattr(self, k).resolved() for k in _SECTIONS}

    def digest(self) -> str:
        canon = json.dumps(self.resolved(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# Section name -> section class, in declaration order.
_SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)}


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
