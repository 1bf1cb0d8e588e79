"""Config parsing: defaults, unknown-key rejection, ranges, canonical form, digests."""

from __future__ import annotations

import json
from dataclasses import FrozenInstanceError, replace

import pytest

from sparsam.config import (
    BanditSection,
    DatasetConfig,
    ExperimentConfig,
    ObjectiveConfig,
    TrainConfig,
    load_config,
)
from sparsam.datasets import gen_blobs, gen_two_moons
from sparsam.errors import ConfigError
from sparsam.objectives import BlockQuadratic, MlpClassifier, Objective
from sparsam.optimizers import SamConfig
from sparsam.runner import Trainer


def make(raw: dict) -> ExperimentConfig:
    return ExperimentConfig.from_dict(raw)


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        cfg = make({"optimizer": {"type": "adamw"}})
        r = cfg.resolved()
        assert r["optimizer"]["rho"] == 0.01
        assert r["optimizer"]["beta1"] == 0.9
        assert r["optimizer"]["beta2"] == 0.999
        assert r["optimizer"]["adam_eps"] == 1e-8
        assert r["optimizer"]["lambda"] == 0.0
        assert r["bandit"]["s_over_n"] == 0.2
        assert r["bandit"]["p_min_factor"] == 0.1
        assert r["bandit"]["alpha_p"] == 1e-4
        assert r["train"]["steps"] == 200
        assert r["train"]["batch_size"] == 32

    def test_empty_config_valid(self):
        cfg = make({})
        assert cfg.optimizer.type == "adamw"
        assert cfg.objective.type == "blockquadratic"

    def test_lambda_maps_to_weight_decay(self):
        cfg = make({"optimizer": {"type": "adamw", "lambda": 0.25}})
        assert cfg.optimizer.weight_decay == 0.25
        assert cfg.resolved()["optimizer"]["lambda"] == 0.25

    def test_derived_bandit_quantities(self):
        cfg = make({"bandit": {"s_over_n": 0.2}})
        assert cfg.bandit.budget(10) == pytest.approx(2.0)
        assert cfg.bandit.p_min() == pytest.approx(0.02)
        assert cfg.bandit.ablation_k(10) == 2
        assert cfg.bandit.ablation_k(3) == 1


class TestUnknownKeys:
    def test_typo_named_in_error(self):
        with pytest.raises(ConfigError, match="rho_"):
            make({"optimizer": {"type": "adasam", "rho_": 0.1}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="optimiser"):
            make({"optimiser": {}})

    def test_unknown_bandit_key(self):
        with pytest.raises(ConfigError, match="pmin"):
            make({"bandit": {"pmin": 0.1}})

    def test_envelope_mode_is_not_a_key(self):
        # The envelope G is always the step's largest sampled norm.
        with pytest.raises(ConfigError, match="unknown key 'g_mode' in section 'bandit'"):
            make({"bandit": {"g_mode": "current"}})

    def test_mlp_key_on_quadratic(self):
        with pytest.raises(ConfigError, match="widths"):
            make({"objective": {"type": "blockquadratic", "widths": [2, 2]}})

    def test_weight_decay_is_spelled_lambda(self):
        with pytest.raises(ConfigError, match="unknown key 'weight_decay' in section 'optimizer'"):
            make({"optimizer": {"weight_decay": 0.1}})

    @pytest.mark.parametrize(
        "raw,message",
        [
            # The type decides the perturbation mode.
            ({"optimizer": {"type": "slsam", "perturb_norm": "global"}},
             "unknown key 'perturb_norm' in section 'optimizer'"),
            # The shrink's exponent floor is the constant bandit.EXPONENT_CLAMP.
            ({"bandit": {"exponent_clamp": 20.0}},
             "unknown key 'exponent_clamp' in section 'bandit'"),
            # The caller picks the output directory.
            ({"output": {"dir": "runs"}}, "unknown key 'output' at config top level"),
        ],
        ids=["perturb_norm", "exponent_clamp", "output"],
    )
    def test_settings_with_another_home_are_unknown(self, raw, message):
        with pytest.raises(ConfigError, match=message):
            make(raw)


class TestRanges:
    def test_s_over_n_above_one(self):
        with pytest.raises(ConfigError, match="s_over_n"):
            make({"bandit": {"s_over_n": 1.5}})

    def test_negative_eta(self):
        with pytest.raises(ConfigError):
            make({"optimizer": {"type": "adamw", "eta": -1.0}})

    def test_beta_out_of_range(self):
        with pytest.raises(ConfigError):
            make({"optimizer": {"type": "adamw", "beta1": 1.0}})

    def test_negative_rho(self):
        with pytest.raises(ConfigError):
            make({"optimizer": {"type": "adasam", "rho": -0.1}})

    def test_unknown_optimizer_type(self):
        with pytest.raises(ConfigError, match="sgd"):
            make({"optimizer": {"type": "sgd"}})

    def test_unknown_dataset_type(self):
        with pytest.raises(ConfigError, match="spiral"):
            make({"dataset": {"type": "spiral"}})

    def test_zero_steps(self):
        with pytest.raises(ConfigError):
            make({"train": {"steps": 0}})

    def test_bad_value_type(self):
        with pytest.raises(ConfigError):
            make({"train": {"steps": "many"}})

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("optimizer", "eta", "0.1"),
            ("objective", "activation", 1),
            ("bandit", "s_over_n", True),
            ("objective", "scales", 2.0),
        ],
    )
    def test_wrong_value_type_names_section_and_key(self, section, key, value):
        with pytest.raises(ConfigError, match=f"'{key}' in section '{section}'"):
            make({section: {key: value}})

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("optimizer", "eta", float("nan")),
            ("optimizer", "eta", float("inf")),
            ("optimizer", "rho", float("nan")),
            ("bandit", "alpha_p", float("nan")),
            ("objective", "noise_sigma", float("nan")),
            pytest.param("optimizer", "eta", 10**400, id="optimizer-eta-int_beyond_float"),
        ],
    )
    def test_non_finite_float_names_section_and_key(self, section, key, value):
        with pytest.raises(ConfigError, match=f"'{key}' in section '{section}' must be finite"):
            make({section: {key: value}})

    def test_empty_quadratic_layer_names_it(self):
        with pytest.raises(ConfigError, match="objective: layer 1 is empty"):
            make({"objective": {"layer_dims": [4, 0]}})

    def test_relu_is_an_unknown_activation(self):
        with pytest.raises(ConfigError, match="^objective: unknown activation 'relu'$"):
            make({"objective": {"type": "mlp", "activation": "relu"}, "dataset": {"type": "two_moons"}})

    def test_sections_check_ranges_when_built(self):
        with pytest.raises(ConfigError, match="eval_every"):
            TrainConfig(eval_every=0)
        # Refused when the config is built, not at the run's first step.
        with pytest.raises(ConfigError, match="batch_size must be at least 1"):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError, match="dataset seed must be non-negative"):
            DatasetConfig(seed=-1)
        with pytest.raises(ValueError, match="alpha_p"):
            BanditSection(alpha_p=0.0)


class TestCrossRules:
    def test_mlp_requires_dataset(self):
        with pytest.raises(ConfigError, match="dataset"):
            make({"objective": {"type": "mlp"}})

    def test_quadratic_rejects_dataset(self):
        with pytest.raises(ConfigError):
            make({"dataset": {"type": "two_moons"}})

    def test_two_moons_needs_two_classes(self):
        with pytest.raises(ConfigError):
            make({
                "objective": {"type": "mlp", "widths": [2, 8, 3]},
                "dataset": {"type": "two_moons"},
            })

    def test_two_moons_needs_even_n(self):
        with pytest.raises(ConfigError, match="even"):
            make({
                "objective": {"type": "mlp"},
                "dataset": {"type": "two_moons", "n": 255},
            })

    def test_mlp_input_width_must_be_two(self):
        with pytest.raises(ConfigError, match="dataset: synthetic datasets are 2-d, got 3 features"):
            make({
                "objective": {"type": "mlp", "widths": [3, 8, 2]},
                "dataset": {"type": "two_moons"},
            })

    def test_blobs_classes_from_output_width(self):
        cfg = make({
            "objective": {"type": "mlp", "widths": [2, 8, 4]},
            "dataset": {"type": "blobs", "n": 64},
        })
        assert cfg.objective.widths[-1] == 4

    def test_valid_mlp_two_moons(self):
        cfg = make({
            "objective": {"type": "mlp", "widths": [2, 16, 16, 2]},
            "dataset": {"type": "two_moons", "n": 256},
            "optimizer": {"type": "slsam"},
        })
        assert cfg.optimizer.type == "slsam"


class TestDatasetRulesStatedOnce:
    """A config states no dataset rule of its own: it reports the
    generator's message, prefixed with its section."""

    @pytest.mark.parametrize(
        "dataset, widths, generate",
        [
            ({"type": "two_moons", "n": 7}, [2, 8, 2], lambda: gen_two_moons(7, 0.1, 0)),
            ({"type": "blobs", "n": 64}, [2, 8, 1], lambda: gen_blobs(64, 1, 0.1, 0)),
        ],
        ids=["two_moons-odd-n", "blobs-one-class"],
    )
    def test_config_and_generator_report_the_same_rule(self, dataset, widths, generate):
        with pytest.raises(ValueError) as generated:
            generate()
        with pytest.raises(ConfigError) as configured:
            make({"objective": {"type": "mlp", "widths": widths}, "dataset": dataset})
        assert str(configured.value) == f"dataset: {generated.value}"


class TestObjectiveRulesStatedOnce:
    """A config checks its objective through the objective's own rules,
    without building one; the Trainer builds the only one."""

    @pytest.mark.parametrize(
        "section, construct",
        [
            ({"layer_dims": [4, 0]}, lambda: BlockQuadratic([4, 0])),
            ({"layer_dims": [4, 4], "scales": [1.0]}, lambda: BlockQuadratic([4, 4], [1.0])),
            ({"noise_sigma": -1.0}, lambda: BlockQuadratic([4] * 5, noise_sigma=-1.0)),
            ({"type": "mlp", "widths": [2]}, lambda: MlpClassifier([2])),
            ({"type": "mlp", "activation": "relu"}, lambda: MlpClassifier([2, 2], "relu")),
            ({"type": "mlp", "bias_mode": "x"}, lambda: MlpClassifier([2, 2], bias_mode="x")),
        ],
        ids=["empty-layer", "scale-count", "noise", "widths", "activation", "bias_mode"],
    )
    def test_config_and_constructor_report_the_same_rule(self, section, construct):
        with pytest.raises(ValueError) as constructed:
            construct()
        dataset = {"type": "two_moons"} if section.get("type") == "mlp" else {}
        with pytest.raises(ConfigError) as configured:
            make({"objective": section, "dataset": dataset})
        assert str(configured.value) == f"objective: {constructed.value}"

    @pytest.mark.parametrize(
        "raw",
        [{}, {"objective": {"type": "mlp"}, "dataset": {"type": "two_moons"}}],
        ids=["blockquadratic", "mlp"],
    )
    def test_a_trainer_builds_its_objective_once(self, raw, monkeypatch):
        built = []
        init = Objective.__init__

        def counted(self, dims):
            built.append(type(self))
            init(self, dims)

        monkeypatch.setattr(Objective, "__init__", counted)
        cfg = make(raw)
        replace(cfg, train=TrainConfig(steps=3))  # re-checked, not built
        assert built == []
        trainer = Trainer(cfg)
        assert built == [type(trainer.objective)]


class TestValidOnceBuilt:
    """An ExperimentConfig checks how its sections combine when it is
    built, however it is built, and cannot be changed afterwards."""

    def test_built_directly(self):
        with pytest.raises(ConfigError, match="mlp objective needs a dataset"):
            ExperimentConfig(objective=ObjectiveConfig(type="mlp"))

    def test_built_through_replace(self):
        cfg = make({"objective": {"type": "mlp"}, "dataset": {"type": "two_moons"}})
        with pytest.raises(ConfigError, match="dataset: n must be even and at least 2, got 7"):
            replace(cfg, dataset=DatasetConfig(type="two_moons", n=7))
        with pytest.raises(ConfigError, match="set dataset type to 'none'"):
            replace(cfg, objective=ObjectiveConfig())

    def test_fields_cannot_be_assigned(self):
        cfg = make({})
        with pytest.raises(FrozenInstanceError):
            cfg.dataset = DatasetConfig(type="two_moons")
        assert cfg.dataset == DatasetConfig()


class TestPerturbNormResolution:
    def test_sparse_defaults_per_layer(self):
        for opt in ("slsam", "sl_s2sam", "random_slsam", "top_slsam"):
            cfg = make({"optimizer": {"type": opt, "rho": 0.05}})
            assert cfg.optimizer.sam() == SamConfig(0.05, "per_layer")

    def test_dense_defaults_global(self):
        for opt in ("adamw", "adasam", "s2sam"):
            cfg = make({"optimizer": {"type": opt, "rho": 0.05}})
            assert cfg.optimizer.sam() == SamConfig(0.05, "global")


class TestDigest:
    def test_deterministic(self):
        a = make({"optimizer": {"type": "adasam"}})
        b = make({"optimizer": {"type": "adasam"}})
        assert a.digest() == b.digest()

    def test_changes_with_content(self):
        a = make({"optimizer": {"type": "adasam"}})
        b = make({"optimizer": {"type": "adasam", "rho": 0.02}})
        assert a.digest() != b.digest()

    def test_defaults_explicit_or_implied_agree(self):
        a = make({})
        b = make({"optimizer": {"type": "adamw", "eta": 1e-3}})
        assert a.digest() == b.digest()


class TestLoadConfig:
    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"optimizer": {"type": "s2sam"}}))
        cfg = load_config(path)
        assert cfg.optimizer.type == "s2sam"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(path)

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([], "config root must be an object"),
            ({"optimizer": []}, "section 'optimizer' must be an object"),
            ({"train": 5}, "section 'train' must be an object"),
        ],
        ids=["root", "optimizer", "train"],
    )
    def test_refuses_a_root_or_section_not_an_object(self, tmp_path, raw, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")


# Every key away from its default (dataset.type "none" is forced for the
# quadratic, and "tanh", the default, is the only activation), so the
# digests below pin the canonical form of each key.
QUAD_ALL_SET = {
    "objective": {
        "type": "blockquadratic", "layer_dims": [3, 5, 2], "scales": [0.5, 2.0, 1.5],
        "noise_sigma": 0.01,
    },
    "dataset": {"type": "none", "n": 100, "noise": 0.2, "seed": 3},
    "optimizer": {
        "type": "slsam", "eta": 0.005, "lambda": 0.01, "beta1": 0.8, "beta2": 0.99,
        "adam_eps": 1e-6, "rho": 0.05,
    },
    "bandit": {"s_over_n": 0.5, "p_min_factor": 0.2, "alpha_p": 0.001},
    "train": {"steps": 50, "batch_size": 8, "seed": 7, "eval_every": 5},
}
MLP_ALL_SET = {
    "objective": {"type": "mlp", "widths": [2, 8, 3], "activation": "tanh", "bias_mode": "fused"},
    "dataset": {"type": "blobs", "n": 90, "noise": 0.3, "seed": 4},
    "optimizer": {
        "type": "sl_s2sam", "eta": 0.02, "lambda": 0.001, "beta1": 0.85, "beta2": 0.95,
        "adam_eps": 1e-7, "rho": 0.1,
    },
    "bandit": {"s_over_n": 0.25, "p_min_factor": 0.5, "alpha_p": 0.01},
    "train": {"steps": 30, "batch_size": 16, "seed": 2, "eval_every": 3},
}


class TestCanonicalForm:
    @pytest.mark.parametrize(
        "raw,want",
        [
            (QUAD_ALL_SET, "a8f59b56af6c9045cb38f1745c6f5d774480a5c0e1f3a44b98b8be03976a7132"),
            (MLP_ALL_SET, "f1982da61f010bc067bd3847a6157efcba1df57307990dac6486b1f2d12fcb45"),
        ],
        ids=["quad", "mlp"],
    )
    def test_digest_pinned_beyond_defaults(self, raw, want):
        assert make(raw).digest() == want

    @pytest.mark.parametrize("raw", [{}, QUAD_ALL_SET, MLP_ALL_SET], ids=["defaults", "quad", "mlp"])
    def test_resolved_round_trips(self, raw):
        cfg = make(raw)
        assert make(cfg.resolved()).digest() == cfg.digest()

    def test_integral_spellings_of_float_keys(self):
        assert make({"optimizer": {"eta": 1}}).digest() == make({"optimizer": {"eta": 1.0}}).digest()
        a = make({"objective": {"layer_dims": [4, 4], "scales": [1, 2]}})
        b = make({"objective": {"layer_dims": [4, 4], "scales": [1.0, 2.0]}})
        assert a.digest() == b.digest()

    @pytest.mark.parametrize("key", ["steps", "batch_size", "seed", "eval_every"])
    def test_integral_float_stored_as_int(self, key):
        cfg = make({"train": {key: 4.0}})
        value = getattr(cfg.train, key)
        assert value == 4 and type(value) is int
        assert cfg.digest() == make({"train": {key: 4}}).digest()

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("train", "steps", 5.5),
            ("train", "batch_size", 8.5),
            ("train", "seed", 1.5),
            ("train", "eval_every", 2.5),
            ("dataset", "n", 100.5),
            ("dataset", "seed", 0.5),
            ("objective", "layer_dims", [4, 4.5]),
        ],
    )
    def test_non_integral_int_rejected(self, section, key, value):
        with pytest.raises(ConfigError, match=f"'{key}' in section '{section}' must be"):
            make({section: {key: value}})
