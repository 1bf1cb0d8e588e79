"""End-to-end runner and CLI behavior: files, determinism, exit codes."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from sparsam import runner
from sparsam.cli import main
from sparsam.config import OPTIMIZER_TYPES, ExperimentConfig, OptimizerConfig, load_config
from sparsam.errors import ConfigError, DivergenceError


def quad_cfg(**over) -> ExperimentConfig:
    raw = {
        "optimizer": {"type": "adamw", "eta": 1e-3},
        "objective": {"type": "blockquadratic", "noise_sigma": 1e-3},
        "train": {"steps": 30, "batch_size": 1, "seed": 0, "eval_every": 10},
    }
    for section, kv in over.items():
        raw.setdefault(section, {}).update(kv)
    return ExperimentConfig.from_dict(raw)


def rows(path: Path) -> list[str]:
    return path.read_text().rstrip("\n").split("\n")


def strip_wall(line: str) -> str:
    return line.rsplit(",", 1)[0]


class TestRun:
    def test_files_and_row_count(self, tmp_path):
        rec = runner.run(quad_cfg(), tmp_path)
        lines = rows(tmp_path / "steps.csv")
        assert lines[0] == runner.CSV_HEADER
        assert len(lines) == 31
        assert (tmp_path / "summary.json").exists()
        assert rec.n_steps == 30

    def test_csv_identical_across_reruns_except_wall(self, tmp_path):
        runner.run(quad_cfg(), tmp_path / "a")
        runner.run(quad_cfg(), tmp_path / "b")
        a = [strip_wall(l) for l in rows(tmp_path / "a" / "steps.csv")]
        b = [strip_wall(l) for l in rows(tmp_path / "b" / "steps.csv")]
        assert a == b

    def test_summary_json_identical_across_reruns(self, tmp_path):
        runner.run(quad_cfg(), tmp_path / "a")
        runner.run(quad_cfg(), tmp_path / "b")
        assert (tmp_path / "a" / "summary.json").read_bytes() == (
            tmp_path / "b" / "summary.json"
        ).read_bytes()

    def test_summary_fields(self, tmp_path):
        runner.run(quad_cfg(), tmp_path)
        s = json.loads((tmp_path / "summary.json").read_text())
        assert s["optimizer"] == "adamw"
        assert s["steps"] == 30
        assert s["seed"] == 0
        assert s["active_ratio"] == 1.0
        assert s["train_accuracy"] is None
        assert s["test_accuracy"] is None
        assert s["expensive_selection"] is False
        assert len(s["config_digest"]) == 64
        assert [p[0] for p in s["probes"]] == [10, 20, 30]

    def test_dense_baseline_columns(self, tmp_path):
        rec = runner.run(quad_cfg(), tmp_path)
        for t in rec.steps:
            assert t.grad_passes == 1
            assert tuple(t.active_layers) == (0, 1, 2, 3, 4)
            assert t.active_param_count == 20
        assert [t.step for t in rec.steps] == list(range(1, 31))

    def test_sparse_run_touches_fewer_params(self, tmp_path):
        cfg = quad_cfg(optimizer={"type": "slsam"}, train={"steps": 60})
        rec = runner.run(cfg, tmp_path)
        counts = [t.active_param_count for t in rec.steps]
        assert max(counts) <= 20
        assert np.mean(counts) < 20
        s = json.loads((tmp_path / "summary.json").read_text())
        assert 0.0 < s["active_ratio"] < 2.0
        assert len(s["layer_frequency"]) == 5

    @pytest.mark.parametrize("otype", ["slsam", "random_slsam"])
    @pytest.mark.parametrize("n_layers", [6, 12])
    def test_recorded_layers_are_the_csv_layers(self, tmp_path, otype, n_layers):
        cfg = quad_cfg(optimizer={"type": otype}, objective={"layer_dims": [2] * n_layers})
        rec = runner.run(cfg, tmp_path)
        for line, tel in zip(rows(tmp_path / "steps.csv")[1:], rec.steps, strict=True):
            layers = tel.active_layers
            assert layers.dtype == np.intp and not layers.flags.writeable
            assert np.all(np.diff(layers) > 0)
            assert layers.tolist() == [int(l) for l in line.split(",")[3].split("|")]

    def test_probe_losses_decrease(self, tmp_path):
        cfg = quad_cfg(train={"steps": 300, "eval_every": 100})
        rec = runner.run(cfg, tmp_path)
        losses = [p.loss for p in rec.probes]
        assert losses[-1] < losses[0]

    def test_mlp_run_reports_accuracy(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "optimizer": {"type": "adasam", "eta": 0.01},
            "objective": {"type": "mlp", "widths": [2, 8, 2]},
            "dataset": {"type": "two_moons", "n": 64, "noise": 0.1, "seed": 0},
            "train": {"steps": 40, "batch_size": 16, "seed": 0, "eval_every": 20},
        })
        runner.run(cfg, tmp_path)
        s = json.loads((tmp_path / "summary.json").read_text())
        assert 0.0 <= s["train_accuracy"] <= 1.0
        assert 0.0 <= s["test_accuracy"] <= 1.0

    @pytest.mark.parametrize("otype", ["slsam", "sl_s2sam"])
    def test_sampler_csv_matches_telemetry(self, tmp_path, otype):
        cfg = quad_cfg(
            optimizer={"type": otype},
            objective={"layer_dims": [3] * 8},
            bandit={"s_over_n": 0.25},
        )
        rec = runner.run(cfg, tmp_path)
        lines = rows(tmp_path / "sampler.csv")
        assert lines[0] == runner.SAMPLER_HEADER
        assert len(lines) == rec.n_steps + 1
        for line, tel in zip(lines[1:], rec.steps):
            step, redraws, staleness = line.split(",")
            pairs = [p.split(":") for p in staleness.split("|")] if staleness else []
            assert int(step) == tel.step
            assert int(redraws) == tel.redraws
            staleness = dict(zip(tel.active_layers, tel.per_layer_staleness.tolist()))
            assert {int(l): int(n) for l, n in pairs} == staleness
        assert any(t.redraws > 0 for t in rec.steps)
        stale = otype == "sl_s2sam"
        assert any(t.per_layer_staleness.size for t in rec.steps) == stale
        if stale:
            assert max(t.per_layer_staleness.max() for t in rec.steps[1:]) > 1

    def test_failing_summary_dump_leaves_no_partial_file(self, tmp_path, monkeypatch):
        runner.run(quad_cfg(), tmp_path)
        assert (tmp_path / "summary.json").exists()

        def failing_replace(src, dst):
            raise OSError("disk full")

        # The summary is written to its temp file; renaming it into place fails.
        monkeypatch.setattr(runner.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            runner.run(quad_cfg(optimizer={"eta": 2e-3}), tmp_path)
        with pytest.raises(OSError, match="disk full"):
            runner.run(quad_cfg(), tmp_path / "fresh")
        # Neither a partial file nor the earlier run's summary, which would
        # sit beside this run's CSVs, is left.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh", "sampler.csv", "steps.csv"]
        assert sorted(p.name for p in (tmp_path / "fresh").iterdir()) == [
            "sampler.csv", "steps.csv"
        ]

    def test_divergence_leaves_partial_csv(self, tmp_path):
        cfg = quad_cfg(optimizer={"eta": 10.0, "lambda": 1e5}, train={"steps": 200})
        with pytest.raises(DivergenceError):
            runner.run(cfg, tmp_path)
        lines = rows(tmp_path / "steps.csv")
        assert lines[0] == runner.CSV_HEADER
        assert 1 < len(lines) < 201
        assert not (tmp_path / "summary.json").exists()


class TestTrainerStep:
    def test_probe_divergence_names_step_and_pass(self):
        # The step's own pass is finite; its update sends x to ~1e300.
        trainer = runner.Trainer(quad_cfg(optimizer={"eta": 1e300}, train={"eval_every": 1}))
        with pytest.raises(DivergenceError, match=r"\(inf\) in the probe pass of step 1$"):
            trainer.step()

    @pytest.mark.parametrize("otype", OPTIMIZER_TYPES)
    def test_accounted_passes_match_passes_made(self, otype, monkeypatch):
        trainer = runner.Trainer(quad_cfg(
            optimizer={"type": otype},
            objective={"layer_dims": [3] * 8},
            bandit={"s_over_n": 0.25},
            train={"eval_every": 1000},
        ))
        trainer.step()  # the single-pass types' dense bootstrap
        calls = []
        real = trainer.objective.loss_and_grad

        def counting(*args):
            calls.append(args)
            return real(*args)

        # Objective.grad goes through loss_and_grad, so this sees every pass.
        monkeypatch.setattr(trainer.objective, "loss_and_grad", counting)
        tel = trainer.step()
        # top_slsam's selection pass doubles as its ascent pass, so it makes
        # one pass fewer than it is charged.
        reused = otype == "top_slsam"
        assert len(calls) == tel.grad_passes + (tel.selection_param_count > 0) - reused

    def test_unknown_type_rejected_at_construction(self):
        with pytest.raises(ConfigError, match="bogus"):
            OptimizerConfig(type="bogus")


class TestCompare:
    def test_zero_rho_rows_share_losses(self, tmp_path):
        table = runner.compare(quad_cfg(optimizer={"rho": 0.0}), ["adamw", "adasam"], tmp_path)
        lines = rows(table)
        assert lines[0].startswith("optimizer,final_loss")
        adamw = lines[1].split(",")
        adasam = lines[2].split(",")
        assert adamw[0] == "adamw" and adasam[0] == "adasam"
        assert adamw[1] == adasam[1]
        assert adamw[4] == "1.0" and adasam[4] == "2.0"
        a = [strip_wall(l) for l in rows(tmp_path / "adamw" / "steps.csv")]
        b = [strip_wall(l) for l in rows(tmp_path / "adasam" / "steps.csv")]
        assert [l.split(",")[1] for l in a[1:]] == [l.split(",")[1] for l in b[1:]]

    def test_expensive_selection_flagged(self, tmp_path):
        table = runner.compare(quad_cfg(), ["adamw", "top_slsam"], tmp_path)
        lines = rows(table)
        by_name = {l.split(",")[0]: l for l in lines[1:]}
        assert by_name["top_slsam"].endswith("expensive:full-gradient-selection")
        assert by_name["adamw"].endswith(",")

    def test_diverged_row_keeps_the_table(self, tmp_path):
        # A huge rho overflows every SAM type's perturbed loss; adamw
        # ignores rho and finishes.
        cfg = quad_cfg(optimizer={"rho": 1e300})
        with pytest.raises(DivergenceError, match="adasam") as info:
            runner.compare(cfg, ["adasam", "adamw"], tmp_path)
        assert "adamw:" not in str(info.value)
        lines = rows(tmp_path / "compare.csv")
        assert lines[1] == "adasam,,,,,diverged"
        assert lines[2].startswith("adamw,") and float(lines[2].split(",")[1]) > 0
        assert (tmp_path / "adamw" / "summary.json").exists()
        assert not (tmp_path / "adasam" / "summary.json").exists()

    def test_rows_resolve_perturb_norm_per_type(self, tmp_path):
        # Each row is the run its type makes on its own, perturbation mode included.
        runner.compare(quad_cfg(), ["adamw", "slsam"], tmp_path)
        for otype in ("adamw", "slsam"):
            standalone = quad_cfg(optimizer={"type": otype})
            summary = json.loads((tmp_path / otype / "summary.json").read_text())
            assert summary["config_digest"] == standalone.digest()

    def test_rejects_short_and_duplicate_lists(self, tmp_path):
        from sparsam.errors import ConfigError

        with pytest.raises(ConfigError):
            runner.compare(quad_cfg(), ["adamw"], tmp_path)
        with pytest.raises(ConfigError):
            runner.compare(quad_cfg(), ["adamw", "adamw"], tmp_path)
        # An unknown type fails before any row runs, so no row's output exists.
        with pytest.raises(ConfigError, match="'nonsense'"):
            runner.compare(quad_cfg(), ["adamw", "nonsense"], tmp_path)
        assert not (tmp_path / "adamw").exists()

    def test_a_failed_comparison_leaves_no_stale_table(self, tmp_path):
        runner.compare(quad_cfg(), ["adamw", "slsam"], tmp_path)
        assert rows(tmp_path / "compare.csv")[2].startswith("slsam,")
        # One layer at s = 1e-5 draws nothing in MAX_SAMPLE_ATTEMPTS draws.
        cfg = quad_cfg(objective={"layer_dims": [4]}, bandit={"s_over_n": 1e-5})
        with pytest.raises(ConfigError, match="sampling budget"):
            runner.compare(cfg, ["adamw", "slsam"], tmp_path)
        assert not (tmp_path / "compare.csv").exists()
        assert not (tmp_path / ".compare.csv.tmp").exists()


def write_cfg(tmp_path: Path, raw: dict) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return str(path)


QUAD_RAW = {
    "optimizer": {"type": "adamw", "eta": 1e-3},
    "objective": {"type": "blockquadratic", "noise_sigma": 1e-3},
    "train": {"steps": 20, "batch_size": 1, "seed": 0, "eval_every": 10},
}


class TestCli:
    def test_train_success(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUAD_RAW)
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "steps.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()
        out = capsys.readouterr().out
        assert "steps.csv" in out and "final_loss=" in out

    def test_train_missing_config_flag(self, tmp_path, capsys):
        assert main(["train"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_train_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["train", "--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_train_unknown_key_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"optimizer": {"type": "adamw", "rho_": 1}})
        assert main(["train", "--config", cfg]) == 1
        assert "rho_" in capsys.readouterr().err

    def test_train_envelope_mode_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dict(QUAD_RAW, bandit={"g_mode": "running"}))
        assert main(["train", "--config", cfg]) == 1
        assert "unknown key 'g_mode' in section 'bandit'" in capsys.readouterr().err

    def test_train_integral_float_steps(self, tmp_path, capsys):
        raw = dict(QUAD_RAW, train={"steps": 5.0, "batch_size": 1.0, "seed": 0, "eval_every": 5})
        out = tmp_path / "out"
        assert main(["train", "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 0
        assert len(rows(out / "steps.csv")) == 6

    def test_train_fractional_seed_exit_code(self, tmp_path, capsys):
        raw = dict(QUAD_RAW, train={"steps": 5, "batch_size": 1, "seed": 1.5, "eval_every": 5})
        assert main(["train", "--config", write_cfg(tmp_path, raw)]) == 1
        assert "'seed' in section 'train'" in capsys.readouterr().err

    def test_train_nan_config_value_exit_code(self, tmp_path, capsys):
        raw = dict(QUAD_RAW, optimizer={"type": "adamw", "eta": float("nan")})
        assert main(["train", "--config", write_cfg(tmp_path, raw)]) == 1
        assert "'eta' in section 'optimizer' must be finite" in capsys.readouterr().err

    def test_train_divergence_exit_code(self, tmp_path, capsys):
        raw = dict(QUAD_RAW)
        raw["optimizer"] = {"type": "adamw", "eta": 10.0, "lambda": 1e5}
        raw["train"] = {"steps": 200, "batch_size": 1, "seed": 0, "eval_every": 50}
        cfg = write_cfg(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 2
        assert "divergence" in capsys.readouterr().err
        assert (out / "steps.csv").exists()
        assert not (out / "summary.json").exists()

    def test_train_divergence_removes_an_earlier_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        raw = dict(QUAD_RAW, train={"steps": 5, "batch_size": 1, "seed": 0, "eval_every": 5})
        assert main(["train", "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()
        raw["optimizer"] = {"type": "adamw", "eta": 1e300}
        assert main(["train", "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 2
        assert "divergence" in capsys.readouterr().err
        assert (out / "steps.csv").exists()
        assert not (out / "summary.json").exists()

    def test_train_budget_too_small_to_draw_is_one_line(self, tmp_path, capsys):
        # One layer at s = 1e-5: the sampler gives up before step 1 ends.
        raw = {
            "objective": {"type": "blockquadratic", "layer_dims": [4]},
            "optimizer": {"type": "slsam"},
            "bandit": {"s_over_n": 0.00001},
            "train": {"steps": 5},
        }
        cfg, out = write_cfg(tmp_path, raw), tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("config error: sampling budget s=1e-05 over 1 layer(s)")
        assert rows(out / "steps.csv") == [runner.CSV_HEADER]
        assert rows(out / "sampler.csv") == [runner.SAMPLER_HEADER]
        assert not (out / "summary.json").exists()
        # compare runs adamw, then stops at slsam with the same line.
        cmp = tmp_path / "cmp"
        assert main(["compare", "--config", cfg, "--optimizers", "adamw,slsam", "--out", str(cmp)]) == 1
        assert capsys.readouterr().err == err
        assert (cmp / "adamw" / "summary.json").exists() and not (cmp / "compare.csv").exists()

    def test_train_divergence_names_step_and_pass(self, tmp_path, capsys):
        raw = {"optimizer": {"type": "slsam", "rho": 1e300}, "train": {"steps": 20}}
        out = tmp_path / "out"
        assert main(["train", "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "divergence: loss is non-finite (inf) in the descent pass of step 1" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_train_sampler_divergence_names_step(self, tmp_path, capsys):
        # Finite losses and norms, but the envelope G / p_min has no finite square.
        raw = {"objective": {"noise_sigma": 5e152}, "optimizer": {"type": "slsam"}}
        out = tmp_path / "out"
        assert main(["train", "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "pseudo-loss of layer" in err and "in the sampler pass of step 1" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("otype", OPTIMIZER_TYPES)
    def test_train_unsquarable_gradient_names_layer_and_step(self, otype, tmp_path, capsys):
        # Finite losses and gradients, but no gradient entry has a finite square,
        # so AdamW's second moment would overflow to inf and freeze the run.
        raw = {
            "objective": {"noise_sigma": 1e160},
            "optimizer": {"type": otype},
            "train": {"steps": 3},
        }
        out = tmp_path / "out"
        assert main(["train", "--config", write_cfg(tmp_path, raw), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "divergence: gradient in layer" in err and "at step 1" in err

    def test_train_writes_under_runs_by_default(self, tmp_path, monkeypatch, capsys):
        cfg = write_cfg(tmp_path, QUAD_RAW)
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", cfg]) == 0
        assert (tmp_path / "runs" / "steps.csv").exists()
        assert (tmp_path / "runs" / "summary.json").exists()
        assert (tmp_path / "runs" / "sampler.csv").exists()
        printed = capsys.readouterr().out
        assert "wrote runs/steps.csv, runs/sampler.csv and runs/summary.json" in printed

    def test_compare_success(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUAD_RAW)
        out = tmp_path / "cmp"
        code = main([
            "compare", "--config", cfg,
            "--optimizers", "adamw,adasam",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "compare.csv").exists()
        printed = capsys.readouterr().out
        assert "optimizer,final_loss" in printed

    def test_compare_divergence_writes_table_then_exits_2(self, tmp_path, capsys):
        raw = dict(QUAD_RAW, optimizer={"type": "adamw", "eta": 1e-3, "rho": 1e300})
        cfg = write_cfg(tmp_path, raw)
        out = tmp_path / "cmp"
        code = main([
            "compare", "--config", cfg,
            "--optimizers", "slsam,adamw",
            "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "divergence" in err and "slsam" in err and "compare.csv" in err
        lines = rows(out / "compare.csv")
        assert [l.split(",")[0] for l in lines[1:]] == ["slsam", "adamw"]
        assert lines[1].endswith(",diverged") and not lines[2].endswith(",diverged")
        assert (out / "adamw" / "summary.json").exists()

    @pytest.mark.parametrize("command", ["train", "compare"])
    @pytest.mark.parametrize("under", [(), ("sub",)], ids=["file", "under-file"])
    def test_unusable_out_is_one_config_error_line(self, command, under, tmp_path, capsys):
        # An existing file, or a path through one, cannot be the output directory.
        cfg = write_cfg(tmp_path, QUAD_RAW)
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = blocker.joinpath(*under)
        argv = [command, "--config", cfg, "--out", str(out)]
        if command == "compare":
            argv += ["--optimizers", "adamw,adasam"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        reason = "Not a directory" if under else "File exists"
        assert err == f"config error: cannot create output directory {out}: {reason}\n"
        assert blocker.read_text() == "kept\n"

    def test_unknown_activation_is_one_config_error_line(self, tmp_path, capsys):
        raw = {"objective": {"type": "mlp", "activation": "sigmoid"}, "dataset": {"type": "two_moons"}}
        assert main(["train", "--config", write_cfg(tmp_path, raw)]) == 1
        assert capsys.readouterr().err == "config error: objective: unknown activation 'sigmoid'\n"

    def test_compare_single_optimizer_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUAD_RAW)
        assert main(["compare", "--config", cfg, "--optimizers", "adamw"]) == 1

    def test_project_feasible_identity(self, tmp_path, capsys):
        probs = tmp_path / "w.csv"
        probs.write_text("0.1,0.9\n")
        assert main(["project", "--probs", str(probs), "--s", "1.0", "--pmin", "0.05"]) == 0
        got = [float(v) for v in capsys.readouterr().out.strip().split(",")]
        assert got == pytest.approx([0.1, 0.9], abs=1e-9)

    def test_project_rescales_to_budget(self, tmp_path, capsys):
        probs = tmp_path / "w.csv"
        probs.write_text("1.0 1.0 1.0 1.0\n")
        assert main(["project", "--probs", str(probs), "--s", "2.0", "--pmin", "0.1"]) == 0
        got = [float(v) for v in capsys.readouterr().out.strip().split(",")]
        assert got == pytest.approx([0.5, 0.5, 0.5, 0.5], abs=1e-9)

    @pytest.mark.parametrize("text", ["", " ,\n,, \n"], ids=["empty", "separators"])
    def test_project_refuses_a_file_without_numbers(self, tmp_path, capsys, text):
        probs = tmp_path / "w.csv"
        probs.write_text(text)
        assert main(["project", "--probs", str(probs), "--s", "1.0", "--pmin", "0.1"]) == 1
        assert capsys.readouterr().err == f"config error: {probs} holds no numbers\n"

    def test_project_infeasible_floor(self, tmp_path, capsys):
        probs = tmp_path / "w.csv"
        probs.write_text("1.0,1.0\n")
        assert main(["project", "--probs", str(probs), "--s", "1.0", "--pmin", "0.9"]) == 1

    def test_project_nan_budget_names_the_target_sum(self, tmp_path, capsys):
        probs = tmp_path / "w.csv"
        probs.write_text("1.0,1.0,1.0\n")
        assert main(["project", "--probs", str(probs), "--s", "nan", "--pmin", "0.1"]) == 1
        assert "target sum s=nan infeasible for n=3, p_min=0.1" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "weights, s, want",
        [
            ("5e-324,1", "1", [0.1, 0.9]),  # two weights: the float path
            ("5e-324" + ",1" * 9, "1.9", [0.1] + [0.2] * 9),  # ten: the NumPy path
        ],
    )
    def test_project_subnormal_weight(self, tmp_path, capsys, weights, s, want):
        # 1 / 5e-324 overflows a breakpoint to inf, as intended, without a warning.
        probs = tmp_path / "w.csv"
        probs.write_text(weights + "\n")
        assert main(["project", "--probs", str(probs), "--s", s, "--pmin", "0.1"]) == 0
        got = [float(v) for v in capsys.readouterr().out.strip().split(",")]
        assert got == pytest.approx(want, rel=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [8, 10], ids=["float-path-8", "numpy-path-10"])
    def test_project_weights_near_the_float_maximum(self, tmp_path, capsys, n):
        # Their sum overflows; the projection runs on the weights scaled down.
        probs = tmp_path / "w.csv"
        probs.write_text(",".join(["1e308"] * n) + "\n")
        assert main(["project", "--probs", str(probs), "--s", str(n / 2), "--pmin", "0.1"]) == 0
        assert capsys.readouterr().out == ",".join(["0.5"] * n) + "\n"

    @pytest.mark.parametrize(
        "weights",
        ["1,0,1,1,1,1", "1,1,1,1,1,1,1,1,0"],
        ids=["float-path-6", "numpy-path-9"],
    )
    def test_project_zero_weight(self, tmp_path, capsys, weights):
        probs = tmp_path / "w.csv"
        probs.write_text(weights + "\n")
        assert main(["project", "--probs", str(probs), "--s", "2.0", "--pmin", "0.1"]) == 1
        assert capsys.readouterr().err == "config error: u must be finite and strictly positive\n"

    def test_project_bad_numbers(self, tmp_path, capsys):
        probs = tmp_path / "w.csv"
        probs.write_text("0.5,banana\n")
        assert main(["project", "--probs", str(probs), "--s", "1.0", "--pmin", "0.1"]) == 1

    def test_project_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["project", "--probs", str(missing), "--s", "1.0", "--pmin", "0.1"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["tune"]) == 1


def load_script(name: str):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Nine code lines, counted by hand: import, X, the decorator, def, the
# three lines of the returned string, class and y.
COUNTED_MODULE = '''\
"""Module docstring,
on two lines."""

import functools
# A comment-only line.

X = 1  # a trailing comment


@functools.lru_cache
def f():
    """Function docstring."""
    return """not a docstring,
on three
lines"""


class C:
    """Class docstring."""

    y = 2
'''


class TestScripts:
    def test_code_lines_matches_a_hand_count(self, tmp_path, monkeypatch, capsys):
        counter = load_script("code_lines")
        (tmp_path / "counted.py").write_text(COUNTED_MODULE)
        assert counter.code_lines(tmp_path / "counted.py") == 9
        monkeypatch.setattr("sys.argv", ["code_lines.py", str(tmp_path)])
        counter.main()
        assert capsys.readouterr().out.split("\n")[-2].split() == ["9", "total"]

    def test_comparison_config_loads(self):
        path = Path(__file__).resolve().parent.parent / "scripts" / "compare_two_moons.json"
        cfg = load_config(path)
        assert (cfg.objective.type, cfg.objective.widths) == ("mlp", [2, 16, 16, 2])
        assert (cfg.dataset.type, cfg.dataset.n, cfg.dataset.seed) == ("two_moons", 256, 0)
        assert (cfg.optimizer.eta, cfg.bandit.s_over_n) == (0.01, 0.5)
        assert (cfg.train.steps, cfg.train.batch_size, cfg.train.eval_every) == (2000, 32, 200)

    def test_sweep_runs_shorter_than_ten_steps(self):
        sweep = load_script("sweep_sparsity")
        ratio, grad = sweep.run_one(0.2, 5, 0)
        assert 0.0 < ratio <= 2.0
        assert np.isfinite(grad)

    @pytest.mark.parametrize("flag", ["--steps", "--seeds"])
    def test_sweep_refuses_fewer_than_one(self, flag, capsys):
        # No steps is a config error and no seeds a mean of nothing: both
        # are usage errors, refused before any run.
        sweep = load_script("sweep_sparsity")
        with pytest.raises(SystemExit) as exit_info:
            sweep.main([flag, "0"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"{flag}: must be at least 1, got 0" in captured.err
        assert captured.out == ""
