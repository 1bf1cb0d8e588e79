"""Acceptance checks for the whole package, one test per claimed property.

Each test prints a single PASS/FAIL summary line on the real stdout so
the verdicts survive pytest's capture, then asserts. Tolerances are
pinned in the assertions; shared long runs live in module fixtures.
`probe_trend`, which property 08 reads, is defined and unit-tested here.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest
from scipy.optimize import minimize

from sparsam.bandit import BanditConfig, init_uniform, kl_project
from sparsam.config import ExperimentConfig
from sparsam.layered import ActiveSet, LayeredVector
from sparsam.objectives import Batch, BlockQuadratic, MlpClassifier
from sparsam.optimizers import (
    AdamWConfig,
    OptimizerState,
    SamConfig,
    adamw_baseline_step,
    adasam_step,
    slsam_step,
)
from sparsam.rng import stream
from sparsam.runner import Trainer
from sparsam.telemetry import ProbeRecord, RunRecord, layer_frequency

from conftest import block, from_flat


def report(capsys, tag: str, ok: bool, detail: str = "") -> bool:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[acceptance] {tag}: {verdict}{suffix}")
    return ok


def qbatch(step: int) -> Batch:
    return Batch(np.zeros((1, 1)), np.zeros(1, dtype=np.int64), id=step)


def make_trainer(raw: dict) -> Trainer:
    return Trainer(ExperimentConfig.from_dict(raw))


# --- 01: projection against a brute-force minimizer ---


def project_oracle(u: np.ndarray, s: float, p_min: float) -> np.ndarray:
    """Exact minimizer of sum q*log(q/u) subject to sum q = s, p_min <= q <= 1.

    The optimum has the form clip(c*u, p_min, 1); enumerate every
    floor/free/cap assignment, solve c on the free part, keep feasible
    candidates, and return the one of least divergence. Independent of
    the closed-form solve under test.
    """
    n = u.size
    best_q, best_val = None, np.inf
    for pattern in itertools.product((0, 1, 2), repeat=n):
        lo = [i for i in range(n) if pattern[i] == 0]
        free = [i for i in range(n) if pattern[i] == 1]
        hi = [i for i in range(n) if pattern[i] == 2]
        fixed = len(lo) * p_min + len(hi)
        q = np.empty(n)
        q[lo] = p_min
        q[hi] = 1.0
        if free:
            c = (s - fixed) / u[free].sum()
            if c <= 0:
                continue
            qf = c * u[free]
            if (qf < p_min - 1e-12).any() or (qf > 1.0 + 1e-12).any():
                continue
            if lo and (c * u[lo] > p_min + 1e-12).any():
                continue
            if hi and (c * u[hi] < 1.0 - 1e-12).any():
                continue
            q[free] = np.clip(qf, p_min, 1.0)
        elif abs(fixed - s) > 1e-9:
            continue
        val = float(np.sum(q * np.log(q / u)))
        if val < best_val:
            best_val, best_q = val, q
    assert best_q is not None, "no feasible clip pattern found"
    return best_q


@pytest.mark.filterwarnings("ignore:Values in x were outside bounds:RuntimeWarning")
def test_projection_matches_bruteforce_oracle(capsys):
    rng = np.random.default_rng(20260822)
    t0 = time.perf_counter()
    worst = 0.0
    instances = []
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        p_min = float(rng.uniform(0.01, 0.25))
        s = float(n * p_min + rng.uniform(0.05, 0.95) * (n - n * p_min))
        u = np.exp(rng.normal(0.0, 2.0, n))
        instances.append((u, s, p_min))
        got = kl_project(u, s, p_min).p
        want = project_oracle(u, s, p_min)
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    # The oracle itself is cross-checked against a generic constrained
    # solver on a sample of the instances.
    solver_gap = 0.0
    for u, s, p_min in instances[:25]:
        n = u.size
        res = minimize(
            lambda q: float(np.sum(q * np.log(q / u))),
            np.full(n, s / n),
            jac=lambda q: np.log(q / u) + 1.0,
            bounds=[(p_min, 1.0)] * n,
            constraints=[{"type": "eq", "fun": lambda q: q.sum() - s}],
            method="SLSQP",
            options={"ftol": 1e-14, "maxiter": 500},
        )
        assert res.success
        solver_gap = max(solver_gap, float(np.max(np.abs(res.x - project_oracle(u, s, p_min)))))
    assert solver_gap <= 1e-5
    ok = worst <= 1e-6 and elapsed < 10.0
    assert report(capsys, "01 projection-oracle", ok, f"max err {worst:.2e}, {elapsed:.1f}s")


# --- 02/03/07 share one long sparse run ---


@pytest.fixture(scope="module")
def slsam_trace():
    """10,000 bandit-sampled steps on a heterogeneous noisy quadratic.

    Per-step captures: the sampling distribution, the active set, and
    the largest m^2/(v+eps) ratio over all coordinates.
    """
    obj = BlockQuadratic(
        [4, 4, 4, 4, 4],
        scales=[100.0, 30.0, 10.0, 3.0, 1.0],
        noise_sigma=1e-3,
        noise_seed=0,
    )
    x = obj.init_params(0)
    state = OptimizerState.init(obj.layer_dims)
    s, p_min = 1.0, 0.02
    dist = init_uniform(5, s, p_min)
    sam = SamConfig(rho=0.01, perturb_norm="per_layer")
    adamw = AdamWConfig(eta=1e-3, beta1=0.9, beta2=0.94)
    bandit = BanditConfig()
    rng = stream(0, "bandit")
    steps = 10_000
    p_hist = np.empty((steps + 1, 5))
    p_hist[0] = dist.p
    included = np.zeros(5)
    ratio_max = 0.0
    for t in range(steps):
        dist, tel = slsam_step(obj, x, qbatch(t), state, dist, sam, adamw, bandit, rng)
        p_hist[t + 1] = dist.p
        for l in tel.active_layers:
            included[l] += 1
        step_ratio = max(
            float(np.max(np.square(block(state.m, l)) / (block(state.v, l) + adamw.adam_eps)))
            for l in range(state.m.n_layers)
        )
        ratio_max = max(ratio_max, step_ratio)
    return {
        "p": p_hist,
        "freq": included / steps,
        "ratio_max": ratio_max,
        "steps": steps,
        "s": s,
        "p_min": p_min,
    }


def test_sampling_distribution_invariants(slsam_trace, capsys):
    p = slsam_trace["p"]
    sum_err = float(np.max(np.abs(p.sum(axis=1) - slsam_trace["s"])))
    in_bounds = bool((p >= slsam_trace["p_min"]).all() and (p <= 1.0).all())
    ok = sum_err <= 1e-9 and in_bounds
    assert report(
        capsys,
        "02 distribution-invariants",
        ok,
        f"max |sum p - s| {sum_err:.2e} over {p.shape[0]} iterates, bounds {'held' if in_bounds else 'broken'}",
    )


def test_update_magnitude_bound(slsam_trace, capsys):
    # beta2 <= sqrt(beta1) puts every coordinate's m^2/(v+eps) under
    # (1-b1)^2/(1-b2) * 1/(1-b1/sqrt(b2))^2 = 8 at b1=0.9, b2=0.94.
    ratio = slsam_trace["ratio_max"]
    ok = ratio <= 8.0
    assert report(capsys, "03 update-ratio-bound", ok, f"max m^2/(v+eps) {ratio:.3f} <= 8")


def test_exploration_floor(slsam_trace, capsys):
    p_min, steps = slsam_trace["p_min"], slsam_trace["steps"]
    floor = p_min - 4.0 * np.sqrt(p_min * (1.0 - p_min) / steps)
    freq = slsam_trace["freq"]
    ok = bool((freq >= floor).all())
    assert report(
        capsys,
        "07 exploration-floor",
        ok,
        f"min layer frequency {freq.min():.4f} >= {floor:.4f}",
    )


# --- 04: analytic gradients vs central differences ---


def central_fd(f, flat: np.ndarray, h: float = 1e-6) -> np.ndarray:
    out = np.empty_like(flat)
    for j in range(flat.size):
        bump = np.zeros_like(flat)
        bump[j] = h
        out[j] = (f(flat + bump) - f(flat - bump)) / (2.0 * h)
    return out


def test_gradients_match_finite_differences(capsys):
    rng = np.random.default_rng(4)
    worst = 0.0
    for i in range(100):
        if i % 2 == 0:
            n_layers = int(rng.integers(1, 4))
            dims = [int(rng.integers(2, 6)) for _ in range(n_layers)]
            obj = BlockQuadratic(
                dims,
                scales=list(np.exp(rng.uniform(np.log(0.1), np.log(10.0), n_layers))),
                noise_sigma=float(rng.choice([0.0, 1e-3])),
                noise_seed=7,
            )
            x = obj.init_params(i)
            for l in range(n_layers):
                block(x, l)[...] += rng.normal(0.0, 1.0, dims[l])
            batch = qbatch(i)
        else:
            k = int(rng.integers(2, 4))
            widths = [2, int(rng.integers(3, 7)), k]
            if rng.random() < 0.5:
                widths.insert(2, int(rng.integers(3, 6)))
            obj = MlpClassifier(widths, activation="tanh")
            x = obj.init_params(i)
            b = int(rng.integers(4, 9))
            batch = Batch(rng.normal(0.0, 1.0, (b, 2)), rng.integers(0, k, b))
        full = ActiveSet.full(obj.n_layers)
        _, g = obj.loss_and_grad(x, batch, full)
        f = lambda flat: obj.loss(from_flat(flat, obj.layer_dims), batch)
        fd = central_fd(f, x.data.copy())
        err = np.max(np.abs(g.data - fd)) / max(1e-8, float(np.max(np.abs(fd))))
        worst = max(worst, float(err))
    ok = worst <= 1e-5
    assert report(capsys, "04 gradient-check", ok, f"max rel err {worst:.2e} over 100 instances")


# --- 05: degenerate settings collapse onto simpler optimizers ---


def bit_equal(a: LayeredVector, b: LayeredVector) -> bool:
    return np.array_equal(a.data, b.data)


def test_zero_rho_and_full_budget_reductions(capsys):
    steps = 500
    adamw = AdamWConfig(eta=1e-3, weight_decay=0.01)
    obj = BlockQuadratic([4, 4, 4, 4, 4], noise_sigma=1e-3, noise_seed=0)

    # rho=0 two-step SAM against the plain baseline.
    xa, sa = obj.init_params(0), OptimizerState.init(obj.layer_dims)
    xb, sb = obj.init_params(0), OptimizerState.init(obj.layer_dims)
    dense_ok = True
    for t in range(steps):
        adasam_step(obj, xa, qbatch(t), sa, SamConfig(rho=0.0), adamw)
        adamw_baseline_step(obj, xb, qbatch(t), sb, adamw)
        dense_ok = dense_ok and bit_equal(xa, xb)

    # rho=0 sampled variant against a hand-rolled masked update that
    # replays the same active sets on its own moment buffers.
    xs, ss = obj.init_params(0), OptimizerState.init(obj.layer_dims)
    dist = init_uniform(5, 1.0, 0.02)
    rng = stream(0, "bandit")
    xr = obj.init_params(0)
    m = [np.zeros(d) for d in obj.layer_dims]
    v = [np.zeros(d) for d in obj.layer_dims]
    masked_ok = True
    for t in range(steps):
        dist, tel = slsam_step(
            obj,
            xs,
            qbatch(t),
            ss,
            dist,
            SamConfig(rho=0.0, perturb_norm="per_layer"),
            adamw,
            BanditConfig(),
            rng,
        )
        _, g = obj.loss_and_grad(xr, qbatch(t), ActiveSet.from_iterable(tel.active_layers))
        for l in tel.active_layers:
            gl, xl = block(g, l), block(xr, l)
            m[l] = adamw.beta1 * m[l] + (1.0 - adamw.beta1) * gl
            v[l] = adamw.beta2 * v[l] + (1.0 - adamw.beta2) * gl * gl
            xl[...] = (
                xl
                - adamw.eta * m[l] / np.sqrt(v[l] + adamw.adam_eps)
                - adamw.eta * adamw.weight_decay * xl
            )
        masked_ok = masked_ok and bit_equal(xs, xr)

    # Saturated budget keeps every layer active, which is dense
    # layerwise SAM.
    xf, sf = obj.init_params(0), OptimizerState.init(obj.layer_dims)
    xd, sd = obj.init_params(0), OptimizerState.init(obj.layer_dims)
    dist = init_uniform(5, 5.0, 0.02)
    rng = stream(0, "bandit")
    sam = SamConfig(rho=0.01, perturb_norm="per_layer")
    full_ok = True
    for t in range(steps):
        dist, tel = slsam_step(obj, xf, qbatch(t), sf, dist, sam, adamw, BanditConfig(), rng)
        adasam_step(obj, xd, qbatch(t), sd, sam, adamw)
        full_ok = full_ok and bit_equal(xf, xd)

    ok = dense_ok and masked_ok and full_ok
    assert report(
        capsys,
        "05 reduction-identities",
        ok,
        f"rho=0 dense {dense_ok}, rho=0 masked {masked_ok}, full budget {full_ok}, {steps} steps each",
    )


# --- 06: cost accounting on a 10-equal-layer classifier ---


def test_active_ratio_accounting(capsys):
    t0 = time.perf_counter()
    base = {
        "objective": {"type": "mlp", "widths": [2] * 11, "bias_mode": "fused"},
        "dataset": {"type": "two_moons", "n": 256, "noise": 0.1, "seed": 0},
        "optimizer": {"type": "slsam", "eta": 0.01},
        "bandit": {"s_over_n": 0.2},
        "train": {"steps": 5000, "batch_size": 32, "seed": 0, "eval_every": 100},
    }
    tr = make_trainer(base)
    assert tr.objective.n_layers == 10
    assert len(set(tr.objective.layer_dims)) == 1
    tr.run_all()
    sparse_ratio = tr.record.summary["active_ratio"]

    ratios = {}
    for opt in ("adamw", "adasam"):
        raw = dict(base, optimizer={"type": opt, "eta": 0.01})
        raw["train"] = dict(base["train"], steps=200)
        tr = make_trainer(raw)
        tr.run_all()
        ratios[opt] = tr.record.summary["active_ratio"]
    elapsed = time.perf_counter() - t0
    ok = (
        0.36 <= sparse_ratio <= 0.44
        and ratios["adamw"] == 1.0
        and ratios["adasam"] == 2.0
        and elapsed < 120.0
    )
    assert report(
        capsys,
        "06 active-ratio-accounting",
        ok,
        f"sampled {sparse_ratio:.4f} in [0.36, 0.44], dense {ratios['adamw']}, "
        f"two-step {ratios['adasam']}, {elapsed:.1f}s",
    )


# --- 08: convergence trend on both objective families ---


def probe_trend(record: RunRecord, window: int) -> list[tuple[int, float]]:
    """Mean probe grad_l1 over consecutive windows of `window` probes.

    Each entry carries the step of its window's last probe; a short
    trailing window is averaged over what it holds.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    if not record.probes:
        raise ValueError("run has no probes")
    out = []
    for start in range(0, len(record.probes), window):
        chunk = record.probes[start : start + window]
        out.append((chunk[-1].step, float(np.mean([p.grad_l1 for p in chunk]))))
    return out


def test_probe_trend():
    rec = RunRecord(config_digest="x", seed=0, n_layers=1, total_params=1)
    rec.probes.extend(
        ProbeRecord(step=t, loss=0.0, grad_l1=g)
        for t, g in [(10, 4.0), (20, 2.0), (30, 6.0), (40, 0.0)]
    )
    assert probe_trend(rec, window=2) == [(20, 3.0), (40, 3.0)]


def test_convergence_trend(capsys):
    # The quadratic half: at every seed, 10 probe windows whose means fall
    # strictly while they lie above the 0.01 target, and a last window at
    # most 0.01 of the first. Below the target the noise decides the order
    # of neighbouring windows, so pairs there are not compared.
    t0 = time.perf_counter()
    monotone, final_ratios = [], []
    for seed in range(5):
        tr = make_trainer({
            "objective": {"type": "blockquadratic", "layer_dims": [4] * 5, "noise_sigma": 1e-4},
            "optimizer": {"type": "slsam", "eta": 4e-3},
            "bandit": {"s_over_n": 0.2},
            "train": {"steps": 4000, "batch_size": 1, "seed": seed, "eval_every": 10},
        })
        tr.run_all()
        trend = probe_trend(tr.record, window=len(tr.record.probes) // 10)
        means = [m for _, m in trend]
        target = 0.01 * means[0]
        monotone.append(
            len(means) == 10 and all(b < a for a, b in zip(means, means[1:]) if b > target)
        )
        final_ratios.append(means[-1] / means[0])

    sl_train, sl_test, ada_test = [], [], []
    for seed in range(5):
        base = {
            "objective": {"type": "mlp", "widths": [2, 16, 16, 2]},
            "dataset": {"type": "two_moons", "n": 256, "noise": 0.1, "seed": seed},
            "optimizer": {"type": "slsam", "eta": 0.01},
            "bandit": {"s_over_n": 0.5},
            "train": {"steps": 2000, "batch_size": 32, "seed": seed, "eval_every": 200},
        }
        tr = make_trainer(base)
        tr.run_all()
        sl_train.append(tr.record.summary["train_accuracy"])
        sl_test.append(tr.record.summary["test_accuracy"])
        tr = make_trainer(dict(base, optimizer={"type": "adasam", "eta": 0.01}))
        tr.run_all()
        ada_test.append(tr.record.summary["test_accuracy"])
    gap = abs(float(np.mean(sl_test)) - float(np.mean(ada_test)))
    elapsed = time.perf_counter() - t0
    ok = (
        all(monotone)
        and max(final_ratios) <= 0.01
        and min(sl_train) >= 0.95
        and gap <= 0.02
        and elapsed < 300.0
    )
    assert report(
        capsys,
        "08 convergence-trend",
        ok,
        f"10 windows monotone above target at {sum(monotone)}/5 seeds, "
        f"worst final/initial {max(final_ratios):.2e}, "
        f"min train acc {min(sl_train):.3f}, test gap {gap:.3f}, {elapsed:.1f}s",
    )


# --- 09: selector ablation on a strongly heterogeneous quadratic ---


def test_selector_ablation(capsys):
    def run(opt: str, seed: int) -> Trainer:
        tr = make_trainer({
            "objective": {
                "type": "blockquadratic",
                "layer_dims": [4] * 5,
                "scales": [100.0, 30.0, 10.0, 3.0, 1.0],
                "noise_sigma": 1e-3,
            },
            "optimizer": {"type": opt, "eta": 1e-3},
            "bandit": {"s_over_n": 0.2},
            "train": {"steps": 1000, "batch_size": 1, "seed": seed, "eval_every": 100},
        })
        tr.run_all()
        return tr

    greedy_starved, bandit_covered, bandit_wins = [], [], 0
    for seed in range(5):
        greedy = layer_frequency(run("top_slsam", seed).record)
        greedy_starved.append(int((greedy == 0.0).sum()))
        tr_bandit = run("slsam", seed)
        bandit_covered.append(bool((layer_frequency(tr_bandit.record) > 0.0).all()))
        bandit_loss = tr_bandit.objective.loss(tr_bandit.x, None)
        random_loss = (lambda tr: tr.objective.loss(tr.x, None))(run("random_slsam", seed))
        if bandit_loss < random_loss:
            bandit_wins += 1
    ok = min(greedy_starved) >= 1 and all(bandit_covered) and bandit_wins >= 4
    assert report(
        capsys,
        "09 selector-ablation",
        ok,
        f"greedy starves >= {min(greedy_starved)} layer(s)/seed, bandit covers all "
        f"{all(bandit_covered)}, bandit beats uniform {bandit_wins}/5",
    )


# --- 10: gradient-pass and active-parameter accounting ---


def test_single_pass_accounting(capsys):
    def run(opt: str, steps: int) -> list:
        tr = make_trainer({
            "objective": {"type": "blockquadratic", "noise_sigma": 1e-3},
            "optimizer": {"type": opt, "eta": 1e-3},
            "bandit": {"s_over_n": 0.2},
            "train": {"steps": steps, "batch_size": 1, "seed": 0, "eval_every": 100},
        })
        tr.run_all()
        return tr.record.steps

    single = sum(t.grad_passes for t in run("s2sam", 100))
    double = sum(t.grad_passes for t in run("adasam", 100))

    sparse_single_steps = run("sl_s2sam", 500)
    sparse_double_steps = run("slsam", 500)
    single_cost = sum(t.grad_passes * t.active_param_count for t in sparse_single_steps)
    double_cost = sum(t.grad_passes * t.active_param_count for t in sparse_double_steps)
    one_pass_each = all(t.grad_passes == 1 for t in sparse_single_steps)
    ok = (
        single == 100
        and double == 200
        and one_pass_each
        and single_cost < double_cost
    )
    assert report(
        capsys,
        "10 single-pass-accounting",
        ok,
        f"passes {single} vs {double} at 100 steps, sampled param cost "
        f"{single_cost} < {double_cost}",
    )
