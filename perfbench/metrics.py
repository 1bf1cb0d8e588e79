"""End-to-end and per-layer metrics from the timed blocks and spans.

Per-layer definitions (traced rounds only, per type unless pooled):

- `<layer>.us_per_step`: self time of the layer's spans inside
  `Trainer.step`, over steps. Self time is a span's duration minus the
  time its child spans cover. `objectives.*` count only calls under an
  optimizer step function, so the probe is reported on its own.
- `<layer>.calls_per_step` and `rng.streams_per_step`: spans per step.
- `optimizers.<fn>.us_per_step`, `bandit.sample/update.us_per_step`:
  the full duration of that call (a phase of the step), over steps.
- `bandit.kl_project.us_per_call`: full duration per call.
"""

from __future__ import annotations

import numpy as np

from timing import normalised_series, tail_value
from workloads import BANDIT_TYPES, SELECT_TYPES

# setup_s is reported in seconds on a machine whose reference kernel
# takes this long, so that it moves with the program and not with the
# load on the machine; the wall seconds are printed beside it.
NOMINAL_REF_S = 200e-6


def fmt(value) -> str:
    return "n/a" if value is None else repr(value)


def _median(a) -> float | None:
    return float(np.median(a)) if len(a) else None


def step_costs(blocks, types) -> dict:
    """Per type: untraced step costs in ref units and us, traced in ref units."""
    out = {}
    for otype in types:
        mine = [b for b in blocks if b.label == otype]
        plain = [b for b in mine if not b.traced]
        out[otype] = {
            "ref": normalised_series(plain),
            "us": np.concatenate([b.kept() for b in plain]) / 1e3 if plain else np.empty(0),
            "preempted": sum(len(b.ns) - b.kept().size for b in plain),
            "traced_ref": normalised_series([b for b in mine if b.traced]),
        }
    return out


def wall_ratios(steps, types) -> dict:
    base = _median(steps["adamw"]["ref"])
    return {
        t: (None if base is None or not len(steps[t]["ref"]) else _median(steps[t]["ref"]) / base)
        for t in types
    }


def print_headline(workload: str, steps, summaries, types) -> None:
    """wall_ratio beside active_ratio and their quotient, one row per type."""
    walls = wall_ratios(steps, types)
    print(f"{workload}: type          wall_ratio  active_ratio  wall/active  steps  preempted")
    for t in types:
        wall = walls[t]
        active = summaries.get(t, {}).get("active_ratio")
        quot = None if wall is None or not active else wall / active
        cells = ["%11s" % ("n/a" if v is None else f"{v:.4f}") for v in (wall, active, quot)]
        print(f"{workload}: {t:13s} {' '.join(cells)}  {len(steps[t]['ref']):5d}  {steps[t]['preempted']}")


def end_to_end(bench, steps, attempted: int, failed: int) -> dict:
    setup_ref = float(np.median(normalised_series(bench.setups)))
    out = {"setup_s": (setup_ref * NOMINAL_REF_S, "s")}
    wall = float(np.median([b.ns[0] for b in bench.setups])) / 1e9
    print(f"{bench.w.name} setup: {setup_ref!r} ref = {setup_ref * NOMINAL_REF_S!r} s at the "
          f"nominal ref of {NOMINAL_REF_S * 1e6:.0f} us; wall {wall!r} s "
          f"(median of {len(bench.setups)})")
    tails = {}
    for t in bench.types:
        out[f"step_cost_p50.{t}"] = (_median(steps[t]["ref"]), "ref")
    for t in bench.types:
        series = steps[t]["ref"]
        try:
            value, pct, beyond = tail_value(series, bench.w.tail_pct)
        except ValueError:
            value, pct, beyond = None, None, 0
        out[f"step_cost_tail.{t}"] = (value, "ref")
        tails[t] = (pct, len(series), beyond)
    out["ok_ratio"] = (1.0 - failed / attempted, "ratio")
    for t, (pct, n, beyond) in tails.items():
        print(f"{bench.w.name} step_cost_tail.{t}: p{pct} of n={n} ({beyond} beyond)")
    return out


def per_layer(bench, blocks, tracer, live, steps) -> dict:
    types = bench.types
    fr = tracer.frame()
    names = np.array(tracer.names)
    layers = np.array(tracer.layers)

    def name_is(n):
        return (names == n)[fr.name_id]

    def layer_is(l):
        return (layers == l)[fr.name_id]

    dur = fr.duration.astype(np.float64)
    self_t = fr.self_time().astype(np.float64)
    span_type = np.full(fr.name_id.size, -1)
    for b in blocks:
        if b.traced:
            span_type[b.lo : b.hi] = types.index(b.label)
    is_step = name_is("Trainer.step")
    under_opt = fr.has_ancestor(layer_is("step_fn"))
    parent_is_step = np.zeros(fr.name_id.size, dtype=bool)
    has_parent = fr.parent >= 0
    parent_is_step[has_parent] = is_step[fr.parent[has_parent]]
    in_step = fr.has_ancestor(is_step) | is_step

    out = {}

    def per_type(metric, unit, fn, only=None):
        for i, t in enumerate(types):
            if only is not None and t not in only:
                continue
            mine = span_type == i
            n_steps = int((mine & is_step).sum())
            out[f"{metric}.{t}"] = (fn(mine, n_steps) if n_steps else None, unit)

    def total_per_step(values, sel):
        return lambda mine, n: float(values[mine & sel].sum()) / n / 1e3

    def count_per_step(sel):
        return lambda mine, n: float((mine & sel).sum()) / n

    obj = layer_is("objectives") & under_opt
    per_type("objectives.us_per_step", "us", total_per_step(self_t, obj))
    per_type("objectives.calls_per_step", "count", count_per_step(obj))
    probe = layer_is("objectives") & parent_is_step
    out["objectives.probe_us"] = (_mean_us(dur[probe]), "us")

    rng = layer_is("rng") & in_step
    per_type("rng.streams_per_step", "count", count_per_step(rng))
    per_type("rng.us_per_step", "us", total_per_step(self_t, rng))

    lay = layer_is("layered") & in_step
    per_type("layered.us_per_step", "us", total_per_step(self_t, lay))
    per_type("layered.calls_per_step", "count", count_per_step(lay))

    per_type("optimizers.adamw_step.us_per_step", "us",
             total_per_step(dur, name_is("optimizers.adamw_step")))
    per_type("optimizers.sam_perturb.us_per_step", "us",
             total_per_step(dur, name_is("optimizers.sam_perturb")), only=types[1:])
    per_type("optimizers.select.us_per_step", "us",
             total_per_step(dur, name_is("optimizers.select_layers_ablation")), only=SELECT_TYPES)
    for t in types:
        out[f"optimizers.active_ratio.{t}"] = (bench.summaries.get(t, {}).get("active_ratio"), "ratio")
    for t, wall in wall_ratios(steps, types).items():
        out[f"optimizers.wall_ratio.{t}"] = (wall, "ratio")

    per_type("bandit.sample.us_per_step", "us",
             total_per_step(dur, name_is("bandit.sample_active_set")), only=BANDIT_TYPES)
    per_type("bandit.update.us_per_step", "us",
             total_per_step(dur, name_is("bandit.update_distribution")), only=BANDIT_TYPES)
    kl = name_is("bandit.kl_project")
    per_type("bandit.kl_project.us_per_call", "us",
             lambda mine, n: _mean_us(dur[mine & kl]), only=BANDIT_TYPES)
    for t in BANDIT_TYPES:
        redraw, budget = (None, None)
        tr = live.get(t)
        if tr is not None:
            # sl_s2sam's first step is a dense bootstrap that draws nothing.
            sampled = [s for s in tr.record.steps if s.step > 1]
            redraws = sum(s.redraws for s in sampled)
            redraw = redraws / (len(sampled) + redraws) if sampled else None
            s = tr.config.bandit.budget(tr.objective.n_layers)
            budget = float(np.mean([len(x.active_layers) for x in sampled])) / s if sampled else None
        out[f"bandit.redraw_ratio.{t}"] = (redraw, "ratio")
        out[f"bandit.active_over_budget.{t}"] = (budget, "ratio")

    n_steps_all = int((is_step & (span_type >= 0)).sum())
    batch = name_is("datasets.minibatches")
    out["datasets.batch_wait_us"] = (
        float(dur[batch & in_step].sum()) / n_steps_all / 1e3 if n_steps_all else None, "us")
    out["datasets.gen_s"] = (_median(bench.gen_ns) / 1e9 if bench.gen_ns else None, "s")
    out["config.load_s"] = (_median(bench.load_ns) / 1e9, "s")
    out["telemetry.append_us"] = (_mean_us(dur[name_is("RunRecord.append")]), "us")
    per_type("runner.step_self_us", "us", total_per_step(self_t, is_step))

    ref = _median([b.ref for b in blocks])
    out["ref.us"] = (None if ref is None else ref / 1e3, "us")
    for t in types:
        out[f"step_us_p50.{t}"] = (_median(steps[t]["us"]), "us")
    ratios = [
        _median(steps[t]["traced_ref"]) / _median(steps[t]["ref"])
        for t in types
        if len(steps[t]["traced_ref"]) and len(steps[t]["ref"])
    ]
    out["trace.overhead_ratio"] = (_median(ratios), "ratio")
    return out


def _mean_us(values) -> float | None:
    return float(np.mean(values)) / 1e3 if len(values) else None
