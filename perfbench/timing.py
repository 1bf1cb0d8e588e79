"""Reference kernel, per-block normalisation and percentile helpers.

Absolute time does not repeat on a shared machine: it moves between a
fast and a slow state, sometimes within a run. Every block of timed
work is therefore bracketed by two blocks of a fixed reference kernel,
and each timed value is divided by the mean of the two bracketing
reference medians. One "ref" is that reference time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

REF_CALLS = 5
# A timed call whose wall time exceeds the thread's CPU time over it by
# more than PREEMPTED_NS plus PREEMPTED_SHARE of that CPU time was
# descheduled (another tenant ran on the core): its wall time says
# nothing about the program, so it is left out and counted.
PREEMPTED_NS = 50_000
PREEMPTED_SHARE = 0.05
MIN_BEYOND = 10
# Fallback when a workload's own tail percentile leaves fewer than
# MIN_BEYOND samples beyond it: the highest of these that does not.
TAIL_GRID = (50.0, 90.0, 95.0, 99.0, 99.9)


class RefKernel:
    """A Python loop over small NumPy blocks plus a small dense layer pass.

    The loop stands for interpreter and small-array overhead, the dense
    pass (a 128x64 by 64x64 matmul, tanh and its backward product) for
    BLAS and elementwise work. The two slow down by different factors
    when the machine is contended, as the parts of a training step do,
    so the kernel mixes both. It contains no package code.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.blocks = [rng.standard_normal(64) for _ in range(32)]
        self.x = rng.standard_normal((128, 64))
        self.w = 0.1 * rng.standard_normal((64, 64))

    def __call__(self) -> float:
        acc = 0.0
        for blk in self.blocks:
            acc += float(np.abs(blk * 0.5 + 1.0).sum())
        z = self.x @ self.w
        a = np.tanh(z)
        return acc + float((self.x.T @ ((1.0 - a * a) * z))[0, 0])

    def block_ns(self) -> float:
        """Median wall time of REF_CALLS kernel calls, in ns."""
        ts = []
        for _ in range(REF_CALLS):
            t0 = time.perf_counter_ns()
            self()
            ts.append(time.perf_counter_ns() - t0)
        return float(np.median(ts))


@dataclass
class Block:
    """One block of timed calls and the reference medians around it.

    `ns` holds wall times; `cpu`, when filled, the thread CPU time spent
    over each call, which marks preempted calls.
    """

    label: str
    ref_before: float
    ref_after: float = math.nan
    ns: list[int] = field(default_factory=list)
    cpu: list[int] = field(default_factory=list)
    traced: bool = False
    # Span index range [lo, hi) recorded during a traced block.
    lo: int = 0
    hi: int = 0

    @property
    def ref(self) -> float:
        return 0.5 * (self.ref_before + self.ref_after)

    def kept(self) -> np.ndarray:
        """Wall times of the calls that ran without being preempted."""
        ns = np.asarray(self.ns, dtype=np.float64)
        if not self.cpu:
            return ns
        cpu = np.asarray(self.cpu, dtype=np.float64)
        return ns[ns - cpu <= PREEMPTED_NS + PREEMPTED_SHARE * cpu]

    def normalised(self) -> np.ndarray:
        return self.kept() / self.ref

    def time_call(self, fn):
        """Call fn, appending its wall time and the CPU time around it."""
        c0 = time.thread_time_ns()
        t0 = time.perf_counter_ns()
        out = fn()
        self.ns.append(time.perf_counter_ns() - t0)
        self.cpu.append(time.thread_time_ns() - c0)
        return out


def normalised_series(blocks: list[Block]) -> np.ndarray:
    """All timed values of the blocks, each divided by its own block's ref."""
    parts = [b.normalised() for b in blocks if b.ns]
    return np.concatenate(parts) if parts else np.empty(0)


def tail_choice(n: int, pct: float) -> tuple[float, int] | None:
    """(percentile, samples beyond) for the tail of n samples.

    `pct` when it leaves at least MIN_BEYOND samples beyond it, else the
    highest grid percentile that does; None when not even the median does.
    """
    for p in (pct,) + tuple(reversed(TAIL_GRID)):
        beyond = math.floor(n * (100.0 - p) / 100.0 + 1e-9)
        if beyond >= MIN_BEYOND:
            return p, beyond
    return None


def tail_value(values: np.ndarray, pct: float) -> tuple[float, float, int]:
    """(value, percentile, beyond): the sample with exactly `beyond` above it."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    choice = tail_choice(values.size, pct)
    if choice is None:
        raise ValueError(f"{values.size} samples: too few for a tail with {MIN_BEYOND} beyond")
    p, beyond = choice
    return float(values[values.size - beyond - 1]), p, beyond
