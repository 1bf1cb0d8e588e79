"""Golden traces: byte-identical outputs for every optimizer type.

Each case runs `runner.run` for about 50 steps and hashes (SHA-256) the
step CSV with its `wall_ns` column removed, and `summary.json`. The
quad digests were regenerated when the block quadratic's noise became
one stream per batch rather than one per (batch, layer), and again when
its loss became one dot product over the whole buffer rather than one
per layer. All of them were regenerated when the per-layer bookkeeping
became arrays: per-layer L2 and L1 norms became one `np.add.reduceat`
over the active layers instead of a `dot` or `.sum()` per layer, the
global perturbation's joint norm a dot product of those norms instead
of a Python sum of `pow` squares, and the pseudo-loss squares products
instead of `pow` results. Every step CSV moved through the low-order
bits of `grad_l1`. The MLP losses of the six types that perturb moved
through the norms; no quad loss and no active set changed. Three quad
summaries (s2sam, random_slsam, top_slsam) kept their digests, since
their probe values and final losses landed on the same bits. A change
that is meant to keep every trajectory identical must pass this test
unchanged. An intended numeric change regenerates the digests in a
commit of its own that says why.

The digests pin float64 results on one platform (x86-64, NumPy 2.x);
a different BLAS or SIMD math library can move the MLP's low-order bits.
"""

from __future__ import annotations

import hashlib

import pytest

from sparsam import runner
from sparsam.config import OPTIMIZER_TYPES, ExperimentConfig

CONFIGS = {
    # Noisy quadratic, 12 layers, two sampled per step on average.
    "quad": {
        "objective": {"type": "blockquadratic", "layer_dims": [6] * 12, "noise_sigma": 1e-2},
        "optimizer": {"eta": 1e-2},
        "bandit": {"s_over_n": 0.2},
        "train": {"steps": 50, "batch_size": 1, "seed": 3, "eval_every": 10},
    },
    # The paper's 2-16-16-2 classifier on two-moons.
    "mlp": {
        "objective": {"type": "mlp", "widths": [2, 16, 16, 2], "activation": "tanh"},
        "dataset": {"type": "two_moons", "n": 128, "seed": 1},
        "optimizer": {"eta": 1e-2},
        "bandit": {"s_over_n": 0.5},
        "train": {"steps": 50, "batch_size": 16, "seed": 1, "eval_every": 10},
    },
}

# (steps.csv without wall_ns, summary.json) digests per (config, type).
GOLDEN: dict[tuple[str, str], tuple[str, str]] = {
    ("mlp", "adamw"): (
        "01ae2e43a42807be759c5e21aae082f761ca8dd2d4ecd0bde0f64a61cabacfb1",
        "86de5e82703ef00ce3110bbf4e26991719d80ec71243fbdfb0c150d6d6ce4f30",
    ),
    ("mlp", "adasam"): (
        "8e179dfa2bcddb8df35188848d2bbc223f4d3663121cfc2e97a9355052380bc1",
        "64f5d5b7557f1ed284cb3a136b961c2aa9a9347f969bf756f0ca317d35776670",
    ),
    ("mlp", "slsam"): (
        "140fe5a299a70cf9dc4473271b169c36078409941f4dcfee95da04aeaa3f088f",
        "7b14accb81ccee96c59210654dfcb6876a7689dd26abbcd82fdb7a78ebf22f6d",
    ),
    ("mlp", "s2sam"): (
        "51d4bdc345cdac18c7d2e96b97b790d01cfb056a385ffb74b49954144d3670d4",
        "60918503d5a5c5ed5c1f523c426d90fc498ef66591ceecfce9cd4c5a19f477ab",
    ),
    ("mlp", "sl_s2sam"): (
        "3114212ca3a129ecb5080b2ee031d7194df061d7266447f63bcc8557d95ae21a",
        "e5f3ad0a95d72e1aa7512ff351f1ff24538332d4531a14cfff4ab2af14a465b1",
    ),
    ("mlp", "random_slsam"): (
        "d1b57488e57fef7af36b661e74bfee72d185a80c9d0cba2a52917132347084cf",
        "3236b9b00a9b6f024ee03c9444b9c2f7377407eadf665b3ba7b46275dc8bca6e",
    ),
    ("mlp", "top_slsam"): (
        "962d71f4affafc8d25cffd4c84e4b447fa5f776313f6a45c8842d7b2c7a9e7fd",
        "92b7e802114a941c1d8e632b57d51309a7810754c2869b656df6ed97c144264c",
    ),
    ("quad", "adamw"): (
        "ec6acee99fab878bfc2c2334e782a54088e1e5d67492fd371201b39bcf3e4431",
        "cbbf09612099518b60bbbd30e721ed42e785a11086ce78526ac4998d40ed01b1",
    ),
    ("quad", "adasam"): (
        "1824b33e969557699f90287931c01bdb6c3b74f6fcc9f4b49698ddc5de210e8f",
        "59d1aa05b65bdb51fd534392f63a44721da4342ed0f864c9557ecfa943cef0d2",
    ),
    ("quad", "slsam"): (
        "32058e04cfcb6f33c3983d78d0c5b4a6a023a1854bcdcd22da16864c6670976d",
        "ca96489d138504db3cf1fc1fa59bb9b3787918146519a5219cdf193b4c72e57c",
    ),
    ("quad", "s2sam"): (
        "a67a98c872a48532016199668b5965db64eb4f3f5b10251a4bde1ca611573a79",
        "1c3449e3d984b039d9db1b22d8cee02cb561b1a861436ce334ba5936bd1ba6a1",
    ),
    ("quad", "sl_s2sam"): (
        "6329decff7595d252a2a279728382b93a38dbdb80ba5733d35549aafe1d7a567",
        "e9436014ffaa69c181b5360208771fcc919f0aa453210284d6d7e75564b9aff0",
    ),
    ("quad", "random_slsam"): (
        "a447050932b3ef6f4bb52781e11ff82eafe9dd6d902b584b2063d01a94039d88",
        "5689f8159e4c0829b6399135e2649b6378459ae696d0196f3810bb68915cc410",
    ),
    ("quad", "top_slsam"): (
        "378d9dd76d893a5150310506dc51f0df844d45d1a62d2a578d3b1c781a47c116",
        "08e2b647f5e3533089a0fe9eb7f6b40bec529d0d76bbfadd2711a03eb6344989",
    ),
}


def trace_digests(raw: dict, otype: str, out) -> tuple[str, str]:
    raw = {section: dict(kv) for section, kv in raw.items()}
    raw["optimizer"]["type"] = otype
    runner.run(ExperimentConfig.from_dict(raw), out)
    lines = (out / "steps.csv").read_text().splitlines()
    assert lines[0].endswith(",wall_ns")
    csv = "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n"
    return (
        hashlib.sha256(csv.encode()).hexdigest(),
        hashlib.sha256((out / "summary.json").read_bytes()).hexdigest(),
    )


def test_golden_matrix_covers_every_type():
    assert set(GOLDEN) == {(c, o) for c in CONFIGS for o in OPTIMIZER_TYPES}


@pytest.mark.parametrize("otype", OPTIMIZER_TYPES)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_matches_golden(name, otype, tmp_path):
    assert trace_digests(CONFIGS[name], otype, tmp_path) == GOLDEN[(name, otype)]
