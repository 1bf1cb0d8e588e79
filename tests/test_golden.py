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
their probe values and final losses landed on the same bits. All 14
summary digests moved once more, only through `config_digest`, when
the bandit section lost its `g_mode` key and with it a key of the
canonical form; no step CSV and no other summary field changed. A change
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
        "746133a0512b1f90cd28f6fa98309b30a65903d3077ed349f58ab8c7b9f0e4d6",
    ),
    ("mlp", "adasam"): (
        "8e179dfa2bcddb8df35188848d2bbc223f4d3663121cfc2e97a9355052380bc1",
        "2157ec7c304bb9352bd1991a4b986791b1b3a2c9ca05bc4893c5e4ea87c0f428",
    ),
    ("mlp", "slsam"): (
        "140fe5a299a70cf9dc4473271b169c36078409941f4dcfee95da04aeaa3f088f",
        "f4011e1b65a2c3b4d022590e9ce806fc09a43c0466b685c834ea282b8d1d66b3",
    ),
    ("mlp", "s2sam"): (
        "51d4bdc345cdac18c7d2e96b97b790d01cfb056a385ffb74b49954144d3670d4",
        "f5678bda35dd1df3c7d7144f7b26c74b3a9b8142327612b6c97b7444a26e177e",
    ),
    ("mlp", "sl_s2sam"): (
        "3114212ca3a129ecb5080b2ee031d7194df061d7266447f63bcc8557d95ae21a",
        "a96adec70be76be47915ba3b3aff8c19fb217e2433a22b8572423b36a70d9ce0",
    ),
    ("mlp", "random_slsam"): (
        "d1b57488e57fef7af36b661e74bfee72d185a80c9d0cba2a52917132347084cf",
        "b8ce61dbac68dbf4d62cf03aac6065b5611a1769a6e1079c8a2e88c4e37be17e",
    ),
    ("mlp", "top_slsam"): (
        "962d71f4affafc8d25cffd4c84e4b447fa5f776313f6a45c8842d7b2c7a9e7fd",
        "3952b4da4e1ad7bb4c66a710bfb3464978c83406d188a7ba40ece1f0a93aa3fa",
    ),
    ("quad", "adamw"): (
        "ec6acee99fab878bfc2c2334e782a54088e1e5d67492fd371201b39bcf3e4431",
        "f90b6ed588215eb91401a5b4283e5455500a2033cb3bd8b77253f54dfbda29cd",
    ),
    ("quad", "adasam"): (
        "1824b33e969557699f90287931c01bdb6c3b74f6fcc9f4b49698ddc5de210e8f",
        "d9ef59286441715660edf8e6664ad9f024256fda02891b5274b11bb6ecfe73bb",
    ),
    ("quad", "slsam"): (
        "32058e04cfcb6f33c3983d78d0c5b4a6a023a1854bcdcd22da16864c6670976d",
        "53f28b1415a4b1bf9657fa19a798d0e1fe160d571ae7ea47ffc79f7f737d4851",
    ),
    ("quad", "s2sam"): (
        "a67a98c872a48532016199668b5965db64eb4f3f5b10251a4bde1ca611573a79",
        "9c977b0b2d5512ca86e13cf4505069976f2dbc149db36a53b02ba687fbd18875",
    ),
    ("quad", "sl_s2sam"): (
        "6329decff7595d252a2a279728382b93a38dbdb80ba5733d35549aafe1d7a567",
        "51f4b59590216018fc80918235a3df6cb2a9d7daea01f09e0b9f059c152185ad",
    ),
    ("quad", "random_slsam"): (
        "a447050932b3ef6f4bb52781e11ff82eafe9dd6d902b584b2063d01a94039d88",
        "da8fea88facb5b133c2f35ef08ee976da831b23cc6d78c2608984b68b649ae27",
    ),
    ("quad", "top_slsam"): (
        "378d9dd76d893a5150310506dc51f0df844d45d1a62d2a578d3b1c781a47c116",
        "b55b3248184f2d13f92d001b4f206b35ebdd5874b18b34a5b76db7cb52b609a8",
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
