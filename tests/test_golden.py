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
canonical form; no step CSV and no other summary field changed. They
moved again, only through `config_digest`, when the canonical form lost
`optimizer.perturb_norm` (the type decides the mode),
`bandit.exponent_clamp` (now a constant) and the `output` section (the
caller picks the directory); every step CSV, sampler CSV and other
summary field stayed byte-identical. A change that is meant to keep
every trajectory identical must pass this test unchanged. An intended numeric change regenerates the digests in a
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
        "cc5144ea7b3f6daad3e6f4fb4074557c5fa503654feadf968750da31dfe2ff60",
    ),
    ("mlp", "adasam"): (
        "8e179dfa2bcddb8df35188848d2bbc223f4d3663121cfc2e97a9355052380bc1",
        "80eaf1f964e8fc209970e18956de9957044bc25595b4f39bd5a15e5e749d0a5c",
    ),
    ("mlp", "slsam"): (
        "140fe5a299a70cf9dc4473271b169c36078409941f4dcfee95da04aeaa3f088f",
        "4b9f87b8e4690f1bb0aa07476e8c70c2f37a0c2448a0ed8d414638de4ec3f307",
    ),
    ("mlp", "s2sam"): (
        "51d4bdc345cdac18c7d2e96b97b790d01cfb056a385ffb74b49954144d3670d4",
        "648e1ee716e273da9055c5c134dc3fdc2a266f86562ce4a183d95ae36c275784",
    ),
    ("mlp", "sl_s2sam"): (
        "3114212ca3a129ecb5080b2ee031d7194df061d7266447f63bcc8557d95ae21a",
        "8c28fd40b73f8f1507cca2f992e5598596924c39a58c9cfe896a6291054a1b70",
    ),
    ("mlp", "random_slsam"): (
        "d1b57488e57fef7af36b661e74bfee72d185a80c9d0cba2a52917132347084cf",
        "5f7ebea91b192296e224be4dc5db323307d0c0fa864819026537ef0bb963fee2",
    ),
    ("mlp", "top_slsam"): (
        "962d71f4affafc8d25cffd4c84e4b447fa5f776313f6a45c8842d7b2c7a9e7fd",
        "d7787522f8eefa057e44e1c7664908fcccb6d680b2a46b66decd9c66618f5f10",
    ),
    ("quad", "adamw"): (
        "ec6acee99fab878bfc2c2334e782a54088e1e5d67492fd371201b39bcf3e4431",
        "1db74d1be80982469f7373550a36c3a93f97b0ad22adead2ea4170fd16cb522e",
    ),
    ("quad", "adasam"): (
        "1824b33e969557699f90287931c01bdb6c3b74f6fcc9f4b49698ddc5de210e8f",
        "e2f307e6aa4c24322bc03e2353e6e5f28e02480bee364a58aa7a61dd953fe707",
    ),
    ("quad", "slsam"): (
        "32058e04cfcb6f33c3983d78d0c5b4a6a023a1854bcdcd22da16864c6670976d",
        "5e159a4219404dcebdcc26bae99e9f65ca95cfab6c37d4e94a6786a424972e1a",
    ),
    ("quad", "s2sam"): (
        "a67a98c872a48532016199668b5965db64eb4f3f5b10251a4bde1ca611573a79",
        "2417ef5e4c41d46cdbdbb195f45e4856dfe030e9fec005aef3737752d6d6af21",
    ),
    ("quad", "sl_s2sam"): (
        "6329decff7595d252a2a279728382b93a38dbdb80ba5733d35549aafe1d7a567",
        "0b28331e68fd6f0b098aeee0e9d70d75435d1bdb35c625865c43000aa69df72d",
    ),
    ("quad", "random_slsam"): (
        "a447050932b3ef6f4bb52781e11ff82eafe9dd6d902b584b2063d01a94039d88",
        "17efcec87491a0ef2e1eb888e02349fc110f5783d6fc83bf3aa6db0ef6f8d95e",
    ),
    ("quad", "top_slsam"): (
        "378d9dd76d893a5150310506dc51f0df844d45d1a62d2a578d3b1c781a47c116",
        "cee4953b5b3b653d5441424e383f6f73d9b820b0f608c9c807ccfe8458c2d338",
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
