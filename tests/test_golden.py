"""Golden traces: byte-identical outputs for every optimizer type.

Each case runs `runner.run` for about 50 steps and hashes (SHA-256) the
step CSV with its `wall_ns` column removed, `summary.json` and the
sampler CSV, whose redraw counts and staleness no other file holds. The
sampler digests were recorded when they were added, with every other
digest unchanged. The
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
summary field stayed byte-identical. All 14 pairs were regenerated
when random streams became counter based: the quadratic's noise is now
entry `batch.id` of one ("noise",) stream and each epoch's minibatch
order entry `epoch` of one ("data",) stream, where each used to be a
stream keyed by its own id. So every quad digest moved through the
noise and every mlp digest through the batch order; with the noise off
the quad traces, and the MLP's initial parameters and datasets, stayed
byte-identical. A change that is meant to keep every trajectory
identical must pass this test unchanged. An intended numeric change
regenerates the digests in a commit of its own that says why.

The digests pin float64 results on one platform (x86-64, NumPy 2.x);
a different BLAS or SIMD math library can move the MLP's low-order bits.
"""

from __future__ import annotations

import hashlib

import pytest

from sparsam import runner
from sparsam.config import ExperimentConfig

from conftest import OPTIMIZER_TYPES

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

# (steps.csv without wall_ns, summary.json, sampler.csv) digests per (config, type).
GOLDEN: dict[tuple[str, str], tuple[str, str, str]] = {
    ("mlp", "adamw"): (
        "eab4465528e637fb024b68ceb83c34001f5f89268970600259839fc660bad438",
        "77bc7da7ff343092ff6b91b931263f0ce2a91b335c4e144d85432c2c1dad6dc1",
        "5ebdef6f362af9e4f5c206faac683a9cde1fcc9356fd36c7485d5d8707e1d0a4",
    ),
    ("mlp", "adasam"): (
        "05a611c274eec200c7709fbead8d772cd8d193bcde913d2b18e50004c113ffd5",
        "55ea5845ddddef4edb60e9037c7dcace20a079fffb42d6e2227db446dd84f9a7",
        "5ebdef6f362af9e4f5c206faac683a9cde1fcc9356fd36c7485d5d8707e1d0a4",
    ),
    ("mlp", "slsam"): (
        "a87a7dd259e8ce8afc486867e6b7ecd03af7dc782700742c8b88d44da82f9093",
        "13cb9e454805c706802383f18b26e67ce9dfb1a9e05e22fe206487bbc3ccdde6",
        "5ebdef6f362af9e4f5c206faac683a9cde1fcc9356fd36c7485d5d8707e1d0a4",
    ),
    ("mlp", "s2sam"): (
        "1ade99a346420bb4a21cd0641896a3169c24495ebaad0f19efdb9cbb40b6bbcb",
        "e5114e1e0e19658cefdb228fd25c543d6fb4dc4b90b39b9667f907adb6d3b400",
        "695a2ee174945f362e12c50ddb068a05dd47e3294b3c5be3c77cf3dd9acd0a1c",
    ),
    ("mlp", "sl_s2sam"): (
        "95886f531a9dddecff7229922878a73064120e2245edf0cba74d7f723c0d9968",
        "1478cec2be80edd1cf37b006bf861681fe0053efb7591bd0e12fc887a9db970f",
        "507925e873d71587638fa75362dc617212b04eceb44889621c0e64d1571f5c0d",
    ),
    ("mlp", "random_slsam"): (
        "9e7744652f36d89ea247424d4c74c1b22aac02f2045c30d345b579e0165d73b7",
        "4ac0574a18b61053926391474a7fa5afcd1c096c9d8bb07790f5f0186155cd04",
        "5ebdef6f362af9e4f5c206faac683a9cde1fcc9356fd36c7485d5d8707e1d0a4",
    ),
    ("mlp", "top_slsam"): (
        "d727b243b5b7682d41e6718a1aeca225e763262925253c4448c239f35fdb34f7",
        "7ad6955b9ac0f8d5c1142aeac7593940c6ec001375a9e67f08b758bb3299f229",
        "5ebdef6f362af9e4f5c206faac683a9cde1fcc9356fd36c7485d5d8707e1d0a4",
    ),
    ("quad", "adamw"): (
        "f43cce4ba0795b832f217ca5644565d6f285d13458e68683d3e9335213c3c23e",
        "60a1d1f0de736131c1661bc71988e06a433f0537a2826237545d3b84a7f68646",
        "5ebdef6f362af9e4f5c206faac683a9cde1fcc9356fd36c7485d5d8707e1d0a4",
    ),
    ("quad", "adasam"): (
        "e6976f95b38576dd1dfe0f0051dc57e950a63fee5c81dd6f01b913e7a3d7de91",
        "b5d387920fb15ac75abe59d9ca834071ef69b393ec1d9a50cbea0e735a293a35",
        "5ebdef6f362af9e4f5c206faac683a9cde1fcc9356fd36c7485d5d8707e1d0a4",
    ),
    ("quad", "slsam"): (
        "82bfe382e5067a2cfb7ebf5950c3a7b48eefa162180bdf976147e4fef72ea30c",
        "03feac8dc8ba2c16b37e0ac40a391cc96eeb904f571a3c66ea4a07838639934a",
        "85721e27059b68e160d4634c57279e816dd0dbfb71c420bb6c30f91b053936e6",
    ),
    ("quad", "s2sam"): (
        "ad6a33491a685e7cbf425217abcf6f75e12cca0cea0616689a16d21e85a63f45",
        "d6d7222c321c7924df5e6991ab8fba55b5c3cf0cb5ca95cee49eb82f0e3eec44",
        "bb7cf735799873e861b84ab7633e53c5ee99083f2329412bb4d6b659fa304fd7",
    ),
    ("quad", "sl_s2sam"): (
        "a0781a8ada805fe65748e7debcd99ef06f004129fdcdca24191f3a65195344ff",
        "d54ab0b9cec3a2adc87728288ac80e53ebdb832b51f1b4594c73be8893576fa5",
        "353dd8830cd1d3b4d3fb442a9d05c82e0eedd4bd45d9fbdecc768223d2065e8d",
    ),
    ("quad", "random_slsam"): (
        "dd28c0ccca4fb24d41cfb9f2484b450b009aafedad06fe24b6b49a92b44533fe",
        "cc1290112b6ea2ae53c08d13ca103820ac05b1417c6d0862b7c8590e28cd944d",
        "5ebdef6f362af9e4f5c206faac683a9cde1fcc9356fd36c7485d5d8707e1d0a4",
    ),
    ("quad", "top_slsam"): (
        "308f2855c953ffd185ea9704314fd0fdde401cf870a0bdac172acd052cd94f04",
        "29bdda3f93f26163c5ea537d4029cbbd747ca766706512b8d311a037a34416e4",
        "5ebdef6f362af9e4f5c206faac683a9cde1fcc9356fd36c7485d5d8707e1d0a4",
    ),
}


def trace_digests(raw: dict, otype: str, out) -> tuple[str, str, str]:
    raw = {section: dict(kv) for section, kv in raw.items()}
    raw["optimizer"]["type"] = otype
    runner.run(ExperimentConfig.from_dict(raw), out)
    lines = (out / "steps.csv").read_text().splitlines()
    assert lines[0].endswith(",wall_ns")
    csv = "\n".join(line.rsplit(",", 1)[0] for line in lines) + "\n"
    return (
        hashlib.sha256(csv.encode()).hexdigest(),
        hashlib.sha256((out / "summary.json").read_bytes()).hexdigest(),
        hashlib.sha256((out / "sampler.csv").read_bytes()).hexdigest(),
    )


def test_golden_matrix_covers_every_type():
    assert set(GOLDEN) == {(c, o) for c in CONFIGS for o in OPTIMIZER_TYPES}


@pytest.mark.parametrize("otype", OPTIMIZER_TYPES)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_matches_golden(name, otype, tmp_path):
    assert trace_digests(CONFIGS[name], otype, tmp_path) == GOLDEN[(name, otype)]
