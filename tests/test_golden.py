"""Golden traces: byte-identical outputs for every optimizer type.

Each case runs `runner.run` for about 50 steps and hashes (SHA-256) the
step CSV with its `wall_ns` column removed, and `summary.json`. The
MLP digests were recorded from the code as it stood before any
performance refactor. The quad digests were regenerated when the block
quadratic's noise became one stream per batch rather than one per
(batch, layer), and again when its loss became one dot product over
the whole buffer rather than one per layer. A change that is meant to
keep every trajectory identical must pass this test unchanged. An
intended numeric change regenerates the digests in a commit of its own
that says why.

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
        "a17e5d6544d73a8a28c46e411ab832b801e259e3997b860fb57e6e0fe2808764",
        "0d22d6e94dec78f340bc69199bef8f98ff6bca45253511a40e7d067ff83a25fa",
    ),
    ("mlp", "adasam"): (
        "05ff461f5ae79b944f9bb16f015a4ca1655aa4b8238fab218dc4b27c3474f32b",
        "64f931d3baaa41520f43de42a75a565c96dd81d523c52f3ef3c4df2369fa6872",
    ),
    ("mlp", "slsam"): (
        "d5561068a56cd5c27a334877113065417f370c9733206f431da4d0925b08e05b",
        "e8e8875173fc7413a1b66a8be6ef98a6ddb2568ce8055b31c042508e2fd2a107",
    ),
    ("mlp", "s2sam"): (
        "2f2bc80f600e24b7650b77e58b0af8e7d8ac95dac21cb71ebe693003635d0f9b",
        "5f43c76d6feeb851d5504c31f7d7174b6407786a0b13450806a7931c8b385c70",
    ),
    ("mlp", "sl_s2sam"): (
        "c4285daa3ecacaacffd0e9cdeaac199d7e53c713180ef1046d19c2df376fa497",
        "54b93ec888d7e4c9d032627e3ed2f78cde00c840220af42b0fb96d52a1f7ce41",
    ),
    ("mlp", "random_slsam"): (
        "5263836f757cd35edcb21c2e18b4f7d2216cdfdb7439532a91f8b0853b137ccb",
        "a3421be63deface578040e7722e51ac42ab72972147c25f44fa4a51c6e0c8bb2",
    ),
    ("mlp", "top_slsam"): (
        "f92d62c8b33921a8b10c615a76b79e82ff9f02ff63a08df7df88b3cded24642a",
        "c15a20142cfda9571f62076365d1b93912d0a93d00ce7bd2ec6670752e4b5f4e",
    ),
    ("quad", "adamw"): (
        "c6b436f37379864d6037b84bb2394e570e0a955dac223ed3719ee51c442a2a06",
        "cf37e2974e78549f46aef94b43ba4810bba558824cc685cbb00ca707cd63e299",
    ),
    ("quad", "adasam"): (
        "d11940e9ea1258fed8575acfd63842c445dd78617f9b50e0faa41d8f3d9bfad1",
        "fbdf8a2648edc7e7424be367bed3018d37b770457605c9aeb8f99fef3084290a",
    ),
    ("quad", "slsam"): (
        "4b2987c8e368ea7f43e5de50e1505f553edcd5e84989bd1beeb26c6e6cbc0812",
        "b4b0a3fe223f5b0fcec52d40aacf10953f20d06f63dc1ff89925f42bcfab7c0b",
    ),
    ("quad", "s2sam"): (
        "a367ef5ed8b5d706ece46ea9eaae59f491e269c32ea3288b35b2b1d1c9b10de0",
        "1c3449e3d984b039d9db1b22d8cee02cb561b1a861436ce334ba5936bd1ba6a1",
    ),
    ("quad", "sl_s2sam"): (
        "0230ac1df83ee72521206a2fd1fef88a2acc24c913c085b74c59fb237f22d47a",
        "7c325496d2d6448447c855c20f0aacc287a04b93f574c857469111636bb204f5",
    ),
    ("quad", "random_slsam"): (
        "b4fc786bbcfd2f2bcc4059dd7ee43da78e1793eeccbf28a7842e5c0546bda869",
        "5689f8159e4c0829b6399135e2649b6378459ae696d0196f3810bb68915cc410",
    ),
    ("quad", "top_slsam"): (
        "04cf147db4e21589906975537613fe8ed63855ff153ab4a802f756aa9bba94fd",
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
