"""Golden traces: byte-identical outputs for every optimizer type.

Each case runs `runner.run` for about 50 steps and hashes (SHA-256) the
step CSV with its `wall_ns` column removed, and `summary.json`. The
digests were recorded from the code as it stood before any performance
refactor; a change that is meant to keep every trajectory identical must
pass this test unchanged. An intended numeric change regenerates the
digests in a commit of its own that says why.

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
        "8853c831c42673394580aa9ae717374bbd09e62d07467afde514e6d1974b291e",
        "61cddacc455a88a9914aac56d5dff09ccc9dd52f8557caffa7e788a572138b65",
    ),
    ("quad", "adasam"): (
        "4c2ebf42684fe72bcf36daae4c5374fece332acd054158aa871da9d76d298f2b",
        "69e97556e1ed2614110ec1089260ffadbdd7dfb1145c99d84e144b97fc30d77f",
    ),
    ("quad", "slsam"): (
        "a74b7be7df835651d4ee6b8afcb9f1318cb4e18791f94174c1ff81dd8404ed2c",
        "e1250b0a7f999a0528a13e59c1cac2c3e9dfef2e6a5af631c690b6c247c5e377",
    ),
    ("quad", "s2sam"): (
        "00d6dd45bf99c34402c07832f2197f98368b84603eb98b34412150b7ef98451c",
        "0a5b33de5c9b185e341071a048792340148cf3675e733cbec5dded2766e88558",
    ),
    ("quad", "sl_s2sam"): (
        "81cd7173d029f141ffc68905861e2eec0253dfd292455775048b4f57c611d013",
        "084b6051560d85949a0bcdc00ec490806ef1502c86b4773ff213a202143edb8b",
    ),
    ("quad", "random_slsam"): (
        "4453801d9d9ae31d1427926fd27865ca2bfe234b2c40f0f337040a1c0d526b0e",
        "4ee80401f3ad1dbcfd3e83701b1b1261bc8a65f5ebb2e7753effdfd05300cf09",
    ),
    ("quad", "top_slsam"): (
        "451d9ed57f64d8af6cfebeb8b82645c5e589e1298f85603c7f1d90ba4d6af221",
        "7e07fd3b67cbb2cf6af03220952469e99fe397f61ec1592efb07170c0bf15c6c",
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
