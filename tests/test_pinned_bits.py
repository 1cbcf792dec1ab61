"""Pinned bits: sha256 digests of what small games compute.

Every game promises values that do not depend on the chunk size, the
worker count or how the chunk loop is written. The other suites check that
promise against per-round oracles run alongside; these digests also pin
the values themselves, so a rewrite of the loop that changes any bit fails
here. The digests were taken with numpy 2.4.6 and scipy 1.17.1 on x86-64.
A numpy or CPU that computes a transcendental function to other bits, or a
new tool version in the JSON artifacts, changes them legitimately; the
failure message prints the digest each artifact has now.
"""

import hashlib
import json

import numpy as np
import pytest

from mi_audit import (
    NoisyMean,
    ProductDistribution,
    make_score,
    run_average_game,
)
from mi_audit.cli import main


def _columns(d: int, seed: int) -> list:
    # alternating Bernoulli and Gaussian columns, as JSON specs
    rng = np.random.default_rng(seed)
    return [{"law": "bernoulli", "p": float(rng.uniform(0.2, 0.8))} if j % 2
            else {"law": "gaussian", "mean": float(rng.uniform(-1, 1)),
                  "var": float(rng.uniform(0.5, 2.0))} for j in range(d)]


# d=40 and 600 rounds: two chunks of crafted rounds serially, three at three
# workers
SIM_CFG = {
    "dist": {"columns": _columns(40, 90)},
    "n": 30,
    "target": {"draw_seed": 5},
    "rounds": 600,
    "master_seed": 91,
}
SIM_CASES = {
    "exact": dict(SIM_CFG, mechanism={"mechanism": "empirical_mean"}, score="lr_asymptotic"),
    "noisy": dict(SIM_CFG, mechanism={"mechanism": "noisy_mean", "gamma_scalar": 0.8},
                  score="lr_noisy"),
    "subsampled": dict(SIM_CFG, mechanism={"mechanism": "subsampled_mean", "rho": 0.4},
                       score="lr_subsampled"),
}
SIM_DIGESTS = {
    "exact": {
        "rounds.csv": "aa5c9ca6909f5d5fca915221646386378ebed1af96c35c0e53d71f29be0e282b",
        "roc.csv": "7ccdf1a1e6ae4463dad09706f71fa4d294157325c4e4a27d3ef24a5adc5bf628",
        "summary.json": "c5e1979008fd1afb8eecb7e2aa3cdf2ffea4bb26e47c096ae35f63a2b7c6dfb7",
    },
    "noisy": {
        "rounds.csv": "3bf55a226baae8f5c89497fa9dd5c5e0d5409afeac18397c90461dc1305505e5",
        "roc.csv": "24a3fe44d5590981faa0356de1b84787ff23e7c123edd82342b5c02933aa3180",
        "summary.json": "fd30399258787e73ed676c49d983ae339d3249036179a7c6e8c7e209b4243145",
    },
    "subsampled": {
        "rounds.csv": "530d12e6d361849662f1b42e2b125147a5b1016084603e99fef375834200225c",
        "roc.csv": "4c36a29fb57ca33282f4a641cf240c1204088ed9c5abce5211711bac499d75e6",
        "summary.json": "b57bef1234e9dd566184f86b71d22e109a6c8ca94885f290a17aa5e441523aff",
    },
}

WHITEBOX_CFG = {
    "data": {"blobs": {"n": 40, "f": 4, "c": 3, "seed": 3}},
    "arch": "logistic",
    "theta0": {"seed": 4, "scale": 0.5},
    "eta": 0.05,
    "batch_size": 8,
    "epochs": 2,
    "clip": 1.0,
    "noise": 0.05,
    "param_slice": [3, 15],
    "reps": 24,
    "master_seed": 7,
    "cov_mode": "full",
}
WHITEBOX_DIGESTS = {
    "scores_covariance.csv": "bb4996b670c91362562904e8fc2263a570e44297dd232992ee58cd287cca26bf",
    "scores_scalar.csv": "c0c516fc0925968335890f835b7f5d120958a6f9d81a786e471c7a2c0c8b3bc7",
    "whitebox.json": "d32f0bb0e10f2413e9e7594a76c611937730440f55016c6b0bffc664dbedf953",
}

# the benchmark's white-box shape (f=10, c=2, eight steps of 64 rows) with
# enough reps that a game trains in two or more chunks
CANARY_CFG = {
    "data": {"blobs": {"n": 512, "f": 10, "c": 2, "seed": 8}},
    "arch": "logistic",
    "theta0": {"seed": 9, "scale": 0.5},
    "eta": 0.01,
    "batch_size": 64,
    "reps": 250,
    "master_seed": 12,
    "cov_mode": "full",
}
CANARY_CASES = {"plain": CANARY_CFG, "clip-noise": dict(CANARY_CFG, clip=1.0, noise=0.05)}
CANARY_DIGESTS = {
    "plain": {
        "scores_covariance.csv": "501c48d9f1942122e98e64a199c14ae83457286d8c484fb974a15e09c472fa8f",
        "scores_scalar.csv": "bb93057c99e74b8f3880b04219f1dcaaee21df25d88d96d62e84787f5c692c23",
        "whitebox.json": "744f6fe1a7798ad96f7b7146d0b13c220be143d3d73ebcfe508446abc73bae89",
    },
    "clip-noise": {
        "scores_covariance.csv": "d47a96cd85ff5861c38596afb7b44086a8235815d7146e27b0ba68feda4db3ab",
        "scores_scalar.csv": "d141f546d6934d5f6a17c194802119a44413f134e08b434c6621977d569baba9",
        "whitebox.json": "b5acc8a871d5549d7620c1e8dd53180abddd26c73efd6a056d69dae23a258dfb",
    },
}

AVERAGE_DIGESTS = {
    "scores": "6711fe5e594113c371e692724c601c8ac82425387dc224008b6e47875dfb9027",
    "bits": "0a9aa8e02d6445f40dfdbc81e5d4a9b3eb0d990268ca86040bc4b7fcaaeb119c",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_files(out, digests: dict) -> None:
    got = {name: _sha((out / name).read_bytes()) for name in digests}
    assert got == digests


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("case", list(SIM_CASES))
def test_simulate_artifacts(tmp_path, case, threads):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SIM_CASES[case]))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--threads", threads, "-o", str(out)]) == 0
    _check_files(out, SIM_DIGESTS[case])


@pytest.mark.parametrize("threads", ["1", "3"])
def test_whitebox_artifacts(tmp_path, threads):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(WHITEBOX_CFG))
    out = tmp_path / "out"
    assert main(["whitebox", "--config", str(cfg), "--threads", threads, "-o", str(out)]) == 0
    _check_files(out, WHITEBOX_DIGESTS)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", list(CANARY_CASES))
def test_whitebox_artifacts_in_several_chunks(tmp_path, case, threads):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CANARY_CASES[case]))
    out = tmp_path / "out"
    assert main(["whitebox", "--config", str(cfg), "--threads", threads, "-o", str(out)]) == 0
    _check_files(out, CANARY_DIGESTS[case])


@pytest.mark.parametrize("threads", [None, 3])
def test_average_game_scores_and_bits(threads):
    dist = ProductDistribution.from_spec({"columns": _columns(40, 92)})
    mech = NoisyMean(0.5)
    score = make_score("lr_noisy", dist=dist, n=30, mech=mech)
    rounds = run_average_game(dist, mech, 30, score, 700, 93, threads=threads)
    got = {
        "scores": _sha(np.array([r.score for r in rounds], dtype=np.float64).tobytes()),
        "bits": _sha(np.array([r.b for r in rounds], dtype=np.uint8).tobytes()),
    }
    assert got == AVERAGE_DIGESTS
