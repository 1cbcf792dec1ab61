"""Pinned bits: sha256 digests of what small games compute.

Every game promises values that do not depend on the chunk size, the
worker count or how the chunk loop is written. The other suites check that
promise against per-round oracles run alongside; these digests also pin
the values themselves, so a rewrite of the loop that changes any bit fails
here. The theory, canary and report artifacts are pinned too, so a rewrite
of how a command reads its model or measures its moments fails here as
well. The digests were taken with numpy 2.4.6 and scipy 1.17.1 on x86-64.
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

# the simulate configs, which theory reads for their dist, target, n and
# mechanism; the exact case keeps the default grid and epsilons
THEORY_CASES = {
    "exact": SIM_CASES["exact"],
    "noisy": dict(SIM_CASES["noisy"], grid_points=64, epsilons=[0.0, 0.25, 1.5, 4]),
    "subsampled": dict(SIM_CASES["subsampled"], grid_points=100, epsilons=[0, "0.5", 2.0]),
}
THEORY_DIGESTS = {
    "exact": {
        "profile.json": "5b9500e7f945252e7f0391c630e91c5b36faf897950e5518be67be81202c593e",
        "tradeoff.csv": "8af0f1d42a59f595d2f40c387f03be436ae624ba337be9a73e24247b73bf9ae3",
    },
    "noisy": {
        "profile.json": "7a4785f701811b53b291c99e1345f08426489ff48f5661261b4ef6eba7e7e82c",
        "tradeoff.csv": "de7e141ca725053d1a6d36dd2b64d5fc7923bdd7d9f12bb21ae80841ed2e0110",
    },
    "subsampled": {
        "profile.json": "620a3c8a9714cb7893925eff816d327213718e660d4591be4e222b9d28db3441",
        "tradeoff.csv": "a6f39e22f113c62ab85f826b8cd567a70e47a62a8de9e6e39c37302666eb3477",
    },
}

CANARY_ARGS = {
    "diagonal": [],
    "full-centered-ridge": ["--cov-mode", "full", "--centered", "--ridge", "0.01"],
}
CANARY_RANKING_DIGESTS = {
    "diagonal": "def60f05861ec803b6e3ce9391a709f607493a982dd9b0aaaccf83f05b701318",
    "full-centered-ridge": "22e4ff3f75bfc598536d05edaba30a94e8adcaf6cddeb99f70ece805c7fe8cb1",
}

REPORT_ARGS = {"linear": [], "log-x": ["--log-x", "--x-min", "1e-2"]}
REPORT_DIGESTS = {
    "linear": {
        "gaps.json": "06af7a9267aec5f603a367026ce7b093865750498fd1f55f710790247acf14cb",
        "report.svg": "a8a81581f69deed4e83d741ce1be5b3067aca1c2f631f12e0f4fdf2bf7d79f69",
    },
    "log-x": {
        "gaps.json": "9ea205bd44a4a7e4f7764841b477b091911806c2f19eb5bdd156861e40f2bbdb",
        "report.svg": "3f1b528b9eadd4025cde7f27b04b51f0c6409ec884bd4954259977e2c11e0c2f",
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


def _write_rows(path, header: str, rows: np.ndarray) -> str:
    # a CSV whose bytes depend on the numbers alone
    path.write_text(header + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows))
    return str(path)


@pytest.mark.parametrize("case", list(THEORY_CASES))
def test_theory_artifacts(tmp_path, case):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(THEORY_CASES[case]))
    out = tmp_path / "out"
    assert main(["theory", "--config", str(cfg), "-o", str(out)]) == 0
    _check_files(out, THEORY_DIGESTS[case])


@pytest.mark.parametrize("case", list(CANARY_ARGS))
def test_canary_ranking(tmp_path, case):
    rng = np.random.default_rng(94)
    refs = _write_rows(tmp_path / "refs.csv", "", rng.normal(size=(60, 6)))
    cands = rng.normal(size=(9, 6))
    cands[4] *= 6.0
    cands = _write_rows(tmp_path / "cands.csv", "", cands)
    out = tmp_path / "out"
    argv = ["canary", "--refs", refs, "--candidates", cands, *CANARY_ARGS[case], "-o", str(out)]
    assert main(argv) == 0
    _check_files(out, {"ranking.json": CANARY_RANKING_DIGESTS[case]})


@pytest.mark.parametrize("case", list(REPORT_ARGS))
def test_report_artifacts(tmp_path, case):
    # two monotone empirical curves, each against the curve alpha -> alpha^(1/k)
    rng = np.random.default_rng(95)
    argv = ["report"]
    for k in (2, 3):
        steps = np.sort(rng.uniform(size=(2, 30)), axis=1)
        roc = np.vstack([[0.0, 0.0], np.column_stack([steps[0], np.maximum(steps[0], steps[1])]),
                         [1.0, 1.0]])
        roc[:, 1] = np.maximum.accumulate(roc[:, 1])
        alphas = np.linspace(0.0, 1.0, 41)
        theory = np.column_stack([alphas, alphas ** (1.0 / k)])
        argv += ["--roc", _write_rows(tmp_path / f"roc{k}.csv", "fpr,tpr\n", roc),
                 "--theory", _write_rows(tmp_path / f"theory{k}.csv", "alpha,power\n", theory)]
    out = tmp_path / "out"
    assert main(argv + REPORT_ARGS[case] + ["-o", str(out)]) == 0
    _check_files(out, REPORT_DIGESTS[case])


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
