"""Command-line interface: artifacts, determinism, exit codes."""

import json
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from mi_audit import (
    ProductDistribution,
    ScoredRound,
    ToyModel,
    TradeoffCurve,
    effective_leakage,
    estimate_reference,
    mahalanobis_score_est,
    make_extreme_targets,
    mechanism_from_spec,
    roc,
    sup_norm_gap,
    theoretical_leakage,
    tradeoff_curve,
    vertical_gap,
)
from mi_audit import NumericalError, cli
from mi_audit.cli import main


GAME_CFG = {
    "dist": {"law": "bernoulli_uniform", "d": 6, "a": 0.25, "seed": 31},
    "mechanism": {"mechanism": "empirical_mean"},
    "n": 12,
    "target": {"extreme": "easy"},
    "score": "lr_asymptotic",
    "rounds": 60,
    "master_seed": 52,
    "threads": 1,
}
REFS_CFG = dict(GAME_CFG, score="lr_empirical_cov")


def gauss_cfg(**col):
    """A config's dist and target keys for a Bernoulli column and a Gaussian
    column whose spec takes ``col`` in place of its mean or var."""
    gauss = dict({"law": "gaussian", "mean": 0.0, "var": 1.0}, **col)
    return {"dist": {"columns": [{"law": "bernoulli", "p": 0.5}, gauss]},
            "target": {"values": [1.0, 0.0]}}


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)
    return str(path)


def read_json(path):
    with open(path) as f:
        return json.load(f)


def stderr_error(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return json.loads(err[0])


class TestTheory:
    def test_writes_curve_and_profile(self, tmp_path):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "dist": GAME_CFG["dist"],
                "target": {"extreme": "easy"},
                "n": 12,
                "mechanism": {"mechanism": "noisy_mean", "gamma_scalar": 0.5},
                "grid_points": 64,
                "epsilons": [0.0, 1.0],
            },
        )
        out = tmp_path / "out"
        assert main(["theory", "--config", cfg, "-o", str(out)]) == 0

        profile = read_json(out / "profile.json")
        dist = ProductDistribution.from_spec(GAME_CFG["dist"])
        z, _ = make_extreme_targets(dist)
        mech = mechanism_from_spec({"mechanism": "noisy_mean", "gamma_scalar": 0.5})
        m_eff = effective_leakage(dist, z, 12, mech)
        assert profile["m_star"] == pytest.approx(dist.leakage_score(z, 12), rel=1e-15)
        assert profile["m_eff"] == pytest.approx(m_eff, rel=1e-15)
        assert profile["m_eff"] < profile["m_star"]
        assert profile["leakage"] == pytest.approx(theoretical_leakage(m_eff), rel=1e-15)
        # at eps 0 the privacy profile degenerates to the leakage itself
        by_eps = {row["eps"]: row["delta"] for row in profile["gdp"]}
        assert by_eps[0.0] == pytest.approx(profile["leakage"], abs=1e-12)
        assert by_eps[1.0] < by_eps[0.0]

        curve = np.loadtxt(out / "tradeoff.csv", delimiter=",", skiprows=1)
        assert curve.shape[1] == 2
        want = np.asarray(TradeoffCurve.from_leakage(m_eff, 64).samples)
        assert np.array_equal(curve, want)

    def test_subsampled_writes_mixture(self, tmp_path):
        mech_spec = {"mechanism": "subsampled_mean", "rho": 0.5}
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "dist": GAME_CFG["dist"],
                "target": {"extreme": "easy"},
                "n": 12,
                "mechanism": mech_spec,
                "grid_points": 64,
                "epsilons": [0.0, 1.0],
            },
        )
        out = tmp_path / "out"
        assert main(["theory", "--config", cfg, "-o", str(out)]) == 0

        profile = read_json(out / "profile.json")
        dist = ProductDistribution.from_spec(GAME_CFG["dist"])
        z, _ = make_extreme_targets(dist)
        # 6 of 12 rows kept: inclusion probability 1/2, included score at k=6
        m_in = dist.leakage_score(z, 6)
        assert profile["inclusion_probability"] == 0.5
        assert profile["m_in"] == pytest.approx(m_in, rel=1e-15)
        # the scalar discount is still reported, but the curve is the mixture
        assert profile["m_eff"] == pytest.approx(0.5 * profile["m_star"], rel=1e-15)
        assert profile["leakage"] == pytest.approx(0.5 * theoretical_leakage(m_in), rel=1e-15)
        by_eps = {row["eps"]: row["delta"] for row in profile["gdp"]}
        assert by_eps[0.0] == pytest.approx(profile["leakage"], abs=1e-12)
        assert by_eps[1.0] < by_eps[0.0]

        curve = np.loadtxt(out / "tradeoff.csv", delimiter=",", skiprows=1)
        want = np.asarray(TradeoffCurve.from_leakage(m_in, 64, q=0.5).samples)
        assert np.array_equal(curve, want)
        assert np.all(curve[:, 1] <= 0.5 + 0.5 * curve[:, 0] + 1e-15)

    def test_missing_key_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"dist": GAME_CFG["dist"], "n": 4})
        assert main(["theory", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        assert stderr_error(capsys)["error"] == "config"

    @pytest.mark.parametrize("key, kw", [
        ("mechanism", {"mechanism": "noisy"}),
        ("dist", {"dist": "bernoulli"}),
        ("grid_points", {"grid_points": None}),
        ("epsilons", {"epsilons": 5}),
        ("epsilons.1", {"epsilons": [0.5, None]}),
        ("dist.d", {"dist": {"law": "bernoulli_uniform", "d": None, "a": 0.25, "seed": 31}}),
        ("dist.columns.0.p", {"dist": {"columns": [{"law": "bernoulli", "p": [0.5]}]},
                              "target": [1.0]}),
        ("mechanism.rho", {"mechanism": {"mechanism": "subsampled_mean", "rho": None}}),
        ("mechanism.gamma", {"mechanism": {"mechanism": "noisy_mean", "gamma": [0.1, 0.2]}}),
        ("dist.columns.1.mean", gauss_cfg(mean="nan")),
        ("dist.columns.1.var", gauss_cfg(var="inf")),
        ("epsilons.1", {"epsilons": [0.5, "nan"]}),
        ("epsilons.0", {"epsilons": [-1.0]}),
        ("epsilons.2", {"epsilons": [0.0, 1.0, "inf"]}),
    ], ids=["mechanism-noisy", "dist-bernoulli", "grid_points-null", "epsilons-number",
            "epsilons-null-entry", "dist-d-null", "column-p-list", "rho-null", "gamma-length-2",
            "column-mean-nan", "column-var-inf", "epsilons-nan", "epsilons-negative",
            "epsilons-inf"])
    def test_wrong_json_type_exits_2(self, tmp_path, capsys, key, kw):
        cfg = write_json(tmp_path / "cfg.json", dict(GAME_CFG, **kw))
        assert main(["theory", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        msg = stderr_error(capsys)
        assert msg["error"] == "config"
        assert re.search(rf"\b{re.escape(key)}\b", msg["message"])
        assert not (tmp_path / "o").exists()

    def test_config_hash_matches_simulate_with_threads(self, tmp_path):
        # the worker count is in GAME_CFG but in neither command's hash
        cfg = write_json(tmp_path / "cfg.json", GAME_CFG)
        assert main(["theory", "--config", cfg, "-o", str(tmp_path / "t")]) == 0
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "s")]) == 0
        profile = read_json(tmp_path / "t" / "profile.json")
        summary = read_json(tmp_path / "s" / "summary.json")
        assert profile["config_hash"] == summary["config_hash"]


class TestSimulate:
    def test_artifacts_are_consistent_and_deterministic(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", GAME_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "-o", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "-o", str(out2)]) == 0

        for name in ("rounds.csv", "roc.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

        raw = np.loadtxt(out1 / "rounds.csv", delimiter=",", skiprows=1)
        assert raw.shape == (60, 3)
        rounds = [ScoredRound(score=float(s), b=int(b)) for _, s, b in raw]
        summary = read_json(out1 / "summary.json")
        curve = roc(rounds)
        # 17-digit serialization round-trips float64 exactly
        assert summary["auc"] == curve.auc
        assert summary["rounds"] == 60 and summary["n"] == 12 and summary["d"] == 6
        assert 0.0 <= summary["sup_norm_gap"] <= 1.0
        assert summary["score"] == "lr_asymptotic"

        pts = np.loadtxt(out1 / "roc.csv", delimiter=",", skiprows=1)
        assert np.array_equal(pts, curve.points)

    def test_subsampled_gaps_use_mixture(self, tmp_path):
        raw = dict(
            GAME_CFG,
            mechanism={"mechanism": "subsampled_mean", "rho": 0.5},
            score="lr_subsampled",
        )
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "-o", str(out)]) == 0

        summary = read_json(out / "summary.json")
        dist = ProductDistribution.from_spec(GAME_CFG["dist"])
        z, _ = make_extreme_targets(dist)
        theory = tradeoff_curve(dist, z, 12, mechanism_from_spec(raw["mechanism"]))
        assert summary["inclusion_probability"] == 0.5
        assert summary["m_in"] == theory.m_eff
        assert summary["theory_leakage"] == theory.leakage()
        pts = np.loadtxt(out / "roc.csv", delimiter=",", skiprows=1)
        assert summary["sup_norm_gap"] == sup_norm_gap(pts, theory)
        floor = summary["vertical_gap_alpha_min"]
        assert summary["vertical_gap"] == vertical_gap(pts, theory, alpha_min=floor)

    def test_rounds_flag_overrides_config(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", GAME_CFG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--rounds", "10", "-o", str(out)]) == 0
        assert read_json(out / "summary.json")["rounds"] == 10
        assert np.loadtxt(out / "rounds.csv", delimiter=",", skiprows=1).shape == (10, 3)

    def test_summary_does_not_depend_on_threads(self, tmp_path):
        raw = dict(GAME_CFG, mechanism={"mechanism": "subsampled_mean", "rho": 0.5})
        cfg = write_json(tmp_path / "cfg.json", raw)
        outs = [tmp_path / "t1", tmp_path / "t2", tmp_path / "t2cfg"]
        assert main(["simulate", "--config", cfg, "--threads", "1", "-o", str(outs[0])]) == 0
        assert main(["simulate", "--config", cfg, "--threads", "2", "-o", str(outs[1])]) == 0
        cfg2 = write_json(tmp_path / "cfg2.json", dict(raw, threads=2))
        assert main(["simulate", "--config", cfg2, "-o", str(outs[2])]) == 0
        for name in ("rounds.csv", "roc.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
            assert (outs[0] / name).read_bytes() == (outs[2] / name).read_bytes()

    @pytest.mark.parametrize("mechanism", [
        {"mechanism": "empirical_mean"},
        {"mechanism": "noisy_mean", "gamma_scalar": 0.8},
        {"mechanism": "subsampled_mean", "rho": 0.4},
    ])
    def test_artifacts_match_the_per_round_oracle(self, tmp_path, mechanism):
        # 1000 rounds of d=40 span three chunks of crafted rounds serially,
        # and more at three workers
        rng = np.random.default_rng(90)
        d = 40
        columns = [{"law": "bernoulli", "p": float(rng.uniform(0.2, 0.8))} if j % 2
                   else {"law": "gaussian", "mean": float(rng.uniform(-1, 1)),
                         "var": float(rng.uniform(0.5, 2.0))} for j in range(d)]
        z = [float(v) for v in rng.integers(0, 2, size=d) + 0.5 * (np.arange(d) % 2 == 0)]
        raw = {"dist": {"columns": columns}, "mechanism": mechanism, "n": 30,
               "target": {"values": z}, "score": "lr_asymptotic", "rounds": 1000,
               "master_seed": 91}
        want_rounds, want_roc = oracles.simulate_csvs_ref(columns, mechanism, 30, z, 1000, 91)
        cfg = write_json(tmp_path / "cfg.json", raw)
        for threads in ("1", "3"):
            out = tmp_path / threads
            assert main(["simulate", "--config", cfg, "--threads", threads, "-o", str(out)]) == 0
            assert (out / "rounds.csv").read_text() == want_rounds
            assert (out / "roc.csv").read_text() == want_roc

    def test_csvs_of_three_row_blocks_match_the_per_round_oracle(self, tmp_path):
        # two full row blocks and part of a third, in rounds.csv and roc.csv
        rounds = 2 * cli._CSV_BLOCK_ROWS + 5
        columns = [{"law": "bernoulli", "p": 0.3}, {"law": "gaussian", "mean": 0.5, "var": 2.0},
                   {"law": "bernoulli", "p": 0.6}]
        z = [1.0, 2.5, 0.0]
        mechanism = {"mechanism": "empirical_mean"}
        raw = {"dist": {"columns": columns}, "mechanism": mechanism, "n": 20,
               "target": {"values": z}, "score": "lr_asymptotic", "rounds": rounds,
               "master_seed": 93}
        want_rounds, want_roc = oracles.simulate_csvs_ref(columns, mechanism, 20, z, rounds, 93)
        assert want_roc.count("\n") > 2 * cli._CSV_BLOCK_ROWS + 1
        out = tmp_path / "o"
        assert main(["simulate", "--config", write_json(tmp_path / "cfg.json", raw),
                     "-o", str(out)]) == 0
        assert (out / "rounds.csv").read_text() == want_rounds
        assert (out / "roc.csv").read_text() == want_roc

    @pytest.mark.parametrize("mechanism, score, names", [
        ({"mechanism": "noisy_mean", "gamma_scalar": 0.6}, "lr_exact_bernoulli",
         ("lr_exact_bernoulli", "NoisyMean")),
        ({"mechanism": "subsampled_mean", "rho": 0.01}, "lr_subsampled",
         ("lr_subsampled", "subsample of >= 2 rows")),
    ])
    def test_unscorable_pairing_exits_2_before_crafting(self, tmp_path, capsys, monkeypatch,
                                                        mechanism, score, names):
        from mi_audit import game

        crafted = []
        monkeypatch.setattr(game, "_craft_rounds", lambda *args: crafted.append(1))
        raw = dict(GAME_CFG, dist={"law": "bernoulli_uniform", "d": 40, "a": 0.25, "seed": 31},
                   n=100, mechanism=mechanism, score=score)
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "-o", str(out)]) == 2
        err = stderr_error(capsys)
        assert err["error"] == "config"
        assert all(name in err["message"] for name in names), err["message"]
        assert not err["message"].startswith("round")
        assert crafted == []
        assert not (out / "rounds.csv").exists()

    @pytest.mark.parametrize("key, kw", [
        ("target", {"target": [0.0, 1.0, float("nan"), 0.0, 1.0, 0.0]}),
        ("target.values", {"target": {"values": [0.0, None, 1.0, 0.0, 1.0, 0.0]}}),
        ("score_info.z_targ.values", {"score": "lr_misspecified",
                                      "score_info": {"z_targ": {"values": [float("inf")] * 6}}}),
        ("score_info.z_ref", {"score": "scalar_product",
                              "score_info": {"z_ref": [float("-inf")] + [0.0] * 5}}),
    ], ids=["target-nan", "target-values-null", "z_targ-inf", "z_ref-minus-inf"])
    def test_non_finite_target_exits_2_before_crafting(self, tmp_path, capsys, monkeypatch,
                                                       key, kw):
        from mi_audit import game

        crafted = []
        monkeypatch.setattr(game, "_craft_rounds", lambda *args: crafted.append(1))
        cfg = write_json(tmp_path / "cfg.json", dict(GAME_CFG, **kw))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "-o", str(out)]) == 2
        err = stderr_error(capsys)
        assert err["error"] == "config"
        assert re.search(rf"{re.escape(key)} coordinates must be finite", err["message"])
        assert crafted == []
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["2", 0, -1, 1.5, True])
    def test_malformed_config_threads_exits_2(self, tmp_path, capsys, threads):
        cfg = write_json(tmp_path / "cfg.json", dict(GAME_CFG, threads=threads))
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        msg = stderr_error(capsys)
        assert msg["error"] == "config"
        assert "threads" in msg["message"]

    def test_unknown_refs_key_exits_2(self, tmp_path, capsys):
        raw = dict(GAME_CFG, score="lr_empirical_cov")
        raw["score_info"] = {"refs": {"n0": 50, "seed": 9, "bogus": 1}}
        cfg = write_json(tmp_path / "cfg.json", raw)
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        msg = stderr_error(capsys)
        assert msg["error"] == "config"
        assert "bogus" in msg["message"]

    def test_unknown_score_exits_2(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", dict(GAME_CFG, score="lr_wishful"))
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        msg = stderr_error(capsys)
        assert msg["error"] == "config"
        assert "lr_wishful" in msg["message"]

    @pytest.mark.parametrize("key, raw", [
        ("mechanism", dict(GAME_CFG, mechanism=5)),
        ("score_info", dict(GAME_CFG, score_info=5)),
        ("score_info.refs", dict(GAME_CFG, score="lr_empirical_cov", score_info={"refs": 5})),
        ("dist", dict(GAME_CFG, dist="bernoulli")),
        ("config", [GAME_CFG]),
        ("n", dict(GAME_CFG, n=None)),
        ("rounds", dict(GAME_CFG, rounds=None)),
        ("target.draw_seed", dict(GAME_CFG, target={"draw_seed": None})),
        ("target.values", dict(GAME_CFG, target={"values": None})),
        ("mechanism.gamma", dict(GAME_CFG, mechanism={"mechanism": "noisy_mean", "gamma": None})),
        ("mechanism.gamma_scalar", dict(GAME_CFG, mechanism={"mechanism": "noisy_mean",
                                                             "gamma_scalar": float("nan")})),
        ("mechanism.gamma", dict(GAME_CFG, mechanism={"mechanism": "noisy_mean",
                                                      "gamma": [float("inf")]})),
        ("mechanism.gamma", dict(GAME_CFG, mechanism={"mechanism": "noisy_mean",
                                                      "gamma": [0.5, "abc"]})),
        ("mechanism.rho", dict(GAME_CFG, mechanism={"mechanism": "subsampled_mean",
                                                    "rho": float("nan")})),
        ("mechanism.rho", dict(GAME_CFG, mechanism={"mechanism": "subsampled_mean", "rho": 1.5})),
        ("score_info.gamma", dict(GAME_CFG, score="lr_noisy",
                                  score_info={"gamma": float("nan")})),
        ("score_info.gamma", dict(GAME_CFG, score="lr_noisy", score_info={"gamma": "abc"})),
        ("score_info.gamma", dict(GAME_CFG, score="lr_noisy", score_info={"gamma": [None]})),
        ("mechanism.gamma", dict(GAME_CFG, mechanism={"mechanism": "noisy_mean",
                                                      "gamma": [0.1, 0.2]})),
        ("score_info.gamma", dict(GAME_CFG, score="lr_noisy",
                                  score_info={"gamma": [0.1, 0.2]})),
        ("dist.columns.0.p", dict(GAME_CFG, dist={"columns": [{"law": "bernoulli", "p": 1.5}]},
                                  target={"values": [1.0]})),
        ("dist.columns.1.var", dict(GAME_CFG, **gauss_cfg(var=0.0))),
        ("dist.columns.1.mean", dict(GAME_CFG, **gauss_cfg(mean="nan"))),
        ("dist.columns.1.var", dict(GAME_CFG, **gauss_cfg(var="inf"))),
        ("score_info.rho", dict(GAME_CFG, score_info={"rho": None})),
        ("score_info.refs.n0", dict(REFS_CFG, score_info={"refs": {"n0": None, "seed": 9}})),
        ("score_info.refs.ridge",
         dict(REFS_CFG, score_info={"refs": {"n0": 50, "seed": 9, "ridge": "small"}})),
        ("score_info.refs.centered",
         dict(REFS_CFG, score_info={"refs": {"n0": 50, "seed": 9, "centered": "false"}})),
    ], ids=["mechanism", "score_info", "refs", "dist", "config", "n-null", "rounds-null",
            "draw_seed-null", "values-null", "gamma-null", "gamma_scalar-nan", "gamma-inf",
            "gamma-word", "rho-nan", "rho-above-1", "score_info-gamma-nan",
            "score_info-gamma-word", "score_info-gamma-null-entry", "gamma-length-2",
            "score_info-gamma-length-2", "column-p-above-1", "column-var-0",
            "column-mean-nan", "column-var-inf", "rho-null",
            "refs-n0-null", "refs-ridge-word", "refs-centered-string"])
    def test_wrong_json_type_exits_2(self, tmp_path, capsys, monkeypatch, key, raw):
        from mi_audit import game

        crafted = []
        monkeypatch.setattr(game, "_craft_rounds", lambda *args: crafted.append(1))
        cfg = write_json(tmp_path / "cfg.json", raw)
        assert main(["simulate", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        msg = stderr_error(capsys)
        assert msg["error"] == "config"
        assert re.search(rf"\b{re.escape(key)}\b", msg["message"])
        assert crafted == []
        assert not (tmp_path / "o").exists()

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad), "-o", str(tmp_path / "o")]) == 2
        assert stderr_error(capsys)["error"] == "config"


class TestCanary:
    def test_ranking_matches_library(self, tmp_path):
        rng = np.random.default_rng(55)
        refs_mat = rng.normal(size=(40, 5))
        cands = rng.normal(size=(6, 5))
        cands[2] = 30.0
        refs_path = tmp_path / "refs.csv"
        cands_path = tmp_path / "cands.csv"
        np.savetxt(refs_path, refs_mat, delimiter=",")
        np.savetxt(cands_path, cands, delimiter=",")
        out = tmp_path / "out"
        rc = main(
            [
                "canary",
                "--refs",
                str(refs_path),
                "--candidates",
                str(cands_path),
                "--cov-mode",
                "full",
                "-o",
                str(out),
            ]
        )
        assert rc == 0
        doc = read_json(out / "ranking.json")
        refs = estimate_reference(refs_mat, cov_mode="full")
        want = sorted(
            range(6), key=lambda i: -mahalanobis_score_est(cands[i], refs)
        )
        assert [row["index"] for row in doc["ranking"]] == want
        assert doc["ranking"][0]["index"] == 2
        scores = [row["score"] for row in doc["ranking"]]
        assert scores == sorted(scores, reverse=True)
        assert doc["n0"] == 40

    def test_non_finite_ridge_exits_2(self, tmp_path, capsys):
        np.savetxt(tmp_path / "refs.csv", np.eye(4), delimiter=",")
        args = ["canary", "--refs", str(tmp_path / "refs.csv"), "--candidates",
                str(tmp_path / "refs.csv"), "--ridge", "nan", "-o", str(tmp_path / "o")]
        assert main(args) == 2
        msg = stderr_error(capsys)
        assert msg["error"] == "config"
        assert "ridge" in msg["message"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("which", ["refs", "cands"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_entry_exits_2(self, tmp_path, capsys, which, bad):
        # a NaN or infinite entry would rank as a score of NaN or Infinity
        paths = {}
        for name in ("refs", "cands"):
            paths[name] = tmp_path / f"{name}.csv"
            rows = ["1,2,3", "4,5,6", "7,8,10"]
            if name == which:
                rows[1] = f"4,5,{bad}"
            paths[name].write_text("\n".join(rows) + "\n")
        out = tmp_path / "o"
        assert main(["canary", "--refs", str(paths["refs"]), "--candidates",
                     str(paths["cands"]), "-o", str(out)]) == 2
        msg = stderr_error(capsys)
        assert msg["error"] == "config"
        assert f"{paths[which]}: data row 2, column 3 is {bad}" in msg["message"]
        assert not out.exists()

    def test_column_mismatch_exits_2(self, tmp_path, capsys):
        np.savetxt(tmp_path / "refs.csv", np.zeros((4, 3)), delimiter=",")
        np.savetxt(tmp_path / "cands.csv", np.zeros((2, 5)), delimiter=",")
        rc = main(
            [
                "canary",
                "--refs",
                str(tmp_path / "refs.csv"),
                "--candidates",
                str(tmp_path / "cands.csv"),
                "-o",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 2
        assert stderr_error(capsys)["error"] == "config"


BLOB_CFG = {
    "data": {"blobs": {"n": 24, "f": 3, "c": 2, "seed": 3}},
    "arch": "logistic",
    "theta0": {"seed": 4, "scale": 0.5},
    "eta": 0.05,
    "batch_size": 8,
    "reps": 8,
    "master_seed": 7,
    "cov_mode": "diagonal",
}


def blob_pool_maha():
    """The blob pool of BLOB_CFG and each row's Mahalanobis score, as the
    whitebox command ranks them."""
    from mi_audit import make_blobs

    X, y = make_blobs(25, 3, 2, seed=3)
    theta0 = np.random.default_rng(4).standard_normal(8) * 0.5
    grads = ToyModel("logistic", f=3, c=2, theta=theta0).grad_batch(X, y)
    refs = estimate_reference(grads, cov_mode="diagonal")
    return np.array([mahalanobis_score_est(g, refs) for g in grads])


class TestWhitebox:
    def test_blob_game_writes_scores_and_summary(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", BLOB_CFG)
        out = tmp_path / "out"
        assert main(["whitebox", "--config", cfg, "-o", str(out)]) == 0
        doc = read_json(out / "whitebox.json")
        assert doc["train_rows"] == 24
        assert 0 <= doc["target_index"] < 25
        assert doc["target_mahalanobis"] > 0
        for attack in ("covariance", "scalar"):
            assert 0.0 <= doc["attacks"][attack]["auc"] <= 1.0
            raw = np.loadtxt(out / f"scores_{attack}.csv", delimiter=",", skiprows=1)
            assert raw.shape == (8, 3)

    def test_each_rep_trains_once_for_both_attacks(self, tmp_path, monkeypatch):
        from mi_audit import whitebox

        runs = []
        real = whitebox._sgd

        def counting(model, X, labels, schedules, *args):
            runs.append(len(schedules))  # one SGD run per batch schedule
            return real(model, X, labels, schedules, *args)

        monkeypatch.setattr(whitebox, "_sgd", counting)
        cfg = write_json(tmp_path / "cfg.json", BLOB_CFG)
        assert main(["whitebox", "--config", cfg, "-o", str(tmp_path / "out")]) == 0
        assert sum(runs) == BLOB_CFG["reps"]

    def test_threads_come_from_flag_or_config(self, tmp_path, monkeypatch):
        from mi_audit import cli

        seen = []
        real = cli._play_reps

        def recording(*args, threads, **kwargs):
            seen.append(threads)
            return real(*args, threads=threads, **kwargs)

        monkeypatch.setattr(cli, "_play_reps", recording)
        cfg = write_json(tmp_path / "cfg.json", BLOB_CFG)
        cfg3 = write_json(tmp_path / "cfg3.json", dict(BLOB_CFG, threads=3))
        outs = [tmp_path / name for name in ("serial", "flag", "config", "flag-over-config")]
        assert main(["whitebox", "--config", cfg, "-o", str(outs[0])]) == 0
        assert main(["whitebox", "--config", cfg, "--threads", "2", "-o", str(outs[1])]) == 0
        assert main(["whitebox", "--config", cfg3, "-o", str(outs[2])]) == 0
        assert main(["whitebox", "--config", cfg3, "--threads", "2", "-o", str(outs[3])]) == 0
        assert seen == [None, 2, 3, 2]
        for name in ("scores_covariance.csv", "scores_scalar.csv", "whitebox.json"):
            for out in outs[1:]:
                assert (outs[0] / name).read_bytes() == (out / name).read_bytes()

    @pytest.mark.parametrize("threads", [0, -1, 1.5, "2"])
    def test_malformed_config_threads_exits_2(self, tmp_path, capsys, threads):
        cfg = write_json(tmp_path / "cfg.json", dict(BLOB_CFG, threads=threads))
        assert main(["whitebox", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        msg = stderr_error(capsys)
        assert msg["error"] == "config"
        assert "threads" in msg["message"]

    @pytest.mark.parametrize("kw, param", [
        pytest.param({"clip": float("nan")}, "clip", id="clip-nan"),
        pytest.param({"eta": float("nan")}, "eta", id="eta-nan"),
        pytest.param({"eta": float("inf")}, "eta", id="eta-inf"),
        pytest.param({"clip": 1.0, "noise": float("nan")}, "noise", id="noise-nan"),
        pytest.param({"clip": 1.0, "noise": float("inf")}, "noise", id="noise-inf"),
        pytest.param({"clip": float("inf"), "noise": 0.5}, "clip",
                     id="noise-with-infinite-clip"),
    ])
    def test_non_finite_sgd_settings_exit_2(self, tmp_path, capsys, kw, param):
        # json writes these as NaN and Infinity, which the config reader accepts
        cfg = write_json(tmp_path / "cfg.json", dict(BLOB_CFG, **kw))
        assert main(["whitebox", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        msg = stderr_error(capsys)
        assert msg["error"] == "config"
        assert re.search(rf"\b{param}\b", msg["message"])

    @pytest.mark.parametrize("key, kw", [
        ("theta0", {"theta0": 5}),
        ("target", {"target": 3}),
        ("data", {"data": 5}),
        ("data.blobs", {"data": {"blobs": 5}}),
        ("clip", {"clip": "one"}),
        ("clip", {"clip": [1.0]}),
        ("noise", {"clip": 1.0, "noise": "some"}),
        ("centered", {"centered": "false"}),
        ("eta", {"eta": None}),
        ("reps", {"reps": [3]}),
        ("epochs", {"epochs": None}),
        ("batch_size", {"batch_size": None}),
        ("ridge", {"ridge": "small"}),
        ("target.index", {"target": {"index": None}}),
        ("theta0.seed", {"theta0": {"seed": None}}),
        ("data.blobs.n", {"data": {"blobs": {"n": None, "f": 3, "c": 2}}}),
    ], ids=["theta0", "target", "data", "blobs", "clip-word", "clip-list", "noise", "centered",
            "eta-null", "reps-list", "epochs-null", "batch_size-null", "ridge-word",
            "target-index-null", "theta0-seed-null", "blobs-n-null"])
    def test_wrong_json_type_exits_2(self, tmp_path, capsys, key, kw):
        cfg = write_json(tmp_path / "cfg.json", dict(BLOB_CFG, **kw))
        assert main(["whitebox", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        msg = stderr_error(capsys)
        assert msg["error"] == "config"
        assert re.search(rf"\b{re.escape(key)}\b", msg["message"])
        assert not (tmp_path / "o").exists()

    def test_numeric_strings_convert_as_eta_does(self, tmp_path):
        # clip and noise take float(), as eta does; null still means None
        outs = []
        for i, kw in enumerate([{"eta": 0.05, "clip": 1.0, "noise": 0.05},
                                {"eta": "0.05", "clip": "1.0", "noise": "0.05"}]):
            cfg = write_json(tmp_path / f"cfg{i}.json", dict(BLOB_CFG, **kw))
            outs.append(tmp_path / f"o{i}")
            assert main(["whitebox", "--config", cfg, "-o", str(outs[-1])]) == 0
        for name in ("scores_covariance.csv", "scores_scalar.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("spec, pick", [({"index": 5}, 5), ({"rank": "bottom"}, "argmin")])
    def test_target_by_index_or_bottom_rank(self, tmp_path, spec, pick):
        cfg = write_json(tmp_path / "cfg.json", dict(BLOB_CFG, target=spec))
        out = tmp_path / "out"
        assert main(["whitebox", "--config", cfg, "-o", str(out)]) == 0
        doc = read_json(out / "whitebox.json")
        maha = blob_pool_maha()
        want = int(np.argmin(maha)) if pick == "argmin" else pick
        assert doc["target_index"] == want
        assert doc["target_mahalanobis"] == pytest.approx(maha[want], rel=1e-12)

    @pytest.mark.parametrize("label", [1.7, -0.4, -1.0, float("nan")])
    def test_csv_logistic_labels_must_be_nonnegative_integers(self, tmp_path, capsys, label):
        rng = np.random.default_rng(57)
        X = rng.normal(size=(12, 2))
        y = np.arange(12) % 2.0
        y[3] = label
        np.savetxt(tmp_path / "data.csv", np.column_stack([X, y]), delimiter=",")
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "data": {"csv": str(tmp_path / "data.csv")},
                "arch": "logistic",
                "eta": 0.05,
                "batch_size": 4,
                "reps": 2,
                "master_seed": 9,
                "cov_mode": "diagonal",
            },
        )
        assert main(["whitebox", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        msg = stderr_error(capsys)
        assert msg["error"] == "config"
        # a NaN label is stopped by the CSV reader, before the label check
        want = "every entry must be finite" if np.isnan(label) else "logistic labels"
        assert want in msg["message"]

    def test_non_finite_csv_entry_exits_2(self, tmp_path, capsys):
        mat = np.column_stack([np.random.default_rng(59).normal(size=(12, 2)), np.arange(12) % 2])
        mat[5, 1] = -np.inf
        np.savetxt(tmp_path / "data.csv", mat, delimiter=",")
        cfg = write_json(tmp_path / "cfg.json",
                         dict(BLOB_CFG, data={"csv": str(tmp_path / "data.csv")}))
        assert main(["whitebox", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        msg = stderr_error(capsys)
        assert msg["error"] == "config"
        assert f"{tmp_path / 'data.csv'}: data row 6, column 2 is -inf" in msg["message"]
        assert not (tmp_path / "o").exists()

    def test_csv_logistic_labels_must_cover_every_class(self, tmp_path, capsys):
        X = np.random.default_rng(58).normal(size=(8, 2))
        y = np.array([0, 1, 0, 1, 0, 1, 0, 50.0])
        np.savetxt(tmp_path / "data.csv", np.column_stack([X, y]), delimiter=",")
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "data": {"csv": str(tmp_path / "data.csv")},
                "arch": "logistic",
                "eta": 0.05,
                "batch_size": 4,
                "reps": 2,
                "master_seed": 9,
                "cov_mode": "diagonal",
            },
        )
        assert main(["whitebox", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        msg = stderr_error(capsys)
        assert msg["error"] == "config"
        assert "classes 2..49 empty" in msg["message"]

    @pytest.mark.parametrize("kw", [
        pytest.param({}, id="diagonal"),
        pytest.param({"cov_mode": "full"}, id="full"),
        pytest.param({"clip": 1.0, "noise": 0.05}, id="clip-noise"),
    ])
    def test_short_param_slice_fits_references_on_the_slice(self, tmp_path, kw):
        # the command scores both attacks from one _play_reps call, and
        # run_whitebox_game one attack from another: the CSVs hold its scores
        from mi_audit import make_blobs, run_whitebox_game

        blobs = {"n": 24, "f": 4, "c": 3, "seed": 3}
        spec = dict(BLOB_CFG, data={"blobs": blobs}, param_slice=[12, 15], **kw)
        cfg = write_json(tmp_path / "cfg.json", spec)
        out = tmp_path / "out"
        assert main(["whitebox", "--config", cfg, "-o", str(out)]) == 0
        doc = read_json(out / "whitebox.json")

        X, y = make_blobs(25, 4, 3, seed=3)
        theta0 = np.random.default_rng(4).standard_normal(15) * 0.5
        model = ToyModel("logistic", f=4, c=3, theta=theta0)
        keep = np.arange(25) != doc["target_index"]
        refs = estimate_reference(model.grad_batch(X, y)[keep][:, 12:15],
                                  cov_mode=spec["cov_mode"])
        target = (X[doc["target_index"]], y[doc["target_index"]])
        for attack in ("covariance", "scalar"):
            game = run_whitebox_game(
                model, X[keep], y[keep], target, eta=0.05, batch_size=8, refs=refs,
                attack=attack, reps=8, master_seed=7, param_slice=(12, 15),
                clip=spec.get("clip"), noise=spec.get("noise"),
            )
            raw = np.loadtxt(out / f"scores_{attack}.csv", delimiter=",", skiprows=1)
            assert np.array_equal(raw[:, 1], [r.score for r in game])
            assert np.array_equal(raw[:, 2], [r.b for r in game])

    @pytest.mark.parametrize("param_slice", [5, "12:15", {"start": 12}, [1.5, 4], ["a", 4],
                                             [True, 4], [], [0, 1, 2, 3]])
    def test_malformed_param_slice_exits_2(self, tmp_path, capsys, param_slice):
        cfg = write_json(tmp_path / "cfg.json", dict(BLOB_CFG, param_slice=param_slice))
        assert main(["whitebox", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        msg = stderr_error(capsys)
        assert msg["error"] == "config"
        assert "param_slice" in msg["message"]

    def test_blob_model_has_the_spec_class_count(self, tmp_path, monkeypatch):
        from mi_audit import cli, make_blobs

        # this draw of 8 + 1 points has labels 0..3 only
        blobs = {"n": 8, "f": 2, "c": 5, "seed": 12}
        assert np.unique(make_blobs(9, 2, 5, seed=12)[1]).tolist() == [0, 1, 2, 3]
        models = []
        real = cli._play_reps

        def recording(model, *args, **kwargs):
            models.append(model)
            return real(model, *args, **kwargs)

        monkeypatch.setattr(cli, "_play_reps", recording)
        spec = dict(BLOB_CFG, data={"blobs": blobs}, batch_size=4)
        cfg = write_json(tmp_path / "cfg.json", spec)
        assert main(["whitebox", "--config", cfg, "-o", str(tmp_path / "o")]) == 0
        assert [(m.c, m.d_p) for m in models] == [(5, 2 * 5 + 5)]

    def test_csv_data_keeps_float_labels_for_regression(self, tmp_path):
        rng = np.random.default_rng(56)
        X = rng.normal(size=(16, 2))
        y = X @ np.array([0.5, -1.0]) + 0.25
        np.savetxt(tmp_path / "data.csv", np.column_stack([X, y]), delimiter=",")
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "data": {"csv": str(tmp_path / "data.csv")},
                "arch": "linear",
                "eta": 0.05,
                "batch_size": 4,
                "reps": 4,
                "master_seed": 9,
                "cov_mode": "diagonal",
            },
        )
        out = tmp_path / "out"
        assert main(["whitebox", "--config", cfg, "-o", str(out)]) == 0
        doc = read_json(out / "whitebox.json")

        model = ToyModel("linear", f=2)
        grads = model.grad_batch(X, y)
        refs = estimate_reference(grads, cov_mode="diagonal")
        maha = [mahalanobis_score_est(g, refs) for g in grads]
        assert doc["target_index"] == int(np.argmax(maha))
        assert doc["target_mahalanobis"] == pytest.approx(max(maha), rel=1e-12)

    def test_rank_deficient_full_covariance_exits_3(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "data": {"blobs": {"n": 10, "f": 6, "c": 2, "seed": 5}},
                "arch": "logistic",
                "eta": 0.1,
                "batch_size": 5,
                "reps": 2,
                "master_seed": 1,
                "cov_mode": "full",
                "ridge": 0.0,
            },
        )
        assert main(["whitebox", "--config", cfg, "-o", str(tmp_path / "o")]) == 3
        assert stderr_error(capsys)["error"] == "numerical"

    def test_bad_target_spec_exits_2(self, tmp_path, capsys):
        self.check_target_exits_2(tmp_path, capsys, {"rank": "middling"})

    @pytest.mark.parametrize("index", [11, -1])
    def test_target_index_out_of_range_exits_2(self, tmp_path, capsys, index):
        self.check_target_exits_2(tmp_path, capsys, {"index": index})

    @staticmethod
    def check_target_exits_2(tmp_path, capsys, target):
        cfg = write_json(
            tmp_path / "cfg.json",
            {
                "data": {"blobs": {"n": 10, "f": 2, "c": 2, "seed": 5}},
                "arch": "logistic",
                "eta": 0.1,
                "batch_size": 5,
                "reps": 2,
                "master_seed": 1,
                "target": target,
            },
        )
        assert main(["whitebox", "--config", cfg, "-o", str(tmp_path / "o")]) == 2
        assert stderr_error(capsys)["error"] == "config"


class TestReport:
    def test_gap_agrees_with_simulate_summary(self, tmp_path):
        cfg = write_json(tmp_path / "cfg.json", GAME_CFG)
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "-o", str(sim_out)]) == 0
        summary = read_json(sim_out / "summary.json")

        theory_path = tmp_path / "theory.csv"
        curve = TradeoffCurve.from_leakage(summary["m_eff"], 512)
        with open(theory_path, "w") as f:
            f.write("alpha,power\n")
            for a, p in curve.samples:
                f.write(f"{a!r},{p!r}\n")

        out = tmp_path / "rep"
        rc = main(
            [
                "report",
                "--roc",
                str(sim_out / "roc.csv"),
                "--theory",
                str(theory_path),
                "-o",
                str(out),
            ]
        )
        assert rc == 0
        svg = (out / "report.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        gaps = read_json(out / "gaps.json")
        assert len(gaps["pairs"]) == 1
        got = gaps["pairs"][0]["sup_norm_gap"]
        assert abs(got - summary["sup_norm_gap"]) <= 5e-3

    def test_log_axis_svg(self, tmp_path):
        roc_path = tmp_path / "roc.csv"
        with open(roc_path, "w") as f:
            f.write("fpr,tpr\n0.0,0.0\n0.5,0.9\n1.0,1.0\n")
        out = tmp_path / "rep"
        rc = main(["report", "--roc", str(roc_path), "--log-x", "-o", str(out)])
        assert rc == 0
        assert "1e-3" in (out / "report.svg").read_text()

    @pytest.mark.parametrize("x_min", ["0", "1", "2", "-0.5", "nan"])
    def test_log_axis_needs_x_min_inside_the_unit_interval(self, tmp_path, capsys, x_min):
        roc_path = tmp_path / "roc.csv"
        roc_path.write_text("fpr,tpr\n0.0,0.0\n0.5,0.9\n1.0,1.0\n")
        out = tmp_path / "rep"
        rc = main(["report", "--roc", str(roc_path), "--log-x", "--x-min", x_min, "-o", str(out)])
        assert rc == 2
        msg = stderr_error(capsys)
        assert msg["error"] == "config"
        assert "--x-min" in msg["message"]
        assert not out.exists()

    def test_requires_matching_theory_count(self, tmp_path, capsys):
        roc_path = tmp_path / "roc.csv"
        with open(roc_path, "w") as f:
            f.write("fpr,tpr\n0.0,0.0\n1.0,1.0\n")
        rc = main(
            [
                "report",
                "--roc",
                str(roc_path),
                "--theory",
                str(roc_path),
                "--theory",
                str(roc_path),
                "-o",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 2
        assert stderr_error(capsys)["error"] == "config"

    @pytest.mark.parametrize(
        "roc_rows, theory_rows",
        [
            pytest.param("0.5,0.8\n0.4,0.9", "0.5,0.7", id="roc-with-theory"),
            pytest.param("0.5,0.8\n0.4,0.9", None, id="roc-alone"),
            pytest.param("0.5,0.8", "0.5,0.7\n0.6,0.6", id="decreasing-theory"),
        ],
    )
    def test_decreasing_roc_exits_2(self, tmp_path, capsys, roc_rows, theory_rows):
        # every curve is checked before anything is written
        roc_path = tmp_path / "roc.csv"
        roc_path.write_text(f"fpr,tpr\n0.0,0.0\n{roc_rows}\n1.0,1.0\n")
        argv = ["report", "--roc", str(roc_path)]
        if theory_rows is not None:
            theory_path = tmp_path / "theory.csv"
            theory_path.write_text(f"alpha,power\n0.0,0.0\n{theory_rows}\n1.0,1.0\n")
            argv += ["--theory", str(theory_path)]
        out = tmp_path / "o"
        assert main(argv + ["-o", str(out)]) == 2
        msg = stderr_error(capsys)
        assert msg["error"] == "config"
        assert "non-decreasing" in msg["message"]
        assert not (out / "gaps.json").exists()
        assert not (out / "report.svg").exists()

    @pytest.mark.parametrize("curve", ["roc", "theory"])
    def test_non_finite_entry_exits_2(self, tmp_path, capsys, curve):
        paths = {}
        for name in ("roc", "theory"):
            paths[name] = tmp_path / f"{name}.csv"
            mid = "0.5,nan" if name == curve else "0.5,0.8"
            paths[name].write_text(f"x,y\n0.0,0.0\n{mid}\n1.0,1.0\n")
        out = tmp_path / "o"
        assert main(["report", "--roc", str(paths["roc"]), "--theory", str(paths["theory"]),
                     "-o", str(out)]) == 2
        msg = stderr_error(capsys)
        assert msg["error"] == "config"
        assert f"{paths[curve]}: data row 2, column 2 is nan" in msg["message"]
        assert not out.exists()

    def test_no_curves_exits_2(self, tmp_path, capsys):
        assert main(["report", "-o", str(tmp_path / "o")]) == 2
        assert stderr_error(capsys)["error"] == "config"


class TestJsonArtifacts:
    def test_non_finite_value_raises_before_the_file_opens(self, tmp_path):
        out = tmp_path / "o"
        csv = cli._Csv("x", "%.17g", (np.ones(3),))
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(NumericalError, match="doc.json"):
                cli._write_artifacts(str(out), {"a.csv": csv,
                                                "doc.json": {"ok": 1.0, "rows": [{"x": bad}]}})
            assert not out.exists()
        cli._write_artifacts(str(out), {"doc.json": {"ok": 1.0}})
        assert (out / "doc.json").read_text() == '{\n  "ok": 1.0\n}\n'

    def test_non_finite_profile_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "effective_leakage", lambda *args: float("nan"))
        cfg = write_json(tmp_path / "cfg.json", GAME_CFG)
        out = tmp_path / "o"
        assert main(["theory", "--config", cfg, "-o", str(out)]) == 3
        msg = stderr_error(capsys)
        assert msg["error"] == "numerical"
        assert "profile.json" in msg["message"]
        # no tradeoff.csv either: nothing is written, not even the directory
        assert not out.exists()

    def test_non_finite_summary_exits_3_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "effective_leakage", lambda *args: float("nan"))
        cfg = write_json(tmp_path / "cfg.json", GAME_CFG)
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "-o", str(out)]) == 3
        msg = stderr_error(capsys)
        assert msg["error"] == "numerical"
        assert "summary.json" in msg["message"]
        assert not out.exists()

    def test_csv_is_written_in_bounded_memory(self, tmp_path):
        # 200 000 rows at once would take about 20 MB of row strings and text
        rows = 200_000
        scores = np.random.default_rng(5).standard_normal(rows)
        bits = np.arange(rows) % 2
        csv = cli._Csv("round,score,b", "%d,%.17g,%d", (range(rows), scores, bits))
        tracemalloc.start()
        try:
            cli._write_artifacts(str(tmp_path), {"rounds.csv": csv})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        want = "round,score,b\n" + "".join(
            "%d,%.17g,%d\n" % row for row in zip(range(rows), scores.tolist(), bits.tolist()))
        assert (tmp_path / "rounds.csv").read_text() == want


    def test_simulate_runs_in_bounded_memory(self, tmp_path, monkeypatch):
        # The game is replaced by one that draws a distinct score for each
        # round, so the ROC has a point per round and the run takes seconds
        # under tracemalloc. The scores and bits (9 B a round) and the ROC's
        # points and their densified copy (16 B a point each) are what may
        # grow with the round count; the sort order, the counts and the
        # gaps' temporaries are read in blocks. The analysis peaked at about
        # 130 B a round when it made whole-array float copies.
        rounds = 200_000

        def play(cfg):
            rng = np.random.default_rng(cfg.master_seed)
            bits = rng.integers(0, 2, size=cfg.rounds, dtype=np.uint8)
            return rng.standard_normal(cfg.rounds) + bits, bits

        monkeypatch.setattr(cli, "_play_fixed_game", play)
        raw = {"dist": {"columns": [{"law": "gaussian", "mean": 0, "var": 1}] * 4},
               "mechanism": {"mechanism": "empirical_mean"},
               "n": 20, "target": {"values": [1.0, -0.5, 2.0, 0.0]}, "score": "lr_asymptotic",
               "rounds": rounds, "master_seed": 94}
        cfg = write_json(tmp_path / "cfg.json", raw)
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            assert main(["simulate", "--config", cfg, "-o", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out / "roc.csv").read_text().count("\n") == rounds + 2
        assert peak < 80 * rounds

class TestParser:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["audit-everything"]) == 2
        assert stderr_error(capsys)["error"] == "config"

    def test_console_script_reports_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mi_audit.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip().startswith("mi-audit ")
