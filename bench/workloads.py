"""The three audit workloads.

A workload is built once from the workload seed (the set-up that ``setup_s``
times), then plays batches: each batch attempts the same fixed number of
rounds, and a round is one crafted release or one training run. After each
batch, outside the timed region, :meth:`verify_batch` checks that batch's
outputs; :meth:`verify_run` checks what only the whole run can show. The
checks live in ``checks.py`` and never call the program to get their
reference values.

Inputs reach the program only as generated values: explicit ``p`` vectors
or column lists, explicit target values, and an explicit thread count.
"""

from __future__ import annotations

import json
import os

import numpy as np

import checks


def _master_seed(seed: int, batch: int, game: int) -> int:
    # one Philox key per (workload seed, batch, game); never reused in a run
    return seed * 1_000_000 + batch * 10 + game


class MeanRelease:
    """Exact, noisy and subsampled means of a d=5000 Bernoulli product,
    crafted at two workers and scored through the library API."""

    name = "mean_release_d5000"
    D = 5000
    N = 1000
    GAMMA = 1.0
    RHO = 0.5
    THREADS = 2
    ROUNDS = 32  # per mechanism and batch; both classes appear with prob. 1 - 2^-31
    TRACE_BATCHES = 6
    SAMPLED = 2  # rounds per transcript and attack whose scores are recomputed

    def __init__(self, mi, seed: int, workdir: str):
        self.mi = mi
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.p = rng.uniform(0.25, 0.75, self.D)
        self.var = self.p * (1.0 - self.p)
        # the binary record farthest from p in every coordinate maximises the
        # Mahalanobis distance over {0, 1}^d
        self.z = (self.p <= 0.5).astype(np.float64)
        dist = mi.ProductDistribution.bernoulli(self.p)
        self.dist = dist
        k = mi.SubsampledMean(self.RHO).k(self.N)
        maha = checks.mahalanobis2(self.z, self.p, self.var)
        noisy_maha = checks.mahalanobis2(self.z, self.p, self.var + self.GAMMA**2)
        # (label, mechanism, own LR, extra attacks, closed-form m, q)
        spec = [
            ("exact", mi.EmpiricalMean(), "lr_asymptotic", ["lr_exact_bernoulli"],
             maha / self.N, 1.0),
            ("noisy", mi.NoisyMean(self.GAMMA), "lr_noisy", [], noisy_maha / self.N, 1.0),
            ("subsampled", mi.SubsampledMean(self.RHO), "lr_subsampled", [], maha / k,
             k / self.N),
        ]
        self.k = k
        self.games = []
        for label, mech, own, extra, m, q in spec:
            attacks = [own] + extra + ["scalar_product"]
            self.games.append({
                "label": label,
                "mech": mech,
                "m": m,
                "q": q,
                "scores": {a: mi.make_score(a, dist=dist, n=self.N, mech=mech) for a in attacks},
                "theory": mi.tradeoff_curve(dist, self.z, self.N, mech),
                "pooled": {a: ([], []) for a in attacks},
            })
        self._last = None

    @property
    def rounds_per_batch(self) -> int:
        return self.ROUNDS * len(self.games)

    def batch(self, b: int) -> int:
        mi = self.mi
        last = []
        for j, g in enumerate(self.games):
            tr = mi.run_crafter(self.dist, g["mech"], self.N, self.z, self.ROUNDS,
                                _master_seed(self.seed, b, j), threads=self.THREADS)
            out = {}
            for attack, fn in g["scores"].items():
                rounds = mi.score_transcript(tr, fn, self.z)
                curve = mi.roc(rounds)
                if attack != "scalar_product":  # the closed form is the LR's curve
                    floor = checks.resolution_floor(tr.bits)
                    mi.sup_norm_gap(curve.points, g["theory"])
                    mi.vertical_gap(curve.points, g["theory"], alpha_min=floor)
                out[attack] = (np.array([r.score for r in rounds]), curve)
            last.append((tr, out))
        self._last = (b, last)
        return self.rounds_per_batch

    def verify_batch(self) -> None:
        b, last = self._last
        self._last = None
        for j, (g, (tr, out)) in enumerate(zip(self.games, last)):
            label = f"{self.name}/{g['label']} batch {b}"
            if g["label"] == "exact":
                checks.check_counts(tr.outputs, self.N, label)
            elif g["label"] == "subsampled":
                checks.check_counts(tr.outputs, self.k, label)
            picks = [(b * 7 + j + 13 * i) % self.ROUNDS for i in range(self.SAMPLED)]
            for attack, (scores, curve) in out.items():
                checks.check_roc_auc(scores, tr.bits, curve.auc, f"{label} {attack}")
                ref = [self._reference_score(attack, tr.outputs[t]) for t in picks]
                # the binomial route sums 2 * 5000 log-gamma differences, whose
                # rounding alone reaches ~1e-8 of the score
                rtol = 1e-6 if attack == "lr_exact_bernoulli" else 1e-9
                checks.check_scores(scores[picks], ref, f"{label} {attack}", rtol)
                g["pooled"][attack][0].append(scores)
                g["pooled"][attack][1].append(np.array(tr.bits))

    def _reference_score(self, attack, o) -> float:
        if attack == "lr_asymptotic":
            return checks.ref_lr_asymptotic(o, self.z, self.p, self.var, self.N)
        if attack == "lr_noisy":
            return checks.ref_lr_noisy(o, self.z, self.p, self.var, self.GAMMA, self.N)
        if attack == "lr_subsampled":
            return checks.ref_lr_subsampled(o, self.z, self.p, self.var, self.RHO, self.k)
        if attack == "lr_exact_bernoulli":
            return checks.ref_lr_exact_bernoulli(o, self.z, self.p, self.N)
        return checks.ref_scalar_product(o, self.z, self.p)

    def verify_run(self) -> list[str]:
        mi = self.mi
        notes = []
        for g in self.games:
            aucs = {}
            for attack, (s_parts, b_parts) in g["pooled"].items():
                scores = np.concatenate(s_parts)
                bits = np.concatenate(b_parts)
                label = f"{self.name}/{g['label']} {attack}, {len(bits)} rounds"
                curve = mi.roc([mi.ScoredRound(float(s), int(v)) for s, v in zip(scores, bits)])
                checks.check_roc_auc(scores, bits, curve.auc, label)
                aucs[attack] = curve.auc
                if attack == "scalar_product":
                    continue
                floor = checks.resolution_floor(bits)
                prog_gap = mi.vertical_gap(curve.points, g["theory"], alpha_min=floor)
                auc, want, gap = checks.check_power(scores, bits, g["m"], g["q"], label, prog_gap)
                notes.append(f"{label}: auc {auc:.4f} (closed form {want:.4f}), "
                             f"vertical gap {gap:.4f}")
            for attack, auc in aucs.items():
                if attack != "scalar_product":
                    checks.check_order(auc, aucs["scalar_product"], f"{self.name}/{g['label']}")
        return notes


class SimulateCli:
    """``mi-audit simulate`` on a d=50 mixed product, many rounds per call.

    It runs serially. At two workers, the ten-seed spread of its wall-clock
    throughput was 0.34 while its CPU time per round spread 0.02: every
    interpreter-lock hand-off waits for the other vCPU of a shared two-vCPU
    machine. Serially it also played 1.4 times as many rounds per second.
    """

    name = "simulate_many_rounds"
    D_BERNOULLI = 25
    D_GAUSSIAN = 25
    N = 100
    THREADS = 1
    ROUNDS = 20_000  # per invocation; FPR 1e-3 then has ~10 negatives beyond it
    TRACE_BATCHES = 4
    SAMPLED = 16

    def __init__(self, mi, seed: int, workdir: str):
        self.mi = mi
        self.seed = seed
        rng = np.random.default_rng(seed)
        d = self.D_BERNOULLI + self.D_GAUSSIAN
        is_bern = np.zeros(d, dtype=bool)
        is_bern[rng.permutation(d)[: self.D_BERNOULLI]] = True
        p = rng.uniform(0.25, 0.75, d)
        mean = rng.uniform(-1.0, 1.0, d)
        var = rng.uniform(0.5, 2.0, d)
        self.is_bern = is_bern
        self.mu = np.where(is_bern, p, mean)
        self.var = np.where(is_bern, p * (1.0 - p), var)
        # an in-distribution target: one seeded draw from the product itself
        draw = np.where(is_bern, (rng.random(d) < p).astype(np.float64),
                        mean + np.sqrt(var) * rng.standard_normal(d))
        self.z = draw
        self.m = checks.mahalanobis2(draw, self.mu, self.var) / self.N
        columns = [
            {"law": "bernoulli", "p": float(p[j])} if is_bern[j]
            else {"law": "gaussian", "mean": float(mean[j]), "var": float(var[j])}
            for j in range(d)
        ]
        config = {
            "dist": {"columns": columns},
            "mechanism": {"mechanism": "empirical_mean"},
            "n": self.N,
            "target": {"values": [float(v) for v in draw]},
            "score": "lr_asymptotic",
            "rounds": self.ROUNDS,
            "master_seed": 0,
            "threads": self.THREADS,
        }
        self.config_path = os.path.join(workdir, "simulate.json")
        with open(self.config_path, "w", encoding="utf-8") as f:
            json.dump(config, f)
        self.out_dir = os.path.join(workdir, "simulate_out")
        self.dist = mi.ProductDistribution.from_spec(config["dist"])
        self.tracer = None
        self.powers = []  # (auc, closed-form auc, vertical gap) per invocation
        self._last = None

    @property
    def rounds_per_batch(self) -> int:
        return self.ROUNDS

    def batch(self, b: int) -> int:
        master = _master_seed(self.seed, b, 0)
        argv = ["simulate", "--config", self.config_path, "--master-seed", str(master),
                "-o", self.out_dir]
        code = self.mi.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"mi-audit simulate exited with {code}")
        if self.tracer is not None:
            size = sum(e.stat().st_size for e in os.scandir(self.out_dir) if e.is_file())
            self.tracer.add("cli.artifact.bytes", size)
        self._last = (b, master)
        return self.ROUNDS

    def verify_batch(self) -> None:
        mi = self.mi
        b, master = self._last
        self._last = None
        label = f"{self.name} batch {b}"
        table = np.loadtxt(os.path.join(self.out_dir, "rounds.csv"), delimiter=",", skiprows=1)
        with open(os.path.join(self.out_dir, "summary.json"), encoding="utf-8") as f:
            summary = json.load(f)
        if table.shape != (self.ROUNDS, 3) or summary["rounds"] != self.ROUNDS:
            checks.fail(f"{label}: expected {self.ROUNDS} rounds, got {table.shape[0]}")
        scores, bits = table[:, 1], table[:, 2].astype(np.int64)
        if abs(summary["m_star"] - self.m) > 1e-9 * self.m:
            checks.fail(f"{label}: m_star {summary['m_star']!r} != {self.m!r}")
        checks.check_roc_auc(scores, bits, summary["auc"], label)
        self.powers.append(
            checks.check_power(scores, bits, self.m, 1.0, label, summary["vertical_gap"]))
        # recraft a sample of rounds from their (seed, round) streams and
        # recompute the CLI's score of each with plain numpy
        mech = mi.EmpiricalMean()
        picks = np.random.default_rng([self.seed, b]).choice(self.ROUNDS, self.SAMPLED,
                                                             replace=False)
        ref, got = [], []
        for t in picks:
            o, bit = mi.craft(self.dist, mech, self.N, self.z, mi.round_stream(master, int(t)))
            if bit != bits[t]:
                checks.fail(f"{label}: round {t} bit {bits[t]} but recrafted {bit}")
            checks.check_counts(o[self.is_bern][None, :], self.N, f"{label} round {t}")
            ref.append(checks.ref_lr_asymptotic(o, self.z, self.mu, self.var, self.N))
            got.append(scores[t])
        checks.check_scores(got, ref, f"{label} lr_asymptotic")

    def verify_run(self) -> list[str]:
        return [f"{self.name} batch {b}: auc {auc:.4f} (closed form {want:.4f}), "
                f"vertical gap {gap:.4f}" for b, (auc, want, gap) in enumerate(self.powers)]


class WhiteboxCanary:
    """Canary ranking and include/exclude SGD games on a toy logistic model,
    run serially."""

    name = "whitebox_canary"
    POOL = 513  # one canary out leaves 512 training rows: 8 steps of 64
    F = 10
    C = 2
    ETA = 0.01
    BATCH = 64
    REPS = 50  # per game and batch; a batch plays four games
    TRACE_BATCHES = 20

    def __init__(self, mi, seed: int, workdir: str):
        self.mi = mi
        self.seed = seed
        X, y = mi.make_blobs(self.POOL, self.F, self.C, center_scale=2.0, spread=1.0,
                             seed=seed)
        theta0 = np.random.default_rng([seed, 1]).standard_normal(self.F * self.C + self.C) * 0.5
        self.model = mi.ToyModel("logistic", f=self.F, c=self.C, theta=theta0)
        grads = mi.reference_gradients(self.model, X, y)
        pool_refs = mi.estimate_reference(grads, cov_mode="full")
        maha = np.array([mi.mahalanobis_score_est(g, pool_refs) for g in grads])
        self.grads = grads
        self.canaries = {"top": int(np.argmax(maha)), "bottom": int(np.argmin(maha))}
        self.games = {}
        for rank, idx in self.canaries.items():
            keep = np.arange(self.POOL) != idx
            refs = mi.estimate_reference(grads[keep], cov_mode="full")
            self.games[rank] = (X[keep], y[keep], (X[idx], y[idx]), refs)
        self.pooled = {(r, a): ([], []) for r in self.games for a in ("covariance", "scalar")}
        self._last = None

    @property
    def rounds_per_batch(self) -> int:
        return 4 * self.REPS

    def batch(self, b: int) -> int:
        mi = self.mi
        last = []
        for j, (rank, (Xk, yk, target, refs)) in enumerate(self.games.items()):
            for attack in ("covariance", "scalar"):
                game = mi.run_whitebox_game(
                    self.model, Xk, yk, target, eta=self.ETA, batch_size=self.BATCH,
                    refs=refs, attack=attack, reps=self.REPS,
                    master_seed=_master_seed(self.seed, b, j), threads=1,
                )
                last.append((rank, attack, game, mi.roc(game)))
        self._last = (b, last)
        return self.rounds_per_batch

    def verify_batch(self) -> None:
        b, last = self._last
        self._last = None
        for rank, attack, game, curve in last:
            scores = np.array([r.score for r in game])
            bits = np.array([r.b for r in game])
            checks.check_roc_auc(scores, bits, curve.auc,
                                 f"{self.name} batch {b} {rank} {attack}")
            self.pooled[rank, attack][0].append(scores)
            self.pooled[rank, attack][1].append(bits)

    def verify_run(self) -> list[str]:
        mi = self.mi
        checks.check_canaries(self.grads, self.canaries["top"], self.canaries["bottom"],
                              self.name)
        Xk, yk, _, _ = self.games["top"]
        trace = mi.train_sgd(self.model, (Xk, yk), self.ETA, self.BATCH, 1, seed=self.seed)
        checks.check_sgd_trace(trace.thetas, trace.batch_schedule, Xk, yk, self.ETA,
                               self.F, self.C, f"{self.name} train_sgd")
        aucs = {}
        for key, (s_parts, b_parts) in self.pooled.items():
            scores, bits = np.concatenate(s_parts), np.concatenate(b_parts)
            aucs[key] = checks.mann_whitney_auc(scores, bits)
        checks.check_order(aucs["top", "covariance"], aucs["top", "scalar"],
                           f"{self.name} top canary")
        if not aucs["top", "covariance"] >= aucs["bottom", "covariance"]:
            checks.fail(f"{self.name}: top canary covariance AUC "
                         f"{aucs['top', 'covariance']:.4f} below the bottom canary's "
                         f"{aucs['bottom', 'covariance']:.4f}")
        return [f"{self.name}: " + ", ".join(f"{r} {a} auc {v:.4f}"
                                             for (r, a), v in aucs.items())]


WORKLOADS = {w.name: w for w in (MeanRelease, SimulateCli, WhiteboxCanary)}
