"""Each benchmark check accepts the program's right answer and rejects a wrong one.

Run with ``python3 -m pytest bench -q`` from the repository root.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import mi_audit as mi  # noqa: E402
from checks import CheckFailed  # noqa: E402
from spans import Tracer, instrument, self_times  # noqa: E402


def _gaussian_game(m, rounds, seed):
    """Scores of the optimal test between N(-m/2, m) and N(m/2, m), whose
    ROC is the Gaussian trade-off curve of leakage score m."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, rounds)
    scores = rng.normal(np.where(bits == 1, m / 2, -m / 2), np.sqrt(m))
    return scores, bits


def _roc(scores, bits):
    return mi.roc([mi.ScoredRound(float(s), int(b)) for s, b in zip(scores, bits)])


# -- ROC ------------------------------------------------------------------------


def test_mann_whitney_equals_roc_auc_with_ties():
    rng = np.random.default_rng(3)
    scores = rng.integers(-20, 21, 2000) / 4.0  # heavy ties
    bits = rng.integers(0, 2, 2000)
    checks.check_roc_auc(scores, bits, _roc(scores, bits).auc, "ties")


def test_roc_check_rejects_shuffled_bits():
    scores, bits = _gaussian_game(1.0, 2000, 4)
    auc = _roc(scores, bits).auc
    shuffled = np.random.default_rng(5).permutation(bits)
    with pytest.raises(CheckFailed):
        checks.check_roc_auc(scores, shuffled, auc, "shuffled")


# -- attack power ---------------------------------------------------------------


@pytest.mark.parametrize("m", [0.5, 4.0])
def test_power_accepts_the_true_score(m):
    scores, bits = _gaussian_game(m, 20_000, 6)
    checks.check_power(scores, bits, m, 1.0, "true m")


@pytest.mark.parametrize("m, wrong", [(0.5, 2.0), (4.0, 1.0), (4.0, 12.0)])
def test_power_rejects_a_wrong_score(m, wrong):
    scores, bits = _gaussian_game(m, 20_000, 7)
    with pytest.raises(CheckFailed):
        checks.check_power(scores, bits, wrong, 1.0, "wrong m")


def test_power_rejects_shuffled_bits():
    scores, bits = _gaussian_game(4.0, 2000, 8)
    with pytest.raises(CheckFailed):
        checks.check_power(scores, np.random.default_rng(9).permutation(bits), 4.0, 1.0, "x")


def test_power_of_a_mixture_needs_its_inclusion_probability():
    # the target is in the release with probability q; otherwise the score
    # has the null law
    m, q, rounds = 9.0, 0.5, 20_000
    rng = np.random.default_rng(10)
    bits = rng.integers(0, 2, rounds)
    kept = (bits == 1) & (rng.random(rounds) < q)
    scores = rng.normal(np.where(kept, m / 2, -m / 2), np.sqrt(m))
    checks.check_power(scores, bits, m, q, "mixture")
    with pytest.raises(CheckFailed):
        checks.check_power(scores, bits, m, 1.0, "no mixture")


def test_program_gap_above_tolerance_is_rejected():
    scores, bits = _gaussian_game(1.0, 20_000, 11)
    with pytest.raises(CheckFailed):
        checks.check_power(scores, bits, 1.0, 1.0, "gap", program_gap=0.5)


def test_order_check():
    checks.check_order(0.90, 0.91, "close")
    with pytest.raises(CheckFailed):
        checks.check_order(0.80, 0.90, "beaten")


# -- crafted releases -----------------------------------------------------------


def _bernoulli_transcript(mech, n=50, d=40, rounds=20):
    p = np.random.default_rng(12).uniform(0.25, 0.75, d)
    dist = mi.ProductDistribution.bernoulli(p)
    z = (p <= 0.5).astype(np.float64)
    return p, z, dist, mi.run_crafter(dist, mech, n, z, rounds, master_seed=13, threads=1)


def test_counts_of_exact_and_subsampled_means():
    _, _, _, tr = _bernoulli_transcript(mi.EmpiricalMean())
    checks.check_counts(tr.outputs, 50, "exact")
    _, _, _, tr = _bernoulli_transcript(mi.SubsampledMean(0.5))
    checks.check_counts(tr.outputs, 25, "subsampled")


def test_counts_reject_wrong_rows_and_noise():
    _, _, _, tr = _bernoulli_transcript(mi.EmpiricalMean())
    with pytest.raises(CheckFailed):
        checks.check_counts(tr.outputs, 49, "wrong n")
    _, _, _, tr = _bernoulli_transcript(mi.NoisyMean(1.0))
    with pytest.raises(CheckFailed):
        checks.check_counts(tr.outputs, 50, "noisy")
    with pytest.raises(CheckFailed):
        checks.check_counts(np.full((1, 3), 1.2), 5, "above n")


# -- scores ---------------------------------------------------------------------


def test_scores_match_their_recomputation():
    n = 50
    p, z, dist, tr = _bernoulli_transcript(mi.EmpiricalMean(), n=n)
    var = p * (1 - p)
    for name, ref, rtol in (
        ("lr_asymptotic", lambda o: checks.ref_lr_asymptotic(o, z, p, var, n), 1e-9),
        ("lr_exact_bernoulli", lambda o: checks.ref_lr_exact_bernoulli(o, z, p, n), 1e-6),
        ("scalar_product", lambda o: checks.ref_scalar_product(o, z, p), 1e-9),
        ("lr_noisy", lambda o: checks.ref_lr_noisy(o, z, p, var, 1.0, n), 1e-9),
    ):
        fn = mi.make_score(name, dist=dist, n=n, mech=mi.NoisyMean(1.0))
        got = [fn(o, z) for o in tr.outputs]
        checks.check_scores(got, [ref(o) for o in tr.outputs], name, rtol)
    fn = mi.make_score("lr_subsampled", dist=dist, n=n, rho=0.5)
    got = [fn(o, z) for o in tr.outputs]
    want = [checks.ref_lr_subsampled(o, z, p, var, 0.5, 25) for o in tr.outputs]
    checks.check_scores(got, want, "lr_subsampled")


def test_score_check_rejects_wrong_scores():
    n = 50
    p, z, dist, tr = _bernoulli_transcript(mi.EmpiricalMean(), n=n)
    fn = mi.make_score("lr_exact_bernoulli", dist=dist, n=n)
    got = np.array([fn(o, z) for o in tr.outputs])
    with pytest.raises(CheckFailed):
        checks.check_scores(got, [checks.ref_lr_exact_bernoulli(o, z, p, n + 1)
                                  for o in tr.outputs], "wrong n", 1e-6)
    with pytest.raises(CheckFailed):
        checks.check_scores(got + 1e-4, [checks.ref_lr_exact_bernoulli(o, z, p, n)
                                         for o in tr.outputs], "perturbed", 1e-6)
    with pytest.raises(CheckFailed):
        checks.check_scores([-np.inf], [-1.0], "sentinel")


# -- white-box ------------------------------------------------------------------


def _toy():
    X, y = mi.make_blobs(129, 4, 2, seed=14)
    theta0 = np.random.default_rng(15).standard_normal(10) * 0.5
    return X, y, mi.ToyModel("logistic", f=4, c=2, theta=theta0)


def test_sgd_trace_check_accepts_train_sgd_and_rejects_a_perturbed_step():
    X, y, model = _toy()
    trace = mi.train_sgd(model, (X, y), 0.05, 32, 1, seed=16)
    checks.check_sgd_trace(trace.thetas, trace.batch_schedule, X, y, 0.05, 4, 2, "sgd")
    bad = trace.thetas.copy()
    bad[2, 0] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_sgd_trace(bad, trace.batch_schedule, X, y, 0.05, 4, 2, "perturbed")
    with pytest.raises(CheckFailed):
        checks.check_sgd_trace(trace.thetas, trace.batch_schedule, X, y, 0.04, 4, 2, "eta")


def test_canary_check_matches_the_program_and_rejects_a_swap():
    X, y, model = _toy()
    grads = mi.reference_gradients(model, X, y)
    refs = mi.estimate_reference(grads, cov_mode="full")
    maha = [mi.mahalanobis_score_est(g, refs) for g in grads]
    top, bottom = int(np.argmax(maha)), int(np.argmin(maha))
    checks.check_canaries(grads, top, bottom, "canaries")
    with pytest.raises(CheckFailed):
        checks.check_canaries(grads, bottom, top, "swapped")


# -- tracing --------------------------------------------------------------------


def test_self_time_merges_overlapping_children():
    # span 0 is a parent [0, 10]; children 1 and 2 overlap on [2, 6] and
    # [4, 8] (two threads); child 3 of span 1 covers [3, 4]
    start = np.array([0.0, 2.0, 4.0, 3.0])
    end = np.array([10.0, 6.0, 8.0, 4.0])
    parent = np.array([-1, 0, 0, 1])
    np.testing.assert_allclose(self_times(start, end, parent), [4.0, 3.0, 4.0, 1.0])


def test_instrument_counts_calls_and_restores_the_package():
    original = (mi.run_crafter, mi.game.craft, mi.ProductDistribution.sample_dataset)
    tracer = Tracer()
    restore = instrument(mi, tracer)
    try:
        _bernoulli_transcript(mi.EmpiricalMean(), rounds=6)
    finally:
        restore()
    assert (mi.run_crafter, mi.game.craft, mi.ProductDistribution.sample_dataset) == original
    values = tracer.layer_metrics(6, 1.0)
    assert values["game.craft.calls"] == 6
    assert values["dist.sample_dataset.calls"] == 6
    assert values["game.transcript.bytes"] == 6 * 40 * 8 + 6
    assert values["game.run_crafter.wall_s"] > 0.0
