"""Shared fixtures: the pinned audit scenario and crafted transcripts.

The heavy fixtures are session-scoped and lazy, so running a single unit
module never pays for full-scale game crafting. Acceptance tests share one
set of transcripts; re-scoring a transcript with a different attack is
cheap compared to crafting it.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from mi_audit import (
    EmpiricalMean,
    NoisyMean,
    ProductDistribution,
    SubsampledMean,
    effective_leakage,
    make_extreme_targets,
    make_score,
    roc,
    run_crafter,
    score_transcript,
    tradeoff_curve,
)
from mi_audit import whitebox

settings.register_profile(
    "pinned",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("pinned")


@pytest.fixture(autouse=True)
def _no_last_whitebox_game(monkeypatch):
    # run_whitebox_game keeps the last game in a module slot; every test
    # starts without one, so no test reads a game another test played
    monkeypatch.setattr(whitebox, "_last_game", None)


# modest worker count: the crafting path must behave identically with and
# without a thread pool, and this box has a single core anyway
THREADS = 2

N_ROWS = 1000
N_DIMS = 5000
N_ROUNDS = 1000


@pytest.fixture(scope="session")
def audit_dist():
    return ProductDistribution.bernoulli_uniform(N_DIMS, a=0.25, seed=101)


@pytest.fixture(scope="session")
def audit_targets(audit_dist):
    easy, hard = make_extreme_targets(audit_dist)
    med = (
        np.random.default_rng(202)
        .binomial(1, audit_dist.moments()[0])
        .astype(np.float64)
    )
    return {"easy": easy, "med": med, "hard": hard}


def _play(dist, mech, z, master_seed, score_name):
    t0 = time.perf_counter()
    transcript = run_crafter(
        dist, mech, N_ROWS, z, rounds=N_ROUNDS, master_seed=master_seed, threads=THREADS
    )
    craft_seconds = time.perf_counter() - t0
    fn = make_score(score_name, dist=dist, n=N_ROWS, mech=mech)
    rounds = score_transcript(transcript, fn, z)
    return SimpleNamespace(
        transcript=transcript,
        rounds=rounds,
        curve=roc(rounds),
        z=z,
        mech=mech,
        m_eff=effective_leakage(dist, z, N_ROWS, mech),
        # the closed-form curve of this mechanism; for a subsampled mean it
        # is the inclusion mixture, which no single m_eff can index
        theory=tradeoff_curve(dist, z, N_ROWS, mech),
        craft_seconds=craft_seconds,
    )


@pytest.fixture(scope="session")
def mean_games(audit_dist, audit_targets):
    """The nine crafted games behind the trade-off acceptance checks.

    Keys: easy/med/hard for the exact mean, noisy05/noisy10/noisy20 for
    Gaussian noise on the easy target, sub025/sub050/sub100 for
    subsampling on the easy target.
    """
    spec = {
        "easy": (EmpiricalMean(), "easy", 11, "lr_asymptotic"),
        "med": (EmpiricalMean(), "med", 12, "lr_asymptotic"),
        "hard": (EmpiricalMean(), "hard", 13, "lr_asymptotic"),
        "noisy05": (NoisyMean(0.5), "easy", 21, "lr_noisy"),
        "noisy10": (NoisyMean(1.0), "easy", 22, "lr_noisy"),
        "noisy20": (NoisyMean(2.0), "easy", 23, "lr_noisy"),
        "sub025": (SubsampledMean(0.25), "easy", 31, "lr_subsampled"),
        "sub050": (SubsampledMean(0.5), "easy", 32, "lr_subsampled"),
        "sub100": (SubsampledMean(1.0), "easy", 33, "lr_subsampled"),
    }
    return {
        key: _play(audit_dist, mech, audit_targets[tname], seed, score_name)
        for key, (mech, tname, seed, score_name) in spec.items()
    }


@pytest.fixture(scope="session")
def misspec_transcript(audit_dist, audit_targets):
    """A longer exact-mean game on the medium target for threshold checks.

    4000 rounds: the quantity under test is an advantage at a data-chosen
    threshold, whose sampling noise at 1000 rounds is comparable to the
    tolerance being verified.
    """
    return run_crafter(
        audit_dist,
        EmpiricalMean(),
        N_ROWS,
        audit_targets["med"],
        rounds=4000,
        master_seed=51,
        threads=THREADS,
    )


def staircase_tpr(points, alphas):
    """Upper-envelope TPR of an empirical ROC at the given FPR values."""
    points = np.asarray(points, dtype=np.float64)
    fpr = points[:, 0]
    tpr = np.maximum.accumulate(points[:, 1])
    idx = np.searchsorted(fpr, np.asarray(alphas, dtype=np.float64), side="right") - 1
    return tpr[np.maximum(idx, 0)]


# ---------------------------------------------------------------------------
# acceptance reporting

CRITERION_NOTES = {}


@pytest.fixture
def record_criterion():
    """Stores a detail line for the acceptance summary, keyed by number.

    Tests call this before their asserts so the summary carries the
    measured values even when a criterion fails.
    """

    def _record(num, detail):
        CRITERION_NOTES[num] = detail

    return _record


def _criterion_number(nodeid):
    name = nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return None
    digits = name[len("test_criterion_") :].split("_", 1)[0]
    return int(digits) if digits.isdigit() else None


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            num = _criterion_number(rep.nodeid)
            if num is None:
                continue
            ok = status == "passed"
            outcomes[num] = outcomes.get(num, True) and ok
    if not outcomes:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for num in sorted(outcomes):
        verdict = "PASS" if outcomes[num] else "FAIL"
        note = CRITERION_NOTES.get(num, "")
        tw.write_line(f"CRITERION {num:2d}: {verdict}  {note}".rstrip())
