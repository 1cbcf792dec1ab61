"""Correctness checks computed apart from mi_audit.

Each check recomputes a quantity from first principles (numpy, and
scipy.stats for the normal and binomial laws) and raises
:class:`CheckFailed` when the program's output disagrees. Nothing here
imports mi_audit and nothing compares against stored output, so a check
holds for any seed and any round count; tolerances that depend on sampling
noise are set from the round count.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

# One-sided error rate per sampling-noise check. At 1e-6 a correct program
# fails a run's dozen checks with probability about 1e-5.
DELTA = 1e-6
# Room for the distance between the finite-n game and the asymptotic curve,
# on top of the sampling noise.
MODEL_SLACK = 0.02
ORDER_SLACK = 0.02


class CheckFailed(AssertionError):
    """A program output disagrees with its independent recomputation."""


def fail(msg: str):
    raise CheckFailed(msg)


# -- ROC ------------------------------------------------------------------------


def mann_whitney_auc(scores, bits) -> float:
    """P(score_in > score_out) + P(tie) / 2 from mid-ranks, the
    Mann-Whitney count; equal to the trapezoidal AUC of the ROC staircase
    with tied scores joined into one step."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(bits).astype(bool)
    n1 = int(y.sum())
    n0 = len(y) - n1
    if n0 == 0 or n1 == 0:
        fail("Mann-Whitney AUC needs both classes")
    ranks = stats.rankdata(s, method="average")
    u = float(ranks[y].sum()) - n1 * (n1 + 1) / 2.0
    return u / (n1 * n0)


def check_roc_auc(scores, bits, auc: float, label: str) -> None:
    """The program's ROC AUC equals the Mann-Whitney AUC."""
    ref = mann_whitney_auc(scores, bits)
    if not abs(ref - auc) <= 1e-9:
        fail(f"{label}: roc auc {auc!r} != Mann-Whitney {ref!r}")


# -- attack power against the closed form ---------------------------------------


def gaussian_power(m: float, q: float, alpha):
    """(1 - q) alpha + q Phi(Phi^-1(alpha) + sqrt(m)), via scipy.stats.norm."""
    a = np.asarray(alpha, dtype=np.float64)
    return (1.0 - q) * a + q * stats.norm.cdf(stats.norm.ppf(a) + np.sqrt(m))


def closed_form_auc(m: float, q: float = 1.0) -> float:
    """AUC of the optimal attack: Phi(sqrt(m/2)) mixed with 1/2 at weight 1 - q."""
    return (1.0 - q) / 2.0 + q * float(stats.norm.cdf(np.sqrt(m / 2.0)))


def auc_tolerance(auc: float, n0: int, n1: int) -> float:
    """Sampling tolerance of an empirical AUC: z * sqrt(A(1-A)/min(n0, n1)),
    the Birnbaum-Klose bound on its variance, plus MODEL_SLACK."""
    z = float(stats.norm.isf(DELTA))
    var = max(auc * (1.0 - auc), 1.0 / (4.0 * min(n0, n1)))
    return z * np.sqrt(var / min(n0, n1)) + MODEL_SLACK


def resolution_floor(bits) -> float:
    """Smallest alpha at which a staircase ROC has ten rounds behind it."""
    y = np.asarray(bits).astype(bool)
    return min(1.0, 10.0 / max(1, min(int(y.sum()), int((~y).sum()))))


def envelope_tpr(scores, bits, alphas) -> np.ndarray:
    """Largest TPR among thresholds whose FPR does not exceed each alpha."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(bits).astype(bool)
    pos = np.sort(s[y])
    neg = np.sort(s[~y])
    thresholds = np.unique(s)[::-1]  # high to low
    fpr = (len(neg) - np.searchsorted(neg, thresholds, side="left")) / len(neg)
    tpr = (len(pos) - np.searchsorted(pos, thresholds, side="left")) / len(pos)
    fpr = np.concatenate([[0.0], fpr])
    tpr = np.concatenate([[0.0], tpr])
    idx = np.searchsorted(fpr, np.asarray(alphas, dtype=np.float64), side="right") - 1
    return np.maximum.accumulate(tpr)[np.maximum(idx, 0)]


def vertical_gap(scores, bits, m: float, q: float, alpha_min: float) -> float:
    """max over alpha >= alpha_min of |TPR(alpha) - power(alpha)|."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(bits).astype(bool)
    neg = np.sort(s[~y])
    fprs = np.arange(len(neg) + 1) / len(neg)
    alphas = np.unique(np.concatenate([fprs[fprs >= alpha_min], np.linspace(alpha_min, 1.0, 257)]))
    return float(np.max(np.abs(envelope_tpr(s, y, alphas) - gaussian_power(m, q, alphas))))


def vertical_tolerance(m: float, q: float, n0: int, n1: int, alpha_min: float) -> float:
    """How far an honest staircase may stray from the curve at alpha >= alpha_min.

    The DKW inequality puts every empirical TPR within e1 of the true one and
    every empirical FPR within e0, and a staircase step adds 1/n0 to the
    horizontal error; the curve's rise over that horizontal error is added
    to e1.
    """
    def dkw(n):
        return float(np.sqrt(np.log(2.0 / DELTA) / (2.0 * n)))

    e0 = dkw(n0) + 1.0 / n0
    e1 = dkw(n1)
    a = np.linspace(alpha_min, 1.0, 2049)
    up = gaussian_power(m, q, np.minimum(1.0, a + e0)) - gaussian_power(m, q, a)
    down = gaussian_power(m, q, a) - gaussian_power(m, q, np.maximum(0.0, a - e0))
    return e1 + float(max(up.max(), down.max())) + MODEL_SLACK


def check_power(scores, bits, m: float, q: float, label: str, program_gap: float | None = None):
    """The game's AUC and largest vertical gap match the closed form of
    leakage score m and inclusion probability q within sampling noise.
    Returns (auc, expected auc, vertical gap)."""
    y = np.asarray(bits).astype(bool)
    n1 = int(y.sum())
    n0 = len(y) - n1
    auc = mann_whitney_auc(scores, y)
    expected = closed_form_auc(m, q)
    tol = auc_tolerance(expected, n0, n1)
    if not abs(auc - expected) <= tol:
        fail(f"{label}: AUC {auc:.4f} vs closed form {expected:.4f} (tolerance {tol:.4f})")
    floor = resolution_floor(y)
    gap = vertical_gap(scores, y, m, q, floor)
    vtol = vertical_tolerance(m, q, n0, n1, floor)
    if not gap <= vtol:
        fail(f"{label}: vertical gap {gap:.4f} above tolerance {vtol:.4f}")
    if program_gap is not None and not program_gap <= vtol:
        fail(f"{label}: program's vertical gap {program_gap:.4f} above tolerance {vtol:.4f}")
    return auc, expected, gap


def check_order(auc_lr: float, auc_scalar: float, label: str) -> None:
    """The likelihood-ratio attack is not beaten by the scalar product."""
    if not auc_lr >= auc_scalar - ORDER_SLACK:
        fail(f"{label}: LR AUC {auc_lr:.4f} below scalar AUC {auc_scalar:.4f} - {ORDER_SLACK}")


# -- closed-form leakage scores -------------------------------------------------


def mahalanobis2(z, mu, var) -> float:
    u = np.asarray(z, dtype=np.float64) - mu
    return float(np.sum(u * u / var))


# -- crafted releases -----------------------------------------------------------


def check_counts(releases, rows: int, label: str) -> None:
    """rows * release is an integer count in [0, rows] in every coordinate,
    as a mean of `rows` binary values must be."""
    c = np.asarray(releases, dtype=np.float64) * rows
    r = np.rint(c)
    worst = float(np.max(np.abs(c - r)))
    if not worst <= 1e-6:
        fail(f"{label}: {rows} * release is not an integer (off by {worst:.3g})")
    if r.min() < 0 or r.max() > rows:
        fail(f"{label}: count outside [0, {rows}]")


# -- scores ---------------------------------------------------------------------


def ref_lr_asymptotic(o, z, mu, var, n: int) -> float:
    u = np.asarray(z, dtype=np.float64) - mu
    return float(np.sum(u * (np.asarray(o) - mu) / var) - np.sum(u * u / var) / (2.0 * n))


def ref_lr_noisy(o, z, mu, var, gamma, n: int) -> float:
    return ref_lr_asymptotic(o, z, mu, var + np.square(gamma), n)


def ref_lr_subsampled(o, z, mu, var, rho: float, k: int) -> float:
    sd = np.sqrt(var)
    diff = np.asarray(o) - mu
    d_out = np.sqrt(k) * diff / sd
    d_in = (k * diff + (mu - z)) / (np.sqrt(k - 1.0) * sd)
    q = d_out**2 - d_in**2
    return float(np.sum(rho / 2.0 * q + rho * (1.0 - rho) / 8.0 * q**2 + rho / (2.0 * k)))


def ref_scalar_product(o, z, z_ref) -> float:
    return float(np.sum((np.asarray(z) - z_ref) * np.asarray(o)))


def ref_lr_exact_bernoulli(o, z, p, n: int) -> float:
    """log P(counts | target planted) - log P(counts | target absent).

    Absent: each column count c_j ~ Binomial(n, p_j). Planted: one row is
    the target, so c_j - z_j ~ Binomial(n - 1, p_j).
    """
    c = np.rint(np.asarray(o, dtype=np.float64) * n)
    zi = np.asarray(z, dtype=np.float64)
    with np.errstate(divide="ignore"):
        present = stats.binom.logpmf(c - zi, n - 1, p)
        absent = stats.binom.logpmf(c, n, p)
    return float(np.sum(present - absent))


def check_scores(program, reference, label: str, rtol: float = 1e-9) -> None:
    """Program scores equal reference scores (infinities must match exactly)."""
    a = np.asarray(program, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    inf = np.isinf(a) | np.isinf(b)
    if not np.array_equal(a[inf], b[inf]):
        fail(f"{label}: infinite scores differ")
    scale = np.maximum(1.0, np.abs(b[~inf]))
    err = np.abs(a[~inf] - b[~inf]) / scale
    if err.size and not float(err.max()) <= rtol:
        fail(f"{label}: score differs from its recomputation by {float(err.max()):.3g}")


# -- white-box ------------------------------------------------------------------


def softmax_grads(theta, X, y, f: int, c: int) -> np.ndarray:
    """Per-example cross-entropy gradients of a softmax model whose
    parameters are [W (c, f) row-major, b (c)]."""
    W = np.asarray(theta[: f * c]).reshape(c, f)
    b = np.asarray(theta[f * c :])
    logits = X @ W.T + b
    logits = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(len(y)), y] -= 1.0
    gw = p[:, :, None] * X[:, None, :]
    return np.hstack([gw.reshape(len(X), -1), p])


def check_sgd_trace(thetas, schedule, X, y, eta: float, f: int, c: int, label: str) -> None:
    """theta_{t+1} = theta_t - eta * mean(grad of batch t) at every step."""
    for t in range(len(schedule)):
        batch = schedule[t]
        g = softmax_grads(thetas[t], X[batch], y[batch], f, c).mean(axis=0)
        want = thetas[t] - eta * g
        err = float(np.max(np.abs(thetas[t + 1] - want)))
        if not err <= 1e-10 * max(1.0, float(np.max(np.abs(want)))):
            fail(f"{label}: SGD step {t} differs from recomputation by {err:.3g}")


def brute_force_mahalanobis(G) -> np.ndarray:
    """(g - mean)^T C^-1 (g - mean) per row, C the ridged uncentered second
    moment that an auditor estimates in one pass, solved densely."""
    G = np.asarray(G, dtype=np.float64)
    n0, d = G.shape
    mu = G.mean(axis=0)
    C = G.T @ G / n0
    C = C + 1e-6 * np.trace(C) / d * np.eye(d)
    U = G - mu
    return np.einsum("ij,ij->i", U, np.linalg.solve(C, U.T).T)


def check_canaries(G, top: int, bottom: int, label: str) -> None:
    """The chosen top and bottom canaries are the brute-force extremes."""
    maha = brute_force_mahalanobis(G)
    if top != int(np.argmax(maha)) or bottom != int(np.argmin(maha)):
        fail(
            f"{label}: canaries ({top}, {bottom}) but brute force ranks "
            f"({int(np.argmax(maha))}, {int(np.argmin(maha))})"
        )
