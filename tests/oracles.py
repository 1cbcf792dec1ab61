"""Independent reference oracles for the test-suite.

Every function here recomputes a quantity the library also computes, but by
a different route: a different package (mpmath, scipy.stats), exhaustive
enumeration, or a brute-force algorithm. The frozen decimal constants were
produced by a 40-digit mpmath session and pinned before the tests that
consume them were written. Nothing in this file imports the library under
test, except average_round_ref: it plays the average-target game one round
at a time through the library's public one-round calls, the exact reference
for the chunked game.
"""

import math

import mpmath as mp
import numpy as np
from scipy import linalg, stats
from scipy.spatial import cKDTree
from scipy.special import logsumexp, ndtr, ndtri

mp.mp.dps = 40

# ---------------------------------------------------------------------------
# frozen high-precision constants (40-digit mpmath, quoted to 25 digits)

LEAKAGE_M4 = "0.6826894921370858971704651"
LEAKAGE_M886 = "0.8633249380580219946059185"
POWER_M4_A05 = "0.6387600313123350643197181"
POWER_M311_A01 = "0.2867757794527427924417646"
THRESH_M4_A05 = "1.289707253902945429727698"
GDP_M4_E1 = "0.5098616600546701530762388"
GDP_M2_E0 = "0.5204998778130465376827467"
PHI_AT_1 = "0.8413447460685429485852325"
PHI_INV_P975 = "1.959963984540054235524594"


# ---------------------------------------------------------------------------
# normal distribution, trade-off formulas (mpmath route)

def normal_cdf_ref(x):
    return float(mp.erfc(-mp.mpf(x) / mp.sqrt(2)) / 2)


def normal_quantile_ref(p):
    p = mp.mpf(p)
    if p == 0:
        return float("-inf")
    if p == 1:
        return float("inf")
    return float(mp.sqrt(2) * mp.erfinv(2 * p - 1))


def leakage_ref(m):
    r = mp.sqrt(mp.mpf(m)) / 2
    return float(mp.erfc(-r / mp.sqrt(2)) / 2 - mp.erfc(r / mp.sqrt(2)) / 2)


def power_ref(m, alpha):
    q = mp.mpf(normal_quantile_ref(alpha))
    return float(mp.erfc(-(q + mp.sqrt(mp.mpf(m))) / mp.sqrt(2)) / 2)


def gdp_delta_ref(m, eps):
    m, eps = mp.mpf(m), mp.mpf(eps)
    rm = mp.sqrt(m)

    def ncdf(x):
        return mp.erfc(-x / mp.sqrt(2)) / 2

    return float(ncdf(-eps / rm + rm / 2) - mp.e**eps * ncdf(-eps / rm - rm / 2))


def gaussian_tv_ref(mu1, mu2, sigma):
    # total variation between N(mu1, sigma^2) and N(mu2, sigma^2); the
    # densities cross at the midpoint, so TV = Phi(delta/2) - Phi(-delta/2)
    # with delta = |mu1 - mu2| / sigma
    d = mp.mpf(abs(mu1 - mu2)) / mp.mpf(sigma)

    def ncdf(x):
        return mp.erfc(-x / mp.sqrt(2)) / 2

    return float(ncdf(d / 2) - ncdf(-d / 2))


# ---------------------------------------------------------------------------
# exact Bernoulli likelihood ratio (scipy.stats route, with explicit counts)

def binomial_log_ratio(mu_hat, z, mu, n):
    """Exhaustive log-LR for the empirical mean of n product-Bernoulli rows.

    Per coordinate, the release is k/n with k successes. Without the target
    the count is Binomial(n, mu_j); with the planted row the count is
    z_j + Binomial(n-1, mu_j). Returns the sum of per-coordinate log ratios,
    with -inf when the release is impossible under the planted hypothesis.
    """
    mu_hat = np.atleast_1d(np.asarray(mu_hat, dtype=np.float64))
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    mu = np.atleast_1d(np.asarray(mu, dtype=np.float64))
    total = 0.0
    for j in range(mu_hat.size):
        k = round(mu_hat[j] * n)
        log_p0 = stats.binom.logpmf(k, n, mu[j])
        log_p1 = stats.binom.logpmf(k - int(z[j]), n - 1, mu[j])
        total += log_p1 - log_p0
    return float(total)


# ---------------------------------------------------------------------------
# ROC / advantage (brute-force routes)

def pairwise_auc(scores, bits):
    """AUC as the probability a positive outranks a negative, ties at 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    bits = np.asarray(bits)
    pos = scores[bits == 1]
    neg = scores[bits == 0]
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return float(wins / (pos.size * neg.size))


def rates_at_threshold(scores, bits, tau):
    """(fpr, tpr) of the strict-inequality test score > tau."""
    scores = np.asarray(scores, dtype=np.float64)
    bits = np.asarray(bits)
    pos = scores[bits == 1]
    neg = scores[bits == 0]
    return float(np.mean(neg > tau)), float(np.mean(pos > tau))


def best_advantage_bruteforce(scores, bits):
    """Max of |tpr - fpr| over every threshold between adjacent scores."""
    scores = np.asarray(scores, dtype=np.float64)
    uniq = np.unique(scores[np.isfinite(scores)])
    taus = [-np.inf]
    taus.extend((uniq[:-1] + uniq[1:]) / 2)
    taus.extend(uniq)  # strict > drops exactly the tied group
    best = 0.0
    for t in taus:
        fpr, tpr = rates_at_threshold(scores, bits, t)
        best = max(best, abs(tpr - fpr))
    return best


def roc_points_ref(scores, bits):
    """ROC vertices (0, 0), then for each distinct score from the top the
    share of each class scoring at least that much, counted by comparing
    every score with every distinct value."""
    scores = np.asarray(scores, dtype=np.float64)
    bits = np.asarray(bits)
    neg, pos = scores[bits == 0], scores[bits == 1]
    values = np.unique(scores)[::-1]
    counts = [np.zeros((1, 2), dtype=np.int64)]
    for lo in range(0, len(values), 256):
        v = values[lo:lo + 256, None]
        counts.append(np.column_stack([(neg >= v).sum(axis=1), (pos >= v).sum(axis=1)]))
    counts = np.vstack(counts)
    return np.column_stack([counts[:, 0] / len(neg), counts[:, 1] / len(pos)])


def vertical_gap_ref(points, m, q, alpha_min):
    """Largest |envelope - power| at every fpr >= alpha_min and at 513 even
    steps from alpha_min to 1, all in one sorted array of distinct alphas;
    the envelope is the running maximum of tpr up to the last point with
    fpr <= alpha, the power (1 - q) alpha + q Phi(Phi^-1(alpha) + sqrt(m))
    with the corner alpha in {0, 1} read as Phi(Phi^-1(alpha))."""
    pts = np.asarray(points, dtype=np.float64)
    fpr, tpr = pts[:, 0], pts[:, 1]
    alphas = np.unique(np.concatenate([fpr[fpr >= alpha_min], np.linspace(alpha_min, 1.0, 513)]))
    idx = np.clip(np.searchsorted(fpr, alphas, side="right") - 1, 0, len(fpr) - 1)
    env = np.maximum.accumulate(tpr)[idx]
    u = ndtri(alphas)
    with np.errstate(invalid="ignore"):
        power = np.where(np.isinf(u), ndtr(u), ndtr(u + np.sqrt(m)))
    return float(np.max(np.abs(env - ((1.0 - q) * alphas + q * power))))


# ---------------------------------------------------------------------------
# Mahalanobis selection (explicit-inverse route)

def mahalanobis_rank_bruteforce(candidates, ref_rows, cov_mode, centered=False, ridge=0.0):
    """Index and score of the candidate with the largest estimated score.

    Uses numpy explicit inversion rather than factorized solves, and its own
    moment formulas.
    """
    ref_rows = np.asarray(ref_rows, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    mu0 = ref_rows.mean(axis=0)
    base = ref_rows - mu0 if centered else ref_rows
    if cov_mode == "diagonal":
        var = np.mean(base**2, axis=0) + ridge
        scores = [float(np.sum((c - mu0) ** 2 / var)) for c in candidates]
    else:
        cov = base.T @ base / ref_rows.shape[0] + ridge * np.eye(ref_rows.shape[1])
        inv = np.linalg.inv(cov)
        scores = [float((c - mu0) @ inv @ (c - mu0)) for c in candidates]
    idx = int(np.argmax(scores))
    return idx, scores[idx]


# ---------------------------------------------------------------------------
# gradients (finite-difference route)

def finite_diff_grad(f, x, h=1e-6):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def softmax_xent_ref(theta, x, y, f, c):
    """Cross-entropy of a linear softmax classifier, independent layout math."""
    W = np.asarray(theta[: f * c], dtype=np.float64).reshape(c, f)
    b = np.asarray(theta[f * c :], dtype=np.float64)
    logits = W @ np.asarray(x, dtype=np.float64) + b
    shifted = logits - logits.max()
    return float(np.log(np.sum(np.exp(shifted))) - shifted[int(y)])


def half_mse_ref(theta, x, y, f):
    w = np.asarray(theta[:f], dtype=np.float64)
    b = float(theta[f])
    r = float(np.dot(w, np.asarray(x, dtype=np.float64)) + b - y)
    return 0.5 * r * r


# ---------------------------------------------------------------------------
# white-box training and attacks, one gradient call per step (scipy route)

def toy_grad_batch(model, X, y, theta):
    """Per-example gradients of a ToyModel, one row per example, with the
    softmax normalised by scipy.special.logsumexp."""
    theta = np.asarray(theta, dtype=np.float64)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    f, c = model.f, model.c
    if model.arch == "linear":
        y = np.asarray(np.atleast_1d(y), dtype=np.float64)
        delta = (X @ theta[:f] + theta[f] - y)[:, None]
    else:
        y = np.atleast_1d(y)
        logits = X @ theta[: f * c].reshape(c, f).T + theta[f * c :]
        delta = np.exp(logits - logsumexp(logits, axis=1, keepdims=True))
        delta[np.arange(len(y)), y] -= 1.0
    weight_part = (delta[:, :, None] * X[:, None, :]).reshape(len(X), -1)
    return np.hstack([weight_part, delta])


def train_sgd_steps(model, data, eta, batch_size, epochs, clip=None, noise=None, seed=0):
    """Every iterate of mini-batch SGD, shape (steps + 1, d_p), taking each
    step's per-example gradients with toy_grad_batch. Same shuffles, drops,
    clipping and noise draws as the library's train_sgd."""
    X, y = data
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    theta = model.theta.copy()
    thetas = [theta.copy()]
    for _ in range(epochs):
        perm = rng.permutation(n)
        for s in range(n // batch_size):
            batch = perm[s * batch_size : (s + 1) * batch_size]
            grads = toy_grad_batch(model, X[batch], y[batch], theta)
            if clip is not None and np.isfinite(clip):
                norms = np.linalg.norm(grads, axis=1)
                factors = np.minimum(1.0, clip / np.maximum(norms, 1e-300))
                grads = grads * factors[:, None]
            g = grads.mean(axis=0)
            if noise:
                g = g + rng.standard_normal(model.d_p) * (noise * clip)
            theta = theta - eta * g
            thetas.append(theta.copy())
    return np.array(thetas)


def whitebox_attack_steps(model, thetas, eta, batch_size, target, refs, attack, param_slice=None):
    """Sum of per-step white-box attack scores, taking the target's gradient
    with toy_grad_batch at each pre-step iterate, one call per step.
    ``param_slice`` is a (start, stop) pair or None. A full reference
    covariance whitens both gradients with scipy.linalg.solve_triangular on
    the Cholesky factor of c0 + ridge I."""
    x, y = target
    sl = slice(0, model.d_p) if param_slice is None else slice(*param_slice)
    steps = len(thetas) - 1
    if eta == 0.0:
        g_batches = np.zeros((steps, model.d_p))
    else:
        g_batches = (thetas[:-1] - thetas[1:]) / eta
    full = refs.c0.ndim == 2
    if full:
        factor = linalg.cholesky(refs.c0 + refs.ridge * np.eye(refs.d), lower=True)
    else:
        var = refs.c0 + refs.ridge
    total = 0.0
    for t in range(steps):
        g_star = toy_grad_batch(model, x, y, thetas[t])[0][sl]
        g_batch = g_batches[t][sl]
        if attack == "scalar":
            total += float(np.dot(g_star, g_batch))
            continue
        u, v = g_star - refs.mu0, g_batch - refs.mu0
        if full:
            wu = linalg.solve_triangular(factor, u, lower=True)
            wv = linalg.solve_triangular(factor, v, lower=True)
            cross, quad = float(np.dot(wu, wv)), float(np.dot(wu, wu))
        else:
            cross, quad = float(np.dot(u / var, v)), float(np.dot(u / var, u))
        total += cross - quad / (2.0 * batch_size)
    return total


def whitebox_game_reps(model, X, y, target, refs, attack, reps, master_seed, batch_size,
                       param_slice=None, **sgd):
    """(score, bit) of each rep of the include/exclude game, one rep at a
    time: rep r keys a Philox generator by (master_seed, r), flips its coin,
    on heads writes the target over a copy of the row it draws, then trains
    with train_sgd_steps on that generator and scores with
    whitebox_attack_steps. ``sgd`` holds eta, epochs, clip and noise."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    out = []
    for r in range(reps):
        rng = np.random.Generator(np.random.Philox(key=np.array([master_seed, r], dtype=np.uint64)))
        b = int(rng.integers(0, 2))
        X_r, y_r = X, y
        if b:
            j = int(rng.integers(0, len(X)))
            X_r, y_r = X.copy(), y.copy()
            X_r[j], y_r[j] = target
        thetas = train_sgd_steps(model, (X_r, y_r), batch_size=batch_size, seed=rng, **sgd)
        score = whitebox_attack_steps(model, thetas, sgd["eta"], batch_size, target, refs, attack,
                                      param_slice)
        out.append((score, b))
    return out


# ---------------------------------------------------------------------------
# row-level game crafting (materialise the dataset, then apply the mechanism)

def craft_rows(dist, mech, n, z, rng):
    """One game round built from an explicit (n, d) dataset.

    Draws the dataset with dist.sample_dataset, then the membership coin;
    on heads a uniformly chosen row is replaced by the target (upcasting the
    dataset when the target does not fit its dtype), and mech.apply
    releases. Returns (release, bit). The library crafts from column sums
    instead; the two agree in law, not in value.
    """
    zv = np.asarray(z, dtype=np.float64)
    D = dist.sample_dataset(n, rng)
    b = int(rng.integers(0, 2))
    if b == 1:
        j = int(rng.integers(0, n))
        cast = zv.astype(D.dtype)
        if np.array_equal(cast.astype(np.float64), zv):
            D[j] = cast
        else:
            D = D.astype(np.float64)
            D[j] = zv
    return mech.apply(D, rng), b


def average_round_rows(dist, mech, n, score, rng):
    """One round of the average-target game built from an explicit dataset.

    Draws the coin, then n rows; on heads the target is a uniformly chosen
    one of those rows, on tails an independent draw. mech.apply releases
    the rows and the score is taken against the round's own target.
    Returns (score, bit). The library plants a drawn target with its
    column-sum crafter instead; the two agree in law, not in value.
    """
    b = int(rng.integers(0, 2))
    D = dist.sample_dataset(n, rng)
    if b == 1:
        z = D[int(rng.integers(0, n))].astype(np.float64)
    else:
        z = dist.sample_dataset(1, rng)[0].astype(np.float64)
    return float(score(mech.apply(D, rng), z)), b


def average_round_ref(dist, mech, n, score, seed, t):
    """Round t of run_average_game(dist, mech, n, score, T, seed), one call
    at a time: on the round's stream round_stream(seed, t) the target is
    drawn from dist and stored as float64, craft releases on the same
    stream, and the score is taken against the round's own target. Returns
    (score, bit), equal bit for bit to the game's round t. A score that
    raises or gives NaN is an error naming round t: a ValueError is raised
    as a ConfigError, anything else as a NumericalError, chained from the
    score's own error.
    """
    from mi_audit import ConfigError, NumericalError, craft, round_stream

    rng = round_stream(seed, t)
    z = dist.sample_dataset(1, rng)[0].astype(np.float64)
    o, b = craft(dist, mech, n, z, rng)
    try:
        s = float(score(o, z))
    except Exception as e:
        error = ConfigError if isinstance(e, ValueError) else NumericalError
        raise error(f"round {t}: {e}") from e
    if np.isnan(s):
        raise NumericalError(f"round {t}: score is NaN")
    return s, b


# ---------------------------------------------------------------------------
# mi-audit simulate, one round at a time (explicit draws, brute-force ROC)

def simulate_csvs_ref(columns, mechanism, n, z, rounds, master_seed):
    """The rounds.csv and roc.csv text that `mi-audit simulate` writes for
    an lr_asymptotic game on a product of `columns` specs.

    Round t keys its own Philox generator by (master_seed, t) and flips the
    membership coin. A subsampled mean keeps k = max(1, round(rho * n))
    rows and, on heads, then draws whether the target is among them. The
    round draws the column sums of the rows that are not the target: one
    Binomial count per Bernoulli column, then one standard normal per
    Gaussian column; a noisy mean then draws its d noise values. The ROC
    counts, for each distinct score from the top, the rounds scoring at
    least that much.
    """
    bern = [j for j, c in enumerate(columns) if c["law"] == "bernoulli"]
    gauss = [j for j, c in enumerate(columns) if c["law"] == "gaussian"]
    mu = np.array([c["p"] if c["law"] == "bernoulli" else c["mean"] for c in columns])
    var = np.array([c["p"] * (1.0 - c["p"]) if c["law"] == "bernoulli" else c["var"]
                    for c in columns])
    sd = np.sqrt(var[gauss])
    z = np.asarray(z, dtype=np.float64)
    w = (z - mu) / var
    kind = mechanism["mechanism"]
    scores, bits = [], []
    for t in range(rounds):
        rng = np.random.Generator(np.random.Philox(key=np.array([master_seed, t], dtype=np.uint64)))
        b = int(rng.integers(0, 2))
        total, planted = n, b
        if kind == "subsampled_mean":
            total = max(1, int(round(mechanism["rho"] * n)))
            planted = int(b == 1 and rng.random() < total / n)
        rows = total - planted
        sums = np.empty(len(columns))
        sums[bern] = rng.binomial(rows, mu[bern])
        sums[gauss] = rows * mu[gauss] + np.sqrt(rows) * sd * rng.standard_normal(len(gauss))
        if planted:
            sums += z
        release = sums / total
        if kind == "noisy_mean":
            gamma = np.atleast_1d(np.asarray(mechanism["gamma_scalar"], dtype=np.float64))
            release = release + rng.standard_normal(len(columns)) * (gamma / np.sqrt(n))
        scores.append(float(np.dot(w, release - mu)) - float(np.dot(w, z - mu)) / (2.0 * n))
        bits.append(b)
    rounds_csv = "round,score,b\n" + "".join(
        "%d,%.17g,%d\n" % (t, s, b) for t, (s, b) in enumerate(zip(scores, bits)))
    s, y = np.array(scores), np.array(bits)
    n1 = int(y.sum())
    n0 = len(y) - n1
    points = [(0.0, 0.0)]
    for v in sorted(set(scores), reverse=True):
        points.append((int(np.sum((s >= v) & (y == 0))) / n0, int(np.sum((s >= v) & (y == 1))) / n1))
    roc_csv = "fpr,tpr\n" + "".join("%.17g,%.17g\n" % p for p in points)
    return rounds_csv, roc_csv


# ---------------------------------------------------------------------------
# polyline densification (one linspace per segment) and the KD-tree gap

def densify_loop(poly, step):
    pieces = [poly[:1]]
    for a, b in zip(poly[:-1], poly[1:]):
        gap = float(np.max(np.abs(b - a)))
        k = max(1, int(np.ceil(gap / step)))
        ts = np.linspace(0.0, 1.0, k + 1)[1:]
        pieces.append(a + ts[:, None] * (b - a))
    return np.vstack(pieces)


def polyline_gap_kdtree(a, b, step=5e-4):
    """Chebyshev Hausdorff distance between two polylines densified to
    ``step``, each point's nearest neighbour found by a KD-tree query."""
    pa = densify_loop(np.asarray(a, dtype=np.float64), step)
    pb = densify_loop(np.asarray(b, dtype=np.float64), step)
    d_ab = cKDTree(pb).query(pa, p=np.inf)[0].max()
    d_ba = cKDTree(pa).query(pb, p=np.inf)[0].max()
    return float(max(d_ab, d_ba))


# ---------------------------------------------------------------------------
# misc

def log_ratio_loop(pairs):
    """Sum of math.log terms, plain-float route for vectorized log sums."""
    return math.fsum(math.log(a) - math.log(b) for a, b in pairs)
