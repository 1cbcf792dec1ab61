"""Desk-scale white-box training audit: toy models, an SGD loop that exposes
every iterate, and the per-step gradient attacks.

The reduction at work: an observer of consecutive iterates theta_t and
theta_{t+1} recovers the applied batch gradient, which is an empirical mean
of per-example gradients. Membership of a target example in the batch then
becomes a mean-inclusion question, and the same covariance and scalar
scores used against released means apply step by step, summed over an
epoch.

Models here are deliberately tiny and carry analytic gradients so the whole
harness stays dependency-free and every gradient is checkable against
finite differences.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ._util import ConfigError, as_vector
from .game import (_CHUNK_FLOATS, ScoredRound, _chunk_len, _map_chunks, _round_streams,
                   _scored_rounds)
from .score import ReferenceEstimates

__all__ = [
    "ToyModel",
    "TrainTrace",
    "train_sgd",
    "reference_gradients",
    "run_whitebox_attack",
    "run_whitebox_game",
    "make_blobs",
]


@dataclasses.dataclass
class ToyModel:
    """Linear regression or multiclass logistic regression with analytic
    gradients.

    Parameter layout: linear regression stores [w (f), bias (1)] for
    d_p = f + 1; logistic regression stores [W flattened row-major (c, f),
    biases (c)] for d_p = f * c + c. ``theta`` defaults to zeros.
    """

    arch: str
    f: int
    c: int = 1
    theta: np.ndarray | None = None

    def __post_init__(self):
        if self.arch not in ("linear", "logistic"):
            raise ValueError(f"arch must be 'linear' or 'logistic', got {self.arch!r}")
        if self.f < 1:
            raise ValueError("feature dimension f must be >= 1")
        if self.arch == "logistic" and self.c < 2:
            raise ValueError("logistic regression needs c >= 2 classes")
        if self.arch == "linear":
            self.c = 1
        if self.theta is None:
            self.theta = np.zeros(self.d_p)
        else:
            self.theta = as_vector(self.theta, self.d_p, "theta")

    @property
    def d_p(self) -> int:
        if self.arch == "linear":
            return self.f + 1
        return self.f * self.c + self.c

    def _split(self, theta: np.ndarray):
        # weights and biases of a (..., d_p) stack of parameter vectors
        if self.arch == "linear":
            return theta[..., : self.f], theta[..., self.f]
        W = theta[..., : self.f * self.c].reshape(*theta.shape[:-1], self.c, self.f)
        return W, theta[..., self.f * self.c :]

    def _check_labels(self, y: np.ndarray) -> np.ndarray:
        if self.arch == "linear":
            return np.asarray(y, dtype=np.float64)
        labels = np.asarray(y)
        if labels.dtype.kind not in "iu" or np.any(labels < 0) or np.any(labels >= self.c):
            raise ValueError(f"labels must be integers in [0, {self.c})")
        return labels

    def _check_features(self, X, name: str = "X") -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.ndim != 2 or X.shape[1] != self.f:
            raise ValueError(
                f"{name} must have model.f={self.f} feature columns, got shape {X.shape}"
            )
        return X

    def loss(self, X, y, theta=None) -> float:
        """Mean loss over a batch: half squared error or cross-entropy."""
        theta = self.theta if theta is None else as_vector(theta, self.d_p, "theta")
        X = self._check_features(X)
        y = self._check_labels(np.atleast_1d(y))
        if self.arch == "linear":
            W, bias = self._split(theta)
            return float(0.5 * np.mean(np.square(X @ W + bias - y)))
        W, bias = self._split(theta)
        logits = X @ W.T + bias
        return float(np.mean(_logsumexp_rows(logits)[:, 0] - logits[np.arange(len(y)), y]))

    def grad_batch(self, X, y, theta=None) -> np.ndarray:
        """Per-example gradients, one row per example, shape (m, d_p).

        Checks theta, the feature width and the labels on every call.
        train_sgd checks them once per run and then takes each step's
        gradients unchecked.
        """
        theta = self.theta if theta is None else as_vector(theta, self.d_p, "theta")
        X = self._check_features(X)
        labels = self._check_labels(np.atleast_1d(y))
        return self._grads(X[None], labels[None], theta[None])[:, 0]

    def _grads(self, X: np.ndarray, labels: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """grad_batch without its checks, for R runs at once, batch-first:
        X is (R, m, f) float rows, or (1, m, f) rows that every run shares,
        labels (R or 1, m) have passed _check_labels, theta is (R, d_p), and
        the result is (m, R, d_p), run r's gradient of example i at [i, r].

        Each run's logits come from its own (m, f) @ (f, c) product inside
        one stacked matmul, so a stack of runs gets, bit for bit, the
        gradients each run gets alone. After the matmul no numpy call runs
        over an axis of c entries. The logits are copied class-major,
        (c, R, m), so each reduce of _logsumexp_rows folds c planes of
        R * m entries. Each class's error signal then scales the rows into
        that class's f weight columns of the result, one multiply per
        class, and the biases take the signals as they are. Every entry is
        the product of the same two factors as in a row-major layout, so
        the bits are the same. Batch-first, the batch mean of _sgd is one
        reduce over the outer axis, which adds the m rows in order, as a
        mean over the middle axis of an (R, m, d_p) array does.
        """
        W, bias = self._split(theta)
        if self.arch == "linear":
            deltas = ((X @ W[..., None])[..., 0] + bias[..., None] - labels)[None]
        else:
            # class-major logits, (c, R, m); the ufuncs below keep that
            # layout while they see the class axis last
            logits = np.add((X @ W.swapaxes(-1, -2)).transpose(2, 0, 1), bias.T[..., None],
                            order="C").transpose(1, 2, 0)
            deltas = np.exp(logits - _logsumexp_rows(logits))
            # subtracting 0.0 leaves every other entry as it is
            deltas -= (np.arange(self.c)[:, None, None] == labels).transpose(1, 2, 0)
            deltas = deltas.transpose(2, 0, 1)
        c, R, m = deltas.shape
        f = self.f
        rows = X.transpose(1, 0, 2)
        grads = np.empty((m, R, self.d_p))
        for k in range(c):
            np.multiply(deltas[k].T[..., None], rows, out=grads[..., k * f : (k + 1) * f])
        grads[..., c * f :] = deltas.transpose(2, 1, 0)
        return grads

    def grad(self, x, y, theta=None) -> np.ndarray:
        """Analytic loss gradient for a single (features, label) example."""
        return self.grad_batch(self._check_features(x, "x"), np.atleast_1d(y), theta)[0]

    def _grad_path(self, x, y, thetas: np.ndarray) -> np.ndarray:
        """Gradient of one example at each row of ``thetas``, shape (S, d_p).

        Row t equals grad(x, y, thetas[t]) bit for bit: each row's logits
        come from a per-row (1, f) @ (f, c) product, as grad's do. One
        (S, f) @ (f,) product would sum in another order.
        """
        x = as_vector(x, self.f, "x")
        labels = self._check_labels(np.atleast_1d(y))
        if thetas.ndim != 2 or thetas.shape[1] != self.d_p:
            raise ValueError(f"thetas must be (S, {self.d_p}), got shape {thetas.shape}")
        return self._grads(x[None, None], labels[None], thetas)[0]


def _logsumexp_rows(logits: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis of a (..., m, c) array, shape
    (..., m, 1).

    Repeats the operation order of scipy.special.logsumexp on real input
    (scipy 1.17), so the two agree bit for bit: the row maxima are taken
    out of the sum and their count enters as log(count). The class axis
    may have any stride. ToyModel._grads passes a class-major buffer seen
    as (R, m, c), where each reduce below runs over c planes of R * m
    entries instead of over R * m rows of c. That layout keeps the bits:
    maxima and counts are exact in any order, and numpy adds fewer than 8
    terms left to right whichever axis it reduces, as scipy's contiguous
    sum does. From 8 terms on, a contiguous sum is pairwise, so the
    exponentials are then summed from a C-contiguous copy.
    """
    a_max = logits.max(axis=-1, keepdims=True)
    top = logits == a_max
    m = top.sum(axis=-1, keepdims=True, dtype=np.float64)
    e = np.where(top, 0.0, np.exp(logits - a_max))
    if logits.shape[-1] >= 8:
        e = np.ascontiguousarray(e)
    s = e.sum(axis=-1, keepdims=True)
    s = np.where(s == 0, s, s / m)
    return np.log1p(s) + np.log(m) + a_max


@dataclasses.dataclass(frozen=True)
class TrainTrace:
    """Every iterate of one training run, plus what the attacker needs to
    interpret the differences between consecutive iterates."""

    model: ToyModel
    thetas: np.ndarray
    eta: float
    batch_size: int
    batch_schedule: np.ndarray

    def __post_init__(self):
        if self.thetas.ndim != 2 or self.thetas.shape[0] != self.batch_schedule.shape[0] + 1:
            raise ValueError("need one more iterate than steps")
        if self.batch_schedule.ndim != 2 or self.batch_schedule.shape[1] != self.batch_size:
            raise ValueError("batch_schedule must be (steps, batch_size)")
        if np.any(self.batch_schedule < 0):
            raise ValueError("batch indices must be non-negative")

    @property
    def steps(self) -> int:
        return int(self.batch_schedule.shape[0])


def train_sgd(
    model: ToyModel,
    data,
    eta: float,
    batch_size: int,
    epochs: int,
    clip: float | None = None,
    noise: float | None = None,
    seed=0,
) -> TrainTrace:
    """Mini-batch SGD from model.theta, recording every iterate.

    Each epoch shuffles the rows and walks them in batches of exactly
    ``batch_size`` (a short remainder batch is dropped). With ``clip`` set,
    per-example gradients are rescaled to norm at most clip before
    averaging. With ``noise`` also set, each step adds centered Gaussian
    noise of standard deviation noise * clip per coordinate to the *mean*
    of the clipped gradients: ``noise`` is in units of clip on the mean,
    which is sigma / batch_size for the noise multiplier sigma of Abadi et
    al. (CCS 2016), whose noise of standard deviation sigma * clip goes on
    the sum. Noise without clipping has no calibrated scale and is
    rejected.

    ``seed`` may be an int or a Generator; the model instance is not
    mutated. The feature width and the labels are checked once, before the
    first step; each step then takes its batch's per-example gradients
    without checks.
    """
    X, labels = _check_sgd(model, data, eta, batch_size, epochs, clip, noise)
    thetas, schedule = _sgd(model, X, labels, [np.random.default_rng(seed)], eta, batch_size,
                            epochs, clip, noise)
    return TrainTrace(
        model=ToyModel(model.arch, model.f, model.c, model.theta.copy()),
        thetas=thetas[0],
        eta=float(eta),
        batch_size=int(batch_size),
        batch_schedule=schedule[0],
    )


def _check_sgd(model: ToyModel, data, eta, batch_size, epochs, clip, noise):
    """The checks of train_sgd; returns the (n, f) float features and the
    checked labels."""
    X, y = data
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"features must be an (n, f) matrix, got shape {X.shape}")
    X = model._check_features(X)
    labels = model._check_labels(np.atleast_1d(y))
    n = X.shape[0]
    if not 1 <= batch_size <= n:
        raise ValueError(f"batch_size must lie in [1, {n}], got {batch_size}")
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    # each bound is written so that NaN fails it
    if not 0 <= eta < np.inf:
        raise ValueError(f"eta must be finite and >= 0, got {eta}")
    if clip is not None and not clip > 0:
        raise ValueError(f"clip must be > 0, got {clip}")
    if noise is not None and not 0 <= noise < np.inf:
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    if noise and (clip is None or clip == np.inf):
        raise ValueError(f"noise requires a finite clip to calibrate against, got clip {clip}")
    return X, labels


def _sgd(model, X, labels, rngs, eta, batch_size, epochs, clip, noise, swap=None, target=None):
    """train_sgd's loop for len(rngs) runs at once, on checked rows.

    Run r shuffles with, and draws its noise from, rngs[r], in the order a
    single run draws them. Where swap[r] >= 0, run r trains on the rows with
    row swap[r] replaced by ``target``, a (features, checked label) pair;
    each step patches the gathered batch instead of copying X per run.
    Returns every iterate, (R, steps + 1, d_p), and the batch schedule,
    (R, steps, batch_size). Every step's gradients, clipping and means are
    taken over the stack with the per-run operation order, so run r's
    iterates equal, bit for bit, those of the same run made alone.
    """
    runs, n = len(rngs), X.shape[0]
    per_epoch = n // batch_size
    steps = epochs * per_epoch
    thetas = np.empty((runs, steps + 1, model.d_p))
    schedule = np.empty((runs, steps, batch_size), dtype=np.intp)
    theta = np.repeat(model.theta[None, :], runs, axis=0)
    thetas[:, 0] = theta
    for e in range(epochs):
        perms = np.array([rng.permutation(n) for rng in rngs])[:, : per_epoch * batch_size]
        schedule[:, e * per_epoch : (e + 1) * per_epoch] = perms.reshape(runs, per_epoch, -1)
        for k in range(e * per_epoch, (e + 1) * per_epoch):
            batch = schedule[:, k]
            X_b, y_b = np.take(X, batch, axis=0), np.take(labels, batch)
            if swap is not None:
                hit = batch == swap[:, None]
                X_b[hit] = target[0]
                y_b[hit] = target[1]
            grads = model._grads(X_b, y_b, theta)
            if clip is not None and np.isfinite(clip):
                norms = np.linalg.norm(grads, axis=-1)
                grads *= np.minimum(1.0, clip / np.maximum(norms, 1e-300))[..., None]
            # the rows in order, as mean(axis=-2) adds them in (R, m, d_p)
            g = np.add.reduce(grads, axis=0) / batch_size
            if noise:
                g = g + np.array([rng.standard_normal(model.d_p) for rng in rngs]) * (noise * clip)
            theta = theta - eta * g
            thetas[:, k + 1] = theta
    return thetas, schedule


def reference_gradients(model: ToyModel, X, y, theta=None) -> np.ndarray:
    """Per-example gradients of a reference set at one iterate (default the
    model's own theta), ready for estimate_reference."""
    return model.grad_batch(X, y, theta)


def _check_slice(param_slice, d_p: int) -> slice:
    if param_slice is None:
        return slice(0, d_p)
    if isinstance(param_slice, tuple):
        param_slice = slice(*param_slice)
    start, stop, step = param_slice.indices(d_p)
    if step != 1 or start >= stop:
        raise ValueError(f"parameter slice must be a non-empty forward range, got {param_slice}")
    if param_slice.stop is not None and param_slice.stop > d_p:
        raise ValueError(f"parameter slice {param_slice} exceeds d_p={d_p}")
    return slice(start, stop)


def run_whitebox_attack(
    trace: TrainTrace,
    target_example,
    refs: ReferenceEstimates,
    attack: str,
    param_slice=None,
) -> float:
    """Sum of per-step attack scores over a recorded training run.

    At each step the applied batch gradient is reconstructed from the
    iterate difference (zero by convention when eta is 0, where the quotient
    is 0/0), and the target's own gradient is taken at the pre-step iterate.
    The covariance attack scores each step as a released mean of batch_size
    gradients, lr_empirical_cov(g_batch, g_target, refs, batch_size), and
    the scalar attack scores the plain inner product g_target . g_batch.
    ``param_slice`` restricts both gradients to a contiguous parameter range
    (the last-layer trick); refs must match the sliced dimension. The trace
    is scored as the games score a stack of traces.
    """
    sl = _check_attack(trace.model.d_p, refs, attack, param_slice)
    x, y = target_example
    g_stars = trace.model._grad_path(x, y, trace.thetas[:-1])
    return float(_score_traces(trace.thetas[None], g_stars, trace.eta, trace.batch_size, refs,
                               (attack,), sl)[0, 0])


def _check_attack(d_p: int, refs: ReferenceEstimates, attack: str, param_slice) -> slice:
    """run_whitebox_attack's checks; returns the attacked parameter slice."""
    if attack not in ("covariance", "scalar"):
        raise ConfigError(f"attack must be 'covariance' or 'scalar', got {attack!r}")
    sl = _check_slice(param_slice, d_p)
    if refs.d != sl.stop - sl.start:
        raise ValueError(
            f"reference estimates have dimension {refs.d} but the attacked slice has "
            f"{sl.stop - sl.start}"
        )
    return sl


def _score_traces(thetas: np.ndarray, g_stars: np.ndarray, eta: float, batch_size: int,
                  refs: ReferenceEstimates, attacks, sl: slice) -> np.ndarray:
    """Each attack's score of R traces, (R, len(attacks)): run_whitebox_attack
    after its checks, given every trace's iterates, (R, steps + 1, d_p), and
    the target's gradient at each pre-step iterate, (R * steps, d_p).

    The batch gradients of the whole stack are reconstructed, sliced,
    centered and checked for finiteness at once, and one
    ReferenceEstimates._pairs call gives every step's covariance terms.
    Each trace's per-step scores are then added in step order, starting
    from 0.0, as a loop over its steps adds them: np.sum adds 8 or more
    terms pairwise, and a cumsum starts from the first term, so a sum of
    -0.0 terms would come out as -0.0 instead of 0.0.
    """
    R, S = thetas.shape[0], thetas.shape[1] - 1
    g_batches = (thetas[:, :-1] - thetas[:, 1:]) / eta if eta else np.zeros(thetas[:, 1:].shape)
    g_stars = g_stars[:, sl]
    g_batches = g_batches[..., sl].reshape(R * S, -1)
    scores = np.empty((R, len(attacks)))
    for j, attack in enumerate(attacks):
        if attack == "scalar":
            # np.vecdot takes np.dot's routine for each pair of rows
            steps = np.vecdot(g_stars, g_batches)
        else:
            # lr_empirical_cov of each step, its checks made once for the stack
            U, V = g_stars - refs.mu0, g_batches - refs.mu0
            refs._check_finite(U, V)
            cross, quad = refs._pairs(U, V)
            steps = cross - quad / (2.0 * batch_size)
        steps = steps.reshape(R, S)
        total = np.zeros(R)
        for t in range(S):
            total += steps[:, t]
        scores[:, j] = total
    return scores


def run_whitebox_game(
    model: ToyModel,
    X,
    y,
    target_example,
    *,
    eta: float,
    batch_size: int,
    refs: ReferenceEstimates,
    attack: str,
    reps: int,
    master_seed: int,
    epochs: int = 1,
    clip: float | None = None,
    noise: float | None = None,
    param_slice=None,
    threads: int | None = None,
) -> list[ScoredRound]:
    """Repeated include/exclude training game against one target example.

    Each repetition draws its own stream from (master_seed, rep): flip the
    membership coin, on heads overwrite a uniformly chosen training row with
    the target, train from the model's initial parameters, then score the
    trace with the chosen attack. The base rows (X, y) must not already
    contain the target, otherwise the exclude branch is meaningless.
    ``threads`` None runs serially; any other value must be an integer
    >= 1, as in run_crafter, or it is a ConfigError. The game is played as
    arrays by _play_reps, as mi-audit whitebox plays it, and becomes one
    ScoredRound per rep only on return, as run_fixed_game's arrays do.
    """
    sl = _check_attack(model.d_p, refs, attack, param_slice)
    scores, bits = _play_reps(model, X, y, target_example, refs, (attack,), sl, eta=eta,
                              batch_size=batch_size, reps=reps, master_seed=master_seed,
                              epochs=epochs, clip=clip, noise=noise, threads=threads)
    return _scored_rounds(scores[:, 0], bits)


def _play_reps(model, X, y, target_example, refs, attacks, sl, *, eta, batch_size, reps,
               master_seed, epochs, clip, noise, threads) -> tuple[np.ndarray, np.ndarray]:
    """Train each rep of run_whitebox_game once and score its trace with
    every attack in ``attacks`` on the parameter slice ``sl``, both checked
    by the caller: (scores (reps, len(attacks)), bits (reps,)) arrays.

    Rep r draws its coin, and on heads the row the target replaces, from
    round_stream(master_seed, r), then trains on that stream: the i-th rep
    of a chunk takes slot i of game._round_streams, rekeyed to
    (master_seed, r), which draws the same as a new stream at a fraction of
    its cost. The reps are split into chunks by the games' one rule
    (game._chunk_len), at least one per worker and each within
    _CHUNK_FLOATS of per-example gradients, the largest per-step buffer of
    _sgd; one _sgd call trains a chunk, one _grad_path call takes the
    target's gradients along all of its traces, one _score_traces call
    scores them, and _map_chunks maps the chunks. Scores do not depend on
    the split.

    The target is trained and scored with one label: y_t cast to the base
    labels' dtype, which must keep its value.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    x_t, y_t = target_example
    x_t = as_vector(x_t, X.shape[1], "target features")
    dupes = np.nonzero(np.all(X == x_t, axis=1) & (y == y_t))[0]
    if dupes.size:
        raise ValueError(
            f"base rows already contain the target (row {dupes[0]}); "
            "the exclude branch would train on it anyway"
        )
    X, labels = _check_sgd(model, (X, y), eta, batch_size, epochs, clip, noise)
    # the target takes the place of a base row, so its label takes their dtype
    cast = np.full(1, y_t, dtype=y.dtype)
    if not cast[0] == y_t:
        raise ValueError(f"target label {y_t!r} would train as {cast[0]!r}, "
                         f"the base labels being {y.dtype}")
    label_t = model._check_labels(cast)[0]
    n = X.shape[0]
    per_chunk = _chunk_len(reps, batch_size * model.d_p, threads, _CHUNK_FLOATS)
    stream = _round_streams(master_seed)
    scores = np.empty((reps, len(attacks)))
    bits = np.empty(reps, dtype=np.uint8)

    def chunk(lo: int, hi: int) -> None:
        rngs = [stream(r, slot) for slot, r in enumerate(range(lo, hi))]
        coins = [int(rng.integers(0, 2)) for rng in rngs]
        swap = np.array([int(rng.integers(0, n)) if b else -1 for rng, b in zip(rngs, coins)])
        thetas, _ = _sgd(model, X, labels, rngs, eta, batch_size, epochs, clip, noise,
                         swap if any(coins) else None, (x_t, label_t))
        g_stars = model._grad_path(x_t, label_t, thetas[:, :-1].reshape(-1, model.d_p))
        bits[lo:hi] = coins
        scores[lo:hi] = _score_traces(thetas, g_stars, float(eta), int(batch_size), refs,
                                      attacks, sl)

    _map_chunks(chunk, reps, per_chunk, threads)
    return scores, bits


def make_blobs(n: int, f: int, c: int, *, center_scale: float = 2.0, spread: float = 1.0, seed=0):
    """Gaussian class blobs: c class centers drawn once, then n labeled
    points scattered around their centers. Returns (X, y) with integer
    labels in [0, c)."""
    if n < 1 or f < 1 or c < 1:
        raise ValueError("n, f, c must all be >= 1")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((c, f)) * center_scale
    y = rng.integers(0, c, size=n)
    X = centers[y] + rng.standard_normal((n, f)) * spread
    return X, y
