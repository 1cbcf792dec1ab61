"""Membership-inference games: crafting, scoring, and ROC estimation.

A game round works in two phases. The crafter flips the membership coin
and releases the mechanism output of a dataset with the target planted in
it when the coin lands 1; the release depends on the dataset only through
its column sums, so the crafter draws those sums rather than the rows. The
adversary then reduces that output to a scalar score. Keeping
the phases separate pays off in audits: one crafted transcript (the
expensive part) can be re-scored by many attacks, and composing the phases
is exactly what :func:`run_fixed_game` does.

Reproducibility contract: round t of a game with master seed s draws all of
its randomness from a counter-based stream keyed by (s, t). Rounds are
therefore independent of execution order and thread count, and a fixed seed
yields bit-identical transcripts everywhere.

Every game, white-box ones too, plays its rounds through one chunk loop,
_play_chunks, in chunks of at most _CHUNK_FLOATS floats of the blocks the
game allocates afresh for each round (for a white-box rep, at each SGD
step), or of one round, at least one chunk per worker and as even as that
allows, run in order, on a pool when threads >= 2. A chunk makes the draws
of its rounds one round at a time, each on that round's own (s, t) stream,
then computes on arrays with no generator in hand: it finishes, scores and
keeps the whole chunk. Chunks group the arithmetic, never the randomness:
every element is computed as the one-round path computes it, so neither the
chunk size nor the worker count changes a bit.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._util import (_REQUIRED, ConfigError, NumericalError, as_vector, config_checked,
                    config_value)
from .canary import estimate_reference
from .dist import ProductDistribution, target_from_spec
from .mech import NoisyMean, _noise_scales, mechanism_from_spec
from .score import SCORE_NAMES, make_score
from .theory import _BLOCK_ROWS, _steps

__all__ = [
    "ScoredRound",
    "RocCurve",
    "GameConfig",
    "CrafterTranscript",
    "round_stream",
    "craft",
    "run_crafter",
    "score_transcript",
    "run_fixed_game",
    "run_average_game",
    "roc",
    "empirical_advantage",
]


@dataclasses.dataclass(frozen=True)
class ScoredRound:
    """One game round reduced to the adversary's score and the true bit."""

    score: float
    b: int

    def __post_init__(self):
        if self.b not in (0, 1):
            raise ValueError(f"membership bit must be 0 or 1, got {self.b}")


@dataclasses.dataclass(frozen=True)
class RocCurve:
    """Empirical ROC staircase with trapezoidal AUC.

    Points run from (0, 0) to (1, 1) with both coordinates non-decreasing;
    equal scores collapse into a single threshold step.
    """

    points: np.ndarray
    auc: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError(f"points must be an (N, 2) array with N >= 2, got {pts.shape}")
        if tuple(pts[0]) != (0.0, 0.0) or tuple(pts[-1]) != (1.0, 1.0):
            raise ValueError("ROC must start at (0, 0) and end at (1, 1)")
        if any(np.any(seg < 0) for _, seg in _steps(pts)):
            raise ValueError("ROC coordinates must be non-decreasing")
        if not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"auc must lie in [0, 1], got {self.auc}")
        # a read-only array that owns its memory is as safe from writes as a
        # copy would be, so the points _roc builds are kept, not copied
        if pts.flags.writeable or pts.base is not None:
            pts = pts.copy()
            pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def best_advantage(self) -> float:
        """In-sample advantage of the best threshold, allowed to flip the
        guess direction: max over curve vertices of |tpr - fpr|."""
        pts = self.points
        blocks = (pts[lo:lo + _BLOCK_ROWS] for lo in range(0, len(pts), _BLOCK_ROWS))
        return float(np.max([np.abs(np.diff(b, axis=1)).max() for b in blocks]))


def _read_model(obj: dict, mech_default=_REQUIRED):
    """(dist, mech, n, z) from a game config's dist, mechanism, n and target
    keys, each checked, a gamma vector against d too, before any round is
    crafted. No mechanism gives ``mech_default``, by default an error."""
    dist = ProductDistribution.from_spec(config_value(obj, "dist", dict))
    spec = config_value(obj, "mechanism", dict, mech_default)
    mech = None if spec is None else mechanism_from_spec(spec)
    if isinstance(mech, NoisyMean):
        try:
            _noise_scales(mech.gamma, dist.d)
        except ValueError as e:
            raise ConfigError(f"mechanism.gamma: {e}") from e
    n = config_value(obj, "n", int)
    return dist, mech, n, target_from_spec(config_value(obj, "target", object), dist)


@dataclasses.dataclass
class GameConfig:
    """Everything needed to run a fixed-target game.

    ``score_kwargs`` carries score-specific side information (refs, z_targ,
    z_ref, gamma, rho) and is handed to :func:`mi_audit.score.make_score`.
    ``threads`` None runs serially (see :func:`run_crafter`).
    """

    dist: ProductDistribution
    mech: object
    n: int
    z: object
    score_name: str
    rounds: int = 1000
    master_seed: int = 0
    threads: int | None = None
    score_kwargs: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.score_name not in SCORE_NAMES:
            raise ConfigError(
                f"unknown score {self.score_name!r}; expected one of {', '.join(SCORE_NAMES)}"
            )
        if (self.score_name == "lr_exact_bernoulli" and isinstance(self.mech, NoisyMean)
                and np.any(self.mech.gamma > 0)):
            raise ConfigError("lr_exact_bernoulli needs releases in [0, 1]; a NoisyMean "
                              "with gamma > 0 releases means outside them")

    @classmethod
    def from_dict(cls, obj: dict) -> "GameConfig":
        """Parse the JSON config shape used by the command line.

        Expected keys: dist, mechanism, n, target, score; optional: rounds,
        master_seed, threads, score_info. Target specs accept explicit
        values, a named extreme, or a seeded draw from the distribution;
        score_info may request reference estimates drawn from the
        distribution itself via {"refs": {"n0": ..., "cov_mode": ...,
        "seed": ...}}.
        """
        dist, mech, n, z = _read_model(obj)
        score_name = config_value(obj, "score", str)
        info = config_value(obj, "score_info", dict, {})
        unknown = set(info) - {"z_targ", "z_ref", "gamma", "rho", "refs"}
        if unknown:
            raise ConfigError(f"unknown score_info keys: {sorted(unknown)}")
        kwargs = {}
        for key in ("z_targ", "z_ref"):
            if key in info:
                kwargs[key] = target_from_spec(info[key], dist, f"score_info.{key}")
        if "gamma" in info:
            # a gamma vector must fit d, as the mechanism's must
            kind = list if isinstance(info["gamma"], list) else float
            kwargs["gamma"] = config_checked(functools.partial(_noise_scales, d=dist.d), info,
                                             "gamma", kind, where="score_info")
        if "rho" in info:
            kwargs["rho"] = config_value(info, "rho", float, where="score_info")
        if "refs" in info:
            spec = config_value(info, "refs", dict, where="score_info")
            unknown = set(spec) - {"n0", "seed", "cov_mode", "ridge", "centered"}
            if unknown:
                raise ConfigError(f"unknown score_info.refs keys: {sorted(unknown)}")
            where = "score_info.refs"
            n0 = config_value(spec, "n0", int, where=where)
            seed = config_value(spec, "seed", int, where=where)
            kwargs["refs"] = estimate_reference(
                dist.sample_dataset(n0, np.random.default_rng(seed)),
                cov_mode=config_value(spec, "cov_mode", str, "diagonal", where=where),
                ridge=config_value(spec, "ridge", float, None, where=where),
                centered=config_value(spec, "centered", bool, False, where=where),
            )
        return cls(
            dist=dist,
            mech=mech,
            n=n,
            z=z,
            score_name=score_name,
            rounds=config_value(obj, "rounds", int, 1000),
            master_seed=config_value(obj, "master_seed", int, 0),
            threads=config_value(obj, "threads", object, None),
            score_kwargs=kwargs,
        )


@dataclasses.dataclass(frozen=True)
class CrafterTranscript:
    """Released outputs and true bits for a batch of crafted rounds."""

    outputs: np.ndarray
    bits: np.ndarray

    def __post_init__(self):
        if self.outputs.ndim != 2 or self.bits.shape != (self.outputs.shape[0],):
            raise ValueError("outputs must be (T, d) with bits of length T")

    @property
    def rounds(self) -> int:
        return int(self.bits.shape[0])


def round_stream(master_seed: int, index: int) -> np.random.Generator:
    """Independent generator for one round, keyed by (master_seed, index).

    Counter-based keying makes streams splittable: any round can be
    regenerated in isolation, and parallel execution cannot change what a
    round draws.
    """
    if master_seed < 0 or index < 0:
        raise ValueError("master_seed and index must be non-negative")
    key = np.array([master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# a freshly keyed Philox's counter and buffer
_PHILOX_ZEROS = (0, 0, 0, 0)


def _round_streams(master_seed: int):
    """A callable t -> generator that draws exactly what
    round_stream(master_seed, t) draws.

    Each thread keeps one Philox generator and rekeys it for every round:
    key (master_seed, t), counter 0, an empty buffer and no 32-bit half
    left over, the state a freshly keyed Philox starts from. That costs a
    fraction of a new generator, whose constructor also seeds itself from
    os.urandom before the key replaces the seed; the state is given as
    plain integers, which the setter reads faster than arrays. A generator
    is valid until the same thread asks for the next round, so every game
    makes all of a round's draws before it asks for the next one.
    """
    local = threading.local()

    def stream(t: int) -> np.random.Generator:
        gen = getattr(local, "gen", None)
        if gen is None:
            local.gen = round_stream(master_seed, t)
            return local.gen
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _PHILOX_ZEROS, "key": (master_seed, t)},
            "buffer": _PHILOX_ZEROS,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen

    return stream


def craft(dist: ProductDistribution, mech, n: int, z, rng: np.random.Generator):
    """One crafter round: returns the released vector and the true bit.

    Draws the membership coin first; when it lands 1, the target takes the
    place of one of the n rows. Every supported release depends on its rows
    only through their column sums, so ``mech.release``, here as the
    one-round case of the chunk form that run_crafter uses, draws those sums
    from ``dist`` instead of materialising an n x d dataset. The release has
    the law of ``mech.apply`` on the planted dataset, for any real target,
    including one that is not a value of its columns.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    b = int(rng.integers(0, 2))
    return mech.release(dist, n, as_vector(z, dist.d, "z"), b, rng), b


def _craft_rounds(dist, mech, n: int, z: np.ndarray, rngs, out: np.ndarray) -> list[int]:
    """craft for a chunk of rounds, on checked inputs: ``rngs`` yields each
    round's generator in turn, row i of ``out`` receives round i's release,
    and the bits come back in round order. ``z`` is every round's target,
    or a (T, d) block whose row i receives round i's target, drawn before
    its coin. The mechanism's chunk form makes each round's draws on its
    generator before the next is asked for, so one generator may be
    rekeyed from round to round."""
    bits = []

    def coins():
        for i, rng in enumerate(rngs):
            if z.ndim == 2:
                z[i] = dist.sample_dataset(1, rng)[0]
            b = int(rng.integers(0, 2))
            bits.append(b)
            yield b, rng

    mech._release_rounds(dist, n, z, coins(), out)
    return bits


def _resolve_threads(threads: int | None) -> int:
    # None means serial. A JSON config can carry any value, so anything but
    # a whole number >= 1 is a ConfigError, not a TypeError.
    if threads is None:
        return 1
    if isinstance(threads, bool) or not isinstance(threads, int) or threads < 1:
        raise ConfigError(f"threads must be an integer >= 1, got {threads!r}")
    return threads


# Float64 entries in the blocks a chunk of a game allocates afresh for each
# round: a chunk of crafted rounds is (rounds, d), and each SGD step of a
# chunk of white-box reps allocates (c, reps, batch_size) logits and error
# signals and a (reps, d_p) update. 128 KiB is glibc's default mmap
# threshold, so those blocks reuse heap memory instead of mapping and
# faulting in fresh pages at every step. On the benchmark's white-box shape
# (f=10, c=2, batches of 64), a 400-rep game trained about a quarter slower
# as one chunk of 1 MiB than in chunks of 100 reps. The blocks that _sgd
# reuses from step to step, batch_size * (f + d_p + 1) + d_p entries a rep,
# are allocated once per chunk: at most (f + 1) * (1 + 1 / c) times this
# budget a worker, or one rep's worth. That is 2.1 MiB at the benchmark's
# shape, of which its 50-rep games use 0.85 MB.
_CHUNK_FLOATS = 1 << 14


def _chunk_len(count: int, floats_each: int, threads: int | None, budget: int) -> int:
    """Items per chunk of ``count`` items of ``floats_each`` floats each, by
    the chunk rule of the module docstring with ``budget`` floats a chunk."""
    per = max(1, budget // floats_each)
    chunks = max(_resolve_threads(threads), -(-count // per))
    return -(-count // min(chunks, count))


def _play_chunks(count: int, seed: int, threads: int | None, floats_each: int, columns: int,
                 body) -> tuple[np.ndarray, np.ndarray]:
    """(scores (count, columns), bits (count,)) of ``count`` rounds keyed by
    ``seed`` and played by chunk, a round holding ``floats_each`` floats.
    ``body(lo, hi, rngs, scores)`` plays the chunk [lo, hi): ``rngs``
    yields its rounds' generators in turn, each valid until the next is
    asked for, ``scores`` is its (hi - lo, columns) block to fill, and it
    returns the chunk's bits.
    """
    scores = np.empty((count, columns), dtype=np.float64)
    bits = np.empty(count, dtype=np.uint8)
    stream = _round_streams(seed)
    size = _chunk_len(count, floats_each, threads, _CHUNK_FLOATS)

    def chunk(lo: int) -> None:
        hi = min(count, lo + size)
        bits[lo:hi] = body(lo, hi, map(stream, range(lo, hi)), scores[lo:hi])

    starts = range(0, count, size)
    workers = min(_resolve_threads(threads), len(starts))
    if workers == 1:
        list(map(chunk, starts))
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            list(ex.map(chunk, starts))
    return scores, bits


def run_crafter(
    dist: ProductDistribution,
    mech,
    n: int,
    z,
    rounds: int,
    master_seed: int,
    threads: int | None = None,
) -> CrafterTranscript:
    """Craft ``rounds`` independent rounds and collect the released outputs.

    The transcript is the expensive half of a game; scoring it afterwards is
    cheap, so audits that compare several attacks on the same mechanism
    should craft once and re-score. ``threads`` None runs serially; any
    other value must be an integer >= 1, or it is a ConfigError.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    zv = as_vector(z, dist.d, "z")
    outputs = np.empty((rounds, dist.d), dtype=np.float64)
    _, bits = _play_chunks(rounds, master_seed, threads, dist.d, 0, lambda lo, hi, rngs, _:
                           _craft_rounds(dist, mech, n, zv, rngs, outputs[lo:hi]))
    bits.flags.writeable = False
    outputs.flags.writeable = False
    return CrafterTranscript(outputs=outputs, bits=bits)


def _score_rows(score_fn, outputs: np.ndarray, z, first: int) -> np.ndarray:
    """Scores of a block of released rows, row 0 being round ``first``,
    against one target ``z`` or each against its row of a (T, d) ``z``.

    A score with a block form (see :func:`mi_audit.score.make_score`)
    scores the block in one call. If that call fails, or the score has no
    block form, each row is scored alone, so that a failure names its
    round: a ValueError is raised as a ConfigError, anything else as a
    NumericalError, either chained from the score's own error. A NaN score
    is rejected, naming the first round that gave one.
    """
    block = getattr(score_fn, "block", None)
    scores = None
    if block is not None:
        try:
            scores = np.asarray(block(outputs, z), dtype=np.float64)
        except Exception:  # rescored row by row below, to name the round
            pass
    if scores is None:
        scores = np.empty(len(outputs), dtype=np.float64)
        for i, o in enumerate(outputs):
            try:
                scores[i] = float(score_fn(o, z[i] if np.ndim(z) == 2 else z))
            except Exception as e:
                error = ConfigError if isinstance(e, ValueError) else NumericalError
                raise error(f"round {first + i}: {e}") from e
            if np.isnan(scores[i]):
                break  # named below, before any later round is scored
    nan = np.flatnonzero(np.isnan(scores))
    if nan.size:
        raise NumericalError(f"round {first + int(nan[0])}: score is NaN")
    return scores


def _scored_rounds(scores: np.ndarray, bits: np.ndarray) -> list[ScoredRound]:
    return [ScoredRound(score=s, b=b) for s, b in zip(scores.tolist(), bits.tolist())]


def score_transcript(transcript: CrafterTranscript, score_fn, z) -> list[ScoredRound]:
    """Apply one score function to every round of a crafted transcript.

    Rounds are scored a chunk at a time, through the score's block form
    when it has one. A score failure is raised as a ConfigError or a
    NumericalError that names the round; a NaN score is rejected outright
    since it would poison every threshold comparison downstream.
    """
    outputs = transcript.outputs
    T, d = outputs.shape
    size = _chunk_len(T, d, None, _CHUNK_FLOATS)
    scores = [_score_rows(score_fn, outputs[lo:lo + size], z, lo) for lo in range(0, T, size)]
    return _scored_rounds(np.concatenate(scores), transcript.bits)


def _play(dist, mech, n: int, z, score_fn, rounds: int, seed: int,
          threads: int | None) -> tuple[np.ndarray, np.ndarray]:
    """(scores, bits) of ``rounds`` rounds against the target ``z``, or,
    with ``z`` None, against a target each round draws.

    Each chunk of rounds is crafted and scored in turn, and only its scores
    and bits are kept, so a game holds one chunk of releases per worker
    whatever its round count.
    """
    d = dist.d
    zv = None if z is None else as_vector(z, d, "z")

    def body(lo, hi, rngs, scores):
        out = np.empty((hi - lo, d), dtype=np.float64)
        Z = np.empty_like(out) if zv is None else zv
        bits = _craft_rounds(dist, mech, n, Z, rngs, out)
        scores[:, 0] = _score_rows(score_fn, out, Z, lo)
        return bits

    # an average-game chunk holds two (T, d) blocks: releases and targets
    scores, bits = _play_chunks(rounds, seed, threads, d if zv is not None else 2 * d, 1, body)
    return scores[:, 0], bits


def _play_fixed_game(cfg: GameConfig) -> tuple[np.ndarray, np.ndarray]:
    """run_fixed_game as (scores, bits) arrays."""
    score_fn = make_score(
        cfg.score_name, dist=cfg.dist, n=cfg.n, mech=cfg.mech, **cfg.score_kwargs
    )
    return _play(cfg.dist, cfg.mech, cfg.n, cfg.z, score_fn, cfg.rounds, cfg.master_seed,
                 cfg.threads)


def run_fixed_game(cfg: GameConfig) -> list[ScoredRound]:
    """Run a full fixed-target game: craft a transcript under cfg's seed and
    score it with the configured attack."""
    return _scored_rounds(*_play_fixed_game(cfg))


def run_average_game(
    dist: ProductDistribution,
    mech,
    n: int,
    score,
    T: int,
    seed: int,
    threads: int | None = None,
) -> list[ScoredRound]:
    """Game variant where the target itself is random each round.

    Round t draws its target z from the distribution, then crafts as
    :func:`craft` does on the same stream: on heads z is planted among n - 1
    fresh rows, on tails n fresh rows are released. The score is taken
    against the round's own target, so averaging over rounds averages the
    fixed-target game over targets drawn from the distribution. The law is
    that of a heads target chosen uniformly from n i.i.d. rows, since such a
    row is a draw from the distribution among n - 1 others. Rounds are
    crafted and scored by chunk, as in :func:`run_fixed_game`, each chunk
    against its block of targets. ``threads`` as in :func:`run_crafter`.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _scored_rounds(*_play(dist, mech, n, None, score, T, seed, threads))


def _arrays(rounds) -> tuple[np.ndarray, np.ndarray]:
    # scores and bits of objects with .score and .b
    return (np.array([r.score for r in rounds], dtype=np.float64),
            np.array([r.b for r in rounds], dtype=np.uint8))


def _checked(scores, bits) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    if len(s) == 0:
        raise ValueError("no rounds")
    if np.any(np.isnan(s)):
        raise ValueError("scores contain NaN")
    return s, np.asarray(bits)


def roc(rounds) -> RocCurve:
    """Empirical ROC curve of scored rounds.

    Thresholds sweep the distinct score values from high to low; tied scores
    form one step, and infinite sentinel scores cluster at the extreme ends
    of the sweep exactly as an always/never-fire threshold would.

    Raises:
      ValueError: if either class is missing.
    """
    return _roc(*_arrays(rounds))


def _roc(scores, bits) -> RocCurve:
    """roc of a scores array and its 0/1 bits array.

    One sort orders the rounds from the highest score to the lowest; the
    sweep then reads that order a block of _BLOCK_ROWS rounds at a time,
    once to count the tie groups and once to write each group's point, the
    counts at the group's last round over the class sizes. Which order a
    tie group's rounds take does not matter, since only its last counts
    are kept, and infinite sentinels group like any other value.
    """
    s, b = _checked(scores, bits)
    n1 = np.count_nonzero(b)
    n0 = len(b) - n1
    if n0 == 0 or n1 == 0:
        raise ValueError("ROC needs at least one round of each class")
    order = np.argsort(s)[::-1]
    starts = range(0, len(s), _BLOCK_ROWS)

    def ends(lo: int) -> np.ndarray:
        # the sweep positions in the block at lo, counted from lo, that end a
        # tie group: the next score differs, or there is no next score
        v = s[order[lo:lo + _BLOCK_ROWS + 1]]
        last = np.flatnonzero(v[1:] != v[:-1])
        return last if lo + _BLOCK_ROWS < len(s) else np.append(last, len(v) - 1)

    points = np.empty((1 + sum(len(ends(lo)) for lo in starts), 2))
    points[0] = 0.0
    at, tp = 1, 0
    for lo in starts:
        last = ends(lo)
        tps = np.cumsum(b[order[lo:lo + _BLOCK_ROWS]], dtype=np.intp)
        tps += tp
        tp = int(tps[-1])
        tps = tps[last]
        np.divide(lo + 1 + last - tps, float(n0), out=points[at:at + len(last), 0])
        np.divide(tps, float(n1), out=points[at:at + len(last), 1])
        at += len(last)
    points.flags.writeable = False
    return RocCurve(points=points, auc=float(np.trapezoid(points[:, 1], points[:, 0])))


def empirical_advantage(rounds, threshold: float) -> float:
    """Centered accuracy of the threshold test: 2 * mean(1{(score > t) == b}) - 1."""
    return _advantage(*_arrays(rounds), threshold)


def _advantage(scores, bits, threshold: float) -> float:
    # empirical_advantage of a scores array and its bits array
    s, b = _checked(scores, bits)
    return float(2.0 * (np.count_nonzero(np.equal(s > threshold, b)) / len(s)) - 1.0)
