"""Span tracing around mi_audit's public functions, installed from outside.

Nothing in the package changes: :func:`instrument` replaces chosen
functions and methods with wrappers that record one span per call (name,
start, end, parent span, batch, round) and a few counters (bytes returned,
SGD steps, CPU seconds). Spans stay in memory until the run ends, when
:meth:`Tracer.layer_metrics` turns them into per-layer totals and
:meth:`Tracer.write` saves them.

Worker threads of a thread pool have no open span of their own when a round
starts; their root spans take as parent the innermost span open on the main
thread, which is the pool's caller (``run_crafter`` or
``run_whitebox_game``). Self time subtracts the union of the child
intervals, so two children running side by side are not subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from array import array
from collections import defaultdict

import numpy as np

# Spans of the callables that make_score returns are named ATTACK + name.
ATTACK = "score.attack."
NO_ROUND = -1

# (metric name, unit, better, source). Every value is a total over the traced
# run. A source is (statistic, span name) with statistic "calls", "wall"
# (summed duration) or "busy" (summed self time), and a span name ending in
# "*" sums every span with that prefix; ("counter", key) reads a counter the
# wrappers add to; ("run", key) is a figure of the run itself.
LAYER_METRICS = [
    ("dist.sample_dataset.calls", "count", "lower", ("calls", "dist.sample_dataset")),
    ("dist.sample_dataset.busy_s", "s", "lower", ("busy", "dist.sample_dataset")),
    ("dist.sample_dataset.bytes", "B", "lower", ("counter", "dist.sample_dataset.bytes")),
    ("mech.apply.calls", "count", "lower", ("calls", "mech.apply")),
    ("mech.apply.busy_s", "s", "lower", ("busy", "mech.apply")),
    ("game.round_stream.busy_s", "s", "lower", ("busy", "game.round_stream")),
    ("game.craft.calls", "count", "lower", ("calls", "game.craft")),
    ("game.craft.busy_s", "s", "lower", ("busy", "game.craft")),
    ("game.run_crafter.wall_s", "s", "lower", ("wall", "game.run_crafter")),
    ("game.run_crafter.cpu_s", "s", "lower", ("counter", "game.run_crafter.cpu_s")),
    ("game.transcript.bytes", "B", "lower", ("counter", "game.transcript.bytes")),
    ("game.score_transcript.busy_s", "s", "lower", ("busy", "game.score_transcript")),
    ("game.roc.busy_s", "s", "lower", ("busy", "game.roc")),
    ("score.calls", "count", "lower", ("calls", ATTACK + "*")),
    ("score.busy_s", "s", "lower", ("busy", ATTACK + "*")),
    ("score.lr_asymptotic.busy_s", "s", "lower", ("busy", ATTACK + "lr_asymptotic")),
    ("score.lr_exact_bernoulli.busy_s", "s", "lower", ("busy", ATTACK + "lr_exact_bernoulli")),
    ("score.lr_noisy.busy_s", "s", "lower", ("busy", ATTACK + "lr_noisy")),
    ("score.lr_subsampled.busy_s", "s", "lower", ("busy", ATTACK + "lr_subsampled")),
    ("score.scalar_product.busy_s", "s", "lower", ("busy", ATTACK + "scalar_product")),
    ("score.make_score.busy_s", "s", "lower", ("busy", "score.make_score")),
    ("theory.tradeoff_curve.busy_s", "s", "lower", ("busy", "theory.tradeoff_curve")),
    ("theory.sup_norm_gap.busy_s", "s", "lower", ("busy", "theory.sup_norm_gap")),
    ("theory.vertical_gap.busy_s", "s", "lower", ("busy", "theory.vertical_gap")),
    ("canary.estimate_reference.busy_s", "s", "lower", ("busy", "canary.estimate_reference")),
    ("canary.mahalanobis_score_est.calls", "count", "lower",
     ("calls", "canary.mahalanobis_score_est")),
    ("canary.mahalanobis_score_est.busy_s", "s", "lower",
     ("busy", "canary.mahalanobis_score_est")),
    ("whitebox.train_sgd.calls", "count", "lower", ("calls", "whitebox.train_sgd")),
    ("whitebox.train_sgd.busy_s", "s", "lower", ("busy", "whitebox.train_sgd")),
    ("whitebox.sgd_steps", "count", "lower", ("counter", "whitebox.sgd_steps")),
    ("whitebox.grad.calls", "count", "lower", ("calls", "whitebox.grad")),
    ("whitebox.run_whitebox_attack.busy_s", "s", "lower",
     ("busy", "whitebox.run_whitebox_attack")),
    ("whitebox.run_whitebox_game.wall_s", "s", "lower", ("wall", "whitebox.run_whitebox_game")),
    ("whitebox.run_whitebox_game.cpu_s", "s", "lower",
     ("counter", "whitebox.run_whitebox_game.cpu_s")),
    ("cli.main.wall_s", "s", "lower", ("wall", "cli.main")),
    ("cli.self_s", "s", "lower", ("busy", "cli.main")),
    ("cli.artifact.bytes", "B", "lower", ("counter", "cli.artifact.bytes")),
    ("trace.rounds", "count", "higher", ("run", "rounds")),
    ("trace.spans", "count", "lower", ("calls", "*")),
    ("trace.rounds_per_s", "rounds/s", "higher", ("run", "rounds_per_s")),
]


class Tracer:
    """In-memory span store. Safe to record into from several threads."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()
        self.batch = NO_ROUND
        self.paused = False
        self.counters: dict[str, float] = defaultdict(float)
        self._sid = array("q")
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._batch = array("i")
        self._round = array("q")

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def set_round(self, index: int) -> None:
        self._tls.round = index

    def enter(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def leave(self, sid, parent, stack, name_id, t0, t1) -> None:
        stack.pop()
        rnd = getattr(self._tls, "round", NO_ROUND)
        with self._lock:
            self._sid.append(sid)
            self._name.append(name_id)
            self._start.append(t0)
            self._end.append(t1)
            self._parent.append(parent)
            self._batch.append(self.batch)
            self._round.append(rnd)

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[counter] += value

    def spans(self) -> dict[str, np.ndarray]:
        """Every closed span as columns ordered by span id."""
        sid = np.frombuffer(self._sid, dtype=np.int64)
        order = np.argsort(sid, kind="stable")
        return {
            "id": sid[order],
            "name": np.frombuffer(self._name, dtype=np.int32)[order],
            "start": np.frombuffer(self._start, dtype=np.float64)[order],
            "end": np.frombuffer(self._end, dtype=np.float64)[order],
            "parent": np.frombuffer(self._parent, dtype=np.int64)[order],
            "batch": np.frombuffer(self._batch, dtype=np.int32)[order],
            "round": np.frombuffer(self._round, dtype=np.int64)[order],
        }

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: call count, summed wall time, summed self time."""
        s = self.spans()
        n = len(s["id"])
        if n == 0:
            return {}, {}, {}
        # a span that opened before the traced run was read cannot be here,
        # so ids run 0..n-1 and a parent id is its row
        if not np.array_equal(s["id"], np.arange(n)):
            raise RuntimeError("span ids are not dense; a span was left open")
        self_s = self_times(s["start"], s["end"], s["parent"])
        dur = s["end"] - s["start"]
        k = len(self.names)
        calls = np.bincount(s["name"], minlength=k)
        wall = np.bincount(s["name"], weights=dur, minlength=k)
        busy = np.bincount(s["name"], weights=self_s, minlength=k)
        return (
            {nm: int(calls[i]) for i, nm in enumerate(self.names)},
            {nm: float(wall[i]) for i, nm in enumerate(self.names)},
            {nm: float(busy[i]) for i, nm in enumerate(self.names)},
        )

    def layer_metrics(self, rounds: int, rounds_per_s: float) -> dict[str, float]:
        """Every LAYER_METRICS value, given the run's round count and
        traced throughput."""
        calls, wall, busy = self.totals()
        stats = {"calls": calls, "wall": wall, "busy": busy, "counter": self.counters,
                 "run": {"rounds": rounds, "rounds_per_s": rounds_per_s}}
        values = {}
        for name, _, _, (stat, key) in LAYER_METRICS:
            table = stats[stat]
            if key.endswith("*"):
                values[name] = sum((v for k, v in table.items() if k.startswith(key[:-1])), 0)
            else:
                values[name] = table.get(key, 0)
        return values

    def write(self, path: str) -> None:
        """Save every span and the name table as a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its children cover.

    Children are merged as intervals before subtracting, so overlapping
    children on two worker threads count once. Rows are span ids; a parent
    of -1 marks a root.
    """
    n = len(start)
    dur = end - start
    kids = np.nonzero(parent >= 0)[0]
    if kids.size == 0:
        return dur.copy()
    base = float(start.min())
    s = start[kids] - base
    e = end[kids] - base
    par = parent[kids]
    # Shift each parent's group of children into its own disjoint time
    # window, then one global running maximum merges every group at once.
    span = float(e.max()) + 1.0
    rank = np.unique(par, return_inverse=True)[1].astype(np.float64)
    order = np.lexsort((s, par))
    s = s[order] + rank[order] * span
    e = e[order] + rank[order] * span
    par = par[order]
    reach = np.maximum.accumulate(e)
    prev = np.concatenate([[-np.inf], reach[:-1]])
    new_part = np.maximum(0.0, e - np.maximum(s, prev))
    covered = np.bincount(par, weights=new_part, minlength=n)
    return dur - covered


def _wrap(tracer: Tracer, name: str, fn, on_result=None, cpu_counter: str | None = None):
    nid = tracer.name_id(name)
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        sid, parent, stack = tracer.enter()
        c0 = time.process_time() if cpu_counter else 0.0
        t0 = clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = clock()
            tracer.leave(sid, parent, stack, nid, t0, t1)
            if cpu_counter:
                tracer.add(cpu_counter, time.process_time() - c0)
        if on_result is not None:
            on_result(out)
        return out

    return wrapper


def instrument(mi, tracer: Tracer):
    """Wrap mi_audit's public functions and methods; return an undo callable.

    A module-level function is replaced in every mi_audit module that holds
    it (the package namespace, its defining module and the modules that
    imported it by name), so calls between modules are traced too.
    """
    from mi_audit import canary, cli, dist, game, mech, score, theory, whitebox

    modules = [mi, canary, cli, dist, game, mech, score, theory, whitebox]
    undo = []

    def patch_function(fn, wrapper):
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    undo.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def patch_method(cls, attr, wrapper):
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def count(counter, measure):
        return lambda out: tracer.add(counter, measure(out))

    def on_round_stream(fn):
        @functools.wraps(fn)
        def keyed(master_seed, index):
            tracer.set_round(int(index))
            return fn(master_seed, index)

        return keyed

    def on_make_score(fn):
        @functools.wraps(fn)
        def binder(name, **kwargs):
            return _wrap(tracer, ATTACK + name, fn(name, **kwargs))

        return binder

    def batch_level(fn):
        # a pool's rounds end with it; later spans on this thread are not
        # part of any round
        @functools.wraps(fn)
        def call(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.set_round(NO_ROUND)

        return call

    patch_method(
        dist.ProductDistribution,
        "sample_dataset",
        _wrap(tracer, "dist.sample_dataset", dist.ProductDistribution.sample_dataset,
              count("dist.sample_dataset.bytes", lambda D: D.nbytes)),
    )
    for cls in (mech.EmpiricalMean, mech.NoisyMean, mech.SubsampledMean):
        patch_method(cls, "apply", _wrap(tracer, "mech.apply", cls.apply))
    patch_function(
        game.round_stream,
        _wrap(tracer, "game.round_stream", on_round_stream(game.round_stream)),
    )
    patch_function(game.craft, _wrap(tracer, "game.craft", game.craft))
    patch_function(
        game.run_crafter,
        _wrap(tracer, "game.run_crafter", batch_level(game.run_crafter),
              count("game.transcript.bytes", lambda t: t.outputs.nbytes + t.bits.nbytes),
              cpu_counter="game.run_crafter.cpu_s"),
    )
    patch_function(
        game.score_transcript, _wrap(tracer, "game.score_transcript", game.score_transcript)
    )
    patch_function(game.roc, _wrap(tracer, "game.roc", game.roc))
    patch_function(
        score.make_score,
        _wrap(tracer, "score.make_score", on_make_score(score.make_score)),
    )
    for fn in (theory.tradeoff_curve, theory.sup_norm_gap, theory.vertical_gap):
        patch_function(fn, _wrap(tracer, "theory." + fn.__name__, fn))
    for fn in (canary.estimate_reference, canary.mahalanobis_score_est):
        patch_function(fn, _wrap(tracer, "canary." + fn.__name__, fn))
    patch_function(
        whitebox.train_sgd,
        _wrap(tracer, "whitebox.train_sgd", whitebox.train_sgd,
              count("whitebox.sgd_steps", lambda tr: tr.steps)),
    )
    patch_method(whitebox.ToyModel, "grad", _wrap(tracer, "whitebox.grad", whitebox.ToyModel.grad))
    patch_function(
        whitebox.run_whitebox_attack,
        _wrap(tracer, "whitebox.run_whitebox_attack", whitebox.run_whitebox_attack),
    )
    patch_function(
        whitebox.run_whitebox_game,
        _wrap(tracer, "whitebox.run_whitebox_game", batch_level(whitebox.run_whitebox_game),
              cpu_counter="whitebox.run_whitebox_game.cpu_s"),
    )
    patch_function(cli.main, _wrap(tracer, "cli.main", cli.main))

    def restore():
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)

    return restore
