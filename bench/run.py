"""Benchmark for mi-audit: three audit workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (the package is imported from its
``src`` directory, never from an installed copy):

    python3 bench/run.py --workload mean_release_d5000 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

With ``--trace 0`` the run prints ``rounds_per_s``, ``cpu_ms_per_round``,
``peak_rss_mb`` and ``setup_s``; with ``--trace 1`` it wraps the package's
public functions (see ``spans.py``), plays a fixed number of batches and
prints per-layer totals. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, BENCH_DIR)

from spans import LAYER_METRICS, Tracer, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
MIN_TIMED_BATCHES = 3

END_TO_END = [
    ("rounds_per_s", "rounds/s"),
    ("cpu_ms_per_round", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def _import_program():
    """Import mi_audit from this checkout's src directory, or exit with code 2."""
    sys.path.insert(0, SRC)
    try:
        import mi_audit
        import mi_audit.cli  # noqa: F401
    except ImportError as e:
        print(f"bench: cannot import mi_audit from {SRC}: {e}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(mi_audit.__file__).startswith(SRC + os.sep):
        print(f"bench: mi_audit came from {mi_audit.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return mi_audit


def _fix_mmap_threshold() -> None:
    """Pin glibc's mmap threshold at its 128 KiB default.

    Left adaptive, the threshold rises to the size of the first large buffer
    freed, after which the per-round n x d buffers come from per-thread heaps
    whose retained pages depend on how the two workers' frees interleave:
    peak RSS then wandered by 15 MB between runs of the same seed. Pinned,
    every buffer above 128 KiB is mapped when allocated and returned when
    freed, so peak RSS reads live memory. Each large buffer then pays its
    page faults, in every run alike.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    M_MMAP_THRESHOLD = -3
    libc.mallopt(M_MMAP_THRESHOLD, 128 * 1024)


def _child_import_seconds() -> float:
    """Time `import mi_audit` in a fresh interpreter, as a user pays it."""
    code = ("import time; t = time.perf_counter(); import mi_audit; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


class Outcome:
    def __init__(self):
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.samples = []  # (rounds, wall s, cpu s) of each timed batch

    def reject(self, what: str, exc: BaseException) -> None:
        self.correct = False
        print(f"bench: {what} failed:", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)


def play(wl, outcome: Outcome, *, seconds: float | None = None, batches: int | None = None,
         tracer: Tracer | None = None) -> None:
    """Batch 0 warms caches and is not timed. Timed batches follow, at
    least MIN_TIMED_BATCHES of them, until another batch as long as the last
    would end after ``seconds`` (or exactly ``batches`` of them). Each batch
    is checked right after it, outside its timed window."""
    start = time.perf_counter()
    b = 0
    while True:
        if tracer is not None:
            tracer.batch = b
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            rounds = wl.batch(b)
            ok = True
        except Exception as e:  # a failed batch counts all of its rounds as failed
            rounds, ok = wl.rounds_per_batch, False
            print(f"bench: batch {b} raised:", file=sys.stderr)
            traceback.print_exception(e, file=sys.stderr)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        print(f"bench: batch {b}: {rounds} rounds, {wall:.3f} s wall, {cpu:.3f} s cpu",
              file=sys.stderr)
        outcome.attempted += rounds
        if ok:
            if b > 0:
                outcome.samples.append((rounds, wall, cpu))
            if tracer is not None:
                tracer.paused = True
            try:
                wl.verify_batch()
            except Exception as e:
                outcome.reject(f"check of batch {b}", e)
            finally:
                if tracer is not None:
                    tracer.paused = False
        else:
            outcome.failed += rounds
        b += 1
        timed = b - 1
        if batches is not None:
            if timed >= batches:
                break
        elif timed >= MIN_TIMED_BATCHES and time.perf_counter() - start + wall > seconds:
            break
    if not outcome.samples:
        print("bench: no timed batch completed; no metric to report", file=sys.stderr)
        sys.exit(1)


def _rate(samples) -> float:
    return statistics.median(r / w for r, w, _ in samples)


def _verify_run(wl, outcome: Outcome) -> None:
    try:
        for note in wl.verify_run():
            print(f"check: {note}")
    except Exception as e:
        outcome.reject("run check", e)


def timed_run(mi, cls, seed: int, seconds: float, workdir: str) -> tuple[Outcome, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        imp = _child_import_seconds()
        t0 = time.perf_counter()
        wl = cls(mi, seed, workdir)
        setups.append(imp + time.perf_counter() - t0)
    outcome = Outcome()
    play(wl, outcome, seconds=seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _verify_run(wl, outcome)
    s = outcome.samples
    metrics = {
        "rounds_per_s": _rate(s),
        "cpu_ms_per_round": statistics.median(1000.0 * c / r for r, _, c in s),
        "peak_rss_mb": peak_kb / 1024.0,
        "setup_s": statistics.median(setups),
    }
    return outcome, {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}


def traced_run(mi, cls, seed: int, workdir: str) -> tuple[Outcome, dict]:
    tracer = Tracer()
    restore = instrument(mi, tracer)
    try:
        wl = cls(mi, seed, workdir)
        wl.tracer = tracer
        outcome = Outcome()
        play(wl, outcome, batches=cls.TRACE_BATCHES, tracer=tracer)
        tracer.paused = True
        _verify_run(wl, outcome)
    finally:
        restore()
    values = tracer.layer_metrics(outcome.attempted, _rate(outcome.samples))
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{cls.name}-seed{seed}.npz"))
    return outcome, {k: {"value": values[k], "unit": u} for k, u, _, _ in LAYER_METRICS}


def run_one(args) -> int:
    _fix_mmap_threshold()
    mi = _import_program()
    os.environ.pop("MI_AUDIT_THREADS", None)
    cls = WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            outcome, metrics = traced_run(mi, cls, args.seed, workdir)
        else:
            outcome, metrics = timed_run(mi, cls, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted {outcome.attempted} failed {outcome.failed} "
          f"correct {outcome.correct}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, one after the other, so that
    peak memory and set-up belong to one workload."""
    results = {}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"bench: {name} exited with {proc.returncode}", file=sys.stderr)
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
