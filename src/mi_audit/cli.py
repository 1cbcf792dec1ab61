"""Command-line front end.

Subcommands: theory, simulate, canary, whitebox, report. Structured input
arrives as JSON config files; a few scalar flags (rounds, seed, threads)
override config values, and with no --threads the config's threads key, if
any, sets the worker count. Every config value is read through
config_value, so a missing key or a value of the wrong type is a config
error that names the dotted key. Each subcommand returns its artifacts, CSV,
JSON and SVG, by file name, and one writer puts them under the explicit
output directory. Every run is a pure function of its inputs and seed:
floats are serialized with 17 significant digits and re-runs are
byte-identical.

Exit codes: 0 success, 2 usage or config error, 3 numerical failure. On
failure a one-line JSON object {"error": kind, "message": ...} is printed
to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from ._util import ConfigError, NumericalError, config_checked, config_value
from .canary import _mahalanobis_rows, estimate_reference
from .game import GameConfig, _advantage, _play_fixed_game, _read_model, _roc
from .theory import (
    _check_epsilon,
    _check_monotone,
    effective_leakage,
    polyline_gap,
    sup_norm_gap,
    tradeoff_curve,
    vertical_gap,
)
from .whitebox import (
    _ATTACKS,
    ToyModel,
    _check_game,
    _check_slice,
    _play_reps,
    make_blobs,
    reference_gradients,
)

_THREADS_HELP = "worker threads, in place of the config's threads; none runs serially"
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
# a CSV is formatted and written this many rows at a time, so a game of 10^6
# rounds never holds its whole CSV text, or a Python float for each score
_CSV_BLOCK_ROWS = 4096


def _config_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return config_value({"config": json.load(f)}, "config", dict)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e


class _Csv(NamedTuple):
    """A CSV artifact: the header line, then one line ``fmt % row`` for each
    row of ``columns``, 1-D arrays or ranges of one length. Floats take
    %.17g, the 17 significant digits that read back to the same double."""

    header: str
    fmt: str
    columns: tuple


def _write_rows(f, csv: _Csv) -> None:
    line = csv.fmt + "\n"
    f.write(csv.header + "\n")
    for start in range(0, len(csv.columns[0]), _CSV_BLOCK_ROWS):
        block = [c[start:start + _CSV_BLOCK_ROWS] for c in csv.columns]
        # %.17g formats a Python float faster than a numpy scalar, and to
        # the same text
        rows = zip(*(b.tolist() if isinstance(b, np.ndarray) else b for b in block))
        f.write("".join(map(line.__mod__, rows)))


def _write_artifacts(out_dir: str, artifacts: dict) -> None:
    """Write a command's artifacts into ``out_dir``, keyed by file name: a
    _Csv in row blocks, a str as it is, and anything else as a JSON document.

    JSON has no NaN or Infinity. Every document is rendered before the
    directory is made or any file opens, so a non-finite value raises a
    NumericalError that names its file and a failed run writes nothing."""
    texts = {}
    for name, obj in artifacts.items():
        if isinstance(obj, (_Csv, str)):
            texts[name] = obj
            continue
        try:
            texts[name] = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
        except ValueError as e:
            raise NumericalError(f"{name}: {e}") from e
    os.makedirs(out_dir, exist_ok=True)
    for name, obj in texts.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
            if isinstance(obj, _Csv):
                _write_rows(f, obj)
            else:
                f.write(obj)


def _load_matrix_csv(path: str, skiprows: int = 0) -> np.ndarray:
    # every entry finite: a NaN or inf would reach the artifacts
    try:
        mat = np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)
    except (OSError, ValueError) as e:
        raise ConfigError(f"could not read numeric CSV {path}: {e}") from e
    bad = np.argwhere(~np.isfinite(mat))
    if bad.size:
        r, c = bad[0]
        raise ConfigError(f"{path}: data row {r + 1}, column {c + 1} is {mat[r, c]}; "
                          "every entry must be finite")
    return mat


def _load_curve_csv(path: str) -> np.ndarray:
    # a header line, then (x, y) rows that never decrease, as polyline_gap asks
    pts = _load_matrix_csv(path, skiprows=1)
    if pts.shape[1] != 2:
        raise ConfigError(f"{path}: expected two columns, got {pts.shape[1]}")
    try:
        return _check_monotone(pts)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _override(cfg: dict, args, *keys) -> dict:
    # the flags given, --threads among them, in place of the config's values
    cfg.update({k: getattr(args, k) for k in keys if getattr(args, k) is not None})
    return cfg


def _run_hash(cfg: dict) -> str:
    # the worker count never changes a result, so it stays out of the hash
    return _config_hash({k: v for k, v in cfg.items() if k != "threads"})


def _model_fields(dist, mech, n: int, z, num: int):
    """The trade-off curve of a game's model on ``num`` points, and the
    fields that theory and simulate both write for it. A subsampled release
    is compared against the inclusion mixture, so its fields also name the
    mixture's two parameters."""
    curve = tradeoff_curve(dist, z, n, mech, num)
    fields = {"m_star": dist.leakage_score(z, n), "m_eff": effective_leakage(dist, z, n, mech)}
    if curve.q != 1.0:
        fields.update(inclusion_probability=curve.q, m_in=curve.m_eff)
    return curve, fields


def _meta(config_hash: str, master_seed) -> dict:
    return {
        "config_hash": config_hash,
        "master_seed": master_seed,
        "tool_version": __version__,
    }


# -- theory --------------------------------------------------------------------


def cmd_theory(args) -> dict:
    cfg = _load_config(args.config)
    # the model simulate reads, with the mechanism optional
    dist, mech, n, z = _read_model(cfg, None)
    grid_points = config_value(cfg, "grid_points", int, 512)
    eps = config_value(cfg, "epsilons", list, np.arange(0.0, 5.01, 0.5))
    epsilons = [config_checked(_check_epsilon, eps, i, float, where="epsilons")
                for i in range(len(eps))]

    curve, fields = _model_fields(dist, mech, n, z, grid_points)
    profile = _meta(_run_hash(cfg), None)
    profile.update(
        {
            **fields,
            "leakage": curve.leakage(),
            "grid_points": grid_points,
            "gdp": [
                {"eps": e, "delta": curve.delta(e) if curve.m_eff > 0 else 0.0}
                for e in epsilons
            ],
        }
    )
    return {
        "tradeoff.csv": _Csv("alpha,power", "%.17g,%.17g", (curve.alphas, curve.powers)),
        "profile.json": profile,
    }


# -- simulate --------------------------------------------------------------------


def cmd_simulate(args) -> dict:
    raw = _override(_load_config(args.config), args, "rounds", "master_seed", "threads")
    cfg = GameConfig.from_dict(raw)

    scores, bits = _play_fixed_game(cfg)
    curve = _roc(scores, bits)
    theory, fields = _model_fields(cfg.dist, cfg.mech, cfg.n, cfg.z, 512)
    floor = min(1.0, 10.0 / max(1, min(int((bits == 0).sum()), int((bits == 1).sum()))))

    summary = _meta(_run_hash(raw), cfg.master_seed)
    summary.update(
        {
            **fields,
            "auc": curve.auc,
            "advantage_at_bayes_threshold": _advantage(scores, bits, 0.0),
            "advantage_best_threshold": curve.best_advantage(),
            "theory_leakage": theory.leakage(),
            "sup_norm_gap": sup_norm_gap(curve.points, theory),
            "vertical_gap": vertical_gap(curve.points, theory, alpha_min=floor),
            "vertical_gap_alpha_min": floor,
            "rounds": cfg.rounds,
            "n": cfg.n,
            "d": cfg.dist.d,
            "score": cfg.score_name,
            "theory_alpha_grid": 512,
        }
    )
    return {
        "rounds.csv": _Csv("round,score,b", "%d,%.17g,%d", (range(cfg.rounds), scores, bits)),
        "roc.csv": _Csv("fpr,tpr", "%.17g,%.17g", (curve.points[:, 0], curve.points[:, 1])),
        "summary.json": summary,
    }


# -- canary --------------------------------------------------------------------


def cmd_canary(args) -> dict:
    refs_matrix = _load_matrix_csv(args.refs)
    cands = _load_matrix_csv(args.candidates)
    if cands.shape[1] != refs_matrix.shape[1]:
        raise ConfigError(
            f"candidates have {cands.shape[1]} columns, references have {refs_matrix.shape[1]}"
        )
    refs = estimate_reference(
        refs_matrix, cov_mode=args.cov_mode, ridge=args.ridge, centered=args.centered
    )
    scores = _mahalanobis_rows(cands, refs).tolist()
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))

    params = {
        "refs_sha256": _file_digest(args.refs),
        "candidates_sha256": _file_digest(args.candidates),
        "cov_mode": args.cov_mode,
        "ridge": args.ridge,
        "centered": args.centered,
    }
    doc = _meta(_config_hash(params), None)
    doc.update(
        {
            "cov_mode": args.cov_mode,
            "ridge": refs.ridge,
            "centered": args.centered,
            "n0": refs.n0,
            "ranking": [{"index": i, "score": scores[i]} for i in order],
        }
    )
    return {"ranking.json": doc}


# -- whitebox --------------------------------------------------------------------


def _param_slice(cfg) -> tuple | None:
    # a JSON list of one to three integers or nulls, the arguments of slice()
    raw = config_value(cfg, "param_slice", list, None)
    if raw is None:
        return None
    if (not 1 <= len(raw) <= 3
            or any(isinstance(v, bool) or not isinstance(v, (int, type(None))) for v in raw)):
        raise ConfigError(f"param_slice must be a list [start, stop] of integers or nulls, "
                          f"as slice() takes them, got {raw!r}")
    return tuple(raw)


def cmd_whitebox(args) -> dict:
    cfg = _override(_load_config(args.config), args, "master_seed", "threads")
    data = config_value(cfg, "data", dict)
    arch = config_value(cfg, "arch", str)
    eta = config_value(cfg, "eta", float)
    batch_size = config_value(cfg, "batch_size", int)
    reps = config_value(cfg, "reps", int)
    master_seed = config_value(cfg, "master_seed", int)

    if "blobs" in data:
        spec = config_value(data, "blobs", dict, where="data")
        # the model has the spec's c classes, whether or not the draw
        # hits every one of them; one extra point so the training set
        # keeps its stated size after the target is pulled out of the pool
        classes = config_value(spec, "c", int, where="data.blobs")
        X, y = make_blobs(
            config_value(spec, "n", int, where="data.blobs") + 1,
            config_value(spec, "f", int, where="data.blobs"),
            classes,
            center_scale=config_value(spec, "center_scale", float, 2.0, where="data.blobs"),
            spread=config_value(spec, "spread", float, 1.0, where="data.blobs"),
            seed=config_value(spec, "seed", int, 0, where="data.blobs"),
        )
    elif "csv" in data:
        mat = _load_matrix_csv(config_value(data, "csv", str, where="data"))
        if mat.shape[1] < 2:
            raise ConfigError("data CSV needs feature columns plus a label column")
        X, y = mat[:, :-1], mat[:, -1]
        classes = 1
        if arch == "logistic":
            if not np.all((y >= 0) & (y == np.floor(y))):
                raise ConfigError("logistic labels in the data CSV must be integers >= 0")
            y = y.astype(np.int64)
            # the model gets max(label) + 1 classes, so every one must occur
            edges = np.concatenate(([-1], np.unique(y)))
            holes = [f"{a + 1}" if b - a == 2 else f"{a + 1}..{b - 1}"
                     for a, b in zip(edges[:-1], edges[1:]) if b - a > 1]
            if holes:
                raise ConfigError(f"logistic labels in the data CSV leave classes "
                                  f"{', '.join(holes)} empty; they must cover 0..{edges[-1]}")
            classes = int(edges[-1]) + 1
    else:
        raise ConfigError("data spec needs 'blobs' or 'csv'")

    c = max(2, classes) if arch == "logistic" else 1
    theta0 = None
    if "theta0" in cfg:
        init = config_value(cfg, "theta0", dict)
        shape = ToyModel(arch, f=X.shape[1], c=c).d_p
        rng = np.random.default_rng(config_value(init, "seed", int, 0, where="theta0"))
        theta0 = rng.standard_normal(shape) * config_value(init, "scale", float, 1.0,
                                                           where="theta0")
    model = ToyModel(arch, f=X.shape[1], c=c, theta=theta0)

    def fit_refs(grad_rows):
        return estimate_reference(
            grad_rows,
            cov_mode=config_value(cfg, "cov_mode", str, "full"),
            ridge=config_value(cfg, "ridge", float, None),
            centered=config_value(cfg, "centered", bool, False),
        )

    grads = reference_gradients(model, X, y)
    pool_refs = fit_refs(grads)
    maha = _mahalanobis_rows(grads, pool_refs)

    target_spec = config_value(cfg, "target", dict, {"rank": "top"})
    rank = config_value(target_spec, "rank", str, None, where="target")
    if "index" in target_spec:
        t_idx = config_value(target_spec, "index", int, where="target")
        if not 0 <= t_idx < len(X):
            raise ConfigError(f"target index {t_idx} out of range for pool of {len(X)}")
    elif rank == "top":
        t_idx = int(np.argmax(maha))
    elif rank == "bottom":
        t_idx = int(np.argmin(maha))
    else:
        raise ConfigError("target spec needs {'rank': 'top'|'bottom'} or {'index': i}")
    keep = np.arange(len(X)) != t_idx
    X_base, y_base = X[keep], y[keep]
    target = (X[t_idx], y[t_idx])
    sl = _check_slice(_param_slice(cfg), model.d_p)
    # attack references come from the rows the game actually trains on, so
    # the target's own gradient never contaminates the estimated moments,
    # and cover the attacked parameters only
    refs = fit_refs(grads[keep][:, sl])
    sgd = dict(eta=eta, batch_size=batch_size, epochs=config_value(cfg, "epochs", int, 1),
               clip=config_value(cfg, "clip", float, None),
               noise=config_value(cfg, "noise", float, None))
    threads = config_value(cfg, "threads", object, None)
    X_base, labels, target = _check_game(model, X_base, y_base, target, reps=reps, **sgd)
    # both attacks score each rep's one training run
    scores, bits = _play_reps(model, X_base, labels, target, refs, sl, reps=reps,
                              master_seed=master_seed, threads=threads, **sgd)
    artifacts, results = {}, {}
    for attack, column in zip(_ATTACKS, scores.T):
        curve = _roc(column, bits)
        results[attack] = {"auc": curve.auc, "advantage_best_threshold": curve.best_advantage()}
        artifacts[f"scores_{attack}.csv"] = _Csv("rep,score,b", "%d,%.17g,%d",
                                                 (range(reps), column, bits))

    doc = _meta(_run_hash(cfg), master_seed)
    doc.update(
        {
            "target_index": t_idx,
            "target_mahalanobis": float(maha[t_idx]),
            "train_rows": int(len(X_base)),
            "reps": reps,
            "attacks": results,
        }
    )
    artifacts["whitebox.json"] = doc
    return artifacts


# -- report --------------------------------------------------------------------


def _axis_ticks_linear():
    return [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]


def _svg_roc(curves, log_x: bool, x_min: float) -> str:
    """Hand-rolled SVG: empirical curves solid, theory curves dotted."""
    W, H = 640, 480
    ml, mr, mt, mb = 62, 16, 16, 46
    pw, ph = W - ml - mr, H - mt - mb

    def sx(x: float) -> float:
        if log_x:
            x = max(x, x_min)
            return ml + (np.log10(x) - np.log10(x_min)) / (0.0 - np.log10(x_min)) * pw
        return ml + x * pw

    def sy(y: float) -> float:
        return mt + (1.0 - y) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#333" stroke-width="1"/>',
    ]
    if log_x:
        decades = int(round(-np.log10(x_min)))
        x_ticks = [10.0 ** (-k) for k in range(decades, -1, -1)]
        x_label = lambda v: f"1e{int(round(np.log10(v)))}" if v < 1 else "1"
    else:
        x_ticks = _axis_ticks_linear()
        x_label = lambda v: f"{v:g}"
    for v in x_ticks:
        x = sx(v)
        parts.append(
            f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" y2="{mt + ph + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{mt + ph + 20}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif">{x_label(v)}</text>'
        )
    for v in _axis_ticks_linear():
        yy = sy(v)
        parts.append(f'<line x1="{ml - 5}" y1="{yy:.2f}" x2="{ml}" y2="{yy:.2f}" stroke="#333"/>')
        parts.append(
            f'<text x="{ml - 9}" y="{yy + 4:.2f}" font-size="12" text-anchor="end" '
            f'font-family="sans-serif">{v:g}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.2f}" y="{H - 10}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif">false positive rate</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + ph / 2:.2f}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {mt + ph / 2:.2f})">'
        "true positive rate</text>"
    )
    for spec in curves:
        pts = " ".join(f"{sx(p[0]):.2f},{sy(p[1]):.2f}" for p in spec["points"])
        dash = ' stroke-dasharray="2 4"' if spec["dotted"] else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{spec["color"]}" '
            f'stroke-width="1.6"{dash}/>'
        )
    for i, spec in enumerate(curves):
        yy = mt + 18 + 18 * i
        dash = ' stroke-dasharray="2 4"' if spec["dotted"] else ""
        parts.append(
            f'<line x1="{ml + 12}" y1="{yy}" x2="{ml + 44}" y2="{yy}" '
            f'stroke="{spec["color"]}" stroke-width="1.6"{dash}/>'
        )
        parts.append(
            f'<text x="{ml + 50}" y="{yy + 4}" font-size="12" font-family="sans-serif">'
            f'{spec["label"]}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_report(args) -> dict:
    if not args.roc:
        raise ConfigError("report needs at least one --roc CSV")
    if args.log_x and not 0 < args.x_min < 1:
        raise ConfigError(f"--x-min must lie in (0, 1) with --log-x, got {args.x_min}")
    if args.theory and len(args.theory) != len(args.roc):
        raise ConfigError(
            f"got {len(args.theory)} theory CSVs for {len(args.roc)} roc CSVs; "
            "counts must match when theory curves are given"
        )
    # every curve is checked before any artifact is written
    rocs = [_load_curve_csv(p) for p in args.roc]
    theories = [_load_curve_csv(p) for p in args.theory]
    curves = []
    gaps = []
    for i, (path, pts) in enumerate(zip(args.roc, rocs)):
        stem = os.path.splitext(os.path.basename(path))[0]
        color = _PALETTE[i % len(_PALETTE)]
        curves.append({"points": pts, "label": stem, "color": color, "dotted": False})
        if theories:
            tpts = theories[i]
            tstem = os.path.splitext(os.path.basename(args.theory[i]))[0]
            curves.append(
                {"points": tpts, "label": tstem, "color": color, "dotted": True}
            )
            gaps.append(
                {
                    "roc": os.path.basename(path),
                    "theory": os.path.basename(args.theory[i]),
                    "sup_norm_gap": polyline_gap(pts, tpts),
                }
            )
    params = {
        "inputs": [_file_digest(p) for p in args.roc + (args.theory or [])],
        "log_x": args.log_x,
        "x_min": args.x_min,
    }
    doc = _meta(_config_hash(params), None)
    doc["pairs"] = gaps
    return {"report.svg": _svg_roc(curves, log_x=args.log_x, x_min=args.x_min), "gaps.json": doc}


# -- parser --------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mi-audit",
        description="Membership-inference leakage auditing for mean-style releases.",
    )
    parser.add_argument("--version", action="version", version=f"mi-audit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theory", help="closed-form trade-off curve and GDP profile")
    p.add_argument("--config", required=True, help="JSON with dist, target, n, mechanism?")
    p.add_argument("-o", "--out-dir", required=True)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("simulate", help="run a fixed-target game and write ROC artifacts")
    p.add_argument("--config", required=True, help="game config JSON")
    p.add_argument("--rounds", type=int, help="override config rounds")
    p.add_argument("--master-seed", type=int, help="override config master_seed")
    p.add_argument("--threads", type=int, help=_THREADS_HELP)
    p.add_argument("-o", "--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("canary", help="rank candidate canaries by Mahalanobis score")
    p.add_argument("--refs", required=True, help="reference vectors CSV, row per vector")
    p.add_argument("--candidates", required=True, help="candidate vectors CSV")
    p.add_argument("--cov-mode", choices=("diagonal", "full"), default="diagonal")
    p.add_argument("--ridge", type=float, default=None)
    p.add_argument("--centered", action="store_true", help="center the covariance estimate")
    p.add_argument("-o", "--out-dir", required=True)
    p.set_defaults(func=cmd_canary)

    p = sub.add_parser("whitebox", help="include/exclude training game with gradient attacks")
    p.add_argument("--config", required=True, help="whitebox config JSON")
    p.add_argument("--master-seed", type=int, help="override config master_seed")
    p.add_argument("--threads", type=int, help=_THREADS_HELP)
    p.add_argument("-o", "--out-dir", required=True)
    p.set_defaults(func=cmd_whitebox)

    p = sub.add_parser("report", help="overlay empirical and theory curves as SVG")
    p.add_argument("--roc", action="append", default=[], help="empirical roc CSV (repeatable)")
    p.add_argument(
        "--theory", action="append", default=[], help="theory curve CSV paired by position"
    )
    p.add_argument("--log-x", action="store_true", help="logarithmic false-positive axis")
    p.add_argument("--x-min", type=float, default=1e-3, help="left edge for the log axis")
    p.add_argument("-o", "--out-dir", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _write_artifacts(args.out_dir, args.func(args))
        return 0
    except ConfigError as e:
        print(json.dumps({"error": "config", "message": str(e)}), file=sys.stderr)
        return 2
    except NumericalError as e:
        print(json.dumps({"error": "numerical", "message": str(e)}), file=sys.stderr)
        return 3
    except (OSError, ValueError) as e:
        print(json.dumps({"error": "config", "message": str(e)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
