"""Command-line front end.

Subcommands: theory, simulate, canary, whitebox, report. Structured input
arrives as JSON config files; a few scalar flags (rounds, seed, threads)
override config values. Outputs are CSV, JSON, and SVG files under an
explicit output directory. Every run is a pure function of its inputs and
seed: floats are serialized with 17 significant digits and re-runs are
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

import numpy as np

from . import __version__
from ._util import ConfigError, NumericalError
from .canary import estimate_reference, mahalanobis_score_est
from .dist import ProductDistribution, target_from_spec
from .game import GameConfig, _advantage, _play_fixed_game, _roc
from .mech import mechanism_from_spec
from .theory import (
    _check_monotone,
    effective_leakage,
    polyline_gap,
    sup_norm_gap,
    tradeoff_curve,
    vertical_gap,
)
from .whitebox import (
    ToyModel,
    _check_slice,
    _play_reps,
    make_blobs,
    reference_gradients,
)

_THREADS_HELP = "worker threads (env MI_AUDIT_THREADS); none runs serially"
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _config_hash(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _write_csv(path: str, header: str, fmt: str, rows) -> None:
    # one line fmt % row per row; floats take %.17g, the 17 significant
    # digits that read back to the same double
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        f.write("".join(map((fmt + "\n").__mod__, rows)))


def _load_matrix_csv(path: str, skiprows: int = 0) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)
    except (OSError, ValueError) as e:
        raise ConfigError(f"could not read numeric CSV {path}: {e}") from e


def _load_curve_csv(path: str) -> np.ndarray:
    # a header line, then (x, y) rows that never decrease, as polyline_gap asks
    pts = _load_matrix_csv(path, skiprows=1)
    if pts.shape[1] != 2:
        raise ConfigError(f"{path}: expected two columns, got {pts.shape[1]}")
    try:
        return _check_monotone(pts)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _threads(args, cfg: dict):
    # --threads, then MI_AUDIT_THREADS, then the config's own value
    if getattr(args, "threads", None) is not None:
        return args.threads
    env = os.environ.get("MI_AUDIT_THREADS")
    if env:
        try:
            return int(env)
        except ValueError as e:
            raise ConfigError(f"MI_AUDIT_THREADS must be an integer, got {env!r}") from e
    return cfg.get("threads")


def _run_hash(cfg: dict) -> str:
    # the worker count never changes a result, so it stays out of the hash
    return _config_hash({k: v for k, v in cfg.items() if k != "threads"})


def _out_dir(args) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def _theory_fields(curve) -> dict:
    # A subsampled release is compared against the inclusion mixture, so
    # its artifacts name the mixture's two parameters. Other mechanisms
    # keep their fields unchanged.
    if curve.q == 1.0:
        return {}
    return {"inclusion_probability": curve.q, "m_in": curve.m_eff}


def _meta(config_hash: str, master_seed) -> dict:
    return {
        "config_hash": config_hash,
        "master_seed": master_seed,
        "tool_version": __version__,
    }


# -- theory --------------------------------------------------------------------


def cmd_theory(args) -> int:
    cfg = _load_config(args.config)
    try:
        dist = ProductDistribution.from_spec(cfg["dist"])
        z = target_from_spec(cfg["target"], dist)
        n = int(cfg["n"])
    except KeyError as e:
        raise ConfigError(f"theory config missing key {e}") from e
    mech = mechanism_from_spec(cfg["mechanism"]) if "mechanism" in cfg else None
    grid_points = int(cfg.get("grid_points", 512))
    epsilons = [float(e) for e in cfg.get("epsilons", np.arange(0.0, 5.01, 0.5))]

    m_star = dist.leakage_score(z, n)
    m_eff = effective_leakage(dist, z, n, mech)
    curve = tradeoff_curve(dist, z, n, mech, grid_points)
    out = _out_dir(args)
    _write_csv(
        os.path.join(out, "tradeoff.csv"),
        "alpha,power",
        "%.17g,%.17g",
        zip(curve.alphas.tolist(), curve.powers.tolist()),
    )
    profile = _meta(_run_hash(cfg), None)
    profile.update(
        {
            "m_star": m_star,
            "m_eff": m_eff,
            "leakage": curve.leakage(),
            "grid_points": grid_points,
            "gdp": [
                {"eps": e, "delta": curve.delta(e) if curve.m_eff > 0 else 0.0}
                for e in epsilons
            ],
            **_theory_fields(curve),
        }
    )
    _write_json(os.path.join(out, "profile.json"), profile)
    return 0


# -- simulate --------------------------------------------------------------------


def cmd_simulate(args) -> int:
    raw = _load_config(args.config)
    if args.rounds is not None:
        raw["rounds"] = args.rounds
    if args.master_seed is not None:
        raw["master_seed"] = args.master_seed
    raw["threads"] = _threads(args, raw)
    cfg = GameConfig.from_dict(raw)

    scores, bits = _play_fixed_game(cfg)
    curve = _roc(scores, bits)
    m_star = cfg.dist.leakage_score(cfg.z, cfg.n)
    m_eff = effective_leakage(cfg.dist, cfg.z, cfg.n, cfg.mech)
    theory = tradeoff_curve(cfg.dist, cfg.z, cfg.n, cfg.mech, 512)
    floor = min(1.0, 10.0 / max(1, min(int((bits == 0).sum()), int((bits == 1).sum()))))

    out = _out_dir(args)
    _write_csv(
        os.path.join(out, "rounds.csv"),
        "round,score,b",
        "%d,%.17g,%d",
        zip(range(cfg.rounds), scores.tolist(), bits.tolist()),
    )
    _write_csv(
        os.path.join(out, "roc.csv"), "fpr,tpr", "%.17g,%.17g", map(tuple, curve.points.tolist())
    )
    summary = _meta(_run_hash(raw), cfg.master_seed)
    summary.update(
        {
            "m_star": m_star,
            "m_eff": m_eff,
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
            **_theory_fields(theory),
        }
    )
    _write_json(os.path.join(out, "summary.json"), summary)
    return 0


# -- canary --------------------------------------------------------------------


def cmd_canary(args) -> int:
    refs_matrix = _load_matrix_csv(args.refs)
    cands = _load_matrix_csv(args.candidates)
    if cands.shape[1] != refs_matrix.shape[1]:
        raise ConfigError(
            f"candidates have {cands.shape[1]} columns, references have {refs_matrix.shape[1]}"
        )
    refs = estimate_reference(
        refs_matrix, cov_mode=args.cov_mode, ridge=args.ridge, centered=args.centered
    )
    scores = [mahalanobis_score_est(x, refs) for x in cands]
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
    out = _out_dir(args)
    _write_json(os.path.join(out, "ranking.json"), doc)
    return 0


# -- whitebox --------------------------------------------------------------------


def _param_slice(cfg) -> tuple | None:
    # a JSON list of one to three integers or nulls, the arguments of slice()
    raw = cfg.get("param_slice")
    if raw is None:
        return None
    if (not isinstance(raw, list) or not 1 <= len(raw) <= 3
            or any(isinstance(v, bool) or not isinstance(v, (int, type(None))) for v in raw)):
        raise ConfigError(f"param_slice must be a list [start, stop] of integers or nulls, "
                          f"as slice() takes them, got {raw!r}")
    return tuple(raw)


def cmd_whitebox(args) -> int:
    cfg = _load_config(args.config)
    if args.master_seed is not None:
        cfg["master_seed"] = args.master_seed
    try:
        data_spec = cfg["data"]
        arch = cfg["arch"]
        eta = float(cfg["eta"])
        batch_size = int(cfg["batch_size"])
        reps = int(cfg["reps"])
        master_seed = int(cfg["master_seed"])
    except KeyError as e:
        raise ConfigError(f"whitebox config missing key {e}") from e

    if "blobs" in data_spec:
        spec = data_spec["blobs"]
        try:
            # the model has the spec's c classes, whether or not the draw
            # hits every one of them; one extra point so the training set
            # keeps its stated size after the target is pulled out of the pool
            classes = int(spec["c"])
            X, y = make_blobs(
                int(spec["n"]) + 1,
                int(spec["f"]),
                classes,
                center_scale=float(spec.get("center_scale", 2.0)),
                spread=float(spec.get("spread", 1.0)),
                seed=int(spec.get("seed", 0)),
            )
        except KeyError as e:
            raise ConfigError(f"blobs spec missing key {e}") from e
    elif "csv" in data_spec:
        mat = _load_matrix_csv(data_spec["csv"])
        if mat.shape[1] < 2:
            raise ConfigError("data CSV needs feature columns plus a label column")
        X, y = mat[:, :-1], mat[:, -1]
        classes = 1
        if arch == "logistic":
            if not np.all(np.isfinite(y) & (y >= 0) & (y == np.floor(y))):
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
        init = cfg["theta0"]
        shape = ToyModel(arch, f=X.shape[1], c=c).d_p
        rng = np.random.default_rng(int(init.get("seed", 0)))
        theta0 = rng.standard_normal(shape) * float(init.get("scale", 1.0))
    model = ToyModel(arch, f=X.shape[1], c=c, theta=theta0)

    def fit_refs(grad_rows):
        return estimate_reference(
            grad_rows,
            cov_mode=cfg.get("cov_mode", "full"),
            ridge=cfg.get("ridge"),
            centered=bool(cfg.get("centered", False)),
        )

    grads = reference_gradients(model, X, y)
    pool_refs = fit_refs(grads)
    maha = np.array([mahalanobis_score_est(g, pool_refs) for g in grads])

    target_spec = cfg.get("target", {"rank": "top"})
    if "index" in target_spec:
        t_idx = int(target_spec["index"])
        if not 0 <= t_idx < len(X):
            raise ConfigError(f"target index {t_idx} out of range for pool of {len(X)}")
    elif target_spec.get("rank") == "top":
        t_idx = int(np.argmax(maha))
    elif target_spec.get("rank") == "bottom":
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
    attacks = ("covariance", "scalar")
    # both attacks score each rep's one training run
    scores, bits = _play_reps(model, X_base, y_base, target, refs, attacks, sl, eta=eta,
                              batch_size=batch_size, reps=reps, master_seed=master_seed,
                              epochs=int(cfg.get("epochs", 1)), clip=cfg.get("clip"),
                              noise=cfg.get("noise"), threads=_threads(args, cfg))
    out = _out_dir(args)
    results = {}
    for attack, column in zip(attacks, scores.T):
        curve = _roc(column, bits)
        results[attack] = {"auc": curve.auc, "advantage_best_threshold": curve.best_advantage()}
        _write_csv(os.path.join(out, f"scores_{attack}.csv"), "rep,score,b", "%d,%.17g,%d",
                   zip(range(reps), column.tolist(), bits.tolist()))

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
    _write_json(os.path.join(out, "whitebox.json"), doc)
    return 0


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


def cmd_report(args) -> int:
    if not args.roc:
        raise ConfigError("report needs at least one --roc CSV")
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
    out = _out_dir(args)
    with open(os.path.join(out, "report.svg"), "w", encoding="utf-8") as f:
        f.write(_svg_roc(curves, log_x=args.log_x, x_min=args.x_min))
    params = {
        "inputs": [_file_digest(p) for p in args.roc + (args.theory or [])],
        "log_x": args.log_x,
        "x_min": args.x_min,
    }
    doc = _meta(_config_hash(params), None)
    doc["pairs"] = gaps
    _write_json(os.path.join(out, "gaps.json"), doc)
    return 0


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
        return args.func(args)
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
