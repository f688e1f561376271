"""Command-line surface: loss benchmarking, synthetic training, score-file
evaluation, and hyperparameter sweeps.

Exit codes: 0 success, 2 usage or config error, 3 numeric failure (NaN abort
or an oracle mismatch under --verify). With --deterministic and --seed, any
command writes byte-identical reports across runs; numeric thread pools are
pinned to one thread before numpy loads, and wall-clock fields are nulled.
Numpy reads the pin when it first loads, so it holds only in a fresh process:
this module and the package root import no numpy, and each command imports
it when it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from dataclasses import replace

from . import __version__
from .errors import (
    DegenerateInputError,
    NumericsError,
    ParameterError,
    StructuralError,
    UndefinedMetricError,
    check_range,
)

BENCH_LOSSES = ("quadlinear", "smooth", "heaviside", "triplet", "contrastive")
# most gap points a bench-loss sweep may have; the default sweep has 25
BENCH_MAX_POINTS = 10**6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apranking",
        description=(
            "Average-precision-oriented ranking toolkit: listwise surrogate "
            "losses, top-K sequence similarity, exact AP metrics, and a "
            "synthetic trainer."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output directory (default: $APRANKING_OUT_DIR or ./apranking-out)")
    common.add_argument(
        "--seed", type=int, default=None,
        help="random seed (default: the seed of --config, else 0); overrides the config's seeds",
    )
    common.add_argument(
        "--deterministic",
        action="store_true",
        help="single-threaded numerics and reproducible, byte-identical reports",
    )

    bench = sub.add_parser(
        "bench-loss",
        parents=[common],
        help="emit value/gradient curves over a score-gap sweep and run the gradient-vanishing contrast check",
        description=(
            "For each loss, write a CSV of the per-pair penalty and its derivative "
            "over a gap sweep x = s_neg - s_pos, plus a JSON summary with the "
            "quad-linear vs sigmoid gradient contrast at x=0.5 and a finite-"
            "difference check on random query contexts. Defaults: delta=0.05, "
            "rho=0.10, tau=0.01, margin=0.2."
        ),
    )
    bench.add_argument("--losses", default="quadlinear,smooth", help=f"comma list from {BENCH_LOSSES}")
    bench.add_argument("--delta", type=float, default=0.05, help="quad-linear margin (default 0.05)")
    bench.add_argument("--rho", type=float, default=0.10, help="positive-pair weight (default 0.10)")
    bench.add_argument("--tau", type=float, default=0.01, help="sigmoid temperature (default 0.01)")
    bench.add_argument("--margin", type=float, default=0.2, help="pairwise-loss margin (default 0.2)")
    bench.add_argument("--seeds", type=int, default=5, help="seeds for the random-context gradient check")
    bench.add_argument("--gap-min", type=float, default=-0.2)
    bench.add_argument("--gap-max", type=float, default=1.0)
    bench.add_argument("--gap-step", type=float, default=0.05)

    trainp = sub.add_parser(
        "train",
        parents=[common],
        help="run synthetic training; with multiple --losses, emit a comparative per-loss report",
        description=(
            "Trains the similarity model on a seeded synthetic corpus and writes a "
            "checkpoint, a per-iteration CSV history, and a JSON run report. With a "
            "comma list in --losses, one model is trained per ranking loss under an "
            "identical budget for a side-by-side table; these runs disable the "
            "frame-level loss, so --lambda-f is rejected with them."
        ),
    )
    trainp.add_argument("--preset", choices=("easy", "hard"), default="easy")
    trainp.add_argument("--config", default=None, help="JSON config file (overrides --preset)")
    trainp.add_argument("--iterations", type=int, default=None)
    trainp.add_argument("--losses", default=None, help="video ranking loss, or a comma list for a comparative run")
    trainp.add_argument("--lambda-v", dest="lambda_v", type=float, default=None)
    trainp.add_argument("--lambda-f", dest="lambda_f", type=float, default=None)

    evalp = sub.add_parser(
        "eval",
        parents=[common],
        help="compute AP per query, mAP and micro-AP from score files",
        description=(
            "Reads scores and binary labels either from a tensor file holding "
            "'scores' and 'labels' arrays of shape (queries, items) or from a CSV "
            "with query,score,label columns, and writes a JSON metric report. "
            "--verify recomputes every AP with the brute-force oracle. Tied "
            "scores follow two rules: per-query AP and the oracle rank ties "
            "optimistically (a positive tied with a negative ranks above it), "
            "while micro-AP pools all queries into one list and orders tied "
            "scores by query, then by item. So scores 0.5, 0.5 with labels 0, 1 "
            "give AP 1.0 but micro-AP 0.5. A score of -inf with label 0 is "
            "padding, an absent item; CSV queries of unequal length are padded so."
        ),
    )
    evalp.add_argument("--scores", default=None, help="tensor file with 'scores' and 'labels'")
    evalp.add_argument("--csv", default=None, help="CSV file with query,score,label columns")
    evalp.add_argument("--verify", action="store_true", help="cross-check every AP against the sorted-scan oracle")

    ablate = sub.add_parser(
        "ablate",
        parents=[common],
        help="sweep one hyperparameter axis and tabulate metrics",
        description=(
            "Sweeps k_t/k_s (evaluation only; no training) or delta_v, delta_f, "
            "rho_v, rho_f, lambda_f, rates (one training run per grid value) and "
            "writes a CSV table plus a JSON report. Rates grids use rt:rb pairs."
        ),
    )
    ablate.add_argument("--axis", required=True,
                        choices=("k_t", "k_s", "delta_v", "delta_f", "rho_v", "rho_f", "lambda_f", "rates"))
    ablate.add_argument("--grid", required=True, help="comma-separated grid values")
    ablate.add_argument("--preset", choices=("easy", "hard"), default="easy")
    ablate.add_argument("--config", default=None)
    ablate.add_argument("--iterations", type=int, default=None,
                        help="budget per training run on trained axes (default: the config's, or 300 with --preset)")
    ablate.add_argument("--checkpoint", default=None, help="k_t/k_s only: evaluate with these trained parameters")

    return parser


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _ensure_out(args) -> str:
    out = args.out or os.environ.get("APRANKING_OUT_DIR", "apranking-out")
    os.makedirs(out, exist_ok=True)
    return out


def _stamp(args, extra: dict) -> dict:
    return {"version": __version__, "git": _git_rev(), "seed": _seed(args),
            "deterministic": bool(args.deterministic), "command": args.command, **extra}


@functools.cache
def _git_rev() -> str:
    """Short revision of the checkout holding this module, looked up once
    per process: the loaded code cannot change revision mid-process."""
    import subprocess

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        return rev.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def _seed(args) -> int:
    """The --seed flag, or 0 when it is not given."""
    return 0 if args.seed is None else args.seed


def _wall_clock(args, started: float):
    return None if args.deterministic else time.time() - started


def _loss_names(text: str, choices) -> list:
    """The names of a --losses comma list, each one of ``choices`` and
    none twice."""
    names = [s.strip() for s in text.split(",") if s.strip()]
    unknown = [n for n in names if n not in choices]
    if unknown or not names:
        raise ParameterError(f"unknown loss name(s) {unknown}; choose from {tuple(choices)}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ParameterError(f"loss name(s) {repeated} given more than once in --losses")
    return names


@contextlib.contextmanager
def _text_file(path: str, error):
    """``path`` opened as UTF-8 text; a byte that is not UTF-8 raises ``error``, naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path} is not UTF-8 text (byte 0x{exc.object[exc.start]:02x})") from exc


def _load_train_config(args):
    from .trainer import config_from_dict, easy_preset, hard_preset

    if args.config:
        try:
            with _text_file(args.config, ParameterError) as fh:
                payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config file is not valid JSON: {exc}")
        cfg = config_from_dict(payload)
    else:
        preset = easy_preset if args.preset == "easy" else hard_preset
        cfg = preset(seed=_seed(args))
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed, synthetic=replace(cfg.synthetic, seed=args.seed))
    if getattr(args, "iterations", None) is not None:
        cfg = replace(cfg, iterations=args.iterations)
    weights = {name: v for name in ("lambda_v", "lambda_f") if (v := getattr(args, name, None)) is not None}
    if weights:
        cfg = replace(cfg, weights=replace(cfg.weights, **weights))
    return cfg


_HISTORY_COLUMNS = [
    "iteration", "lr", "total", "loss_video", "loss_frame", "loss_nce", "loss_sshn",
    "heldout_map", "heldout_micro_ap",
]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_bench_loss(args) -> int:
    import numpy as np

    from . import losses as L
    from .gradcheck import max_gradient_error, random_safe_context
    from .ranking import heaviside
    from .tensorio import write_csv, write_json_report

    started = time.time()
    names = _loss_names(args.losses, BENCH_LOSSES)
    gaps = (args.gap_min, args.gap_max, args.gap_step)
    if not (np.isfinite(gaps).all() and args.gap_step > 0 and args.gap_max >= args.gap_min and args.seeds >= 1):
        raise ParameterError(f"bench-loss needs finite --gap-min <= --gap-max, --gap-step > 0 and --seeds >= 1; "
                             f"got {gaps} and {args.seeds} seeds")
    points = (args.gap_max + 1e-12 - args.gap_min) / args.gap_step  # the sweep has ceil(points)
    if points > BENCH_MAX_POINTS:
        raise ParameterError(f"bench-loss sweeps at most {BENCH_MAX_POINTS} gap points; "
                             f"--gap-min, --gap-max and --gap-step give {points:.3g}")
    ql, sm = L.QuadLinearParams(args.delta, args.rho), L.SmoothApParams(args.tau)
    check_range("nonnegative", margin=args.margin)
    out = _ensure_out(args)

    grid = np.arange(args.gap_min, args.gap_max + 1e-12, args.gap_step)
    curve_fns = {
        "quadlinear": lambda x: (L.r_minus(x, ql.delta), L.r_minus_grad(x, ql.delta)),
        "smooth": lambda x: (L.sigmoid_surrogate(x, sm.tau), L.sigmoid_surrogate_grad(x, sm.tau)),
        "heaviside": lambda x: (heaviside(x), 0.0),
        "triplet": lambda x: (max(0.0, x + args.margin), 1.0 if x + args.margin > 0 else 0.0),
        "contrastive": lambda x: (max(0.0, x - args.margin), 1.0 if x - args.margin > 0 else 0.0),
    }
    files = {}
    for name in names:
        rows = []
        for x in grid:
            v, g = curve_fns[name](float(x))
            rows.append({"x": float(x), "value": float(v), "grad": float(g)})
        path = os.path.join(out, f"loss_curve_{name}.csv")
        write_csv(path, ["x", "value", "grad"], rows)
        files[name] = os.path.basename(path)

    # the headline contrast: constant-slope quad-linear vs vanished sigmoid
    contrast_gap = 0.5
    ql_grad = L.r_minus_grad(contrast_gap, ql.delta)
    sg_grad = L.sigmoid_surrogate_grad(contrast_gap, sm.tau)
    ratio = float("inf") if sg_grad == 0.0 else ql_grad / sg_grad

    checks = {}
    for name in names:
        if name not in L.RANKING_LOSSES:
            continue
        contexts = []
        for s in range(args.seeds):
            rng = np.random.default_rng(_seed(args) + 1000 * s)
            contexts.append(
                random_safe_context(rng, 3, 5, breakpoints=(0.0, -ql.delta, -args.margin)))
        checks[name] = max_gradient_error(L.RANKING_LOSSES[name](ql, sm, args.margin), contexts)

    report = _stamp(args, {
        "params": {"delta": ql.delta, "rho": ql.rho, "tau": sm.tau, "margin": args.margin},
        "curves": files,
        "gradient_contrast": {
            "gap": contrast_gap,
            "quadlinear_grad": ql_grad,
            "sigmoid_grad": sg_grad,
            "ratio": ratio,
            "pass": (ratio > 1e15),
        },
        "fd_max_rel_err": checks,
        "wall_clock_seconds": _wall_clock(args, started),
    })
    write_json_report(os.path.join(out, "bench_loss_report.json"), report)
    print(f"bench-loss: wrote {len(files)} curve file(s) to {out}")
    return 0


def _save_model(out: str, tag: str, model) -> str:
    from .tensorio import write_tensors

    path = os.path.join(out, f"checkpoint_{tag}.bin" if tag else "checkpoint.bin")
    write_tensors(path, {name: p.value for name, p in model.parameters()})
    return path


def cmd_train(args) -> int:
    from .losses import RANKING_LOSSES
    from .tensorio import write_json_report
    from .trainer import config_to_dict, variant

    started = time.time()
    cfg = _load_train_config(args)
    losses = None if args.losses is None else _loss_names(args.losses, RANKING_LOSSES)
    if losses and len(losses) > 1 and args.lambda_f is not None:
        raise ParameterError("--lambda-f does not apply to a comparative run: each run disables the frame-level loss")
    out = _ensure_out(args)
    if losses and len(losses) > 1:
        # comparative mode: identical budget, each run its loss's variant (no
        # frame-level loss), as is the report's config
        cfg = variant(cfg, cfg.video_loss)
        results = {loss: _run_one(out, loss, variant(cfg, loss)) for loss in losses}
    else:
        cfg = replace(cfg, video_loss=losses[0]) if losses else cfg
        results = {cfg.video_loss: _run_one(out, "", cfg)}

    report = _stamp(args, {
        "seed": cfg.seed,
        "config": config_to_dict(cfg),
        "comparative": bool(losses and len(losses) > 1),
        "results": results,
        "wall_clock_seconds": _wall_clock(args, started),
    })
    write_json_report(os.path.join(out, "train_report.json"), report)
    for name, res in results.items():
        print(
            f"train[{name}]: heldout mAP={res['metrics']['map']:.4f} "
            f"microAP={res['metrics']['micro_ap']:.4f}"
        )
    return 0


def _run_one(out: str, tag: str, cfg) -> dict:
    from .tensorio import write_csv
    from .trainer import config_to_dict, train

    result = train(cfg, out_dir=out)
    ckpt = _save_model(out, tag, result.model)
    hist_name = f"history_{tag}.csv" if tag else "history.csv"
    write_csv(os.path.join(out, hist_name), _HISTORY_COLUMNS, result.history)
    return {
        "checkpoint": os.path.basename(ckpt),
        "history_csv": hist_name,
        "initial_metrics": result.initial_report.to_dict(),
        "metrics": result.final_report.to_dict(),
        "history": result.history,
        "config": config_to_dict(cfg),
    }


def _read_eval_inputs(args):
    """The (queries, items) scores and labels of --scores or --csv; CSV
    queries of unequal length are padded with -inf scores and label 0."""
    import numpy as np

    from .ranking import ScoredList
    from .tensorio import read_tensors

    if bool(args.scores) == bool(args.csv):
        raise ParameterError("provide exactly one of --scores or --csv")
    if args.scores:
        tensors = read_tensors(args.scores)
        if "scores" not in tensors or "labels" not in tensors:
            raise StructuralError("tensor file must contain 'scores' and 'labels'")
        return tensors["scores"], tensors["labels"]
    by_query: dict[str, tuple[int, list]] = {}  # name -> (first line, rows)
    with _text_file(args.csv, StructuralError) as fh:
        header = fh.readline().strip().split(",")
        if header != ["query", "score", "label"]:
            raise StructuralError("CSV header must be query,score,label")
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise StructuralError(f"line {line_no}: expected 3 columns")
            try:
                row = (float(parts[1]), int(parts[2]))
            except ValueError as exc:
                raise StructuralError(
                    f"line {line_no}: score must be a number and label an integer"
                ) from exc
            by_query.setdefault(parts[0], (line_no, []))[1].append(row)
    width = max((len(rows) for _, rows in by_query.values()), default=0)
    scores = np.full((len(by_query), width), -np.inf)
    labels = np.zeros((len(by_query), width), dtype=np.int8)
    for q, (name, (first, rows)) in enumerate(by_query.items()):
        try:
            query = ScoredList([s for s, _ in rows], [l for _, l in rows])  # finite scores, binary labels
        except StructuralError as exc:
            raise StructuralError(f"query {name!r} (first on line {first}): {exc}") from exc
        scores[q, : len(rows)] = query.scores
        labels[q, : len(rows)] = query.labels
    return scores, labels


def cmd_eval(args) -> int:
    import numpy as np

    from .metrics import brute_force_ap, retrieval_report
    from .ranking import ScoredList
    from .tensorio import write_csv, write_json_report

    started = time.time()
    scores, labels = _read_eval_inputs(args)
    try:
        metrics = retrieval_report(scores, labels)
    except StructuralError as exc:
        raise StructuralError(f"{args.scores or args.csv}: {exc}") from exc
    aps = list(metrics.ap_per_query)
    report = _stamp(args, {
        "ap_per_query": aps,
        "map": metrics.map,
        "micro_ap": metrics.micro_ap,
        "num_queries": metrics.num_queries,
        "num_skipped": len(scores) - metrics.num_queries,
        "wall_clock_seconds": _wall_clock(args, started),
    })
    if args.verify:
        scored = [(s[s > -np.inf], l[s > -np.inf]) for s, l in zip(scores, labels) if (l == 1).any()]
        mismatches = sum(1 for (s, l), ap in zip(scored, aps) if brute_force_ap(ScoredList(s, l)) != ap)
        report["verify"] = {"oracle_mismatches": mismatches, "pass": mismatches == 0}
    out = _ensure_out(args)
    write_json_report(os.path.join(out, "eval_report.json"), report)
    write_csv(
        os.path.join(out, "eval_per_query.csv"),
        ["query", "ap"],
        [{"query": i, "ap": ap} for i, ap in enumerate(aps)],
    )
    print(f"eval: mAP={report['map']:.6f} microAP={report['micro_ap']:.6f} over {len(aps)} queries")
    if args.verify and report["verify"]["oracle_mismatches"]:
        raise NumericsError(f"{report['verify']['oracle_mismatches']} oracle mismatches")
    return 0


def cmd_ablate(args) -> int:
    from .tensorio import write_csv, write_json_report

    if args.checkpoint and args.axis not in ("k_t", "k_s"):
        raise ParameterError(
            f"--checkpoint applies only to the k_t and k_s axes; the {args.axis} axis trains a model per grid value"
        )
    started = time.time()
    cfg = _load_train_config(args)
    if args.iterations is None and not args.config:
        cfg = replace(cfg, iterations=300)
    entries = [s.strip() for s in args.grid.split(",") if s.strip()]
    if not entries:
        raise ParameterError("empty grid")
    grid = []  # (row value, config) per entry, all checked before anything runs
    for entry in entries:
        try:
            grid.append(_override_axis(cfg, args.axis, entry))
        except ValueError as exc:
            raise ParameterError(f"{args.axis} grid entry {entry!r}: {exc}") from exc
    # a k axis evaluates one model: its checkpoint is checked before anything is made
    model = _ablate_model(args, cfg) if args.axis in ("k_t", "k_s") else None
    out = _ensure_out(args)

    extra = {}
    if model is not None:
        rows, extra = _ablate_k_axis(args, cfg, grid, model)
    else:
        from .trainer import train

        rows = []
        for value, run_cfg in grid:
            run = train(run_cfg, out_dir=out)
            rows.append({"value": value, "map": run.final_report.map, "micro_ap": run.final_report.micro_ap})

    table = os.path.join(out, f"ablate_{args.axis}.csv")
    write_csv(table, list(rows[0].keys()), rows)
    report = _stamp(args, {
        "seed": cfg.seed,
        "axis": args.axis,
        "grid": entries,
        "rows": rows,
        "table_csv": os.path.basename(table),
        "iterations": cfg.iterations,
        "wall_clock_seconds": _wall_clock(args, started),
        **extra,
    })
    write_json_report(os.path.join(out, f"ablate_{args.axis}.json"), report)
    print(f"ablate[{args.axis}]: {len(rows)} rows -> {table}")
    return 0


# axis -> (config field, field of it) that an ablate grid value sets
_AXIS_FIELDS = {
    "k_t": ("agg", "k_t"), "k_s": ("agg", "k_s"), "lambda_f": ("weights", "lambda_f"),
    "delta_v": ("qlap_video", "delta"), "rho_v": ("qlap_video", "rho"),
    "delta_f": ("qlap_frame", "delta"), "rho_f": ("qlap_frame", "rho"),
}


def _override_axis(cfg, axis: str, entry: str):
    """(row value, config) of one ablate grid entry: the entry as a float
    set in the axis's field, or for ``rates`` the rt:rb entry itself with
    both label rates set. A bad entry, or a config it makes illegal (rates
    that overlap on the frames the frame loss labels), raises ValueError."""
    if axis == "rates":
        if entry.count(":") != 1:
            raise ValueError("expected rt:rb")
        rt, rb = entry.split(":")
        return entry, replace(cfg, rates=replace(cfg.rates, r_t=float(rt), r_b=float(rb)))
    value = float(entry)
    group, name = _AXIS_FIELDS[axis]
    return value, replace(cfg, **{group: replace(getattr(cfg, group), **{name: value})})


def _ablate_model(args, cfg):
    """The config's initial model, with the parameters of ``--checkpoint``
    when given; each must match the model's by name and shape, as float64."""
    from .tensorio import read_tensors
    from .trainer import initial_model

    model = initial_model(cfg)
    if args.checkpoint:
        tensors = read_tensors(args.checkpoint)
        params = dict(model.parameters())
        for name in sorted(params.keys() | tensors.keys()):
            got = f"shape {tensors[name].shape}" if name in tensors else "missing"
            want = f"shape {params[name].shape}" if name in params else "no such parameter"
            if got != want:
                raise ParameterError(f"checkpoint {args.checkpoint}: {name!r} is {got}; the model has {want}")
            if tensors[name].dtype != "float64":
                raise ParameterError(f"checkpoint {args.checkpoint}: {name!r} is {tensors[name].dtype}, not float64")
            params[name].value = tensors[name]
    return model


def _ablate_k_axis(args, cfg, grid, model):
    from .aggregation import AggregationParams
    from .trainer import evaluate_model, heldout_corpus

    clips = heldout_corpus(cfg)
    rows = []
    reports = {}
    for rate, run_cfg in grid:
        if rate not in reports:  # a repeated rate is the identical evaluation
            reports[rate] = evaluate_model(model, clips, run_cfg.agg)
        report = reports[rate]
        rows.append({"value": rate, "map": report.map, "micro_ap": report.micro_ap})

    extra = {}
    if args.axis == "k_t":
        # average pooling over candidate frames is the top-K engine at k_t = 1,
        # the grid's own row when it has one
        pool = reports[1.0] if 1.0 in reports else evaluate_model(
            model, clips, AggregationParams(k_s=cfg.agg.k_s, k_t=1.0)
        )
        extra["avgpool"] = {"map": pool.map, "micro_ap": pool.micro_ap}
    return rows, extra


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.deterministic:  # before any command imports numpy
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            os.environ.setdefault(var, "1")

    commands = {
        "bench-loss": cmd_bench_loss,
        "train": cmd_train,
        "eval": cmd_eval,
        "ablate": cmd_ablate,
    }
    try:
        check_range("nonnegative", seed=_seed(args))
        return commands[args.command](args)
    # an OSError is on a path the user gave: missing, a directory, unwritable
    except (ParameterError, StructuralError, DegenerateInputError, UndefinedMetricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        if exc.snapshot_path:
            print(f"snapshot: {exc.snapshot_path}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
