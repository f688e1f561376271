"""Command-line surface: loss benchmarking, synthetic training, score-file
evaluation, and hyperparameter sweeps.

Exit codes: 0 success, 2 usage or config error, 3 numeric failure (NaN abort
or an oracle mismatch under --verify). With --deterministic and --seed, any
command writes byte-identical reports across runs; numeric thread pools are
pinned to one thread before numpy loads, and wall-clock fields are nulled.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

BENCH_LOSSES = ("quadlinear", "smooth", "heaviside", "triplet", "contrastive")


def _default_out_dir() -> str:
    return os.environ.get("APRANKING_OUT_DIR", "apranking-out")


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
            "identical budget (frame-level loss disabled) for a side-by-side table."
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
    ablate.add_argument("--iterations", type=int, default=300, help="budget per training run on trained axes")
    ablate.add_argument("--checkpoint", default=None, help="evaluate k-axis sweeps with these trained parameters")

    return parser


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _ensure_out(args) -> str:
    out = args.out or _default_out_dir()
    os.makedirs(out, exist_ok=True)
    return out


def _stamp(args, extra=None) -> dict:
    from . import __version__

    stamp = {
        "version": __version__,
        "git": _git_rev(),
        "seed": _seed(args),
        "deterministic": bool(args.deterministic),
        "command": args.command,
    }
    if extra:
        stamp.update(extra)
    return stamp


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


def _load_train_config(args):
    from .errors import ParameterError
    from .trainer import config_from_dict, easy_preset, hard_preset

    if args.config:
        try:
            with open(args.config) as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            raise ParameterError(f"config file not found: {args.config}")
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config file is not valid JSON: {exc}")
        cfg = config_from_dict(payload)
    else:
        preset = easy_preset if args.preset == "easy" else hard_preset
        cfg = preset(seed=_seed(args))
    overrides = {}
    if args.seed is not None:
        from dataclasses import replace

        overrides["seed"] = args.seed
        cfg = replace(cfg, synthetic=replace(cfg.synthetic, seed=args.seed))
    if getattr(args, "iterations", None) is not None:
        overrides["iterations"] = args.iterations
    if getattr(args, "lambda_v", None) is not None or getattr(args, "lambda_f", None) is not None:
        from dataclasses import replace

        w = cfg.weights
        if args.lambda_v is not None:
            w = replace(w, lambda_v=args.lambda_v)
        if args.lambda_f is not None:
            w = replace(w, lambda_f=args.lambda_f)
        overrides["weights"] = w
    if overrides:
        from dataclasses import replace

        cfg = replace(cfg, **overrides)
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
    from .errors import ParameterError
    from .gradcheck import max_gradient_error, random_safe_context
    from .tensorio import write_csv, write_json_report

    started = time.time()
    names = [s.strip() for s in args.losses.split(",") if s.strip()]
    unknown = [n for n in names if n not in BENCH_LOSSES]
    if unknown or not names:
        raise ParameterError(f"unknown loss name(s) {unknown}; choose from {BENCH_LOSSES}")
    out = _ensure_out(args)

    grid = np.arange(args.gap_min, args.gap_max + 1e-12, args.gap_step)
    curve_fns = {
        "quadlinear": lambda x: (L.r_minus(x, args.delta), L.r_minus_grad(x, args.delta)),
        "smooth": lambda x: (L.sigmoid_surrogate(x, args.tau), L.sigmoid_surrogate_grad(x, args.tau)),
        "heaviside": lambda x: (L.r_plus(x), 0.0),
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
    ql_grad = L.r_minus_grad(contrast_gap, args.delta)
    sg_grad = L.sigmoid_surrogate_grad(contrast_gap, args.tau)
    ratio = float("inf") if sg_grad == 0.0 else ql_grad / sg_grad

    context_losses = {
        "quadlinear": functools.partial(L.quadlinear_ap_risk_rows, p=L.QuadLinearParams(args.delta, args.rho)),
        "smooth": functools.partial(L.smooth_ap_risk_rows, p=L.SmoothApParams(args.tau)),
        "triplet": functools.partial(L.triplet_loss_rows, margin=args.margin),
        "contrastive": functools.partial(L.contrastive_loss_rows, margin=args.margin),
    }
    checks = {}
    for name in names:
        if name not in context_losses:
            continue
        contexts = []
        for s in range(args.seeds):
            rng = np.random.default_rng(_seed(args) + 1000 * s)
            contexts.append(
                random_safe_context(rng, 3, 5, breakpoints=(0.0, -args.delta, -args.margin)))
        checks[name] = max_gradient_error(context_losses[name], contexts)

    report = _stamp(args, {
        "params": {"delta": args.delta, "rho": args.rho, "tau": args.tau, "margin": args.margin},
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


def _save_model(out: str, tag: str, model, cfg_dict: dict) -> str:
    from .tensorio import write_checkpoint

    tensors = {name: p.value for name, p in model.parameters()}
    path = os.path.join(out, f"checkpoint_{tag}.bin" if tag else "checkpoint.bin")
    write_checkpoint(path, tensors, cfg_dict)
    return path


def cmd_train(args) -> int:
    from dataclasses import replace

    from .tensorio import write_csv, write_json_report
    from .trainer import VIDEO_LOSSES, config_to_dict, train

    started = time.time()
    out = _ensure_out(args)
    cfg = _load_train_config(args)

    losses = None
    if args.losses:
        losses = [s.strip() for s in args.losses.split(",") if s.strip()]
        bad = [l for l in losses if l not in VIDEO_LOSSES]
        if bad:
            from .errors import ParameterError

            raise ParameterError(f"unknown loss name(s) {bad}; choose from {VIDEO_LOSSES}")

    results = {}
    if losses and len(losses) > 1:
        # comparative mode: identical budget, ranking loss only on top of the
        # base loss, so the listwise/pairwise contrast is isolated
        for loss in losses:
            run_cfg = replace(cfg, video_loss=loss, weights=replace(cfg.weights, lambda_f=0.0))
            results[loss] = _run_one(out, loss, run_cfg)
    else:
        if losses:
            cfg = replace(cfg, video_loss=losses[0])
        results[cfg.video_loss] = _run_one(out, "", cfg)

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
    cfg_dict = config_to_dict(cfg)
    ckpt = _save_model(out, tag, result.model, cfg_dict)
    hist_name = f"history_{tag}.csv" if tag else "history.csv"
    write_csv(os.path.join(out, hist_name), _HISTORY_COLUMNS, result.history)
    return {
        "checkpoint": os.path.basename(ckpt),
        "history_csv": hist_name,
        "initial_metrics": result.initial_report.to_dict(),
        "metrics": result.final_report.to_dict(),
        "history": result.history,
        "config": cfg_dict,
    }


def _read_eval_inputs(args):
    """The (queries, items) scores and labels of --scores or --csv; CSV
    queries of unequal length are padded with -inf scores and label 0."""
    import numpy as np

    from .errors import ParameterError, StructuralError
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
    with open(args.csv) as fh:
        header = fh.readline().strip().split(",")
        if header[:3] != ["query", "score", "label"]:
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

    from .errors import NumericsError, StructuralError
    from .metrics import brute_force_ap, retrieval_report
    from .ranking import ScoredList
    from .tensorio import write_csv, write_json_report

    started = time.time()
    out = _ensure_out(args)
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
    from dataclasses import replace

    from .errors import ParameterError
    from .tensorio import write_csv, write_json_report

    started = time.time()
    out = _ensure_out(args)
    cfg = _load_train_config(args)

    entries = [s.strip() for s in args.grid.split(",") if s.strip()]
    if not entries:
        raise ParameterError("empty grid")

    rows = []
    extra = {}
    if args.axis in ("k_t", "k_s"):
        rows, extra = _ablate_k_axis(args, cfg, entries)
    elif args.axis == "rates":
        from .pseudolabels import LabelRates
        from .trainer import train

        for entry in entries:
            try:
                rt_s, rb_s = entry.split(":")
                rates = LabelRates(float(rt_s), float(rb_s))
            except ValueError as exc:
                raise ParameterError(f"rates grid entries must be rt:rb, got {entry!r}") from exc
            run = train(replace(cfg, rates=rates))
            rows.append({
                "value": entry,
                "map": run.final_report.map,
                "micro_ap": run.final_report.micro_ap,
            })
    else:
        from .trainer import train

        for entry in entries:
            value = float(entry)
            run_cfg = _override_axis(cfg, args.axis, value)
            run = train(run_cfg)
            rows.append({
                "value": value,
                "map": run.final_report.map,
                "micro_ap": run.final_report.micro_ap,
            })

    table = os.path.join(out, f"ablate_{args.axis}.csv")
    write_csv(table, list(rows[0].keys()), rows)
    report = _stamp(args, {
        "seed": cfg.seed,
        "axis": args.axis,
        "grid": entries,
        "rows": rows,
        "table_csv": os.path.basename(table),
        "iterations": args.iterations,
        "wall_clock_seconds": _wall_clock(args, started),
        **extra,
    })
    write_json_report(os.path.join(out, f"ablate_{args.axis}.json"), report)
    print(f"ablate[{args.axis}]: {len(rows)} rows -> {table}")
    return 0


def _override_axis(cfg, axis: str, value: float):
    from dataclasses import replace

    from .losses import QuadLinearParams

    if axis == "delta_v":
        return replace(cfg, qlap_video=QuadLinearParams(value, cfg.qlap_video.rho))
    if axis == "rho_v":
        return replace(cfg, qlap_video=QuadLinearParams(cfg.qlap_video.delta, value))
    if axis == "delta_f":
        return replace(cfg, qlap_frame=QuadLinearParams(value, cfg.qlap_frame.rho))
    if axis == "rho_f":
        return replace(cfg, qlap_frame=QuadLinearParams(cfg.qlap_frame.delta, value))
    if axis == "lambda_f":
        return replace(cfg, weights=replace(cfg.weights, lambda_f=value))
    raise AssertionError(axis)


def _ablate_k_axis(args, cfg, entries):
    from .aggregation import AggregationParams
    from .errors import ParameterError
    from .tensorio import read_checkpoint
    from .trainer import evaluate_model, init_heldout_and_model

    clips, model = init_heldout_and_model(cfg)
    if args.checkpoint:
        tensors, _ = read_checkpoint(args.checkpoint)
        params = dict(model.parameters())
        for name in sorted(params.keys() | tensors.keys()):
            got = f"shape {tensors[name].shape}" if name in tensors else "missing"
            want = f"shape {params[name].shape}" if name in params else "no such parameter"
            if got != want:
                raise ParameterError(f"checkpoint {args.checkpoint}: {name!r} is {got}; the model has {want}")
            params[name].value = tensors[name]

    rows = []
    reports = {}
    for entry in entries:
        rate = float(entry)
        agg = (
            AggregationParams(k_s=cfg.agg.k_s, k_t=rate)
            if args.axis == "k_t"
            else AggregationParams(k_s=rate, k_t=cfg.agg.k_t)
        )
        if rate not in reports:  # a repeated rate is the identical evaluation
            reports[rate] = evaluate_model(model, clips, agg)
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
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--deterministic" in argv:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            os.environ.setdefault(var, "1")
    parser = build_parser()
    args = parser.parse_args(argv)

    from .errors import (
        DegenerateInputError,
        NumericsError,
        ParameterError,
        StructuralError,
        UndefinedMetricError,
    )

    commands = {
        "bench-loss": cmd_bench_loss,
        "train": cmd_train,
        "eval": cmd_eval,
        "ablate": cmd_ablate,
    }
    try:
        return commands[args.command](args)
    except (ParameterError, StructuralError, DegenerateInputError, UndefinedMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        if exc.snapshot_path:
            print(f"snapshot: {exc.snapshot_path}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
