"""The three benchmark workloads, their inputs and their correctness checks.

Every workload follows one pattern:

1. set-up, repeated SETUP_REPS times: import ``apranking`` in a fresh
   interpreter, then build the inputs the program needs (corpus, model);
   setup_s is the median;
2. a warm-up call outside the timed region;
3. timed repetitions of one operation until the run length is spent
   (at least MIN_REPS), in one process with BLAS pinned to one thread;
   throughput is the median over repetitions;
4. correctness checks on the outputs, outside the timed region. An
   operation that raises NumericsError, exits non-zero, or whose output
   fails a check counts as failed.

In a traced run, repetitions alternate untraced and traced; per-layer values
are medians over the traced ones and the untraced ones give the tracing
overhead.

Why each workload exists and which layers it bypasses:

train-hard
    ``trainer.train(hard_preset(seed), iterations=TRAIN_ITERATIONS)`` with the
    full hierarchical loss (quad-linear video loss, InfoNCE, SSHN, frame loss
    under pseudo labels) at batch 16 (4 groups x 4 clips). autodiff,
    model.forward_similarity, losses, ranking.partition_query, pseudolabels
    and the AdamW update do nearly all the work. aggregation and metrics run
    only in the two 48-clip held-out evaluations, about 8% of the run, and
    aggregation only on its k = 1 path. tensorio and the CLI are bypassed.

eval-sweep
    ``trainer.evaluate_model`` over a held-out corpus of EVAL_CLIPS clips of
    the hard recipe, with an untrained conv-refiner model (as ``ablate --axis
    k_t`` without ``--checkpoint``), at k_s = 0.5 and k_t in {0.03, 0.3, 1.0}.
    aggregation does about 99% of the work: n^2 per-pair calls, then
    evaluate_retrieval. The grid covers all three ``topk_sum_last`` paths
    (k = 1 max, k = 2 stable argsort, k = T plain sum) and the conv refiner.
    autodiff, losses, pseudolabels, the optimizer, tensorio and the CLI are
    bypassed.

score-file
    ``cli.main(["eval", "--scores", f, "--deterministic", ...])`` on a
    SCORE_QUERIES x SCORE_ITEMS tensor file, each row with 1-10 positives
    and a quarter of the rows rounded to 0.01 so that tied scores occur, as
    in real score files. Only tensorio and metrics run; no model runs. This
    is where work on the exact metrics shows.

Deliberately not workloads: the slow acceptance tier (30 trainings, about
12 min), the easy preset (same tensor shapes as hard; its mAP saturates at
1.0) and bench-loss (milliseconds).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from math import fsum
from statistics import median, median_low

import numpy as np

import apranking
import apranking.cli
import apranking.tensorio
from apranking import aggregation, losses, metrics, model, synthetic, trainer
from apranking.errors import NumericsError
from apranking.ranking import RelevanceMatrix, ScoredList

import layers
import spans

SETUP_REPS = 7
MIN_REPS = 3
TRAIN_ITERATIONS = 300
EVAL_CLIPS, EVAL_GROUPS = 100, 25
EVAL_K_S, EVAL_K_T_GRID = 0.5, (0.03, 0.3, 1.0)
SCORE_QUERIES, SCORE_ITEMS = 1000, 1000
SIMILARITY_SAMPLES = 64
SIMILARITY_TOL = 1e-12  # per-pair oracle vs matrix entry; float64 cosines in [-1, 1]


@dataclass
class Context:
    seed: int
    seconds: float
    src: str
    out_dir: str
    tracer: spans.Tracer | None


@dataclass
class Outcome:
    throughput: float
    samples: list  # work per second of each untraced repetition
    setup_s: float
    attempted: int
    failed: int
    peak_rss_mb: float
    per_layer: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)  # printed on every run


@dataclass
class Reps:
    done: list  # (seconds, output, traced) of operations that did not raise
    failed: int  # operations that raised NumericsError
    per_layer: dict  # medians over traced repetitions
    peak_rss_mb: float  # after the timed region, before the checks


# ---------------------------------------------------------------------------
# shared measurement
# ---------------------------------------------------------------------------


def _import_seconds(src: str) -> float:
    code = "import time; t = time.perf_counter(); import apranking; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout)


def _setup(ctx: Context, build):
    """Median of SETUP_REPS set-ups; returns (setup_s, inputs, per-layer set-up values)."""
    totals, layer_rows = [], []
    inputs = None
    for _ in range(SETUP_REPS):
        imported = _import_seconds(ctx.src)
        undo, first = _begin_trace(ctx)
        start = time.perf_counter()
        inputs = build() if build else None
        totals.append(imported + time.perf_counter() - start)
        if ctx.tracer is not None:
            spans.uninstall(undo)
            layer_rows.append(layers.setup_values(ctx.tracer, first, len(ctx.tracer)))
    return median(totals), inputs, _median_rows(layer_rows)


def _begin_trace(ctx: Context):
    if ctx.tracer is None:
        return [], 0
    ctx.tracer.counters.clear()
    return layers.install(apranking, ctx.tracer), len(ctx.tracer)


def _median_rows(rows: list) -> dict:
    return {key: median_low(row[key] for row in rows) for key in rows[0]} if rows else {}


def _repeat(ctx: Context, op) -> Reps:
    """Run ``op`` for the run length, at least MIN_REPS times."""
    done, failed, layer_rows = [], 0, []
    started = time.perf_counter()
    while len(done) + failed < MIN_REPS or (
        done and time.perf_counter() - started + median(d for d, _, _ in done) <= ctx.seconds
    ):
        traced = ctx.tracer is not None and (len(done) + failed) % 2 == 1
        undo, first = _begin_trace(ctx) if traced else ([], 0)
        root = ctx.tracer.open("repetition") if traced else None  # parent of the repetition's spans
        try:
            t0 = time.perf_counter()
            out = op()
            elapsed = time.perf_counter() - t0
        except NumericsError as exc:
            print(f"failed operation: {exc}", file=sys.stderr)
            failed += 1
            continue
        finally:
            if traced:
                ctx.tracer.close(root)
                spans.uninstall(undo)
        if traced:
            layer_rows.append(layers.rep_values(ctx.tracer, first, len(ctx.tracer)))
        done.append((elapsed, out, traced))
    if not done:
        raise NumericsError("every timed operation failed")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Reps(done, failed, _median_rows(layer_rows), peak)


def _rates(done, units_of) -> list:
    return [units_of(out) / secs for secs, out, traced in done if not traced]


def _overhead_pct(done) -> dict:
    plain = [secs for secs, _, traced in done if not traced]
    traced = [secs for secs, _, t in done if t]
    if not plain or not traced:
        return {}
    return {"overhead_pct": 100.0 * (median(traced) - median(plain)) / median(plain)}


# ---------------------------------------------------------------------------
# train-hard
# ---------------------------------------------------------------------------


def train_hard(ctx: Context) -> Outcome:
    cfg = trainer.hard_preset(ctx.seed, iterations=TRAIN_ITERATIONS)

    def build():
        corpus = synthetic.generate_corpus(cfg.synthetic)
        heldout = synthetic.generate_corpus(_heldout_recipe(cfg, cfg.heldout.num_clips, cfg.heldout.num_groups))
        net = model.init_model(
            dim=cfg.synthetic.dim, refiner_kind=cfg.refiner_kind, downsample=cfg.downsample,
            seed=cfg.seed, init_noise=cfg.init_noise,
        )
        return corpus, heldout, net

    setup_s, _, setup_layers = _setup(ctx, build)
    trainer.train(replace(cfg, iterations=2), out_dir=ctx.out_dir)  # warm-up

    def op():
        return trainer.train(cfg, out_dir=ctx.out_dir).final_report

    reps = _repeat(ctx, op)
    done, failed = reps.done, reps.failed
    reports = [out for _, out, _ in done]
    attempted = len(done) + failed
    if len(reports) < 2:  # the determinism check needs two same-seed runs
        attempted += 1
        reports.append(trainer.train(cfg, out_dir=ctx.out_dir).final_report)
    first = reports[0]
    for report in reports[1:]:
        if (report.map, report.micro_ap) != (first.map, first.micro_ap):
            print(f"check failed: same-seed training gave mAP {report.map!r} vs {first.map!r}", file=sys.stderr)
            failed += 1
    facts = {"heldout_map": first.map, "heldout_micro_ap": first.micro_ap}
    rates = _rates(done, lambda _: TRAIN_ITERATIONS)
    return Outcome(
        throughput=median(rates),
        samples=rates,
        setup_s=setup_s,
        attempted=attempted,
        failed=failed,
        peak_rss_mb=reps.peak_rss_mb,
        per_layer={**setup_layers, **reps.per_layer, **facts, **_overhead_pct(done)},
        facts=facts,
    )


def _heldout_recipe(cfg, num_clips: int, num_groups: int):
    """The held-out corpus recipe trainer.train derives from a config."""
    return replace(
        cfg.synthetic, num_clips=num_clips, num_groups=num_groups,
        seed=cfg.synthetic.seed + cfg.heldout.seed_offset,
    )


# ---------------------------------------------------------------------------
# eval-sweep
# ---------------------------------------------------------------------------


def eval_sweep(ctx: Context) -> Outcome:
    cfg = trainer.hard_preset(ctx.seed)
    grid = [aggregation.AggregationParams(k_s=EVAL_K_S, k_t=k_t) for k_t in EVAL_K_T_GRID]

    def build():
        clips = synthetic.generate_corpus(_heldout_recipe(cfg, EVAL_CLIPS, EVAL_GROUPS))
        net = model.init_model(
            dim=cfg.synthetic.dim, refiner_kind="conv", seed=cfg.seed, init_noise=cfg.init_noise
        )
        return clips, net

    setup_s, (clips, net), setup_layers = _setup(ctx, build)
    warm_groups = sorted({c.group for c in clips})[:2]
    for agg in grid:  # warm-up on the clips of two groups
        trainer.evaluate_model(net, [c for c in clips if c.group in warm_groups], agg)

    def op():
        return [trainer.evaluate_model(net, clips, agg) for agg in grid]

    reps = _repeat(ctx, op)
    done, failed = reps.done, reps.failed
    attempted = len(done) + failed
    expected = [_checked_eval(net, clips, agg, ctx.seed) for agg in grid]
    for _, sweep, _ in done:
        if any(e is None or not _same_report(r, e) for r, e in zip(sweep, expected)):
            print("check failed: evaluate_model disagrees with the checked matrix", file=sys.stderr)
            failed += 1
    rates = _rates(done, lambda sweep: sum(r.num_queries for r in sweep))
    return Outcome(
        throughput=median(rates),
        samples=rates,
        setup_s=setup_s,
        attempted=attempted,
        failed=failed,
        peak_rss_mb=reps.peak_rss_mb,
        per_layer={**setup_layers, **reps.per_layer, **_overhead_pct(done)},
        facts={f"map_k_t={agg.k_t}": r.map for agg, r in zip(grid, expected) if r is not None},
    )


def _checked_eval(net, clips, agg, seed: int):
    """The report evaluate_model must give, from a similarity matrix whose
    seeded sample of entries matches the per-pair oracle; None if it does not."""
    sim = model.eval_similarity_matrix(net, clips, agg)
    w = net.weight.value
    refiner = model.model_refiner_params(net)
    rng = np.random.default_rng(seed)
    for i, j in rng.integers(0, len(clips), size=(SIMILARITY_SAMPLES, 2)):
        oracle = aggregation.video_similarity(
            aggregation.PatchEmbeddings(clips[i].student.data @ w.T),
            aggregation.PatchEmbeddings(clips[j].student.data @ w.T),
            agg,
            refiner,
        )
        if not abs(sim[i, j] - oracle) <= SIMILARITY_TOL:
            print(f"check failed: sim[{i}, {j}] = {float(sim[i, j])!r}, oracle {oracle!r}", file=sys.stderr)
            return None
    rel = RelevanceMatrix.from_groups([c.group for c in clips])
    return metrics.evaluate_retrieval(sim, rel, exclude_self=True)


def _same_report(a, b) -> bool:
    return (a.ap_per_query, a.map, a.micro_ap) == (b.ap_per_query, b.map, b.micro_ap)


# ---------------------------------------------------------------------------
# score-file
# ---------------------------------------------------------------------------


def score_inputs(seed: int):
    """Scores and labels of the score file: 1-10 positives per row, scores
    N(0, 1) plus 2 on positives, a quarter of the rows rounded to 0.01."""
    rng = np.random.default_rng(seed)
    labels = np.zeros((SCORE_QUERIES, SCORE_ITEMS))
    for row in labels:
        row[rng.choice(SCORE_ITEMS, size=rng.integers(1, 11), replace=False)] = 1.0
    scores = rng.standard_normal(labels.shape) + 2.0 * labels
    tied = rng.choice(SCORE_QUERIES, size=SCORE_QUERIES // 4, replace=False)
    scores[tied] = np.round(scores[tied], 2)
    return scores, labels


def score_file(ctx: Context) -> Outcome:
    setup_s, _, _ = _setup(ctx, None)
    scores, labels = score_inputs(ctx.seed)
    path = os.path.join(ctx.out_dir, "scores.tensors")
    apranking.tensorio.write_tensors(path, {"scores": scores, "labels": labels})
    warm = os.path.join(ctx.out_dir, "warmup.tensors")
    apranking.tensorio.write_tensors(warm, {"scores": scores[:8], "labels": labels[:8]})
    report_dir = os.path.join(ctx.out_dir, "report")
    argv = ["eval", "--deterministic", "--out", report_dir, "--scores"]
    _run_cli(argv + [warm])

    def op():
        code = _run_cli(argv + [path])
        if code != 0:
            return code, None
        with open(os.path.join(report_dir, "eval_report.json")) as fh:
            return code, json.load(fh)

    reps = _repeat(ctx, op)
    done, failed = reps.done, reps.failed
    attempted = len(done) + failed + 1  # the brute-force oracle pass below
    lists = [ScoredList(s, l.astype(np.int64)) for s, l in zip(scores, labels)]
    risks = [losses.heaviside_ap_risk(q.to_query_context()) for q in lists]
    for _, (code, report), _ in done:
        if report is None or not _matches_risks(report, risks):
            print(f"check failed: eval exit code {code} or APs differ from 1 - heaviside_ap_risk", file=sys.stderr)
            failed += 1
    facts = _brute_force_facts(lists)
    if facts.pop("distinct_mismatches"):
        print("check failed: brute_force_ap disagrees on a list with distinct scores", file=sys.stderr)
        failed += 1
    rates = _rates(done, lambda _: SCORE_QUERIES)
    return Outcome(
        throughput=median(rates),
        samples=rates,
        setup_s=setup_s,
        attempted=attempted,
        failed=failed,
        peak_rss_mb=reps.peak_rss_mb,
        per_layer={**reps.per_layer, **facts, **_overhead_pct(done)},
        facts=facts,
    )


def _run_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return apranking.cli.main(argv)


def _matches_risks(report, risks) -> bool:
    """heaviside_ap_risk returns 1 - AP rounded once, so the bitwise
    comparison is made on the risk side."""
    aps = report["ap_per_query"]
    return (
        len(aps) == len(risks)
        and all(r == 1.0 - ap for r, ap in zip(risks, aps))
        and report["map"] == fsum(aps) / len(aps)
    )


def _brute_force_facts(lists) -> dict:
    """The sorted-scan oracle against average_precision, as ``eval --verify``
    compares them. The oracle breaks ties by input order while
    average_precision is tie-optimistic, so tied lists mismatch (a known
    defect, reported, not fixed); distinct-score lists must all match."""
    tied = tie_mismatches = distinct_mismatches = 0
    for q in lists:
        mismatch = metrics.brute_force_ap(q) != metrics.average_precision(q)
        if np.unique(q.scores).size < q.scores.size:
            tied += 1
            tie_mismatches += mismatch
        else:
            distinct_mismatches += mismatch
    return {"tie_mismatches": tie_mismatches, "tied_lists": tied, "distinct_mismatches": distinct_mismatches}


WORKLOADS = {"train-hard": train_hard, "eval-sweep": eval_sweep, "score-file": score_file}
UNITS_OF_WORK = {
    "train-hard": "train_iters_per_s: training iterations per second of trainer.train",
    "eval-sweep": "eval_queries_per_s: queries ranked per second across the k_t sweep",
    "score-file": "score_queries_per_s: queries scored per second by the eval command",
}
