"""The layers the traced run wraps and the per-layer metrics read off them.

Each per-layer metric names the workload it is measured on and the
end-to-end metric it should move there, so a later change that claims a
gain can say in advance which numbers it expects to change. Every traced
run reports every metric; a layer that the workload bypasses reads 0, which
is the prediction for that workload.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

import spans

LOSS_NODES = ("losses.video", "losses.nce", "losses.sshn", "losses.frame")

# (module, attribute, span name); "Class.method" wraps a method. The
# scalar_node span is named per loss node and build_losses also counts
# pseudo-label cache lookups, see install().
WRAPPED = (
    ("trainer", "train", "trainer.train"),
    ("trainer", "build_losses", "trainer.build_losses"),
    ("trainer", "evaluate_model", "trainer.evaluate_model"),
    ("trainer", "AdamWState.update", "trainer.update"),
    ("model", "forward_similarity", "model.forward_similarity"),
    ("model", "eval_similarity_matrix", "model.eval_similarity_matrix"),
    ("autodiff", "gram", "autodiff.gram"),
    ("autodiff", "topk_sum", "autodiff.topk_sum"),
    ("autodiff", "Var.backward", "autodiff.backward"),
    ("autodiff", "scalar_node", "autodiff.scalar_node"),
    ("ranking", "partition_query", "ranking.partition_query"),
    ("pseudolabels", "generate_pseudo_labels", "pseudolabels.generate_pseudo_labels"),
    ("aggregation", "video_similarity", "aggregation.video_similarity"),
    ("aggregation", "patch_similarity", "aggregation.patch_similarity"),
    ("aggregation", "spatial_topk_chamfer", "aggregation.spatial_topk_chamfer"),
    ("aggregation", "refine", "aggregation.refine"),
    ("aggregation", "temporal_topk_chamfer", "aggregation.temporal_topk_chamfer"),
    ("metrics", "evaluate_retrieval", "metrics.evaluate_retrieval"),
    ("metrics", "average_precision", "metrics.average_precision"),
    ("metrics", "mean_ap", "metrics.mean_ap"),
    ("metrics", "micro_ap", "metrics.micro_ap"),
    ("synthetic", "generate_corpus", "synthetic.generate_corpus"),
    ("tensorio", "read_tensors", "tensorio.read_tensors"),
    ("tensorio", "write_json_report", "tensorio.write_report"),
    ("tensorio", "write_csv", "tensorio.write_report"),
    ("cli", "main", "cli.main"),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    workload: str
    moves: str  # the end-to-end metric (and its meaning there) it should move
    source: tuple  # ("ms" | "calls" | "self_ms" | "setup_ms", span) or ("value", key)
    base: str = ""  # what a ratio or count is taken over


_TRAIN = ("train-hard", "throughput (train_iters_per_s)")
_EVAL = ("eval-sweep", "throughput (eval_queries_per_s)")
_SCORE = ("score-file", "throughput (score_queries_per_s)")


def _span_ms(workload_moves, name):
    return Metric(f"{name}.ms", "ms", "lower", *workload_moves, ("ms", name))


def _span_calls(workload_moves, name):
    return Metric(f"{name}.calls", "count", "lower", *workload_moves, ("calls", name))


PER_LAYER = (
    _span_ms(_TRAIN, "trainer.build_losses"),
    _span_ms(_TRAIN, "model.forward_similarity"),
    _span_ms(_TRAIN, "autodiff.gram"),
    _span_ms(_TRAIN, "autodiff.topk_sum"),
    _span_calls(_TRAIN, "autodiff.topk_sum"),
    _span_ms(_TRAIN, "autodiff.backward"),
    *(_span_ms(_TRAIN, node) for node in LOSS_NODES),
    _span_calls(_TRAIN, "ranking.partition_query"),
    _span_calls(_TRAIN, "pseudolabels.generate_pseudo_labels"),
    Metric("pseudolabels.label_cache_hit_ratio", "ratio", "higher", *_TRAIN,
           ("value", "pseudolabels.label_cache_hit_ratio"),
           base="relevant ordered clip pairs looked up"),
    _span_ms(_TRAIN, "trainer.update"),
    _span_ms(_TRAIN, "trainer.evaluate_model"),
    Metric("trainer.self.ms", "ms", "lower", *_TRAIN, ("self_ms", "trainer.train")),
    Metric("trainer.heldout_map", "fraction", "higher", "train-hard",
           "none: retrieval quality, moved by recipe changes", ("value", "heldout_map")),
    Metric("trainer.heldout_micro_ap", "fraction", "higher", "train-hard",
           "none: retrieval quality, moved by recipe changes", ("value", "heldout_micro_ap")),
    _span_ms(_EVAL, "model.eval_similarity_matrix"),
    _span_calls(_EVAL, "aggregation.video_similarity"),
    _span_ms(_EVAL, "aggregation.patch_similarity"),
    _span_ms(_EVAL, "aggregation.spatial_topk_chamfer"),
    _span_ms(_EVAL, "aggregation.refine"),
    _span_ms(_EVAL, "aggregation.temporal_topk_chamfer"),
    _span_ms(_EVAL, "metrics.evaluate_retrieval"),
    Metric("synthetic.generate_corpus.ms", "ms", "lower", "train-hard, eval-sweep", "setup_s",
           ("setup_ms", "synthetic.generate_corpus")),
    _span_ms(_SCORE, "tensorio.read_tensors"),
    _span_ms(_SCORE, "tensorio.write_report"),
    _span_calls(_SCORE, "metrics.average_precision"),
    _span_ms(_SCORE, "metrics.average_precision"),
    _span_ms(_SCORE, "metrics.mean_ap"),
    _span_ms(_SCORE, "metrics.micro_ap"),
    Metric("metrics.brute_force_ap.tie_mismatches", "count", "lower", "score-file",
           "none: correctness fact, the eval --verify tie defect",
           ("value", "tie_mismatches"), base="tied score lists"),
    Metric("trace.overhead_pct", "%", "lower", "all",
           "none: traced minus untraced wall time per repetition", ("value", "overhead_pct")),
)


def install(apranking, tracer: spans.Tracer) -> list:
    """Wrap every function in WRAPPED that the program still has; returns
    the undo list for spans.uninstall."""
    node = [0]

    def loss_node_name():
        if tracer.current() != "trainer.build_losses":
            return "autodiff.scalar_node"
        k, node[0] = node[0], node[0] + 1
        return LOSS_NODES[k] if k < len(LOSS_NODES) else "losses.other"

    def counting_build_losses(fn):
        @functools.wraps(fn)
        def build_losses(cfg, model, batch_clips, label_cache, *args, **kwargs):
            node[0] = 0
            before = len(label_cache)
            out = fn(cfg, model, batch_clips, label_cache, *args, **kwargs)
            if cfg.weights.lambda_f > 0:
                sizes = Counter(c.group for c in batch_clips).values()
                tracer.counters["label_lookups"] += sum(m * (m - 1) for m in sizes)
                tracer.counters["label_misses"] += len(label_cache) - before
            return out

        return build_losses

    patches = []
    for module_name, attr, span_name in WRAPPED:
        owner = getattr(apranking, module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name, None)
        if owner is None or attr not in owner.__dict__:
            continue  # the layer is gone; its metrics read 0
        fn = owner.__dict__[attr]
        if attr == "scalar_node":
            wrapped = tracer.wrap(loss_node_name, fn)
        elif attr == "build_losses":
            wrapped = tracer.wrap(span_name, counting_build_losses(fn))
        else:
            wrapped = tracer.wrap(span_name, fn)
        patches.append((owner, attr, wrapped))
    return spans.install(patches)


def rep_values(tracer: spans.Tracer, first: int, last: int) -> dict:
    """Per-layer values of one traced repetition, spans [first, last)."""
    summary = tracer.summary(first, last)
    out = {}
    for m in PER_LAYER:
        kind, key = m.source
        row = summary.get(key)
        if kind == "ms":
            out[m.name] = row["ns"] / 1e6 if row else 0.0
        elif kind == "self_ms":
            out[m.name] = row["self_ns"] / 1e6 if row else 0.0
        elif kind == "calls":
            out[m.name] = row["calls"] if row else 0
    lookups = tracer.counters["label_lookups"]
    hits = lookups - tracer.counters["label_misses"]
    out["pseudolabels.label_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    return out


def setup_values(tracer: spans.Tracer, first: int, last: int) -> dict:
    summary = tracer.summary(first, last)
    out = {}
    for m in PER_LAYER:
        kind, key = m.source
        if kind == "setup_ms":
            row = summary.get(key)
            out[m.name] = row["ns"] / 1e6 if row else 0.0
    return out
