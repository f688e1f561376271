"""Exact retrieval metrics: per-query AP, macro mAP, and pooled micro-AP.

Per-query AP is computed in exact rational arithmetic (rank counts are
integers and every addend is a ratio of small integers), then rounded once
to float64. That makes the two independent AP routes — rank counting here
and the sorted-scan oracle — agree bitwise, and keeps ``1 - AP`` consistent
with the exact listwise risk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import fsum

import numpy as np

from .errors import StructuralError, UndefinedMetricError
from .ranking import RelevanceMatrix, ScoredList

__all__ = [
    "MetricReport",
    "average_precision",
    "brute_force_ap",
    "mean_ap",
    "micro_ap",
    "evaluate_retrieval",
]


@dataclass(frozen=True)
class MetricReport:
    """Per-query APs plus the macro and pooled micro aggregate."""

    ap_per_query: tuple
    map: float
    micro_ap: float
    num_queries: int
    num_positives: int

    def to_dict(self) -> dict:
        return {
            "ap_per_query": list(self.ap_per_query),
            "map": self.map,
            "micro_ap": self.micro_ap,
            "num_queries": self.num_queries,
            "num_positives": self.num_positives,
        }


def _ap_fraction(sl: ScoredList) -> Fraction:
    scores, labels = sl.scores, sl.labels
    pos_scores = scores[labels == 1]
    if pos_scores.size == 0:
        raise UndefinedMetricError("average precision undefined without positives")
    total = Fraction(0)
    for s in pos_scores:
        rank_pos = 1 + int(np.count_nonzero(pos_scores > s))
        rank_all = 1 + int(np.count_nonzero(scores > s))
        total += Fraction(rank_pos, rank_all)
    return total / len(pos_scores)


def average_precision(sl: ScoredList) -> float:
    """AP of one query: mean over positives of rank-among-positives divided
    by rank-among-all, with strict (tie-optimistic) descending ranks."""
    return float(_ap_fraction(sl))


def brute_force_ap(sl: ScoredList) -> float:
    """Independent AP oracle: sort the list descending and scan it block by
    block of equal scores, averaging precision at each positive. Every
    positive of a block counts the block's positives and items as ranked
    after it, the tie-optimistic rule of :func:`average_precision`, with
    which it shares no rank machinery."""
    if not np.any(sl.labels == 1):
        raise UndefinedMetricError("average precision undefined without positives")
    order = sorted(range(sl.scores.size), key=lambda i: -sl.scores[i])
    hits = seen = 0
    precisions = []
    start = 0
    while start < len(order):
        end = start
        while end < len(order) and sl.scores[order[end]] == sl.scores[order[start]]:
            end += 1
        block_hits = sum(1 for idx in order[start:end] if sl.labels[idx] == 1)
        precisions += [Fraction(hits + 1, seen + 1)] * block_hits
        hits += block_hits
        seen += end - start
        start = end
    return float(sum(precisions) / hits)


def mean_ap(queries) -> float:
    """Macro mAP: arithmetic mean of per-query APs, skipping queries that
    have no positive labels."""
    aps = [average_precision(q) for q in queries if np.any(q.labels == 1)]
    if not aps:
        raise UndefinedMetricError("no query has a positive label")
    return fsum(aps) / len(aps)


def micro_ap(queries) -> float:
    """Pooled micro-AP: every (score, label) pair across all queries enters a
    single descending list; ties keep query order then item order. The value
    is the sum of precision-at-rank times the per-positive recall increment.
    """
    pooled_scores = []
    pooled_labels = []
    for q in queries:
        pooled_scores.extend(q.scores.tolist())
        pooled_labels.extend(q.labels.tolist())
    total_pos = sum(pooled_labels)
    if total_pos == 0:
        raise UndefinedMetricError("no positive label in the pooled list")
    order = sorted(range(len(pooled_scores)), key=lambda i: -pooled_scores[i])
    hits = 0
    total = Fraction(0)
    for position, idx in enumerate(order, start=1):
        if pooled_labels[idx] == 1:
            hits += 1
            total += Fraction(hits, position) * Fraction(1, total_pos)
    return float(total)


def evaluate_retrieval(sim, relevance: RelevanceMatrix, exclude_self: bool = True) -> MetricReport:
    """Score a square similarity matrix against binary relevance.

    Each row is one query; with ``exclude_self`` the diagonal entry is
    dropped from the candidate list (the usual convention when the corpus
    contains the query itself).
    """
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise StructuralError("similarity matrix must be square")
    if sim.shape[0] != relevance.n:
        raise StructuralError("similarity and relevance sizes differ")
    n = relevance.n
    queries = []
    for k in range(n):
        keep = np.ones(n, dtype=bool)
        if exclude_self:
            keep[k] = False
        queries.append(ScoredList(sim[k, keep], relevance.entries[k, keep]))
    scored = [q for q in queries if np.any(q.labels == 1)]
    if not scored:
        raise UndefinedMetricError("no query has a positive label")
    aps = tuple(average_precision(q) for q in scored)
    return MetricReport(
        ap_per_query=aps,
        map=fsum(aps) / len(aps),
        micro_ap=micro_ap(scored),
        num_queries=len(scored),
        num_positives=int(sum(int(q.labels.sum()) for q in scored)),
    )
