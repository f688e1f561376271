"""Exact retrieval metrics: per-query AP, macro mAP, and pooled micro-AP.

Every AP here is a mean of ratios of integer ranks, (1/P)·Σ aᵢ/bᵢ, and is
returned as that rational number correctly rounded once to float64. numpy
does the counting: per-query AP takes its tie-optimistic ranks from
``searchsorted`` on the sorted scores, and micro-AP takes the positions of
the pooled positives from their stable descending order (one argsort, with
runs of tied scores put back in pooled order by one integer sort).

One integer accumulator then sums floor(aᵢ·2^K / bᵢ) with K =
``BRACKET_BITS``. The exact sum lies within P units of the last place of
that fixed-point sum, so when both ends of the bracket round to the same
double, that double is the answer; otherwise the exact ``Fraction`` sum
decides. Results are therefore bitwise those of exact rational arithmetic,
which keeps ``1 - AP`` consistent with the exact listwise risk.

Two independent oracles stay: :func:`brute_force_ap`, a sorted scan over
tie blocks, and ``losses.heaviside_ap_risk``, the exact listwise risk.
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


# bits of the fixed-point sum in _mean_of_ratios
BRACKET_BITS = 160


def _mean_of_ratios(num, den) -> float:
    """(1/P)·Σ num[i]/den[i] over P pairs of positive integers, correctly
    rounded to float64.

    Each term is floored to K fractional bits, so the exact sum lies in
    [lo, lo + P] / 2^K. Integer true division rounds correctly and rounding
    is monotone, so when both ends give the same double, so does the exact
    mean; otherwise the exact Fraction sum is rounded instead.
    """
    pairs = list(zip(num.tolist(), den.tolist()))
    terms = len(pairs)
    lo = sum((a << BRACKET_BITS) // b for a, b in pairs)
    scale = terms << BRACKET_BITS
    value = lo / scale
    if value == (lo + terms) / scale:
        return value
    return float(sum(Fraction(a, b) for a, b in pairs) / terms)


def average_precision(sl: ScoredList) -> float:
    """AP of one query: mean over positives of rank-among-positives divided
    by rank-among-all, with strict (tie-optimistic) descending ranks."""
    pos = np.sort(sl.scores[sl.labels == 1])
    if pos.size == 0:
        raise UndefinedMetricError("average precision undefined without positives")
    # 1 + #{scores > s} for every positive score s, among positives and among all
    rank_pos = 1 + pos.size - np.searchsorted(pos, pos, "right")
    rank_all = 1 + sl.scores.size - np.searchsorted(np.sort(sl.scores), pos, "right")
    return _mean_of_ratios(rank_pos, rank_all)


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
    queries = list(queries)
    if not queries:
        raise UndefinedMetricError("no positive label in the pooled list")
    scores = np.concatenate([q.scores for q in queries])
    labels = np.concatenate([q.labels for q in queries])
    # The order np.argsort(-scores, kind="stable") gives, from two faster
    # sorts: numpy's default argsort, then every run of equal scores put back
    # in pooled order by one integer sort of (run, index).
    n = scores.size
    descending = -scores
    order = np.argsort(descending)
    ordered = np.sort(descending)  # descending[order], without the gather
    run = np.zeros(n, dtype=np.int64)
    np.cumsum(ordered[1:] != ordered[:-1], out=run[1:])
    order = np.sort(run * n + order) % n
    # 1-based positions of the positives in the descending pooled list
    positions = np.flatnonzero(labels[order] == 1) + 1
    if positions.size == 0:
        raise UndefinedMetricError("no positive label in the pooled list")
    return _mean_of_ratios(np.arange(1, positions.size + 1), positions)


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
    keep = ~np.eye(n, dtype=bool) if exclude_self else np.ones((n, n), dtype=bool)
    rows = sim[keep].reshape(n, -1)
    labels = relevance.entries[keep].reshape(n, -1)
    queries = [ScoredList(s, l) for s, l in zip(rows, labels)]
    scored = [q for q, has_positive in zip(queries, labels.any(axis=1)) if has_positive]
    if not scored:
        raise UndefinedMetricError("no query has a positive label")
    aps = tuple(average_precision(q) for q in scored)
    return MetricReport(
        ap_per_query=aps,
        map=fsum(aps) / len(aps),
        micro_ap=micro_ap(scored),
        num_queries=len(scored),
        num_positives=int(labels.sum()),
    )
