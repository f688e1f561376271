"""Exact retrieval metrics: per-query AP, macro mAP, and pooled micro-AP.

Every AP here is a mean of ratios of integer ranks, (1/P)·Σ aᵢ/bᵢ, and is
returned as that rational number correctly rounded once to float64. numpy
does the counting, from ``np.sort`` alone:

- per-query AP works on a stack of queries, one per row: one sort along the
  rows, then each positive's tie-optimistic ranks (among the positives and
  among all items) from ``searchsorted``;
- micro-AP takes the positions of the pooled positives from their stable
  descending order, the order ``np.argsort(-scores, kind="stable")`` gives.
  :func:`pooled_order` builds it from one sort of packed uint64 keys: high
  bits from an order-preserving integer image of ``-(score + 0.0)``, low
  bits the pooled index. Groups whose keys differed only in the low bits
  are put right by one lexsort.

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
from typing import NamedTuple

import numpy as np

from .errors import StructuralError, UndefinedMetricError
from .ranking import RelevanceMatrix, ScoredList

__all__ = [
    "MetricReport",
    "average_precision",
    "average_precision_rows",
    "brute_force_ap",
    "micro_ap",
    "pooled_order",
    "retrieval_report",
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


# bits of the fixed-point sum in _means_of_ratios
BRACKET_BITS = 160


def _means_of_ratios(num, den, counts) -> list:
    """For each group of P = ``counts[g]`` consecutive pairs of positive
    integers, (1/P)·Σ num[i]/den[i] correctly rounded to float64.

    Each term is floored to K fractional bits, so the exact sum of a group
    lies in [lo, lo + P] / 2^K. Integer true division rounds correctly and
    rounding is monotone, so when both ends give the same double, so does the
    exact mean; otherwise the exact Fraction sum is rounded instead.
    """
    num, den = num.tolist(), den.tolist()
    terms = [(a << BRACKET_BITS) // b for a, b in zip(num, den)]
    means = []
    start = 0
    for count in counts:
        end = start + count
        lo = sum(terms[start:end])
        scale = count << BRACKET_BITS
        value = lo / scale
        if value != (lo + count) / scale:
            value = float(sum(map(Fraction, num[start:end], den[start:end])) / count)
        means.append(value)
        start = end
    return means


def _checked_rows(scores, labels):
    """Float64 scores and boolean positives of a (queries, items) stack.

    Labels must be 0 or 1, and scores finite, except that a -inf score with
    label 0 is padding: it ranks below every score and adds no positive, so a
    query padded to the stack's width keeps every metric. A bad stack raises
    StructuralError naming its first bad row.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 2 or scores.shape != labels.shape:
        raise StructuralError(
            f"scores {scores.shape} and labels {labels.shape} must be equal 2-d shapes"
        )
    positives = labels == 1
    binary = positives | (labels == 0)
    finite = np.isfinite(scores)
    if not (binary.all() and finite.all()):
        bad_label = ~binary.all(axis=1)
        bad_score = ~(finite | ((scores == -np.inf) & ~positives)).all(axis=1)
        bad = bad_label | bad_score
        if bad.any():
            row = int(np.argmax(bad))
            reason = "labels must be binary" if bad_label[row] else "scores must be finite"
            raise StructuralError(f"row {row}: {reason}")
    return scores, positives


def _ap_rows(scores, positives) -> list:
    """AP of every row of a checked stack: mean over positives of
    rank-among-positives divided by rank-among-all, with strict
    (tie-optimistic) descending ranks."""
    counts = np.count_nonzero(positives, axis=1)
    if not counts.all():
        raise UndefinedMetricError("average precision undefined without positives")
    pos = scores[positives]  # row by row
    ranked = np.sort(scores, axis=1)
    # 1 + #{scores > s} for every positive score s, among positives and among
    # all, from #{scores <= s} per row
    rank_pos = np.empty(pos.size, dtype=np.int64)
    rank_all = np.empty(pos.size, dtype=np.int64)
    start = 0
    for row, end in zip(ranked, np.cumsum(counts).tolist()):
        p = pos[start:end]
        p.sort()
        rank_pos[start:end] = np.searchsorted(p, p, "right")
        rank_all[start:end] = np.searchsorted(row, p, "right")
        start = end
    np.subtract(np.repeat(counts + 1, counts), rank_pos, out=rank_pos)
    np.subtract(scores.shape[1] + 1, rank_all, out=rank_all)
    return _means_of_ratios(rank_pos, rank_all, counts.tolist())


def average_precision_rows(scores, labels) -> list:
    """AP of every query of a (queries, items) stack of scores and binary
    labels; each row needs a positive. Rows of unequal length are padded with
    -inf scores and label 0 (see :func:`retrieval_report`)."""
    return _ap_rows(*_checked_rows(scores, labels))


def average_precision(sl: ScoredList) -> float:
    """AP of one query: mean over positives of rank-among-positives divided
    by rank-among-all, with strict (tie-optimistic) descending ranks."""
    return average_precision_rows(sl.scores[None], sl.labels[None])[0]


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


_SIGN = np.int64(-(2**63))  # the sign bit of an int64


def pooled_order(scores) -> np.ndarray:
    """Stable descending order of a 1-d score array, bitwise
    ``np.argsort(-scores, kind="stable")``, from one ``np.sort``.

    Each score maps to a uint64 key that orders like ``-(score + 0.0)``,
    computed as ``0.0 - score`` so that -0.0 and 0.0 give one key, as they
    are one score. The low b bits of each key, b enough for every index, are
    replaced by the item's index, and one sort of these packed keys gives the
    order. Two items whose keys differ only in their low bits are then
    ordered by index instead of by key; every group of equal high bits that
    holds such an inversion is put right by one lexsort over the union of
    those groups.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    low = np.uint64((1 << (n - 1).bit_length()) - 1)
    key = np.subtract(0.0, scores).view(np.int64)  # -score, and +0.0 for both zeros
    # Read as unsigned, float bits order non-negative floats once the sign
    # bit is set, and negative ones once every bit is flipped.
    packed = key >> 63  # -1 for a negative float, else 0
    packed |= _SIGN
    key ^= packed
    key = key.view(np.uint64)
    packed = packed.view(np.uint64)
    np.bitwise_and(key, ~low, out=packed)
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort()
    order = np.bitwise_and(packed, low, out=packed).view(np.int64)
    keys = np.take(key, order)
    del key, packed
    inverted = np.flatnonzero(keys[1:] < keys[:-1])
    if inverted.size:
        # the keys of a group share their high bits, and the groups are in
        # order of them, so each group is one searchsorted range of keys
        high = np.unique(keys[inverted] & ~low)
        first = np.searchsorted(keys, high, "left")
        sizes = np.searchsorted(keys, high | low, "right") - first
        # the positions first[g], ..., first[g] + sizes[g] - 1 of every group
        where = np.repeat(first - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        items = order[where]
        order[where] = items[np.lexsort((items, keys[where]))]
    return order


def micro_ap(queries) -> float:
    """Pooled micro-AP: every (score, label) pair across all queries enters a
    single descending list; ties keep query order then item order. The value
    is the sum of precision-at-rank times the per-positive recall increment.
    Queries are ScoredLists, or any objects with 1-d ``scores`` and
    ``labels``; -inf padding with label 0 is allowed, as it ranks last.
    """
    queries = list(queries)
    if not queries:
        raise UndefinedMetricError("no positive label in the pooled list")
    if len(queries) == 1:
        scores, labels = queries[0].scores, queries[0].labels
    else:
        scores = np.concatenate([q.scores for q in queries])
        labels = np.concatenate([q.labels for q in queries])
    # 1-based positions of the positives in the descending pooled list
    positions = np.flatnonzero(labels[pooled_order(scores)] == 1) + 1
    if positions.size == 0:
        raise UndefinedMetricError("no positive label in the pooled list")
    return _means_of_ratios(np.arange(1, positions.size + 1), positions, [positions.size])[0]


class _Pooled(NamedTuple):
    """The pooled list of a stack: all rows' items in query, then item order."""

    scores: np.ndarray
    labels: np.ndarray


def retrieval_report(scores, labels) -> MetricReport:
    """Per-query AP, mAP and micro-AP of a (queries, items) stack of scores
    and binary labels; queries without a positive are skipped.

    Queries of unequal length are padded to one width with -inf scores and
    label 0. That is exact: ranks count only strictly greater scores, and no
    pad precedes a finite score in the pooled order.
    """
    scores, positives = _checked_rows(scores, labels)
    scored = positives.any(axis=1)
    if not scored.any():
        raise UndefinedMetricError("no query has a positive label")
    if not scored.all():
        scores, positives = scores[scored], positives[scored]
    aps = tuple(_ap_rows(scores, positives))
    return MetricReport(
        ap_per_query=aps,
        map=fsum(aps) / len(aps),
        micro_ap=micro_ap([_Pooled(scores.ravel(), positives.ravel())]),
        num_queries=len(aps),
        num_positives=int(np.count_nonzero(positives)),
    )


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
    return retrieval_report(sim[keep].reshape(n, -1), relevance.entries[keep].reshape(n, -1))
