"""Exact retrieval metrics: per-query AP, macro mAP, and pooled micro-AP.

A (queries, items) stack of scores and labels goes through
:func:`retrieval_report`, and a similarity matrix through
:func:`evaluate_retrieval`, which calls it; :func:`average_precision` is the
AP of one :class:`~apranking.ranking.ScoredList`.

Every AP here is a mean of ratios of integer ranks, (1/P)·Σ aᵢ/bᵢ, and is
returned as that rational number correctly rounded once to float64. numpy
does the counting, from ``np.sort`` alone:

- per-query AP works on a stack of queries, one per row: one sort along the
  rows and one lexsort of the positives by (row, score), then one
  branchless binary search over all positives at once gives each its
  tie-optimistic ranks among the positives and among all items;
- micro-AP needs only the places of the positives in the stable descending
  pooled order, the order ``np.argsort(-scores, kind="stable")`` gives.
  :func:`pooled_positions` sorts one buffer of packed uint64 keys in place
  (high bits from an order-preserving integer image of
  ``-(score + 0.0)``, low bits the pooled index) and finds the positives'
  keys in it with ``searchsorted``. The few groups whose keys differed
  only in the low bits and that hold a positive are ordered again. No
  pooled order is built: the packed keys are the one array the size of
  the pool.

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
    "pooled_positions",
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


def _count_at_most(ranked, start, size, values) -> np.ndarray:
    """#{x <= v} in the ascending segment ``ranked[start : start + size]``,
    for every value v with its own segment (``size`` >= 1), by one
    branchless binary search over all values at once."""
    found = np.zeros(values.size, dtype=np.int64)
    step = 1 << (int(np.max(size)).bit_length() - 1)
    while step:
        probe = found + step
        inside = probe <= size
        np.minimum(probe, size, out=probe)
        inside &= ranked[start + probe - 1] <= values
        found += step * inside
        step >>= 1
    return found


def _ap_rows(scores, positives) -> list:
    """AP of every row of a checked stack: mean over positives of
    rank-among-positives divided by rank-among-all, with strict
    (tie-optimistic) descending ranks."""
    counts = np.count_nonzero(positives, axis=1)
    if not counts.all():
        raise UndefinedMetricError("average precision undefined without positives")
    width = scores.shape[1]
    rows = np.repeat(np.arange(counts.size), counts)
    pos = scores[positives]  # row by row
    pos = pos[np.lexsort((pos, rows))]  # and ascending within each row
    # 1 + #{scores > s} for every positive score s, among all and among
    # positives, from #{scores <= s} in its row's sorted scores and positives
    ranked = np.sort(scores, axis=1).reshape(-1)
    rank_all = width + 1 - _count_at_most(ranked, rows * width, width, pos)
    starts = np.cumsum(counts) - counts
    rank_pos = np.repeat(counts + 1, counts) - _count_at_most(pos, starts[rows], counts[rows], pos)
    return _means_of_ratios(rank_pos, rank_all, counts.tolist())


def average_precision(sl: ScoredList) -> float:
    """AP of one query: mean over positives of rank-among-positives divided
    by rank-among-all, with strict (tie-optimistic) descending ranks."""
    return _ap_rows(*_checked_rows(sl.scores[None], sl.labels[None]))[0]


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

# entries per chunk of the pooled key build and of the mixed-group check
_CHUNK = 1 << 13


def _descending_keys(scores, out=None) -> np.ndarray:
    """uint64 keys that order like ``-(scores + 0.0)``, in a new array or
    written into ``out`` (8-byte items, the shape of ``scores``).

    ``0.0 - score`` gives -0.0 and 0.0 one key, as they are one score. Read
    as unsigned, float bits order non-negative floats once the sign bit is
    set, and negative ones once every bit is flipped.
    """
    key = np.subtract(0.0, scores, out=None if out is None else out.view(np.float64)).view(np.int64)
    flip = key >> 63  # -1 for a negative float, else 0
    flip |= _SIGN
    key ^= flip
    return key.view(np.uint64)


def _mixed_groups(packed, flat, low, first, sizes) -> np.ndarray:
    """Which high-bit groups of the sorted packed keys (``sizes[g]`` entries
    from ``first[g]``) hold more than one score, and so more than one full
    key. Each member's score is compared with its group's first one, a
    bounded chunk of members at a time."""
    ends = np.cumsum(sizes)
    shift = first - ends + sizes  # a member's place minus its ordinal
    lead = flat[(packed[first] & low).view(np.int64)]
    mixed = np.zeros(first.size, dtype=bool)
    total = int(ends[-1]) if ends.size else 0
    for start in range(0, total, _CHUNK):
        member = np.arange(start, min(start + _CHUNK, total))
        group = np.searchsorted(ends, member, "right")
        items = (packed[member + shift[group]] & low).view(np.int64)
        mixed[group[flat[items] != lead[group]]] = True
    return mixed


def pooled_positions(scores, positives) -> np.ndarray:
    """Ascending 0-based places of the positives in the stable descending
    order of the pooled list, a stack of queries read row by row: where they
    stand in ``np.argsort(-scores.ravel(), kind="stable")``. Scores may hold
    -inf, not NaN.

    Every item gets one packed uint64 key: the high bits of its
    :func:`_descending_keys` key, and in the low b bits, b enough for every
    index, its pooled index. One in-place sort of the packed keys orders the
    items, and ``searchsorted`` finds the positives' keys in it. Items whose
    keys differ only in their low bits share a high-bit group, which that
    sort orders by index rather than by key; only a group that holds a
    positive and more than one full key is ordered again, by (key, index).
    Such groups are found by reading their members' scores a bounded chunk
    at a time, so the packed keys are the only array the size of the pool.
    """
    flat = np.ascontiguousarray(scores, dtype=np.float64).reshape(-1)
    hits = np.asarray(positives, dtype=bool).reshape(-1)
    n = flat.size
    low = np.uint64((1 << max(n - 1, 0).bit_length()) - 1)
    packed = np.empty(n, dtype=np.uint64)
    index = np.arange(min(n, _CHUNK), dtype=np.uint64)
    for start in range(0, n, _CHUNK):
        block = packed[start : start + _CHUNK]
        _descending_keys(flat[start : start + _CHUNK], block)
        block &= ~low
        block += index[: block.size]
        block += np.uint64(start)
    keys = packed[hits]
    keys.sort()
    packed.sort()
    places = np.searchsorted(packed, keys)
    # the keys of a group share their high bits, and the groups are in order
    # of them, so each group is one searchsorted range of packed keys; a
    # positive's group holds more than itself only if a neighbour shares its
    # high bits
    groups = keys & ~low
    near = (packed[np.maximum(places - 1, 0)] & ~low) == groups
    near |= (packed[np.minimum(places + 1, n - 1)] & ~low) == groups
    high = groups[near]  # ascending: keep the first of each run
    run = np.ones(high.size, dtype=bool)
    run[1:] = high[1:] != high[:-1]
    high = high[run]
    first = np.searchsorted(packed, high)
    sizes = np.searchsorted(packed, high | low, "right") - first
    shared = sizes > 1
    first, sizes = first[shared], sizes[shared]
    mixed = _mixed_groups(packed, flat, low, first, sizes)
    if mixed.any():
        first, sizes = first[mixed], sizes[mixed]
        where = np.repeat(first - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        items = (packed[where] & low).view(np.int64)
        order = np.lexsort((items, _descending_keys(flat[items])))
        # the groups' positives, taken in (key, index) order, fill the places
        # where positives stand in that order
        moved = np.isin(groups, packed[first] & ~low)
        places = np.sort(np.concatenate([places[~moved], where[hits[items[order]]]]))
    return places


def retrieval_report(scores, labels) -> MetricReport:
    """Per-query AP, mAP and micro-AP of a (queries, items) stack of scores
    and binary labels; queries without a positive are skipped, from the
    pooled list too. Micro-AP pools every (score, label) pair of the kept
    queries into one descending list, in which tied scores keep query order,
    then item order.

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
    places = pooled_positions(scores, positives) + 1
    return MetricReport(
        ap_per_query=aps,
        map=fsum(aps) / len(aps),
        micro_ap=_means_of_ratios(np.arange(1, places.size + 1), places, [places.size])[0],
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
