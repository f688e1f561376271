"""Core ranking primitives: the strict step function and the
positive/negative score partition of one query.

All computation here is exact 64-bit arithmetic on immutable inputs; callers
may share these objects across threads freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError

__all__ = [
    "heaviside",
    "partition_query",
    "QueryContext",
    "RelevanceMatrix",
    "ScoredList",
]


def heaviside(x):
    """Strict unit step: 1 where x > 0, else 0 (so H(0) = 0; ties never count).

    Accepts scalars or arrays; returns float64 of matching shape.
    """
    x = np.asarray(x, dtype=np.float64)
    out = (x > 0.0).astype(np.float64)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class QueryContext:
    """Similarity scores of one query split into positives and negatives.

    The split is index-level: the same score value may appear on both sides.
    ``positives`` may be empty, in which case every loss skips the query.
    """

    positives: np.ndarray
    negatives: np.ndarray

    def __post_init__(self):
        pos = np.atleast_1d(np.asarray(self.positives, dtype=np.float64))
        neg = np.atleast_1d(np.asarray(self.negatives, dtype=np.float64))
        if pos.ndim != 1 or neg.ndim != 1:
            raise StructuralError("QueryContext expects 1-d score lists")
        if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(neg))):
            raise StructuralError("QueryContext scores must be finite")
        object.__setattr__(self, "positives", pos)
        object.__setattr__(self, "negatives", neg)

    @property
    def num_positives(self) -> int:
        return self.positives.size

    @property
    def num_negatives(self) -> int:
        return self.negatives.size


@dataclass(frozen=True)
class RelevanceMatrix:
    """Binary n-by-n relevance; entry (k, i) says whether item i is relevant
    to query k. Diagonal entries mark self-pairs and are excluded from both
    the positive and the negative set when partitioning (a self-pair is
    neither a retrieval positive nor a retrieval negative).
    """

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise StructuralError("relevance matrix must be square")
        if not ((e == 0) | (e == 1)).all():
            raise StructuralError("relevance entries must be 0 or 1")
        object.__setattr__(self, "entries", e.astype(np.int8))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_groups(cls, group_ids) -> "RelevanceMatrix":
        g = np.asarray(group_ids)
        return cls((g[:, None] == g[None, :]).astype(np.int8))


@dataclass(frozen=True)
class ScoredList:
    """Parallel scores and binary relevance labels for one ranked query."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        s = np.atleast_1d(np.asarray(self.scores, dtype=np.float64))
        l = np.atleast_1d(np.asarray(self.labels))
        if s.shape != l.shape or s.ndim != 1:
            raise StructuralError("scores and labels must be 1-d and equal length")
        if not ((l == 0) | (l == 1)).all():
            raise StructuralError("labels must be binary")
        if not np.all(np.isfinite(s)):
            raise StructuralError("scores must be finite")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "labels", l.astype(np.int8))

    def to_query_context(self) -> QueryContext:
        mask = self.labels == 1
        return QueryContext(self.scores[mask], self.scores[~mask])


def partition_query(row, relevance_row, self_index: int) -> QueryContext:
    """Split one similarity row into positive/negative score sets.

    The query's own entry (``self_index``) is excluded from both sets
    unconditionally; everything else goes to positives where the relevance
    is 1 and to negatives where it is 0.
    """
    row = np.atleast_1d(np.asarray(row, dtype=np.float64))
    rel = np.atleast_1d(np.asarray(relevance_row))
    if row.shape != rel.shape:
        raise StructuralError(
            f"row length {row.shape} does not match relevance length {rel.shape}"
        )
    if not 0 <= self_index < row.size:
        raise StructuralError(f"self_index {self_index} out of range for n={row.size}")
    keep = np.ones(row.size, dtype=bool)
    keep[self_index] = False
    pos = row[keep & (rel == 1)]
    neg = row[keep & (rel == 0)]
    return QueryContext(pos, neg)
