"""Frame-pair pseudo labels from a frozen teacher's frame similarities.

Per query frame, the highest-similarity candidate frames become positives
and the lowest become negatives; everything in between is ignored. Counts
are fixed by rank (ceil for positives, floor for negatives) rather than by
value thresholds, so batch shapes are stable and ties resolve
deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor

import numpy as np

from .errors import DegenerateInputError, ParameterError, StructuralError

__all__ = [
    "POSITIVE",
    "NEGATIVE",
    "IGNORE",
    "FrameEmbeddings",
    "LabelRates",
    "PseudoLabelMatrix",
    "teacher_frame_similarity",
    "generate_pseudo_labels",
]

POSITIVE = 1
NEGATIVE = -1
IGNORE = 0


@dataclass(frozen=True)
class FrameEmbeddings:
    """Per-clip frame feature matrix of shape (frames, dim)."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 2 or min(d.shape) < 1:
            raise StructuralError(f"expected a (T, D') matrix, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise DegenerateInputError("frame embeddings contain non-finite values")
        object.__setattr__(self, "data", d)

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LabelRates:
    """Top and bottom rate for splitting each row into positives/negatives."""

    r_t: float = 0.35
    r_b: float = 0.35

    def __post_init__(self):
        for name, v in (("r_t", self.r_t), ("r_b", self.r_b)):
            if not (np.isfinite(v) and 0.0 < v < 1.0):
                raise ParameterError(f"{name} must lie in (0, 1), got {v}")

    def counts(self, num_candidates: int) -> tuple[int, int]:
        """(positives, negatives) per row: ceil(r_t * T'), floor(r_b * T')."""
        npos = ceil(self.r_t * num_candidates)
        nneg = floor(self.r_b * num_candidates)
        if npos + nneg > num_candidates:
            raise ParameterError(
                f"rates ({self.r_t}, {self.r_b}) overlap on {num_candidates} candidates"
            )
        return npos, nneg


@dataclass(frozen=True)
class PseudoLabelMatrix:
    """Ternary (T, T') label grid: +1 positive, -1 negative, 0 ignore."""

    labels: np.ndarray

    def __post_init__(self):
        l = np.asarray(self.labels)
        if l.ndim != 2:
            raise StructuralError(f"expected a (T, T') matrix, got shape {l.shape}")
        if not ((l == POSITIVE) | (l == NEGATIVE) | (l == IGNORE)).all():
            raise StructuralError("labels must be in {+1, -1, 0}")
        object.__setattr__(self, "labels", l.astype(np.int8))

    @property
    def shape(self) -> tuple[int, int]:
        return tuple(self.labels.shape)


def teacher_frame_similarity(a: FrameEmbeddings, b: FrameEmbeddings) -> np.ndarray:
    """Frame-pair cosine matrix (T, T') between two clips' teacher features."""
    if a.dim != b.dim:
        raise StructuralError(f"teacher dims differ: {a.dim} vs {b.dim}")
    na = np.linalg.norm(a.data, axis=1, keepdims=True)
    nb = np.linalg.norm(b.data, axis=1, keepdims=True)
    if np.any(na <= 1e-12) or np.any(nb <= 1e-12):
        raise DegenerateInputError("zero-norm frame embedding")
    return (a.data / na) @ (b.data / nb).T


def generate_pseudo_labels(teacher_sim: np.ndarray, rates: LabelRates) -> PseudoLabelMatrix:
    """Rank-threshold labeling of a (T, T') teacher similarity matrix.

    Per row, the top ceil(r_t * T') columns are positive and the bottom
    floor(r_b * T') are negative. Ties follow the stable descending order,
    so for equal values the lower column index ranks higher (wins a positive
    slot, avoids a negative one).
    """
    s = np.asarray(teacher_sim, dtype=np.float64)
    if s.ndim != 2:
        raise StructuralError(f"expected a (T, T') matrix, got shape {s.shape}")
    t, tc = s.shape
    npos, nneg = rates.counts(tc)
    order = np.argsort(-s, axis=1, kind="stable")
    labels = np.zeros((t, tc), dtype=np.int8)
    rows = np.arange(t)[:, None]
    labels[rows, order[:, :npos]] = POSITIVE
    if nneg:
        labels[rows, order[:, tc - nneg :]] = NEGATIVE
    return PseudoLabelMatrix(labels)
