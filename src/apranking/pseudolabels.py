"""Frame-pair pseudo labels from a frozen teacher's frame similarities.

Per query frame, the highest-similarity candidate frames become positives
and the lowest become negatives; everything in between is ignored. Counts
are fixed by rank (ceil for positives, floor for negatives) rather than by
value thresholds, so batch shapes are stable and ties resolve
deterministically.

Both steps work on stacks of clip pairs, so training labels all of a
batch's new pairs at once: :func:`teacher_frame_similarities` gives the
teacher's frame-pair cosines and :func:`pseudo_label_indices` the column
indices of each row's positives and negatives. One pair is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor

import numpy as np

from .aggregation import normalize_rows
from .errors import DegenerateInputError, ParameterError, StructuralError, check_range

__all__ = [
    "FrameEmbeddings",
    "LabelRates",
    "teacher_frame_similarities",
    "pseudo_label_indices",
]


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
        check_range("in (0, 1)", r_t=self.r_t, r_b=self.r_b)

    def counts(self, num_candidates: int) -> tuple[int, int]:
        """(positives, negatives) per row: ceil(r_t * T'), floor(r_b * T')."""
        npos = ceil(self.r_t * num_candidates)
        nneg = floor(self.r_b * num_candidates)
        if npos + nneg > num_candidates:
            raise ParameterError(
                f"rates ({self.r_t}, {self.r_b}) overlap on {num_candidates} candidates"
            )
        return npos, nneg


def _unit_frames(clips) -> np.ndarray:
    """The (P, T, D') stack of the clips' frame features, each frame scaled
    to unit norm."""
    shapes = sorted({c.data.shape for c in clips})
    if len(shapes) != 1:
        raise StructuralError(f"teacher frame matrices differ in shape: {shapes}")
    return normalize_rows(np.stack([c.data for c in clips]))


def teacher_frame_similarities(queries, candidates) -> np.ndarray:
    """Frame-pair cosine matrices (P, T, T') of the clip pairs
    (queries[p], candidates[p]), from one stacked ``np.matmul``, which makes
    the same BLAS call per pair as the product of one pair. The queries
    share one (T, D') shape, the candidates one (T', D') shape."""
    if len(queries) != len(candidates) or not queries:
        raise StructuralError(f"expected equal nonzero pair counts, got {len(queries)} and {len(candidates)}")
    if queries[0].dim != candidates[0].dim:
        raise StructuralError(f"teacher dims differ: {queries[0].dim} vs {candidates[0].dim}")
    return np.matmul(_unit_frames(queries), _unit_frames(candidates).transpose(0, 2, 1))


def pseudo_label_indices(teacher_stack: np.ndarray, rates: LabelRates) -> tuple[np.ndarray, np.ndarray]:
    """Rank-threshold labeling of a (..., T, T') stack of teacher similarity
    matrices, as column indices: (positives (..., T, npos), negatives (...,
    T, nneg)), each row's indices ascending.

    Per row, the top ceil(r_t * T') columns are positive and the bottom
    floor(r_b * T') are negative, from one stable descending argsort of the
    whole stack. Ties follow that order, so for equal values the lower
    column index ranks higher (wins a positive slot, avoids a negative one).
    """
    s = np.asarray(teacher_stack, dtype=np.float64)
    if s.ndim < 2:
        raise StructuralError(f"expected a (..., T, T') stack, got shape {s.shape}")
    tc = s.shape[-1]
    npos, nneg = rates.counts(tc)
    order = np.argsort(-s, axis=-1, kind="stable")
    return np.sort(order[..., :npos], axis=-1), np.sort(order[..., tc - nneg :], axis=-1)
