"""Video-level similarity from patch embeddings.

Pipeline: pairwise patch cosines -> spatial top-K averaging per query patch
-> an optional learnable refiner on the frame-similarity matrix -> temporal
top-K averaging per query frame. Both top-K stages normalize by 1/K so the
output scale is independent of K and bounded like a cosine; K=1 degenerates
to max-based (Chamfer) matching and K=n to plain average pooling, bit for
bit.

:func:`video_similarity` runs the pipeline on one clip pair and is the
oracle; :func:`batch_similarity_matrix` runs the same stages on tiles of
clip pairs at once and reproduces the oracle bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, ParameterError, StructuralError

__all__ = [
    "PatchEmbeddings",
    "AggregationParams",
    "RefinerParams",
    "patch_similarity",
    "topk_count",
    "topk_sum_last",
    "topk_sum_values",
    "spatial_topk_chamfer",
    "chamfer_frame_similarity",
    "mean_frame_similarity",
    "temporal_topk_chamfer",
    "temporal_mean",
    "refine",
    "video_similarity",
    "batch_similarity_matrix",
    "pool_windows",
    "average_pool_ceil",
    "conv3x3_taps",
    "conv3x3",
    "normalize_rows",
]

# Byte cap of the gram slab of one tile in batch_similarity_matrix; bounds
# the engine's working memory independently of the batch size.
SLAB_BYTES = 1 << 18

# Longest top-K axis that topk_sum_values selects from with elementwise
# min/max passes instead of a sort; numpy reduces fewer than 8 entries in
# sequence, which the selected sum relies on.
SELECT_MAX_EXTENT = 8


@dataclass(frozen=True)
class PatchEmbeddings:
    """Per-clip feature tensor of shape (frames, patches, dim)."""

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.float64)
        if d.ndim != 3 or min(d.shape) < 1:
            raise StructuralError(f"expected a (T, R, D) tensor, got shape {d.shape}")
        if not np.all(np.isfinite(d)):
            raise DegenerateInputError("patch embeddings contain non-finite values")
        object.__setattr__(self, "data", d)

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def patches(self) -> int:
        return self.data.shape[1]

    @property
    def dim(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class AggregationParams:
    """Spatial and temporal top-K rates. A rate of 0 is accepted as an alias
    for top-1 (Chamfer); 1 selects everything (average pooling)."""

    k_s: float = 0.10
    k_t: float = 0.03

    def __post_init__(self):
        for name, v in (("k_s", self.k_s), ("k_t", self.k_t)):
            if not (np.isfinite(v) and 0.0 <= v <= 1.0):
                raise ParameterError(f"{name} must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class RefinerParams:
    """Frame-similarity refiner: identity, clamped affine, or a small conv.

    ``downsample`` average-pools the matrix with stride s (ceil semantics)
    before the map. The conv kind applies one 3x3 kernel with the stride
    folded in, followed by tanh.
    """

    kind: str = "identity"
    scale: float = 1.0
    bias: float = 0.0
    downsample: int = 1
    conv_weights: np.ndarray | None = field(default=None)
    conv_bias: float = 0.0

    def __post_init__(self):
        if self.kind not in ("identity", "affine", "conv"):
            raise ParameterError(f"unknown refiner kind {self.kind!r}")
        if self.downsample < 1:
            raise ParameterError("downsample stride must be >= 1")
        if self.kind == "identity" and (
            self.scale != 1.0 or self.bias != 0.0 or self.downsample != 1
        ):
            raise ParameterError("identity refiner requires scale=1, bias=0, stride=1")
        if self.kind == "conv":
            w = np.asarray(
                self.conv_weights if self.conv_weights is not None else np.zeros((3, 3)),
                dtype=np.float64,
            )
            if w.shape != (3, 3):
                raise ParameterError(f"conv refiner needs a (3, 3) kernel, got {w.shape}")
            object.__setattr__(self, "conv_weights", w)
        if not np.all(np.isfinite([self.scale, self.bias, self.conv_bias])):
            raise ParameterError("refiner parameters must be finite")


def normalize_rows(x: np.ndarray, min_norm: float = 1e-12) -> np.ndarray:
    """L2-normalize the last axis; zero-norm rows are a degenerate input."""
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norms <= min_norm):
        raise DegenerateInputError("zero-norm feature vector cannot be normalized")
    return x / norms


def patch_similarity(a: PatchEmbeddings, b: PatchEmbeddings) -> np.ndarray:
    """All patch-pair cosines, shaped (T, R, R', T'): entry (x, i, j, y) is
    cos(a[x, i], b[y, j])."""
    if a.dim != b.dim:
        raise StructuralError(f"embedding dims differ: {a.dim} vs {b.dim}")
    ua = normalize_rows(a.data).reshape(a.frames * a.patches, a.dim)
    ub = normalize_rows(b.data).reshape(b.frames * b.patches, b.dim)
    sim = ua @ ub.T
    sim = sim.reshape(a.frames, a.patches, b.frames, b.patches)
    return np.ascontiguousarray(sim.transpose(0, 1, 3, 2))


def topk_count(rate: float, extent: int) -> int:
    """Resolve a top-K rate to an integer count: round half up, floored at 1,
    capped at the extent."""
    if extent < 1:
        raise ParameterError(f"extent must be positive, got {extent}")
    if not (np.isfinite(rate) and 0.0 <= rate <= 1.0):
        raise ParameterError(f"rate must lie in [0, 1], got {rate}")
    return min(extent, max(1, int(np.floor(rate * extent + 0.5))))


def topk_sum_last(values: np.ndarray, k: int):
    """Sum of the k largest entries along the last axis.

    Returns (sums, indices) where ``indices`` (shape[..., k]) marks which
    entries were selected; ties break toward the lower index via a stable
    descending sort so gradient routing is deterministic. k == extent skips
    the sort entirely and k == 1 reduces to a max, which keeps the
    degenerate cases bitwise identical to plain mean / Chamfer pooling.
    """
    values = np.asarray(values, dtype=np.float64)
    extent = values.shape[-1]
    if not 1 <= k <= extent:
        raise StructuralError(f"k={k} out of range for axis of length {extent}")
    if k == extent:
        idx = np.broadcast_to(np.arange(extent), values.shape).copy()
        return values.sum(axis=-1), idx
    if k == 1:
        idx = np.argmax(values, axis=-1)[..., None]
        return np.max(values, axis=-1), idx
    order = np.argsort(-values, axis=-1, kind="stable")[..., :k]
    top = np.take_along_axis(values, order, axis=-1)
    return top.sum(axis=-1), order


def topk_sum_values(values: np.ndarray, k: int) -> np.ndarray:
    """The sums of :func:`topk_sum_last` without the indices, bitwise equal.

    The k largest entries are summed in descending order, as the stable
    argsort orders them; tied entries are equal values, so which of them is
    selected does not change a bit. k == extent and k == 1 take the same
    sum and max paths.

    In between, axes of up to SELECT_MAX_EXTENT entries are not sorted row
    by row: k bubble passes of elementwise min/max over the column slices
    carry the k largest values to the last k columns, which are then added
    from 0.0 in descending order, the order in which numpy reduces a
    contiguous row of fewer than 8 entries. Longer axes are sorted.
    """
    values = np.asarray(values, dtype=np.float64)
    extent = values.shape[-1]
    if not 1 <= k <= extent:
        raise StructuralError(f"k={k} out of range for axis of length {extent}")
    if k == extent:
        return values.sum(axis=-1)
    if k == 1:
        return np.max(values, axis=-1)
    if extent <= SELECT_MAX_EXTENT:
        cols = [values[..., j] for j in range(extent)]
        for p in range(k):
            for j in range(extent - 1 - p):
                lo, hi = np.minimum(cols[j], cols[j + 1]), np.maximum(cols[j], cols[j + 1])
                cols[j], cols[j + 1] = lo, hi
        total = 0.0
        for col in cols[: -k - 1 : -1]:
            total = total + col
        return total
    top = np.sort(values, axis=-1)[..., : -k - 1 : -1]  # k largest, descending
    return np.ascontiguousarray(top).sum(axis=-1)


def spatial_topk_chamfer(sim: np.ndarray, k_s: float) -> np.ndarray:
    """Aggregate a (..., T, R, R', T') patch-similarity tensor over the
    candidate patch axis (top-K per query patch) and average over query
    patches, producing the (..., T, T') frame-similarity matrices."""
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim < 4:
        raise StructuralError(f"expected a (..., T, R, R', T') tensor, got shape {sim.shape}")
    r, rc = sim.shape[-3], sim.shape[-2]
    k = topk_count(k_s, rc)
    moved = np.moveaxis(sim, -2, -1)  # (..., T, R, T', R')
    summed = topk_sum_values(moved, k)  # (..., T, R, T')
    return summed.sum(axis=-2) / (r * k)


def chamfer_frame_similarity(sim: np.ndarray) -> np.ndarray:
    """Reference max-based aggregation: mean over query patches of the best
    candidate-patch cosine."""
    sim = np.asarray(sim, dtype=np.float64)
    r = sim.shape[1]
    return np.max(np.moveaxis(sim, 2, -1), axis=-1).sum(axis=1) / r


def mean_frame_similarity(sim: np.ndarray) -> np.ndarray:
    """Reference average pooling over both patch axes."""
    sim = np.asarray(sim, dtype=np.float64)
    r, rc = sim.shape[1], sim.shape[2]
    return np.moveaxis(sim, 2, -1).sum(axis=-1).sum(axis=1) / (r * rc)


def temporal_topk_chamfer(frame_sim: np.ndarray, k_t: float) -> float | np.ndarray:
    """Video-level similarity: top-K of each query frame's row, averaged over
    frames and normalized by K. A (T, T') matrix gives a float; a
    (..., T, T') stack gives an array over the leading axes."""
    m = np.asarray(frame_sim, dtype=np.float64)
    if m.ndim < 2:
        raise StructuralError(f"expected a (..., T, T') matrix, got shape {m.shape}")
    t, tc = m.shape[-2], m.shape[-1]
    k = topk_count(k_t, tc)
    out = topk_sum_values(m, k).sum(axis=-1) / (t * k)
    return float(out) if m.ndim == 2 else out


def temporal_mean(frame_sim: np.ndarray) -> float:
    """Reference average pooling: row sums then the grand mean, matching the
    reduction order of the top-K path at K = T'."""
    m = np.asarray(frame_sim, dtype=np.float64)
    t, tc = m.shape
    return float(m.sum(axis=-1).sum() / (t * tc))


def pool_windows(extent: int, stride: int):
    """Start indices and sizes of the stride-s pooling windows along an axis
    of the given extent, with ceil semantics: the last window may be
    partial."""
    starts = np.arange(0, extent, stride)
    return starts, np.diff(np.append(starts, extent))


def average_pool_ceil(m: np.ndarray, stride: int) -> np.ndarray:
    """Stride-s average pooling over the last two axes with ceil semantics;
    partial edge windows average over their actual size."""
    m = np.asarray(m, dtype=np.float64)
    if stride == 1:
        return m
    row_starts, row_sizes = pool_windows(m.shape[-2], stride)
    col_starts, col_sizes = pool_windows(m.shape[-1], stride)
    sums = np.add.reduceat(np.add.reduceat(m, row_starts, axis=-2), col_starts, axis=-1)
    return sums / np.outer(row_sizes, col_sizes)


def conv3x3_taps(m: np.ndarray, stride: int):
    """(padded, windows): ``m`` zero-padded by 1 on its last two axes, and
    per kernel tap (a, b) the index of the strided window of ``padded``
    that the tap multiplies."""
    h, w = m.shape[-2], m.shape[-1]
    padded = np.zeros(m.shape[:-2] + (h + 2, w + 2), dtype=np.float64)
    padded[..., 1 : h + 1, 1 : w + 1] = m
    rows = [slice(a, a + (h - 1) // stride * stride + 1, stride) for a in range(3)]
    cols = [slice(b, b + (w - 1) // stride * stride + 1, stride) for b in range(3)]
    return padded, {(a, b): (..., rows[a], cols[b]) for a in range(3) for b in range(3)}


def conv3x3(m: np.ndarray, weights: np.ndarray, bias: float, stride: int) -> np.ndarray:
    """Single-channel 3x3 convolution with zero padding 1 and the given
    stride over the last two axes of ``m``."""
    padded, windows = conv3x3_taps(m, stride)
    out = np.full(padded[windows[0, 0]].shape, bias, dtype=np.float64)
    for (a, b), win in windows.items():
        out += weights[a, b] * padded[win]
    return out


def refine(frame_sim: np.ndarray, r: RefinerParams) -> np.ndarray:
    """Apply the refiner to a frame-similarity matrix.

    identity: the input, unchanged. affine: stride-s average pooling, then
    scale * m + bias hard-clamped to [-1, 1]. conv: one 3x3 convolution with
    the stride folded in, then tanh. Outputs of all kinds stay in [-1, 1].
    """
    m = np.asarray(frame_sim, dtype=np.float64)
    if r.kind == "identity":
        return m
    if r.kind == "affine":
        pooled = average_pool_ceil(m, r.downsample)
        return np.clip(r.scale * pooled + r.bias, -1.0, 1.0)
    return np.tanh(conv3x3(m, r.conv_weights, r.conv_bias, r.downsample))


def video_similarity(
    a: PatchEmbeddings,
    b: PatchEmbeddings,
    params: AggregationParams,
    refiner: RefinerParams = RefinerParams(),
) -> float:
    """Full bottom-up similarity of a clip pair."""
    sim = patch_similarity(a, b)
    frame = spatial_topk_chamfer(sim, params.k_s)
    refined = refine(frame, refiner)
    return temporal_topk_chamfer(refined, params.k_t)


def batch_similarity_matrix(
    batch,
    params: AggregationParams,
    refiner: RefinerParams = RefinerParams(),
) -> np.ndarray:
    """All pairwise video similarities of a clip batch; entry (i, j) is
    bitwise ``video_similarity(batch[i], batch[j], params, refiner)``. Not
    symmetric in general: the query side drives the top-K selections.

    The clips must share one (T, R, D) shape. They are normalized and
    stacked once; the (n, n) matrix is then filled tile by tile, a block of
    query clips against a block of candidate clips, with a gram slab of at
    most SLAB_BYTES per tile (or one clip pair, if that is larger). The slab
    is one stacked matmul that makes the same BLAS call per clip pair as
    :func:`patch_similarity`: a single gemm over the whole tile rounds some
    cosines differently on some BLAS kernels. The per-pair stages then run
    on the slab with the clip pair as leading axes.
    """
    if len(batch) == 0:
        raise StructuralError("batch must be nonempty")
    shapes = {clip.data.shape for clip in batch}
    if len(shapes) != 1:
        raise StructuralError(f"batch clips must share one (T, R, D) shape, got {sorted(shapes)}")
    n = len(batch)
    t, r, d = batch[0].data.shape
    units = np.stack([normalize_rows(clip.data) for clip in batch]).reshape(n, t * r, d)
    pairs = max(1, SLAB_BYTES // (8 * (t * r) ** 2))
    cand_tile = min(n, pairs)
    query_tile = min(n, max(1, pairs // cand_tile))
    out = np.empty((n, n), dtype=np.float64)
    for q0 in range(0, n, query_tile):
        # a buffer of its own: numpy sends the product of a matrix with its
        # own transpose (the diagonal pairs) to syrk, not to the per-pair gemm
        query = units[q0 : q0 + query_tile].copy()
        for c0 in range(0, n, cand_tile):
            out[q0 : q0 + query_tile, c0 : c0 + cand_tile] = _tile_similarity(
                query, units[c0 : c0 + cand_tile], t, r, params, refiner
            )
    return out


def _tile_similarity(query, cand, t: int, r: int, params, refiner) -> np.ndarray:
    """(q, c) video similarities of stacked unit clips (q, T*R, D) against
    (c, T*R, D)."""
    q, c = query.shape[0], cand.shape[0]
    gram = np.matmul(query[:, None], cand.transpose(0, 2, 1)[None])  # (q, c, T*R, T'*R')
    sim = gram.reshape(q, c, t, r, t, r).swapaxes(-1, -2)  # (q, c, T, R, R', T') view
    if topk_count(params.k_s, r) == r:
        # the plain sum over R' adds in memory order: lay each pair out as
        # patch_similarity does (the top-K and max paths do not depend on it)
        sim = np.ascontiguousarray(sim)
    frame = spatial_topk_chamfer(sim, params.k_s)
    return temporal_topk_chamfer(refine(frame, refiner), params.k_t)
