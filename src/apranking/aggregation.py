"""Video-level similarity from patch embeddings.

Pipeline: pairwise patch cosines -> spatial top-K averaging per query patch
-> an optional learnable refiner on the frame-similarity matrix -> temporal
top-K averaging per query frame. Both top-K stages normalize by 1/K so the
output scale is independent of K and bounded like a cosine; K=1 degenerates
to max-based (Chamfer) matching and K=n to plain average pooling, bit for
bit.

:func:`video_similarity` runs the pipeline on one clip pair and is the
oracle; :func:`batch_similarity_matrix` reproduces it bitwise on a whole
batch, running the gram and the spatial stage per tile of clip pairs and the
refiner and the temporal stage once per block of query rows. Both top-K
stages sum through the one top-K, :func:`topk_sum_values`. The training
graph runs :func:`refine` and :func:`temporal_topk_chamfer` as nodes of
their own; its fused spatial node divides by R*K, as
:func:`spatial_topk_chamfer` does, and outside k = 1 sums through
:func:`topk_sum_values` too.
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

# Byte cap of the gram slab of one tile and of the frame-matrix buffer of one
# block of query rows in batch_similarity_matrix; bounds the engine's working
# memory independently of the batch size.
SLAB_BYTES = 1 << 18

# Longest top-K axis that topk_sum_values selects from with elementwise
# min/max passes instead of np.max or a sort; numpy reduces fewer than 8
# entries in sequence, which the selected sum relies on.
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


def topk_sum_values(values: np.ndarray, k: int) -> np.ndarray:
    """Sum of the k largest entries along the last axis: the one top-K, run
    by the batch engine and by the training graph's top-K stages.

    Entries are summed in descending order, as a stable descending argsort
    orders them (which of two tied entries is picked changes no bit); k ==
    extent is the plain sum and k == 1 the max, bitwise equal to mean and
    Chamfer pooling. Axes of up to SELECT_MAX_EXTENT entries are reduced
    over their column views: k bubble passes of elementwise min/max carry
    the k largest values to the last k columns (at k == 1 a chain of maxima,
    exact like ``np.max`` to the sign of zero and several times faster),
    which are added from 0.0 in descending order, the order in which numpy
    reduces a contiguous row of fewer than 8 entries. Longer axes use
    ``np.max`` and a sort.
    """
    values = np.asarray(values, dtype=np.float64)
    extent = values.shape[-1]
    if not 1 <= k <= extent:
        raise StructuralError(f"k={k} out of range for axis of length {extent}")
    if k == extent:
        return values.sum(axis=-1)
    if extent > SELECT_MAX_EXTENT:
        if k == 1:
            return np.max(values, axis=-1)
        top = np.sort(values, axis=-1)[..., : -k - 1 : -1]  # k largest, descending
        return np.ascontiguousarray(top).sum(axis=-1)
    cols = [values[..., j] for j in range(extent)]
    for p in range(k):
        for j in range(extent - 1 - p):
            hi = np.maximum(cols[j], cols[j + 1])
            if p < k - 1:  # the last pass's minima are never summed
                cols[j] = np.minimum(cols[j], cols[j + 1])
            cols[j + 1] = hi
    if k == 1:
        return cols[-1]
    total = 0.0
    for col in cols[: -k - 1 : -1]:
        total = total + col
    return total


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
    tap = np.empty_like(out)
    for (a, b), win in windows.items():
        out += np.multiply(weights[a, b], padded[win], out=tap)
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
    out = conv3x3(m, r.conv_weights, r.conv_bias, r.downsample)
    return np.tanh(out, out=out)


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

    The clips must share one (T, R, D) shape. They are stacked and
    normalized once; the (n, n) matrix is then filled a block of query rows
    at a time, in two stages. Per tile, a few query clips against a few
    candidate clips with a gram slab of at most SLAB_BYTES (or one clip
    pair, if that is larger), the spatial stage writes the tile's (T, T')
    frame matrices into the block's (rows, n, T, T') buffer. The slab is one
    stacked matmul that makes the same BLAS call per clip pair as
    :func:`patch_similarity`: a single gemm over the whole tile rounds some
    cosines differently on some BLAS kernels. Per block of whole query tiles,
    whose frame buffer holds at most SLAB_BYTES (or one query tile, if that
    is larger), the refiner and the temporal stage then run once with the
    clip pair as leading axes.
    """
    if len(batch) == 0:
        raise StructuralError("batch must be nonempty")
    shapes = {clip.data.shape for clip in batch}
    if len(shapes) != 1:
        raise StructuralError(f"batch clips must share one (T, R, D) shape, got {sorted(shapes)}")
    n = len(batch)
    t, r, d = batch[0].data.shape
    units = normalize_rows(np.stack([clip.data for clip in batch])).reshape(n, t * r, d)
    pairs = max(1, SLAB_BYTES // (8 * (t * r) ** 2))
    cand_tile = min(n, pairs)
    query_tile = min(n, max(1, pairs // cand_tile))
    rows = max(1, SLAB_BYTES // (8 * n * t * t) // query_tile) * query_tile
    frames = np.empty((min(n, rows), n, t, t), dtype=np.float64)
    contiguous = topk_count(params.k_s, r) == r
    out = np.empty((n, n), dtype=np.float64)
    for b0 in range(0, n, rows):
        block = frames[: n - b0]
        for q0 in range(0, len(block), query_tile):
            # a buffer of its own: numpy sends the product of a matrix with
            # its own transpose (the diagonal pairs) to syrk, not to the
            # per-pair gemm
            query = units[b0 + q0 : b0 + q0 + query_tile].copy()
            for c0 in range(0, n, cand_tile):
                gram = np.matmul(query[:, None], units[c0 : c0 + cand_tile].transpose(0, 2, 1)[None])
                sim = gram.reshape(len(query), -1, t, r, t, r).swapaxes(-1, -2)  # (q, c, T, R, R', T')
                if contiguous:
                    # the plain sum over R' adds in memory order: lay each pair
                    # out as patch_similarity does (top-K and max do not care)
                    sim = np.ascontiguousarray(sim)
                block[q0 : q0 + query_tile, c0 : c0 + cand_tile] = spatial_topk_chamfer(sim, params.k_s)
        out[b0 : b0 + len(block)] = temporal_topk_chamfer(refine(block, refiner), params.k_t)
    return out
