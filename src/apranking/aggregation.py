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
refiner and the temporal stage once per block of query rows. The engine
allocates one workspace per call and every stage writes into it through the
stages' optional ``out``/``work`` (and the refiner's ``padded``/``tap``)
arguments, running the floating-point operations it runs without them, in
the same order. The cosines have one layout, candidate patches contiguous,
in :func:`patch_similarity`, the engine's slab and the graph's gram; the
one top-K, :func:`topk_sum_values`, replays a selection network built once
per (extent, k), and the one :func:`patch_mean` averages query patches. The
training graph runs :func:`refine`, :func:`temporal_topk_chamfer` and,
outside k = 1, :func:`spatial_topk_chamfer` in nodes; at k = 1 its spatial
node averages with :func:`patch_mean` the maxima of its one selection.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, ParameterError, StructuralError, check_range

__all__ = [
    "PatchEmbeddings",
    "AggregationParams",
    "RefinerParams",
    "patch_similarity",
    "topk_count",
    "topk_scratch",
    "topk_sum_values",
    "spatial_topk_chamfer",
    "patch_mean",
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
        check_range("in [0, 1]", k_s=self.k_s, k_t=self.k_t)


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
    cos(a[x, i], b[y, j]), a view of the product: candidate patches contiguous."""
    if a.dim != b.dim:
        raise StructuralError(f"embedding dims differ: {a.dim} vs {b.dim}")
    ua = normalize_rows(a.data).reshape(a.frames * a.patches, a.dim)
    ub = normalize_rows(b.data).reshape(b.frames * b.patches, b.dim)
    sim = ua @ ub.T
    return sim.reshape(a.frames, a.patches, b.frames, b.patches).transpose(0, 1, 3, 2)


def topk_count(rate: float, extent: int) -> int:
    """Resolve a top-K rate to an integer count: round half up, floored at 1,
    capped at the extent."""
    check_range("an integer >= 1", extent=extent)
    check_range("in [0, 1]", rate=rate)
    return min(extent, max(1, math.floor(rate * extent + 0.5)))


# slot of the output in a selection network's steps
_OUT = -1


@functools.lru_cache(maxsize=None)
def _selection_network(extent: int, k: int):
    """(steps, scratch, top) of topk_sum_values on an axis of 2 to
    SELECT_MAX_EXTENT entries with k < extent: its k bubble passes as
    (ufunc, x, y, dest) steps over slots, where slots 0 to extent - 1 are
    the input columns, the next ``scratch`` slots are scratch arrays and
    _OUT is the output; ``top`` are the slots of the k largest values,
    descending. At k == 1 the chain of maxima runs in the output. Each
    column position gets a scratch array of its own, plus one spare that
    takes each maximum and then swaps places with the position it moved
    to. Depends on its arguments only; at most SELECT_MAX_EXTENT**2 small
    tuples are kept."""
    if k == 1:
        steps = [(np.maximum, 0, 1, _OUT)] + [(np.maximum, _OUT, j, _OUT) for j in range(2, extent)]
        return tuple(steps), 0, (_OUT,)
    cols = list(range(extent))  # slot holding each column position's value
    scratch = list(range(extent, 2 * extent + 1))  # per position, then the spare
    steps = []
    for p in range(k):
        for j in range(extent - 1 - p):
            a, b = cols[j], cols[j + 1]
            steps.append((np.maximum, a, b, scratch[-1]))
            if p < k - 1:  # the last pass's minima are never summed
                # in place: a is position j's own array or an input column
                steps.append((np.minimum, a, b, scratch[j]))
                cols[j] = scratch[j]
            scratch[j + 1], scratch[-1] = scratch[-1], scratch[j + 1]
            cols[j + 1] = scratch[j + 1]
    return tuple(steps), extent + 1, tuple(cols[: -k - 1 : -1])


def topk_scratch(extent: int, k: int) -> int:
    """How many scratch arrays, shaped like the sums, topk_sum_values uses on
    an axis of ``extent`` entries at this k."""
    if k == extent or extent > SELECT_MAX_EXTENT:
        return 0
    return _selection_network(extent, k)[1]


def topk_sum_values(values: np.ndarray, k: int, out=None, work=None) -> np.ndarray:
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

    ``out`` receives the sums and must not overlap ``values``. ``work`` is
    a sequence of at least :func:`topk_scratch` scratch arrays shaped like
    the sums, for the min/max passes. Both are allocated when not given,
    laid out as numpy lays out a ufunc's result on these columns; with both
    given the min/max path allocates nothing.
    """
    values = np.asarray(values, dtype=np.float64)
    extent = values.shape[-1]
    if not 1 <= k <= extent:
        raise StructuralError(f"k={k} out of range for axis of length {extent}")
    if k == extent:
        return values.sum(axis=-1, out=out)
    if extent > SELECT_MAX_EXTENT:
        if k == 1:
            return np.max(values, axis=-1, out=out)
        top = np.sort(values, axis=-1)[..., : -k - 1 : -1]  # k largest, descending
        return np.ascontiguousarray(top).sum(axis=-1, out=out)
    steps, scratch, top = _selection_network(extent, k)
    if out is None:
        out = np.empty_like(values[..., 0])
    if work is None:
        work = [np.empty_like(out) for _ in range(scratch)]
    slots = [values[..., j] for j in range(extent)] + list(work[:scratch]) + [out]
    for ufunc, x, y, dest in steps:
        ufunc(slots[x], slots[y], out=slots[dest])
    if k > 1:
        np.add(0.0, slots[top[0]], out=out)
        for slot in top[1:]:
            np.add(out, slots[slot], out=out)
    return out


def spatial_topk_chamfer(sim: np.ndarray, k_s: float, out=None, work=None) -> np.ndarray:
    """Aggregate a (..., T, R, R', T') patch-similarity tensor over the
    candidate patch axis (top-K per query patch) and average over query
    patches, producing the (..., T, T') frame-similarity matrices.

    ``out`` receives the frame matrices. ``work`` holds the stage's scratch
    arrays, allocated when not given: the C-ordered (..., T, R, T') top-K
    sums, a (..., T, T') accumulator, then the top-K's :func:`topk_scratch`
    arrays shaped like the sums. With ``out`` given, the query patches are
    added in the accumulator in the order numpy's sum takes them from such
    sums: by :func:`patch_mean`, or pairwise along their contiguous axis
    when T' == 1 and R >= 8, the order of the Chamfer and mean references."""
    sim = np.asarray(sim, dtype=np.float64)
    if sim.ndim < 4:
        raise StructuralError(f"expected a (..., T, R, R', T') tensor, got shape {sim.shape}")
    r, rc = sim.shape[-3], sim.shape[-2]
    k = topk_count(k_s, rc)
    moved = sim.swapaxes(-1, -2)  # (..., T, R, T', R')
    if out is None:
        summed = topk_sum_values(moved, k)  # (..., T, R, T')
        return summed.sum(axis=-2) / (r * k)
    if work is None:
        sums = moved.shape[:-1]
        work = [np.empty(sums), np.empty(out.shape)] + [np.empty(sums) for _ in range(topk_scratch(rc, k))]
    summed, acc = work[0], work[1]
    topk_sum_values(moved, k, out=summed, work=work[2:])
    if r >= 8 and summed.shape[-1] == 1:
        return np.divide(np.add.reduce(summed, axis=-2, out=acc), r * k, out=out)
    return patch_mean(summed, k, out=out, acc=acc)


def patch_mean(summed: np.ndarray, k: int, out=None, acc=None) -> np.ndarray:
    """The one mean over query patches of (..., R, T') top-K sums: added
    from 0.0, one patch after the other, as numpy's sum adds along a strided
    axis, into ``acc``, then divided by R*K into ``out`` (both C-ordered,
    ``acc`` allocated when not given and ``out`` defaulting to it)."""
    r = summed.shape[-2]
    if acc is None:
        acc = np.empty(summed.shape[:-2] + summed.shape[-1:])
    np.add(0.0, summed[..., 0, :], out=acc)
    for p in range(1, r):
        np.add(acc, summed[..., p, :], out=acc)
    return np.divide(acc, r * k, out=acc if out is None else out)


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


def temporal_topk_chamfer(frame_sim: np.ndarray, k_t: float, out=None, work=None) -> float | np.ndarray:
    """Video-level similarity: top-K of each query frame's row, averaged over
    frames and normalized by K. A (T, T') matrix gives a float; a
    (..., T, T') stack gives an array over the leading axes, written into
    ``out`` when given. ``work`` holds the (..., T) top-K sums, then the
    top-K's :func:`topk_scratch` arrays shaped like them."""
    m = np.asarray(frame_sim, dtype=np.float64)
    if m.ndim < 2:
        raise StructuralError(f"expected a (..., T, T') matrix, got shape {m.shape}")
    t, tc = m.shape[-2], m.shape[-1]
    k = topk_count(k_t, tc)
    if work is None:
        summed = topk_sum_values(m, k)
    else:
        summed = topk_sum_values(m, k, out=work[0], work=work[1:])
    if out is None:
        out = summed.sum(axis=-1) / (t * k)
        return float(out) if m.ndim == 2 else out
    np.add.reduce(summed, axis=-1, out=out)
    return np.divide(out, t * k, out=out)


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


def _conv3x3_windows(h: int, w: int, stride: int) -> dict:
    """Per kernel tap (a, b), the index of the strided window of an (h, w)
    matrix's zero-bordered (h + 2, w + 2) copy that the tap multiplies."""
    rows = [slice(a, a + (h - 1) // stride * stride + 1, stride) for a in range(3)]
    cols = [slice(b, b + (w - 1) // stride * stride + 1, stride) for b in range(3)]
    return {(a, b): (..., rows[a], cols[b]) for a in range(3) for b in range(3)}


def conv3x3_taps(m: np.ndarray, stride: int):
    """(padded, windows): ``m`` zero-padded by 1 on its last two axes, and
    its :func:`_conv3x3_windows`."""
    h, w = m.shape[-2], m.shape[-1]
    padded = np.zeros(m.shape[:-2] + (h + 2, w + 2), dtype=np.float64)
    padded[..., 1 : h + 1, 1 : w + 1] = m
    return padded, _conv3x3_windows(h, w, stride)


def conv3x3(
    m: np.ndarray, weights: np.ndarray, bias: float, stride: int, out=None, padded=None, tap=None
) -> np.ndarray:
    """Single-channel 3x3 convolution with zero padding 1 and the given
    stride over the last two axes of ``m``.

    ``padded``, when given, is a zero-bordered (..., h + 2, w + 2) buffer
    whose interior is ``m``; the taps then read their windows from it and
    no padded copy is made. ``out`` and ``tap`` are buffers of the output's
    shape, allocated when not given."""
    h, w = m.shape[-2], m.shape[-1]
    if padded is None:
        padded, windows = conv3x3_taps(m, stride)
    elif padded.shape != m.shape[:-2] + (h + 2, w + 2):
        raise StructuralError(f"padded buffer {padded.shape} does not border {m.shape}")
    else:
        windows = _conv3x3_windows(h, w, stride)
    if out is None:
        out = np.empty(padded[windows[0, 0]].shape, dtype=np.float64)
    if tap is None:
        tap = np.empty_like(out)
    out.fill(bias)
    for (a, b), win in windows.items():
        out += np.multiply(weights[a, b], padded[win], out=tap)
    return out


def refine(frame_sim: np.ndarray, r: RefinerParams, out=None, padded=None, tap=None) -> np.ndarray:
    """Apply the refiner to a frame-similarity matrix.

    identity: the input, unchanged. affine: stride-s average pooling, then
    scale * m + bias hard-clamped to [-1, 1]. conv: one 3x3 convolution with
    the stride folded in, then tanh. Outputs of all kinds stay in [-1, 1].
    ``out`` receives the affine and conv outputs; ``padded`` and ``tap`` are
    passed to :func:`conv3x3`.
    """
    m = np.asarray(frame_sim, dtype=np.float64)
    if r.kind == "identity":
        return m
    if r.kind == "affine":
        pooled = average_pool_ceil(m, r.downsample)
        if out is None:
            return np.clip(r.scale * pooled + r.bias, -1.0, 1.0)
        np.multiply(r.scale, pooled, out=out)
        np.add(out, r.bias, out=out)
        return np.clip(out, -1.0, 1.0, out=out)
    out = conv3x3(m, r.conv_weights, r.conv_bias, r.downsample, out=out, padded=padded, tap=tap)
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


def _tile_views(q: int, c: int, t: int, r: int, slab, spatial_bufs):
    """(gram, cosines, work): views of batch_similarity_matrix's workspace
    for a tile of q query clips against c candidate clips: the gram on the
    slab, the same cosines as (q, c, T, R, R', T'), which the spatial stage
    reads in place at every K, and the stage's work arrays."""
    gram = slab[: q * c * (t * r) ** 2].reshape(q, c, t * r, t * r)
    cosines = gram.reshape(q, c, t, r, t, r).swapaxes(-1, -2)
    sums, acc = (q, c, t, r, t), (q, c, t, t)
    shapes = [sums, acc] + [sums] * (len(spatial_bufs) - 2)
    work = [buf[: math.prod(shape)].reshape(shape) for buf, shape in zip(spatial_bufs, shapes)]
    return gram, cosines, work


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
    clip pair as leading axes, writing into the output's rows.

    Every stage writes into one workspace allocated here, for this call
    only: the query copy, the gram slab (read in place at every K, laid out
    as :func:`patch_similarity` lays it out), the spatial top-K's sums,
    accumulator and scratch, the frame block (zero-bordered for the conv
    refiner, whose taps read from it in place), the refiner's output and
    tap buffers and the temporal top-K's sums and scratch. A partial tile
    or block uses the start of each buffer; a tile shape's views are made
    once."""
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
    rows = min(n, max(1, SLAB_BYTES // (8 * n * t * t) // query_tile) * query_tile)

    # the workspace; a partial tile or block uses the start of each buffer
    query = np.empty((query_tile, t * r, d))
    slab = np.empty(query_tile * cand_tile * (t * r) ** 2)
    spatial_bufs = np.empty((2 + topk_scratch(r, topk_count(params.k_s, r)), query_tile * cand_tile * t * r * t))
    border = 1 if refiner.kind == "conv" else 0
    frames = np.zeros((rows, n, t + 2 * border, t + 2 * border))
    interior = frames[..., border : border + t, border : border + t]
    tr = len(pool_windows(t, refiner.downsample)[0])  # refined frames per side
    refine_bufs = {}
    if refiner.kind != "identity":
        refine_bufs["out"] = np.empty((rows, n, tr, tr))
    if border:
        refine_bufs.update(padded=frames, tap=np.empty((rows, n, tr, tr)))
    temporal_bufs = np.empty((1 + topk_scratch(tr, topk_count(params.k_t, tr)), rows * n * tr))
    cand_tiles = [units[c0 : c0 + cand_tile].transpose(0, 2, 1)[None] for c0 in range(0, n, cand_tile)]
    tiles = {}  # (query clips, candidate clips) -> _tile_views

    out = np.empty((n, n), dtype=np.float64)
    for b0 in range(0, n, rows):
        m = min(rows, n - b0)
        for q0 in range(0, m, query_tile):
            # a buffer of its own: numpy sends the product of a matrix with
            # its own transpose (the diagonal pairs) to syrk, not to the
            # per-pair gemm
            qv = query[: min(query_tile, m - q0)]
            np.copyto(qv, units[b0 + q0 : b0 + q0 + len(qv)])
            for c0, cands in zip(range(0, n, cand_tile), cand_tiles):
                q, c = len(qv), cands.shape[1]
                if (q, c) not in tiles:
                    tiles[q, c] = _tile_views(q, c, t, r, slab, spatial_bufs)
                gram, cosines, work = tiles[q, c]
                np.matmul(qv[:, None], cands, out=gram)
                spatial_topk_chamfer(cosines, params.k_s, out=interior[q0 : q0 + q, c0 : c0 + c], work=work)
        block = refine(interior[:m], refiner, **{key: buf[:m] for key, buf in refine_bufs.items()})
        temporal_work = [buf[: m * n * tr].reshape(m, n, tr) for buf in temporal_bufs]
        temporal_topk_chamfer(block, params.k_t, out=out[b0 : b0 + m], work=temporal_work)
    return out
