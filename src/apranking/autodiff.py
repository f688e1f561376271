"""Minimal reverse-mode automatic differentiation over numpy arrays.

The op set is deliberately closed, and every op has a caller in the
package: a weighted sum of scalar nodes, a linear map, row normalization,
one node per stage of the video similarity (the fused spatial TopK-Chamfer:
cosine gram, top-K over candidate patches, mean over query patches; the
refiner; the temporal TopK-Chamfer), and an escape hatch for scalar nodes
with hand-derived gradients. The nodes run :mod:`aggregation` forward:
``normalize_rows``, ``refine``, ``temporal_topk_chamfer``, and
``spatial_topk_chamfer`` except at K = 1, where the spatial node averages
with the stage's ``patch_mean`` the maxima it selects along rows of the
symmetric gram. Both top-K nodes select once per forward with
:func:`_topk_order` (K slots, K + 1 with a guard), and backward scatters
the gradient at the selected entries; at K = extent it broadcasts. The
spatial node writes its gram into a row-padded buffer, whose stride is
never a multiple of 4 KiB: at 512 rows (the hard preset) numpy's mirror of
the syrk triangle otherwise lands every write of a column in one L1 cache
set, and the product takes three times as long. The adjoint reuses that
buffer.
Anything else fails loudly at graph-build time; there is no silent
fallback that could produce wrong gradients.

Backward closures are built eagerly when a node is created, and
``Var.backward()`` walks the graph in reverse topological order, so gradient
accumulation order is deterministic for a fixed graph.

A :class:`BreakpointGuard` can be threaded through kinked ops (top-K, the
affine refiner's clamp, piecewise maps); it records how far the forward
pass stayed from each non-differentiable point, which finite-difference
checks use to exclude ill-conditioned samples.
"""

from __future__ import annotations

import functools

import numpy as np

from . import aggregation
from .errors import StructuralError

__all__ = [
    "Var",
    "BreakpointGuard",
    "add_scaled",
    "linear",
    "normalize_rows",
    "spatial_topk_chamfer",
    "refine",
    "temporal_topk_chamfer",
    "scalar_node",
]


class BreakpointGuard:
    """Collects distances to the nearest kink seen during a forward pass."""

    def __init__(self):
        self.margins: list[float] = []
        self.saturated = None  # the last refiner output: its +-1 entries pass no gradient

    def record(self, distances):
        d = np.asarray(distances, dtype=np.float64)
        if d.size:
            self.margins.append(float(d.min()))

    def min_margin(self) -> float:
        return min(self.margins) if self.margins else np.inf


class Var:
    """A node in the computation graph: a float64 array plus its adjoint."""

    __slots__ = ("value", "grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self._parents = tuple(parents)
        self._backward = backward

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def zero_grad(self):
        self.grad = np.zeros_like(self.value)

    def backward(self):
        """Reverse-accumulate gradients from this scalar node."""
        if self.value.ndim != 0:
            raise StructuralError("backward() requires a scalar output node")
        order: list[Var] = []
        seen: set[int] = set()
        stack: list[tuple[Var, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


def add_scaled(terms) -> Var:
    """Weighted sum of scalar nodes: sum(c_i * v_i) for (c_i, v_i) pairs."""
    terms = list(terms)
    total = np.asarray(0.0)
    for c, v in terms:
        total = total + float(c) * v.value
    out = Var(total, parents=tuple(v for _, v in terms))

    def backward(g):
        for c, v in terms:
            v.grad += g * float(c)

    out._backward = backward
    return out


def linear(x, w: Var) -> Var:
    """x @ w.T for a constant input batch x (..., D_in) and parameter w
    (D_out, D_in)."""
    if isinstance(x, Var):
        raise StructuralError("linear expects a constant input batch")
    xv = np.asarray(x, dtype=np.float64)
    out = Var(xv @ w.value.T, parents=(w,))
    x2 = xv.reshape(-1, xv.shape[-1])

    def backward(g):
        w.grad += g.reshape(-1, g.shape[-1]).T @ x2

    out._backward = backward
    return out


def normalize_rows(v: Var) -> Var:
    """L2-normalize the last axis: forward is
    :func:`aggregation.normalize_rows`, which rejects zero-norm rows, and
    backward divides by the row norms, taken first."""
    norms = np.linalg.norm(v.value, axis=-1, keepdims=True)
    unit = aggregation.normalize_rows(v.value)
    out = Var(unit, parents=(v,))

    def backward(g):
        v.grad += (g - unit * np.sum(g * unit, axis=-1, keepdims=True)) / norms

    out._backward = backward
    return out


def _topk_order(values: np.ndarray, slots: int, top: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The one top-K selection: (positions, top). ``positions[..., s]`` is
    slot s of a stable descending argsort of the last axis (ties to the
    lower index), in the smallest integer type. Each slot is one pass over
    the column views: the row maximum, then a count of the leading columns
    not holding it; later passes read a copy of the columns with earlier
    slots' entries at -inf (entries are finite). ``top``, slot 0's maxima,
    may be given with any sign of zero; else it is the k = 1 chain of
    :func:`aggregation.topk_sum_values`."""
    if top is None:
        top = aggregation.topk_sum_values(values, 1)
    positions = np.empty((slots,) + top.shape, np.min_scalar_type(values.shape[-1] - 1))
    columns = np.moveaxis(values, -1, 0)
    if slots > 1:
        columns = columns.copy()
    maxima = top
    for s, first in enumerate(positions):
        if s:
            np.put_along_axis(columns, positions[s - 1][None], -np.inf, axis=0)
            maxima = aggregation.topk_sum_values(np.moveaxis(columns, 0, -1), 1)
        below = columns[0] != maxima
        first[...] = below
        for column in columns[1:-1]:
            below &= column != maxima
            first += below
    return np.moveaxis(positions, 0, -1), top


def _gram_topk_order(cosines: np.ndarray, frames: int, r: int, slots: int):
    """:func:`_topk_order` along rows of the exactly symmetric cosine buffer,
    as (rows, positions, top); ``top`` keeps the engine's sign of zero (from
    R = 9 its ``np.max`` along contiguous candidate patches)."""
    rows = cosines.reshape(frames, r, -1).transpose(0, 2, 1)  # (candidate frame, query patch, q)
    top = None
    if r > aggregation.SELECT_MAX_EXTENT:
        top = np.ascontiguousarray(np.max(cosines.reshape(-1, frames, r), axis=-1).T)
    return (rows,) + _topk_order(rows, slots, top)


def _padded_stride(size: int) -> int:
    """The row stride, in doubles, of the spatial node's (size, size) cosine
    buffer: size rounded up to whole 64-byte lines, plus one line if that
    count is even. Row starts are then an odd number of lines apart, never
    a multiple of 4 KiB, so numpy's mirror of syrk's triangle, which writes
    down a column, does not land every write in one L1 cache set."""
    lines = -(-size // 8)
    return 8 * (lines + 1 - lines % 2)


def _padded_gram(uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(buf, cosines): ``uv @ uv.T`` written by numpy's syrk and mirror into
    the (size, size) view ``cosines`` of the (size, ld) buffer ``buf``, with
    bits equal to the contiguous product."""
    size = uv.shape[0]
    buf = np.empty((size, _padded_stride(size)))
    return buf, np.matmul(uv, uv.T, out=buf[:, :size])


def _topk_margins(values: np.ndarray, order: np.ndarray, k: int) -> np.ndarray:
    """k-th largest minus (k+1)-th largest entry per row, read at their
    positions in ``order``, so a zero margin keeps the sign the selected
    entries give it (entries are finite)."""
    pair = np.take_along_axis(values, order[..., k - 1 : k + 1], axis=-1)
    return pair[..., 0] - pair[..., 1]


def spatial_topk_chamfer(u: Var, n: int, t: int, r: int, k_s: float, guard: BreakpointGuard | None = None) -> Var:
    """The spatial TopK-Chamfer stage of n clips of T frames and R patches:
    from the (n*T*R, D) unit patch rows ``u``, the (n, n, T, T) frame
    similarity (query clip, candidate clip, query frame, candidate frame)

        frame[a, b, i, j] = sum_p topk_q <u[a, i, p], u[b, j, q]> / (R K)

    with K = :func:`aggregation.topk_count` of the rate ``k_s`` over the R
    candidate patches. The cosines are one ``u @ u.T`` (syrk; a gemm of a
    transposed copy rounds differently), written by :func:`_padded_gram`
    into the (size, size) view of a buffer whose rows are padded so that
    numpy's mirror of the triangle does not 4 KiB-alias; same bits, a third
    of the cost at 512 rows. Every reader takes that view. Backward builds
    the symmetric adjoint S = G + G.T of the product in the same buffer and
    leaves through one ``S @ u``.

    For K < R, :func:`_gram_topk_order` selects along rows of the cosine
    buffer. At K = 1 (R > 1) the forward averages the selection's maxima
    with :func:`aggregation.patch_mean`, which writes the frames clip pair
    first; else it runs the engine's stage,
    :func:`aggregation.spatial_topk_chamfer`, on the cosines as (a, b, T, R,
    R', T'), candidate patches contiguous as in the engine's slab. Backward
    scatters the upstream gradient at each selected position and at the
    transposed one, into the dead cosine buffer; at K = R it broadcasts the
    frame pairs' sums gs[f, f'] + gs[f', f] there, the entries of G + G.T;
    it reads the upstream gradient through a ``moveaxis`` view. A guard
    records each row's top-K margin, as the temporal stage does."""
    uv = u.value
    size = n * t * r
    if uv.ndim != 2 or uv.shape[0] != size:
        raise StructuralError(f"spatial_topk_chamfer expects ({size}, D) rows, got shape {uv.shape}")
    k = aggregation.topk_count(k_s, r)
    buf, cosines = _padded_gram(uv)
    selected = None
    if k < r:
        rows, order, top = _gram_topk_order(cosines, n * t, r, k + (guard is not None))
        if guard is not None:
            guard.record(_topk_margins(rows, order, k))
        selected = order[..., :k]
    if k == 1 and r > 1:  # the maxima as (a, b, T, R, T')
        value = aggregation.patch_mean(top.reshape(n, t, n, t, r).transpose(2, 0, 3, 4, 1), k)
    else:  # K > 1, or K = R = 1
        sim = cosines.reshape(n, t, r, n, t, r).transpose(0, 3, 1, 2, 5, 4)
        value = np.ascontiguousarray(aggregation.spatial_topk_chamfer(sim, k_s))
    out = Var(value, parents=(u,))

    def backward(g):
        gs = np.moveaxis(g, 2, 1) / (r * k)  # (n, T, n, T)
        gs += 0.0  # -0.0 -> +0.0, as a sum into a zero gradient gives
        if selected is None:  # S[x, y] = gs[frame x, frame y] + gs[frame y, frame x]
            frames = gs.reshape(n * t, n * t)
            np.copyto(cosines.reshape(n, t, r, n, t, r), (frames + frames.T).reshape(n, t, 1, n, t, 1))
        else:
            _scatter_plan(n, t, r, k).adjoint(buf, selected, gs)
        u.grad += cosines @ uv

    out._backward = backward
    return out


class _ScatterPlan:
    """Flat positions and scratch of the adjoint scatter for one (n, T, R,
    K), in the spatial node's padded (size, ld) cosine buffer: entry (x, y)
    is at x * ld + y, ld = :func:`_padded_stride` of size. Kept across
    calls, because allocating these ~512 KB arrays (at K = 1) on every
    backward costs about a thousand minor page faults per training step.
    The scratch is written only inside one backward call, so two threads
    must not run backward on graphs of the same shape at once."""

    def __init__(self, n: int, t: int, r: int, k: int):
        size = n * t * r
        self.ld = _padded_stride(size)
        patch = np.arange(size)
        frame = np.arange(0, size, r).reshape(n, t)  # first patch of each frame
        # (query patch x, candidate frame f, slot) -> x * ld + first patch
        # of f, so that each row of the adjoint is written in one sweep
        self.rows = patch.reshape(n, t, r, 1, 1, 1) * self.ld + frame[:, :, None]
        # the transposed positions, laid out as the selection (f, x, slot),
        # so that each frame's R rows of the adjoint are written in one sweep
        self.cols = frame.reshape(n, t, 1, 1, 1, 1) * self.ld + patch.reshape(n, t, r, 1)
        # one buffer for the positions, then for the transposed positions;
        # one scratch for the row half's values, then for the transposed entries
        positions = np.empty(size * n * t * k, np.intp)
        self.index = positions.reshape(self.rows.shape[:-1] + (k,))
        self.index_t = positions.reshape(self.cols.shape[:-1] + (k,))
        self.taken = np.empty(self.index_t.shape)
        self.values = self.taken.reshape(self.index.shape)

    def adjoint(self, buf: np.ndarray, selected: np.ndarray, gs: np.ndarray):
        """S = G + G.T in the padded ``buf``, where row x of G holds gs at
        the ``selected[f, x]`` candidate patches of each candidate frame f
        and +0.0 elsewhere."""
        buf.fill(0.0)
        flat = buf.reshape(-1)
        selected = selected.reshape(self.index_t.shape)
        np.add(self.rows, selected.transpose(2, 3, 4, 0, 1, 5), out=self.index)
        np.copyto(self.values, gs[:, :, None, :, :, None])
        flat[self.index] = self.values
        np.multiply(selected, np.intp(self.ld), out=self.index_t)
        self.index_t += self.cols
        np.take(flat, self.index_t, out=self.taken, mode="clip")
        self.taken += gs.transpose(2, 3, 0, 1)[..., None, None]
        flat[self.index_t] = self.taken


@functools.lru_cache(maxsize=8)
def _scatter_plan(n: int, t: int, r: int, k: int) -> _ScatterPlan:
    return _ScatterPlan(n, t, r, k)


def refine(v: Var, r: aggregation.RefinerParams, params, guard: BreakpointGuard | None = None) -> Var:
    """The refiner as one node: forward is :func:`aggregation.refine` of
    ``v`` under ``r``, and ``params`` are the Vars ``r`` was read from,
    (scale, bias) for the affine kind and (kernel, bias) for the conv kind.
    The identity kind returns ``v`` itself.

    Backward is the closed-form gradient: for the affine kind, the clamp
    gate (zero outside [-1, 1]), the scale, and the pooling windows' mean;
    for the conv kind, tanh' and each kernel tap's strided window. Backward
    recomputes the pooled map rather than holding it. A guard records each
    pre-clamp value's distance to +-1 and keeps the output as its ``saturated``."""
    if r.kind == "identity":
        return v
    x = v.value
    weight, bias = params
    out = Var(aggregation.refine(x, r), parents=(v, weight, bias))
    if guard is not None:
        guard.saturated = out.value
    if r.kind == "affine":
        if guard is not None:
            pre = r.scale * aggregation.average_pool_ceil(x, r.downsample) + r.bias
            guard.record(np.minimum(np.abs(pre + 1.0), np.abs(pre - 1.0)))

        def backward(g):
            pooled = aggregation.average_pool_ceil(x, r.downsample)
            # open where the clamp left the value; each "+ 0.0" turns -0.0
            # into +0.0, as a sum into a zero gradient gives
            gate = g * (np.abs(out.value) < 1.0) + 0.0
            bias.grad += np.sum(gate)
            weight.grad += np.sum(gate * pooled)
            gp = gate * r.scale + 0.0
            if r.downsample == 1:
                v.grad += gp
                return
            _, row_sizes = aggregation.pool_windows(x.shape[-2], r.downsample)
            _, col_sizes = aggregation.pool_windows(x.shape[-1], r.downsample)
            gp /= np.outer(row_sizes, col_sizes)
            v.grad += np.repeat(np.repeat(gp, row_sizes, axis=-2), col_sizes, axis=-1)

    else:
        t = out.value

        def backward(g):
            gc = g * (1.0 - t * t) + 0.0
            bias.grad += np.sum(gc)
            padded, windows = aggregation.conv3x3_taps(x, r.downsample)
            gpad = np.zeros_like(padded)
            for (a, b), win in windows.items():
                weight.grad[a, b] += np.sum(gc * padded[win])
                gpad[win] += r.conv_weights[a, b] * gc
            v.grad += gpad[..., 1 : x.shape[-2] + 1, 1 : x.shape[-1] + 1]

    out._backward = backward
    return out


def temporal_topk_chamfer(v: Var, k_t: float, guard: BreakpointGuard | None = None) -> Var:
    """The temporal TopK-Chamfer stage as one node: forward is
    :func:`aggregation.temporal_topk_chamfer` of the (..., T, T') frame
    similarities ``v`` at rate ``k_t``, the sum of each query frame's K
    largest entries, summed over frames and divided by T*K.

    Backward scatters the upstream gradient, divided by T*K, at the K
    entries :func:`_topk_order` selects (ties to the lower index), and +0.0
    elsewhere. A guard records each row's margin from the same selection,
    taken one slot further, but not a tie at +-1 of its ``saturated`` input,
    where neither entry passes a gradient."""
    x = v.value
    out = Var(aggregation.temporal_topk_chamfer(x, k_t), parents=(v,))
    t, extent = x.shape[-2:]
    k = aggregation.topk_count(k_t, extent)
    order = _topk_order(x, k + (guard is not None))[0] if k < extent else None
    if guard is not None and k < extent:
        margins = _topk_margins(x, order, k)
        if guard.saturated is x:
            kth = np.take_along_axis(x, order[..., k - 1 : k], axis=-1)[..., 0]
            margins = margins[(margins != 0.0) | (np.abs(kth) != 1.0)]
        guard.record(margins)

    def backward(g):
        gs = (g / (t * k))[..., None, None]
        if k == extent:
            v.grad += gs
        else:
            routed = np.zeros_like(x)
            np.put_along_axis(routed, order[..., :k], gs, axis=-1)
            v.grad += routed

    out._backward = backward
    return out


def scalar_node(v: Var, forward_with_grad) -> Var:
    """Escape hatch for scalar losses with hand-derived gradients.

    ``forward_with_grad`` maps the input array to ``(value, grad_array)``
    where ``grad_array`` is d(value)/d(input), evaluated eagerly.
    """
    value, grad_arr = forward_with_grad(v.value)
    grad_arr = np.asarray(grad_arr, dtype=np.float64)
    if grad_arr.shape != v.value.shape:
        raise StructuralError(
            f"scalar_node gradient shape {grad_arr.shape} does not match input {v.value.shape}"
        )
    out = Var(float(value), parents=(v,))

    def backward(g):
        v.grad += g * grad_arr

    out._backward = backward
    return out
