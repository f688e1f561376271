"""Minimal reverse-mode automatic differentiation over numpy arrays.

The op set is deliberately closed, and every op has a caller in the
package: a weighted sum of scalar nodes, a linear map, row normalization,
one node per stage of the video similarity (the fused spatial TopK-Chamfer:
cosine gram, top-K over candidate patches, mean over query patches; the
refiner; the temporal TopK-Chamfer), and an escape hatch for scalar nodes
with hand-derived gradients. The nodes run :mod:`aggregation` forward:
``normalize_rows``, ``refine``, ``temporal_topk_chamfer``, and
``spatial_topk_chamfer`` except at K = 1, where the spatial node selects
along rows of the symmetric gram and scatters its gradient at the selected
patch. The other top-K paths route their gradient through a selection mask.
Anything else fails loudly at graph-build time; there is no silent fallback
that could produce wrong gradients.

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


def _topk_mask(values: np.ndarray, top: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k (< extent) largest entries along the last axis, ties to
    the lower index; ``top`` is the row max, read only when k == 1."""
    extent = values.shape[-1]
    if k == 1 and extent <= aggregation.SELECT_MAX_EXTENT:
        # the first column equal to the max
        sel = values == top[..., None]
        taken = sel[..., 0].copy()
        for j in range(1, extent):
            col = sel[..., j]
            np.greater(col, taken, out=col)
            taken |= col
        return sel
    kth = top[..., None] if k == 1 else np.partition(values, extent - k, axis=-1)[..., extent - k, None]
    tied = values == kth
    room = k - np.count_nonzero(values > kth, axis=-1)[..., None]
    return (values > kth) | (tied & (np.cumsum(tied, axis=-1) <= room))


def _topk_margins(values: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """k-th largest minus next entry per row: the last smallest selected
    entry minus the first largest unselected one, the two a stable
    descending argsort puts at k and k + 1. Read at their positions, so a
    zero margin keeps the sign the argsort gives it (entries are finite)."""
    last = values.shape[-1] - 1 - np.argmin(np.where(sel, values, np.inf)[..., ::-1], axis=-1, keepdims=True)
    first = np.argmax(np.where(sel, -np.inf, values), axis=-1, keepdims=True)
    return np.take_along_axis(values, last, axis=-1) - np.take_along_axis(values, first, axis=-1)


def spatial_topk_chamfer(u: Var, n: int, t: int, r: int, k_s: float, guard: BreakpointGuard | None = None) -> Var:
    """The spatial TopK-Chamfer stage of n clips of T frames and R patches:
    from the (n*T*R, D) unit patch rows ``u``, the (n, n, T, T) frame
    similarity (query clip, candidate clip, query frame, candidate frame)

        frame[a, b, i, j] = sum_p topk_q <u[a, i, p], u[b, j, q]> / (R K)

    with K = :func:`aggregation.topk_count` of the rate ``k_s`` over the R
    candidate patches. The cosines are one ``u @ u.T`` (syrk; a gemm of a
    transposed copy rounds differently). Backward builds the symmetric
    adjoint S = G + G.T of that product directly and leaves through one
    ``S @ u``.

    At K = 1 (R > 1) the forward takes the selection along rows of the
    cosine buffer (:func:`_select_rows`), adds the query patches in p order
    and divides by R*K; backward scatters the upstream gradient at each
    selected position and adds it at the transposed one, in the cosine
    buffer, which is dead once the selection is taken. Other K run the
    engine's stage, :func:`aggregation.spatial_topk_chamfer` of the cosines
    viewed as (a, b, T, R, R', T'), and route the gradient through the
    temporal stage's selection mask. Either way one copy lays the frames
    out clip pair first, and backward reads the upstream gradient back
    through a ``moveaxis`` view. A guard records each row's top-K margin, as
    the temporal stage does."""
    uv = u.value
    size = n * t * r
    if uv.ndim != 2 or uv.shape[0] != size:
        raise StructuralError(f"spatial_topk_chamfer expects ({size}, D) rows, got shape {uv.shape}")
    k = aggregation.topk_count(k_s, r)
    cosines = uv @ uv.T
    sim6 = cosines.reshape(n, t, r, n, t, r)
    scatter = k == 1 and r > 1
    if scatter:
        top, first = _select_rows(cosines, n, t, r)
        if guard is not None:
            summed = top.reshape(n, t, n, t, r).transpose(2, 3, 4, 0, 1)
            guard.record(_topk_margins(sim6, _topk_mask(sim6, summed, k)))
        by_patch = top.reshape(n * t, n * t, r)  # (candidate frame, query frame, p)
        frames = by_patch[..., 0] + by_patch[..., 1]
        for p in range(2, r):
            frames += by_patch[..., p]
        frames /= r * k
        value = np.ascontiguousarray(frames.reshape(n, t, n, t).transpose(2, 0, 3, 1))
    else:  # K > 1, or K = R = 1
        if guard is not None and k < r:
            guard.record(_topk_margins(sim6, _topk_mask(sim6, None, k)))
        value = np.ascontiguousarray(aggregation.spatial_topk_chamfer(sim6.transpose(0, 3, 1, 2, 5, 4), k_s))
    out = Var(value, parents=(u,))

    def backward(g):
        gs = np.moveaxis(g, 2, 1) / (r * k)  # (n, T, n, T)
        gs += 0.0  # -0.0 -> +0.0, as a sum into a zero gradient gives
        if scatter:
            adjoint = _scatter_plan(n, t, r).adjoint(cosines, first, gs)
        else:
            spread = gs[:, :, None, :, :, None]
            if k == r:
                grad6 = np.broadcast_to(spread, sim6.shape)
            else:
                grad6 = np.where(_topk_mask(sim6, None, k), spread, 0.0)
            grad = grad6.reshape(size, size)
            adjoint = grad + grad.T
        u.grad += adjoint @ uv

    out._backward = backward
    return out


def _select_rows(cosines: np.ndarray, n: int, t: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The k = 1 spatial selection from the exactly symmetric cosine buffer
    (numpy mirrors syrk's triangle): ``top[f, x]``, the max over the R
    candidate patches of candidate frame f against query patch x, and
    ``first[f, x]``, the first candidate patch holding it. Patch q of frame
    f against every query patch is one contiguous row, so the max is a
    chain of ``np.maximum`` over those rows in q order, exact like
    ``np.max`` to the sign of zero (``np.max`` of the transposed layout from
    R = 9, where topk_sum_values takes it), and ``first`` counts the
    patches before it, all below the max."""
    size = n * t * r
    rows = cosines.reshape(n * t, r, size)  # (candidate frame, q, query patch)
    if r <= aggregation.SELECT_MAX_EXTENT:
        top = np.maximum(rows[:, 0], rows[:, 1])
        for q in range(2, r):
            np.maximum(top, rows[:, q], out=top)
    else:  # a chain may keep another signed zero than np.max
        sim6 = cosines.reshape(n, t, r, n, t, r)
        top = np.ascontiguousarray(np.max(sim6, axis=-1).transpose(3, 4, 0, 1, 2)).reshape(n * t, size)
    below = rows[:, 0] != top
    first = below.astype(np.min_scalar_type(r - 1))
    for q in range(1, r - 1):
        below &= rows[:, q] != top
        first += below
    return top, first


class _ScatterPlan:
    """Flat positions and scratch of the k = 1 adjoint scatter for one
    (n, T, R). Kept across calls, because allocating these ~512 KB arrays on
    every backward costs about a thousand minor page faults per training
    step. The scratch is written only inside one backward call, so two
    threads must not run backward on graphs of the same shape at once."""

    def __init__(self, n: int, t: int, r: int):
        size = n * t * r
        patch = np.arange(size).reshape(n, t, r, 1, 1)
        frame = np.arange(0, size, r).reshape(n, t)  # first patch of each frame
        # (query patch x, candidate frame f) -> x * size + first patch of f,
        # so that each row of the adjoint is written in one sweep
        self.rows = patch * size + frame
        # the transposed positions, laid out as the selection (f, x), so
        # that each frame's R rows of the adjoint are written in one sweep
        self.cols = frame[:, :, None, None, None] * size + patch.reshape(n, t, r)
        self.index = np.empty(self.rows.shape, np.intp)
        self.index_t = np.empty(self.cols.shape, np.intp)
        self.taken = np.empty(self.cols.shape)

    def adjoint(self, buf: np.ndarray, first: np.ndarray, gs: np.ndarray) -> np.ndarray:
        """S = G + G.T in ``buf``, where row x of G holds gs at the
        ``first[f, x]``-th candidate patch of each candidate frame f and +0.0
        elsewhere."""
        buf.fill(0.0)
        flat = buf.reshape(-1)
        first = first.reshape(self.cols.shape)
        np.add(self.rows, first.transpose(2, 3, 4, 0, 1), out=self.index)
        flat[self.index] = gs[:, :, None]
        np.multiply(first, np.intp(buf.shape[0]), out=self.index_t)
        self.index_t += self.cols
        np.take(flat, self.index_t, out=self.taken, mode="clip")
        self.taken += gs.transpose(2, 3, 0, 1)[..., None]
        flat[self.index_t] = self.taken
        return buf


@functools.lru_cache(maxsize=8)
def _scatter_plan(n: int, t: int, r: int) -> _ScatterPlan:
    return _ScatterPlan(n, t, r)


def refine(v: Var, r: aggregation.RefinerParams, params, guard: BreakpointGuard | None = None) -> Var:
    """The refiner as one node: forward is :func:`aggregation.refine` of
    ``v`` under ``r``, and ``params`` are the Vars ``r`` was read from,
    (scale, bias) for the affine kind and (kernel, bias) for the conv kind.
    The identity kind returns ``v`` itself.

    Backward is the closed-form gradient: for the affine kind, the clamp
    gate (zero outside [-1, 1]), the scale, and the pooling windows' mean;
    for the conv kind, tanh' and each kernel tap's strided window. Backward
    recomputes the pooled map rather than holding it. A guard records each
    pre-clamp value's distance to +-1."""
    if r.kind == "identity":
        return v
    x = v.value
    weight, bias = params
    out = Var(aggregation.refine(x, r), parents=(v, weight, bias))
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

    Backward routes the upstream gradient, divided by T*K, through a
    boolean mask of the selected entries, built in backward: the K largest,
    ties to the lower index, as a stable descending argsort selects them. A
    guard records each row's margin from the same selection."""
    x = v.value
    out = Var(aggregation.temporal_topk_chamfer(x, k_t), parents=(v,))
    t, extent = x.shape[-2:]
    k = aggregation.topk_count(k_t, extent)
    if guard is not None and k < extent:
        guard.record(_topk_margins(x, _topk_mask(x, np.max(x, axis=-1), k)))

    def backward(g):
        gs = (g / (t * k))[..., None, None]
        if k == extent:
            v.grad += gs
        else:
            v.grad += np.where(_topk_mask(x, np.max(x, axis=-1), k), gs, 0.0)

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
