"""Minimal reverse-mode automatic differentiation over numpy arrays.

The op set is deliberately closed: scalings and weighted sums of nodes,
scalar-node products and shifts, a linear map, row normalization, the
fused spatial TopK-Chamfer stage (cosine gram, top-K over candidate
patches, mean over query patches), axis moves, reductions, clamp, tanh,
top-K, average pooling, a 3x3 convolution, and an escape hatch for scalar
nodes with hand-derived gradients. Top-K routes its gradient through a
selection mask; the spatial stage at k = 1 scatters it at the selected
patch instead. Anything else fails loudly at graph-build time; there is no
silent fallback that could produce wrong gradients.

Backward closures are built eagerly when a node is created, and
``Var.backward()`` walks the graph in reverse topological order, so gradient
accumulation order is deterministic for a fixed graph.

A :class:`BreakpointGuard` can be threaded through kinked ops (top-K, clamp,
piecewise maps); it records how far the forward pass stayed from each
non-differentiable point, which finite-difference checks use to exclude
ill-conditioned samples.
"""

from __future__ import annotations

import functools

import numpy as np

from . import aggregation
from .errors import StructuralError

__all__ = [
    "Var",
    "BreakpointGuard",
    "scale",
    "add_scaled",
    "mul_scalar",
    "add_scalar",
    "linear",
    "normalize_rows",
    "moveaxis",
    "sum_axis",
    "topk_sum",
    "spatial_topk_chamfer",
    "clamp",
    "tanh",
    "average_pool_ceil",
    "conv3x3",
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


def _as_value(x):
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def scale(v: Var, c: float) -> Var:
    """Multiply by a python/const scalar."""
    c = float(c)
    out = Var(v.value * c, parents=(v,))

    def backward(g):
        v.grad += g * c

    out._backward = backward
    return out


def add_scaled(terms) -> Var:
    """Weighted sum of scalar nodes: sum(c_i * v_i) for (c_i, v_i) pairs."""
    terms = list(terms)
    total = np.asarray(0.0)
    for c, v in terms:
        total = total + float(c) * _as_value(v)
    out = Var(total, parents=tuple(v for _, v in terms if isinstance(v, Var)))

    def backward(g):
        for c, v in terms:
            if isinstance(v, Var):
                v.grad += g * float(c)

    out._backward = backward
    return out


def mul_scalar(v: Var, s: Var) -> Var:
    """Tensor times a 0-d parameter node."""
    if s.value.ndim != 0:
        raise StructuralError("mul_scalar expects a 0-d parameter")
    out = Var(v.value * s.value, parents=(v, s))
    v_value = v.value

    def backward(g):
        v.grad += g * s.value
        s.grad += np.sum(g * v_value)

    out._backward = backward
    return out


def add_scalar(v: Var, s: Var) -> Var:
    """Tensor plus a 0-d parameter node."""
    if s.value.ndim != 0:
        raise StructuralError("add_scalar expects a 0-d parameter")
    out = Var(v.value + s.value, parents=(v, s))

    def backward(g):
        v.grad += g
        s.grad += np.sum(g)

    out._backward = backward
    return out


def linear(x, w: Var) -> Var:
    """x @ w.T for a constant input batch x (..., D_in) and parameter w
    (D_out, D_in)."""
    xv = _as_value(x)
    if isinstance(x, Var):
        raise StructuralError("linear expects a constant input batch")
    out = Var(xv @ w.value.T, parents=(w,))
    x2 = xv.reshape(-1, xv.shape[-1])

    def backward(g):
        w.grad += g.reshape(-1, g.shape[-1]).T @ x2

    out._backward = backward
    return out


def normalize_rows(v: Var, min_norm: float = 1e-12) -> Var:
    """L2-normalize the last axis."""
    norms = np.linalg.norm(v.value, axis=-1, keepdims=True)
    if np.any(norms <= min_norm):
        raise StructuralError("zero-norm row in normalize_rows")
    unit = v.value / norms
    out = Var(unit, parents=(v,))

    def backward(g):
        v.grad += (g - unit * np.sum(g * unit, axis=-1, keepdims=True)) / norms

    out._backward = backward
    return out


def moveaxis(v: Var, source, destination) -> Var:
    out = Var(np.ascontiguousarray(np.moveaxis(v.value, source, destination)), parents=(v,))

    def backward(g):
        v.grad += np.moveaxis(g, destination, source)

    out._backward = backward
    return out


def sum_axis(v: Var, axis: int) -> Var:
    out = Var(v.value.sum(axis=axis), parents=(v,))
    ax = axis if axis >= 0 else v.value.ndim + axis

    def backward(g):
        v.grad += np.expand_dims(g, ax)

    out._backward = backward
    return out


def topk_sum(v: Var, k: int, guard: BreakpointGuard | None = None) -> Var:
    """Sum of the k largest entries along the last axis, by
    :func:`aggregation.topk_sum_values`. The subgradient routes through a
    boolean mask of the selected entries, built in backward: the k largest,
    ties to the lower index, as a stable descending argsort selects them. A
    guard records each row's margin from the same selection."""
    values = v.value
    summed = aggregation.topk_sum_values(values, k)
    extent = values.shape[-1]
    if guard is not None and k < extent:
        guard.record(_topk_margins(values, _topk_mask(values, summed, k)))
    out = Var(summed, parents=(v,))

    def backward(g):
        if k == extent:
            v.grad += g[..., None]
        else:
            v.grad += np.where(_topk_mask(values, summed, k), g[..., None], 0.0)

    out._backward = backward
    return out


def _topk_mask(values: np.ndarray, top: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k (< extent) largest entries along the last axis, ties to
    the lower index; ``top`` is the row max when k == 1."""
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


def spatial_topk_chamfer(u: Var, n: int, t: int, r: int, k: int, guard: BreakpointGuard | None = None) -> Var:
    """The spatial TopK-Chamfer stage of n clips of T frames and R patches:
    from the (n*T*R, D) unit patch rows ``u``, the (n, T, n, T) frame
    similarity (query clip, query frame, candidate clip, candidate frame)

        frame[a, i, b, j] = 1/(R k) * sum_p topk_q <u[a, i, p], u[b, j, q]>

    with the top-K of :func:`aggregation.topk_sum_values` over candidate
    patches. The cosines are one ``u @ u.T`` (syrk; a gemm of a transposed
    copy rounds differently). Backward builds the symmetric adjoint
    S = G + G.T of that product directly and leaves through one ``S @ u``.
    At k = 1 (R > 1) the forward keeps each row's first maximal candidate
    patch, and backward scatters the upstream gradient there and at the
    transposed position into the cosine buffer, which is dead once that
    selection is taken; other k route through :func:`topk_sum`'s selection
    mask. A guard records each row's top-K margin, as topk_sum does."""
    uv = u.value
    size = n * t * r
    if uv.ndim != 2 or uv.shape[0] != size:
        raise StructuralError(f"spatial_topk_chamfer expects ({size}, D) rows, got shape {uv.shape}")
    cosines = uv @ uv.T
    sim6 = cosines.reshape(n, t, r, n, t, r)
    summed = aggregation.topk_sum_values(sim6, k)  # (n, T, R, n, T)
    if guard is not None and k < r:
        guard.record(_topk_margins(sim6, _topk_mask(sim6, summed, k)))
    c = 1.0 / (r * k)
    out = Var(summed.sum(axis=2) * c, parents=(u,))
    scatter = k == 1 and r > 1
    if scatter:
        # the index of the first maximal column is the count of the columns
        # before it, all below the max
        below = sim6[..., 0] != summed
        first = below.astype(np.min_scalar_type(r - 1))
        for q in range(1, r - 1):
            below &= sim6[..., q] != summed
            first += below

    def backward(g):
        gs = g * c
        gs += 0.0  # -0.0 -> +0.0, as a sum into a zero gradient gives
        if scatter:
            adjoint = _scatter_plan(n, t, r).adjoint(cosines, first, gs)
        else:
            spread = gs[:, :, None, :, :, None]
            if k == r:
                grad6 = np.broadcast_to(spread, sim6.shape)
            else:
                grad6 = np.where(_topk_mask(sim6, summed, k), spread, 0.0)
            grad = grad6.reshape(size, size)
            adjoint = grad + grad.T
        u.grad += adjoint @ uv

    out._backward = backward
    return out


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
        # (query patch i, candidate frame f) -> i * size + first patch of f
        self.rows = patch * size + frame
        # the transposed positions, candidate frame first, so that each
        # frame's R rows of the adjoint are written in one sweep
        self.cols = frame[:, :, None, None, None] * size + patch.reshape(n, t, r)
        self.index = np.empty(self.rows.shape, np.intp)
        self.index_t = np.empty(self.cols.shape, np.intp)
        self.taken = np.empty(self.cols.shape)

    def adjoint(self, buf: np.ndarray, first: np.ndarray, gs: np.ndarray) -> np.ndarray:
        """S = G + G.T in ``buf``, where row i of G holds gs at its ``first``
        candidate patch of each candidate frame and +0.0 elsewhere."""
        buf.fill(0.0)
        flat = buf.reshape(-1)
        np.add(self.rows, first, out=self.index)
        flat[self.index] = gs[:, :, None]
        np.multiply(first.transpose(3, 4, 0, 1, 2), np.intp(buf.shape[0]), out=self.index_t)
        self.index_t += self.cols
        np.take(flat, self.index_t, out=self.taken, mode="clip")
        self.taken += gs.transpose(2, 3, 0, 1)[..., None]
        flat[self.index_t] = self.taken
        return buf


@functools.lru_cache(maxsize=8)
def _scatter_plan(n: int, t: int, r: int) -> _ScatterPlan:
    return _ScatterPlan(n, t, r)


def clamp(v: Var, lo: float, hi: float, guard: BreakpointGuard | None = None) -> Var:
    """Hard clamp; gradient is zero outside [lo, hi]."""
    inside = (v.value > lo) & (v.value < hi)
    if guard is not None:
        guard.record(np.minimum(np.abs(v.value - lo), np.abs(v.value - hi)))
    out = Var(np.clip(v.value, lo, hi), parents=(v,))

    def backward(g):
        v.grad += g * inside

    out._backward = backward
    return out


def tanh(v: Var) -> Var:
    t = np.tanh(v.value)
    out = Var(t, parents=(v,))

    def backward(g):
        v.grad += g * (1.0 - t * t)

    out._backward = backward
    return out


def average_pool_ceil(v: Var, stride: int) -> Var:
    """Stride-s average pooling over the last two axes (ceil semantics)."""
    if stride == 1:
        return v
    pooled = aggregation.average_pool_ceil(v.value, stride)
    _, row_sizes = aggregation.pool_windows(v.value.shape[-2], stride)
    _, col_sizes = aggregation.pool_windows(v.value.shape[-1], stride)
    counts = np.outer(row_sizes, col_sizes)
    out = Var(pooled, parents=(v,))

    def backward(g):
        spread = np.repeat(np.repeat(g / counts, row_sizes, axis=-2), col_sizes, axis=-1)
        v.grad += spread

    out._backward = backward
    return out


def conv3x3(v: Var, weights: Var, bias: Var, stride: int = 1) -> Var:
    """Single-channel 3x3 convolution with zero padding 1 and the given
    stride, applied over the last two axes of ``v``."""
    if weights.value.shape != (3, 3) or bias.value.ndim != 0:
        raise StructuralError("conv3x3 expects a (3, 3) kernel and 0-d bias")
    x = v.value
    out = Var(aggregation.conv3x3(x, weights.value, bias.value, stride), parents=(v, weights, bias))
    wv = weights.value.copy()

    def backward(g):
        bias.grad += np.sum(g)
        padded, windows = aggregation.conv3x3_taps(x, stride)
        gpad = np.zeros_like(padded)
        for (a, b), win in windows.items():
            weights.grad[a, b] += np.sum(g * padded[win])
            gpad[win] += wv[a, b] * g
        h, w = x.shape[-2], x.shape[-1]
        v.grad += gpad[..., 1 : h + 1, 1 : w + 1]

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
