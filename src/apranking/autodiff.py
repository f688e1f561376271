"""Minimal reverse-mode automatic differentiation over numpy arrays.

The op set is deliberately closed: matrix products, row normalization,
reshapes, reductions, clamp, tanh, top-K gather, average pooling, a 3x3
convolution, and an escape hatch for scalar nodes with hand-derived
gradients. Anything else fails loudly at graph-build time; there is no
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

import numpy as np

from . import aggregation
from .errors import StructuralError

__all__ = [
    "Var",
    "BreakpointGuard",
    "add",
    "scale",
    "add_scaled",
    "mul_scalar",
    "add_scalar",
    "linear",
    "gram",
    "normalize_rows",
    "reshape",
    "moveaxis",
    "sum_axis",
    "topk_sum",
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


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Var:
    """Elementwise a + b with numpy broadcasting; either side may be constant."""
    av, bv = _as_value(a), _as_value(b)
    out = Var(av + bv, parents=tuple(x for x in (a, b) if isinstance(x, Var)))

    def backward(g):
        if isinstance(a, Var):
            a.grad += _unbroadcast(g, a.value.shape)
        if isinstance(b, Var):
            b.grad += _unbroadcast(g, b.value.shape)

    out._backward = backward
    return out


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


def gram(u: Var) -> Var:
    """u @ u.T for a (N, D) node; the two operands share the parent."""
    if u.value.ndim != 2:
        raise StructuralError("gram expects a 2-d node")
    out = Var(u.value @ u.value.T, parents=(u,))
    uv = u.value

    def backward(g):
        u.grad += (g + g.T) @ uv

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


def reshape(v: Var, shape) -> Var:
    out = Var(v.value.reshape(shape), parents=(v,))

    def backward(g):
        v.grad += g.reshape(v.value.shape)

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
    """Sum of the k largest entries along the last axis; the subgradient
    routes only to the selected entries. Tie-breaking matches the library
    aggregation helper bit for bit."""
    summed, idx = aggregation.topk_sum_last(v.value, k)
    extent = v.value.shape[-1]
    if guard is not None and 0 < k < extent:
        order = np.argsort(-v.value, axis=-1, kind="stable")
        kth = np.take_along_axis(v.value, order[..., k - 1 : k], axis=-1)
        nxt = np.take_along_axis(v.value, order[..., k : k + 1], axis=-1)
        guard.record(kth - nxt)
    out = Var(summed, parents=(v,))

    def backward(g):
        buf = np.zeros_like(v.value)
        np.put_along_axis(buf, idx, np.broadcast_to(g[..., None], idx.shape), axis=-1)
        v.grad += buf

    out._backward = backward
    return out


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
