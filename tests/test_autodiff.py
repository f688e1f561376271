"""The reverse-mode engine: each op against finite differences, plus the
structural guarantees (closed op set, gradient routing, determinism)."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from apranking import aggregation
from apranking import autodiff as ad
from apranking.aggregation import RefinerParams, topk_sum_values
from apranking.errors import DegenerateInputError, StructuralError
from apranking.gradcheck import rel_err


def fd_scalar(fn, x, h=1e-7):
    """Central differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn(x)
        flat[i] = orig - h
        lo = fn(x)
        flat[i] = orig
        g.reshape(-1)[i] = (hi - lo) / (2 * h)
    return g


def total(v):
    """Scalar node: the sum of every entry of ``v``."""
    return ad.scalar_node(v, lambda values: (values.sum(), np.ones_like(values)))


def check_unary(op, x, tol=1e-7):
    def value(arr):
        return float(op(ad.Var(arr)).value.sum())

    v = ad.Var(x.copy())
    total(op(v)).backward()
    fd = fd_scalar(value, x.copy())
    np.testing.assert_allclose(v.grad, fd, atol=tol, rtol=1e-5)


class TestBasicOps:
    def test_linear_closed_form(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3))
        w = ad.Var(rng.standard_normal((4, 3)))
        total(ad.linear(x, w)).backward()
        # d(sum(x W^T))/dW = ones^T x, column-replicated
        expected = np.tile(x.sum(axis=0), (4, 1))
        np.testing.assert_allclose(w.grad, expected, atol=1e-12)

    def test_normalize_rows_fd(self):
        rng = np.random.default_rng(2)
        check_unary(ad.normalize_rows, rng.standard_normal((5, 4)) + 0.5)

    def test_normalize_rows_rejects_a_zero_row(self):
        # the rule of aggregation.normalize_rows, which the cli reports with exit 2
        with pytest.raises(DegenerateInputError, match="zero-norm"):
            ad.normalize_rows(ad.Var(np.array([[0.6, 0.8], [0.0, 0.0]])))


class TestTopkGradientRouting:
    """ad.temporal_topk_chamfer routes the upstream gradient, divided by
    T*K, to the selected entries only."""

    def test_routes_only_to_selected(self):
        v = ad.Var(np.array([[0.1, 0.9, 0.5, 0.7]]))
        ad.temporal_topk_chamfer(v, 2 / 4).backward()
        np.testing.assert_array_equal(v.grad, [[0.0, 0.5, 0.0, 0.5]])

    def test_tie_break_prefers_lower_index(self):
        for k, expected in ((1, [0.0, 1.0, 0.0, 0.0]), (2, [0.0, 0.5, 0.5, 0.0]), (3, [1 / 3, 1 / 3, 1 / 3, 0.0])):
            v = ad.Var(np.array([[0.5, 0.9, 0.9, 0.5]]))
            ad.temporal_topk_chamfer(v, k / 4).backward()
            np.testing.assert_array_equal(v.grad, [expected])

    def test_full_k_routes_everywhere(self):
        v = ad.Var(np.array([[0.1, 0.9]]))
        ad.temporal_topk_chamfer(v, 1.0).backward()
        np.testing.assert_array_equal(v.grad, [[0.5, 0.5]])

    def test_fd_away_from_ties(self):
        rng = np.random.default_rng(8)
        x = np.linspace(-1, 1, 24).reshape(4, 6)  # distinct entries, no ties
        x = rng.permuted(x, axis=1)
        check_unary(lambda v: ad.temporal_topk_chamfer(v, 3 / 6), x)

    def test_guard_records_tie_margin(self):
        guard = ad.BreakpointGuard()
        v = ad.Var(np.array([[1.0, 0.6, 0.5]]))
        ad.temporal_topk_chamfer(v, 1 / 3, guard=guard)
        assert guard.min_margin() == pytest.approx(0.4)


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        v = ad.Var(np.zeros(3))
        with pytest.raises(StructuralError):
            v.backward()

    def test_shared_node_accumulates(self):
        v = ad.Var(np.array(2.0))
        out = ad.add_scaled([(1.0, v), (3.0, v)])
        out.backward()
        assert v.grad == pytest.approx(4.0)

    def test_scalar_node_shape_check(self):
        v = ad.Var(np.zeros((2, 2)))
        with pytest.raises(StructuralError):
            ad.scalar_node(v, lambda values: (0.0, np.zeros(3)))

    def test_repeated_backward_is_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 4))

        def run():
            v = ad.Var(x)
            u = ad.normalize_rows(v)
            total(ad.spatial_topk_chamfer(u, 3, 1, 2, 1 / 2)).backward()
            return v.grad.copy()

        assert np.array_equal(run(), run())

    def test_every_op_has_a_caller(self):
        # the op set is closed: each op outside Var and BreakpointGuard is
        # called as ad.<name> by the package itself, so no op lives on for
        # its tests alone
        package = Path(ad.__file__).parent
        callers = "\n".join(p.read_text() for p in sorted(package.glob("*.py")) if p.name != "autodiff.py")
        unused = [
            name
            for name in ad.__all__
            if name not in ("Var", "BreakpointGuard") and not re.search(rf"\bad\.{name}\b", callers)
        ]
        assert unused == []

    def test_every_private_helper_has_a_caller(self):
        # each module-level _name function or class of the package is named
        # by package code outside its own definition, so no private helper
        # lives on for its tests alone
        package = Path(ad.__file__).parent
        statements = []  # (module, top-level statement, the names it reads)
        for path in sorted(package.glob("*.py")):
            for stmt in ast.parse(path.read_text()).body:
                nodes = list(ast.walk(stmt))
                names = {n.id for n in nodes if isinstance(n, ast.Name)}
                names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
                statements.append((path.name, stmt, names))
        unused = [
            f"{module}:{stmt.name}"
            for module, stmt, _ in statements
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and stmt.name.startswith("_")
            and not stmt.name.startswith("__")
            and not any(stmt.name in names for _, other, names in statements if other is not stmt)
        ]
        assert unused == []


def same_bits(a, b):
    """Equal values, shapes and signs of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def composed_chain(u, n, t, r, k, guard=None):
    """Oracle: the spatial stage as four generic nodes, gram -> reshape ->
    top-K mean over candidate patches -> move to (n, n, T, T), with the
    gram's adjoint (G + G.T) @ u. The top-K sums through topk_sum_values;
    it selects with its own stable descending argsort (ties to the lower
    index), routes its gradient through a mask of that selection and reads
    its guard margins at positions k and k + 1, then sums the query patches
    and divides by R*K."""
    uv = u.value
    cosines = ad.Var(uv @ uv.T, parents=(u,))

    def gram_backward(g):
        u.grad += (g + g.T) @ uv

    cosines._backward = gram_backward
    sim6 = ad.Var(cosines.value.reshape(n, t, r, n, t, r), parents=(cosines,))

    def reshape_backward(g):
        cosines.grad += g.reshape(cosines.value.shape)

    sim6._backward = reshape_backward
    summed = topk_sum_values(sim6.value, k)  # (n, T, R, n, T)
    order = np.argsort(-sim6.value, axis=-1, kind="stable")
    if guard is not None and k < r:
        kth = np.take_along_axis(sim6.value, order[..., k - 1 : k], axis=-1)
        guard.record(kth - np.take_along_axis(sim6.value, order[..., k : k + 1], axis=-1))
    mask = np.zeros(sim6.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :k], True, axis=-1)
    frames = ad.Var(summed.sum(axis=2) / (r * k), parents=(sim6,))  # (n, T, n, T)

    def topk_backward(g):
        spread = (g / (r * k))[:, :, None, :, :, None]
        if k == r:
            sim6.grad += spread
        else:
            sim6.grad += np.where(mask, spread, 0.0)

    frames._backward = topk_backward
    moved = ad.Var(np.ascontiguousarray(np.moveaxis(frames.value, 1, 2)), parents=(frames,))

    def move_backward(g):
        frames.grad += np.moveaxis(g, 2, 1)

    moved._backward = move_backward
    return moved


def backward_from(out, g):
    """Reverse sweep down a chain of one-parent nodes from upstream ``g``,
    which reaches the first node as given, signed zeros included."""
    node = out
    node._backward(g)
    while node._parents and node._parents[0]._backward is not None:
        node = node._parents[0]
        node._backward(node.grad)


def tied_unit_rows(rng, size, d):
    """Unit rows drawn from a small pool of signed basis vectors and rounded
    random directions, so that cosines tie exactly, duplicated patches
    occur, and exact (signed) zeros appear."""
    basis = np.concatenate([np.eye(d), -np.eye(d)])
    other = np.round(rng.standard_normal((4, d)), 1) + 0.05
    pool = np.concatenate([basis, other / np.linalg.norm(other, axis=1, keepdims=True)])
    return pool[rng.integers(0, len(pool), size=size)]


def signed_upstream(rng, shape):
    """Rounded upstream gradients with +0.0 and -0.0 entries."""
    g = np.round(rng.uniform(-1, 1, size=shape), 1)
    return np.where(rng.random(shape) < 0.2, rng.choice([-0.0, 0.0], size=shape), g)


class TestSpatialTopkChamfer:
    """ad.spatial_topk_chamfer against the composed chain it replaces:
    values, input gradients and guard margins, bit for bit."""

    # (n, T, R, k): k = 1 on every short axis and on the np.max path
    # (R = 9, 10), in-between k, k = extent, and R = 1; every 1 < k < R at R
    # = 6-8, the longest axes the column passes select from; then R = 9-12,
    # where the engine's top-K sorts, at 1 < k < R and at k = R, with T > 1
    # (at T = 1 numpy may add the chain's query patches pairwise)
    CASES = [
        (2, 3, 4, 1), (3, 2, 2, 1), (1, 2, 8, 1), (2, 2, 9, 1), (2, 1, 10, 1),
        (2, 2, 3, 1), (1, 3, 5, 1), (2, 2, 6, 1), (2, 1, 7, 1),
        (2, 2, 5, 2), (2, 3, 4, 3), (1, 2, 9, 4), (2, 2, 3, 3), (3, 2, 1, 1),
        (2, 2, 6, 2), (1, 3, 6, 3), (2, 2, 6, 4), (2, 1, 6, 5),
        (2, 2, 7, 2), (1, 2, 7, 3), (2, 3, 7, 4), (2, 2, 7, 5), (1, 2, 7, 6),
        (2, 1, 8, 2), (2, 2, 8, 3), (1, 3, 8, 4), (2, 2, 8, 5), (2, 1, 8, 6), (1, 2, 8, 7),
        (2, 2, 9, 2), (1, 2, 9, 8), (1, 2, 9, 9), (2, 2, 10, 5), (1, 3, 10, 10),
        (1, 2, 11, 3), (1, 2, 11, 10), (2, 2, 11, 11), (2, 2, 12, 2), (1, 2, 12, 7), (1, 3, 12, 12),
    ]

    @pytest.mark.parametrize("n,t,r,k", CASES)
    def test_matches_composed_chain(self, n, t, r, k):
        rng = np.random.default_rng(n * 1000 + t * 100 + r * 10 + k)
        for _ in range(30):
            rows = tied_unit_rows(rng, n * t * r, int(rng.integers(2, 5)))
            g = signed_upstream(rng, (n, n, t, t))
            fused_guard, chain_guard = ad.BreakpointGuard(), ad.BreakpointGuard()
            u_fused, u_chain = ad.Var(rows), ad.Var(rows)
            fused = ad.spatial_topk_chamfer(u_fused, n, t, r, k / r, guard=fused_guard)
            chain = composed_chain(u_chain, n, t, r, k, guard=chain_guard)
            assert same_bits(fused.value, chain.value)
            assert same_bits(fused_guard.margins, chain_guard.margins)
            backward_from(fused, g)
            backward_from(chain, g)
            assert same_bits(u_fused.grad, u_chain.grad), (rows, g)

    def test_gram_is_exactly_symmetric(self):
        # the k = 1 forward reads candidate patches along rows of u @ u.T,
        # which holds because numpy mirrors one computed triangle
        rng = np.random.default_rng(42)
        for size, d in [(1, 3), (7, 1), (32, 5), (96, 16), (512, 16), (130, 39)]:
            u = rng.standard_normal((size, d))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            cosines = u @ u.T
            assert same_bits(cosines, cosines.T)

    @pytest.mark.parametrize("r", range(2, 11))
    def test_k1_selection_keeps_the_sign_of_zero(self, r):
        # hand-built symmetric buffers of -0.0, +0.0, -1 and 0.5, selected
        # as the spatial node selects: slot 0's positions must be the first
        # maximal candidate patch, and its maxima must equal np.max along
        # contiguous candidate patches to the sign of zero (the column chain
        # up to R = 8; from R = 9 the node takes that np.max itself)
        rng = np.random.default_rng(60 + r)
        for n, t in ((1, 1), (2, 1), (1, 2), (2, 2)):
            size = n * t * r
            for _ in range(20):
                drawn = rng.choice([-0.0, 0.0, -1.0, 0.5], size=(size, size))
                buf = np.where(np.triu(np.ones((size, size), dtype=bool)), drawn, drawn.T)
                sim6 = buf.reshape(n, t, r, n, t, r)
                expected = np.max(sim6, axis=-1)
                first_max = np.argmax(sim6 == expected[..., None], axis=-1)
                _, order, top = ad._gram_topk_order(buf, n * t, r, 1)
                assert np.array_equal(order[..., 0], first_max.transpose(3, 4, 0, 1, 2).reshape(n * t, size)), buf
                assert same_bits(top, expected.transpose(3, 4, 0, 1, 2).reshape(n * t, size)), buf

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fd_every_k_path(self, k):
        rng = np.random.default_rng(40 + k)
        n, t, r = 2, 2, 3
        x = rng.standard_normal((n * t * r, 4))
        w = rng.standard_normal((n, n, t, t))

        def value(arr):
            return float(np.sum(ad.spatial_topk_chamfer(ad.Var(arr), n, t, r, k / r).value * w))

        guard = ad.BreakpointGuard()
        v = ad.Var(x.copy())
        out = ad.spatial_topk_chamfer(v, n, t, r, k / r, guard=guard)
        assert guard.min_margin() > 1e-3  # the kinks stay out of the stencil
        ad.scalar_node(out, lambda values: (np.sum(values * w), w)).backward()
        assert rel_err(v.grad, fd_scalar(value, x.copy())) < 1e-6

    def test_backward_again_after_another_graph(self):
        # backward writes the adjoint into the node's own cosine buffer and
        # shares per-(n, T, R, K) scratch between graphs; the selection it
        # scatters at is held per node. Graphs of one (n, T, R) at every K,
        # interleaved, each give the gradient they gave first
        rng = np.random.default_rng(41)
        n, t, r = 3, 2, 4

        def graph(k):
            u = ad.Var(tied_unit_rows(rng, n * t * r, 3))
            out = ad.spatial_topk_chamfer(u, n, t, r, k / r)
            w = rng.standard_normal(out.shape)
            return u, out, ad.scalar_node(out, lambda values: (np.sum(values * w), w))

        def gradient(nodes):
            for node in nodes:
                node.zero_grad()
            nodes[-1].backward()
            return nodes[0].grad.copy()

        graphs = [graph(k) for k in (1, 2, 1, 3, 2, 4)]
        expected = [gradient(nodes) for nodes in graphs]
        for nodes, grad in zip(graphs[::-1], expected[::-1]):
            assert same_bits(gradient(nodes), grad)
        for nodes, grad in zip(graphs, expected):
            assert same_bits(gradient(nodes), grad)

    def test_rejects_rows_of_another_shape(self):
        with pytest.raises(StructuralError):
            ad.spatial_topk_chamfer(ad.Var(np.eye(4)), 1, 2, 3, 1 / 3)


def refiner(kind, stride, weight, bias):
    """The RefinerParams read from the refiner Vars (scale or kernel, bias)."""
    if kind == "affine":
        return RefinerParams("affine", scale=weight.item(), bias=bias.item(), downsample=stride)
    return RefinerParams("conv", conv_weights=weight.value.copy(), conv_bias=bias.item(), downsample=stride)


class TestRefine:
    """ad.refine, the refiner as one node, against finite differences on the
    input and on each parameter, plus the clamp gate and its guard."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kind", ["affine", "conv"])
    def test_fd_every_input(self, kind, stride):
        rng = np.random.default_rng(50 + stride)
        # odd extents leave partial pooling windows and strided conv edges;
        # a scale of 1.5 per stride closes the clamp gate on some entries
        inputs = {
            "x": rng.uniform(-1.0, 1.0, (2, 5, 7)),
            "weight": np.asarray(1.5 * stride) if kind == "affine" else rng.standard_normal((3, 3)) * 0.5,
            "bias": np.asarray(0.1),
        }

        def run(given, guard=None):
            nodes = {name: ad.Var(arr.copy()) for name, arr in given.items()}
            weight, bias = nodes["weight"], nodes["bias"]
            return nodes, ad.refine(nodes["x"], refiner(kind, stride, weight, bias), (weight, bias), guard=guard)

        guard = ad.BreakpointGuard()
        nodes, out = run(inputs, guard)
        w = rng.standard_normal(out.shape)
        if kind == "affine":
            assert 0.0 < float(np.mean(np.abs(out.value) == 1.0)) < 0.5  # some entries clamped
            assert guard.min_margin() > 1e-3  # no pre-clamp value near the stencil
        ad.scalar_node(out, lambda values: (np.sum(values * w), w)).backward()
        for name, node in nodes.items():

            def value(arr):
                return float(np.sum(run(dict(inputs, **{name: arr}))[1].value * w))

            assert rel_err(node.grad, fd_scalar(value, inputs[name].copy())) < 1e-6, name

    def test_clamp_gates_gradient(self):
        # pre-clamp values -1.6, 0.4 and 1.2: only the middle one passes the
        # gradient, and the gated entries hold +0.0 under a negative upstream
        v, scale, bias = ad.Var(np.array([[-2.0, 0.5, 1.5]])), ad.Var(0.8), ad.Var(0.0)
        out = ad.refine(v, refiner("affine", 1, scale, bias), (scale, bias))
        ad.scalar_node(out, lambda values: (-values.sum(), -np.ones_like(values))).backward()
        assert same_bits(v.grad, [[0.0, -0.8, 0.0]])
        assert (scale.grad, bias.grad) == (-0.5, -1.0)

    def test_guard_records_clamp_margin(self):
        # distances of -1.6, 0.4 and 1.2 to +-1: 0.6, 0.6 and 0.2
        guard = ad.BreakpointGuard()
        v, scale, bias = ad.Var(np.array([[-2.0, 0.5, 1.5]])), ad.Var(0.8), ad.Var(0.0)
        ad.refine(v, refiner("affine", 1, scale, bias), (scale, bias), guard=guard)
        assert guard.margins == [pytest.approx(0.2)]
        conv_guard = ad.BreakpointGuard()
        kernel = ad.Var(np.eye(3))
        ad.refine(v, refiner("conv", 1, kernel, bias), (kernel, bias), guard=conv_guard)
        assert conv_guard.margins == []  # tanh has no kink

    def test_guard_skips_ties_of_saturated_entries(self):
        # scale 2 clamps 0.9, 0.8 and 0.95 to 1.0: row 0's two largest tie at
        # the clamp, which passes no gradient to either, so that tie is no
        # kink; the margins left are row 1's 1.0 - 0.6 and the clamp's 0.4
        x, scale, bias = ad.Var(np.array([[[[0.9, 0.8, 0.1], [0.2, 0.95, 0.3]]]])), ad.Var(2.0), ad.Var(0.0)
        guard = ad.BreakpointGuard()
        refined = ad.refine(x, refiner("affine", 1, scale, bias), (scale, bias), guard=guard)
        out = ad.temporal_topk_chamfer(refined, 0.0, guard=guard)
        assert guard.margins == [pytest.approx(0.4)] * 2
        ad.scalar_node(out, lambda values: (values.sum(), np.ones_like(values))).backward()
        assert not x.grad.any() and scale.grad == 0.0
        # the same tie met without the refiner is a kink
        direct = ad.BreakpointGuard()
        ad.temporal_topk_chamfer(ad.Var(np.array([[1.0, 1.0, 0.5]])), 0.0, guard=direct)
        assert direct.margins == [0.0]

    def test_identity_is_the_input_node(self):
        v = ad.Var(np.eye(3))
        assert ad.refine(v, RefinerParams(), (), guard=ad.BreakpointGuard()) is v


class TestGraphStagesMatchEngine:
    """The graph's top-K stages against the engine's, bit for bit: the
    spatial node against aggregation.spatial_topk_chamfer of the same gram,
    laid out as the node views it, (a, b, T, R, R', T'), and as
    batch_similarity_matrix holds each clip pair's slab, read in place
    through the engine's tile views and stage buffers; the temporal node
    against aggregation.temporal_topk_chamfer. Both divide by R*K and T*K.
    Both layouts keep candidate patches contiguous, so the slab check
    covers every K to R = 12 for T > 1. At T = 1 from R = 8 the engine adds
    the query patches pairwise along their contiguous axis, as the Chamfer
    and mean references do, while the node adds them one after the other,
    as the composed chain does: the values may differ in the last bits at
    R = 8 and at K = 1 and K = R from R = 9, so there the slab check covers
    1 < K < R at R = 9-12. No preset has R >= 8."""

    @pytest.mark.parametrize("r", range(1, 9))
    def test_spatial_node_is_the_engine_stage(self, r):
        rng = np.random.default_rng(70 + r)
        for trial in range(12):
            n, t, d = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 6))
            if trial % 2:
                rows = tied_unit_rows(rng, n * t * r, d)
            else:
                rows = rng.standard_normal((n * t * r, d))
                rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            sim = (rows @ rows.T).reshape(n, t, r, n, t, r).transpose(0, 3, 1, 2, 5, 4)
            for k in range(1, r + 1):
                node = ad.spatial_topk_chamfer(ad.Var(rows), n, t, r, k / r)
                assert same_bits(node.value, aggregation.spatial_topk_chamfer(sim, k / r)), (rows, k)

    @pytest.mark.parametrize("r", range(1, 13))
    def test_spatial_node_matches_the_engine_slab(self, r):
        rng = np.random.default_rng(90 + r)
        for trial in range(12):
            n, t, d = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 6))
            t = t if trial % 3 else 1  # a lone frame leaves the patch axes contiguous
            if trial % 2:
                rows = tied_unit_rows(rng, n * t * r, d)
            else:
                rows = rng.standard_normal((n * t * r, d))
                rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            pairs = (rows @ rows.T).reshape(n, t * r, n, t * r).swapaxes(1, 2)  # one slab per clip pair
            ks = range(1, r + 1)
            if t == 1 and r >= 8:  # the corner the class docstring names
                ks = range(2, r) if r > 8 else ()
            for k in ks:
                bufs = np.empty((2 + aggregation.topk_scratch(r, k), n * n * t * r * t))
                gram, cosines, work = aggregation._tile_views(n, n, t, r, np.empty(pairs.size), bufs)
                np.copyto(gram, pairs)
                engine = aggregation.spatial_topk_chamfer(cosines, k / r, out=np.empty((n, n, t, t)), work=work)
                node = ad.spatial_topk_chamfer(ad.Var(rows), n, t, r, k / r)
                assert same_bits(node.value, engine), (rows, k)

    def test_temporal_node_is_the_engine_stage(self):
        rng = np.random.default_rng(80)
        for _ in range(100):
            t, tc = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            frames = np.round(rng.uniform(-1, 1, size=(2, 3, t, tc)), int(rng.integers(0, 3)))
            frames = np.where(rng.random(frames.shape) < 0.2, rng.choice([-0.0, 0.0], size=frames.shape), frames)
            for k_t in (0.0, 0.03, 0.3, 0.5, 1.0):
                node = ad.temporal_topk_chamfer(ad.Var(frames), k_t)
                assert same_bits(node.value, aggregation.temporal_topk_chamfer(frames, k_t)), (frames, k_t)
