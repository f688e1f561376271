"""The reverse-mode engine: each op against finite differences, plus the
structural guarantees (closed op set, gradient routing, determinism)."""

import numpy as np
import pytest

from apranking import autodiff as ad
from apranking.errors import StructuralError


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


def check_unary(op, x, tol=1e-7):
    def value(arr):
        return float(op(ad.Var(arr)).value.sum())

    v = ad.Var(x.copy())
    out = op(v)
    total = ad.reshape(out, (-1,))
    total = ad.sum_axis(total, 0)
    total.backward()
    fd = fd_scalar(value, x.copy())
    np.testing.assert_allclose(v.grad, fd, atol=tol, rtol=1e-5)


class TestBasicOps:
    def test_linear_closed_form(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3))
        w = ad.Var(rng.standard_normal((4, 3)))
        out = ad.linear(x, w)
        loss = ad.sum_axis(ad.reshape(out, (-1,)), 0)
        loss.backward()
        # d(sum(x W^T))/dW = ones^T x, column-replicated
        expected = np.tile(x.sum(axis=0), (4, 1))
        np.testing.assert_allclose(w.grad, expected, atol=1e-12)

    def test_gram_fd(self):
        rng = np.random.default_rng(1)
        check_unary(ad.gram, rng.standard_normal((4, 3)))

    def test_normalize_rows_fd(self):
        rng = np.random.default_rng(2)
        check_unary(ad.normalize_rows, rng.standard_normal((5, 4)) + 0.5)

    def test_tanh_fd(self):
        rng = np.random.default_rng(3)
        check_unary(ad.tanh, rng.standard_normal((3, 3)))

    def test_clamp_gates_gradient(self):
        v = ad.Var(np.array([-2.0, 0.0, 2.0]))
        out = ad.sum_axis(ad.clamp(v, -1.0, 1.0), 0)
        out.backward()
        np.testing.assert_array_equal(v.grad, [0.0, 1.0, 0.0])

    def test_avgpool_fd(self):
        rng = np.random.default_rng(6)
        check_unary(lambda v: ad.average_pool_ceil(v, 2), rng.standard_normal((5, 7)))

    def test_conv3x3_fd_all_inputs(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 5, 4))
        w = rng.standard_normal((3, 3))
        b = rng.standard_normal(())

        def value(which, arr):
            vx = ad.Var(x if which != "x" else arr)
            vw = ad.Var(w if which != "w" else arr)
            vb = ad.Var(b if which != "b" else arr)
            out = ad.conv3x3(vx, vw, vb, stride=2)
            return float(out.value.sum())

        vx, vw, vb = ad.Var(x.copy()), ad.Var(w.copy()), ad.Var(b.copy())
        out = ad.conv3x3(vx, vw, vb, stride=2)
        loss = ad.sum_axis(ad.reshape(out, (-1,)), 0)
        loss.backward()
        np.testing.assert_allclose(vx.grad, fd_scalar(lambda a: value("x", a), x.copy()), atol=1e-6)
        np.testing.assert_allclose(vw.grad, fd_scalar(lambda a: value("w", a), w.copy()), atol=1e-6)
        np.testing.assert_allclose(vb.grad, fd_scalar(lambda a: value("b", a), b.copy()), atol=1e-6)


class TestTopkGradientRouting:
    def test_routes_only_to_selected(self):
        v = ad.Var(np.array([[0.1, 0.9, 0.5, 0.7]]))
        out = ad.sum_axis(ad.topk_sum(v, 2), 0)
        out.backward()
        np.testing.assert_array_equal(v.grad, [[0.0, 1.0, 0.0, 1.0]])

    def test_full_k_routes_everywhere(self):
        v = ad.Var(np.array([[0.1, 0.9]]))
        out = ad.sum_axis(ad.topk_sum(v, 2), 0)
        out.backward()
        np.testing.assert_array_equal(v.grad, [[1.0, 1.0]])

    def test_fd_away_from_ties(self):
        rng = np.random.default_rng(8)
        x = np.linspace(-1, 1, 24).reshape(4, 6)  # distinct entries, no ties
        x = rng.permuted(x, axis=1)
        check_unary(lambda v: ad.topk_sum(v, 3), x)

    def test_guard_records_tie_margin(self):
        guard = ad.BreakpointGuard()
        v = ad.Var(np.array([[1.0, 0.6, 0.5]]))
        ad.topk_sum(v, 1, guard=guard)
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

    def test_mul_scalar_requires_0d(self):
        v = ad.Var(np.zeros((2, 2)))
        s = ad.Var(np.zeros(2))
        with pytest.raises(StructuralError):
            ad.mul_scalar(v, s)

    def test_repeated_backward_is_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 4))

        def run():
            v = ad.Var(x)
            u = ad.normalize_rows(v)
            g = ad.gram(u)
            out = ad.sum_axis(ad.reshape(ad.topk_sum(g, 2), (-1,)), 0)
            out.backward()
            return v.grad.copy()

        assert np.array_equal(run(), run())
