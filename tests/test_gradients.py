"""Analytic gradients vs central finite differences for every loss.

The FD side only ever evaluates loss values, so it is independent of the
gradient code it checks. Sampled contexts keep all gaps away from the
piecewise breakpoints; the error metric is the worst absolute deviation
relative to the gradient magnitude (FD itself carries ~1e-9 of roundoff).
"""

from functools import partial

import numpy as np
import pytest

from apranking.gradcheck import fd_context_gradients, max_gradient_error, random_safe_context, rel_err
from apranking.losses import (
    QuadLinearParams,
    SmoothApParams,
    contrastive_loss_rows,
    infonce_loss_rows,
    quadlinear_ap_risk_rows,
    smooth_ap_risk_rows,
    sshn_loss_rows,
    triplet_loss_rows,
)

DELTA = 0.05
TOL = 1e-6


def sshn_value(self_sim, hardest_negative):
    return sshn_loss_rows([self_sim], [hardest_negative])[0][0]


def contexts_for(rng, n, breakpoints, max_pos=4, max_neg=6):
    out = []
    for _ in range(n):
        npos = int(rng.integers(1, max_pos + 1))
        nneg = int(rng.integers(0, max_neg + 1))
        out.append(random_safe_context(rng, npos, nneg, breakpoints=breakpoints))
    return out


class TestLossGradients:
    def test_quadlinear(self):
        rng = np.random.default_rng(11)
        ctxs = contexts_for(rng, 220, breakpoints=(0.0, -DELTA))
        for rho in (0.0, 0.1, 1.0, 5.0):
            err = max_gradient_error(partial(quadlinear_ap_risk_rows, p=QuadLinearParams(DELTA, rho)), ctxs)
            assert err < TOL

    def test_smooth(self):
        rng = np.random.default_rng(12)
        ctxs = contexts_for(rng, 220, breakpoints=())
        for tau in (0.05, 0.3):
            err = max_gradient_error(partial(smooth_ap_risk_rows, p=SmoothApParams(tau)), ctxs)
            assert err < TOL

    def test_infonce(self):
        rng = np.random.default_rng(13)
        ctxs = contexts_for(rng, 220, breakpoints=())
        for tau in (0.1, 1.0):
            err = max_gradient_error(partial(infonce_loss_rows, tau=tau), ctxs)
            assert err < TOL

    def test_triplet_and_contrastive(self):
        rng = np.random.default_rng(14)
        margin = 0.2
        ctxs = contexts_for(rng, 220, breakpoints=(-margin, margin))
        assert max_gradient_error(partial(triplet_loss_rows, margin=margin), ctxs) < TOL
        assert max_gradient_error(partial(contrastive_loss_rows, margin=margin), ctxs) < TOL

    def test_sshn(self):
        rng = np.random.default_rng(15)
        h = 1e-6
        worst = 0.0
        for _ in range(220):
            s = float(rng.uniform(0.05, 0.95))
            n = float(rng.uniform(0.05, 0.95))
            _, g_self, g_neg = sshn_loss_rows([s], [n])
            fd_s = (sshn_value(s + h, n) - sshn_value(s - h, n)) / (2 * h)
            fd_n = (sshn_value(s, n + h) - sshn_value(s, n - h)) / (2 * h)
            worst = max(worst, rel_err(g_self, [fd_s]))
            worst = max(worst, rel_err(g_neg, [fd_n]))
        assert worst < TOL

    def test_smooth_gradients_flow_through_positive_weights(self):
        # unlike the quad-linear risk, the smoothed denominator is live:
        # a positive's gradient must reflect the other positives
        rng = np.random.default_rng(16)
        q = random_safe_context(rng, 3, 3, breakpoints=())
        rows_fn = partial(smooth_ap_risk_rows, p=SmoothApParams(0.2))
        _, grad_pos, grad_neg = rows_fn(q.positives[None, :], q.negatives[None, :])
        gpos, gneg = fd_context_gradients(rows_fn, q)
        assert rel_err(grad_pos[0], gpos) < TOL
        assert rel_err(grad_neg[0], gneg) < TOL


class TestGradientContrast:
    def test_quadlinear_keeps_constant_slope_where_sigmoid_dies(self):
        from apranking.losses import r_minus_grad, sigmoid_surrogate_grad

        ql = r_minus_grad(0.5, 0.05)
        sg = sigmoid_surrogate_grad(0.5, 0.01)
        assert ql == pytest.approx(40.0)
        assert sg < 1e-18
        assert ql / sg > 1e15

    def test_full_risk_gradient_ordering_at_large_gap(self):
        # one badly mis-ranked pair: the quad-linear risk still moves the
        # negative, the smoothed risk effectively does not
        pos, neg = np.array([[0.2]]), np.array([[0.7]])
        g_ql = quadlinear_ap_risk_rows(pos, neg, QuadLinearParams(0.05, 1.0))[2][0, 0]
        g_sm = smooth_ap_risk_rows(pos, neg, SmoothApParams(0.01))[2][0, 0]
        assert abs(g_ql) > 1e-2
        assert abs(g_sm) < 1e-12
        assert abs(g_ql) > abs(g_sm) * 1e10
