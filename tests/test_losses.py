"""Loss values: hand anchors, degenerate cases, and structural properties.

Gradient correctness lives in test_gradients.py; this module pins the
piecewise surrogate maps and the listwise/pairwise loss values themselves.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apranking.errors import DegenerateInputError, ParameterError, StructuralError
from apranking.losses import (
    QuadLinearParams,
    SmoothApParams,
    contrastive_loss_rows,
    heaviside_ap_risk,
    infonce_loss_rows,
    matrix_loss,
    quadlinear_ap_risk_rows,
    r_minus,
    r_minus_grad,
    sigmoid_surrogate,
    sigmoid_surrogate_grad,
    smooth_ap_risk_rows,
    sshn_loss_rows,
    sshn_matrix_loss,
    triplet_loss_rows,
)
from apranking.ranking import QueryContext, RelevanceMatrix, heaviside, partition_query


def one_query(rows_fn, pos, neg, *params):
    """(value, grad_pos, grad_neg) of one query: the rows function on a
    stack of one row."""
    values, grad_pos, grad_neg = rows_fn(
        np.atleast_2d(np.asarray(pos, dtype=np.float64)),
        np.atleast_2d(np.asarray(neg, dtype=np.float64)),
        *params,
    )
    return values[0], grad_pos[0], grad_neg[0]


def value(rows_fn, pos, neg, *params):
    return one_query(rows_fn, pos, neg, *params)[0]


class TestRMinus:
    def test_dead_zone_boundary(self):
        assert r_minus(-0.05, 0.05) == 0.0

    def test_constant_term(self):
        assert r_minus(0.0, 0.05) == 1.0

    def test_quadratic_branch(self):
        assert r_minus(-0.025, 0.05) == pytest.approx(0.25, abs=1e-15)

    def test_linear_branch(self):
        assert r_minus(0.1, 0.05) == pytest.approx(5.0, abs=1e-12)

    def test_rejects_bad_delta(self):
        with pytest.raises(ParameterError):
            r_minus(0.0, 0.0)

    @given(st.floats(-3, 3), st.floats(1e-3, 1.0))
    def test_upper_bounds_heaviside(self, x, delta):
        assert r_minus(x, delta) >= heaviside(x)

    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 1), st.floats(1e-3, 1.0))
    def test_midpoint_convexity(self, x1, x2, t, delta):
        lhs = t * r_minus(x1, delta) + (1 - t) * r_minus(x2, delta)
        rhs = r_minus(t * x1 + (1 - t) * x2, delta)
        assert lhs >= rhs - 1e-12

    @given(st.floats(-2, 2), st.floats(0, 2), st.floats(1e-3, 1.0))
    def test_nondecreasing(self, x, step, delta):
        assert r_minus(x + step, delta) >= r_minus(x, delta) - 1e-15


class TestRMinusGrad:
    def test_linear_branch(self):
        assert r_minus_grad(0.1, 0.05) == pytest.approx(40.0)

    def test_zero_at_dead_zone_edge(self):
        assert r_minus_grad(-0.05, 0.05) == 0.0

    def test_quadratic_branch(self):
        assert r_minus_grad(-0.025, 0.05) == pytest.approx(20.0)

    @given(st.floats(-2, 2), st.floats(1e-2, 1.0))
    def test_matches_finite_difference(self, x, delta):
        # stay off the kinks; the one-sided limits are tested separately
        if min(abs(x), abs(x + delta)) < 1e-4:
            return
        h = 1e-7
        fd = (r_minus(x + h, delta) - r_minus(x - h, delta)) / (2 * h)
        assert r_minus_grad(x, delta) == pytest.approx(fd, rel=1e-5, abs=1e-6)

    @given(st.floats(-2, 2), st.floats(1e-2, 1.0))
    def test_lipschitz_continuity(self, x, delta):
        # |grad'| <= 2/delta^2 everywhere, including across the kinks
        eps = 1e-9
        jump = abs(r_minus_grad(x + eps, delta) - r_minus_grad(x, delta))
        assert jump <= 2.0 / delta**2 * eps + 1e-12


class TestSigmoidSurrogate:
    def test_symmetry_point(self):
        assert sigmoid_surrogate(0.0, 0.01) == 0.5

    def test_saturates_to_one(self):
        assert sigmoid_surrogate(0.5, 0.01) == pytest.approx(1.0, abs=1e-12)

    def test_tail_gradient_vanishes(self):
        assert sigmoid_surrogate_grad(0.5, 0.01) < 1e-18

    def test_extreme_inputs_saturate_exactly(self):
        assert sigmoid_surrogate(100.0, 0.01) == 1.0
        assert sigmoid_surrogate(-100.0, 0.01) == 0.0

    def test_rejects_bad_tau(self):
        with pytest.raises(ParameterError):
            sigmoid_surrogate(0.0, -1.0)

    @given(st.floats(-30, 30), st.floats(1e-2, 10.0))
    def test_grad_matches_identity(self, x, tau):
        g = sigmoid_surrogate(x, tau)
        assert sigmoid_surrogate_grad(x, tau) == pytest.approx(g * (1 - g) / tau, abs=1e-12)


class TestQuadLinearRisk:
    def test_hand_anchor(self):
        risk = value(quadlinear_ap_risk_rows, [0.8, 0.4], [0.6], QuadLinearParams(0.05, 1.0))
        assert risk == pytest.approx(9 / 22, abs=1e-12)

    def test_dead_zone_gives_zero(self):
        risk, gpos, gneg = one_query(quadlinear_ap_risk_rows, [0.9], [0.1], QuadLinearParams(0.05, 1.0))
        assert risk == 0.0
        assert np.all(gpos == 0) and np.all(gneg == 0)

    def test_empty_negatives(self):
        assert value(quadlinear_ap_risk_rows, [0.5], [], QuadLinearParams(0.05, 1.0)) == 0.0

    def test_empty_positives_skipped(self):
        # a rows function takes only rows with a positive; matrix_loss skips
        # a query without one (TestBatchLoss)
        with pytest.raises(StructuralError):
            quadlinear_ap_risk_rows(np.zeros((1, 0)), [[0.5]], QuadLinearParams(0.05, 1.0))

    def test_rho_weighting_shrinks_terms(self):
        low = value(quadlinear_ap_risk_rows, [0.8, 0.4], [0.6], QuadLinearParams(0.05, 0.0))
        high = value(quadlinear_ap_risk_rows, [0.8, 0.4], [0.6], QuadLinearParams(0.05, 5.0))
        assert high < low

    @given(st.floats(-0.5, 0.5))
    def test_score_shift_invariance(self, c):
        pos, neg = np.array([0.8, 0.41]), np.array([0.57, 0.13])
        p = QuadLinearParams(0.05, 0.7)
        assert value(quadlinear_ap_risk_rows, pos + c, neg + c, p) == pytest.approx(
            value(quadlinear_ap_risk_rows, pos, neg, p), abs=1e-12
        )

    def test_vectorized_rows_match_scalar_path(self):
        rng = np.random.default_rng(0)
        p = QuadLinearParams(0.05, 0.8)
        pos = rng.uniform(-1, 1, size=(40, 3))
        neg = rng.uniform(-1, 1, size=(40, 5))
        values, gpos, gneg = quadlinear_ap_risk_rows(pos, neg, p)
        for q in range(40):
            risk, gpos_q, gneg_q = one_query(quadlinear_ap_risk_rows, pos[q], neg[q], p)
            assert values[q] == pytest.approx(risk, abs=1e-14)
            np.testing.assert_allclose(gpos[q], gpos_q, atol=1e-14)
            np.testing.assert_allclose(gneg[q], gneg_q, atol=1e-14)


class TestHeavisideRisk:
    def test_hand_anchor(self):
        risk = heaviside_ap_risk(QueryContext([0.8, 0.4], [0.6]))
        assert risk == pytest.approx(1 / 6, abs=1e-12)

    def test_perfect_ranking(self):
        assert heaviside_ap_risk(QueryContext([0.9, 0.8], [0.1])) == 0.0

    def test_fully_inverted(self):
        assert heaviside_ap_risk(QueryContext([0.1], [0.9])) == pytest.approx(0.5, abs=1e-15)

    def test_quadlinear_with_step_matches_exact_risk(self):
        # replace the quad-linear map by the strict step at rho=1: the exact
        # rational evaluation of that form must reproduce heaviside_ap_risk
        from fractions import Fraction

        rng = np.random.default_rng(1)
        for _ in range(200):
            npos, nneg = rng.integers(1, 6), rng.integers(0, 6)
            scores = rng.permutation(np.linspace(-1, 1, npos + nneg))
            q = QueryContext(scores[:npos], scores[npos:])
            total = Fraction(0)
            for s in q.positives:
                num = int(np.count_nonzero(q.negatives > s))
                den = 1 + int(np.count_nonzero(q.positives > s))
                total += Fraction(num, den) / (1 + Fraction(num, den))
            expected = 1.0 - float(1 - total / len(q.positives))
            assert heaviside_ap_risk(q) == expected


class TestSmoothApRisk:
    def test_saturates_to_exact_risk_when_separated(self):
        # all positives above all negatives by at least 0.2: the smoothed
        # risk collapses to the exact (zero) risk as tau -> 0
        q = QueryContext([0.8, 0.7], [0.5, 0.3])
        smooth = value(smooth_ap_risk_rows, q.positives, q.negatives, SmoothApParams(0.001))
        exact = heaviside_ap_risk(q)
        assert abs(smooth - exact) < 1e-6

    def test_symmetric_point(self):
        risk = value(smooth_ap_risk_rows, [0.5], [0.5], SmoothApParams(0.3))
        assert risk == pytest.approx(0.5 / (1 + 0.5 + 0.5), abs=1e-12)

    def test_empty_negatives(self):
        assert value(smooth_ap_risk_rows, [0.5], [], SmoothApParams(0.1)) == 0.0

    @given(st.floats(-0.5, 0.5))
    def test_score_shift_invariance(self, c):
        pos, neg = np.array([0.8, 0.41]), np.array([0.57, 0.13])
        p = SmoothApParams(0.05)
        assert value(smooth_ap_risk_rows, pos + c, neg + c, p) == pytest.approx(
            value(smooth_ap_risk_rows, pos, neg, p), abs=1e-12
        )


class TestPairwiseBaselines:
    def test_triplet_satisfied_margin(self):
        assert value(triplet_loss_rows, [0.9], [0.1], 0.2) == 0.0

    def test_triplet_violated_margin(self):
        assert value(triplet_loss_rows, [0.4], [0.6], 0.2) == pytest.approx(0.4)

    def test_triplet_shift_invariant(self):
        pos, neg = np.array([0.4, 0.2]), np.array([0.6, 0.1])
        assert value(triplet_loss_rows, pos + 0.3, neg + 0.3, 0.2) == pytest.approx(
            value(triplet_loss_rows, pos, neg, 0.2), abs=1e-12
        )

    def test_contrastive_perfect(self):
        assert value(contrastive_loss_rows, [1.0], [0.0], 0.2) == 0.0

    def test_contrastive_pulls_and_pushes(self):
        loss = value(contrastive_loss_rows, [0.6], [0.5], 0.2)
        assert loss == pytest.approx(((1 - 0.6) + (0.5 - 0.2)) / 2)

    def test_rejects_negative_margin(self):
        with pytest.raises(ParameterError):
            triplet_loss_rows([[0.5]], [[0.1]], -0.1)


class TestInfoNce:
    def test_hand_anchor(self):
        loss = value(infonce_loss_rows, [0.8], [0.2], 1.0)
        assert loss == pytest.approx(np.log1p(np.exp(-0.6)), abs=1e-12)

    def test_dominant_positive_vanishes(self):
        assert value(infonce_loss_rows, [50.0], [0.0], 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_point(self):
        assert value(infonce_loss_rows, [0.5], [0.5], 1.0) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_empty_positives_skipped(self):
        with pytest.raises(StructuralError):
            infonce_loss_rows(np.zeros((1, 0)), [[0.5]], 1.0)


def sshn(self_sim, hardest_negative):
    """(value, d/d(self_sim), d/d(hardest_negative)) of one row."""
    values, g_self, g_neg = sshn_loss_rows([self_sim], [hardest_negative])
    return values[0], g_self[0], g_neg[0]


class TestSshn:
    def test_perfect(self):
        assert sshn(1.0, 0.0)[0] == 0.0

    def test_hand_anchor(self):
        assert sshn(0.5, 0.5)[0] == pytest.approx(2 * np.log(2.0), abs=1e-12)

    def test_singularity_clamped(self):
        assert sshn(0.0, 0.0)[0] == pytest.approx(-np.log(1e-6))

    def test_rejects_out_of_range(self):
        with pytest.raises(DegenerateInputError):
            sshn(1.5, 0.0)


class TestBatchLoss:
    def rel3(self):
        return RelevanceMatrix.from_groups([0, 0, 1])

    def test_mean_of_identical_queries(self):
        sim = np.array([[1.0, 0.4, 0.6], [0.4, 1.0, 0.6], [0.6, 0.6, 1.0]])
        p = QuadLinearParams(0.05, 1.0)
        out = matrix_loss(sim, self.rel3(), partial(quadlinear_ap_risk_rows, p=p))
        q0 = value(quadlinear_ap_risk_rows, [0.4], [0.6], p)
        assert out.active_queries == 2
        # query 2 has no positives and is skipped; queries 0 and 1 are twins
        assert out.value == pytest.approx(q0, abs=1e-12)

    def test_all_skipped(self):
        sim = np.eye(3)
        rel = RelevanceMatrix.from_groups([0, 1, 2])
        out = matrix_loss(sim, rel, partial(quadlinear_ap_risk_rows, p=QuadLinearParams(0.05, 1.0)))
        assert out.value == 0.0 and out.active_queries == 0
        assert np.all(out.grad == 0)

    def test_symmetric_three_by_three_hand_value(self):
        sim = np.array([[1.0, 0.8, 0.3], [0.8, 1.0, 0.5], [0.3, 0.5, 1.0]])
        p = QuadLinearParams(0.05, 1.0)
        out = matrix_loss(sim, self.rel3(), partial(quadlinear_ap_risk_rows, p=p))
        r0 = value(quadlinear_ap_risk_rows, [0.8], [0.3], p)
        r1 = value(quadlinear_ap_risk_rows, [0.8], [0.5], p)
        assert out.value == pytest.approx((r0 + r1) / 2, abs=1e-12)

    def test_gradient_zero_on_diagonal_and_skipped_rows(self):
        sim = np.array([[1.0, 0.4, 0.6], [0.4, 1.0, 0.6], [0.6, 0.6, 1.0]])
        out = matrix_loss(sim, self.rel3(), partial(quadlinear_ap_risk_rows, p=QuadLinearParams(0.05, 1.0)))
        assert np.all(np.diag(out.grad) == 0)
        assert np.all(out.grad[2] == 0)


def _per_row_matrix_loss(sim, rel, rows_fn):
    """Reference: one partition_query per row, each through the rows
    function as a stack of one row, summed in a Python loop; the grouping
    matrix_loss does is not used."""
    n = rel.n
    grad = np.zeros_like(sim)
    total = 0.0
    active = 0
    for k in range(n):
        q = partition_query(sim[k], rel.entries[k], k)
        if q.num_positives == 0:
            continue
        values, grad_pos, grad_neg = rows_fn(q.positives[None, :], q.negatives[None, :])
        active += 1
        total += float(values[0])
        keep = np.arange(n) != k
        grad[k, keep & (rel.entries[k] == 1)] = grad_pos[0]
        grad[k, keep & (rel.entries[k] == 0)] = grad_neg[0]
    if active == 0:
        return 0.0, np.zeros_like(sim), 0
    return total / active, grad / active, active


def _per_row_sshn(sim, rel):
    """Reference: the SSHN loss row by row, each as a stack of one row,
    against the first maximal negative."""
    n = rel.n
    grad = np.zeros_like(sim)
    total = 0.0
    for k in range(n):
        neg_idx = np.flatnonzero((np.arange(n) != k) & (rel.entries[k] == 0))
        if neg_idx.size:
            j = neg_idx[int(np.argmax(sim[k, neg_idx]))]
            loss, g_self, g_neg = sshn(sim[k, k], sim[k, j])
            grad[k, j] += g_neg
        else:
            loss, g_self, _ = sshn(sim[k, k], 0.0)
        grad[k, k] += g_self
        total += float(loss)
    return total / n, grad / n, n


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _matrices(seed, count=60):
    """Similarity matrices over group-balanced, ragged, single-group (no
    negatives) and singleton (all skipped) batches; every other one has
    scores rounded to 0.1, so ties occur."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        kind = i % 4
        if kind == 0:
            groups = np.repeat(np.arange(4), 4)
        elif kind == 1:
            n = int(rng.integers(3, 20))
            groups = rng.integers(0, int(rng.integers(2, 7)), size=n)
        elif kind == 2:
            groups = np.zeros(int(rng.integers(2, 6)), dtype=int)
        else:
            groups = np.arange(int(rng.integers(1, 6)))
        sim = rng.uniform(-1.0, 1.0, size=(groups.size, groups.size))
        if i % 2:
            sim = np.round(sim, 1)
        yield sim, RelevanceMatrix.from_groups(groups)


ROW_FORMS = {
    "quadlinear": partial(quadlinear_ap_risk_rows, p=QuadLinearParams(0.05, 0.7)),
    "smooth": partial(smooth_ap_risk_rows, p=SmoothApParams(0.05)),
    "triplet": partial(triplet_loss_rows, margin=0.2),
    "contrastive": partial(contrastive_loss_rows, margin=0.2),
    "infonce": partial(infonce_loss_rows, tau=0.1),
}


class TestMatrixLossMatchesPerQuery:
    """matrix_loss's stacks of equal-count rows give what the per-row loop
    over one-row stacks gives, bit for bit: value, every gradient entry,
    active count."""

    @pytest.mark.parametrize("name", sorted(ROW_FORMS))
    def test_rows_form_bitwise(self, name):
        rows_fn = ROW_FORMS[name]
        for sim, rel in _matrices(seed=len(name)):
            out = matrix_loss(sim, rel, rows_fn)
            loss, grad, active = _per_row_matrix_loss(sim, rel, rows_fn)
            assert _bits(out.value) == _bits(loss)
            assert _bits(out.grad) == _bits(grad)
            assert out.active_queries == active

    def test_sshn_bitwise(self):
        for sim, rel in _matrices(seed=11):
            out = sshn_matrix_loss(sim, rel)
            loss, grad, n = _per_row_sshn(sim, rel)
            assert _bits(out.value) == _bits(loss)
            assert _bits(out.grad) == _bits(grad)
            assert out.active_queries == n

    def test_sshn_rows_reject_out_of_range(self):
        sim = np.array([[1.0, 1.5], [0.2, 1.0]])
        with pytest.raises(DegenerateInputError, match="hardest_negative=1.5"):
            sshn_matrix_loss(sim, RelevanceMatrix.from_groups([0, 1]))

    def test_non_finite_off_diagonal_rejected(self):
        rel = RelevanceMatrix.from_groups([0, 0, 1])
        sim = np.full((3, 3), 0.5)
        sim[1, 1] = np.nan  # the diagonal is neither positive nor negative
        matrix_loss(sim, rel, ROW_FORMS["triplet"])
        sim[0, 2] = np.inf
        with pytest.raises(StructuralError, match="finite"):
            matrix_loss(sim, rel, ROW_FORMS["triplet"])
