"""Teacher-side frame similarity and rank-threshold labels."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apranking.errors import DegenerateInputError, ParameterError, StructuralError
from apranking.losses import heaviside_ap_risk
from apranking.pseudolabels import FrameEmbeddings, LabelRates, pseudo_label_indices, teacher_frame_similarities
from apranking.ranking import QueryContext
from apranking.synthetic import planted_correspondence_matrix


class TestTeacherSimilarity:
    def test_self_diagonal(self):
        rng = np.random.default_rng(0)
        a = FrameEmbeddings(rng.standard_normal((4, 6)))
        np.testing.assert_allclose(np.diag(teacher_frame_similarities([a], [a])[0]), 1.0, atol=1e-12)

    def test_orthogonal(self):
        a = FrameEmbeddings([[1.0, 0.0]])
        b = FrameEmbeddings([[0.0, 1.0]])
        assert teacher_frame_similarities([a], [b])[0, 0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_hand_cosine(self):
        a = FrameEmbeddings([[1.0, 0.0]])
        b = FrameEmbeddings([[0.6, 0.8]])
        assert teacher_frame_similarities([a], [b])[0, 0, 0] == pytest.approx(0.6, abs=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            teacher_frame_similarities([FrameEmbeddings([[0.0, 0.0]])], [FrameEmbeddings([[1.0, 0.0]])])


class TestLabelRates:
    def test_paper_default_counts(self):
        assert LabelRates(0.35, 0.35).counts(28) == (10, 9)

    def test_rejects_overlap(self):
        with pytest.raises(ParameterError):
            LabelRates(0.9, 0.9).counts(10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            LabelRates(0.0, 0.35)


class TestGeneratePseudoLabels:
    """The labels of one teacher matrix: a stack of one."""

    def test_sort_oracle_row(self):
        pos, neg = pseudo_label_indices(np.array([[0.9, 0.5, 0.2, 0.7]]), LabelRates(0.25, 0.25))
        assert (pos.tolist(), neg.tolist()) == ([[0]], [[2]])

    def test_constant_row_tie_break(self):
        pos, neg = pseudo_label_indices(np.zeros((1, 5)), LabelRates(0.4, 0.4))
        assert (pos.tolist(), neg.tolist()) == ([[0, 1]], [[3, 4]])

    @given(st.integers(0, 10_000))
    def test_counts_exact_per_row(self, seed):
        rng = np.random.default_rng(seed)
        t, tc = int(rng.integers(1, 8)), int(rng.integers(3, 30))
        r_t, r_b = float(rng.uniform(0.05, 0.4)), float(rng.uniform(0.05, 0.4))
        rates = LabelRates(r_t, r_b)
        npos, nneg = rates.counts(tc)
        pos, neg = pseudo_label_indices(rng.standard_normal((t, tc)), rates)
        assert pos.shape == (t, npos) and neg.shape == (t, nneg)
        for row in np.concatenate([pos, neg], axis=1):
            assert np.unique(row).size == row.size  # distinct, none on both sides

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        emb = rng.standard_normal((5, 7))
        a, b = FrameEmbeddings(emb), FrameEmbeddings(rng.standard_normal((6, 7)))
        rates = LabelRates(0.3, 0.3)
        before = pseudo_label_indices(teacher_frame_similarities([a], [b]), rates)
        scaled = FrameEmbeddings(emb * 3.7)
        after = pseudo_label_indices(teacher_frame_similarities([scaled], [b]), rates)
        for x, y in zip(before, after):
            np.testing.assert_array_equal(x, y)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        sim = rng.standard_normal((6, 9))
        rates = LabelRates(0.3, 0.3)
        for x, y in zip(pseudo_label_indices(sim, rates), pseudo_label_indices(sim.copy(), rates)):
            np.testing.assert_array_equal(x, y)

    def test_planted_precision_is_total_below_overlap(self):
        for overlap in (0.3, 0.5):
            sim, mask = planted_correspondence_matrix(12, 20, overlap, seed=5)
            for r_t in (0.1, 0.2, overlap):
                pos, _ = pseudo_label_indices(sim, LabelRates(r_t, 0.2))
                assert pos.size > 0
                assert np.all(np.take_along_axis(mask, pos, axis=1)), "a pseudo-positive fell outside the planted set"

    def test_student_equals_teacher_gives_zero_risk(self):
        rng = np.random.default_rng(3)
        sim = rng.standard_normal((5, 11))
        for row, row_pos, row_neg in zip(sim, *pseudo_label_indices(sim, LabelRates(0.3, 0.3))):
            assert heaviside_ap_risk(QueryContext(row[row_pos], row[row_neg])) == 0.0


def one_pair_teacher(a, b):
    """Oracle: the frame-pair cosines of one clip pair as one product."""
    na = np.linalg.norm(a.data, axis=1, keepdims=True)
    nb = np.linalg.norm(b.data, axis=1, keepdims=True)
    return (a.data / na) @ (b.data / nb).T


def argsort_labels(sim, rates):
    """Oracle: the label grid (1 positive, -1 negative, 0 ignored) from a
    stable descending argsort per matrix."""
    t, tc = sim.shape
    npos, nneg = rates.counts(tc)
    order = np.argsort(-sim, axis=1, kind="stable")
    labels = np.zeros((t, tc), dtype=np.int8)
    rows = np.arange(t)[:, None]
    labels[rows, order[:, :npos]] = 1
    if nneg:
        labels[rows, order[:, tc - nneg :]] = -1
    return labels


def tied_frames(rng, t, d):
    """Frame features drawn from a small pool, so that frames repeat within
    and across clips and teacher cosines tie exactly."""
    pool = np.concatenate([np.eye(d), -np.eye(d), np.round(rng.standard_normal((3, d)), 1) + 0.05])
    return FrameEmbeddings(pool[rng.integers(0, len(pool), size=t)])


class TestStackedLabels:
    """The stacked teacher gram and labeling that training runs, against
    per-pair oracles, bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_stack_matches_per_pair(self, seed):
        rng = np.random.default_rng(seed)
        t, tc, d = int(rng.integers(1, 9)), int(rng.integers(2, 12)), int(rng.integers(2, 6))
        rates = LabelRates(float(rng.uniform(0.05, 0.45)), float(rng.uniform(0.05, 0.45)))
        pairs = int(rng.integers(1, 12))
        if seed % 2:
            queries = [tied_frames(rng, t, d) for _ in range(pairs)]
            candidates = [tied_frames(rng, tc, d) for _ in range(pairs)]
        else:
            queries = [FrameEmbeddings(rng.standard_normal((t, d))) for _ in range(pairs)]
            candidates = [FrameEmbeddings(rng.standard_normal((tc, d))) for _ in range(pairs)]
        stack = teacher_frame_similarities(queries, candidates)
        pos, neg = pseudo_label_indices(stack, rates)
        for p, (a, b) in enumerate(zip(queries, candidates)):
            sim = one_pair_teacher(a, b)
            assert np.array_equal(stack[p], sim) and np.array_equal(np.signbit(stack[p]), np.signbit(sim))
            expected = argsort_labels(sim, rates)
            for x in range(t):
                assert np.array_equal(pos[p, x], np.flatnonzero(expected[x] == 1))
                assert np.array_equal(neg[p, x], np.flatnonzero(expected[x] == -1))

    def test_tied_rows_prefer_lower_columns(self):
        stack = np.array([[[0.5, 0.5, 0.5, 0.5, 0.5]], [[0.0, 1.0, 0.0, 1.0, 0.0]]])
        pos, neg = pseudo_label_indices(stack, LabelRates(0.4, 0.4))
        assert pos.tolist() == [[[0, 1]], [[1, 3]]]
        assert neg.tolist() == [[[3, 4]], [[2, 4]]]

    def test_zero_norm_frame_rejected(self):
        good = FrameEmbeddings([[1.0, 0.0], [0.0, 1.0]])
        zero = FrameEmbeddings([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateInputError):
            teacher_frame_similarities([good, good], [good, zero])
        with pytest.raises(DegenerateInputError):
            teacher_frame_similarities([zero], [good])

    def test_shape_checks(self):
        a, b = FrameEmbeddings(np.ones((2, 3))), FrameEmbeddings(np.ones((4, 3)))
        with pytest.raises(StructuralError):
            teacher_frame_similarities([a], [FrameEmbeddings(np.ones((2, 2)))])
        with pytest.raises(StructuralError):
            teacher_frame_similarities([a, b], [a, a])
        with pytest.raises(StructuralError):
            teacher_frame_similarities([a], [])
        with pytest.raises(StructuralError):
            pseudo_label_indices(np.zeros(4), LabelRates())
