"""Exact AP/mAP/micro-AP values, oracle equivalence, and rank-invariances."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apranking.errors import UndefinedMetricError
from apranking.losses import heaviside_ap_risk
from apranking.metrics import (
    average_precision,
    brute_force_ap,
    evaluate_retrieval,
    mean_ap,
    micro_ap,
)
from apranking.ranking import RelevanceMatrix, ScoredList


def random_distinct_list(rng, n=None):
    n = n or int(rng.integers(2, 65))
    scores = rng.permutation(np.linspace(-1.0, 1.0, n))
    labels = rng.integers(0, 2, size=n)
    if not labels.any():
        labels[int(rng.integers(0, n))] = 1
    return ScoredList(scores, labels)


class TestAveragePrecision:
    def test_hand_anchor(self):
        assert average_precision(ScoredList([0.9, 0.8, 0.7], [1, 0, 1])) == 5 / 6

    def test_all_positives_first(self):
        assert average_precision(ScoredList([0.9, 0.8, 0.1], [1, 1, 0])) == 1.0

    def test_single_positive_last(self):
        assert average_precision(ScoredList([0.9, 0.8, 0.7, 0.1], [0, 0, 0, 1])) == 0.25

    def test_no_positives_raises(self):
        with pytest.raises(UndefinedMetricError):
            average_precision(ScoredList([0.5], [0]))

    @given(st.randoms(use_true_random=False))
    def test_permutation_invariant(self, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        sl = random_distinct_list(rng)
        perm = rng.permutation(sl.scores.size)
        assert average_precision(ScoredList(sl.scores[perm], sl.labels[perm])) == average_precision(sl)

    @given(st.randoms(use_true_random=False))
    def test_monotone_transform_invariant(self, rnd):
        rng = np.random.default_rng(rnd.randint(0, 2**31))
        sl = random_distinct_list(rng)
        warped = ScoredList(np.tanh(sl.scores) * 3.0 + 1.0, sl.labels)
        assert average_precision(warped) == average_precision(sl)


class TestOracleEquivalence:
    def test_brute_force_matches_exactly(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            sl = random_distinct_list(rng)
            assert brute_force_ap(sl) == average_precision(sl)

    def test_risk_complement_matches_exactly(self):
        rng = np.random.default_rng(2025)
        for _ in range(300):
            sl = random_distinct_list(rng)
            assert 1.0 - average_precision(sl) == heaviside_ap_risk(sl.to_query_context())

    def test_brute_force_matches_exactly_with_ties(self):
        rng = np.random.default_rng(2026)
        for _ in range(300):
            n = int(rng.integers(2, 40))
            scores = np.round(rng.standard_normal(n), int(rng.integers(0, 2)))
            labels = rng.integers(0, 2, size=n)
            labels[int(rng.integers(0, n))] = 1
            sl = ScoredList(scores, labels)
            assert brute_force_ap(sl) == average_precision(sl)

    def test_brute_force_tied_block_is_optimistic(self):
        # the positive tied with a negative at 0.5 ranks first: AP (1 + 2/3) / 2
        assert brute_force_ap(ScoredList([0.5, 0.5, 0.1], [0, 1, 1])) == 5 / 6

    def test_brute_force_inverted_list(self):
        assert brute_force_ap(ScoredList([0.9, 0.8, 0.7, 0.1], [0, 0, 0, 1])) == 0.25


class TestMeanAp:
    def test_mean(self):
        q1 = ScoredList([0.9, 0.1], [1, 0])  # AP 1.0
        q2 = ScoredList([0.9, 0.8], [0, 1])  # AP 0.5
        assert mean_ap([q1, q2]) == 0.75

    def test_single_query(self):
        q = ScoredList([0.9, 0.8, 0.7], [1, 0, 1])
        assert mean_ap([q]) == average_precision(q)

    def test_skips_positive_free_queries(self):
        q1 = ScoredList([0.9, 0.1], [1, 0])
        q2 = ScoredList([0.9, 0.8], [0, 0])
        assert mean_ap([q1, q2]) == 1.0

    def test_no_valid_queries_raises(self):
        with pytest.raises(UndefinedMetricError):
            mean_ap([ScoredList([0.5], [0])])


class TestMicroAp:
    def test_pooled_hand_anchor(self):
        q1 = ScoredList([0.9, 0.1], [1, 0])
        q2 = ScoredList([0.8, 0.7], [0, 1])
        assert micro_ap([q1, q2]) == float(5 / 6)

    def test_perfectly_calibrated(self):
        q1 = ScoredList([0.9, 0.1], [1, 0])
        q2 = ScoredList([0.8, 0.2], [1, 0])
        assert micro_ap([q1, q2]) == 1.0

    def test_miscalibration_hurts_micro_but_not_macro(self):
        q1 = ScoredList([0.6, 0.5], [1, 0])
        q2 = ScoredList([0.9, 0.8], [1, 0])
        assert mean_ap([q1, q2]) == 1.0
        assert micro_ap([q1, q2]) < mean_ap([q1, q2])

    def test_single_query_equals_ap(self):
        q = ScoredList([0.9, 0.8, 0.7], [1, 0, 1])
        assert micro_ap([q]) == average_precision(q) == mean_ap([q])

    def test_tie_rules_differ_from_per_query_ap(self):
        # per-query AP ranks a tied positive above its negative; micro-AP
        # keeps the pooled item order (query, then item) among tied scores
        tied = ScoredList([0.5, 0.5], [0, 1])
        assert average_precision(tied) == 1.0
        assert micro_ap([tied]) == 0.5
        q1 = ScoredList([0.9, 0.5], [1, 0])
        q2 = ScoredList([0.5, 0.1], [1, 0])
        assert mean_ap([q1, q2]) == 1.0
        assert micro_ap([q1, q2]) == float(5 / 6)

    def test_global_monotone_transform_invariant(self):
        q1 = ScoredList([0.6, 0.5], [1, 0])
        q2 = ScoredList([0.9, 0.8], [0, 1])
        warped = [ScoredList(2 * q.scores + 1, q.labels) for q in (q1, q2)]
        assert micro_ap(warped) == micro_ap([q1, q2])


class TestEvaluateRetrieval:
    def test_excludes_diagonal(self):
        sim = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.2], [0.1, 0.2, 1.0]])
        rel = RelevanceMatrix.from_groups([0, 0, 1])
        report = evaluate_retrieval(sim, rel)
        # query 2 has no positives once the diagonal is dropped
        assert report.num_queries == 2
        assert report.map == 1.0

    def test_report_fields_consistent(self):
        rng = np.random.default_rng(5)
        sim = rng.uniform(-1, 1, size=(8, 8))
        rel = RelevanceMatrix.from_groups([0, 0, 1, 1, 2, 2, 3, 3])
        report = evaluate_retrieval(sim, rel)
        assert report.num_queries == 8
        assert 0.0 <= report.micro_ap <= 1.0
        assert report.map == pytest.approx(float(np.mean(report.ap_per_query)))
