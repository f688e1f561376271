"""Exact AP/mAP/micro-AP values, oracle equivalence, and rank-invariances."""

import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apranking import metrics
from apranking.errors import UndefinedMetricError
from apranking.losses import heaviside_ap_risk
from apranking.errors import StructuralError
from apranking.metrics import (
    average_precision,
    brute_force_ap,
    evaluate_retrieval,
    pooled_positions,
    retrieval_report,
)
from apranking.ranking import RelevanceMatrix, ScoredList


def reference_micro_ap(queries) -> float:
    """Oracle of the numpy micro-AP: a Python sort of the pooled scores
    (stable, so tied items keep query then item order) and one exact
    Fraction per positive. Queries without a positive are left out of the
    pool, as the report leaves them out."""
    pooled_scores = []
    pooled_labels = []
    for q in filter(lambda q: q.labels.any(), queries):
        pooled_scores.extend(q.scores.tolist())
        pooled_labels.extend(q.labels.tolist())
    total_pos = sum(pooled_labels)
    if total_pos == 0:
        raise UndefinedMetricError("no positive label in the pooled list")
    order = sorted(range(len(pooled_scores)), key=lambda i: -pooled_scores[i])
    hits = 0
    total = Fraction(0)
    for position, idx in enumerate(order, start=1):
        if pooled_labels[idx] == 1:
            hits += 1
            total += Fraction(hits, position) * Fraction(1, total_pos)
    return float(total)


# a few values, both zeros among them, so that most lists hold ties
TIED_SCORES = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0])
SCORES = st.one_of(TIED_SCORES, st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def scored_lists(draw, max_size=40, need_positive=True):
    scores = draw(st.lists(SCORES, min_size=1, max_size=max_size))
    n = len(scores)
    kind = draw(st.sampled_from(["random", "one positive", "all positives"]))
    if kind == "all positives":
        labels = [1] * n
    elif kind == "one positive":
        labels = [0] * n
        labels[draw(st.integers(0, n - 1))] = 1
    else:
        labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        if need_positive and not any(labels):
            labels[0] = 1
    return ScoredList(scores, labels)


def stacked(queries):
    """The (queries, items) stack of ragged queries, each padded to the
    longest with -inf scores and label 0."""
    width = max((q.scores.size for q in queries), default=0)
    scores = np.full((len(queries), width), -np.inf)
    labels = np.zeros((len(queries), width), dtype=int)
    for row, q in enumerate(queries):
        scores[row, : q.scores.size], labels[row, : q.scores.size] = q.scores, q.labels
    return scores, labels


def pooled_micro_ap(queries) -> float:
    """Micro-AP of ragged queries, from the one report path."""
    return retrieval_report(*stacked(queries)).micro_ap


def tied_queries(rng, num_queries, max_items):
    """Ragged queries with scores rounded to 0 or 1 decimal: ties within
    and across queries, and signed zeros."""
    out = []
    for _ in range(num_queries):
        n = int(rng.integers(1, max_items + 1))
        scores = np.round(rng.standard_normal(n), int(rng.integers(0, 2)))
        scores[rng.uniform(size=n) < 0.1] = -0.0
        out.append(ScoredList(scores, (rng.uniform(size=n) < 0.3).astype(int)))
    return out


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

    @given(scored_lists())
    def test_tied_lists_match_brute_force(self, sl):
        assert average_precision(sl) == brute_force_ap(sl)

    @given(scored_lists())
    def test_tied_lists_match_exact_risk(self, sl):
        assert 1.0 - average_precision(sl) == heaviside_ap_risk(sl.to_query_context())

    def test_signed_zeros_tie(self):
        sl = ScoredList([0.0, -0.0, -0.0, 0.0], [0, 1, 0, 1])
        assert average_precision(sl) == brute_force_ap(sl) == 1.0


@st.composite
def score_stacks(draw):
    """(queries, items) scores with ties and signed zeros, and binary labels
    with a positive in every row."""
    q, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    scores = np.array(draw(st.lists(SCORES, min_size=q * n, max_size=q * n))).reshape(q, n)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=q * n, max_size=q * n))).reshape(q, n)
    labels[np.arange(q), draw(st.lists(st.integers(0, n - 1), min_size=q, max_size=q))] = 1
    return scores, labels


class TestAveragePrecisionRows:
    @given(score_stacks())
    def test_rows_match_single_query_ap_and_oracles(self, stack):
        aps = list(retrieval_report(*stack).ap_per_query)
        lists = [ScoredList(s, l) for s, l in zip(*stack)]
        assert aps == [average_precision(q) for q in lists]
        assert aps == [brute_force_ap(q) for q in lists]
        assert [1.0 - ap for ap in aps] == [heaviside_ap_risk(q.to_query_context()) for q in lists]

    @given(st.data())
    def test_padded_and_all_positive_rows_match_brute_force(self, data):
        # -inf pads on negatives, rows whose items are all positive, ties
        q, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
        scores = np.array(data.draw(st.lists(SCORES, min_size=q * n, max_size=q * n))).reshape(q, n)
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=q * n, max_size=q * n))).reshape(q, n)
        labels[np.array(data.draw(st.lists(st.booleans(), min_size=q, max_size=q)))] = 1
        labels[np.arange(q), data.draw(st.lists(st.integers(0, n - 1), min_size=q, max_size=q))] = 1
        pad = np.array(data.draw(st.lists(st.booleans(), min_size=q * n, max_size=q * n))).reshape(q, n) & (labels == 0)
        lists = [ScoredList(s[~p], l[~p]) for s, l, p in zip(scores, labels, pad)]
        scores[pad] = -np.inf
        assert retrieval_report(scores, labels).ap_per_query == tuple(brute_force_ap(sl) for sl in lists)

    def test_row_without_positive_raises(self):
        # the report skips a row without positives, and raises when no row
        # is left; the AP of such a row alone raises
        report = retrieval_report([[0.9, 0.1], [0.5, 0.4]], [[1, 0], [0, 0]])
        assert (report.ap_per_query, report.num_queries) == ((1.0,), 1)
        with pytest.raises(UndefinedMetricError):
            retrieval_report([[0.5, 0.4]], [[0, 0]])
        with pytest.raises(UndefinedMetricError):
            average_precision(ScoredList([0.5, 0.4], [0, 0]))

    @pytest.mark.parametrize(
        "scores, labels, reason",
        [
            ([[0.9, 0.1], [0.5, np.nan]], [[1, 0], [1, 0]], "row 1: scores must be finite"),
            ([[0.9, 0.1], [0.5, -np.inf]], [[1, 0], [0, 1]], "row 1: scores must be finite"),
            ([[0.9, np.inf], [0.5, 0.4]], [[1, 0], [2, 1]], "row 0: scores must be finite"),
            ([[0.9, 0.1], [0.5, np.nan]], [[1, 0], [0.5, 1]], "row 1: labels must be binary"),
        ],
        ids=["nan", "-inf positive", "+inf", "label before score"],
    )
    def test_bad_row_is_named(self, scores, labels, reason):
        with pytest.raises(StructuralError, match=reason):
            retrieval_report(scores, labels)

    def test_padding_changes_no_metric(self):
        # ragged queries padded with -inf scores and label 0 give the same
        # per-query APs and micro-AP as the queries themselves
        rng = np.random.default_rng(11)
        queries = [q for q in tied_queries(rng, 12, 15) if q.labels.any()]
        report = retrieval_report(*stacked(queries))
        assert report.ap_per_query == tuple(average_precision(q) for q in queries)
        assert report.micro_ap == reference_micro_ap(queries)


def _ulp_steps(x, steps):
    """x moved steps[i] units in the last place, one nextafter at a time."""
    with np.errstate(over="ignore"):  # a step from -inf may step back to it
        for k in range(int(np.abs(steps).max(initial=0))):
            x = np.where(steps > k, np.nextafter(x, np.inf), np.where(steps < -k, np.nextafter(x, -np.inf), x))
    return x


# n in {1, 2, 2^k, 2^k + 1} puts the pooled index in every bit count at its edges
POOL_SIZES = st.one_of(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65]), st.integers(1, 80))
POOL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 1e-310, -1e-310, -np.inf]),
    st.floats(-1e300, 1e300, allow_nan=False),
)


def stable_places(scores, positives):
    """Oracle of pooled_positions: the positives' places in the stable
    descending argsort of the flattened stack."""
    return np.flatnonzero(np.ravel(positives)[np.argsort(-np.ravel(scores), kind="stable")])


def each_place(scores):
    """The pooled place of every item, from one pooled_positions call per
    item with that item the only positive."""
    n = scores.size
    return [int(pooled_positions(scores, np.arange(n) == i)[0]) for i in range(n)]


class TestPooledOrder:
    @given(st.data())
    def test_matches_stable_argsort(self, data):
        # a few ulps apart, keys differ only in their low bits: the packed sort
        # orders those by index and the repair must put them right
        n = data.draw(POOL_SIZES)
        base = np.array(data.draw(st.lists(POOL_VALUES, min_size=n, max_size=n)))
        steps = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
        scores = _ulp_steps(base, steps)
        positives = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        assert np.array_equal(pooled_positions(scores, positives), stable_places(scores, positives))
        assert each_place(scores) == np.argsort(np.argsort(-scores, kind="stable")).tolist()

    @pytest.mark.parametrize(
        "scores, order",
        [
            ([0.5], [0]),
            ([-0.0, 0.0, -0.0], [0, 1, 2]),  # one score: pooled order
            ([0.25, np.nextafter(0.25, 1.0)], [1, 0]),  # keys 1 apart, index order inverted
            ([-np.inf, 0.1, -np.inf, -1e308], [1, 3, 0, 2]),  # pads last, in pooled order
        ],
    )
    def test_hand_cases(self, scores, order):
        assert each_place(np.array(scores)) == np.argsort(order).tolist()

    def test_large_pool_with_collisions(self):
        # 2^17 + 1 items in runs of values 1 ulp apart, shuffled: 18 index bits
        rng = np.random.default_rng(12)
        base = np.repeat(rng.standard_normal(2**15), 4)[: 2**17 + 1]
        scores = rng.permutation(_ulp_steps(base, rng.integers(-2, 3, size=base.size)))
        positives = rng.uniform(size=scores.size) < 0.3
        assert np.array_equal(pooled_positions(scores, positives), stable_places(scores, positives))

    @given(st.data())
    def test_stacks_match_stable_argsort(self, data):
        # (queries, items) stacks read row by row: ties, both zeros, -inf pads,
        # and keys 2^-50 apart (4 ulps at 1.0), whose high-bit groups hold
        # several keys; one query and one positive among the draws
        q, n = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 40))
        values = st.one_of(
            st.sampled_from([0.0, -0.0, 0.5, -0.5, -np.inf]),
            st.integers(-4, 4).map(lambda k: 1.0 + k * 2.0**-50),
        )
        scores = np.array(data.draw(st.lists(values, min_size=q * n, max_size=q * n))).reshape(q, n)
        if data.draw(st.booleans()):
            positives = np.arange(q * n).reshape(q, n) == data.draw(st.integers(0, q * n - 1))
        else:
            positives = np.array(data.draw(st.lists(st.booleans(), min_size=q * n, max_size=q * n))).reshape(q, n)
        assert np.array_equal(pooled_positions(scores, positives), stable_places(scores, positives))

    def test_long_mixed_groups_match_stable_argsort(self):
        # groups larger than one chunk of the mixed-group check, several keys each
        rng = np.random.default_rng(13)
        scores = (1.0 + rng.integers(0, 8, size=(40, 1000)) * 2.0**-50) * rng.choice([1.0, -1.0, 2.0], size=(40, 1))
        positives = rng.uniform(size=scores.shape) < 0.05
        assert np.array_equal(pooled_positions(scores, positives), stable_places(scores, positives))


def macro_map(queries) -> float:
    """mAP of equal-length queries, from the one report path."""
    return retrieval_report([q.scores for q in queries], [q.labels for q in queries]).map


class TestMeanAp:
    def test_mean(self):
        q1 = ScoredList([0.9, 0.1], [1, 0])  # AP 1.0
        q2 = ScoredList([0.9, 0.8], [0, 1])  # AP 0.5
        assert macro_map([q1, q2]) == 0.75

    def test_single_query(self):
        q = ScoredList([0.9, 0.8, 0.7], [1, 0, 1])
        assert macro_map([q]) == average_precision(q)

    def test_skips_positive_free_queries(self):
        q1 = ScoredList([0.9, 0.1], [1, 0])
        q2 = ScoredList([0.9, 0.8], [0, 0])
        assert macro_map([q1, q2]) == 1.0

    def test_no_valid_queries_raises(self):
        with pytest.raises(UndefinedMetricError):
            macro_map([ScoredList([0.5], [0])])


class TestMicroAp:
    def test_pooled_hand_anchor(self):
        q1 = ScoredList([0.9, 0.1], [1, 0])
        q2 = ScoredList([0.8, 0.7], [0, 1])
        assert pooled_micro_ap([q1, q2]) == float(5 / 6)

    def test_perfectly_calibrated(self):
        q1 = ScoredList([0.9, 0.1], [1, 0])
        q2 = ScoredList([0.8, 0.2], [1, 0])
        assert pooled_micro_ap([q1, q2]) == 1.0

    def test_miscalibration_hurts_micro_but_not_macro(self):
        q1 = ScoredList([0.6, 0.5], [1, 0])
        q2 = ScoredList([0.9, 0.8], [1, 0])
        assert macro_map([q1, q2]) == 1.0
        assert pooled_micro_ap([q1, q2]) < macro_map([q1, q2])

    def test_single_query_equals_ap(self):
        q = ScoredList([0.9, 0.8, 0.7], [1, 0, 1])
        assert pooled_micro_ap([q]) == average_precision(q) == macro_map([q])

    def test_tie_rules_differ_from_per_query_ap(self):
        # per-query AP ranks a tied positive above its negative; micro-AP
        # keeps the pooled item order (query, then item) among tied scores
        tied = ScoredList([0.5, 0.5], [0, 1])
        assert average_precision(tied) == 1.0
        assert pooled_micro_ap([tied]) == 0.5
        q1 = ScoredList([0.9, 0.5], [1, 0])
        q2 = ScoredList([0.5, 0.1], [1, 0])
        assert macro_map([q1, q2]) == 1.0
        assert pooled_micro_ap([q1, q2]) == float(5 / 6)

    def test_global_monotone_transform_invariant(self):
        q1 = ScoredList([0.6, 0.5], [1, 0])
        q2 = ScoredList([0.9, 0.8], [0, 1])
        warped = [ScoredList(2 * q.scores + 1, q.labels) for q in (q1, q2)]
        assert pooled_micro_ap(warped) == pooled_micro_ap([q1, q2])

    @given(st.lists(scored_lists(max_size=12, need_positive=False), min_size=1, max_size=6))
    def test_matches_reference(self, queries):
        if not any(q.labels.any() for q in queries):
            with pytest.raises(UndefinedMetricError):
                pooled_micro_ap(queries)
            return
        assert pooled_micro_ap(queries) == reference_micro_ap(queries)

    def test_ties_across_and_within_queries_match_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            queries = tied_queries(rng, int(rng.integers(1, 9)), 30)
            if any(q.labels.any() for q in queries):
                assert pooled_micro_ap(queries) == reference_micro_ap(queries)

    def test_tied_signed_zeros_keep_pooled_order(self):
        # -0.0 and 0.0 are one score: the pooled order decides, not the sign
        queries = [ScoredList([-0.0, 0.0], [0, 1]), ScoredList([0.0, -0.0], [1, 0])]
        assert pooled_micro_ap(queries) == reference_micro_ap(queries) == float(Fraction(1, 2) * (Fraction(1, 2) + Fraction(2, 3)))

    def test_large_pool_matches_reference(self):
        rng = np.random.default_rng(8)
        queries = tied_queries(rng, 240, 1000)
        assert sum(q.scores.size for q in queries) >= 100_000
        assert pooled_micro_ap(queries) == reference_micro_ap(queries)

    def test_empty_pool_raises(self):
        with pytest.raises(UndefinedMetricError):
            pooled_micro_ap([])


class TestExactBracketFallback:
    """With BRACKET_BITS = 0 the fixed-point bracket is never tight, so every
    value comes from the exact Fraction sum; the answers must not change."""

    def test_average_precision(self, monkeypatch):
        rng = np.random.default_rng(9)
        lists = [q for q in tied_queries(rng, 200, 30) if q.labels.any()]
        expected = [average_precision(q) for q in lists]
        monkeypatch.setattr(metrics, "BRACKET_BITS", 0)
        assert [average_precision(q) for q in lists] == expected
        assert [brute_force_ap(q) for q in lists] == expected

    def test_micro_ap(self, monkeypatch):
        rng = np.random.default_rng(10)
        pools = [tied_queries(rng, 5, 30) for _ in range(50)]
        pools = [p for p in pools if any(q.labels.any() for q in p)]
        expected = [pooled_micro_ap(p) for p in pools]
        monkeypatch.setattr(metrics, "BRACKET_BITS", 0)
        assert [pooled_micro_ap(p) for p in pools] == expected
        assert [reference_micro_ap(p) for p in pools] == expected


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

    @pytest.mark.parametrize(
        "n, groups, seed, expected",
        [
            # (map, micro_ap, num_queries, num_positives, first 16 hex digits of
            # the SHA-256 of every per-query AP's float.hex()), recorded from
            # the per-positive comparison loop and the Python-sorted micro-AP
            (48, 12, 48, (0.15802584308109976, 0.06821924045919918, 48, 144, "432eaf76222c9c0a")),
            (1000, 100, 1000, (0.02098350007535149, 0.009062933210700442, 1000, 9000, "5755414b612969ef")),
        ],
    )
    def test_pinned_reports(self, n, groups, seed, expected):
        rng = np.random.default_rng(seed)
        sim = rng.uniform(-1.0, 1.0, size=(n, n))
        tied = rng.choice(n, size=n // 4, replace=False)
        sim[tied] = np.round(sim[tied], 1)  # ties within and across rows
        report = evaluate_retrieval(sim, RelevanceMatrix.from_groups(np.arange(n) % groups))
        digest = hashlib.sha256("".join(float.hex(a) for a in report.ap_per_query).encode())
        got = (report.map, report.micro_ap, report.num_queries, report.num_positives, digest.hexdigest()[:16])
        assert got == expected


def _score_file_stack(rng):
    """1000 x 1000 scores with 1-10 positives per row, N(0, 1) plus 2 on
    positives, a quarter of the rows rounded to 0.01."""
    labels = np.zeros((1000, 1000))
    for row in labels:
        row[rng.choice(1000, size=rng.integers(1, 11), replace=False)] = 1.0
    scores = rng.standard_normal(labels.shape) + 2.0 * labels
    tied = rng.choice(1000, size=250, replace=False)
    scores[tied] = np.round(scores[tied], 2)
    return scores, labels


def _tie_heavy_stack(rng):
    """400 x 500 scores rounded to 0.01, about 2% positives."""
    scores = np.round(rng.standard_normal((400, 500)), 2)
    labels = (rng.uniform(size=scores.shape) < 0.02).astype(float)
    labels[np.arange(400), rng.integers(0, 500, size=400)] = 1.0
    return scores, labels


class TestReportMemory:
    @pytest.mark.parametrize("stack", [_score_file_stack, _tie_heavy_stack])
    def test_peak_at_most_twice_the_scores(self, stack):
        scores, labels = stack(np.random.default_rng(14))
        retrieval_report(scores, labels)
        tracemalloc.start()
        try:
            retrieval_report(scores, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * scores.nbytes
