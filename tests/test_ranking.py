"""Ranking primitives: strict step, query partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apranking.errors import StructuralError
from apranking.ranking import (
    QueryContext,
    RelevanceMatrix,
    ScoredList,
    heaviside,
    partition_query,
)


class TestHeaviside:
    def test_positive(self):
        assert heaviside(0.3) == 1.0

    def test_zero_is_zero(self):
        assert heaviside(0.0) == 0.0

    def test_negative(self):
        assert heaviside(-0.3) == 0.0

    def test_vectorized(self):
        np.testing.assert_array_equal(heaviside([-1.0, 0.0, 2.0]), [0.0, 0.0, 1.0])


class TestPartitionQuery:
    def test_definition_unrolled(self):
        ctx = partition_query([1.0, 0.8, 0.3], [1, 1, 0], 0)
        np.testing.assert_array_equal(ctx.positives, [0.8])
        np.testing.assert_array_equal(ctx.negatives, [0.3])

    def test_lone_self(self):
        ctx = partition_query([0.5], [1], 0)
        assert ctx.num_positives == 0 and ctx.num_negatives == 0

    def test_four_items(self):
        ctx = partition_query([0.9, 0.2, 0.7, 0.1], [1, 0, 1, 0], 0)
        np.testing.assert_array_equal(ctx.positives, [0.7])
        np.testing.assert_array_equal(ctx.negatives, [0.2, 0.1])

    def test_self_excluded_even_when_negative_labeled(self):
        ctx = partition_query([0.9, 0.2], [0, 0], 0)
        np.testing.assert_array_equal(ctx.negatives, [0.2])

    def test_length_mismatch_raises(self):
        with pytest.raises(StructuralError):
            partition_query([0.9, 0.2], [1], 0)

    def test_out_of_range_self_raises(self):
        with pytest.raises(StructuralError):
            partition_query([0.9], [1], 3)

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=19),
        st.randoms(use_true_random=False),
    )
    def test_sizes_sum_to_n_minus_one(self, n, self_idx, rnd):
        self_idx %= n
        row = [rnd.uniform(-1, 1) for _ in range(n)]
        rel = [rnd.randint(0, 1) for _ in range(n)]
        ctx = partition_query(row, rel, self_idx)
        assert ctx.num_positives + ctx.num_negatives == n - 1


class TestRelevanceMatrix:
    def test_from_groups(self):
        rel = RelevanceMatrix.from_groups([0, 0, 1])
        np.testing.assert_array_equal(rel.entries, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])

    def test_rejects_non_binary(self):
        with pytest.raises(StructuralError):
            RelevanceMatrix(np.array([[1, 2], [0, 1]]))

    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
    def test_rejects_entries_other_than_zero_and_one(self, bad):
        entries = np.eye(2)
        entries[0, 1] = bad
        with pytest.raises(StructuralError):
            RelevanceMatrix(entries)

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.float64])
    def test_accepts_binary_dtypes(self, dtype):
        rel = RelevanceMatrix(np.array([[1, 0], [1, 1]], dtype=dtype))
        assert rel.entries.dtype == np.int8
        np.testing.assert_array_equal(rel.entries, [[1, 0], [1, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(StructuralError):
            RelevanceMatrix(np.zeros((2, 3)))


class TestScoredList:
    def test_to_query_context(self):
        ctx = ScoredList([0.9, 0.1, 0.5], [1, 0, 1]).to_query_context()
        np.testing.assert_array_equal(ctx.positives, [0.9, 0.5])
        np.testing.assert_array_equal(ctx.negatives, [0.1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(StructuralError):
            ScoredList([0.9], [1, 0])

    def test_rejects_nonfinite(self):
        with pytest.raises(StructuralError):
            QueryContext([np.nan], [0.0])
