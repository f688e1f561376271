"""Similarity aggregation: cosine tensors, top-K pooling, refiner, composition."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apranking import aggregation
from apranking import autodiff as ad
from apranking.aggregation import (
    AggregationParams,
    PatchEmbeddings,
    RefinerParams,
    average_pool_ceil,
    batch_similarity_matrix,
    chamfer_frame_similarity,
    mean_frame_similarity,
    patch_similarity,
    refine,
    spatial_topk_chamfer,
    temporal_mean,
    temporal_topk_chamfer,
    topk_count,
    topk_sum_values,
    video_similarity,
)
from apranking.errors import DegenerateInputError, ParameterError, StructuralError


def random_embeddings(rng, t=3, r=2, d=4):
    return PatchEmbeddings(rng.standard_normal((t, r, d)))


def topk_sum_last(values, k):
    """Exact top-K oracle: (sums, indices) of the k largest entries along
    the last axis, picked by a stable descending argsort, so ties go to the
    lower index. k == extent is the plain sum and k == 1 the max."""
    values = np.asarray(values, dtype=np.float64)
    extent = values.shape[-1]
    if k == extent:
        return values.sum(axis=-1), np.broadcast_to(np.arange(extent), values.shape).copy()
    if k == 1:
        return np.max(values, axis=-1), np.argmax(values, axis=-1)[..., None]
    order = np.argsort(-values, axis=-1, kind="stable")[..., :k]
    return np.take_along_axis(values, order, axis=-1).sum(axis=-1), order


def topk_grad_oracle(values, k, g):
    """The subgradient of the oracle's sums: g routed to its indices."""
    _, idx = topk_sum_last(values, k)
    buf = np.zeros_like(values)
    np.put_along_axis(buf, idx, np.broadcast_to(g[..., None], idx.shape), axis=-1)
    return buf


def topk_margin_oracle(values, k):
    """k-th largest minus (k+1)-th largest entry, both read from the stable
    descending argsort."""
    order = np.argsort(-values, axis=-1, kind="stable")
    kth = np.take_along_axis(values, order[..., k - 1 : k], axis=-1)
    return kth - np.take_along_axis(values, order[..., k : k + 1], axis=-1)


def tied_values(rng, extent):
    """Rounded values with runs of ties and signed zeros, on a random
    leading shape; about half the draws are strided (moved-axis) views."""
    shape = tuple(int(s) for s in rng.integers(1, 5, size=int(rng.integers(0, 3)))) + (extent,)
    values = np.round(rng.uniform(-1, 1, size=shape), int(rng.integers(0, 3)))
    values = np.where(rng.random(shape) < 0.25, rng.choice([-0.0, 0.0], size=shape), values)
    if len(shape) > 1 and rng.random() < 0.5:
        values = np.moveaxis(np.ascontiguousarray(np.moveaxis(values, -1, 0)), 0, -1)
    return values


def same_bits(a, b):
    """Equal values, shapes and signs of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestTopkCount:
    def test_rounds_half_up_then_floors_at_one(self):
        assert topk_count(0.03, 28) == 1

    def test_full_rate(self):
        assert topk_count(1.0, 7) == 7

    def test_small_rate_small_extent(self):
        assert topk_count(0.10, 9) == 1

    def test_zero_rate_aliases_chamfer(self):
        assert topk_count(0.0, 10) == 1

    def test_half_rounds_up(self):
        assert topk_count(0.25, 10) == 3  # 2.5 -> 3

    def test_rejects_bad_rate(self):
        with pytest.raises(ParameterError):
            topk_count(1.5, 10)

    @given(st.floats(0, 1), st.integers(1, 100))
    def test_always_in_range(self, rate, extent):
        assert 1 <= topk_count(rate, extent) <= extent


class TestPatchSimilarity:
    def test_self_diagonal_is_unit(self):
        rng = np.random.default_rng(0)
        a = random_embeddings(rng)
        sim = patch_similarity(a, a)
        for x in range(a.frames):
            for i in range(a.patches):
                assert sim[x, i, i, x] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_patches(self):
        a = PatchEmbeddings(np.array([[[1.0, 0.0]]]))
        b = PatchEmbeddings(np.array([[[0.0, 1.0]]]))
        assert patch_similarity(a, b)[0, 0, 0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_hand_cosine(self):
        a = PatchEmbeddings(np.array([[[1.0, 0.0]]]))
        b = PatchEmbeddings(np.array([[[1.0, 1.0]]]))
        assert patch_similarity(a, b)[0, 0, 0, 0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(1)
        sim = patch_similarity(random_embeddings(rng, 4, 3, 5), random_embeddings(rng, 2, 3, 5))
        assert np.all(np.abs(sim) <= 1.0 + 1e-12)

    def test_zero_norm_rejected(self):
        a = PatchEmbeddings(np.zeros((1, 1, 3)))
        with pytest.raises(DegenerateInputError):
            patch_similarity(a, a)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(StructuralError):
            patch_similarity(random_embeddings(rng, d=4), random_embeddings(rng, d=5))


class TestSpatialAggregation:
    def test_k1_equals_chamfer_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            sim = rng.uniform(-1, 1, size=(3, 4, 4, 2))
            left = spatial_topk_chamfer(sim, 0.0)
            right = chamfer_frame_similarity(sim)
            assert np.array_equal(left, right)

    def test_kfull_equals_mean_bitwise(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            sim = rng.uniform(-1, 1, size=(2, 3, 5, 4))
            left = spatial_topk_chamfer(sim, 1.0)
            right = mean_frame_similarity(sim)
            assert np.array_equal(left, right)

    def test_hand_row(self):
        sim = np.zeros((1, 1, 4, 1))
        sim[0, 0, :, 0] = [0.9, 0.7, 0.5, 0.1]
        # K=2: (0.9 + 0.7) / 2, single query patch so the 1/R mean is a no-op
        assert spatial_topk_chamfer(sim, 0.5)[0, 0] == pytest.approx(0.8)

    @given(st.integers(0, 1000))
    def test_monotone_in_entries(self, seed):
        rng = np.random.default_rng(seed)
        sim = rng.uniform(-1, 1, size=(2, 2, 3, 2))
        rate = float(rng.uniform(0, 1))
        before = spatial_topk_chamfer(sim, rate)
        x, i, j, y = (int(rng.integers(0, s)) for s in sim.shape)
        sim[x, i, j, y] += float(rng.uniform(0, 0.5))
        after = spatial_topk_chamfer(sim, rate)
        assert np.all(after >= before - 1e-15)


class TestTemporalAggregation:
    def test_k1_row_max_mean(self):
        m = np.array([[0.9, 0.1], [0.5, 0.3]])
        assert temporal_topk_chamfer(m, 0.0) == pytest.approx(0.7)

    def test_kfull_equals_mean_bitwise(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = rng.uniform(-1, 1, size=(5, 7))
            assert temporal_topk_chamfer(m, 1.0) == temporal_mean(m)

    def test_candidate_permutation_invariant(self):
        rng = np.random.default_rng(6)
        m = rng.uniform(-1, 1, size=(4, 6))
        perm = rng.permutation(6)
        for rate in (0.0, 0.4, 1.0):
            assert temporal_topk_chamfer(m[:, perm], rate) == pytest.approx(
                temporal_topk_chamfer(m, rate), abs=1e-15
            )


class TestTopkSumValues:
    def test_bitwise_equal_to_stable_argsort_sums(self):
        # extents on both sides of SELECT_MAX_EXTENT, every k, and rounded
        # values so that ties occur
        rng = np.random.default_rng(15)
        for _ in range(300):
            extent = int(rng.integers(1, 13))
            shape = tuple(int(s) for s in rng.integers(1, 5, size=int(rng.integers(0, 3)))) + (extent,)
            values = np.round(rng.uniform(-1, 1, size=shape), int(rng.integers(0, 3)))
            for k in range(1, extent + 1):
                expected, _ = topk_sum_last(values, k)
                got = topk_sum_values(values, k)
                assert got.shape == expected.shape
                assert np.array_equal(got, expected), (shape, k)

    def test_strided_input(self):
        rng = np.random.default_rng(16)
        values = rng.uniform(-1, 1, size=(3, 6, 5))
        moved = np.moveaxis(values, 1, -1)
        for k in range(1, 7):
            assert np.array_equal(topk_sum_values(moved, k), topk_sum_last(moved, k)[0])

    def test_k1_is_np_max_bit_for_bit(self):
        # the column chain on short axes and np.max on long ones, with tied
        # rows, signed zeros and strided input: the sign of zero must match.
        # At extent 1, k == 1 is also k == extent, the plain sum, which
        # turns a strided -0.0 into 0.0
        rng = np.random.default_rng(17)
        for extent in range(1, 13):
            reference = np.sum if extent == 1 else np.max
            for _ in range(40):
                values = tied_values(rng, extent)
                assert same_bits(topk_sum_values(values, 1), reference(values, axis=-1)), values
        for row in ([-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0, 0.0, -1.0], [-1.0, 0.0, -0.0, 0.0]):
            values = np.array([row, row[::-1]])
            assert same_bits(topk_sum_values(values, 1), np.max(values, axis=-1)), row

    def test_k_out_of_range(self):
        for k in (0, 4):
            with pytest.raises(StructuralError):
                topk_sum_values(np.zeros((2, 3)), k)


class TestAutodiffTopkMatchesOracle:
    """autodiff.temporal_topk_chamfer takes its sums from topk_sum_values,
    scatters its gradient, divided by T*K, at the selected entries and reads
    the guard margins from that selection; all three must match the
    stable-argsort oracle bit for bit."""

    def test_gradients_every_k(self):
        rng = np.random.default_rng(18)
        for _ in range(250):
            values = np.atleast_2d(tied_values(rng, int(rng.integers(1, 13))))
            t, extent = values.shape[-2:]
            for k in range(1, extent + 1):
                g = np.round(rng.uniform(-1, 1, size=values.shape[:-2]), 1)
                g = np.where(rng.random(g.shape) < 0.2, -0.0, g)
                v = ad.Var(values)
                out = ad.temporal_topk_chamfer(v, k / extent)
                assert same_bits(out.value, topk_sum_last(values, k)[0].sum(axis=-1) / (t * k)), (values, k)
                out._backward(g)
                routed = np.broadcast_to((g / (t * k))[..., None], values.shape[:-1])
                expected = np.zeros_like(values) + topk_grad_oracle(values, k, routed)
                assert same_bits(v.grad, expected), (values, k, g)

    def test_guard_margins_every_k(self):
        rng = np.random.default_rng(19)
        for _ in range(250):
            values = np.atleast_2d(tied_values(rng, int(rng.integers(2, 13))))
            extent = values.shape[-1]
            for k in range(1, extent):
                expected = topk_margin_oracle(values, k)
                order = ad._topk_order(values, k + 1)[0]
                assert same_bits(ad._topk_margins(values, order, k), expected[..., 0]), (values, k)
                guard = ad.BreakpointGuard()
                ad.temporal_topk_chamfer(ad.Var(values), k / extent, guard=guard)
                assert same_bits(guard.margins, [expected.min()]), (values, k)

    def test_order_is_the_stable_argsort(self):
        # ties, signed zeros and strided views on both sides of
        # SELECT_MAX_EXTENT: every slot count gives the stable argsort's
        # first positions, ties to the lower index, and no slot twice
        rng = np.random.default_rng(20)
        for extent in range(2, 13):
            for _ in range(40):
                values = np.atleast_2d(tied_values(rng, extent))
                expected = np.argsort(-values, axis=-1, kind="stable")
                for slots in range(1, extent + 1):
                    order, _ = ad._topk_order(values, slots)
                    assert np.array_equal(order, expected[..., :slots]), (values, slots)

    def test_full_k_records_no_margin(self):
        guard = ad.BreakpointGuard()
        ad.temporal_topk_chamfer(ad.Var(np.array([[0.3, 0.3]])), 1.0, guard=guard)
        assert guard.margins == []


class TestRefiner:
    def test_identity_returns_input(self):
        m = np.array([[0.5, -0.5]])
        assert refine(m, RefinerParams()) is m

    def test_affine_identity_settings(self):
        m = np.array([[0.5, -0.5]])
        out = refine(m, RefinerParams(kind="affine", scale=1.0, bias=0.0))
        np.testing.assert_array_equal(out, m)

    def test_affine_clamps(self):
        out = refine(np.array([[0.75]]), RefinerParams(kind="affine", scale=2.0, bias=-0.5))
        assert out[0, 0] == 1.0

    def test_affine_downsample_shape(self):
        m = np.zeros((5, 7))
        out = refine(m, RefinerParams(kind="affine", downsample=2))
        assert out.shape == (3, 4)

    def test_conv_shape_and_bounds(self):
        rng = np.random.default_rng(8)
        m = rng.uniform(-1, 1, size=(6, 5))
        params = RefinerParams(kind="conv", conv_weights=rng.standard_normal((3, 3)), downsample=2)
        out = refine(m, params)
        assert out.shape == (3, 3)
        assert np.all(np.abs(out) < 1.0)

    def test_identity_kind_rejects_other_settings(self):
        with pytest.raises(ParameterError):
            RefinerParams(kind="identity", scale=2.0)

    def test_average_pool_partial_windows(self):
        m = np.arange(6.0).reshape(2, 3)
        out = average_pool_ceil(m, 2)
        assert out.shape == (1, 2)
        assert out[0, 0] == pytest.approx((0 + 1 + 3 + 4) / 4)
        assert out[0, 1] == pytest.approx((2 + 5) / 2)


class TestVideoSimilarity:
    def test_self_similarity_unit(self):
        rng = np.random.default_rng(9)
        a = random_embeddings(rng, 4, 3, 6)
        for rates in [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]:
            f = video_similarity(a, a, AggregationParams(*rates))
            if rates == (0.0, 0.0):
                assert f == pytest.approx(1.0, abs=1e-12)
            assert f <= 1.0 + 1e-12

    def test_self_dominates_cross_at_k1(self):
        rng = np.random.default_rng(10)
        params = AggregationParams(0.0, 0.0)
        a = random_embeddings(rng, 4, 3, 6)
        for _ in range(20):
            b = random_embeddings(rng, 4, 3, 6)
            assert video_similarity(a, a, params) >= video_similarity(a, b, params) - 1e-12

    def test_orthogonal_videos(self):
        a = PatchEmbeddings(np.array([[[1.0, 0.0]], [[1.0, 0.0]]]))
        b = PatchEmbeddings(np.array([[[0.0, 1.0]], [[0.0, 1.0]]]))
        assert video_similarity(a, b, AggregationParams(1.0, 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_two_frame_hand_composition(self):
        a = PatchEmbeddings(np.array([[[1.0, 0.0]], [[0.0, 1.0]]]))
        b = PatchEmbeddings(np.array([[[1.0, 1.0]], [[1.0, -1.0]]]))
        # cosines: frame sim matrix [[1/sqrt2, 1/sqrt2], [1/sqrt2, -1/sqrt2]]
        got = video_similarity(a, b, AggregationParams(1.0, 0.0))
        assert got == pytest.approx((1 / np.sqrt(2) + 1 / np.sqrt(2)) / 2, abs=1e-12)

    def test_bounded_with_identity_refiner(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = random_embeddings(rng, 3, 2, 4)
            b = random_embeddings(rng, 5, 2, 4)
            f = video_similarity(a, b, AggregationParams(0.5, 0.5))
            assert -1.0 - 1e-12 <= f <= 1.0 + 1e-12


class TestBatchSimilarityMatrix:
    def test_single_clip(self):
        rng = np.random.default_rng(12)
        a = random_embeddings(rng)
        out = batch_similarity_matrix([a], AggregationParams(0.0, 0.0))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_identical_clips_constant(self):
        rng = np.random.default_rng(13)
        a = random_embeddings(rng)
        out = batch_similarity_matrix([a, a], AggregationParams(0.0, 0.0))
        assert np.allclose(out, out[0, 0], atol=1e-12)

    def test_matches_pairwise_calls(self):
        rng = np.random.default_rng(14)
        clips = [random_embeddings(rng) for _ in range(3)]
        params = AggregationParams(0.5, 0.5)
        out = batch_similarity_matrix(clips, params)
        for i in range(3):
            for j in range(3):
                assert out[i, j] == video_similarity(clips[i], clips[j], params)

    def test_empty_batch_rejected(self):
        with pytest.raises(StructuralError):
            batch_similarity_matrix([], AggregationParams())

    def test_mixed_shapes_rejected(self):
        rng = np.random.default_rng(17)
        for other in ((4, 2, 4), (3, 3, 4), (3, 2, 5)):
            with pytest.raises(StructuralError):
                batch_similarity_matrix(
                    [random_embeddings(rng), PatchEmbeddings(rng.standard_normal(other))],
                    AggregationParams(),
                )


REFINERS = {
    "identity": RefinerParams(),
    "affine": RefinerParams(kind="affine", scale=0.9, bias=-0.05),
    "affine-s2": RefinerParams(kind="affine", scale=1.3, bias=0.1, downsample=2),
    "conv": RefinerParams(kind="conv", conv_weights=np.arange(9.0).reshape(3, 3) / 9 - 0.4, conv_bias=0.1),
    "conv-s2": RefinerParams(kind="conv", conv_weights=np.linspace(-1, 1, 9).reshape(3, 3), downsample=2),
}


class TestEngineMatchesOracle:
    """batch_similarity_matrix against the per-pair video_similarity, entry
    by entry with exact ==."""

    @staticmethod
    def rates(rng):
        # k = 1, k in between (where the axis allows it) and k = extent, on
        # both axes, plus one random pair of rates
        return [(0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.0, 1.0), (1.0, 0.0),
                (float(rng.uniform()), float(rng.uniform()))]

    @staticmethod
    def assert_matches(clips, params, refiner):
        got = batch_similarity_matrix(clips, params, refiner)
        assert got.shape == (len(clips), len(clips))
        for i, a in enumerate(clips):
            for j, b in enumerate(clips):
                assert got[i, j] == video_similarity(a, b, params, refiner), (i, j, params, refiner)

    @pytest.mark.parametrize("refiner", REFINERS.values(), ids=REFINERS.keys())
    def test_random_shapes(self, refiner):
        rng = np.random.default_rng(18)
        for _ in range(4):
            t, r = int(rng.integers(1, 11)), int(rng.integers(1, 11))
            d = int(rng.integers(1, 33))
            clips = [random_embeddings(rng, t, r, d) for _ in range(int(rng.integers(1, 6)))]
            for rates in self.rates(rng):
                self.assert_matches(clips, AggregationParams(*rates), refiner)

    @pytest.mark.parametrize("refiner", REFINERS.values(), ids=REFINERS.keys())
    def test_ties_from_duplicated_patches(self, refiner):
        rng = np.random.default_rng(19)
        data = rng.standard_normal((4, 6, 5, 8))
        data[:, :, 2:] = data[:, :, :1]  # repeated patches: tied cosines
        data[:, 3:] = data[:, :1]  # repeated frames: tied frame rows
        clips = [PatchEmbeddings(x) for x in data]
        for rates in self.rates(rng):
            self.assert_matches(clips, AggregationParams(*rates), refiner)

    @pytest.mark.parametrize("refiner", REFINERS.values(), ids=REFINERS.keys())
    def test_long_axes(self, refiner):
        # from 8 entries on, numpy sums a contiguous axis pairwise and a
        # strided one in sequence, so the layout of every sum has to match
        rng = np.random.default_rng(21)
        clips = [random_embeddings(rng, 9, 10, 5) for _ in range(3)]
        for rates in self.rates(rng):
            self.assert_matches(clips, AggregationParams(*rates), refiner)

    @pytest.mark.parametrize("pairs", [1, 3, 23, 1000])
    def test_tile_sizes_not_dividing_n(self, monkeypatch, pairs):
        # 7 clips against tiles of 1x1, 1x3, 3x7 and 7x7 clip pairs
        t, r = 4, 3
        monkeypatch.setattr(aggregation, "SLAB_BYTES", pairs * 8 * (t * r) ** 2)
        rng = np.random.default_rng(20)
        clips = [random_embeddings(rng, t, r, 6) for _ in range(7)]
        for refiner in (REFINERS["identity"], REFINERS["conv-s2"]):
            self.assert_matches(clips, AggregationParams(0.5, 0.5), refiner)

    @staticmethod
    def record_stages(monkeypatch):
        """Patch the engine's stage functions to record the leading (clip
        pair) shape of each batched call; the oracle's per-pair calls, of
        one (T, R, R', T') or (T, T') pair, are not recorded."""
        calls = {"spatial_topk_chamfer": [], "refine": [], "temporal_topk_chamfer": []}
        for name, seen in calls.items():
            real, pair_ndim = getattr(aggregation, name), (4 if name == "spatial_topk_chamfer" else 2)

            def wrapped(x, *args, real=real, seen=seen, pair_ndim=pair_ndim, **kwargs):
                if np.ndim(x) > pair_ndim:
                    seen.append(np.shape(x)[:-pair_ndim])
                return real(x, *args, **kwargs)

            monkeypatch.setattr(aggregation, name, wrapped)
        return calls

    @pytest.mark.parametrize("t, r, slab_bytes, tiles, blocks", [
        # a slab smaller than one clip pair: 1x1 tiles, and a frame block
        # smaller than one row raised to one query tile
        (4, 3, 8, [(1, 1)] * 49, [1] * 7),
        # blocks of 1, 2 and 3 query rows, larger than their 1-row tiles
        (4, 3, 1 * 1152, [(1, 1)] * 49, [1] * 7),
        (4, 3, 2 * 1152, [(1, 2), (1, 2), (1, 2), (1, 1)] * 7, [2, 2, 2, 1]),
        (4, 3, 3 * 1152, [(1, 3), (1, 3), (1, 1)] * 7, [3, 3, 1]),
        # 3x7 tiles in one block of all 7 rows
        (4, 3, 23 * 1152, [(3, 7), (3, 7), (1, 7)], [7]),
        # one patch per frame: a block of exactly one 2x7 tile
        (4, 1, 20 * 128, [(2, 7), (2, 7), (2, 7), (1, 7)], [2, 2, 2, 1]),
    ])
    def test_row_blocks_not_dividing_n(self, monkeypatch, t, r, slab_bytes, tiles, blocks):
        monkeypatch.setattr(aggregation, "SLAB_BYTES", slab_bytes)
        rng = np.random.default_rng(22)
        clips = [random_embeddings(rng, t, r, 6) for _ in range(7)]
        calls = self.record_stages(monkeypatch)
        for refiner in (REFINERS["identity"], REFINERS["conv-s2"], REFINERS["affine-s2"]):
            for rates in self.rates(rng):
                for seen in calls.values():
                    seen.clear()
                self.assert_matches(clips, AggregationParams(*rates), refiner)
                assert calls["spatial_topk_chamfer"] == tiles
                assert calls["refine"] == calls["temporal_topk_chamfer"] == [(b, 7) for b in blocks]

    @pytest.mark.parametrize("refiner", REFINERS.values(), ids=REFINERS.keys())
    def test_single_clip_batch(self, refiner):
        rng = np.random.default_rng(23)
        clip = [random_embeddings(rng, 5, 3, 4)]
        for rates in self.rates(rng):
            self.assert_matches(clip, AggregationParams(*rates), refiner)

    def test_refiner_and_temporal_stage_run_once_per_row_block(self, monkeypatch):
        # 48 clips of 8x4 patches: 32 clip pairs per gram slab, so 1x32 and
        # 1x16 tiles, two per query row; frame blocks of 10 rows
        calls = self.record_stages(monkeypatch)
        rng = np.random.default_rng(24)
        clips = [random_embeddings(rng, 8, 4, 16) for _ in range(48)]
        batch_similarity_matrix(clips, AggregationParams(0.5, 0.3), REFINERS["conv"])
        assert len(calls["spatial_topk_chamfer"]) == 96
        assert calls["refine"] == calls["temporal_topk_chamfer"] == [(10, 48)] * 4 + [(8, 48)]


def poison_allocations(monkeypatch):
    """Make np.empty and np.empty_like fill float arrays with NaN, so that a
    read of an entry nobody wrote shows in the result."""
    real_empty, real_empty_like = np.empty, np.empty_like

    def nan_filled(x):
        if x.dtype.kind == "f":
            x.fill(np.nan)
        return x

    monkeypatch.setattr(np, "empty", lambda *a, **k: nan_filled(real_empty(*a, **k)))
    monkeypatch.setattr(np, "empty_like", lambda *a, **k: nan_filled(real_empty_like(*a, **k)))


class TestStageBuffers:
    """Each stage writes the same bits into given ``out`` and ``work``
    buffers as into fresh arrays, and reads no entry of them it has not
    written: the buffers start as NaN."""

    def test_topk_sum_values(self):
        rng = np.random.default_rng(40)
        for extent in range(1, 13):
            for k in range(1, extent + 1):
                for _ in range(4):
                    values = tied_values(rng, extent)
                    out = np.full(values.shape[:-1], np.nan)
                    work = [np.full_like(out, np.nan) for _ in range(aggregation.topk_scratch(extent, k) + 1)]
                    got = topk_sum_values(values, k, out=out, work=work)
                    assert got is out and same_bits(got, topk_sum_values(values, k)), (values, k)

    @pytest.mark.parametrize("t, r", [(1, 1), (1, 5), (1, 8), (1, 9), (1, 12), (2, 8), (3, 4), (4, 9), (5, 3)])
    def test_spatial_topk_chamfer(self, t, r):
        # T' == 1 and R >= 8 is where numpy sums the query patches pairwise
        rng = np.random.default_rng(41)
        for rc in (1, 2, 4, 8, 9):
            sim = np.round(rng.uniform(-1, 1, size=(2, 3, t, r, rc, t)), 1)
            sim = np.where(rng.random(sim.shape) < 0.2, -0.0, sim)
            for k_s in (0.0, 0.3, 0.5, 1.0):
                k = topk_count(k_s, rc)
                out = np.full((2, 3, t, t), np.nan)
                sums = np.full((2, 3, t, r, t), np.nan)
                work = [sums, np.full_like(out, np.nan)]
                work += [np.full_like(sums, np.nan) for _ in range(aggregation.topk_scratch(rc, k))]
                expected = spatial_topk_chamfer(sim, k_s)
                got = spatial_topk_chamfer(sim, k_s, out=out, work=work)
                assert got is out and same_bits(got, expected), (rc, k_s)
                assert same_bits(spatial_topk_chamfer(sim, k_s, out=np.full_like(out, np.nan)), expected)

    def test_temporal_topk_chamfer(self):
        rng = np.random.default_rng(42)
        for t in (1, 3, 8, 9, 12):
            frames = np.round(rng.uniform(-1, 1, size=(4, 5, t, t)), 1)
            for k_t in (0.0, 0.3, 0.5, 1.0):
                k = topk_count(k_t, t)
                out = np.full((4, 5), np.nan)
                work = [np.full((4, 5, t), np.nan) for _ in range(1 + aggregation.topk_scratch(t, k))]
                got = temporal_topk_chamfer(frames, k_t, out=out, work=work)
                assert got is out and same_bits(got, temporal_topk_chamfer(frames, k_t)), (t, k_t)

    @pytest.mark.parametrize("refiner", [REFINERS["affine"], REFINERS["affine-s2"], REFINERS["conv"],
                                         REFINERS["conv-s2"], RefinerParams(kind="conv", downsample=3)])
    def test_refine_into_buffers(self, refiner):
        rng = np.random.default_rng(43)
        for t in (1, 2, 5, 8):
            frames = rng.uniform(-1, 1, size=(3, 4, t, t))
            padded = np.zeros((3, 4, t + 2, t + 2))
            padded[..., 1:-1, 1:-1] = frames
            tr = len(aggregation.pool_windows(t, refiner.downsample)[0])
            out = np.full((3, 4, tr, tr), np.nan)
            if refiner.kind == "conv":
                got = refine(padded[..., 1:-1, 1:-1], refiner, out=out, padded=padded, tap=np.full_like(out, np.nan))
            else:
                got = refine(frames, refiner, out=out)
            assert got is out and same_bits(got, refine(frames, refiner)), (t, refiner)

    def test_conv_rejects_a_buffer_that_does_not_border_the_input(self):
        with pytest.raises(StructuralError):
            aggregation.conv3x3(np.zeros((2, 4, 4)), np.ones((3, 3)), 0.0, 1, padded=np.zeros((2, 5, 6)))


class TestEngineWorkspace:
    """batch_similarity_matrix allocates its workspace per call: nothing
    survives a call, and its memory does not grow with the batch beyond the
    (n, n) output and the stack of unit patches."""

    def test_no_state_survives_a_call(self, monkeypatch):
        # 7 and then 5 clips against 1x3 tiles in blocks of 2 query rows: the
        # last tile of each row and the last block of each call are partial
        t, r = 4, 3
        monkeypatch.setattr(aggregation, "SLAB_BYTES", 3 * 8 * (t * r) ** 2)
        poison_allocations(monkeypatch)
        rng = np.random.default_rng(44)
        first = [random_embeddings(rng, t, r, 6) for _ in range(7)]
        second = [PatchEmbeddings(c.data[::-1] * 2.0) for c in first[:5]]
        for refiner in (REFINERS["identity"], REFINERS["conv"], REFINERS["affine-s2"]):
            for rates in ((0.5, 0.5), (0.0, 1.0), (1.0, 0.3)):
                params = AggregationParams(*rates)
                before = batch_similarity_matrix(first, params, refiner)
                other = batch_similarity_matrix(second, params, refiner)
                after = batch_similarity_matrix(first, params, refiner)
                assert same_bits(before, after)
                for clips, got in ((first, before), (second, other)):
                    expected = [[video_similarity(a, b, params, refiner) for b in clips] for a in clips]
                    assert same_bits(got, np.array(expected)), (refiner, rates)

    def test_one_frame_many_patches(self):
        # T' == 1 with R >= 8: the query patches are summed pairwise, as numpy
        # sums a contiguous axis of 8 or more entries
        rng = np.random.default_rng(45)
        for r in (8, 9, 12):
            clips = [random_embeddings(rng, 1, r, 5) for _ in range(4)]
            for k_s in (0.0, 0.3, 0.5, 1.0):
                TestEngineMatchesOracle.assert_matches(clips, AggregationParams(k_s, 0.5), REFINERS["conv"])

    def test_peak_memory_grows_with_output_and_units_only(self):
        # the eval-sweep shape: clips of 8 frames x 4 patches x 16 dims, a conv
        # refiner and each temporal top-K path
        import tracemalloc

        rng = np.random.default_rng(46)
        refiner = RefinerParams(kind="conv", conv_weights=np.linspace(-1, 1, 9).reshape(3, 3))
        clips = [PatchEmbeddings(rng.standard_normal((8, 4, 16))) for _ in range(96)]
        for k_t in (0.03, 0.3, 1.0):
            peaks = {}
            for n in (48, 96):
                tracemalloc.start()
                try:
                    batch_similarity_matrix(clips[:n], AggregationParams(0.5, k_t), refiner)
                    peaks[n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            grown = 8 * (96 * 96 - 48 * 48) + 8 * (96 - 48) * 8 * 4 * 16
            assert peaks[96] - peaks[48] <= grown + (16 << 10), (k_t, peaks)

    def test_conv_block_makes_no_block_sized_array(self):
        # refine on its own pads a copy of the block and allocates its output
        # and a tap buffer (957 KB at peak on this 250 KB block); the engine's
        # call, into its workspace, allocates none of them
        import tracemalloc

        rng = np.random.default_rng(47)
        padded = np.zeros((5, 100, 10, 10))
        padded[..., 1:-1, 1:-1] = rng.uniform(-1, 1, size=(5, 100, 8, 8))
        out, tap = np.empty((5, 100, 8, 8)), np.empty((5, 100, 8, 8))
        tracemalloc.start()
        try:
            refine(padded[..., 1:-1, 1:-1], REFINERS["conv"], out=out, padded=padded, tap=tap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes // 2
