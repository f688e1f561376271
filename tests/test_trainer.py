"""Training loop behavior: determinism, zero-iteration identity, NaN abort,
scheduler shape, config round-trips, and loss values pinned bitwise."""

import hashlib

import numpy as np
import pytest

from apranking.errors import NumericsError, ParameterError
from apranking.losses import QuadLinearParams
from apranking.ranking import partition_query
from apranking.synthetic import SyntheticConfig
from apranking.trainer import (
    AdamWState,
    HeldoutConfig,
    LossWeights,
    OptimizerConfig,
    TrainConfig,
    config_from_dict,
    config_to_dict,
    easy_preset,
    hard_preset,
    train,
)

TINY = TrainConfig(
    synthetic=SyntheticConfig(
        num_clips=12, num_groups=4, frames=5, patches=2, dim=8, teacher_dim=4,
        signal_dim=6, noise=0.1, nuisance_scale=3.0, seed=0,
    ),
    heldout=HeldoutConfig(num_clips=12, num_groups=4),
    groups_per_batch=2,
    clips_per_group=3,
    iterations=12,
    eval_every=0,
    seed=0,
)


class TestTrainLoop:
    def test_zero_iterations_returns_initial_model(self):
        from dataclasses import replace

        from apranking.model import init_model

        cfg = replace(TINY, iterations=0)
        result = train(cfg)
        fresh = init_model(cfg.synthetic.dim, seed=cfg.seed, init_noise=cfg.init_noise)
        np.testing.assert_array_equal(result.model.weight.value, fresh.weight.value)
        assert result.history == []

    def test_same_seed_identical_parameters(self):
        a = train(TINY)
        b = train(TINY)
        np.testing.assert_array_equal(a.model.weight.value, b.model.weight.value)
        assert a.history == b.history

    def test_different_seed_differs(self):
        from dataclasses import replace

        a = train(TINY)
        b = train(replace(TINY, seed=1, synthetic=replace(TINY.synthetic, seed=1)))
        assert not np.array_equal(a.model.weight.value, b.model.weight.value)

    def test_history_has_all_components(self):
        result = train(TINY)
        assert len(result.history) == TINY.iterations
        row = result.history[0]
        for key in ("iteration", "lr", "total", "loss_video", "loss_nce", "loss_sshn", "loss_frame"):
            assert key in row
        assert "heldout_map" in result.history[-1]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_aborts_with_snapshot(self, tmp_path):
        from dataclasses import replace

        # an absurd learning rate blows the parameters up within a few steps;
        # the first overflow stops the run, named, before numpy warns
        cfg = replace(TINY, iterations=80, optimizer=OptimizerConfig(lr=1e12))
        first_overflow = r"^overflow encountered in \w+ in apranking\.autodiff\.normalize_rows at iteration \d+$"
        with pytest.raises(NumericsError, match=first_overflow) as exc_info:
            train(cfg, out_dir=str(tmp_path))
        path = exc_info.value.snapshot_path
        assert path is not None and path.startswith(str(tmp_path))

    def test_video_loss_variants_run(self):
        from dataclasses import replace

        for loss in ("smooth", "triplet", "contrastive"):
            result = train(replace(TINY, video_loss=loss, iterations=3))
            assert np.isfinite(result.history[-1]["total"])

    def test_refiner_kinds_train(self):
        from dataclasses import replace

        for kind in ("affine", "conv"):
            result = train(replace(TINY, refiner_kind=kind, iterations=3))
            assert np.isfinite(result.history[-1]["total"])

    def test_frame_loss_requires_no_downsampling(self):
        from dataclasses import replace

        with pytest.raises(ParameterError):
            replace(TINY, refiner_kind="affine", downsample=2)


class TestScheduler:
    def test_warmup_then_cosine(self):
        opt = OptimizerConfig(lr=1.0, warmup_frac=0.1)
        state = AdamWState([], opt, total_steps=100)
        assert state.lr_at(0) == pytest.approx(0.1)
        assert state.lr_at(9) == pytest.approx(1.0)
        assert state.lr_at(10) == pytest.approx(1.0, abs=1e-3)
        assert state.lr_at(99) < 0.01
        # monotone decay after warm-up
        lrs = [state.lr_at(s) for s in range(10, 100)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_update_moves_parameters(self):
        from apranking import autodiff as ad

        p = ad.Var(np.ones(3))
        p.grad = np.array([1.0, -1.0, 0.5])
        state = AdamWState([("p", p)], OptimizerConfig(lr=0.1, warmup_frac=0.0), 10)
        before = p.value.copy()
        state.update([("p", p)])
        assert not np.array_equal(p.value, before)


class TestConfigRoundTrip:
    def test_round_trip_presets(self):
        for cfg in (easy_preset(seed=3), hard_preset(seed=4), TINY):
            rebuilt = config_from_dict(config_to_dict(cfg))
            assert rebuilt == cfg

    def test_unknown_key_rejected_with_path(self):
        payload = config_to_dict(TINY)
        payload["synthetic"]["bogus"] = 1
        with pytest.raises(ParameterError, match="synthetic"):
            config_from_dict(payload)

    def test_bad_value_rejected(self):
        payload = config_to_dict(TINY)
        payload["video_loss"] = "nonsense"
        with pytest.raises(ParameterError):
            config_from_dict(payload)


PINNED_SYN = SyntheticConfig(
    num_clips=24, num_groups=6, frames=6, patches=3, dim=8, teacher_dim=4,
    signal_dim=6, noise=0.2, nuisance_scale=2.0, seed=5,
)
PINNED_BATCHES = {
    "balanced": [g + 6 * i for g in range(4) for i in range(4)],  # 4 groups x 4 clips
    "ragged": [0, 6, 12, 1, 7, 2, 3, 9, 15, 21],  # groups of 3, 2, 1 and 4 clips
}
# (total loss, guard.min_margin(), first 16 hex digits of the SHA-256 of every
# loss component's float.hex() and every parameter gradient's bytes), recorded
# from the per-row loss loops the rows forms replaced; the frame loss is on
PINNED_LOSSES = {
    ("identity", "quadlinear", "balanced"): (2.7003520713417695, 3.8049556206898316e-06, "b2bbf2b46f3e8c3b"),
    ("identity", "quadlinear", "ragged"): (2.291251895659294, 4.68673346659676e-06, "5e8c7bc5e9f2dc1e"),
    ("identity", "smooth", "balanced"): (2.700546373677759, 3.8049556206898316e-06, "97dccdfe3079d2e4"),
    ("identity", "smooth", "ragged"): (2.2912531963749614, 4.68673346659676e-06, "0ccdfe48a5627829"),
    ("identity", "triplet", "balanced"): (2.7408088769629746, 3.8049556206898316e-06, "ff5f45baa72c6a33"),
    ("identity", "triplet", "ragged"): (2.3105152803360127, 4.2289312647825206e-06, "0ee9241231b16d32"),
    ("identity", "contrastive", "balanced"): (3.7730608341514973, 3.8049556206898316e-06, "0c1881d7e580e09d"),
    ("identity", "contrastive", "ragged"): (3.3649867354185434, 4.2289312647825206e-06, "f7ad43f7504575d5"),
    ("affine", "quadlinear", "balanced"): (2.7024550204182685, 3.8049556206898316e-06, "0514b257be51b1ff"),
    ("affine", "quadlinear", "ragged"): (2.2951849629577725, 4.68673346659676e-06, "025c82a2aa00f7ac"),
    ("affine", "smooth", "balanced"): (2.702856537178643, 3.8049556206898316e-06, "4601112d701c0830"),
    ("affine", "smooth", "ragged"): (2.2951894953896677, 4.68673346659676e-06, "096dc2b0a9c0af2d"),
    ("affine", "triplet", "balanced"): (2.758009294267647, 3.8049556206898316e-06, "e2ac399539b283a7"),
    ("affine", "triplet", "ragged"): (2.3285675092967923, 4.68673346659676e-06, "2ceef1edaadff524"),
    ("affine", "contrastive", "balanced"): (3.564066154169748, 3.8049556206898316e-06, "8603c0d93b87b6e7"),
    ("affine", "contrastive", "ragged"): (3.1988302693583814, 4.68673346659676e-06, "1fdbae6ae511c793"),
    ("conv", "quadlinear", "balanced"): (4.7695209854211615, 3.8049556206898316e-06, "3267f777c2b7dbb2"),
    ("conv", "quadlinear", "ragged"): (4.225130351224598, 4.68673346659676e-06, "76b399d619199ea6"),
    ("conv", "smooth", "balanced"): (4.208224328845487, 3.8049556206898316e-06, "c8dce72ebebec3cf"),
    ("conv", "smooth", "ragged"): (3.8074139803847094, 4.68673346659676e-06, "30e66fc4582154b0"),
    ("conv", "triplet", "balanced"): (4.337729270809613, 3.8049556206898316e-06, "55eaf30321e17a94"),
    ("conv", "triplet", "ragged"): (4.001917781666492, 4.68673346659676e-06, "5e660ca7e834e935"),
    ("conv", "contrastive", "balanced"): (4.784928257487257, 3.8049556206898316e-06, "3eafc2c94e3ef737"),
    ("conv", "contrastive", "ragged"): (4.510876414906488, 4.68673346659676e-06, "d2eac58a67aab7de"),
}
# final weight digest and last total loss of train(TINY) per video loss
PINNED_RUNS = {
    "quadlinear": ("470b58cdac4b82cb", 1.4418716366316469),
    "smooth": ("6e414b3d822ef715", 1.4418724049121208),
    "triplet": ("d33325c78824c5b4", 1.493294451007689),
    "contrastive": ("829ce9f9e216867b", 2.667130758713994),
}


def _digest(*arrays_and_floats) -> str:
    h = hashlib.sha256()
    for x in arrays_and_floats:
        h.update(float(x).hex().encode() if isinstance(x, float) else x.tobytes())
    return h.hexdigest()[:16]


class TestLossesPinned:
    """Loss components, parameter gradients, breakpoint margins and short
    training runs equal the constants recorded before the rows forms."""

    @pytest.mark.parametrize("case", sorted(PINNED_LOSSES), ids="-".join)
    def test_build_losses(self, case):
        from apranking import autodiff as ad
        from apranking.model import init_model
        from apranking.synthetic import generate_corpus
        from apranking.trainer import build_losses

        kind, loss, batch_name = case
        clips = generate_corpus(PINNED_SYN)
        batch = [clips[i] for i in PINNED_BATCHES[batch_name]]
        cfg = TrainConfig(synthetic=PINNED_SYN, refiner_kind=kind, video_loss=loss)
        model = init_model(PINNED_SYN.dim, refiner_kind=kind, seed=7, init_noise=0.05)
        if kind == "affine":
            model.refiner_scale.value = np.asarray(0.9)
            model.refiner_bias.value = np.asarray(-0.05)
        if kind == "conv":
            model.conv_weights.value = model.conv_weights.value + 0.1 * np.random.default_rng(
                8
            ).standard_normal((3, 3))
        guard = ad.BreakpointGuard()
        total, components = build_losses(cfg, model, batch, {}, guard=guard)
        total.backward()
        digest = _digest(
            *(components[key] for key in sorted(components)),
            *(p.grad for _, p in model.parameters()),
        )
        assert (components["total"], guard.min_margin(), digest) == PINNED_LOSSES[case]

    @pytest.mark.parametrize("loss", sorted(PINNED_RUNS))
    def test_short_run(self, loss):
        from dataclasses import replace

        result = train(replace(TINY, video_loss=loss))
        assert (_digest(result.model.weight.value), result.history[-1]["total"]) == PINNED_RUNS[loss]


def _per_row_video_margin(cfg, sim, rel):
    """Reference: the smallest breakpoint distance of the video-level losses,
    row by row over QueryContexts."""
    found = [np.inf]
    for k in range(rel.n):
        q = partition_query(sim[k], rel.entries[k], k)
        d = q.negatives[None, :] - q.positives[:, None]
        dp = q.positives[None, :] - q.positives[:, None]
        if cfg.video_loss == "quadlinear":
            found += [*np.abs(d).ravel(), *np.abs(d + cfg.qlap_video.delta).ravel()]
            found += list(np.abs(dp[~np.eye(q.num_positives, dtype=bool)]))
        elif cfg.video_loss in ("triplet", "contrastive"):
            found += list(np.abs(d + cfg.margin).ravel())
            if cfg.video_loss == "contrastive":
                found += list(np.abs(q.negatives - cfg.margin))
        if q.num_negatives:
            hardest = q.negatives.max()
            found += [abs(1.0 - 1e-6 - hardest), abs(hardest)]
    return min(found)


class TestLossMargins:
    def test_video_margins_match_per_row(self):
        from dataclasses import replace

        from apranking import autodiff as ad
        from apranking.ranking import RelevanceMatrix
        from apranking.trainer import VIDEO_LOSSES, _record_video_loss_margins

        rng = np.random.default_rng(4)
        for i in range(40):
            groups = np.repeat(np.arange(4), 4) if i % 2 else rng.integers(0, 4, size=9)
            rel = RelevanceMatrix.from_groups(groups)
            sim = rng.uniform(-1.0, 1.0, size=(rel.n, rel.n))
            if i % 4 < 2:
                sim = np.round(sim, 1)  # ties: zero gaps
            for loss in VIDEO_LOSSES:
                cfg = replace(TINY, video_loss=loss)
                guard = ad.BreakpointGuard()
                _record_video_loss_margins(cfg, sim, rel, guard)
                assert guard.min_margin() == _per_row_video_margin(cfg, sim, rel)

    def test_frame_margins_match_per_row(self):
        from apranking import autodiff as ad
        from apranking.trainer import _frame_loss, _FrameLossSpec

        rng = np.random.default_rng(5)
        p = QuadLinearParams(0.05, 5.0)
        for _ in range(20):
            values = rng.uniform(-1.0, 1.0, size=(3, 3, 4, 7))
            pairs = np.array([[0, 1], [1, 0], [2, 1]])
            cols = np.stack([[rng.permutation(7) for _ in range(4)] for _ in range(3)])
            spec = _FrameLossSpec(pairs, cols[..., :3], cols[..., 3:5])
            guard = ad.BreakpointGuard()
            _frame_loss(values, spec, p, guard=guard)
            found = []
            for (a, b), pos_idx, neg_idx in zip(pairs, spec.pos_idx, spec.neg_idx):
                for t in range(4):
                    pos, neg = values[a, b, t, pos_idx[t]], values[a, b, t, neg_idx[t]]
                    d = neg[None, :] - pos[:, None]
                    dp = pos[None, :] - pos[:, None]
                    found += [*np.abs(d).ravel(), *np.abs(d + p.delta).ravel()]
                    found += list(np.abs(dp[~np.eye(3, dtype=bool)]))
            assert guard.min_margin() == min(found)
