"""Training loop behavior: determinism, zero-iteration identity, NaN abort,
scheduler shape, config round-trips, and loss values pinned bitwise."""

import dataclasses
import hashlib
import json
import math
import typing

import numpy as np
import pytest

from apranking.aggregation import AggregationParams
from apranking.errors import NumericsError, ParameterError
from apranking.losses import QuadLinearParams
from apranking.pseudolabels import LabelRates
from apranking.ranking import partition_query
from apranking.synthetic import AugmentToggles, SyntheticConfig
from apranking.trainer import (
    AdamWState,
    HeldoutConfig,
    LossWeights,
    OptimizerConfig,
    TrainConfig,
    config_from_dict,
    config_to_dict,
    HARD_VARIANTS,
    REFERENCE_SEEDS,
    easy_preset,
    hard_preset,
    run_variants,
    train,
    variant,
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
        # parameters whose squares overflow still report their finite norm
        with open(path) as fh:
            parameters = json.load(fh)["parameters"]
        assert max(p["max_abs"] for p in parameters.values()) > 1e155
        for p in parameters.values():
            assert math.isfinite(p["norm"]) and p["norm"] >= p["max_abs"]

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


def numeric_fields(cls):
    """(config class, field name, type) of every int and float field of
    ``cls`` and of the configs nested in it, each once."""
    found = {}
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        if dataclasses.is_dataclass(kind):
            found.update(dict.fromkeys(numeric_fields(kind)))
        elif kind in (int, float):
            found[cls, f.name, kind] = None
    return list(found)


class TestConfigRanges:
    # every numeric field of the config tree has a range rule, and NaN fails
    # every rule, so a NaN weight or margin cannot drop its term
    @pytest.mark.parametrize("cls, name, value", [
        (LossWeights, "lambda_v", float("nan")), (LossWeights, "lambda_f", float("nan")),
        (LossWeights, "lambda_v", float("inf")), (LossWeights, "lambda_s", -1.0),
        (LossWeights, "tau_nce", 0.0), (LossWeights, "tau_nce", float("inf")),
        (OptimizerConfig, "lr", float("nan")), (OptimizerConfig, "lr", float("inf")),
        (OptimizerConfig, "weight_decay", float("inf")), (OptimizerConfig, "weight_decay", -1e-3),
        (OptimizerConfig, "warmup_frac", float("nan")), (OptimizerConfig, "beta1", 1.0),
        (OptimizerConfig, "beta2", -0.5), (OptimizerConfig, "eps", 0.0), (OptimizerConfig, "eps", float("nan")),
        (TrainConfig, "margin", -1.0), (TrainConfig, "margin", float("inf")), (TrainConfig, "init_noise", -1.0),
        (SyntheticConfig, "noise", float("inf")), (SyntheticConfig, "noise_jitter", float("inf")),
        (SyntheticConfig, "nuisance_scale", -1.0), (SyntheticConfig, "teacher_noise_scale", -1.0),
        (SyntheticConfig, "num_themes", -3), (AugmentToggles, "noise_sigma", float("inf")),
        (HeldoutConfig, "num_clips", 0), (HeldoutConfig, "num_clips", -5), (HeldoutConfig, "num_groups", 0),
        (HeldoutConfig, "num_groups", 49),
    ] + [
        pytest.param(cls, name, float("nan") if kind is float else -1, id=f"{cls.__name__}.{name}")
        for cls, name, kind in numeric_fields(TrainConfig)
    ])
    def test_value_out_of_range_names_the_field(self, cls, name, value):
        with pytest.raises(ParameterError, match=f"^{name} must be .*, got {value}$"):
            cls(**{name: value})

    def test_range_ends_accepted(self):
        LossWeights(lambda_v=0.0, lambda_f=0.0, lambda_s=0.0, tau_nce=1e-300)
        OptimizerConfig(weight_decay=0.0, warmup_frac=0.0, beta1=0.0, beta2=0.0)
        HeldoutConfig(num_clips=1, num_groups=1, seed_offset=0)


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

    def test_json_types_checked_per_field(self):
        # an int field takes no bool or float, a float field takes an int,
        # a bool field only a bool, a nested config only an object
        for field, value, ok in [
            (("iterations",), True, False), (("iterations",), 3.0, False), (("iterations",), 3, True),
            (("margin",), 1, True), (("margin",), False, False), (("margin",), "0.2", False),
            (("synthetic", "augment", "reverse"), 1, False), (("synthetic", "augment", "reverse"), True, True),
            (("video_loss",), 1, False), (("rates",), [0.3, 0.3], False), (("synthetic", "augment"), None, False),
        ]:
            payload = config_to_dict(TINY)
            target = payload
            for name in field[:-1]:
                target = target[name]
            target[field[-1]] = value
            if ok:
                config_from_dict(payload)
            else:
                with pytest.raises(ParameterError, match="^" + ".".join(field) + " must be "):
                    config_from_dict(payload)

    def test_root_must_be_an_object(self):
        with pytest.raises(ParameterError, match="must be an object"):
            config_from_dict([1, 2])

    def test_bad_value_rejected(self):
        payload = config_to_dict(TINY)
        payload["video_loss"] = "nonsense"
        with pytest.raises(ParameterError):
            config_from_dict(payload)


class TestHardVariants:
    def test_table_builds_the_reference_configs(self):
        # the configs that the criteria 9/10 fixture and scripts/run_reference.py
        # each spelled out before they shared one rule
        from dataclasses import replace

        assert REFERENCE_SEEDS == (0, 1, 2, 3, 4)
        assert HARD_VARIANTS == ("base", "quadlinear", "smooth", "triplet", "full")
        for seed in REFERENCE_SEEDS:
            cfg = hard_preset(seed=seed)
            w = cfg.weights
            expected = {
                "base": replace(cfg, video_loss="quadlinear", weights=replace(w, lambda_v=0.0, lambda_f=0.0)),
                "quadlinear": replace(cfg, video_loss="quadlinear", weights=replace(w, lambda_f=0.0)),
                "smooth": replace(cfg, video_loss="smooth", weights=replace(w, lambda_f=0.0)),
                "triplet": replace(cfg, video_loss="triplet", weights=replace(w, lambda_f=0.0)),
                "full": replace(cfg, video_loss="quadlinear"),
            }
            assert {tag: variant(cfg, tag) for tag in HARD_VARIANTS} == expected

    @pytest.mark.parametrize("tag", ["nonsense", "heaviside"])
    def test_unknown_tag_raises(self, tag):
        with pytest.raises(ParameterError, match="unknown variant"):
            variant(TINY, tag)

    def test_run_variants_trains_each_tag_at_each_reference_seed(self):
        # the variant of the preset at each seed, trained once, in tag order
        from dataclasses import replace

        def preset(seed):
            return replace(TINY, iterations=2, seed=seed, synthetic=replace(TINY.synthetic, seed=seed))

        runs = run_variants(preset, ("triplet", "base"))
        assert list(runs) == ["triplet", "base"]
        for tag, results in runs.items():
            assert [r.config for r in results] == [variant(preset(s), tag) for s in REFERENCE_SEEDS]
        again = train(variant(preset(3), "triplet"))
        assert runs["triplet"][3].history == again.history
        np.testing.assert_array_equal(runs["triplet"][3].model.weight.value, again.model.weight.value)


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
# from the per-row loss loops the rows forms replaced, and re-recorded when the
# graph's top-K stages came to divide by R*K and T*K rather than multiply by
# their inverses (PINNED_SYN has R*K = 3 and T*K = 6); the frame loss is on
PINNED_LOSSES = {
    ("identity", "quadlinear", "balanced"): (2.7003520713417695, 3.8049556206898316e-06, "0610459bcaf84e41"),
    ("identity", "quadlinear", "ragged"): (2.291251895659294, 4.68673346659676e-06, "67a8b5ddacd99e35"),
    ("identity", "smooth", "balanced"): (2.700546373677759, 3.8049556206898316e-06, "5b8d77e72c9c06a4"),
    ("identity", "smooth", "ragged"): (2.2912531963749614, 4.68673346659676e-06, "016e7c310ec30fa5"),
    ("identity", "triplet", "balanced"): (2.7408088769629746, 3.8049556206898316e-06, "9ed3e35e4cdc7911"),
    ("identity", "triplet", "ragged"): (2.3105152803360127, 4.2289312647825206e-06, "dec2e4b6859ef9de"),
    ("identity", "contrastive", "balanced"): (3.7730608341514973, 3.8049556206898316e-06, "69b4858260dffa35"),
    ("identity", "contrastive", "ragged"): (3.364986735418544, 4.2289312647825206e-06, "bbaa4692a03bfe1f"),
    ("affine", "quadlinear", "balanced"): (2.7024550204182685, 3.8049556206898316e-06, "74e06169459c1528"),
    ("affine", "quadlinear", "ragged"): (2.2951849629577725, 4.68673346659676e-06, "6d43fffc719bfdc2"),
    ("affine", "smooth", "balanced"): (2.702856537178643, 3.8049556206898316e-06, "43e4b28f6609d058"),
    ("affine", "smooth", "ragged"): (2.2951894953896677, 4.68673346659676e-06, "dabb014b8d41324f"),
    ("affine", "triplet", "balanced"): (2.758009294267647, 3.8049556206898316e-06, "1cf2aae95de29501"),
    ("affine", "triplet", "ragged"): (2.328567509296792, 4.68673346659676e-06, "81d5a264d9687828"),
    ("affine", "contrastive", "balanced"): (3.564066154169748, 3.8049556206898316e-06, "ba70d9189eccca22"),
    ("affine", "contrastive", "ragged"): (3.198830269358382, 4.68673346659676e-06, "b62c182834d291bf"),
    ("conv", "quadlinear", "balanced"): (4.7695209854211615, 3.8049556206898316e-06, "e3773fea5f193852"),
    ("conv", "quadlinear", "ragged"): (4.225130351224599, 4.68673346659676e-06, "ee59c359a7936b34"),
    ("conv", "smooth", "balanced"): (4.208224328845488, 3.8049556206898316e-06, "efe8cd3f7dafdc26"),
    ("conv", "smooth", "ragged"): (3.8074139803847102, 4.68673346659676e-06, "73d8e803a4613748"),
    ("conv", "triplet", "balanced"): (4.337729270809613, 3.8049556206898316e-06, "35da7bd02f513484"),
    ("conv", "triplet", "ragged"): (4.001917781666492, 4.68673346659676e-06, "5bea72d10cdc5f1c"),
    ("conv", "contrastive", "balanced"): (4.784928257487257, 3.8049556206898316e-06, "51ebc29d2b268229"),
    ("conv", "contrastive", "ragged"): (4.510876414906489, 4.68673346659676e-06, "4d393e98a38ad54a"),
    # stride-2 refiners with the frame loss off, recorded from the refiner
    # written as a chain of pool, scale, shift, clamp, conv and tanh nodes
    ("affine-s2", "quadlinear", "balanced"): (2.2369682314491595, 3.8049556206898316e-06, "f836adaa3cf8002f"),
    ("affine-s2", "quadlinear", "ragged"): (1.8953023412315242, 4.68673346659676e-06, "e18a983af07f2f6d"),
    ("affine-s2", "triplet", "balanced"): (1.8899945800650917, 3.8049556206898316e-06, "fd23f737a23bb1d1"),
    ("affine-s2", "triplet", "ragged"): (1.5585975075171357, 4.68673346659676e-06, "4243e76a797b2b82"),
    ("conv-s2", "quadlinear", "balanced"): (5.836765726950982, 3.8049556206898316e-06, "be6236af1aa3e784"),
    ("conv-s2", "quadlinear", "ragged"): (3.464778762832676, 4.68673346659676e-06, "731a4e6024713457"),
    ("conv-s2", "triplet", "balanced"): (3.575341075050778, 3.8049556206898316e-06, "beecc5b6e350e8e2"),
    ("conv-s2", "triplet", "ragged"): (2.466299981892794, 4.68673346659676e-06, "d6fce3762ffc5a05"),
    # top-K rates past K = 1, recorded from the backward that routed the
    # gradient through a selection mask; the fourth field keys PINNED_TOPK
    ("identity", "quadlinear", "balanced", "ks2"): (2.505989616241013, 4.190444945206817e-07, "b32055ad085a0e11"),
    ("conv", "triplet", "ragged", "ks2"): (3.8244512702016986, 4.190444945206817e-07, "753cb372ab4dc760"),
    ("affine", "quadlinear", "balanced", "ksR"): (2.5090740566734717, 1.1775682569603596e-05, "054d36d88d3dd945"),
    ("identity", "quadlinear", "ragged", "kt3"): (2.7187736771211086, 4.68673346659676e-06, "dcc16b074930d625"),
    ("conv", "smooth", "balanced", "kt3"): (4.566228198095045, 3.8049556206898316e-06, "b89498d1543ae351"),
    ("affine", "triplet", "ragged", "ks2-kt3"): (2.704407689727595, 4.190444945206817e-07, "c40ca8c721d19853"),
    ("identity", "quadlinear", "balanced", "r10-ks3"): (2.7595514069448193, 4.969368999629964e-07, "807ac9c277f217f4"),
    ("conv", "contrastive", "balanced", "r10-ks3"): (4.605547129318492, 4.969368999629964e-07, "13b48bc1ee3960a8"),
}
# (patches, rates) of the top-K cases: on PINNED_SYN (R = 3, T = 6) K_s = 2,
# K_s = R, K_t = 3, and both; at R = 10 K_s = 3, where the top-K sorts
PINNED_TOPK = {
    "ks2": (3, AggregationParams(k_s=0.5)),
    "ksR": (3, AggregationParams(k_s=1.0)),
    "kt3": (3, AggregationParams(k_t=0.5)),
    "ks2-kt3": (3, AggregationParams(k_s=0.5, k_t=0.5)),
    "r10-ks3": (10, AggregationParams(k_s=0.3)),
}
# digest of the final parameters and last total loss of train(TINY) per
# video loss, and per refiner kind under the quad-linear loss; re-recorded with
# PINNED_LOSSES (TINY has T*K = 5)
PINNED_RUNS = {
    "quadlinear": ("954c0a88b85b72d1", 1.4418716366316469),
    "smooth": ("323a72ab19e6ac3f", 1.4418724049121205),
    "triplet": ("a24d3bed5d314185", 1.4932944510076895),
    "contrastive": ("4e45ddfb122ffe34", 2.6671307587139945),
    "quadlinear-affine": ("2fda0d1c44ed7f07", 1.438039281387557),
    "quadlinear-conv": ("9bdefd0d457d9732", 1.8502942109813132),
    # TINY with R = 4 patches at k_s 0.5 and k_t 0.4: K_s = 2 and K_t = 2
    "quadlinear-topk": ("2b8a35a6ed11f9de", 1.8173435187494045),
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
        from dataclasses import replace

        from apranking import autodiff as ad
        from apranking.model import init_model
        from apranking.synthetic import generate_corpus
        from apranking.trainer import build_losses

        refiner, loss, batch_name, *topk = case
        kind, _, stride = refiner.partition("-s")
        downsample = int(stride or 1)
        patches, agg = PINNED_TOPK[topk[0]] if topk else (PINNED_SYN.patches, AggregationParams())
        syn = replace(PINNED_SYN, patches=patches)
        clips = generate_corpus(syn)
        batch = [clips[i] for i in PINNED_BATCHES[batch_name]]
        cfg = TrainConfig(
            synthetic=syn, agg=agg, refiner_kind=kind, downsample=downsample, video_loss=loss,
            weights=LossWeights(lambda_f=0.0) if downsample > 1 else LossWeights(),
        )
        model = init_model(PINNED_SYN.dim, refiner_kind=kind, downsample=downsample, seed=7, init_noise=0.05)
        if kind == "affine":
            # at stride 2 the map pushes a few pooled entries past 1, so the
            # clamp gate closes there
            scale, bias = (0.9, -0.05) if downsample == 1 else (1.2, 0.0)
            model.refiner_scale.value = np.asarray(scale)
            model.refiner_bias.value = np.asarray(bias)
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

    @pytest.mark.parametrize("case", sorted(PINNED_RUNS))
    def test_short_run(self, case):
        from dataclasses import replace

        loss, _, kind = case.partition("-")
        if kind == "topk":
            cfg = replace(TINY, synthetic=replace(TINY.synthetic, patches=4), agg=AggregationParams(k_s=0.5, k_t=0.4))
        else:
            cfg = replace(TINY, refiner_kind=kind or "identity")
        result = train(replace(cfg, video_loss=loss))
        digest = _digest(*(p.value for _, p in result.model.parameters()))
        assert (digest, result.history[-1]["total"]) == PINNED_RUNS[case]


def test_loss_nodes_in_build_order(monkeypatch):
    # perfbench names each scalar node that build_losses makes by its place:
    # video, InfoNCE, SSHN, then frame; the total adds them in that order
    from apranking import autodiff as ad
    from apranking.model import init_model
    from apranking.synthetic import generate_corpus
    from apranking.trainer import build_losses

    made, summed = [], []
    scalar_node, add_scaled = ad.scalar_node, ad.add_scaled

    def recording_scalar_node(v, forward_with_grad):
        made.append((v, scalar_node(v, forward_with_grad)))
        return made[-1][1]

    def recording_add_scaled(terms):
        summed.append(list(terms))
        return add_scaled(summed[-1])

    monkeypatch.setattr(ad, "scalar_node", recording_scalar_node)
    monkeypatch.setattr(ad, "add_scaled", recording_add_scaled)
    clips = generate_corpus(PINNED_SYN)
    weights = LossWeights(lambda_v=4.0, lambda_s=2.0, lambda_f=6.0)
    cfg = TrainConfig(synthetic=PINNED_SYN, video_loss="triplet", weights=weights)  # every term nonzero
    model = init_model(PINNED_SYN.dim, seed=7, init_noise=0.05)
    _, components = build_losses(cfg, model, [clips[i] for i in PINNED_BATCHES["balanced"]], {})
    names = ("loss_video", "loss_nce", "loss_sshn", "loss_frame")
    assert [node.item() for _, node in made] == [components[name] for name in names]
    assert [v is made[0][0] for v, _ in made] == [True, True, True, False]  # the frame node reads frames
    [terms] = summed
    assert [weight for weight, _ in terms] == [4.0, 1.0, 2.0, 6.0]
    assert all(term is node for (_, term), (_, node) in zip(terms, made, strict=True))


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
        from apranking.losses import RANKING_LOSSES
        from apranking.trainer import _record_video_loss_margins

        rng = np.random.default_rng(4)
        for i in range(40):
            groups = np.repeat(np.arange(4), 4) if i % 2 else rng.integers(0, 4, size=9)
            rel = RelevanceMatrix.from_groups(groups)
            sim = rng.uniform(-1.0, 1.0, size=(rel.n, rel.n))
            if i % 4 < 2:
                sim = np.round(sim, 1)  # ties: zero gaps
            for loss in RANKING_LOSSES:
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


def add_at_frame_loss(frame_values, spec, p):
    """Oracle: the frame loss gathered by 4-array fancy indexing and
    scattered by np.add.at."""
    from apranking.losses import quadlinear_ap_risk_rows

    npairs, t, npos = spec.pos_idx.shape
    nneg = spec.neg_idx.shape[2]
    a_idx = spec.pairs[:, 0][:, None, None]
    b_idx = spec.pairs[:, 1][:, None, None]
    rows = np.arange(t)[None, :, None]
    pos_scores = frame_values[a_idx, b_idx, rows, spec.pos_idx].reshape(npairs * t, npos)
    neg_scores = frame_values[a_idx, b_idx, rows, spec.neg_idx].reshape(npairs * t, nneg)
    values, gpos, gneg = quadlinear_ap_risk_rows(pos_scores, neg_scores, p)
    value = float(values.reshape(npairs, t).mean(axis=1).mean())
    grad = np.zeros_like(frame_values)
    scale = 1.0 / (npairs * t)
    np.add.at(grad, (a_idx, b_idx, rows, spec.pos_idx), gpos.reshape(npairs, t, npos) * scale)
    np.add.at(grad, (a_idx, b_idx, rows, spec.neg_idx), gneg.reshape(npairs, t, nneg) * scale)
    return value, grad


def per_pair_spec(batch_clips, rel, rates):
    """Oracle: the frame-loss labels of every relevant ordered pair from a
    loop over all n^2 pairs, one teacher product and one stable descending
    argsort per frame row each."""
    pairs, pos, neg = [], [], []
    for a, ca in enumerate(batch_clips):
        for b, cb in enumerate(batch_clips):
            if a == b or rel.entries[a, b] != 1:
                continue
            na = np.linalg.norm(ca.teacher.data, axis=1, keepdims=True)
            nb = np.linalg.norm(cb.teacher.data, axis=1, keepdims=True)
            sim = (ca.teacher.data / na) @ (cb.teacher.data / nb).T
            npos, nneg = rates.counts(sim.shape[1])
            order = [np.argsort(-row, kind="stable") for row in sim]
            pairs.append((a, b))
            pos.append(np.stack([np.sort(o[:npos]) for o in order]))
            neg.append(np.stack([np.sort(o[o.size - nneg :]) for o in order]))
    return np.asarray(pairs), np.stack(pos), np.stack(neg)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestFrameLossPaths:
    """The stacked labeling and the flat-index frame loss against the
    per-pair and add.at forms they replace, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_spec_matches_per_pair_labels(self, seed):
        from dataclasses import replace

        from apranking.ranking import RelevanceMatrix
        from apranking.synthetic import generate_corpus
        from apranking.trainer import _frame_loss_spec

        corpus = generate_corpus(replace(PINNED_SYN, seed=seed))
        rng = np.random.default_rng(seed)
        batch = [corpus[i] for i in rng.choice(len(corpus), size=9, replace=False)]
        rel = RelevanceMatrix.from_groups([c.group for c in batch])
        rates = LabelRates(0.35, 0.35)
        cache = {}
        for _ in range(2):  # labeled, then read from the cache
            spec = _frame_loss_spec(batch, rel, cache, rates)
            pairs, pos, neg = per_pair_spec(batch, rel, rates)
            assert np.array_equal(spec.pairs, pairs)
            assert np.array_equal(spec.pos_idx, pos) and np.array_equal(spec.neg_idx, neg)

    @pytest.mark.parametrize("seed", range(6))
    def test_flat_index_loss_matches_add_at(self, seed):
        from apranking.trainer import _frame_loss, _FrameLossSpec

        rng = np.random.default_rng(seed)
        n, t, tc = int(rng.integers(2, 5)), int(rng.integers(1, 6)), int(rng.integers(3, 9))
        npos = int(rng.integers(1, tc - 1))
        nneg = int(rng.integers(1, tc - npos + 1))
        values = rng.uniform(-1.0, 1.0, size=(n, n, t, tc))
        if seed % 2:  # ties, exact gaps on the kinks, and signed zeros
            values = np.round(values, 1)
            values[rng.random(values.shape) < 0.2] = -0.0
        pairs = np.argwhere(~np.eye(n, dtype=bool))[rng.random(n * (n - 1)) < 0.7]
        if not len(pairs):
            pairs = np.array([[0, 1]])
        cols = np.array([[rng.permutation(tc) for _ in range(t)] for _ in range(len(pairs))])
        spec = _FrameLossSpec(pairs, np.sort(cols[..., :npos]), np.sort(cols[..., npos : npos + nneg]))
        for p in (QuadLinearParams(0.05, 5.0), QuadLinearParams(0.5, 0.1)):
            value, grad = _frame_loss(values, spec, p)
            expected_value, expected_grad = add_at_frame_loss(values, spec, p)
            assert same_bits(value, expected_value)
            assert same_bits(grad, expected_grad)

    def test_label_cache_survives_reused_object_ids(self):
        # a cache keyed by object ids alone hands a freed batch's labels to
        # the next batch whose clips reuse those ids
        import gc
        from dataclasses import replace

        from apranking.model import init_model
        from apranking.synthetic import generate_corpus
        from apranking.trainer import build_losses

        cfg = TrainConfig(synthetic=replace(hard_preset().synthetic, num_clips=16, num_groups=4))
        model = init_model(cfg.synthetic.dim, seed=0)
        shared = {}
        for seed in range(39):
            batch = generate_corpus(replace(cfg.synthetic, seed=seed))
            _, fresh = build_losses(cfg, model, batch, {})
            _, cached = build_losses(cfg, model, batch, shared)
            assert cached["loss_frame"] == fresh["loss_frame"], seed
            del batch
            gc.collect()
