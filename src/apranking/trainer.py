"""Desk-scale training loop: sample a batch, build the similarity graph,
apply the hierarchical loss, and update the head/refiner parameters.

Per iteration: a group-balanced batch is drawn, pseudo labels come from the
frozen teacher view of each relevant clip pair, the video-level matrix feeds
the listwise ranking loss plus the InfoNCE/self-similarity base terms, the
frame-level matrices feed the same ranking loss under the pseudo labels, and
the weighted total backpropagates to every trainable parameter. Single
threaded and fully seeded: identical configs produce identical parameters.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import traceback
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import autodiff as ad
from .aggregation import AggregationParams
from .errors import NumericsError, ParameterError
from .losses import (
    MatrixLossOutput,
    QuadLinearParams,
    SmoothApParams,
    contrastive_loss_rows,
    infonce_loss_rows,
    matrix_loss,
    query_masks,
    quadlinear_ap_risk_rows,
    smooth_ap_risk_rows,
    sshn_matrix_loss,
    triplet_loss_rows,
)
from .metrics import MetricReport, evaluate_retrieval
from .model import Model, eval_similarity_matrix, forward_similarity, init_model
from .pseudolabels import LabelRates, generate_pseudo_labels, teacher_frame_similarity
from .ranking import RelevanceMatrix
from .synthetic import AugmentToggles, SyntheticConfig, generate_corpus

__all__ = [
    "LossWeights",
    "OptimizerConfig",
    "AdamWState",
    "HeldoutConfig",
    "TrainConfig",
    "TrainResult",
    "train",
    "init_heldout_and_model",
    "build_losses",
    "evaluate_model",
    "easy_preset",
    "hard_preset",
    "config_to_dict",
    "config_from_dict",
    "VIDEO_LOSSES",
]

VIDEO_LOSSES = ("quadlinear", "smooth", "triplet", "contrastive")


@dataclass(frozen=True)
class LossWeights:
    """Trade-off weights of the total loss and the InfoNCE temperature."""

    lambda_v: float = 4.0
    lambda_f: float = 6.0
    lambda_s: float = 1.0
    tau_nce: float = 0.1

    def __post_init__(self):
        if min(self.lambda_v, self.lambda_f, self.lambda_s) < 0:
            raise ParameterError("loss weights must be nonnegative")
        if not self.tau_nce > 0:
            raise ParameterError("tau_nce must be positive")


@dataclass(frozen=True)
class OptimizerConfig:
    """Adaptive-moment optimizer with decoupled weight decay and a linear
    warm-up followed by cosine decay to zero."""

    lr: float = 4e-4
    weight_decay: float = 1e-2
    warmup_frac: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not self.lr > 0:
            raise ParameterError("lr must be positive")
        if not 0.0 <= self.warmup_frac < 1.0:
            raise ParameterError("warmup_frac must lie in [0, 1)")


class AdamWState:
    """First/second-moment accumulators plus the warm-up/cosine schedule."""

    def __init__(self, params, cfg: OptimizerConfig, total_steps: int):
        self.cfg = cfg
        self.total_steps = max(1, total_steps)
        self.warmup_steps = int(round(cfg.warmup_frac * self.total_steps))
        self.step_count = 0
        self.m = {name: np.zeros_like(p.value) for name, p in params}
        self.v = {name: np.zeros_like(p.value) for name, p in params}

    def lr_at(self, step: int) -> float:
        base = self.cfg.lr
        if self.warmup_steps and step < self.warmup_steps:
            return base * (step + 1) / self.warmup_steps
        horizon = max(1, self.total_steps - self.warmup_steps)
        progress = min(1.0, (step - self.warmup_steps) / horizon)
        return base * 0.5 * (1.0 + float(np.cos(np.pi * progress)))

    def update(self, params):
        lr = self.lr_at(self.step_count)
        self.step_count += 1
        b1, b2 = self.cfg.beta1, self.cfg.beta2
        bias1 = 1.0 - b1**self.step_count
        bias2 = 1.0 - b2**self.step_count
        for name, p in params:
            g = p.grad
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            mhat = self.m[name] / bias1
            vhat = self.v[name] / bias2
            p.value = p.value - lr * (
                mhat / (np.sqrt(vhat) + self.cfg.eps) + self.cfg.weight_decay * p.value
            )


@dataclass(frozen=True)
class HeldoutConfig:
    """Fresh-corpus evaluation split derived from the training recipe."""

    num_clips: int = 48
    num_groups: int = 12
    seed_offset: int = 104729


@dataclass(frozen=True)
class TrainConfig:
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    heldout: HeldoutConfig = field(default_factory=HeldoutConfig)
    agg: AggregationParams = field(default_factory=AggregationParams)
    refiner_kind: str = "identity"
    downsample: int = 1
    video_loss: str = "quadlinear"
    qlap_video: QuadLinearParams = field(default_factory=lambda: QuadLinearParams(0.05, 0.10))
    qlap_frame: QuadLinearParams = field(default_factory=lambda: QuadLinearParams(0.05, 5.00))
    smooth: SmoothApParams = field(default_factory=SmoothApParams)
    margin: float = 0.2
    rates: LabelRates = field(default_factory=LabelRates)
    weights: LossWeights = field(default_factory=LossWeights)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    iterations: int = 2000
    groups_per_batch: int = 4
    clips_per_group: int = 4
    seed: int = 0
    eval_every: int = 500
    init_noise: float = 0.02

    def __post_init__(self):
        if self.video_loss not in VIDEO_LOSSES:
            raise ParameterError(
                f"unknown video loss {self.video_loss!r}; choose from {VIDEO_LOSSES}"
            )
        if self.iterations < 0:
            raise ParameterError("iterations must be nonnegative")
        if self.groups_per_batch < 1 or self.clips_per_group < 1:
            raise ParameterError("batch composition must be positive")
        if self.weights.lambda_f > 0 and self.downsample != 1:
            raise ParameterError(
                "frame-level loss needs downsample=1 so labels align with frames"
            )

    @property
    def batch_size(self) -> int:
        return self.groups_per_batch * self.clips_per_group


@dataclass
class TrainResult:
    model: Model
    config: TrainConfig
    history: list
    initial_report: MetricReport
    final_report: MetricReport


def easy_preset(seed: int = 0, **overrides) -> TrainConfig:
    """Low noise, large planted overlap: trainable to near-perfect retrieval."""
    cfg = TrainConfig(
        synthetic=SyntheticConfig(
            num_clips=200, num_groups=50, overlap=0.8, noise=0.05, nuisance_scale=12.0, seed=seed
        ),
        iterations=2000,
        seed=seed,
    )
    return replace(cfg, **overrides) if overrides else cfg


def hard_preset(seed: int = 0, **overrides) -> TrainConfig:
    """High noise, small planted overlap: ranking quality saturates well below
    1, which is where the loss functions separate."""
    cfg = TrainConfig(
        synthetic=SyntheticConfig(
            num_clips=200, num_groups=50, overlap=0.3, noise=0.3, nuisance_scale=2.0, seed=seed
        ),
        iterations=1200,
        seed=seed,
    )
    return replace(cfg, **overrides) if overrides else cfg


# ---------------------------------------------------------------------------
# loss assembly over the graph
# ---------------------------------------------------------------------------


def _video_matrix_loss(cfg: TrainConfig, sim: np.ndarray, rel: RelevanceMatrix) -> MatrixLossOutput:
    rows_fn = {
        "quadlinear": partial(quadlinear_ap_risk_rows, p=cfg.qlap_video),
        "smooth": partial(smooth_ap_risk_rows, p=cfg.smooth),
        "triplet": partial(triplet_loss_rows, margin=cfg.margin),
        "contrastive": partial(contrastive_loss_rows, margin=cfg.margin),
    }[cfg.video_loss]
    return matrix_loss(sim, rel, rows_fn)


def _gap_margins(gaps: np.ndarray, pos_gaps: np.ndarray, delta: float, guard: ad.BreakpointGuard):
    """Record distances of positive-negative gaps to the quad-linear kinks
    and of positive-positive gaps to the step discontinuity."""
    guard.record(np.abs(gaps))
    guard.record(np.abs(gaps + delta))
    guard.record(np.abs(pos_gaps))


def _record_video_loss_margins(cfg, sim, rel, guard: ad.BreakpointGuard):
    pos, neg = query_masks(rel)
    d = sim[:, None, :] - sim[:, :, None]  # d[k, i, j] = s_kj - s_ki
    gaps = d[pos[:, :, None] & neg[:, None, :]]  # every row's negative minus positive gaps
    if cfg.video_loss == "quadlinear":
        off = ~np.eye(rel.n, dtype=bool)
        _gap_margins(gaps, d[pos[:, :, None] & pos[:, None, :] & off], cfg.qlap_video.delta, guard)
    elif cfg.video_loss in ("triplet", "contrastive"):
        guard.record(np.abs(gaps + cfg.margin))
        if cfg.video_loss == "contrastive":
            guard.record(np.abs(sim[neg] - cfg.margin))
    # clamp edges of the hardest-negative log term
    hardest = np.where(neg, sim, -np.inf).max(axis=1)[neg.any(axis=1)]
    guard.record(np.abs(1.0 - 1e-6 - hardest))
    guard.record(np.abs(hardest))


class _FrameLossSpec:
    """Pseudo-label index arrays for the relevant ordered pairs of a batch."""

    def __init__(self, pairs, pos_idx, neg_idx):
        self.pairs = pairs  # (P, 2) batch-local clip indices
        self.pos_idx = pos_idx  # (P, T, npos)
        self.neg_idx = neg_idx  # (P, T, nneg)


def _frame_loss_spec(batch_clips, batch_rel: RelevanceMatrix, label_cache, rates: LabelRates):
    pairs = []
    pos_parts = []
    neg_parts = []
    n = len(batch_clips)
    for a in range(n):
        for b in range(n):
            if a == b or batch_rel.entries[a, b] != 1:
                continue
            key = (id(batch_clips[a]), id(batch_clips[b]))
            if key not in label_cache:
                teacher = teacher_frame_similarity(batch_clips[a].teacher, batch_clips[b].teacher)
                labels = generate_pseudo_labels(teacher, rates).labels
                t = labels.shape[0]
                pos = np.stack([np.flatnonzero(labels[x] == 1) for x in range(t)])
                neg = np.stack([np.flatnonzero(labels[x] == -1) for x in range(t)])
                label_cache[key] = (pos, neg)
            pos, neg = label_cache[key]
            pairs.append((a, b))
            pos_parts.append(pos)
            neg_parts.append(neg)
    if not pairs:
        return None
    return _FrameLossSpec(
        np.asarray(pairs, dtype=np.int64), np.stack(pos_parts), np.stack(neg_parts)
    )


def _frame_loss(frame_values, spec: _FrameLossSpec, p: QuadLinearParams, guard=None):
    """Quad-linear risk over pseudo-labeled frame rows, averaged per pair and
    then over pairs; returns (value, grad wrt the frame tensor)."""
    npairs, t, npos = spec.pos_idx.shape
    nneg = spec.neg_idx.shape[2]
    a_idx = spec.pairs[:, 0][:, None, None]
    b_idx = spec.pairs[:, 1][:, None, None]
    rows = np.arange(t)[None, :, None]
    pos_scores = frame_values[a_idx, b_idx, rows, spec.pos_idx].reshape(npairs * t, npos)
    neg_scores = frame_values[a_idx, b_idx, rows, spec.neg_idx].reshape(npairs * t, nneg)
    if guard is not None:
        gaps = neg_scores[:, None, :] - pos_scores[:, :, None]
        pos_gaps = (pos_scores[:, None, :] - pos_scores[:, :, None])[:, ~np.eye(npos, dtype=bool)]
        _gap_margins(gaps, pos_gaps, p.delta, guard)
    values, gpos, gneg = quadlinear_ap_risk_rows(pos_scores, neg_scores, p)
    value = float(values.reshape(npairs, t).mean(axis=1).mean())
    grad = np.zeros_like(frame_values)
    scale = 1.0 / (npairs * t)
    gpos = gpos.reshape(npairs, t, npos) * scale
    gneg = gneg.reshape(npairs, t, nneg) * scale
    np.add.at(grad, (a_idx, b_idx, rows, spec.pos_idx), gpos)
    np.add.at(grad, (a_idx, b_idx, rows, spec.neg_idx), gneg)
    return value, grad


def build_losses(
    cfg: TrainConfig,
    model: Model,
    batch_clips,
    label_cache: dict,
    guard: ad.BreakpointGuard | None = None,
):
    """Forward pass plus all loss nodes; returns (total Var, components dict)."""
    rel = RelevanceMatrix.from_groups([c.group for c in batch_clips])
    data = np.stack([c.student.data for c in batch_clips])
    sim_var, frame_var = forward_similarity(model, data, cfg.agg, guard=guard)
    if not np.all(np.isfinite(sim_var.value)):
        raise NumericsError("non-finite similarity values in the forward pass")

    if guard is not None:
        _record_video_loss_margins(cfg, sim_var.value, rel, guard)

    def video_fn(values):
        out = _video_matrix_loss(cfg, values, rel)
        return out.value, out.grad

    def nce_fn(values):
        out = matrix_loss(values, rel, partial(infonce_loss_rows, tau=cfg.weights.tau_nce))
        return out.value, out.grad

    def sshn_fn(values):
        out = sshn_matrix_loss(values, rel)
        return out.value, out.grad

    loss_v = ad.scalar_node(sim_var, video_fn)
    loss_nce = ad.scalar_node(sim_var, nce_fn)
    loss_sshn = ad.scalar_node(sim_var, sshn_fn)
    components = {
        "loss_video": loss_v.item(),
        "loss_nce": loss_nce.item(),
        "loss_sshn": loss_sshn.item(),
        "loss_frame": 0.0,
    }
    terms = [
        (cfg.weights.lambda_v, loss_v),
        (1.0, loss_nce),
        (cfg.weights.lambda_s, loss_sshn),
    ]

    if cfg.weights.lambda_f > 0:
        spec = _frame_loss_spec(batch_clips, rel, label_cache, cfg.rates)
        if spec is not None:
            loss_f = ad.scalar_node(
                frame_var,
                lambda values: _frame_loss(values, spec, cfg.qlap_frame, guard=guard),
            )
            components["loss_frame"] = loss_f.item()
            terms.append((cfg.weights.lambda_f, loss_f))

    total = ad.add_scaled(terms)
    components["total"] = total.item()
    return total, components


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


def evaluate_model(model: Model, clips, agg: AggregationParams) -> MetricReport:
    sim = eval_similarity_matrix(model, clips, agg)
    rel = RelevanceMatrix.from_groups([c.group for c in clips])
    return evaluate_retrieval(sim, rel, exclude_self=True)


def _sample_batch(rng: np.random.Generator, by_group: dict, cfg: TrainConfig) -> list[int]:
    eligible = sorted(g for g, members in by_group.items() if len(members) >= cfg.clips_per_group)
    if len(eligible) < cfg.groups_per_batch:
        raise ParameterError("not enough groups with enough members for a batch")
    chosen = rng.choice(np.asarray(eligible), size=cfg.groups_per_batch, replace=False)
    batch = []
    for g in chosen:
        members = by_group[int(g)]
        picks = rng.choice(len(members), size=cfg.clips_per_group, replace=False)
        batch.extend(members[i] for i in picks)
    return batch


def _dump_snapshot(out_dir: str, iteration: int, model: Model, batch: list[int]) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"nan_snapshot_iter{iteration}.json")
    with np.errstate(over="ignore", invalid="ignore"):  # a norm whose square overflows reads inf
        payload = {
            "iteration": iteration,
            "batch_indices": list(map(int, batch)),
            "parameters": {
                name: {
                    "norm": float(np.linalg.norm(p.value)),
                    "max_abs": float(np.max(np.abs(p.value))),
                }
                for name, p in model.parameters()
            },
        }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


def _origin(exc: BaseException) -> str:
    """module.function of the innermost frame of this package that an
    exception passed through."""
    frames = traceback.walk_tb(exc.__traceback__)
    here = [f for f, _ in frames if f.f_globals.get("__package__") == __package__]
    return f"{here[-1].f_globals['__name__']}.{here[-1].f_code.co_name}"


def _train_step(cfg: TrainConfig, model: Model, optimizer: AdamWState, batch, label_cache) -> dict:
    """Forward, backward and update of one batch; returns the loss components.

    numpy's floating-point errors raise here, so the first quantity that
    overflows, divides by zero or turns invalid stops the step, as does a
    non-finite loss, gradient or updated parameter: NumericsError, naming it.
    """
    model.zero_grads()
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            total, components = build_losses(cfg, model, batch, label_cache)
            if not np.isfinite(total.item()):
                raise NumericsError("non-finite loss")
            total.backward()
            for name, p in model.parameters():
                if not np.all(np.isfinite(p.grad)):
                    raise NumericsError(f"non-finite gradient of {name}")
            optimizer.update(model.parameters())
            for name, p in model.parameters():
                if not np.all(np.isfinite(p.value)):
                    raise NumericsError(f"non-finite {name} after the update")
    except FloatingPointError as exc:
        raise NumericsError(f"{exc} in {_origin(exc)}") from exc
    return components


def init_heldout_and_model(cfg: TrainConfig):
    """(held-out clips, initial model) of a config: the held-out corpus is
    the training recipe at ``cfg.heldout``'s size, seeded ``seed_offset``
    past the training corpus; the model is seeded by ``cfg.seed``."""
    heldout = generate_corpus(
        replace(
            cfg.synthetic,
            num_clips=cfg.heldout.num_clips,
            num_groups=cfg.heldout.num_groups,
            seed=cfg.synthetic.seed + cfg.heldout.seed_offset,
        )
    )
    model = init_model(
        dim=cfg.synthetic.dim,
        refiner_kind=cfg.refiner_kind,
        downsample=cfg.downsample,
        seed=cfg.seed,
        init_noise=cfg.init_noise,
    )
    return heldout, model


def train(cfg: TrainConfig, out_dir: str | None = None) -> TrainResult:
    """Run the optimization loop; deterministic for a fixed config."""
    corpus = generate_corpus(cfg.synthetic)
    heldout, model = init_heldout_and_model(cfg)

    by_group: dict[int, list[int]] = {}
    for i, clip in enumerate(corpus):
        by_group.setdefault(clip.group, []).append(i)

    optimizer = AdamWState(model.parameters(), cfg.optimizer, cfg.iterations)
    rng = np.random.default_rng(cfg.seed + 1)
    label_cache: dict = {}

    initial_report = evaluate_model(model, heldout, cfg.agg)
    history: list[dict] = []

    for it in range(cfg.iterations):
        batch_idx = _sample_batch(rng, by_group, cfg)
        batch = [corpus[i] for i in batch_idx]
        try:
            components = _train_step(cfg, model, optimizer, batch, label_cache)
        except NumericsError as exc:
            snap = _dump_snapshot(out_dir or tempfile.gettempdir(), it, model, batch_idx)
            raise NumericsError(f"{exc} at iteration {it}", snapshot_path=snap) from exc

        row = {"iteration": it, "lr": optimizer.lr_at(it), **components}
        if cfg.eval_every and (it + 1) % cfg.eval_every == 0 and it + 1 != cfg.iterations:
            report = evaluate_model(model, heldout, cfg.agg)
            row["heldout_map"] = report.map
            row["heldout_micro_ap"] = report.micro_ap
        history.append(row)

    final_report = evaluate_model(model, heldout, cfg.agg)
    if history:
        history[-1]["heldout_map"] = final_report.map
        history[-1]["heldout_micro_ap"] = final_report.micro_ap
    return TrainResult(
        model=model,
        config=cfg,
        history=history,
        initial_report=initial_report,
        final_report=final_report,
    )


# ---------------------------------------------------------------------------
# config (de)serialization for the CLI
# ---------------------------------------------------------------------------


def config_to_dict(cfg: TrainConfig) -> dict:
    return asdict(cfg)


def _build(cls, payload: dict, path: str):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(payload) - names
    if unknown:
        raise ParameterError(f"unknown config keys at {path}: {sorted(unknown)}")
    return cls(**payload)


def config_from_dict(payload: dict) -> TrainConfig:
    """Validate and build a TrainConfig from a plain (JSON) dict; unknown keys
    and out-of-domain values raise ParameterError naming the offending path."""
    payload = dict(payload)
    built = {}
    nested = {
        "synthetic": SyntheticConfig,
        "heldout": HeldoutConfig,
        "agg": AggregationParams,
        "qlap_video": QuadLinearParams,
        "qlap_frame": QuadLinearParams,
        "smooth": SmoothApParams,
        "rates": LabelRates,
        "weights": LossWeights,
        "optimizer": OptimizerConfig,
    }
    for key, cls in nested.items():
        if key in payload:
            sub = dict(payload.pop(key))
            if key == "synthetic" and "augment" in sub:
                sub["augment"] = _build(AugmentToggles, dict(sub["augment"]), "synthetic.augment")
            built[key] = _build(cls, sub, key)
    built.update(payload)
    return _build(TrainConfig, built, "<root>")
