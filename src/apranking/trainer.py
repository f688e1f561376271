"""Desk-scale training loop: sample a batch, build the similarity graph,
apply the hierarchical loss, and update the head/refiner parameters.

Per iteration: a group-balanced batch is drawn, pseudo labels come from the
frozen teacher view of each relevant clip pair (cached per pair; the pairs
a batch meets for the first time are labeled in one stacked pass), the
video-level matrix feeds the listwise ranking loss plus the
InfoNCE/self-similarity base terms, the frame-level matrices feed the same
ranking loss under the pseudo labels, and the weighted total backpropagates
to every trainable parameter. Single threaded and fully seeded: identical
configs produce identical parameters.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import traceback
import typing
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from . import autodiff as ad
from .aggregation import AggregationParams, RefinerParams
from .errors import NumericsError, ParameterError, check_range
from .losses import (
    RANKING_LOSSES,
    QuadLinearParams,
    SmoothApParams,
    infonce_loss_rows,
    matrix_loss,
    query_masks,
    quadlinear_ap_risk_rows,
    sshn_matrix_loss,
)
from .metrics import MetricReport, evaluate_retrieval
from .model import Model, eval_similarity_matrix, forward_similarity, init_model
from .pseudolabels import LabelRates, pseudo_label_indices, teacher_frame_similarities
from .ranking import RelevanceMatrix
from .synthetic import SyntheticConfig, generate_corpus

__all__ = [
    "LossWeights",
    "OptimizerConfig",
    "AdamWState",
    "HeldoutConfig",
    "TrainConfig",
    "TrainResult",
    "train",
    "heldout_corpus",
    "initial_model",
    "build_losses",
    "evaluate_model",
    "easy_preset",
    "hard_preset",
    "REFERENCE_SEEDS",
    "HARD_VARIANTS",
    "variant",
    "run_variants",
    "config_to_dict",
    "config_from_dict",
]


@dataclass(frozen=True)
class LossWeights:
    """Trade-off weights of the total loss and the InfoNCE temperature."""

    lambda_v: float = 4.0
    lambda_f: float = 6.0
    lambda_s: float = 1.0
    tau_nce: float = 0.1

    def __post_init__(self):
        check_range("nonnegative", lambda_v=self.lambda_v, lambda_f=self.lambda_f, lambda_s=self.lambda_s)
        check_range("positive", tau_nce=self.tau_nce)


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
        check_range("positive", lr=self.lr, eps=self.eps)
        check_range("nonnegative", weight_decay=self.weight_decay)
        check_range("in [0, 1)", warmup_frac=self.warmup_frac, beta1=self.beta1, beta2=self.beta2)


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

    def __post_init__(self):
        check_range("an integer >= 1", num_clips=self.num_clips, num_groups=self.num_groups)
        check_range("nonnegative", seed_offset=self.seed_offset)
        if self.num_clips < self.num_groups:
            raise ParameterError(f"num_groups must be at most num_clips ({self.num_clips}), got {self.num_groups}")


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
        if self.video_loss not in RANKING_LOSSES:
            raise ParameterError(
                f"unknown video loss {self.video_loss!r}; choose from {tuple(RANKING_LOSSES)}"
            )
        check_range("nonnegative", iterations=self.iterations, eval_every=self.eval_every, seed=self.seed,
                    margin=self.margin, init_noise=self.init_noise)
        check_range("an integer >= 1", groups_per_batch=self.groups_per_batch,
                    clips_per_group=self.clips_per_group, downsample=self.downsample)
        RefinerParams(self.refiner_kind, downsample=self.downsample)  # checks the kind and the stride
        if self.weights.lambda_f > 0:
            if self.downsample != 1:
                raise ParameterError("frame-level loss needs downsample=1 so labels align with frames")
            # the frame loss labels the frames each clip keeps after crop and dropout
            self.rates.counts(self.synthetic.augment.kept_frames(self.synthetic.frames)[1])


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


# Seeds of the reference runs, and the hard-preset variants of criteria 9 and 10
REFERENCE_SEEDS = (0, 1, 2, 3, 4)
HARD_VARIANTS = ("base", "quadlinear", "smooth", "triplet", "full")


def variant(cfg: TrainConfig, tag: str) -> TrainConfig:
    """``cfg`` as variant ``tag``: "full" is ``cfg`` itself, "base" sets
    ``lambda_v`` and ``lambda_f`` to 0, and a ranking-loss name trains that
    video loss with ``lambda_f`` 0."""
    if tag == "full":
        return cfg
    if tag == "base":
        return replace(cfg, weights=replace(cfg.weights, lambda_v=0.0, lambda_f=0.0))
    if tag not in RANKING_LOSSES:
        raise ParameterError(f"unknown variant {tag!r}; choose from full, base or {tuple(RANKING_LOSSES)}")
    return replace(cfg, video_loss=tag, weights=replace(cfg.weights, lambda_f=0.0))


def run_variants(preset, tags) -> dict:
    """``{tag: [TrainResult, ...]}``: ``variant(preset(seed=s), tag)`` trained
    once for each tag and each seed s of :data:`REFERENCE_SEEDS`, in order."""
    return {tag: [train(variant(preset(seed=seed), tag)) for seed in REFERENCE_SEEDS] for tag in tags}


# ---------------------------------------------------------------------------
# loss assembly over the graph
# ---------------------------------------------------------------------------


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
    """The pseudo labels of every relevant ordered pair (a, b), a != b, in
    row-major order. ``label_cache`` maps (id(a), id(b)) to (a, b, pos, neg);
    an entry holds its clips, so their ids cannot be reused by other clips
    while it lives. The pairs it lacks are labeled in one stacked pass."""
    entries = batch_rel.entries == 1
    np.fill_diagonal(entries, False)
    pairs = np.argwhere(entries)
    if not len(pairs):
        return None
    clips = [(batch_clips[a], batch_clips[b]) for a, b in pairs.tolist()]
    missing = [(a, b) for a, b in clips if (id(a), id(b)) not in label_cache]
    if missing:
        teacher = teacher_frame_similarities([a.teacher for a, _ in missing], [b.teacher for _, b in missing])
        for (a, b), pos, neg in zip(missing, *pseudo_label_indices(teacher, rates)):
            label_cache[id(a), id(b)] = (a, b, pos, neg)
    found = [label_cache[id(a), id(b)] for a, b in clips]
    return _FrameLossSpec(
        pairs, np.stack([entry[2] for entry in found]), np.stack([entry[3] for entry in found])
    )


def _frame_loss(frame_values, spec: _FrameLossSpec, p: QuadLinearParams, guard=None):
    """Quad-linear risk over pseudo-labeled frame rows, averaged per pair and
    then over pairs; returns (value, grad wrt the frame tensor). Scores are
    gathered and gradients written through flat indices into the (n, n, T,
    T') tensor; no position is labeled twice."""
    npairs, t, npos = spec.pos_idx.shape
    nneg = spec.neg_idx.shape[2]
    n, _, _, tc = frame_values.shape
    rows = ((spec.pairs[:, 0] * n + spec.pairs[:, 1])[:, None] * t + np.arange(t)) * tc
    pos_flat = spec.pos_idx + rows[:, :, None]
    neg_flat = spec.neg_idx + rows[:, :, None]
    flat = frame_values.reshape(-1)
    pos_scores = flat[pos_flat].reshape(npairs * t, npos)
    neg_scores = flat[neg_flat].reshape(npairs * t, nneg)
    if guard is not None:
        gaps = neg_scores[:, None, :] - pos_scores[:, :, None]
        pos_gaps = (pos_scores[:, None, :] - pos_scores[:, :, None])[:, ~np.eye(npos, dtype=bool)]
        _gap_margins(gaps, pos_gaps, p.delta, guard)
    values, gpos, gneg = quadlinear_ap_risk_rows(pos_scores, neg_scores, p)
    value = float(values.reshape(npairs, t).mean(axis=1).mean())
    grad = np.zeros(frame_values.shape)
    scale = 1.0 / (npairs * t)
    grad_flat = grad.reshape(-1)
    # + 0.0 turns -0.0 into +0.0, as adding into the zero gradient does
    grad_flat[pos_flat] = gpos.reshape(npairs, t, npos) * scale + 0.0
    grad_flat[neg_flat] = gneg.reshape(npairs, t, nneg) * scale + 0.0
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

    def matrix_node(loss_fn):
        """The scalar node of ``loss_fn(similarity, rel)`` on the similarity matrix."""

        def fn(values):
            out = loss_fn(values, rel)
            return out.value, out.grad

        return ad.scalar_node(sim_var, fn)

    video_rows = RANKING_LOSSES[cfg.video_loss](cfg.qlap_video, cfg.smooth, cfg.margin)
    loss_v = matrix_node(partial(matrix_loss, rows_fn=video_rows))
    loss_nce = matrix_node(partial(matrix_loss, rows_fn=partial(infonce_loss_rows, tau=cfg.weights.tau_nce)))
    loss_sshn = matrix_node(sshn_matrix_loss)
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


def _norms(value: np.ndarray) -> dict:
    """Euclidean norm and largest magnitude of a parameter. The norm is taken
    of value / max_abs and scaled back, so a finite parameter whose squares
    overflow still reports its finite norm."""
    max_abs = float(np.max(np.abs(value)))
    if max_abs == 0.0 or not np.isfinite(max_abs):
        return {"norm": float(np.linalg.norm(value)), "max_abs": max_abs}
    return {"norm": max_abs * float(np.linalg.norm(value / max_abs)), "max_abs": max_abs}


def _dump_snapshot(out_dir: str, iteration: int, model: Model, batch: list[int]) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"nan_snapshot_iter{iteration}.json")
    with np.errstate(over="ignore", invalid="ignore"):
        payload = {
            "iteration": iteration,
            "batch_indices": list(map(int, batch)),
            "parameters": {name: _norms(p.value) for name, p in model.parameters()},
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


def heldout_corpus(cfg: TrainConfig) -> list:
    """The held-out clips of a config: the training recipe at
    ``cfg.heldout``'s size, seeded ``seed_offset`` past the training corpus."""
    return generate_corpus(
        replace(
            cfg.synthetic,
            num_clips=cfg.heldout.num_clips,
            num_groups=cfg.heldout.num_groups,
            seed=cfg.synthetic.seed + cfg.heldout.seed_offset,
        )
    )


def initial_model(cfg: TrainConfig) -> Model:
    """The model a config trains from, seeded by ``cfg.seed``."""
    return init_model(
        dim=cfg.synthetic.dim,
        refiner_kind=cfg.refiner_kind,
        downsample=cfg.downsample,
        seed=cfg.seed,
        init_noise=cfg.init_noise,
    )


def train(cfg: TrainConfig, out_dir: str | None = None) -> TrainResult:
    """Run the optimization loop; deterministic for a fixed config."""
    corpus = generate_corpus(cfg.synthetic)
    heldout, model = heldout_corpus(cfg), initial_model(cfg)

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


# JSON value types a config field of each annotated type takes; a JSON
# bool is a Python int, so the numeric fields exclude it by name
_JSON_TYPES = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _build(cls, payload, path: str):
    """``cls`` from the JSON object ``payload`` found at ``path``, nested
    configs built from their own objects; a value of the wrong JSON type
    raises ParameterError naming its path, and so does a nested config's
    out-of-range value (each such message starts with the field's name)."""
    if not isinstance(payload, dict):
        raise ParameterError(f"{path} must be an object, got {json.dumps(payload, default=repr)}")
    hints = typing.get_type_hints(cls)
    unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ParameterError(f"unknown config keys at {path}: {sorted(unknown)}")
    values = {}
    for name, value in payload.items():
        where = name if path == "<root>" else f"{path}.{name}"
        if dataclasses.is_dataclass(hints[name]):
            values[name] = _build(hints[name], value, where)
            continue
        kind, accepts = _JSON_TYPES[hints[name]]
        if not accepts(value):
            raise ParameterError(f"{where} must be {kind}, got {json.dumps(value, default=repr)}")
        values[name] = value
    try:
        return cls(**values)
    except ParameterError as exc:
        if path == "<root>":
            raise
        raise ParameterError(f"{path}.{exc}") from exc


def config_from_dict(payload: dict) -> TrainConfig:
    """Validate and build a TrainConfig from a plain (JSON) dict; unknown
    keys, values of the wrong JSON type and out-of-domain values raise
    ParameterError, the first two naming the offending path."""
    return _build(TrainConfig, payload, "<root>")
