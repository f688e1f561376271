"""Seeded synthetic corpus for desk-scale similarity training.

Clips in the same relevance group share a planted subsequence of latent
frame vectors; each clip embeds them at its own temporal offset, under its
own noise, and pads the rest with private content. The student view is a
patch tensor whose trailing dimensions carry high-variance nuisance noise
(what the trainable head must learn to suppress); the teacher view is a
low-noise projection of the latent frames, so pseudo labels can be validated
against the planted frame correspondences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, floor

import numpy as np

from .aggregation import PatchEmbeddings
from .errors import ParameterError, check_range
from .pseudolabels import FrameEmbeddings

__all__ = [
    "AugmentToggles",
    "SyntheticConfig",
    "Clip",
    "generate_corpus",
    "augment",
    "matched_frame_pairs",
    "planted_correspondence_matrix",
]


@dataclass(frozen=True)
class AugmentToggles:
    """Temporal/noise augmentations applied per clip at corpus build time.

    Order of application: reverse, crop, dropout, shuffle, additive noise.
    Crop keeps a contiguous window after removing round(rate * T) frames;
    dropout removes round(rate * T) random frames. The frame correspondence
    map survives every transform.
    """

    reverse: bool = False
    crop_rate: float = 0.0
    dropout_rate: float = 0.0
    shuffle: bool = False
    noise_sigma: float = 0.0

    def __post_init__(self):
        check_range("in [0, 1)", crop_rate=self.crop_rate, dropout_rate=self.dropout_rate)
        check_range("nonnegative", noise_sigma=self.noise_sigma)

    def kept_frames(self, frames: int) -> tuple[int, int]:
        """Frames a clip of ``frames`` frames keeps after the crop, and then
        after the dropout, each removing round(rate * the frames it gets).
        ParameterError if either would remove every frame."""
        kept = []
        for what, rate in (("crop", self.crop_rate), ("dropout", self.dropout_rate)):
            remove = int(floor(rate * frames + 0.5))
            if remove >= frames:
                raise ParameterError(f"augment.{what}_rate {rate} would remove every frame ({remove} of {frames})")
            frames -= remove
            kept.append(frames)
        return kept[0], kept[1]

    @property
    def any_active(self) -> bool:
        return bool(
            self.reverse or self.shuffle or self.crop_rate or self.dropout_rate or self.noise_sigma
        )


@dataclass(frozen=True)
class SyntheticConfig:
    """Corpus recipe; the seed fully determines the output."""

    num_clips: int = 200
    num_groups: int = 50
    frames: int = 8
    patches: int = 4
    dim: int = 16
    teacher_dim: int = 8
    signal_dim: int = 10
    overlap: float = 0.8
    noise: float = 0.05
    nuisance_scale: float = 12.0
    noise_jitter: float = 1.0
    num_themes: int = 0
    theme_strength: float = 0.0
    teacher_noise_scale: float = 0.1
    smoothness: float = 0.6
    augment: AugmentToggles = field(default_factory=AugmentToggles)
    seed: int = 0

    def __post_init__(self):
        check_range("an integer >= 1", num_clips=self.num_clips, num_groups=self.num_groups,
                    frames=self.frames, patches=self.patches, dim=self.dim,
                    teacher_dim=self.teacher_dim, signal_dim=self.signal_dim)
        check_range("nonnegative", noise=self.noise, nuisance_scale=self.nuisance_scale,
                    teacher_noise_scale=self.teacher_noise_scale, num_themes=self.num_themes, seed=self.seed)
        check_range(">= 1", noise_jitter=self.noise_jitter)  # a max/min ratio
        check_range("in (0, 1]", overlap=self.overlap)
        check_range("in [0, 1)", theme_strength=self.theme_strength, smoothness=self.smoothness)
        if self.num_clips < self.num_groups:
            raise ParameterError(f"num_groups must be at most num_clips ({self.num_clips}), got {self.num_groups}")
        if self.theme_strength > 0 and self.num_themes < 1:
            raise ParameterError("theme_strength needs num_themes >= 1")
        if self.signal_dim > self.dim:
            raise ParameterError(f"signal_dim must be at most dim ({self.dim}), got {self.signal_dim}")
        self.augment.kept_frames(self.frames)  # crop and dropout leave every clip a frame


@dataclass(frozen=True)
class Clip:
    """One corpus entry: both views, the group id, and the frame map.

    ``frame_map[t]`` is the index into the group's shared segment when frame
    t carries planted content, else -1.
    """

    student: PatchEmbeddings
    teacher: FrameEmbeddings
    group: int
    frame_map: np.ndarray


def _latent_walk(rng: np.random.Generator, length: int, dim: int, alpha: float) -> np.ndarray:
    """Unit-norm AR(1) walk; alpha controls frame-to-frame correlation."""
    out = np.empty((length, dim))
    prev = rng.standard_normal(dim)
    prev /= np.linalg.norm(prev)
    out[0] = prev
    for t in range(1, length):
        step = alpha * prev + np.sqrt(1.0 - alpha**2) * rng.standard_normal(dim)
        prev = step / np.linalg.norm(step)
        out[t] = prev
    return out


def _shared_length(overlap: float, frames: int) -> int:
    return min(frames, max(1, int(floor(overlap * frames + 0.5))))


def generate_corpus(cfg: SyntheticConfig) -> list[Clip]:
    """Build the full clip list for a config; bit-identical per seed."""
    rng = np.random.default_rng(cfg.seed)
    m = _shared_length(cfg.overlap, cfg.frames)
    nuisance_dim = cfg.dim - cfg.signal_dim
    sigma_teacher = cfg.teacher_noise_scale * cfg.noise
    teacher_proj = rng.standard_normal((cfg.signal_dim, cfg.teacher_dim)) / np.sqrt(
        cfg.signal_dim
    )

    # round-robin group assignment keeps group sizes as even as possible
    groups = [g % cfg.num_groups for g in range(cfg.num_clips)]
    shared = [_latent_walk(rng, m, cfg.signal_dim, cfg.smoothness) for _ in range(cfg.num_groups)]
    # themes are clip-wide components living in the same signal subspace as
    # the content: clips of unrelated groups that draw the same theme become
    # confusable negatives that no linear head can fully separate
    themes = None
    if cfg.theme_strength > 0:
        themes = rng.standard_normal((cfg.num_themes, cfg.signal_dim))
        themes /= np.linalg.norm(themes, axis=1, keepdims=True)

    clips = []
    for clip_idx in range(cfg.num_clips):
        g = groups[clip_idx]
        # per-clip noise level: heterogeneous queries stress cross-query
        # calibration, which is what pooled AP measures
        jitter = float(np.exp(rng.uniform(-1.0, 1.0) * np.log(cfg.noise_jitter)))
        sigma = cfg.noise * jitter
        sigma_nui = cfg.nuisance_scale * sigma
        start = int(rng.integers(0, cfg.frames - m + 1))
        latents = np.empty((cfg.frames, cfg.signal_dim))
        frame_map = np.full(cfg.frames, -1, dtype=np.int64)
        if start:
            latents[:start] = _latent_walk(rng, start, cfg.signal_dim, cfg.smoothness)
        latents[start : start + m] = shared[g]
        frame_map[start : start + m] = np.arange(m)
        tail = cfg.frames - m - start
        if tail:
            latents[start + m :] = _latent_walk(rng, tail, cfg.signal_dim, cfg.smoothness)
        if themes is not None:
            beta = cfg.theme_strength
            theme = themes[int(rng.integers(0, cfg.num_themes))]
            latents = np.sqrt(1.0 - beta**2) * latents + beta * theme
            latents /= np.linalg.norm(latents, axis=1, keepdims=True)

        signal = latents[:, None, :] + sigma * rng.standard_normal(
            (cfg.frames, cfg.patches, cfg.signal_dim)
        )
        student = np.concatenate(
            [signal, sigma_nui * rng.standard_normal((cfg.frames, cfg.patches, nuisance_dim))],
            axis=2,
        ) if nuisance_dim else signal
        teacher = latents @ teacher_proj + sigma_teacher * rng.standard_normal(
            (cfg.frames, cfg.teacher_dim)
        )
        clip = Clip(
            student=PatchEmbeddings(student),
            teacher=FrameEmbeddings(teacher),
            group=g,
            frame_map=frame_map,
        )
        if cfg.augment.any_active:
            clip = augment(clip, cfg.augment, seed=int(rng.integers(2**63)))
        clips.append(clip)
    return clips


def augment(clip: Clip, toggles: AugmentToggles, seed: int) -> Clip:
    """Apply the toggled temporal transforms to one clip.

    The returned clip's frame map composes with the transform, so planted
    correspondences stay valid. Raises if the transforms would drop every
    frame.
    """
    rng = np.random.default_rng(seed)
    t = clip.student.frames
    cropped, kept = toggles.kept_frames(t)
    idx = np.arange(t)
    if toggles.reverse:
        idx = idx[::-1]
    if toggles.crop_rate:
        start = int(rng.integers(0, t - cropped + 1))
        idx = idx[start : start + cropped]
    if toggles.dropout_rate:
        idx = idx[np.sort(rng.choice(cropped, size=kept, replace=False))]
    if toggles.shuffle:
        idx = idx[rng.permutation(idx.size)]

    student = clip.student.data[idx].copy()
    if toggles.noise_sigma:
        student += toggles.noise_sigma * rng.standard_normal(student.shape)
    return Clip(
        student=PatchEmbeddings(student),
        teacher=FrameEmbeddings(clip.teacher.data[idx].copy()),
        group=clip.group,
        frame_map=clip.frame_map[idx].copy(),
    )


def matched_frame_pairs(a: Clip, b: Clip) -> np.ndarray:
    """(x, y) frame index pairs whose planted content coincides; empty for
    clips from different groups."""
    if a.group != b.group:
        return np.zeros((0, 2), dtype=np.int64)
    pairs = []
    for x, u in enumerate(a.frame_map):
        if u < 0:
            continue
        ys = np.flatnonzero(b.frame_map == u)
        pairs.extend((x, int(y)) for y in ys)
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def planted_correspondence_matrix(
    rows: int,
    cols: int,
    overlap: float,
    margin: float = 0.4,
    noise: float = 0.05,
    seed: int = 0,
):
    """Teacher-like similarity matrix with known per-row correspondences.

    Each row gets ceil(overlap * cols) planted columns whose values exceed
    every unplanted value by at least margin - 2 * noise (> 0 is enforced),
    so rank-based labeling at any top rate <= overlap selects planted
    columns only. Returns (matrix, planted_mask).
    """
    check_range("in (0, 1]", overlap=overlap)
    if not 0.0 <= noise < margin / 2:
        raise ParameterError("noise must stay below half the margin")
    rng = np.random.default_rng(seed)
    k = ceil(overlap * cols)
    mask = np.zeros((rows, cols), dtype=bool)
    sim = 0.7 - margin + noise * rng.uniform(-1.0, 1.0, size=(rows, cols))
    for x in range(rows):
        planted = rng.choice(cols, size=k, replace=False)
        mask[x, planted] = True
        sim[x, planted] = 0.7 + noise * rng.uniform(-1.0, 1.0, size=k)
    return sim, mask
