"""Trainable similarity model: a linear patch head plus the refiner.

The head is a D-by-D map applied to every patch embedding before cosine
similarity; the refiner re-maps the frame-similarity matrix. Training runs
through the autodiff graph built in :func:`forward_similarity`, whose
spatial node (outside K = 1), refiner and temporal nodes run
:func:`~apranking.aggregation.spatial_topk_chamfer`,
:func:`~apranking.aggregation.refine` and
:func:`~apranking.aggregation.temporal_topk_chamfer` themselves. Evaluation,
:func:`eval_similarity_matrix`, runs the same parameters through the batch
numpy engine :func:`~apranking.aggregation.batch_similarity_matrix`, which
is pinned bitwise to the per-pair oracle
:func:`~apranking.aggregation.video_similarity`; the graph and the engine
are cross-checked in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .aggregation import (
    AggregationParams,
    PatchEmbeddings,
    RefinerParams,
    batch_similarity_matrix,
)
from .errors import StructuralError

__all__ = ["Model", "init_model", "forward_similarity", "model_refiner_params"]


@dataclass
class Model:
    """Parameter container; every field that learns is an autodiff Var."""

    weight: ad.Var
    refiner_kind: str = "identity"
    downsample: int = 1
    refiner_scale: ad.Var | None = None
    refiner_bias: ad.Var | None = None
    conv_weights: ad.Var | None = None
    conv_bias: ad.Var | None = None

    def parameters(self) -> list[tuple[str, ad.Var]]:
        params = [("weight", self.weight)]
        if self.refiner_kind == "affine":
            params += [("refiner_scale", self.refiner_scale), ("refiner_bias", self.refiner_bias)]
        elif self.refiner_kind == "conv":
            params += [("conv_weights", self.conv_weights), ("conv_bias", self.conv_bias)]
        return params

    def zero_grads(self):
        for _, p in self.parameters():
            p.zero_grad()


def init_model(
    dim: int,
    refiner_kind: str = "identity",
    downsample: int = 1,
    seed: int = 0,
    init_noise: float = 0.02,
) -> Model:
    """Head initialized near the identity; refiner initialized near a pass-through."""
    RefinerParams(refiner_kind, downsample=downsample)  # checks the kind and the stride
    rng = np.random.default_rng(seed)
    w = np.eye(dim) + init_noise * rng.standard_normal((dim, dim))
    model = Model(weight=ad.Var(w), refiner_kind=refiner_kind, downsample=downsample)
    if refiner_kind == "affine":
        model.refiner_scale = ad.Var(1.0)
        model.refiner_bias = ad.Var(0.0)
    elif refiner_kind == "conv":
        kernel = np.zeros((3, 3))
        kernel[1, 1] = 1.0
        model.conv_weights = ad.Var(kernel)
        model.conv_bias = ad.Var(0.0)
    return model


def model_refiner_params(model: Model) -> RefinerParams:
    """Snapshot the refiner Vars into the plain aggregation parameter object."""
    if model.refiner_kind == "identity":
        return RefinerParams()
    if model.refiner_kind == "affine":
        return RefinerParams(
            kind="affine",
            scale=model.refiner_scale.item(),
            bias=model.refiner_bias.item(),
            downsample=model.downsample,
        )
    return RefinerParams(
        kind="conv",
        conv_weights=model.conv_weights.value.copy(),
        conv_bias=model.conv_bias.item(),
        downsample=model.downsample,
    )


def forward_similarity(
    model: Model,
    batch_data: np.ndarray,
    params: AggregationParams,
    guard: ad.BreakpointGuard | None = None,
) -> tuple[ad.Var, ad.Var]:
    """Build the batch similarity graph.

    The graph is linear -> normalize -> spatial -> refine -> temporal. The
    head maps and normalises every patch; one fused node,
    :func:`autodiff.spatial_topk_chamfer`, takes the cosine gram, the
    spatial top-K at the rate ``params.k_s`` and the mean over query
    patches to (n, n, T, T) frame similarities, so no (n, T, R, n, T, R)
    tensor or adjoint enters the graph. Outside K = 1 that node runs the
    evaluation spatial stage
    :func:`~apranking.aggregation.spatial_topk_chamfer` forward; at K = 1 the
    stage's own ``patch_mean`` averages the maxima it selects along gram rows.
    It selects once per forward, as the temporal node does, and scatters
    its gradient at the selected patches for every K < R. One node,
    :func:`autodiff.refine`, runs the evaluation refiner
    :func:`~apranking.aggregation.refine` on them, and one node,
    :func:`autodiff.temporal_topk_chamfer`, the evaluation temporal stage
    :func:`~apranking.aggregation.temporal_topk_chamfer`.

    ``batch_data`` is the stacked student view (n, T, R, D). Returns the
    (n, n) video-similarity node and the (n, n, T*, T*) refined
    frame-similarity node (query clip, candidate clip, query frame,
    candidate frame) that the frame-level loss consumes.
    """
    batch_data = np.asarray(batch_data, dtype=np.float64)
    if batch_data.ndim != 4:
        raise StructuralError(f"expected (n, T, R, D) input, got {batch_data.shape}")
    n, t, r, d = batch_data.shape

    mapped = ad.linear(batch_data.reshape(n * t * r, d), model.weight)
    unit = ad.normalize_rows(mapped)
    frame = ad.spatial_topk_chamfer(unit, n, t, r, params.k_s, guard=guard)  # (n, n, T, T)
    refiner_vars = [p for name, p in model.parameters() if name != "weight"]
    refined = ad.refine(frame, model_refiner_params(model), refiner_vars, guard=guard)
    sim = ad.temporal_topk_chamfer(refined, params.k_t, guard=guard)  # (n, n)
    return sim, refined


def eval_similarity_matrix(model: Model, clips, params: AggregationParams) -> np.ndarray:
    """Similarity matrix for evaluation: map each clip through the trained
    head, then run the batch engine on all clip pairs at once."""
    w = model.weight.value
    mapped = [PatchEmbeddings(c.student.data @ w.T) for c in clips]
    return batch_similarity_matrix(mapped, params, model_refiner_params(model))
