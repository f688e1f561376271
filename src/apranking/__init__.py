"""Average-precision-oriented ranking toolkit.

Listwise AP surrogate losses with analytic gradients, top-K Chamfer-style
sequence similarity, frame-pair pseudo labeling, exact AP/mAP/micro-AP
metrics, and a seeded synthetic training harness with a minimal reverse-mode
autodiff engine.
"""

__version__ = "0.1.0"

from .aggregation import (
    AggregationParams,
    PatchEmbeddings,
    RefinerParams,
    batch_similarity_matrix,
    patch_similarity,
    refine,
    spatial_topk_chamfer,
    temporal_topk_chamfer,
    topk_count,
    video_similarity,
)
from .losses import (
    QuadLinearParams,
    SmoothApParams,
    heaviside_ap_risk,
    r_minus,
    r_minus_grad,
    sigmoid_surrogate,
    sigmoid_surrogate_grad,
)
from .metrics import (
    MetricReport,
    average_precision,
    brute_force_ap,
    evaluate_retrieval,
    pooled_positions,
    retrieval_report,
)
from .pseudolabels import (
    FrameEmbeddings,
    LabelRates,
    pseudo_label_indices,
    teacher_frame_similarities,
)
from .ranking import (
    QueryContext,
    RelevanceMatrix,
    ScoredList,
    heaviside,
    partition_query,
)
from .synthetic import AugmentToggles, Clip, SyntheticConfig, augment, generate_corpus
from .trainer import (
    LossWeights,
    OptimizerConfig,
    TrainConfig,
    TrainResult,
    easy_preset,
    hard_preset,
    train,
)
