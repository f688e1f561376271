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
    r_plus,
    sigmoid_surrogate,
    sigmoid_surrogate_grad,
)
from .metrics import (
    MetricReport,
    average_precision,
    average_precision_rows,
    brute_force_ap,
    evaluate_retrieval,
    micro_ap,
    pooled_order,
    retrieval_report,
)
from .pseudolabels import (
    FrameEmbeddings,
    LabelRates,
    PseudoLabelMatrix,
    generate_pseudo_labels,
    teacher_frame_similarity,
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
