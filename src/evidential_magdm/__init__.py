"""Evidential multi-attribute group decision-making toolkit.

Linguistic-partition mass generation, belief divergence measures,
divergence-driven expert weighting with ideal-solution ranking, and a
feature-fusion harness that applies the same weighting to multi-source
feature matrices.
"""

from .config import RunConfig
from .divergence import (
    LogBase,
    belief_js_divergence,
    entropy,
    generalized_belief_divergence,
    generalized_js_divergence,
    js_divergence,
    kl_divergence,
    weighted_belief_divergence,
)
from .evidence import (
    Bpa,
    FrameOfDiscernment,
    PseudoBpa,
    WpblDistribution,
    belief,
    plausibility,
    wpbl,
)
from .fusion import (
    FeatureSet,
    MetricsReport,
    confusion_matrix,
    estimate_fusion_weights,
    evaluate_fusion,
    fuse_features,
    make_synthetic_sources,
    nearest_centroid_fit,
    nearest_centroid_predict,
    score,
)
from .linguistic import (
    BpaTensor,
    DecisionMatrix,
    LinguisticPartition,
    MembershipMatrix,
    bpa_tensor,
    membership_matrix,
    normalize_decision_matrix,
)
from .pipeline import (
    ExpertWeights,
    OwaWeights,
    PipelineResult,
    RankingResult,
    divergence_matrix,
    expert_weights,
    expert_wpbl,
    fuse,
    ordered_weighted_belief,
    ordered_weighted_plausibility,
    owa_weights,
    pairwise_divergence,
    rank,
    run_pipeline,
)

__version__ = "0.1.0"
