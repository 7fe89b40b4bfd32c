"""Evidential multi-attribute group decision-making toolkit.

Linguistic-partition mass generation, belief divergence measures,
divergence-driven expert weighting with ideal-solution ranking, and a
feature-fusion harness that applies the same weighting to multi-source
feature matrices.
"""

from .config import RunConfig
from .divergence import (
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
    WpblDistribution,
    belief,
    plausibility,
    wpbl,
)
from .fusion import (
    FeatureSet,
    FusionWeights,
    MetricsReport,
    estimate_fusion_weights,
    evaluate_fusion,
    fuse_features,
    make_synthetic_sources,
)
from .linguistic import BpaTensor, DecisionGroup, DecisionMatrix, LinguisticPartition, MembershipMatrix
from .pipeline import (
    ExpertWeights,
    OwaWeights,
    PipelineResult,
    RankingResult,
    fuse,
    rank,
    run_pipeline,
)

__version__ = "0.1.0"
