"""cascadekit: reshare-cascade analytics and growth prediction."""

from .cascade import (
    CascadeTree,
    ReshareEvent,
    SocialGraph,
    build_cascade,
    induced_subgraph,
    prefix,
)
from .features import (
    ContentRecord,
    FeatureVector,
    extract_features,
    feature_names,
    percentile_90,
    slope_through_origin,
)
from .learner import (
    Metrics,
    Model,
    auc,
    cross_validate,
    evaluate_cluster,
    f1,
    mrr,
    predict_proba,
    train,
)
from .stats import (
    PowerLawSpec,
    fisher_z_compare,
    fit_powerlaw_alpha,
    gini,
    pearson,
    powerlaw_median,
)
from .synth import (
    SynthParams,
    generate_social_graph,
    sample_powerlaw_sizes,
    simulate_cascades,
)
from .tasks import (
    CascadeRecord,
    ClusterInstance,
    TaskDataset,
    build_cluster_task,
    group_summaries,
    label_growth,
    label_growth_fixed_R,
    label_structure,
    rank_single_feature_predictors,
)
from .virality import wiener_index_bruteforce, wiener_index_exact

__version__ = "0.1.0"

__all__ = [
    "CascadeRecord",
    "CascadeTree",
    "ClusterInstance",
    "ContentRecord",
    "FeatureVector",
    "Metrics",
    "Model",
    "PowerLawSpec",
    "ReshareEvent",
    "SocialGraph",
    "SynthParams",
    "TaskDataset",
    "auc",
    "build_cascade",
    "build_cluster_task",
    "cross_validate",
    "evaluate_cluster",
    "extract_features",
    "f1",
    "feature_names",
    "fisher_z_compare",
    "fit_powerlaw_alpha",
    "generate_social_graph",
    "gini",
    "group_summaries",
    "induced_subgraph",
    "label_growth",
    "label_growth_fixed_R",
    "label_structure",
    "mrr",
    "pearson",
    "percentile_90",
    "powerlaw_median",
    "predict_proba",
    "prefix",
    "rank_single_feature_predictors",
    "sample_powerlaw_sizes",
    "simulate_cascades",
    "slope_through_origin",
    "train",
    "wiener_index_bruteforce",
    "wiener_index_exact",
]
