"""cascadekit: reshare-cascade analytics and growth prediction.

Each name below is imported from its submodule when it is first read
(PEP 562), so ``import cascadekit`` loads no submodule, and a program that
uses only some of the names loads only their modules.
"""

import importlib

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "cascade": (
            "CascadeRecord", "CascadeTree", "ContentRecord", "ReshareEvent",
            "SocialGraph", "build_cascade", "induced_subgraph", "prefix",
        ),
        "features": (
            "FeatureVector", "extract_features", "feature_names", "percentile_90",
            "slope_through_origin",
        ),
        "learner": (
            "ClusterInstance", "Metrics", "Model", "auc", "cross_validate",
            "evaluate_cluster", "f1", "mrr", "predict_proba", "train",
        ),
        "stats": (
            "PowerLawSpec", "fisher_z_compare", "fit_powerlaw_alpha", "gini",
            "pearson", "powerlaw_median",
        ),
        "synth": (
            "SynthParams", "generate_social_graph", "sample_powerlaw_sizes",
            "simulate_cascades",
        ),
        "tasks": (
            "TaskDataset", "build_cluster_task", "group_summaries", "label_growth",
            "label_growth_fixed_R", "label_structure", "rank_single_feature_predictors",
        ),
        "virality": ("wiener_index_bruteforce", "wiener_index_exact"),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
