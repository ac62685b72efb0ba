"""Balanced prediction datasets built from cascade collections.

The growth task observes the first k reshares and asks whether the final
size reaches the median final size of all cascades that got at least k
reshares; splitting at the median balances the classes by construction.
Variants cover a fixed minimum final size R, a structure (Wiener index)
target, top-vs-bottom quartile labeling, and same-content cluster ranking.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .cascade import CascadeTree, SocialGraph
from .errors import (
    EmptyDatasetError,
    KExceedsRError,
    NoQualifyingClustersError,
    SingleClassError,
    UnknownFieldError,
    ZeroVarianceError,
)
from .features import (
    MISSING_SUFFIX,
    ContentRecord,
    FeatureVector,
    extract_features_batch,
    feature_layout,
)
from .learner import DEFAULT_LAMBDA, cross_validate
from .stats import pearson
from .virality import wiener_index_exact


@dataclass(frozen=True)
class CascadeRecord:
    """One cascade plus its content descriptors."""

    tree: CascadeTree
    content: ContentRecord | None = None

    @property
    def cascade_id(self) -> str:
        return self.tree.cascade_id

    @property
    def final_size(self) -> int:
        return self.tree.size


@dataclass(frozen=True)
class LabeledExample:
    cascade_id: str
    features: FeatureVector
    label: int
    final_size: int
    k: int


@dataclass(frozen=True)
class ClusterMember:
    cascade_id: str
    features: FeatureVector
    final_size: int
    epoch: float


@dataclass(frozen=True)
class ClusterInstance:
    cluster_id: str
    members: tuple[ClusterMember, ...]
    winner_index: int


@dataclass
class TaskDataset:
    """Labeled examples plus the provenance needed to reproduce them."""

    examples: list[LabeledExample]
    k: int
    threshold: float
    metadata: dict = field(default_factory=dict)

    def design_matrix(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Dense (X, y, column names): values then missing indicators."""
        X, names = design_matrix([ex.features for ex in self.examples])
        y = np.array([ex.label for ex in self.examples], dtype=np.float64)
        return X, y, names


def design_matrix(vectors: Sequence[FeatureVector]) -> tuple[np.ndarray, list[str]]:
    """Stack feature vectors into a dense matrix in the ``feature_layout``
    column order: each feature followed by its ``<name>_missing`` indicator.
    """
    if not vectors:
        raise EmptyDatasetError("no feature vectors")
    names = vectors[0].names
    for v in vectors[1:]:
        if v.names != names:
            raise ValueError("feature vectors disagree on names (mixed k?)")
    columns, _ = feature_layout(vectors[0])
    X = np.array([feature_layout(v)[1] for v in vectors], dtype=np.float64)
    return X, columns


def median_final_size(sizes: Sequence[float]) -> float:
    """Median with the midpoint convention for even counts."""
    if not sizes:
        raise EmptyDatasetError("median of no sizes")
    ordered = sorted(sizes)
    n = len(ordered)
    mid = n // 2
    if n % 2 == 1:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _labeled(
    records: Sequence[CascadeRecord],
    values: Sequence[float],
    threshold: float,
    k: int,
    graph: SocialGraph | None,
    centered_slopes: bool,
    threads: int,
) -> list[LabeledExample]:
    by_id = {r.cascade_id: (r, v) for r, v in zip(records, values)}
    extracted = extract_features_batch(
        [(r.tree, r.content) for r in records],
        k,
        graph=graph,
        centered_slopes=centered_slopes,
        threads=threads,
    )
    examples = []
    for tree, fv in extracted:
        record, value = by_id[tree.cascade_id]
        examples.append(
            LabeledExample(
                cascade_id=record.cascade_id,
                features=fv,
                label=int(value >= threshold),
                final_size=record.final_size,
                k=k,
            )
        )
    return examples


def _warn_if_degenerate(examples: Sequence[LabeledExample], task: str) -> None:
    labels = {ex.label for ex in examples}
    if len(labels) < 2:
        warnings.warn(
            f"{task}: all labels identical ({labels.pop()}); dataset is degenerate",
            stacklevel=3,
        )


def label_growth(
    records: Sequence[CascadeRecord],
    k: int,
    *,
    graph: SocialGraph | None = None,
    quartiles: bool = False,
    centered_slopes: bool = False,
    threads: int = 1,
) -> TaskDataset:
    """Growth task: does the final size reach the median f(k)?

    Retains cascades with at least k reshares, computes f(k) as the median of
    their final sizes, labels final_size >= f(k) as positive (ties positive),
    and extracts features on the k-prefix. With ``quartiles`` the middle half
    is discarded and only the top versus bottom quartile by final size are
    kept, which balances the classes exactly.
    """
    retained = [r for r in records if r.final_size >= k]
    if not retained:
        raise EmptyDatasetError(f"no cascades with >= {k} reshares")
    sizes = [r.final_size for r in retained]
    f_k = median_final_size(sizes)
    metadata = {
        "task": "growth",
        "k": k,
        "f_k": f_k,
        "n_retained": len(retained),
        "n_input": len(records),
    }
    if quartiles:
        q = len(retained) // 4
        if q == 0:
            raise EmptyDatasetError("too few cascades for quartile labeling")
        ordered = sorted(retained, key=lambda r: (r.final_size, r.cascade_id))
        bottom, top = ordered[:q], ordered[-q:]
        examples = _labeled(
            bottom, [0.0] * q, 0.5, k, graph, centered_slopes, threads
        ) + _labeled(top, [1.0] * q, 0.5, k, graph, centered_slopes, threads)
        examples.sort(key=lambda ex: ex.cascade_id)
        metadata["quartiles"] = True
        metadata["n_per_class"] = q
        return TaskDataset(examples, k, f_k, metadata)
    examples = _labeled(
        retained, sizes, f_k, k, graph, centered_slopes, threads
    )
    _warn_if_degenerate(examples, "label_growth")
    metadata["positive_fraction"] = sum(ex.label for ex in examples) / len(examples)
    return TaskDataset(examples, k, f_k, metadata)


def label_growth_fixed_R(
    records: Sequence[CascadeRecord],
    k: int,
    R: int,
    *,
    graph: SocialGraph | None = None,
    centered_slopes: bool = False,
    threads: int = 1,
) -> TaskDataset:
    """Growth task on the population of cascades that reached at least R.

    The median is taken over that fixed population while features still only
    see the first k <= R reshares, so sweeping k varies the observation
    window without changing the predicted quantity.
    """
    if k > R:
        raise KExceedsRError(f"k={k} exceeds R={R}")
    retained = [r for r in records if r.final_size >= R]
    if not retained:
        raise EmptyDatasetError(f"no cascades with >= {R} reshares")
    sizes = [r.final_size for r in retained]
    f_k = median_final_size(sizes)
    examples = _labeled(retained, sizes, f_k, k, graph, centered_slopes, threads)
    _warn_if_degenerate(examples, "label_growth_fixed_R")
    metadata = {
        "task": "growth_fixed_R",
        "k": k,
        "R": R,
        "f_k": f_k,
        "n_retained": len(retained),
        "n_input": len(records),
        "positive_fraction": sum(ex.label for ex in examples) / len(examples),
    }
    return TaskDataset(examples, k, f_k, metadata)


def label_structure(
    records: Sequence[CascadeRecord],
    k: int,
    *,
    graph: SocialGraph | None = None,
    centered_slopes: bool = False,
    threads: int = 1,
) -> TaskDataset:
    """Structure task: will the final Wiener index reach the median?"""
    retained = [r for r in records if r.final_size >= k and r.tree.n_nodes >= 2]
    if not retained:
        raise EmptyDatasetError(f"no cascades with >= {k} reshares")
    wieners = [wiener_index_exact(r.tree) for r in retained]
    threshold = median_final_size(wieners)
    examples = _labeled(retained, wieners, threshold, k, graph, centered_slopes, threads)
    _warn_if_degenerate(examples, "label_structure")
    metadata = {
        "task": "structure",
        "k": k,
        "median_wiener": threshold,
        "n_retained": len(retained),
        "n_input": len(records),
        "positive_fraction": sum(ex.label for ex in examples) / len(examples),
    }
    return TaskDataset(examples, k, threshold, metadata)


def build_cluster_task(
    records: Sequence[CascadeRecord],
    k: int,
    m: int = 10,
    seed: int = 0,
    *,
    graph: SocialGraph | None = None,
    centered_slopes: bool = False,
    threads: int = 1,
) -> list[ClusterInstance]:
    """Same-content ranking instances: m sampled cascades per cluster.

    Clusters come from ``ContentRecord.cluster_id``; only members with at
    least k reshares are usable, and only clusters keeping >= m such members
    qualify. Sampling without replacement is driven by ``seed`` over clusters
    in id order, so instances are deterministic given (dataset, m, seed).
    The winner is the member with the largest final size; ties go to the
    earlier upload, then the smaller cascade_id.
    """
    groups: dict[str, list[CascadeRecord]] = {}
    for r in records:
        cid = r.content.cluster_id if r.content is not None else None
        if cid is None or r.final_size < k:
            continue
        groups.setdefault(cid, []).append(r)
    qualifying = {cid: rs for cid, rs in groups.items() if len(rs) >= m}
    if not qualifying:
        raise NoQualifyingClustersError(
            f"no cluster has >= {m} members with >= {k} reshares"
        )
    rng = np.random.default_rng(seed)
    instances: list[ClusterInstance] = []
    for cid in sorted(qualifying):
        members_all = sorted(qualifying[cid], key=lambda r: r.cascade_id)
        chosen_idx = rng.choice(len(members_all), size=m, replace=False)
        chosen = [members_all[i] for i in sorted(chosen_idx)]
        extracted = extract_features_batch(
            [(r.tree, r.content) for r in chosen],
            k,
            graph=graph,
            centered_slopes=centered_slopes,
            threads=threads,
        )
        fv_by_id = {tree.cascade_id: fv for tree, fv in extracted}
        members = tuple(
            ClusterMember(
                cascade_id=r.cascade_id,
                features=fv_by_id[r.cascade_id],
                final_size=r.final_size,
                epoch=r.tree.epoch,
            )
            for r in chosen
        )
        winner_index = min(
            range(m),
            key=lambda i: (-members[i].final_size, members[i].epoch, members[i].cascade_id),
        )
        instances.append(ClusterInstance(cid, members, winner_index))
    return instances


@dataclass(frozen=True)
class GroupSummary:
    group: str
    count: int
    mean_final_size: float
    mean_wiener: float


def group_summaries(
    records: Sequence[CascadeRecord], group_by: str
) -> list[GroupSummary]:
    """Per-group counts and means of final size and Wiener index.

    ``group_by`` names a ContentRecord attribute (for example ``category``)
    or the special field ``root_type``. Cascades where the field is unset are
    skipped; trees too small for a Wiener index contribute only to size.
    """
    def value_of(r: CascadeRecord):
        if group_by == "root_type":
            return r.tree.root.node_type
        if r.content is not None and hasattr(r.content, group_by):
            return getattr(r.content, group_by)
        return None

    if group_by != "root_type" and not hasattr(ContentRecord, group_by):
        raise UnknownFieldError(f"unknown grouping field {group_by!r}")
    groups: dict[str, list[CascadeRecord]] = {}
    for r in records:
        v = value_of(r)
        if v is None:
            continue
        groups.setdefault(str(v), []).append(r)
    if not groups:
        raise UnknownFieldError(f"field {group_by!r} present on no cascade")
    rows = []
    for name in sorted(groups):
        rs = groups[name]
        wieners = [wiener_index_exact(r.tree) for r in rs if r.tree.n_nodes >= 2]
        rows.append(
            GroupSummary(
                group=name,
                count=len(rs),
                mean_final_size=math.fsum(r.final_size for r in rs) / len(rs),
                mean_wiener=(
                    math.fsum(wieners) / len(wieners) if wieners else float("nan")
                ),
            )
        )
    return rows


@dataclass(frozen=True)
class FeatureRanking:
    feature: str
    accuracy: float
    pearson_with_log_size: float


def rank_single_feature_predictors(
    X: np.ndarray,
    y: np.ndarray,
    final_sizes: Sequence[float],
    columns: Sequence[str],
    folds: int = 10,
    seed: int = 0,
    lam: float = DEFAULT_LAMBDA,
) -> list[FeatureRanking]:
    """Cross-validated accuracy of each feature column of ``X`` used alone,
    plus its correlation with log final size.

    Every column except the ``<name>_missing`` indicators is ranked. Sorted
    by accuracy descending, ties broken by feature name. Constant features
    fall back to the majority-class rate and an undefined (NaN) correlation.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise EmptyDatasetError("no examples")
    labels = np.asarray(y, dtype=np.float64)
    for cls in (0, 1):
        if np.sum(labels == cls) < 2:
            raise SingleClassError(f"need >= 2 examples of class {cls}")
    log_sizes = [math.log(s) for s in final_sizes]
    rows: list[FeatureRanking] = []
    for j, name in enumerate(columns):
        if name.endswith(MISSING_SUFFIX):
            continue
        column = X[:, j]
        metrics = cross_validate(
            column.reshape(-1, 1),
            labels,
            folds=folds,
            lam=lam,
            seed=seed,
            feature_names=[name],
        )
        try:
            r = pearson(column.tolist(), log_sizes)
        except ZeroVarianceError:
            r = float("nan")
        rows.append(FeatureRanking(name, metrics.accuracy, r))
    rows.sort(key=lambda row: (-row.accuracy, row.feature))
    return rows
