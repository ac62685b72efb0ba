"""Balanced prediction datasets built from cascade collections.

The growth task observes the first k reshares and asks whether the final
size reaches the median final size of all cascades that got at least k
reshares; splitting at the median balances the classes by construction.
Variants cover a fixed minimum final size R, a structure (Wiener index)
target, top-vs-bottom quartile labeling, and same-content cluster ranking.
Each task takes ``cascade.CascadeRecord``s and hands the ones it keeps to
``features.extract_features_batch``, which is imported on its first call,
so that ``group_summaries`` does not load ``features``.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from ._lazy import deferred, deferred_function
from .cascade import MISSING_SUFFIX, CascadeRecord, ContentRecord, SocialGraph
from .errors import (
    BadArgumentError,
    EmptyDatasetError,
    KExceedsRError,
    NoQualifyingClustersError,
    NonFiniteInputError,
    UnknownFieldError,
    ZeroVarianceError,
)
from .learner import (
    CLUSTER_M, DEFAULT_LAMBDA, ClusterInstance, check_folds, cross_validate,
)
from .stats import median, pearson
from .virality import wiener_index_exact

np = deferred("numpy", globals(), "np")
extract_features_batch = deferred_function(".features", "extract_features_batch", globals())


@dataclass(eq=False)
class TaskDataset:
    """A labeled design matrix plus the provenance needed to reproduce it.

    ``rows`` holds the matrix as ``extract_features_batch`` writes it: one
    flat float64 ``array("d")`` of ``len(columns)`` values per example.
    Row i and ``labels[i]`` (0 or 1) belong to cascade ``examples[i]`` with
    final size ``final_sizes[i]``; rows are in cascade_id order. ``X`` and
    ``y`` are the float64 ndarrays of the rows and labels, made on first
    read; ``X`` views ``rows`` without a copy, so a dataset that is only
    labeled and written never loads numpy.
    """

    examples: tuple[str, ...]
    final_sizes: tuple[int, ...]
    rows: array
    labels: tuple[int, ...]
    columns: list[str]
    k: int
    threshold: float
    metadata: dict = field(default_factory=dict)

    @cached_property
    def X(self) -> np.ndarray:
        flat = np.frombuffer(self.rows, dtype=np.float64)
        return flat.reshape(len(self.examples), len(self.columns))

    @cached_property
    def y(self) -> np.ndarray:
        return np.array(self.labels, dtype=np.float64)


def _retained(records: Sequence[CascadeRecord], size: int) -> list[CascadeRecord]:
    """The records with at least ``size`` reshares; there must be one."""
    retained = [r for r in records if r.final_size >= size]
    if not retained:
        raise EmptyDatasetError(f"no cascades with >= {size} reshares")
    return retained


def _dataset(
    records: Sequence[CascadeRecord],
    retained: Sequence[CascadeRecord],
    values: Sequence[float],
    k: int,
    metadata: dict,
    threshold_key: str,
    *,
    quartiles: bool = False,
    graph: SocialGraph | None,
    centered_slopes: bool,
    threads: int,
) -> TaskDataset:
    """The median split of ``values`` (one per retained record; ties
    positive, all-equal labels warned about), with features on the k-prefix.

    The median goes into ``metadata`` under ``threshold_key``. With
    ``quartiles`` only the bottom and top quarter by final size are kept,
    labeled 0 and 1.
    """
    threshold = median(values)
    metadata.update(
        {threshold_key: threshold, "n_retained": len(retained), "n_input": len(records)}
    )
    if quartiles:
        q = len(retained) // 4
        if q == 0:
            raise EmptyDatasetError("too few cascades for quartile labeling")
        ordered = sorted(retained, key=lambda r: (r.final_size, r.cascade_id))
        metadata["quartiles"] = True
        metadata["n_per_class"] = q
        chosen, labels = ordered[:q] + ordered[-q:], [0] * q + [1] * q
    else:
        chosen, labels = retained, [int(v >= threshold) for v in values]
    by_id = {r.cascade_id: (label, r.final_size) for r, label in zip(chosen, labels)}
    ids, rows, columns = extract_features_batch(
        chosen, k, graph=graph, centered_slopes=centered_slopes, threads=threads
    )
    y = tuple(by_id[cid][0] for cid in ids)
    if not quartiles:
        if len(set(y)) < 2:
            warnings.warn(
                f"label_{metadata['task']}: all labels identical ({y[0]}); "
                "dataset is degenerate",
                stacklevel=3,
            )
        metadata["positive_fraction"] = sum(y) / len(y)
    return TaskDataset(
        examples=tuple(ids),
        final_sizes=tuple(by_id[cid][1] for cid in ids),
        rows=rows,
        labels=y,
        columns=columns,
        k=k,
        threshold=threshold,
        metadata=metadata,
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
    retained = _retained(records, k)
    return _dataset(
        records, retained, [r.final_size for r in retained], k,
        {"task": "growth", "k": k}, "f_k", quartiles=quartiles,
        graph=graph, centered_slopes=centered_slopes, threads=threads,
    )


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
    retained = _retained(records, R)
    return _dataset(
        records, retained, [r.final_size for r in retained], k,
        {"task": "growth_fixed_R", "k": k, "R": R}, "f_k",
        graph=graph, centered_slopes=centered_slopes, threads=threads,
    )


def label_structure(
    records: Sequence[CascadeRecord],
    k: int,
    *,
    graph: SocialGraph | None = None,
    centered_slopes: bool = False,
    threads: int = 1,
) -> TaskDataset:
    """Structure task: will the final Wiener index reach the median?"""
    retained = _retained([r for r in records if r.tree.n_nodes >= 2], k)
    return _dataset(
        records, retained, [wiener_index_exact(r.tree) for r in retained], k,
        {"task": "structure", "k": k}, "median_wiener",
        graph=graph, centered_slopes=centered_slopes, threads=threads,
    )


def build_cluster_task(
    records: Sequence[CascadeRecord],
    k: int,
    m: int = CLUSTER_M,
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
    if m < 1:
        raise BadArgumentError(f"m must be >= 1, got {m}")
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
        ids, rows, columns = extract_features_batch(
            chosen, k, graph=graph, centered_slopes=centered_slopes, threads=threads
        )
        # ``chosen`` is in cascade_id order, as ``rows`` is.
        winner_index = min(
            range(m),
            key=lambda i: (-chosen[i].final_size, chosen[i].tree.epoch, ids[i]),
        )
        sizes = tuple(r.final_size for r in chosen)
        instances.append(
            ClusterInstance(cid, tuple(ids), sizes, rows, columns, winner_index)
        )
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
    fall back to the majority-class rate and an undefined (NaN) correlation;
    a column whose squared deviations overflow is a NonFiniteInputError.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.shape[0] == 0:
        raise EmptyDatasetError("no examples")
    labels = np.asarray(y, dtype=np.float64)
    check_folds(labels, folds)
    if min(final_sizes) < 1:
        raise BadArgumentError(f"final sizes must be >= 1, got {min(final_sizes)}")
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
        except OverflowError:
            raise NonFiniteInputError(
                f"feature {name!r} is too large to correlate with log final size"
            ) from None
        rows.append(FeatureRanking(name, metrics.accuracy, r))
    rows.sort(key=lambda row: (-row.accuracy, row.feature))
    return rows
