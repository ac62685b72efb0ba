"""Feature extraction for a cascade observed up to its k-th reshare.

One call produces a named vector covering five feature families:

* content    - precomputed photo/caption scores supplied as input
* root       - who posted the original and how connected they are
* resharer   - aggregate demographics/connectivity of the first k resharers
* structural - shape of the reshare tree and of the friend subgraph
* temporal   - reshare timing, pacing, and exposure rates

Any feature whose inputs are unknown is carried as missing (value 0 plus a
missing flag), never fabricated. Per-index features are emitted for the
configured k only; vectors for different k must not be mixed in a dataset.

``layout_columns`` is the one column layout, shared by the CSV files and
the design matrix: each value column followed by its ``<name>_missing``
indicator. A ``FeatureVector``'s ``row`` is one row in that layout, and
``extract_features_batch`` stacks the rows of a batch into one matrix.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cascade import CascadeTree, SocialGraph, induced_subgraph, prefix
from .errors import EmptyInputError, TimeNotNormalizedError

MISSING_SUFFIX = "_missing"


@dataclass(frozen=True)
class ContentRecord:
    """Per-cascade content descriptors supplied as precomputed inputs.

    Scores and liwc proportions live in [0, 1]. ``category`` and
    ``cluster_id`` are optional labels used by grouping and same-content
    ranking tasks.
    """

    score_closeup: float | None = None
    score_indoor: float | None = None
    score_outdoor: float | None = None
    score_synthetic: float | None = None
    score_food: float | None = None
    score_landmark: float | None = None
    score_person: float | None = None
    score_nature: float | None = None
    score_water: float | None = None
    score_overlaid_text: float | None = None
    is_en: bool | None = None
    has_caption: bool | None = None
    liwc_pos: float | None = None
    liwc_neg: float | None = None
    liwc_soc: float | None = None
    category: str | None = None
    cluster_id: str | None = None

    def __post_init__(self) -> None:
        for name in CONTENT_FEATURES:
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


# The content block of every feature vector: the record's fields but its labels.
CONTENT_FEATURES = tuple(
    f.name for f in fields(ContentRecord) if f.name not in ("category", "cluster_id")
)
CONTENT_SCORE_NAMES = tuple(n for n in CONTENT_FEATURES if n.startswith("score_"))


class FeatureVector:
    """Named features as one row of the design matrix.

    ``row`` is laid out as ``layout_columns(names)``: each feature's value,
    then its missing flag (1.0 when the feature is missing, its value then
    0.0). A name ``raw`` lacks or maps to None is missing.
    """

    __slots__ = ("names", "row", "meta")

    def __init__(
        self,
        names: Sequence[str],
        raw: Mapping[str, float | None],
        meta: Mapping[str, object] | None = None,
    ):
        self.names = tuple(names)
        row: list[float] = []
        for name in self.names:
            v = raw.get(name)
            if v is None:
                row.append(0.0)
                row.append(1.0)
            else:
                v = float(v)
                if not math.isfinite(v):
                    raise ValueError(f"feature {name!r} is not finite: {v}")
                row.append(v)
                row.append(0.0)
        self.row = tuple(row)
        self.meta = dict(meta or {})

    def value(self, name: str) -> float:
        return self.row[2 * self.names.index(name)]

    def is_missing(self, name: str) -> bool:
        return self.row[2 * self.names.index(name) + 1] == 1.0


def layout_columns(names: Iterable[str]) -> list[str]:
    """Each feature name followed by its ``<name>_missing`` indicator."""
    return [column for name in names for column in (name, name + MISSING_SUFFIX)]


def feature_layout(fv: FeatureVector) -> tuple[list[str], list[float]]:
    """Column names and row of ``fv`` in the CSV / design-matrix layout."""
    return layout_columns(fv.names), list(fv.row)


def feature_names(k: int) -> list[str]:
    """Canonical feature order for observation window k."""
    names = list(CONTENT_FEATURES)
    names += [
        "root_views",
        "root_is_page",
        "root_outdeg",
        "root_age",
        "root_gender",
        "root_fb_age",
        "root_activity",
    ]
    names += [
        "reshare_views",
        "pages_count",
        "friends_avg",
        "friends_90p",
        "fans_avg",
        "fans_90p",
        "subscribers_avg",
        "subscribers_90p",
        "fb_ages_avg",
        "fb_ages_90p",
        "activities_avg",
        "activities_90p",
        "ages_avg",
        "ages_90p",
        "female_count",
    ]
    names += [f"node_outdeg_{i}" for i in range(k + 1)]
    names += [f"induced_outdeg_{i}" for i in range(k + 1)]
    names += [f"tree_outdeg_{i}" for i in range(k + 1)]
    names += [
        "root_connections",
        "border_nodes",
        "border_edges",
        "subgraph_edges",
        "depth_slope",
        "depths_avg",
        "depths_90p",
        "did_leave",
    ]
    names += [f"time_to_{i}" for i in range(1, k + 1)]
    names += [
        "gap_avg_first_half",
        "gap_avg_second_half",
        "gap_slope",
        "root_views_rate",
        "reshare_views_rate",
    ]
    return names


def slope_through_origin(values: Sequence[float]) -> float:
    """Least-squares slope of values against their 1-based index, no intercept.

    beta = sum(i * v_i) / sum(i^2). Note a constant sequence yields a nonzero
    slope; see ``centered_slope`` for the intercept variant.
    """
    m = len(values)
    if m == 0:
        raise EmptyInputError("slope of empty sequence")
    num = math.fsum(i * v for i, v in enumerate(values, start=1))
    den = m * (m + 1) * (2 * m + 1) / 6.0
    return num / den


def centered_slope(values: Sequence[float]) -> float:
    """Ordinary least-squares slope (with intercept) against 1-based index."""
    m = len(values)
    if m == 0:
        raise EmptyInputError("slope of empty sequence")
    if m == 1:
        return 0.0
    mean_i = (m + 1) / 2.0
    mean_v = math.fsum(values) / m
    num = math.fsum((i - mean_i) * (v - mean_v) for i, v in enumerate(values, start=1))
    den = math.fsum((i - mean_i) ** 2 for i in range(1, m + 1))
    return num / den


def percentile_90(values: Sequence[float]) -> float:
    """Nearest-rank 90th percentile: sorted value at index ceil(0.9 n)."""
    if not values:
        raise EmptyInputError("percentile of empty sequence")
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1]


def _mean(values: Sequence[float]) -> float:
    return math.fsum(values) / len(values)


def _avg_and_90p(values: Sequence[float]) -> tuple[float | None, float | None]:
    """Mean and nearest-rank 90th percentile, or (None, None) when empty."""
    if not values:
        return None, None
    return _mean(values), percentile_90(values)


def _gender_code(gender: str | None) -> float | None:
    if gender is None:
        return None
    return 1.0 if gender == "female" else 0.0


def extract_features(
    tree: CascadeTree,
    k: int,
    graph: SocialGraph | None = None,
    content: ContentRecord | None = None,
    *,
    centered_slopes: bool = False,
) -> FeatureVector:
    """Compute the full feature vector on the first k reshares of ``tree``.

    Demographic aggregates are taken over the resharers the statistic applies
    to (friend counts over users, fan counts over pages, and so on) and are
    missing when no applicable resharer exists. Social-graph features are
    missing when ``graph`` is None; ``did_leave`` then falls back to "any
    reshare at depth >= 2", recorded as approximate in ``meta``.

    ``centered_slopes`` switches the pacing/depth trends from the
    through-origin regression to an ordinary (intercept) regression.
    """
    if tree.root.timestamp != 0.0:
        raise TimeNotNormalizedError(
            f"root timestamp is {tree.root.timestamp}, expected 0"
        )
    p = prefix(tree, k)
    root = p.root
    reshares = p.reshares
    slope = centered_slope if centered_slopes else slope_through_origin

    # A name left out of raw, or mapped to None, is missing.
    raw: dict[str, float | None] = {}
    meta: dict[str, object] = {}

    # -- content ---------------------------------------------------------
    if content is not None:
        for name in CONTENT_FEATURES:
            raw[name] = getattr(content, name)

    # -- root --------------------------------------------------------------
    kth = reshares[-1]
    raw["root_views"] = kth.views_orig_cum
    raw["root_is_page"] = float(root.is_page)
    raw["root_outdeg"] = float(root.outdeg)
    raw["root_age"] = root.age_years
    raw["root_gender"] = _gender_code(root.gender)
    raw["root_fb_age"] = root.fb_age_days
    raw["root_activity"] = root.activity_days

    # -- resharer ------------------------------------------------------------
    raw["reshare_views"] = kth.views_reshares_cum
    raw["pages_count"] = float(sum(e.is_page for e in p.events))
    users = [e for e in reshares if not e.is_page]
    pages = [e for e in reshares if e.is_page]
    raw["friends_avg"], raw["friends_90p"] = _avg_and_90p(
        [e.friend_count for e in users if e.friend_count is not None]
    )
    raw["fans_avg"], raw["fans_90p"] = _avg_and_90p(
        [e.fan_count for e in pages if e.fan_count is not None]
    )
    raw["subscribers_avg"], raw["subscribers_90p"] = _avg_and_90p(
        [e.subscriber_count for e in users if e.subscriber_count is not None]
    )
    raw["fb_ages_avg"], raw["fb_ages_90p"] = _avg_and_90p(
        [e.fb_age_days for e in reshares if e.fb_age_days is not None]
    )
    raw["activities_avg"], raw["activities_90p"] = _avg_and_90p(
        [e.activity_days for e in reshares if e.activity_days is not None]
    )
    raw["ages_avg"], raw["ages_90p"] = _avg_and_90p(
        [e.age_years for e in reshares if e.age_years is not None]
    )
    raw["female_count"] = float(sum(e.gender == "female" for e in reshares))

    # -- structural --------------------------------------------------------
    for i, e in enumerate(p.events):
        raw[f"node_outdeg_{i}"] = float(e.outdeg)
        raw[f"tree_outdeg_{i}"] = float(len(p.children.get(e.node_id, ())))
    if graph is not None:
        sub = induced_subgraph(tree, graph, k)
        participants = [e.node_id for e in p.events]
        member = set(participants)
        for i, nid in enumerate(participants):
            raw[f"induced_outdeg_{i}"] = float(sub.degree(nid))
        raw["root_connections"] = float(
            sum(graph.has_edge(root.node_id, e.node_id) for e in reshares)
        )
        # border_nodes: distinct people one hop out (the exposure frontier);
        # border_edges: total first-degree connections summed per participant.
        # The frontier is counted around the largest neighbour set (a hub
        # can hold thousands) without copying it: set - set walks only its
        # left operand, so each step costs the small sets or the k+1 members.
        nbr_sets = sorted(map(graph.neighbors, participants), key=len)
        hub = nbr_sets.pop()
        rest = set().union(*nbr_sets)
        raw["border_nodes"] = float(len(hub) - len(member & hub) + len(rest - hub - member))
        raw["border_edges"] = float(len(hub) + sum(map(len, nbr_sets)))
        raw["subgraph_edges"] = float(sub.edge_count())
        raw["did_leave"] = float(
            any(not graph.has_edge(root.node_id, e.node_id) for e in reshares)
        )
    else:
        raw["did_leave"] = float(any(p.depth[e.node_id] >= 2 for e in reshares))
        meta["did_leave_approximate"] = True

    depths = [float(p.depth[e.node_id]) for e in reshares]
    raw["depth_slope"] = slope(depths)
    raw["depths_avg"] = _mean(depths)
    raw["depths_90p"] = percentile_90(depths)

    # -- temporal ------------------------------------------------------------
    times = [e.timestamp for e in reshares]
    for i, t in enumerate(times, start=1):
        raw[f"time_to_{i}"] = t
    half = k // 2
    gaps = [times[i + 1] - times[i] for i in range(k - 1)]
    # First window covers reshares 1..half, second covers half..k.
    if half >= 2:
        raw["gap_avg_first_half"] = _mean(gaps[: half - 1])
    if k >= 2 and half >= 1:
        raw["gap_avg_second_half"] = _mean(gaps[half - 1 :])
    if gaps:
        raw["gap_slope"] = slope(gaps)
    t_k = times[-1]
    if t_k > 0 and kth.views_orig_cum is not None:
        raw["root_views_rate"] = kth.views_orig_cum / t_k
    if t_k > 0 and kth.views_reshares_cum is not None:
        raw["reshare_views_rate"] = kth.views_reshares_cum / t_k

    return FeatureVector(feature_names(k), raw, meta)


def extract_features_batch(
    items: Iterable[tuple[CascadeTree, ContentRecord | None]],
    k: int,
    graph: SocialGraph | None = None,
    *,
    centered_slopes: bool = False,
    threads: int = 1,
) -> tuple[list[str], np.ndarray, list[str]]:
    """Features of many cascades as ``(cascade_ids, X, columns)``.

    Rows of ``X`` are in cascade_id order and its columns are
    ``layout_columns(feature_names(k))``, so an empty batch still has its
    columns. Extraction is pure per cascade and ``pool.map`` keeps input
    order, so the thread pool changes throughput only.
    """
    pairs = sorted(items, key=lambda pair: pair[0].cascade_id)
    columns = layout_columns(feature_names(k))

    def row(pair: tuple[CascadeTree, ContentRecord | None]) -> tuple[float, ...]:
        tree, content = pair
        return extract_features(
            tree, k, graph=graph, content=content, centered_slopes=centered_slopes
        ).row

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(row, pairs))
    else:
        rows = [row(pair) for pair in pairs]
    X = np.array(rows, dtype=np.float64).reshape(len(rows), len(columns))
    return [tree.cascade_id for tree, _ in pairs], X, columns
