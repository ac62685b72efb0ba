"""Feature extraction for a cascade observed up to its k-th reshare.

One call produces a named vector covering five feature families:

* content    - precomputed photo/caption scores supplied as input, as a
               ``cascade.ContentRecord``
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
``extract_features_batch`` writes the rows of a batch of
``cascade.CascadeRecord`` into one flat ``array("d")`` buffer, which numpy
views as the design matrix without a copy; featurizing never loads numpy.
The layout and the records are defined in ``cascade``, so that ``io``,
``synth`` and ``tasks`` use them without loading this module.
"""

from __future__ import annotations

import math
from array import array
from typing import Iterable, Mapping, Sequence

from ._lazy import deferred_function
from .cascade import (
    CONTENT_FEATURES, CascadeRecord, CascadeTree, ContentRecord, SocialGraph,
    layout_columns, prefix,
)
from .errors import EmptyInputError, NonFiniteInputError, TimeNotNormalizedError

# Kept for bench/tracer.py, which swaps it, until ROADMAP item 3's benchmark PR.
ThreadPoolExecutor = deferred_function("concurrent.futures", "ThreadPoolExecutor", globals())


class FeatureVector:
    """Named features as one row of the design matrix.

    ``row`` is laid out as ``layout_columns(names)``: each feature's value,
    then its missing flag (1.0 when the feature is missing, its value then
    0.0). A name ``raw`` lacks or maps to None is missing; a value that is
    not finite, or does not convert to a float, is refused.
    """

    __slots__ = ("names", "row")

    def __init__(self, names: Sequence[str], raw: Mapping[str, float | None]):
        self.names = tuple(names)
        row: list[float] = []
        for name in self.names:
            v = raw.get(name)
            if v is None:
                row.append(0.0)
                row.append(1.0)
            else:
                row.append(_finite(name, v))
                row.append(0.0)
        self.row = tuple(row)

    def value(self, name: str) -> float:
        return self.row[2 * self.names.index(name)]

    def is_missing(self, name: str) -> bool:
        return self.row[2 * self.names.index(name) + 1] == 1.0


def _finite(name: str, v: object) -> float:
    """``float(v)``; a value that is not finite, or does not convert to a
    float, ends as ``NonFiniteInputError`` naming feature ``name``."""
    try:
        v = float(v)
    except (TypeError, ValueError, OverflowError) as exc:
        raise NonFiniteInputError(
            f"feature {name!r} does not convert to a float: {exc}"
        ) from None
    if not math.isfinite(v):
        raise NonFiniteInputError(f"feature {name!r} is not finite: {v}")
    return v


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


def _avg_and_90p(raw: dict[str, float | None], name: str, values: Sequence[float]) -> None:
    """Set ``<name>_avg`` and ``<name>_90p`` in ``raw`` to the mean and the
    nearest-rank 90th percentile of ``values``, or leave both missing when
    there are none. A sum that fsum refuses (too large for a float, or
    inf + -inf) ends as ``NonFiniteInputError`` naming ``<name>_avg``."""
    if not values:
        return
    try:
        raw[f"{name}_avg"] = _mean(values)
    except (ValueError, OverflowError) as exc:
        raise NonFiniteInputError(f"feature '{name}_avg' is not finite: {exc}") from None
    raw[f"{name}_90p"] = percentile_90(values)


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
    reshare at depth >= 2", which the task metadata records as approximate.

    ``centered_slopes`` switches the pacing/depth trends from the
    through-origin regression to an ordinary (intercept) regression.

    A feature that is not finite, or an input too large for a float, ends
    as ``NonFiniteInputError`` naming the cascade.
    """
    if tree.root.timestamp != 0.0:
        raise TimeNotNormalizedError(
            f"root timestamp is {tree.root.timestamp}, expected 0"
        )
    p = prefix(tree, k)
    try:
        return FeatureVector(
            feature_names(k), _prefix_features(p, graph, content, centered_slopes)
        )
    # An input that is not finite makes a feature that is not (or fsum
    # refuses its inf + -inf), and an int too large for a float overflows.
    except (ValueError, OverflowError) as exc:
        raise NonFiniteInputError(f"cascade {tree.cascade_id!r}: {exc}") from None


def _prefix_features(
    p: CascadeTree,
    graph: SocialGraph | None,
    content: ContentRecord | None,
    centered_slopes: bool,
) -> dict[str, float | None]:
    """The raw values of ``extract_features`` on the k-prefix tree ``p``,
    which holds the first k reshares and nothing after them."""
    k = p.size
    root = p.root
    reshares = p.reshares
    depth, children = p.depth, p.children
    slope = centered_slope if centered_slopes else slope_through_origin

    # A name left out of raw, or mapped to None, is missing.
    raw: dict[str, float | None] = {}

    # -- content ---------------------------------------------------------
    if content is not None:
        for name in CONTENT_FEATURES:
            raw[name] = getattr(content, name)

    # -- root --------------------------------------------------------------
    kth = reshares[-1]
    raw["root_views"] = kth.views_orig_cum
    raw["root_is_page"] = float(root.is_page)
    raw["root_outdeg"] = root.outdeg
    raw["root_age"] = root.age_years
    raw["root_gender"] = _gender_code(root.gender)
    raw["root_fb_age"] = root.fb_age_days
    raw["root_activity"] = root.activity_days

    # -- resharer ------------------------------------------------------------
    raw["reshare_views"] = kth.views_reshares_cum
    raw["pages_count"] = float(sum(e.is_page for e in p.events))
    users = [e for e in reshares if not e.is_page]
    pages = [e for e in reshares if e.is_page]
    _avg_and_90p(
        raw, "friends", [e.friend_count for e in users if e.friend_count is not None]
    )
    _avg_and_90p(raw, "fans", [e.fan_count for e in pages if e.fan_count is not None])
    _avg_and_90p(
        raw, "subscribers",
        [e.subscriber_count for e in users if e.subscriber_count is not None],
    )
    _avg_and_90p(
        raw, "fb_ages", [e.fb_age_days for e in reshares if e.fb_age_days is not None]
    )
    _avg_and_90p(
        raw, "activities",
        [e.activity_days for e in reshares if e.activity_days is not None],
    )
    _avg_and_90p(raw, "ages", [e.age_years for e in reshares if e.age_years is not None])
    raw["female_count"] = float(sum(e.gender == "female" for e in reshares))

    # -- structural --------------------------------------------------------
    for i, e in enumerate(p.events):
        raw[f"node_outdeg_{i}"] = e.outdeg
        raw[f"tree_outdeg_{i}"] = float(len(children[e.node_id]))
    if graph is not None:
        nbrs = [graph.neighbors(e.node_id) for e in p.events]
        member = {e.node_id for e in p.events}
        induced = [len(s & member) for s in nbrs]
        for i, d in enumerate(induced):
            raw[f"induced_outdeg_{i}"] = float(d)
        raw["root_connections"] = float(
            sum(graph.has_edge(root.node_id, e.node_id) for e in reshares)
        )
        # border_nodes: distinct people one hop out (the exposure frontier);
        # border_edges: total first-degree connections summed per participant.
        # The frontier is counted around the largest neighbour set (a hub
        # can hold thousands) without copying it: set - set walks only its
        # left operand, so each step costs the small sets or the k+1 members.
        nbr_sets = sorted(nbrs, key=len)
        hub = nbr_sets.pop()
        rest = set().union(*nbr_sets)
        raw["border_nodes"] = float(len(hub) - len(member & hub) + len(rest - hub - member))
        raw["border_edges"] = float(len(hub) + sum(map(len, nbr_sets)))
        raw["subgraph_edges"] = float(sum(induced) if graph.directed else sum(induced) // 2)
        raw["did_leave"] = float(
            any(not graph.has_edge(root.node_id, e.node_id) for e in reshares)
        )
    else:
        raw["did_leave"] = float(any(depth[e.node_id] >= 2 for e in reshares))

    depths = [float(depth[e.node_id]) for e in reshares]
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
    for name in ("root_views", "reshare_views"):
        if t_k > 0 and raw[name] is not None:
            # The count is made a float first (as dividing it would), so a
            # count too large for one names its feature.
            raw[f"{name}_rate"] = _finite(name, raw[name]) / t_k

    return raw


def extract_features_batch(
    records: Iterable[CascadeRecord],
    k: int,
    graph: SocialGraph | None = None,
    *,
    centered_slopes: bool = False,
    threads: int = 1,
) -> tuple[list[str], array, list[str]]:
    """Features of many cascades as ``(cascade_ids, rows, columns)``.

    ``rows`` is one flat float64 ``array("d")``: the row of cascade i, in
    cascade_id order, is ``rows[i * w : (i + 1) * w]`` with ``w =
    len(columns)``, and ``columns`` is ``layout_columns(feature_names(k))``,
    so an empty batch still has its columns. ``np.frombuffer(rows)
    .reshape(-1, w)`` views it as the design matrix without a copy. The
    buffer is allocated once and each row written into it as it is
    extracted, so no list of rows is held. Extraction is sequential: it is
    pure per cascade, and ``threads`` changes nothing.
    """
    # threads: kept for bench/tracer.py's count, until ROADMAP item 3's benchmark PR.
    ordered = sorted(records, key=lambda r: r.cascade_id)
    columns = layout_columns(feature_names(k))
    width = len(columns)
    rows = array("d", [0.0]) * (len(ordered) * width)
    for i, record in enumerate(ordered):
        rows[i * width : (i + 1) * width] = array("d", extract_features(
            record.tree, k, graph=graph, content=record.content,
            centered_slopes=centered_slopes,
        ).row)
    return [r.cascade_id for r in ordered], rows, columns
