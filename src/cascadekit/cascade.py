"""Diffusion trees built from reshare event logs.

A cascade starts at one root post and grows by reshares, each of which
names an explicit parent. This module validates raw event sequences into
immutable :class:`CascadeTree` objects and provides the prefix/ordering
primitives every downstream computation relies on.

Cascade size counts reshares; the root is not a reshare.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field, fields
from typing import AbstractSet, Iterable, Mapping, Sequence

from .errors import (
    BadArgumentError,
    CycleDetectedError,
    DanglingParentError,
    DuplicateNodeError,
    KTooLargeError,
    MixedCascadeIdError,
    MultipleRootsError,
    NegativeTimestampError,
    NoRootError,
    TimestampOverflowError,
)

NODE_TYPES = ("user", "page")


def _check_event(node_type: str, timestamp: float, outdeg: int) -> None:
    if node_type not in NODE_TYPES:
        raise ValueError(f"node_type must be one of {NODE_TYPES}, got {node_type!r}")
    if not math.isfinite(timestamp):
        raise ValueError(f"timestamp must be finite, got {timestamp!r}")
    if outdeg < 0:
        raise ValueError(f"outdeg must be >= 0, got {outdeg}")


@dataclass(frozen=True, slots=True)
class ReshareEvent:
    """One node of a cascade: who reshared, when, and from whom.

    ``parent_id`` is ``None`` exactly for the root post. ``timestamp`` is in
    seconds; absolute offsets are fine, build_cascade re-bases so the root
    sits at 0. ``outdeg`` is the poster's total connection count (friends +
    subscribers + fans). Demographic fields are ``None`` when unknown (for
    example, pages have no age or gender); they are carried as missing, never
    silently zeroed. ``views_orig_cum`` / ``views_reshares_cum`` are cumulative
    impression counts of the original post / of the earlier reshares at this
    event's time.

    Events are immutable and use slots, so ``vars(event)`` does not work;
    read fields with ``getattr`` or ``dataclasses.fields``.
    """

    cascade_id: str
    node_id: str
    timestamp: float
    parent_id: str | None = None
    node_type: str = "user"
    outdeg: int = 0
    friend_count: int | None = None
    fan_count: int | None = None
    subscriber_count: int | None = None
    age_years: float | None = None
    fb_age_days: float | None = None
    activity_days: float | None = None
    gender: str | None = None
    views_orig_cum: int | None = None
    views_reshares_cum: int | None = None

    def __post_init__(self) -> None:
        _check_event(self.node_type, self.timestamp, self.outdeg)

    @property
    def is_root(self) -> bool:
        return self.parent_id is None

    @property
    def is_page(self) -> bool:
        return self.node_type == "page"


EVENT_FIELDS = tuple(f.name for f in fields(ReshareEvent))
_TIMESTAMP = EVENT_FIELDS.index("timestamp")
_NODE_TYPE = EVENT_FIELDS.index("node_type")
_OUTDEG = EVENT_FIELDS.index("outdeg")
_event_values = operator.attrgetter(*EVENT_FIELDS)
_slot_setters = tuple(ReshareEvent.__dict__[name].__set__ for name in EVENT_FIELDS)


def _event(values: Sequence) -> ReshareEvent:
    """The event with these field values (in ``EVENT_FIELDS`` order).

    Runs the checks of ``__post_init__`` and then fills the slots through
    their member descriptors, skipping ``__init__``'s argument binding and
    frozen ``__setattr__`` calls. The read path's constructor: ``io`` parses
    rows with it and build_cascade re-bases with it.
    """
    _check_event(values[_NODE_TYPE], values[_TIMESTAMP], values[_OUTDEG])
    e = object.__new__(ReshareEvent)
    for set_slot, value in zip(_slot_setters, values):
        set_slot(e, value)
    return e


def _position(events: Sequence[ReshareEvent], event: ReshareEvent) -> int:
    """Index of ``event`` itself, not of an equal event, in ``events``."""
    return next(i for i, e in enumerate(events) if e is event)


@dataclass(frozen=True)
class CascadeTree:
    """A validated diffusion tree.

    ``events[0]`` is the root; ``events[1:]`` are the reshares in canonical
    time order (ties broken by node_id), with timestamps re-based so the
    root is at 0. ``epoch`` keeps the root's original timestamp so cascades
    remain comparable on absolute upload time. Instances are immutable and
    safe to share across threads.
    """

    cascade_id: str
    events: tuple[ReshareEvent, ...]
    parent: Mapping[str, str]
    depth: Mapping[str, int]
    children: Mapping[str, tuple[str, ...]]
    epoch: float = 0.0

    @property
    def root(self) -> ReshareEvent:
        return self.events[0]

    @property
    def reshares(self) -> tuple[ReshareEvent, ...]:
        return self.events[1:]

    @property
    def size(self) -> int:
        """Number of reshares (root excluded)."""
        return len(self.events) - 1

    @property
    def n_nodes(self) -> int:
        return len(self.events)


@dataclass
class SocialGraph:
    """Adjacency over opaque node ids; undirected unless ``directed``.

    Self-loops are dropped on insert and neighbor sets are deduplicated.
    For directed graphs the adjacency holds out-neighbors.
    """

    directed: bool = False
    adjacency: dict[str, set[str]] = field(default_factory=dict)

    def add_edge(self, u: str, v: str) -> None:
        if u == v:
            return
        self.adjacency.setdefault(u, set()).add(v)
        if not self.directed:
            self.adjacency.setdefault(v, set()).add(u)

    def neighbors(self, u: str) -> AbstractSet[str]:
        """The stored neighbor set, read-only by contract (no copy)."""
        return self.adjacency.get(u, frozenset())

    def has_edge(self, u: str, v: str) -> bool:
        return v in self.adjacency.get(u, ())

    def degree(self, u: str) -> int:
        """Out-degree for directed graphs, plain degree otherwise."""
        return len(self.adjacency.get(u, ()))

    def edge_count(self) -> int:
        total = sum(len(nbrs) for nbrs in self.adjacency.values())
        return total if self.directed else total // 2

    def edges(self) -> list[tuple[str, str]]:
        """Deterministic edge list; undirected edges appear once, (min, max)."""
        directed = self.directed
        return sorted(
            (u, v)
            for u, nbrs in self.adjacency.items()
            for v in nbrs
            if directed or u < v
        )

    def induced(self, nodes: Iterable[str]) -> "SocialGraph":
        keep = set(nodes)
        sub = SocialGraph(directed=self.directed)
        for u in keep:
            nbrs = self.adjacency.get(u)
            if not nbrs:
                continue
            inside = nbrs & keep
            if inside:
                sub.adjacency[u] = set(inside)
        return sub


def build_cascade(events: Sequence[ReshareEvent]) -> CascadeTree:
    """Validate a reshare event log into a :class:`CascadeTree`.

    Reshares are ordered by (timestamp, node_id); the node_id tiebreak makes
    the order independent of input permutation. The ordering pass walks parent
    pointers from the root, so a parent always precedes its children even
    under timestamp ties, and any parent cycle surfaces as CycleDetectedError.
    Timestamps are re-based so the root sits at 0. Every rejection is a
    ``InvalidCascadeError`` whose ``index`` is the input position of the event
    it names.
    """
    if not events:
        raise NoRootError("empty event sequence")
    cascade_id = events[0].cascade_id
    for e in events:
        if e.cascade_id != cascade_id:
            raise MixedCascadeIdError(
                f"cascade {cascade_id!r}: mixed cascade ids: "
                f"{cascade_id!r} and {e.cascade_id!r}",
                _position(events, e),
            )

    by_id: dict[str, ReshareEvent] = {}
    for e in events:
        if e.node_id in by_id:
            raise DuplicateNodeError(
                f"cascade {cascade_id!r}: duplicate node_id {e.node_id!r}",
                _position(events, e),
            )
        by_id[e.node_id] = e

    roots = [e for e in events if e.is_root]
    if not roots:
        raise NoRootError(f"cascade {cascade_id!r}: no root event")
    if len(roots) > 1:
        ids = sorted(e.node_id for e in roots)
        raise MultipleRootsError(
            f"cascade {cascade_id!r}: multiple roots: {ids}", _position(events, roots[1])
        )
    root = roots[0]

    kids: dict[str, list[str]] = {e.node_id: [] for e in events}
    for e in events:
        if e.is_root:
            continue
        if e.parent_id not in by_id:
            raise DanglingParentError(
                f"cascade {cascade_id!r}: event {e.node_id!r} references "
                f"missing parent {e.parent_id!r}",
                _position(events, e),
            )
        kids[e.parent_id].append(e.node_id)

    # Order reshares by (timestamp, node_id), releasing a node only once its
    # parent is placed. Siblings enter the heap together, so they pop in
    # (timestamp, node_id) order: appended in pop order, each child list is
    # sorted. Unreachable leftovers mean the parent pointers cycle.
    order: list[ReshareEvent] = []
    children_in_order: dict[str, list[str]] = {nid: [] for nid in kids}
    ready: list[tuple[float, str]] = [
        (by_id[c].timestamp, c) for c in kids[root.node_id]
    ]
    heapq.heapify(ready)
    while ready:
        _, nid = heapq.heappop(ready)
        e = by_id[nid]
        order.append(e)
        children_in_order[e.parent_id].append(nid)
        for c in kids[nid]:
            heapq.heappush(ready, (by_id[c].timestamp, c))
    if len(order) != len(events) - 1:
        placed = {e.node_id for e in order} | {root.node_id}
        stuck = sorted(set(by_id) - placed)
        raise CycleDetectedError(
            f"cascade {cascade_id!r}: events unreachable from root (cycle): {stuck}",
            next(i for i, e in enumerate(events) if e.node_id not in placed),
        )

    epoch = root.timestamp
    values = list(_event_values(root))
    values[_TIMESTAMP] = 0.0
    rebased: list[ReshareEvent] = [_event(values)]
    for e in order:
        t = e.timestamp - epoch
        if t < 0:
            raise NegativeTimestampError(
                f"cascade {cascade_id!r}: event {e.node_id!r} at {e.timestamp} "
                f"precedes root at {epoch}",
                _position(events, e),
            )
        values = list(_event_values(e))
        values[_TIMESTAMP] = t
        try:
            rebased.append(_event(values))
        except ValueError as exc:
            raise TimestampOverflowError(
                f"cascade {cascade_id!r}: event {e.node_id!r}: {exc}",
                _position(events, e),
            ) from None

    parent = {e.node_id: e.parent_id for e in rebased[1:]}
    depth: dict[str, int] = {root.node_id: 0}
    for e in rebased[1:]:
        depth[e.node_id] = depth[e.parent_id] + 1
    children = {nid: tuple(cs) for nid, cs in children_in_order.items()}

    return CascadeTree(
        cascade_id=cascade_id,
        events=tuple(rebased),
        parent=parent,
        depth=depth,
        children=children,
        epoch=epoch,
    )


def prefix(tree: CascadeTree, k: int) -> CascadeTree:
    """Subtree induced by the root plus the first k reshares in time order.

    Parents always precede their children in the canonical order, so the
    prefix is closed under the parent map by construction.
    """
    if k < 1:
        raise BadArgumentError(f"k must be >= 1, got {k}")
    if k > tree.size:
        raise KTooLargeError(f"k={k} exceeds cascade size {tree.size}")
    if k == tree.size:
        return tree
    events = tree.events[: k + 1]
    keep = {e.node_id for e in events}
    parent = {e.node_id: tree.parent[e.node_id] for e in events[1:]}
    depth = {e.node_id: tree.depth[e.node_id] for e in events}
    children = {
        nid: tuple(c for c in tree.children.get(nid, ()) if c in keep)
        for nid in keep
    }
    return CascadeTree(
        cascade_id=tree.cascade_id,
        events=events,
        parent=parent,
        depth=depth,
        children=children,
        epoch=tree.epoch,
    )


def induced_subgraph(tree: CascadeTree, graph: SocialGraph, k: int) -> SocialGraph:
    """Social-graph subgraph restricted to the root and first k resharers."""
    if k < 1:
        raise BadArgumentError(f"k must be >= 1, got {k}")
    if k > tree.size:
        raise KTooLargeError(f"k={k} exceeds cascade size {tree.size}")
    participants = [e.node_id for e in tree.events[: k + 1]]
    return graph.induced(participants)
