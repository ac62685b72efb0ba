"""Diffusion trees built from reshare event logs, and the records that carry
them.

A cascade starts at one root post and grows by reshares, each of which
names an explicit parent. This module validates raw event sequences into
immutable :class:`CascadeTree` objects and provides the prefix/ordering
primitives every downstream computation relies on. It also holds what
several modules share, since every module loads this one: a cascade's
content descriptors (``ContentRecord`` and its ``CONTENT_*`` field
tuples), which ``synth`` writes, ``io`` reads and ``features`` scores; a
tree with its content (``CascadeRecord``), which ``cli`` loads and
``tasks`` and ``features`` take; and the design-matrix column layout
(``layout_columns``).

Cascade size counts reshares; the root is not a reshare.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
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


def _check_timestamp(timestamp: float) -> None:
    if not math.isfinite(timestamp):
        raise ValueError(f"timestamp must be finite, got {timestamp!r}")


def _check_event(node_type: str, timestamp: float, outdeg: int) -> None:
    if node_type not in NODE_TYPES:
        raise ValueError(f"node_type must be one of {NODE_TYPES}, got {node_type!r}")
    _check_timestamp(timestamp)
    if outdeg < 0:
        raise ValueError(f"outdeg must be >= 0, got {outdeg}")


@dataclass(frozen=True, slots=True, init=False)
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
    read fields with ``getattr`` or ``dataclasses.fields``. The constructor
    is a ``__new__`` compiled from the fields (see ``_compile_event``), so a
    subclass that lays out other slots cannot construct.
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

    def __reduce__(self):
        # Pickle and copy through the constructor: it takes no empty instance.
        return type(self), tuple(getattr(self, name) for name in EVENT_FIELDS)

    @property
    def is_root(self) -> bool:
        return self.parent_id is None

    @property
    def is_page(self) -> bool:
        return self.node_type == "page"


EVENT_FIELDS = tuple(f.name for f in fields(ReshareEvent))

# ReshareEvent's slots on a class without the frozen ``__setattr__``. The two
# lay their slots out alike, so an instance of one may become the other by
# assigning ``__class__``.
_EventSlots = type("_EventSlots", (), {"__slots__": EVENT_FIELDS})


def _compile_event():
    """``ReshareEvent.__new__`` and ``_rebase(old, t)``, compiled with one
    attribute store per field into an ``_EventSlots`` that then takes the
    event's class, past the frozen ``__setattr__``. ``__new__`` has the
    signature and defaults of the fields and checks its arguments with
    ``_check_event``; ``_rebase`` is ``replace(old, timestamp=t)`` as a slot
    copy, since the other fields were checked when ``old`` was made."""
    def stores(value):
        return "".join(f"\n    e.{name} = {value(name)}" for name in EVENT_FIELDS)

    params = ", ".join(f.name if f.default is MISSING else f"{f.name}={f.default!r}"
                       for f in fields(ReshareEvent))
    source = f"""def __new__(cls, {params}):
    _check_event(node_type, timestamp, outdeg)
    e = _new(_EventSlots){stores(lambda name: name)}
    e.__class__ = cls
    return e

def _rebase(old, t):
    _check_timestamp(t)
    e = _new(_EventSlots){stores(lambda name: 't' if name == 'timestamp' else 'old.' + name)}
    e.__class__ = ReshareEvent
    return e
"""
    namespace = {"_check_event": _check_event, "_check_timestamp": _check_timestamp,
                 "_new": object.__new__, "_EventSlots": _EventSlots,
                 "ReshareEvent": ReshareEvent}
    exec(compile(source, f"<{__name__}._compile_event>", "exec"), namespace)
    namespace["__new__"].__qualname__ = "ReshareEvent.__new__"
    return staticmethod(namespace["__new__"]), namespace["_rebase"]


ReshareEvent.__new__, _rebase = _compile_event()


def _position(events: Sequence[ReshareEvent], event: ReshareEvent) -> int:
    """Index of ``event`` itself, not of an equal event, in ``events``."""
    return next(i for i, e in enumerate(events) if e is event)


@dataclass(frozen=True)
class CascadeTree:
    """A validated diffusion tree.

    ``events[0]`` is the root; ``events[1:]`` are the reshares in canonical
    time order (ties broken by node_id), with timestamps re-based so the
    root is at 0. ``epoch`` keeps the root's original timestamp so cascades
    remain comparable on absolute upload time. ``parent``, ``depth`` and
    ``children`` are computed from the events on first read, each in one
    pass, and iterate in event order. Instances are immutable and safe to
    share across threads: each map is a pure function of the frozen events,
    so threads that race to compute it compute equal maps.
    """

    cascade_id: str
    events: tuple[ReshareEvent, ...]
    epoch: float = 0.0

    @cached_property
    def parent(self) -> Mapping[str, str]:
        """Each reshare's parent id."""
        return {e.node_id: e.parent_id for e in self.events[1:]}

    @cached_property
    def depth(self) -> Mapping[str, int]:
        """Each node's distance from the root; parents precede children."""
        depth: dict[str, int] = {}
        for e in self.events:
            depth[e.node_id] = 0 if e.parent_id is None else depth[e.parent_id] + 1
        return depth

    @cached_property
    def children(self) -> Mapping[str, tuple[str, ...]]:
        """Each node's children, in event order."""
        children: dict[str, list[str]] = {e.node_id: [] for e in self.events}
        for e in self.events[1:]:
            children[e.parent_id].append(e.node_id)
        return {nid: tuple(cs) for nid, cs in children.items()}

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


CONTENT_FIELDS = tuple(f.name for f in fields(ContentRecord))
# The content block of every feature vector: the record's fields but its labels.
CONTENT_FEATURES = tuple(n for n in CONTENT_FIELDS if n not in ("category", "cluster_id"))
CONTENT_SCORE_NAMES = tuple(n for n in CONTENT_FEATURES if n.startswith("score_"))


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


def _canonical_tree(events: Sequence[ReshareEvent]) -> CascadeTree | None:
    """The tree of a log that is already in canonical order, else None.

    Canonical: the root comes first, every reshare names a parent placed
    before it, and the reshares strictly increase in (timestamp, node_id),
    none before the root and none whose re-based time overflows. Such a log
    is its own (timestamp, node_id) order with parents first, which the heap
    in ``_general_tree`` would reproduce, so it is the order ``_tree`` takes.
    """
    root = events[0]
    if root.parent_id is not None:
        return None
    cascade_id = root.cascade_id
    placed = {root.node_id}
    last_t, last_id = root.timestamp, None
    for e in itertools.islice(events, 1, None):
        nid, t = e.node_id, e.timestamp
        if (
            e.parent_id not in placed
            or nid in placed
            or e.cascade_id != cascade_id
            or t < last_t
            or (t == last_t and last_id is not None and nid <= last_id)
        ):
            return None
        placed.add(nid)
        last_t, last_id = t, nid
    # Re-based times grow along the log, so the last is finite only if all are.
    try:
        finite = math.isfinite(events[-1].timestamp - root.timestamp)
    except OverflowError:  # an int too large for a float
        finite = False
    return _tree(events, root, itertools.islice(events, 1, None)) if finite else None


def build_cascade(events: Sequence[ReshareEvent]) -> CascadeTree:
    """Validate a reshare event log into a :class:`CascadeTree`.

    Reshares are ordered by (timestamp, node_id); the node_id tiebreak makes
    the order independent of input permutation. The ordering pass walks parent
    pointers from the root, so a parent always precedes its children even
    under timestamp ties, and any parent cycle surfaces as CycleDetectedError.
    Timestamps are re-based so the root sits at 0. Every rejection is a
    ``InvalidCascadeError`` whose ``index`` is the input position of the event
    it names.

    A log already in canonical order (see ``_canonical_tree``) is its own
    order; any other log, faulty ones included, takes ``_general_tree``. Both
    hand that order to ``_tree``, which re-bases the events in it.
    """
    tree = _canonical_tree(events) if events else None
    return tree if tree is not None else _general_tree(events)


def _general_tree(events: Sequence[ReshareEvent]) -> CascadeTree:
    """build_cascade's tree of any log, in several passes; the rejections are
    build_cascade's."""
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
    # parent is placed. Unreachable leftovers mean the parent pointers cycle.
    order: list[ReshareEvent] = []
    ready: list[tuple[float, str]] = [
        (by_id[c].timestamp, c) for c in kids[root.node_id]
    ]
    heapq.heapify(ready)
    while ready:
        _, nid = heapq.heappop(ready)
        order.append(by_id[nid])
        for c in kids[nid]:
            heapq.heappush(ready, (by_id[c].timestamp, c))
    if len(order) != len(events) - 1:
        placed = {e.node_id for e in order} | {root.node_id}
        stuck = sorted(set(by_id) - placed)
        raise CycleDetectedError(
            f"cascade {cascade_id!r}: events unreachable from root (cycle): {stuck}",
            next(i for i, e in enumerate(events) if e.node_id not in placed),
        )
    return _tree(events, root, order)


def _tree(
    events: Sequence[ReshareEvent], root: ReshareEvent, order: Iterable[ReshareEvent]
) -> CascadeTree:
    """The tree of ``root`` and its reshares in canonical ``order``, each
    re-based so the root sits at 0; a rejection names its index in ``events``."""
    cascade_id, epoch = root.cascade_id, root.timestamp
    rebased = [_rebase(root, 0.0)]
    for e in order:
        nid, t = e.node_id, e.timestamp - epoch
        if t < 0:
            raise NegativeTimestampError(
                f"cascade {cascade_id!r}: event {nid!r} at {e.timestamp} "
                f"precedes root at {epoch}",
                _position(events, e),
            )
        try:
            rebased.append(_rebase(e, t))
        except (ValueError, OverflowError) as exc:  # inf, or an int too big for a float
            raise TimestampOverflowError(
                f"cascade {cascade_id!r}: event {nid!r}: {exc}", _position(events, e)
            ) from None
    return CascadeTree(cascade_id, tuple(rebased), epoch)


def prefix(tree: CascadeTree, k: int) -> CascadeTree:
    """Subtree induced by the root plus the first k reshares in time order.

    Parents always precede their children in the canonical order, so the
    first k+1 events are closed under the parent map and are the prefix
    tree's events; its maps are computed from them when read.
    """
    if k < 1:
        raise BadArgumentError(f"k must be >= 1, got {k}")
    if k > tree.size:
        raise KTooLargeError(f"k={k} exceeds cascade size {tree.size}")
    if k == tree.size:
        return tree
    return CascadeTree(tree.cascade_id, tree.events[: k + 1], tree.epoch)


def induced_subgraph(tree: CascadeTree, graph: SocialGraph, k: int) -> SocialGraph:
    """Social-graph subgraph restricted to the root and first k resharers."""
    return graph.induced(e.node_id for e in prefix(tree, k).events)


# --- the design-matrix layout -------------------------------------------------

MISSING_SUFFIX = "_missing"


def layout_columns(names: Iterable[str]) -> list[str]:
    """Each feature name followed by its ``<name>_missing`` indicator."""
    return [column for name in names for column in (name, name + MISSING_SUFFIX)]
