import copy
import itertools
import math
import pickle
import re
from dataclasses import FrozenInstanceError, dataclass, fields, replace

import pytest
from hypothesis import given, strategies as st

from cascadekit.cascade import (
    EVENT_FIELDS,
    NODE_TYPES,
    CascadeTree,
    ReshareEvent,
    SocialGraph,
    _canonical_tree,
    _check_event,
    _general_tree,
    _rebase,
    build_cascade,
    induced_subgraph,
    prefix,
)
from cascadekit.errors import (
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

from conftest import event, random_tree, star_tree, path_tree, typed_fields


class TestBuildCascade:
    def test_two_leaf_star(self):
        tree = build_cascade(
            [event("c", "r", 0), event("c", "a", 10, "r"), event("c", "b", 20, "r")]
        )
        assert tree.size == 2
        assert tree.depth == {"r": 0, "a": 1, "b": 1}
        assert [e.node_id for e in tree.events] == ["r", "a", "b"]

    def test_rebases_timestamps_to_root(self):
        tree = build_cascade(
            [event("c", "r", 1000.0), event("c", "a", 1010.0, "r")]
        )
        assert tree.root.timestamp == 0.0
        assert tree.reshares[0].timestamp == 10.0
        assert tree.epoch == 1000.0

    def test_dangling_parent(self):
        with pytest.raises(DanglingParentError):
            build_cascade([event("c", "r", 0), event("c", "a", 10, "x")])

    def test_cycle_detected(self):
        with pytest.raises(CycleDetectedError):
            build_cascade(
                [event("c", "r", 0), event("c", "a", 10, "b"), event("c", "b", 20, "a")]
            )

    def test_no_root(self):
        with pytest.raises(NoRootError):
            build_cascade([event("c", "a", 10, "b"), event("c", "b", 20, "a")])

    def test_multiple_roots(self):
        with pytest.raises(MultipleRootsError):
            build_cascade([event("c", "r", 0), event("c", "s", 1)])

    def test_reshare_before_root(self):
        with pytest.raises(NegativeTimestampError):
            build_cascade([event("c", "r", 100), event("c", "a", 50, "r")])

    def test_mixed_cascade_ids_rejected(self):
        with pytest.raises(ValueError, match="mixed cascade ids"):
            build_cascade([event("c", "r", 0), event("d", "a", 1, "r")])

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_cascade([event("c", "r", 0), event("c", "r", 1, "r")])

    def test_order_is_input_permutation_invariant(self, rng):
        """Same events in any order give the identical tree."""
        base = random_tree(rng, 40)
        events = list(base.events)
        for _ in range(10):
            shuffled = [events[i] for i in rng.permutation(len(events))]
            rebuilt = build_cascade(shuffled)
            assert [e.node_id for e in rebuilt.events] == [
                e.node_id for e in base.events
            ]
            assert rebuilt.depth == base.depth

    def test_timestamp_ties_break_by_node_id(self):
        tree = build_cascade(
            [
                event("c", "r", 0),
                event("c", "zz", 5, "r"),
                event("c", "aa", 5, "r"),
            ]
        )
        assert [e.node_id for e in tree.reshares] == ["aa", "zz"]

    def test_parent_precedes_child_even_on_ties(self):
        # Child 'a' ties with its parent 'b'; the order must still place
        # 'b' first so every prefix is closed under the parent map.
        tree = build_cascade(
            [
                event("c", "r", 0),
                event("c", "b", 5, "r"),
                event("c", "a", 5, "b"),
            ]
        )
        ids = [e.node_id for e in tree.events]
        assert ids.index("b") < ids.index("a")

    def test_timestamps_nondecreasing_in_order(self, rng):
        for trial in range(20):
            tree = random_tree(rng, int(rng.integers(2, 60)))
            times = [e.timestamp for e in tree.events]
            assert times == sorted(times)


class TestPrefix:
    def test_star_prefix(self):
        tree = star_tree(5)
        p = prefix(tree, 3)
        assert p.size == 3
        assert all(p.depth[e.node_id] == 1 for e in p.reshares)

    def test_chain_prefix(self):
        tree = path_tree(3)
        p = prefix(tree, 2)
        assert [e.node_id for e in p.events] == ["n000", "n001", "n002"]
        assert p.depth["n002"] == 2

    def test_full_prefix_is_identity(self, rng):
        tree = random_tree(rng, 30)
        assert prefix(tree, tree.size) is tree

    def test_k_too_large(self):
        with pytest.raises(KTooLargeError):
            prefix(star_tree(3), 4)

    def test_k_below_one(self):
        with pytest.raises(ValueError):
            prefix(star_tree(3), 0)

    def test_prefix_depths_match_full_tree(self, rng):
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(3, 50)))
            k = int(rng.integers(1, tree.size + 1))
            p = prefix(tree, k)
            for e in p.events:
                assert p.depth[e.node_id] == tree.depth[e.node_id]

    def test_prefix_of_prefix(self, rng):
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(4, 50)))
            k1 = int(rng.integers(2, tree.size + 1))
            k2 = int(rng.integers(1, k1 + 1))
            a = prefix(prefix(tree, k1), k2)
            b = prefix(tree, k2)
            assert [e.node_id for e in a.events] == [e.node_id for e in b.events]
            assert a.parent == b.parent

    def test_prefix_closed_under_parent(self, rng):
        for _ in range(20):
            tree = random_tree(rng, int(rng.integers(3, 60)))
            k = int(rng.integers(1, tree.size + 1))
            p = prefix(tree, k)
            ids = {e.node_id for e in p.events}
            assert all(par in ids for par in p.parent.values())


class TestSocialGraph:
    def test_self_loops_dropped_and_dedup(self):
        g = SocialGraph()
        g.add_edge("a", "a")
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        assert g.edge_count() == 1
        assert g.neighbors("a") == {"b"}

    def test_directed_degree(self):
        g = SocialGraph(directed=True)
        g.add_edge("a", "b")
        g.add_edge("a", "c")
        assert g.degree("a") == 2
        assert g.degree("b") == 0
        assert g.edge_count() == 2


class TestInducedSubgraph:
    def test_triangle(self):
        tree = build_cascade(
            [event("c", "r", 0), event("c", "a", 1, "r"), event("c", "b", 2, "r")]
        )
        g = SocialGraph()
        for u, v in itertools.combinations(["r", "a", "b"], 2):
            g.add_edge(u, v)
        sub = induced_subgraph(tree, g, 2)
        assert sub.edge_count() == 3

    def test_no_edges_among_participants(self):
        tree = star_tree(2)
        g = SocialGraph()
        g.add_edge("x", "y")
        sub = induced_subgraph(tree, g, 2)
        assert sub.edge_count() == 0

    def test_k1_single_edge(self):
        tree = build_cascade([event("c", "r", 0), event("c", "a", 1, "r")])
        g = SocialGraph()
        g.add_edge("r", "a")
        g.add_edge("a", "z")
        sub = induced_subgraph(tree, g, 1)
        assert sub.edge_count() == 1

    def test_k_too_large(self):
        g = SocialGraph()
        with pytest.raises(KTooLargeError):
            induced_subgraph(star_tree(2), g, 3)


NODE_IDS = st.text(alphabet="ab01", max_size=3)


@given(
    directed=st.booleans(),
    pairs=st.lists(st.tuples(NODE_IDS, NODE_IDS)),
)
def test_edges_match_set_reference(directed, pairs):
    g = SocialGraph(directed=directed)
    for u, v in pairs:
        g.add_edge(u, v)
    reference = {
        (u, v) if directed else (min(u, v), max(u, v))
        for u, nbrs in g.adjacency.items()
        for v in nbrs
    }
    assert g.edges() == sorted(reference)
    assert len(g.edges()) == g.edge_count()


TIMES = st.integers(-3, 3) | st.floats(-1e6, 1e6)
OFFSETS = st.sampled_from([0, 1, 2]) | st.floats(0, 10)


@st.composite
def event_logs(draw):
    """A valid event log in input order: event i > 0 reshares from an event
    before it, at or after the root's time; ties and int times are common."""
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(NODE_IDS.filter(bool), min_size=n, max_size=n, unique=True))
    start = draw(TIMES)
    log = []
    for i, nid in enumerate(ids):
        log.append(ReshareEvent(
            "c", nid, start + (draw(OFFSETS) if i else 0),
            parent_id=ids[draw(st.integers(0, i - 1))] if i else None,
            node_type=draw(st.sampled_from(NODE_TYPES)),
            outdeg=draw(st.integers(0, 5)),
            gender=draw(st.none() | st.just("female")),
        ))
    return log


@given(log=event_logs(), data=st.data())
def test_build_is_input_permutation_invariant(log, data):
    tree = build_cascade(log)
    rebuilt = build_cascade(data.draw(st.permutations(log)))
    assert rebuilt == tree
    assert [typed_fields(e) for e in rebuilt.events] == [
        typed_fields(e) for e in tree.events
    ]
    assert type(rebuilt.epoch) is type(tree.epoch)


@given(log=event_logs())
def test_rebased_events_equal_replace(log):
    tree = build_cascade(log)
    root = next(e for e in log if e.parent_id is None)
    by_id = {e.node_id: e for e in log}
    expected = [replace(root, timestamp=0.0)] + [
        replace(by_id[e.node_id], timestamp=by_id[e.node_id].timestamp - root.timestamp)
        for e in tree.reshares
    ]
    assert [typed_fields(e) for e in tree.events] == [typed_fields(e) for e in expected]
    assert tree.epoch == root.timestamp
    for e in tree.events:
        with pytest.raises(FrozenInstanceError):
            e.timestamp = 1.0


def tree_orders(tree):
    """A tree's fields, its events type for type and its maps in iteration order."""
    return (
        tree.cascade_id, (type(tree.epoch), repr(tree.epoch)),
        [typed_fields(e) for e in tree.events],
        list(tree.parent.items()), list(tree.depth.items()), list(tree.children.items()),
    )


@given(log=event_logs(), data=st.data())
def test_tree_maps_iterate_in_canonical_order(log, data):
    """Every map of a tree iterates in its events' order, whatever the order
    of the log it was built from."""
    tree = build_cascade(log)
    ids = [e.node_id for e in tree.events]
    assert list(tree.parent) == ids[1:]
    assert list(tree.depth) == list(tree.children) == ids
    assert tree_orders(build_cascade(data.draw(st.permutations(log)))) == tree_orders(tree)


# Finite event times: ints, floats, a negative zero and subnormals.
EVENT_TIMES = (
    st.integers(-10**12, 10**12) | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, -2.225073858507201e-308])
)


def optional(values):
    return st.none() | values


@st.composite
def any_events(draw):
    """An event whose optional fields are each None or drawn."""
    counts, days = st.integers(0, 10**9), st.floats(0, 1e5)
    return ReshareEvent(
        draw(NODE_IDS), draw(NODE_IDS), draw(EVENT_TIMES),
        parent_id=draw(optional(NODE_IDS)),
        node_type=draw(st.sampled_from(NODE_TYPES)),
        outdeg=draw(counts),
        friend_count=draw(optional(counts)),
        fan_count=draw(optional(counts)),
        subscriber_count=draw(optional(counts)),
        age_years=draw(optional(days)),
        fb_age_days=draw(optional(days)),
        activity_days=draw(optional(days)),
        gender=draw(optional(st.sampled_from(["female", "male"]))),
        views_orig_cum=draw(optional(counts)),
        views_reshares_cum=draw(optional(counts)),
    )


@given(e=any_events(), t=EVENT_TIMES | st.sampled_from([math.inf, -math.inf, math.nan]))
def test_rebase_is_replace(e, t):
    """The re-base copy is ``replace(e, timestamp=t)`` type for type, frozen,
    and refuses a time that is not finite with ``replace``'s error."""
    try:
        expected = replace(e, timestamp=t)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            _rebase(e, t)
        assert str(info.value) == str(exc)
        return
    rebased = _rebase(e, t)
    assert type(rebased) is ReshareEvent
    assert typed_fields(rebased) == typed_fields(expected)
    with pytest.raises(FrozenInstanceError):
        rebased.timestamp = 1.0


@dataclass(frozen=True, slots=True)
class ReferenceEvent:
    """``ReshareEvent`` built by the dataclass-generated ``__init__`` and
    checked after, in ``__post_init__``: what its compiled constructor is held to."""

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


@st.composite
def constructor_arguments(draw):
    """Positional and keyword arguments for an event: a positional prefix of
    the field values, then keywords for the others but a drawn set left out.
    Some values are out of range, and some calls repeat a name or pass one
    that is no field."""
    counts, days = st.integers(0, 10**9), st.floats(0, 1e5)
    values = [
        draw(NODE_IDS), draw(NODE_IDS),
        draw(EVENT_TIMES | st.sampled_from([math.inf, -math.inf, math.nan])),
        draw(optional(NODE_IDS)),
        draw(st.sampled_from([*NODE_TYPES, "bot"])),
        draw(st.integers(-2, 10**9)),
        *(draw(optional(counts)) for _ in range(3)),
        *(draw(optional(days)) for _ in range(3)),
        draw(optional(st.sampled_from(["female", "male"]))),
        draw(optional(counts)), draw(optional(counts)),
    ]
    n = draw(st.integers(0, len(EVENT_FIELDS)))
    left_out = draw(st.sets(st.sampled_from(EVENT_FIELDS[n:]))) if n < len(EVENT_FIELDS) else set()
    keywords = {name: v for name, v in zip(EVENT_FIELDS[n:], values[n:]) if name not in left_out}
    odd = draw(st.sampled_from([None, None, None, "repeated", "unknown"]))
    if odd == "repeated" and n:
        keywords[EVENT_FIELDS[0]] = values[0]
    elif odd == "unknown":
        keywords["tag"] = "x"
    return tuple(values[:n]), keywords


@given(args=constructor_arguments())
def test_constructor_is_the_dataclass_one(args):
    """``ReshareEvent(...)`` binds, checks and stores its arguments as the
    dataclass ``__init__`` and ``__post_init__`` did, and its events keep
    every dataclass protocol."""
    positional, keywords = args
    try:
        expected = ReferenceEvent(*positional, **keywords)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as info:
            ReshareEvent(*positional, **keywords)
        if type(exc) is ValueError:
            assert str(info.value) == str(exc)
        return
    e = ReshareEvent(*positional, **keywords)
    assert type(e) is ReshareEvent
    assert typed_fields(e) == typed_fields(expected)
    assert repr(e) == repr(expected).replace("ReferenceEvent", "ReshareEvent", 1)
    assert e == ReshareEvent(*positional, **keywords) and hash(e) == hash(expected)
    copies = [pickle.loads(pickle.dumps(e, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in [*copies, copy.copy(e), copy.deepcopy(e), replace(e)]:
        assert type(c) is ReshareEvent and c == e
        assert typed_fields(c) == typed_fields(e)
    assert ReshareEvent.__match_args__ == ReferenceEvent.__match_args__ == EVENT_FIELDS
    with pytest.raises(FrozenInstanceError):
        e.outdeg = 1


def test_subclass_with_more_fields_cannot_construct():
    """The constructor fills ReshareEvent's own slots, so a subclass that
    lays out more refuses to construct."""
    @dataclass(frozen=True, slots=True)
    class TaggedEvent(ReshareEvent):
        tag: str = ""

    with pytest.raises(TypeError):
        TaggedEvent("c", "r", 0.0)
    with pytest.raises(TypeError):
        TaggedEvent("c", "r", 0.0, tag="x")


@given(log=event_logs())
def test_canonical_log_builds_in_one_pass(log):
    """A tree's own order, at the log's absolute times, builds in one pass
    whenever its reshares strictly increase in (timestamp, node_id), and to
    the tree the general passes build from the same log."""
    tree = build_cascade(log)
    by_id = {e.node_id: e for e in log}
    canonical = [by_id[e.node_id] for e in tree.events]
    keys = [(e.timestamp, e.node_id) for e in canonical[1:]]
    one_pass = _canonical_tree(canonical)
    assert (one_pass is not None) == all(a < b for a, b in zip(keys, keys[1:]))
    general = _general_tree(canonical)
    assert general == tree
    for rebuilt in (build_cascade(canonical), one_pass or general):
        assert rebuilt == general
        assert tree_orders(rebuilt) == tree_orders(general)


CANONICAL_LOG = [
    ("c", "r", 10.0, None), ("c", "a", 11.0, "r"), ("c", "b", 12.0, "a"),
    ("c", "d", 13.0, "r"),
]


@pytest.mark.parametrize("faults, index, error", [
    ({3: {"cascade_id": "x"}}, 3, MixedCascadeIdError),
    ({3: {"node_id": "a"}}, 3, DuplicateNodeError),
    ({3: {"parent_id": None}}, 3, MultipleRootsError),
    ({3: {"parent_id": "zz"}}, 3, DanglingParentError),
    ({1: {"timestamp": 9.0}}, 1, NegativeTimestampError),
    ({0: {"timestamp": -1e308}, 3: {"timestamp": 1e308}}, 3, TimestampOverflowError),
    ({0: {"timestamp": -10**308}, 3: {"timestamp": 10**308}}, 3, TimestampOverflowError),
], ids=["mixed-id", "duplicate-node", "second-root", "dangling-parent",
        "negative-time", "overflow", "int-overflow"])
def test_fault_in_a_canonical_log_is_reported_at_its_index(faults, index, error):
    """One fault in a log that is otherwise canonical leaves the one-pass
    build, and the general passes report it at its input index."""
    log = [event(*fields) for fields in CANONICAL_LOG]
    assert _canonical_tree(log) is not None
    for i, changes in faults.items():
        log[i] = replace(log[i], **changes)
    assert _canonical_tree(log) is None
    with pytest.raises(error) as info:
        build_cascade(log)
    assert type(info.value) is error
    assert info.value.index == index


def test_rebased_timestamp_overflow_is_rejected():
    """A reshare time minus the root's can overflow to inf; the rebased
    event fails the same finiteness check ``replace`` would run."""
    log = [event("c", "r", -1e308), event("c", "a", 1e308, "r")]
    with pytest.raises(ValueError, match="timestamp must be finite") as info:
        replace(log[1], timestamp=log[1].timestamp - log[0].timestamp)
    with pytest.raises(ValueError, match=re.escape(str(info.value))):
        build_cascade(log)


@given(log=event_logs().filter(lambda log: len(log) >= 2), data=st.data())
def test_prefix_of_prefix_is_prefix_and_closed(log, data):
    tree = build_cascade(log)
    j = data.draw(st.integers(1, tree.size))
    i = data.draw(st.integers(1, j))
    p = prefix(tree, i)
    assert prefix(prefix(tree, j), i) == p
    assert p.events == tree.events[: i + 1]
    kept = {e.node_id for e in p.events}
    assert set(p.parent) == kept - {p.root.node_id}
    for child, parent in p.parent.items():
        assert parent in kept and parent == tree.parent[child]
        assert p.depth[child] == p.depth[parent] + 1
        assert child in p.children[parent]
    assert all(set(kids) <= kept for kids in p.children.values())


def reference_maps(events):
    """parent, depth and children of a tree's events, filled in one loop over
    them in canonical order, as the tree build once stored them."""
    root = events[0].node_id
    parent, depth, children = {}, {root: 0}, {root: []}
    for e in events[1:]:
        nid, pid = e.node_id, e.parent_id
        parent[nid] = pid
        depth[nid] = depth[pid] + 1
        children[nid] = []
        children[pid].append(nid)
    return parent, depth, {nid: tuple(cs) for nid, cs in children.items()}


@given(log=event_logs())
def test_maps_of_every_prefix_are_the_reference_maps(log):
    """A tree holds only its events; each map, of the tree and of its prefix
    at every k, equals the reference map item for item, in iteration order
    and value type, and a second read returns the object the first did."""
    assert [f.name for f in fields(CascadeTree)] == ["cascade_id", "events", "epoch"]
    tree = build_cascade(log)
    for p in [prefix(tree, k) for k in range(1, tree.size + 1)] or [tree]:
        maps = (p.parent, p.depth, p.children)
        expected = reference_maps(p.events)
        assert [[(key, type(v), v) for key, v in m.items()] for m in maps] == [
            [(key, type(v), v) for key, v in m.items()] for m in expected
        ]
        assert all(a is b for a, b in zip((p.parent, p.depth, p.children), maps))
