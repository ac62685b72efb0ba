import itertools
import re
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, strategies as st

from cascadekit.cascade import (
    NODE_TYPES,
    ReshareEvent,
    SocialGraph,
    build_cascade,
    induced_subgraph,
    prefix,
)
from cascadekit.errors import (
    CycleDetectedError,
    DanglingParentError,
    KTooLargeError,
    MultipleRootsError,
    NegativeTimestampError,
    NoRootError,
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
