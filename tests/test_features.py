import dataclasses
from array import array

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cascadekit.cascade import CascadeRecord, CascadeTree, SocialGraph, build_cascade, prefix
from cascadekit.errors import EmptyInputError, KTooLargeError, TimeNotNormalizedError
from cascadekit.features import (
    ContentRecord,
    centered_slope,
    extract_features,
    extract_features_batch,
    feature_names,
    layout_columns,
    percentile_90,
    slope_through_origin,
)

from conftest import event, random_tree, star_tree, tree_from_parents


def batch(*args, **kwargs):
    """``extract_features_batch`` with its flat float64 ``array("d")`` of
    rows viewed as the matrix, one row per cascade."""
    ids, rows, columns = extract_features_batch(*args, **kwargs)
    assert type(rows) is array and rows.typecode == "d"
    assert len(rows) == len(ids) * len(columns)
    return ids, np.frombuffer(rows, dtype=np.float64).reshape(-1, len(columns)), columns


class TestSlopeThroughOrigin:
    def test_exact_multiples_of_index(self):
        assert slope_through_origin([1, 2, 3]) == 1.0

    def test_zeros(self):
        assert slope_through_origin([0, 0, 0]) == 0.0

    def test_constant_sequence(self):
        assert slope_through_origin([2, 2, 2]) == pytest.approx(12 / 14, abs=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            slope_through_origin([])

    def test_centered_variant_kills_constants(self):
        assert centered_slope([10, 10, 10, 10]) == 0.0
        assert centered_slope([1, 2, 3]) == pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_least_squares(self, rng):
        for _ in range(20):
            v = rng.normal(size=int(rng.integers(1, 12)))
            idx = np.arange(1, v.size + 1, dtype=float)
            expected = float(idx @ v / (idx @ idx))
            assert slope_through_origin(v.tolist()) == pytest.approx(expected, abs=1e-12)


class TestPercentile90:
    def test_single(self):
        assert percentile_90([5]) == 5

    def test_one_to_ten(self):
        assert percentile_90(list(range(1, 11))) == 9

    def test_two_values(self):
        assert percentile_90([1, 2]) == 2

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            percentile_90([])

    def test_within_min_max(self, rng):
        for _ in range(30):
            v = rng.normal(size=int(rng.integers(1, 25))).tolist()
            assert min(v) <= percentile_90(v) <= max(v)


def chain_cascade():
    """r -> a -> b -> c -> d -> e at times 10, 20, 30, 40, 50."""
    ids = ["a", "b", "c", "d", "e"]
    events = [event("c", "r", 0)]
    parent = "r"
    for i, nid in enumerate(ids):
        events.append(event("c", nid, 10.0 * (i + 1), parent))
        parent = nid
    return build_cascade(events)


def star_with_views():
    events = [event("c", "r", 0, node_type="page", outdeg=50)]
    for i in range(5):
        events.append(
            event(
                "c",
                f"u{i}",
                float(i + 1),
                "r",
                outdeg=10 + i,
                friend_count=10 + i,
                views_orig_cum=200 * (i + 1),
                views_reshares_cum=30 * i,
            )
        )
    return build_cascade(events)


class TestExtractFeaturesExamples:
    def test_chain_temporal_and_structural(self):
        fv = extract_features(chain_cascade(), 5)
        assert fv.value("time_to_5") == 50.0
        assert fv.value("gap_avg_first_half") == 10.0
        assert fv.value("gap_avg_second_half") == 10.0
        assert fv.value("gap_slope") == pytest.approx(100 / 30, abs=1e-12)
        assert fv.value("depths_avg") == 3.0
        assert fv.value("did_leave") == 1.0

    def test_star_with_friend_graph(self):
        tree = star_tree(5, times=[0, 1, 2, 3, 4, 5])
        graph = SocialGraph()
        for e in tree.reshares:
            graph.add_edge("n000", e.node_id)
        fv = extract_features(tree, 5, graph=graph)
        assert fv.value("did_leave") == 0.0
        assert fv.value("root_connections") == 5.0
        assert fv.value("depths_avg") == 1.0
        assert fv.value("depth_slope") == pytest.approx(15 / 55, abs=1e-12)

    def test_view_rates(self):
        tree = star_with_views()
        k = 5
        fv = extract_features(tree, k)
        # 5th reshare at t=5 saw views_orig_cum=1000; rate is per second.
        assert fv.value("root_views") == 1000.0
        assert fv.value("root_views_rate") == pytest.approx(1000.0 / 5.0)
        assert fv.value("reshare_views") == 120.0
        assert fv.value("reshare_views_rate") == pytest.approx(120.0 / 5.0)

    def test_views_rate_formula_scales_with_time(self):
        tree = star_with_views()
        scaled_events = [
            dataclasses.replace(e, timestamp=e.timestamp * 100.0)
            for e in tree.events
        ]
        slow = build_cascade(scaled_events)
        fv = extract_features(slow, 5)
        assert fv.value("root_views_rate") == pytest.approx(1000.0 / 500.0)


class TestFeatureBookkeeping:
    def test_canonical_names_cover_vector(self):
        fv = extract_features(chain_cascade(), 4)
        assert list(fv.names) == feature_names(4)
        assert len(fv.row) == 2 * len(fv.names)

    def test_k_too_large(self):
        with pytest.raises(KTooLargeError):
            extract_features(chain_cascade(), 6)

    def test_requires_normalized_time(self):
        tree = chain_cascade()
        shifted = CascadeTree(
            cascade_id=tree.cascade_id,
            events=tuple(
                dataclasses.replace(e, timestamp=e.timestamp + 7.0)
                for e in tree.events
            ),
            epoch=0.0,
        )
        with pytest.raises(TimeNotNormalizedError):
            extract_features(shifted, 3)

    def test_graph_features_missing_without_graph(self):
        fv = extract_features(chain_cascade(), 3)
        for name in ("root_connections", "border_nodes", "border_edges",
                     "subgraph_edges", "induced_outdeg_0"):
            assert fv.is_missing(name)
            assert fv.value(name) == 0.0

    def test_gap_features_missing_at_k1(self):
        fv = extract_features(chain_cascade(), 1)
        assert fv.is_missing("gap_slope")
        assert fv.is_missing("gap_avg_first_half")
        assert fv.is_missing("gap_avg_second_half")
        assert not fv.is_missing("time_to_1")

    def test_demographics_missing_for_pages(self):
        events = [event("c", "r", 0, node_type="page", outdeg=9, fan_count=9)]
        events.append(event("c", "p1", 1.0, "r", node_type="page", outdeg=3, fan_count=3))
        events.append(event("c", "p2", 2.0, "r", node_type="page", outdeg=4, fan_count=4))
        fv = extract_features(build_cascade(events), 2)
        assert fv.is_missing("root_age")
        assert fv.is_missing("friends_avg")
        assert not fv.is_missing("fans_avg")
        assert fv.value("fans_avg") == 3.5
        assert fv.value("pages_count") == 3.0
        assert fv.value("female_count") == 0.0

    def test_aggregates_restricted_to_applicable_nodes(self):
        events = [event("c", "r", 0)]
        events.append(
            event("c", "u1", 1.0, "r", node_type="user", friend_count=100,
                  age_years=30, gender="female")
        )
        events.append(
            event("c", "p1", 2.0, "r", node_type="page", outdeg=7, fan_count=7)
        )
        fv = extract_features(build_cascade(events), 2)
        # The page contributes to fans, never drags the user friend average.
        assert fv.value("friends_avg") == 100.0
        assert fv.value("friends_90p") == 100.0
        assert fv.value("fans_avg") == 7.0
        assert fv.value("ages_avg") == 30.0
        assert fv.value("female_count") == 1.0


class TestFeatureProperties:
    def test_determinism(self, rng):
        tree = random_tree(rng, 20)
        a = extract_features(tree, 7)
        b = extract_features(tree, 7)
        assert a.row == b.row

    def test_prefix_consistency(self, rng):
        for _ in range(10):
            tree = random_tree(rng, int(rng.integers(6, 40)))
            k = int(rng.integers(2, tree.size + 1))
            full = extract_features(tree, k)
            pre = extract_features(prefix(tree, k), k)
            assert full.row == pre.row

    def test_time_scale_covariance(self):
        tree = star_with_views()
        k = 5
        base = extract_features(tree, k)
        c = 4.0  # a power of two keeps the float arithmetic exact
        scaled = build_cascade(
            [dataclasses.replace(e, timestamp=e.timestamp * c) for e in tree.events]
        )
        fv = extract_features(scaled, k)
        for name in [f"time_to_{i}" for i in range(1, k + 1)] + [
            "gap_avg_first_half",
            "gap_avg_second_half",
            "gap_slope",
        ]:
            assert fv.value(name) == base.value(name) * c
        assert fv.value("root_views_rate") == base.value("root_views_rate") / c
        assert fv.value("reshare_views_rate") == base.value("reshare_views_rate") / c

    def test_counts_and_bounds(self, rng):
        for _ in range(10):
            tree = random_tree(rng, int(rng.integers(4, 30)))
            k = int(rng.integers(2, tree.size + 1))
            fv = extract_features(tree, k)
            assert fv.value("female_count") <= k
            assert fv.value("pages_count") <= k + 1
            depths = [tree.depth[e.node_id] for e in tree.events[1 : k + 1]]
            assert fv.value("depths_avg") >= 1.0
            assert min(depths) <= fv.value("depths_avg") <= max(depths)
            assert min(depths) <= fv.value("depths_90p") <= max(depths)

    def test_batch_sorted_and_parallel_identical(self, rng):
        trees = [random_tree(rng, int(rng.integers(5, 25)), cascade_id=f"c{i:03d}")
                 for i in range(150)]
        items = [CascadeRecord(t) for t in reversed(trees[:12])]
        seq_ids, seq_X, seq_columns = batch(items, 3, threads=1)
        par_ids, par_X, par_columns = batch(items, 3, threads=4)
        assert seq_ids == sorted(t.cascade_id for t in trees[:12])
        assert par_ids == seq_ids
        assert par_columns == seq_columns
        assert np.array_equal(par_X, seq_X)
        # X is the matrix np.array makes of the vectors' rows, for an empty
        # batch, a batch of one and a large one, sequential or pooled.
        for n in (0, 1, len(trees)):
            rows = [extract_features(t, 3).row for t in trees[:n]]
            expected = np.array(rows, dtype=np.float64).reshape(n, len(seq_columns))
            for threads in (1, 2):
                ids, X, columns = batch(
                    [CascadeRecord(t) for t in reversed(trees[:n])], 3, threads=threads
                )
                assert ids == [t.cascade_id for t in trees[:n]]
                assert columns == seq_columns
                assert X.dtype == np.float64 and X.shape == expected.shape
                assert np.array_equal(X, expected)


class TestContentRecord:
    def test_score_range_validated(self):
        with pytest.raises(ValueError):
            ContentRecord(score_food=1.5)

    def test_content_features_flow_through(self):
        content = ContentRecord(score_food=0.25, is_en=True, liwc_pos=0.1)
        fv = extract_features(chain_cascade(), 3, content=content)
        assert fv.value("score_food") == 0.25
        assert fv.value("is_en") == 1.0
        assert fv.value("liwc_pos") == 0.1
        assert fv.is_missing("score_water")
        assert fv.is_missing("has_caption")


@st.composite
def hub_graph_cascades(draw):
    """A cascade, a k, and a graph over its nodes and 30 outsiders in which
    one or two hubs carry most edges; some participants are not in it."""
    n = draw(st.integers(1, 8))
    tree = tree_from_parents([draw(st.integers(0, i)) for i in range(n)])
    k = draw(st.integers(1, n))
    ids = [e.node_id for e in tree.events]
    absent = draw(st.sets(st.sampled_from(ids)))
    pool = [nid for nid in ids if nid not in absent] + [f"x{i:02d}" for i in range(30)]
    nodes = st.sampled_from(pool)
    graph = SocialGraph(directed=draw(st.booleans()))
    for hub in draw(st.lists(nodes, min_size=1, max_size=2, unique=True)):
        for v in draw(st.lists(nodes, min_size=5, max_size=40)):
            graph.add_edge(hub, v)
    for u, v in draw(st.lists(st.tuples(nodes, nodes), max_size=20)):
        graph.add_edge(u, v)
    return tree, k, graph


@given(hub_graph_cascades())
def test_border_features_equal_the_union_reference(case):
    tree, k, graph = case
    participants = [e.node_id for e in tree.events[: k + 1]]
    nbr_sets = [graph.neighbors(nid) for nid in participants]
    fv = extract_features(tree, k, graph=graph)
    assert fv.value("border_nodes") == len(set().union(*nbr_sets) - set(participants))
    assert fv.value("border_edges") == sum(len(nbrs) for nbrs in nbr_sets)


@given(hub_graph_cascades(), st.booleans(), st.booleans())
def test_vector_row_is_its_batch_row(case, with_graph, with_content):
    tree, k, graph = case
    graph = graph if with_graph else None
    content = ContentRecord(score_food=0.25, is_en=True) if with_content else None
    other = tree_from_parents([0] * k, cascade_id="a")
    fv = extract_features(tree, k, graph=graph, content=content)
    ids, X, columns = batch(
        [CascadeRecord(tree, content), CascadeRecord(other)], k, graph=graph
    )
    assert ids == ["a", "t"]
    assert columns == layout_columns(fv.names)
    assert X[1].tolist() == list(fv.row)
    assert X[0].tolist() == list(extract_features(other, k, graph=graph).row)


@given(hub_graph_cascades(), st.data())
def test_row_reads_only_the_first_k_reshares(case, data):
    """The row at k is a function of the log's first k+1 events: changing,
    dropping or appending later reshares, children of prefix nodes among
    them, leaves it as it is, with a graph and content given."""
    tree, k, graph = case
    content = ContentRecord(score_food=0.25, is_en=True, liwc_pos=0.5)
    log = list(tree.events[: k + 1])
    t_k = log[-1].timestamp
    placed = [e.node_id for e in log]
    later = st.integers(1, 20).map(lambda dt: t_k + dt)
    details = st.fixed_dictionaries({
        "outdeg": st.integers(0, 50), "node_type": st.sampled_from(["user", "page"]),
        "gender": st.none() | st.just("female"), "friend_count": st.integers(0, 99),
        "views_orig_cum": st.integers(0, 99), "views_reshares_cum": st.integers(0, 99),
    })
    for e in tree.events[k + 1 :]:
        fate = data.draw(st.sampled_from(["keep", "change", "drop"]))
        if fate == "drop" or e.parent_id not in placed:
            continue
        if fate == "change":
            e = dataclasses.replace(e, timestamp=data.draw(later),
                                    parent_id=data.draw(st.sampled_from(placed)),
                                    **data.draw(details))
        log.append(e)
        placed.append(e.node_id)
    for i in range(data.draw(st.integers(0, 5))):
        log.append(event(tree.cascade_id, f"new{i}", data.draw(later),
                         data.draw(st.sampled_from(placed)), **data.draw(details)))
        placed.append(f"new{i}")
    changed = build_cascade(data.draw(st.permutations(log)))
    assert changed.events[: k + 1] == tree.events[: k + 1]
    expected = extract_features(tree, k, graph=graph, content=content).row
    assert extract_features(changed, k, graph=graph, content=content).row == expected
    assert extract_features(prefix(tree, k), k, graph=graph, content=content).row == expected
