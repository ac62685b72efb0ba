import dataclasses

import numpy as np
import pytest

from cascadekit.errors import (
    EmptyDatasetError,
    KExceedsRError,
    NoQualifyingClustersError,
    SingleClassError,
    UnknownFieldError,
)
from cascadekit.features import ContentRecord
from cascadekit.stats import median
from cascadekit.synth import sample_powerlaw_sizes
from cascadekit.tasks import (
    CascadeRecord,
    build_cluster_task,
    group_summaries,
    label_growth,
    label_growth_fixed_R,
    label_structure,
    rank_single_feature_predictors,
)
from cascadekit.virality import wiener_index_exact

from conftest import path_tree, random_tree, star_tree


def records_with_sizes(sizes, content=None, prefix_id="c"):
    """One star cascade per requested final size."""
    out = []
    for i, s in enumerate(sizes):
        tree = star_tree(int(s), cascade_id=f"{prefix_id}{i:04d}")
        out.append(CascadeRecord(tree=tree, content=content))
    return out


class TestMedian:
    def test_odd(self):
        assert median([6, 8, 10, 14, 30]) == 10

    def test_even_midpoint(self):
        assert median([6, 7, 12, 20]) == 9.5

    def test_doubling_on_heavy_tail_sizes(self):
        draws = sample_powerlaw_sizes(2.0, 1.0, 100_000, seed=5)
        sizes = np.maximum(1, draws.astype(np.int64))
        for k in (5, 10, 25):
            f_k = median(sizes[sizes >= k].tolist())
            assert abs(f_k - 2 * k) / (2 * k) <= 0.1


class TestLabelGrowth:
    def test_median_and_labels(self):
        ds = label_growth(records_with_sizes([6, 8, 10, 14, 30]), k=5)
        assert ds.threshold == 10
        by_size = dict(zip(ds.final_sizes, ds.y))
        assert by_size == {6: 0, 8: 0, 10: 1, 14: 1, 30: 1}

    def test_even_count_exactly_balanced(self):
        ds = label_growth(records_with_sizes([6, 7, 12, 20]), k=5)
        assert ds.threshold == 9.5
        labels = sorted(ds.y)
        assert labels == [0, 0, 1, 1]

    def test_all_equal_sizes_warns_all_positive(self):
        with pytest.warns(UserWarning, match="degenerate"):
            ds = label_growth(records_with_sizes([7, 7, 7, 7]), k=5)
        assert all(ds.y == 1)

    def test_balance_on_distinct_sizes(self, rng):
        for n in (11, 50, 101, 200):
            sizes = rng.choice(np.arange(5, 600), size=n, replace=False)
            ds = label_growth(records_with_sizes(sizes), k=5)
            positive = sum(ds.y) / n
            assert 0.5 <= positive <= 0.5 + 1.0 / n

    def test_filters_below_k(self):
        ds = label_growth(records_with_sizes([3, 6, 8, 10]), k=5)
        assert len(ds.examples) == 3
        assert ds.metadata["n_retained"] == 3

    def test_features_at_prefix_k(self):
        ds = label_growth(records_with_sizes([5, 9, 30]), k=5)
        assert ds.k == 5
        assert ds.X.shape == (len(ds.examples), len(ds.columns))
        assert "time_to_5" in ds.columns
        assert "time_to_6" not in ds.columns

    def test_empty(self):
        with pytest.raises(EmptyDatasetError):
            label_growth(records_with_sizes([2, 3]), k=5)

    def test_quartiles_exactly_balanced(self, rng):
        sizes = rng.choice(np.arange(5, 900), size=103, replace=False)
        ds = label_growth(records_with_sizes(sizes), k=5, quartiles=True)
        labels = list(ds.y)
        assert len(labels) == 2 * (103 // 4)
        assert sum(labels) == len(labels) // 2
        # top-quartile examples are all larger than bottom-quartile ones
        top = {s for s, label in zip(ds.final_sizes, ds.y) if label == 1}
        bottom = {s for s, label in zip(ds.final_sizes, ds.y) if label == 0}
        assert min(top) > max(bottom)


class TestLabelGrowthFixedR:
    def test_k_exceeds_R(self):
        with pytest.raises(KExceedsRError):
            label_growth_fixed_R(records_with_sizes([10, 20]), k=8, R=5)

    def test_median_over_R_population(self):
        # Only sizes >= 12 are retained regardless of the small window.
        ds = label_growth_fixed_R(
            records_with_sizes([6, 8, 12, 18, 20, 40]), k=5, R=12
        )
        assert ds.metadata["n_retained"] == 4
        assert ds.threshold == 19.0
        assert sorted(ds.y) == [0, 0, 1, 1]

    def test_k_equal_R_matches_plain_growth_on_subset(self):
        sizes = [7, 9, 11, 13, 15, 17]
        subset = [s for s in sizes if s >= 7]
        fixed = label_growth_fixed_R(records_with_sizes(sizes), k=7, R=7)
        plain = label_growth(records_with_sizes(subset), k=7)
        assert fixed.threshold == plain.threshold
        assert list(fixed.y) == list(plain.y)


class TestLabelStructure:
    def test_star_vs_path(self):
        star = CascadeRecord(tree=star_tree(3, cascade_id="a"))
        path = CascadeRecord(tree=path_tree(3, cascade_id="b"))
        assert wiener_index_exact(star.tree) == 1.5
        ds = label_structure([star, path], k=3)
        by_id = dict(zip(ds.examples, ds.y))
        assert by_id == {"a": 0, "b": 1}

    def test_single_cascade_labeled_positive_with_warning(self):
        with pytest.warns(UserWarning):
            ds = label_structure([CascadeRecord(tree=star_tree(4))], k=3)
        assert ds.y[0] == 1

    def test_identical_trees_all_positive(self):
        records = [
            CascadeRecord(tree=star_tree(4, cascade_id=f"c{i}")) for i in range(4)
        ]
        with pytest.warns(UserWarning):
            ds = label_structure(records, k=4)
        assert all(ds.y == 1)


def clustered_records(rng, n_clusters=3, members=12, k=4):
    records = []
    for c in range(n_clusters):
        for i in range(members):
            size = int(rng.integers(k, 40))
            tree = random_tree(rng, size + 1, cascade_id=f"c{c}m{i:02d}")
            content = ContentRecord(cluster_id=f"cl{c}")
            records.append(CascadeRecord(tree=tree, content=content))
    return records


class TestClusterTask:
    def test_cluster_of_exactly_m_uses_all(self, rng):
        records = clustered_records(rng, n_clusters=1, members=10)
        for seed in (0, 1, 99):
            instances = build_cluster_task(records, k=4, m=10, seed=seed)
            assert len(instances) == 1
            assert set(instances[0].members) == {
                r.cascade_id for r in records
            }

    def test_small_clusters_filtered(self, rng):
        records = clustered_records(rng, n_clusters=1, members=12)
        records += clustered_records(rng, n_clusters=1, members=9, k=4)[:9]
        # Rebuild second cluster under a different id with only 9 members.
        relabeled = []
        for i, r in enumerate(records[12:]):
            relabeled.append(
                CascadeRecord(
                    tree=r.tree, content=ContentRecord(cluster_id="small")
                )
            )
        instances = build_cluster_task(records[:12] + relabeled, k=4, m=10, seed=0)
        assert [inst.cluster_id for inst in instances] == ["cl0"]

    def test_deterministic_given_seed(self, rng):
        records = clustered_records(rng, n_clusters=4, members=15)
        a = build_cluster_task(records, k=4, m=10, seed=7)
        b = build_cluster_task(records, k=4, m=10, seed=7)
        assert [inst.members for inst in a] == [inst.members for inst in b]
        assert [inst.winner_index for inst in a] == [inst.winner_index for inst in b]

    def test_winner_is_largest(self, rng):
        records = clustered_records(rng, n_clusters=2, members=11)
        for inst in build_cluster_task(records, k=4, m=10, seed=3):
            sizes = inst.final_sizes
            assert sizes[inst.winner_index] == max(sizes)

    def test_tiebreak_earlier_epoch_then_id(self):
        records = []
        for i, (epoch, cid) in enumerate(
            [(50.0, "late"), (10.0, "early"), (10.0, "early2")]
        ):
            tree = star_tree(6, cascade_id=cid)
            tree = dataclasses.replace(tree, epoch=epoch)
            records.append(
                CascadeRecord(tree=tree, content=ContentRecord(cluster_id="x"))
            )
        instances = build_cluster_task(records, k=4, m=3, seed=0)
        winner = instances[0].members[instances[0].winner_index]
        assert winner == "early"

    def test_no_qualifying(self, rng):
        records = clustered_records(rng, n_clusters=1, members=5)
        with pytest.raises(NoQualifyingClustersError):
            build_cluster_task(records, k=4, m=10, seed=0)


class TestGroupSummaries:
    def test_two_groups(self):
        records = records_with_sizes([2, 4], content=ContentRecord(category="A"))
        records += records_with_sizes([6], content=ContentRecord(category="B"), prefix_id="d")
        rows = group_summaries(records, "category")
        assert [(r.group, r.count, r.mean_final_size) for r in rows] == [
            ("A", 2, 3.0),
            ("B", 1, 6.0),
        ]

    def test_single_group_equals_global_means(self):
        records = records_with_sizes([3, 5, 7], content=ContentRecord(category="only"))
        rows = group_summaries(records, "category")
        assert len(rows) == 1
        assert rows[0].mean_final_size == 5.0
        expected = np.mean([wiener_index_exact(r.tree) for r in records])
        assert rows[0].mean_wiener == pytest.approx(float(expected))

    def test_root_type_grouping(self):
        records = records_with_sizes([4, 6])
        rows = group_summaries(records, "root_type")
        assert rows[0].group == "user"
        assert rows[0].count == 2

    def test_unknown_field(self):
        records = records_with_sizes([4])
        with pytest.raises(UnknownFieldError):
            group_summaries(records, "no_such_field")

    def test_field_absent_everywhere(self):
        records = records_with_sizes([4, 5], content=ContentRecord())
        with pytest.raises(UnknownFieldError):
            group_summaries(records, "category")


class TestRankSingleFeatures:
    def _dataset(self, rng, n=80):
        sizes = rng.choice(np.arange(5, 500), size=n, replace=False)
        ds = label_growth(records_with_sizes(sizes), k=5)
        return ds.X, ds.y, np.array(ds.final_sizes), ds.columns

    def test_label_leak_feature_tops_ranking(self, rng):
        X, y, sizes, columns = self._dataset(rng)
        X[:, columns.index("score_closeup")] = y  # implant a perfect predictor
        rows = rank_single_feature_predictors(X, y, sizes, columns, folds=5, seed=0)
        assert rows[0].feature == "score_closeup"
        assert rows[0].accuracy == 1.0

    def test_noise_feature_near_chance(self, rng):
        rows = rank_single_feature_predictors(
            *self._dataset(rng, n=200), folds=5, seed=0
        )
        by_name = {r.feature: r for r in rows}
        # Content scores are absent here, hence constant zero: majority rate.
        assert by_name["score_water"].accuracy <= 0.56
        assert np.isnan(by_name["score_water"].pearson_with_log_size)

    def test_requires_both_classes(self, rng):
        X, y, sizes, columns = self._dataset(rng)
        pos = y == 1
        with pytest.raises(SingleClassError):
            rank_single_feature_predictors(
                X[pos], y[pos], sizes[pos], columns, folds=5, seed=0
            )

    def test_sorted_by_accuracy_then_name(self, rng):
        rows = rank_single_feature_predictors(*self._dataset(rng), folds=5, seed=0)
        keys = [(-r.accuracy, r.feature) for r in rows]
        assert keys == sorted(keys)
