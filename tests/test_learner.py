import hashlib
import math
from array import array

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cascadekit.errors import (
    BadArgumentError,
    EmptyInputError,
    MissingFeatureError,
    NonFiniteInputError,
    SingleClassError,
    TooFewExamplesError,
)
from cascadekit import io, learner
from cascadekit.learner import (
    Model,
    _data_loss,
    _gradient,
    _sigmoid,
    auc,
    cross_validate,
    evaluate_cluster,
    f1,
    loss_and_gradient,
    mrr,
    predict_proba,
    stratified_folds,
    train,
)
from cascadekit.tasks import ClusterInstance
from cascadekit.features import FeatureVector, layout_columns


def separable_1d(rng, n=200, gap=3.0):
    x = np.concatenate([rng.normal(-gap, 0.5, n // 2), rng.normal(gap, 0.5, n // 2)])
    y = np.array([0.0] * (n // 2) + [1.0] * (n // 2))
    return x.reshape(-1, 1), y


class TestTrain:
    def test_separable_training_accuracy(self, rng):
        X, y = separable_1d(rng)
        model = train(X, y, lam=0.01)
        scores = np.array([predict_proba(model, row) for row in X])
        assert np.mean((scores >= 0.5) == y) == 1.0
        # and every training point sits on its own side of 0.5
        assert np.all((scores >= 0.5) == (y == 1))

    def test_stopping_contract(self, rng):
        X, y = separable_1d(rng, n=60)
        model = train(X, y)
        assert model.converged or model.iterations == 10_000

    def test_random_labels_near_chance(self, rng):
        X = rng.normal(size=(10_000, 3))
        y = (rng.random(10_000) < 0.5).astype(float)
        metrics = cross_validate(X, y, folds=10, lam=0.01, seed=0)
        assert 0.47 <= metrics.accuracy <= 0.53

    def test_single_class_rejected(self, rng):
        X = rng.normal(size=(10, 2))
        with pytest.raises(SingleClassError):
            train(X, np.ones(10))

    def test_non_finite_rejected(self):
        X = np.array([[1.0], [np.nan]])
        with pytest.raises(NonFiniteInputError):
            train(X, np.array([0.0, 1.0]))

    def test_zero_variance_columns_dropped_and_recorded(self, rng):
        X, y = separable_1d(rng, n=40)
        X = np.hstack([X, np.full((40, 1), 7.0)])
        model = train(X, y, feature_names=["signal", "constant"])
        assert model.dropped == ("constant",)
        assert model.feature_names == ("signal",)
        assert all(s > 0 for s in model.stds.values())

    def test_constant_column_with_a_noisy_std_dropped(self, rng):
        # The computed mean of 0.1 repeated is not 0.1, so its std is float
        # noise, not 0.0; the column is still constant and changes nothing.
        X, y = separable_1d(rng, n=100)
        tenth = np.full((100, 1), 0.1)
        assert tenth.std() > 0.0
        model = train(np.hstack([X, tenth]), y, feature_names=["signal", "constant"])
        alone = train(X, y, feature_names=["signal"])
        assert model.dropped == ("constant",)
        assert model.iterations == alone.iterations
        assert model.weights["signal"] == pytest.approx(alone.weights["signal"], rel=1e-12)
        assert model.bias == pytest.approx(alone.bias, rel=1e-12)

    def test_column_whose_std_underflows_dropped(self, rng):
        X, y = separable_1d(rng, n=40)
        tiny = np.array([[0.0], [1e-320]] * 20)
        assert tiny.std() == 0.0
        model = train(np.hstack([X, tiny]), y, feature_names=["signal", "tiny"])
        assert model.dropped == ("tiny",)

    @pytest.mark.filterwarnings("error")
    def test_column_whose_mean_or_std_overflows_dropped(self, rng):
        X, y = separable_1d(rng, n=40)
        wide = np.array([[1e300]] * 5 + [[100.0]] * 35)  # its squares overflow
        huge = np.array([[1e308], [1.5e308]] * 20)  # its sum overflows
        model = train(np.hstack([X, wide, huge]), y, feature_names=["signal", "wide", "huge"])
        alone = train(X, y, feature_names=["signal"])
        assert model.dropped == ("wide", "huge")
        assert model.weights == pytest.approx(alone.weights, rel=1e-9)

    def test_deterministic_regardless_of_seed(self, rng):
        X, y = separable_1d(rng, n=100)
        a = train(X, y, seed=1)
        b = train(X, y, seed=2)
        assert a.weights == b.weights
        assert a.bias == b.bias

    def test_lambda_monotone_data_loss(self, rng):
        X = rng.normal(size=(300, 4))
        w_true = np.array([1.0, -2.0, 0.5, 0.0])
        y = (rng.random(300) < 1 / (1 + np.exp(-(X @ w_true)))).astype(float)
        losses = []
        for lam in (1.0, 0.1, 0.01):
            model = train(X, y, lam=lam)
            w = np.array([model.weights[n] for n in model.feature_names])
            mu = np.array([model.means[n] for n in model.feature_names])
            sd = np.array([model.stds[n] for n in model.feature_names])
            Xs = (X - mu) / sd
            data_loss, _, _ = loss_and_gradient(w, model.bias, Xs, y, 0.0)
            losses.append(data_loss)
        assert losses[0] >= losses[1] >= losses[2]


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(5, 50))
            d = int(rng.integers(1, 10))
            X = rng.normal(size=(n, d))
            y = (rng.random(n) < 0.5).astype(float)
            if np.unique(y).size < 2:
                continue
            w = rng.normal(size=d)
            b = float(rng.normal())
            lam = float(rng.random())
            _, grad_w, grad_b = loss_and_gradient(w, b, X, y, lam)
            eps = 1e-6
            for j in range(d):
                wp, wm = w.copy(), w.copy()
                wp[j] += eps
                wm[j] -= eps
                numeric = (
                    loss_and_gradient(wp, b, X, y, lam)[0]
                    - loss_and_gradient(wm, b, X, y, lam)[0]
                ) / (2 * eps)
                assert abs(numeric - grad_w[j]) / max(abs(grad_w[j]), 1e-8) < 1e-5
            numeric_b = (
                loss_and_gradient(w, b + eps, X, y, lam)[0]
                - loss_and_gradient(w, b - eps, X, y, lam)[0]
            ) / (2 * eps)
            assert abs(numeric_b - grad_b) / max(abs(grad_b), 1e-8) < 1e-5


class TestPredictProba:
    def test_zero_model_gives_half(self):
        model = Model(
            feature_names=("a",),
            weights={"a": 0.0},
            bias=0.0,
            means={"a": 0.0},
            stds={"a": 1.0},
            dropped=(),
            lam=0.01,
            seed=0,
            iterations=0,
            final_loss=0.0,
            converged=True,
        )
        assert predict_proba(model, {"a": 3.0}) == 0.5

    def test_large_bias_saturates(self):
        model = Model(
            feature_names=(),
            weights={},
            bias=50.0,
            means={},
            stds={},
            dropped=(),
            lam=0.01,
            seed=0,
            iterations=0,
            final_loss=0.0,
            converged=True,
        )
        assert predict_proba(model, {}) > 0.999

    def test_missing_feature(self):
        model = Model(
            feature_names=("a", "b"),
            weights={"a": 1.0, "b": 1.0},
            bias=0.0,
            means={"a": 0.0, "b": 0.0},
            stds={"a": 1.0, "b": 1.0},
            dropped=(),
            lam=0.01,
            seed=0,
            iterations=0,
            final_loss=0.0,
            converged=True,
        )
        with pytest.raises(MissingFeatureError):
            predict_proba(model, {"a": 1.0})

    def test_feature_vector_missing_indicators_available(self, rng):
        # A model trained with indicator columns scores a vector's layout row.
        names = ["x"]
        raws = []
        labels = []
        for i in range(40):
            missing = i % 4 == 0
            raws.append({"x": None if missing else float(rng.normal())})
            labels.append(1.0 if (not missing and raws[-1]["x"] > 0) else 0.0)
        vectors = [FeatureVector(names, raw) for raw in raws]
        X = np.array([v.row for v in vectors])
        model = train(X, np.array(labels), feature_names=["x", "x_missing"])
        columns = layout_columns(vectors[1].names)
        p = predict_proba(model, dict(zip(columns, vectors[1].row)))
        assert 0.0 <= p <= 1.0


class TestCrossValidate:
    def test_separable_perfect(self, rng):
        X, y = separable_1d(rng, n=120, gap=4.0)
        metrics = cross_validate(X, y, folds=10, seed=0)
        assert metrics.accuracy == 1.0
        assert metrics.auc == 1.0
        assert sum(metrics.fold_sizes) == 120

    def test_label_permutation_null(self, rng):
        X, y = separable_1d(rng, n=5000, gap=2.0)
        y_perm = y[rng.permutation(y.size)]
        metrics = cross_validate(X, y_perm, folds=10, seed=0)
        assert 0.47 <= metrics.auc <= 0.53

    def test_same_seed_bit_identical(self, rng):
        X = rng.normal(size=(200, 5))
        y = (rng.random(200) < 0.5).astype(float)
        a = cross_validate(X, y, folds=10, seed=9)
        b = cross_validate(X, y, folds=10, seed=9)
        assert a == b

    def test_standardization_absorbs_column_scale(self, rng):
        X = rng.normal(size=(150, 3))
        w_true = np.array([2.0, -1.0, 0.3])
        y = (rng.random(150) < 1 / (1 + np.exp(-(X @ w_true)))).astype(float)
        base = cross_validate(X, y, folds=5, seed=2)
        scaled = X.copy()
        scaled[:, 1] *= 4.0  # power of two: z-scores identical bit for bit
        again = cross_validate(scaled, y, folds=5, seed=2)
        assert base == again

    def test_too_few_examples(self, rng):
        X = rng.normal(size=(5, 2))
        y = np.array([0, 1, 0, 1, 0], dtype=float)
        with pytest.raises(TooFewExamplesError):
            cross_validate(X, y, folds=10)

    @pytest.mark.parametrize("folds", [2, 10])
    def test_class_of_one_example_refused_before_any_fit(self, rng, monkeypatch, folds):
        X = rng.normal(size=(30, 2))
        y = np.array([1.0] + [0.0] * 29)
        fits = []
        monkeypatch.setattr("cascadekit.learner.train", lambda *a, **kw: fits.append(a))
        with pytest.raises(
            SingleClassError,
            match="class 1 has 1 example; cross-validation needs >= 2 of each class",
        ):
            cross_validate(X, y, folds=folds)
        assert fits == []

    def test_rows_of_x_and_y_must_match(self, rng):
        X = rng.normal(size=(10, 2))
        y = np.array([0.0, 1.0] * 6)
        with pytest.raises(BadArgumentError, match="X has 10 rows but y has 12"):
            cross_validate(X, y, folds=2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", range(5))
    def test_row_far_outside_its_training_range_scores_without_warning(self, seed):
        # Held out, 1e308 standardizes to inf: its margin saturates, and
        # nothing warns of the overflow.
        X = np.array([[0.0], [0.5], [1.0], [1.5], [0.2], [0.7], [1.2], [1e308]])
        y = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        metrics = cross_validate(X, y, folds=2, seed=seed)
        assert all(np.isfinite([metrics.accuracy, metrics.f1, metrics.auc]))

    @pytest.mark.parametrize("ids, name", [
        (None, "held-out row 7"), ([f"c{i}" for i in range(8)], "held-out cascade 'c7'"),
    ])
    def test_nan_margin_names_its_held_out_row(self, ids, name):
        # Row 7 standardizes to +inf in one column and -inf in the other,
        # both weighted up: its margin is inf - inf.
        X = np.array([[0.0, 0.0], [0.1, 0.2], [0.2, 0.1], [0.3, 0.3],
                      [1.0, 1.1], [1.1, 1.0], [1.2, 1.2], [1e308, -1e308]])
        y = np.array([0.0] * 4 + [1.0] * 4)
        with pytest.raises(NonFiniteInputError, match=(
            f"^the model scores {name} as NaN: its margin overflows$"
        )):
            cross_validate(X, y, folds=2, seed=0, ids=ids)

    def test_stratified_assignment_balance(self, rng):
        y = np.array([1.0] * 30 + [0.0] * 70)
        assignment = stratified_folds(y, 10, seed=4)
        for fold in range(10):
            fold_labels = y[assignment == fold]
            assert np.sum(fold_labels == 1) == 3
            assert np.sum(fold_labels == 0) == 7


class TestAuc:
    def test_perfect(self):
        assert auc([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_all_ties(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_half(self):
        assert auc([0.8, 0.6, 0.4], [1, 0, 1]) == 0.5

    def test_monotone_transform_invariance(self, rng):
        scores = rng.random(100)
        labels = (rng.random(100) < 0.4).astype(float)
        base = auc(scores, labels)
        assert auc(np.exp(5 * scores), labels) == base
        assert auc(2 * scores - 1, labels) == base

    def test_single_class(self):
        with pytest.raises(SingleClassError):
            auc([0.3, 0.4], [1, 1])


# Column values: any finite float in a range the fit handles, and values
# whose columns are constant with a nonzero computed std (0.1, 0.7) or not
# constant with a std that underflows (1e-320 next to 0.0).
COLUMN_VALUES = st.floats(-1e6, 1e6) | st.sampled_from([0.1, 0.7, 0.0, -0.0, 1e-320])


@st.composite
def columns_and_labels(draw):
    n = draw(st.integers(4, 12))
    columns = draw(st.lists(
        st.lists(COLUMN_VALUES, min_size=n, max_size=n)
        | COLUMN_VALUES.map(lambda v: [v] * n),
        min_size=1, max_size=4,
    ))
    return np.array(columns).T, np.array([0.0, 1.0] * (n // 2) + [1.0] * (n % 2))


@given(problem=columns_and_labels())
def test_train_drops_exactly_the_constant_columns(problem):
    """A column is dropped when all its values are equal or its std (as
    train computes it) is 0.0; every other column is kept."""
    X, y = problem
    names = [f"c{j}" for j in range(X.shape[1])]
    stds = X.std(axis=0)
    dropped = tuple(
        name for j, name in enumerate(names)
        if len(set(X[:, j].tolist())) == 1 or stds[j] == 0.0
    )
    model = train(X, y, lam=1.0, feature_names=names)
    assert model.dropped == dropped
    assert model.feature_names == tuple(n for n in names if n not in dropped)
    assert all(s > 0.0 for s in model.stds.values())


# Column values of every magnitude a float holds, from the smallest
# subnormal to the largest powers of ten, of either sign.
EXTREME_VALUES = st.floats(-1e308, 1e308) | st.sampled_from(
    [5e-324, -5e-324, 1e-300, 1e300, -1e300, 1e308, -1e308]
)


@pytest.mark.filterwarnings("error")
@settings(max_examples=60, deadline=None)
@given(
    columns=st.lists(st.lists(EXTREME_VALUES, min_size=6, max_size=6), min_size=1,
                     max_size=3),
    lam=st.sampled_from([0.0, 0.01, 1.0]),
)
def test_model_of_extreme_columns_reads_back_equal(tmp_path_factory, columns, lam):
    """Whatever the magnitudes of its columns, train warns of nothing and
    writes a model that read_model reads back to an equal Model: a column
    whose mean or std is not finite is dropped."""
    X = np.array(columns).T
    model = train(X, np.array([0.0, 1.0] * 3), lam=lam,
                  feature_names=[f"c{j}" for j in range(X.shape[1])])
    path = tmp_path_factory.mktemp("model") / "model.txt"
    io.write_model(path, model)
    assert io.read_model(path) == model


# Small integer scores tie often; the floats cover distinct scores.
SCORED = st.tuples(st.integers(-3, 3).map(float) | st.floats(-1e6, 1e6), st.booleans())


@given(st.lists(SCORED, min_size=2).filter(lambda rows: len({y for _, y in rows}) == 2))
def test_auc_is_the_pairwise_comparison_rate(rows):
    """AUC is the share of (positive, negative) pairs the scores order
    correctly, a tied pair counting one half."""
    positives = [s for s, y in rows if y]
    negatives = [s for s, y in rows if not y]
    wins = sum((p > n) + 0.5 * (p == n) for p in positives for n in negatives)
    expected = wins / (len(positives) * len(negatives))
    scores, labels = zip(*rows)
    assert auc(scores, [float(y) for y in labels]) == pytest.approx(expected, abs=1e-12)


class TestF1:
    def test_perfect(self):
        assert f1([1, 0, 1], [1, 0, 1]) == 1.0

    def test_half(self):
        assert f1([1, 1, 0], [1, 0, 1]) == 0.5

    def test_no_predicted_positives(self):
        assert f1([0, 0, 0], [1, 0, 1]) == 0.0

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            f1([], [])


class TestMrr:
    def test_all_first(self):
        assert mrr([1, 1, 1]) == 1.0

    def test_all_second(self):
        assert mrr([2, 2]) == 0.5

    def test_mixed(self):
        assert mrr([1, 2, 4]) == pytest.approx(7 / 12, abs=1e-12)

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            mrr([])


def _instance(cluster_id, member_values, winner_index):
    n = len(member_values)
    return ClusterInstance(
        cluster_id,
        members=tuple(f"{cluster_id}m{i}" for i in range(n)),
        final_sizes=tuple(10 if i == winner_index else 5 for i in range(n)),
        rows=array("d", [c for v in member_values for c in (v, 0.0)]),
        columns=["x", "x_missing"],
        winner_index=winner_index,
    )


def _model_weight_on_x(weight):
    return Model(
        feature_names=("x",),
        weights={"x": weight},
        bias=0.0,
        means={"x": 0.0},
        stds={"x": 1.0},
        dropped=("x_missing",),
        lam=0.01,
        seed=0,
        iterations=1,
        final_loss=0.0,
        converged=True,
    )


class TestEvaluateCluster:
    def test_winner_scored_highest(self):
        instances = [
            _instance("a", [0.1, 0.9, 0.2], 1),
            _instance("b", [0.8, 0.3, 0.1], 0),
        ]
        top1, mean_rr = evaluate_cluster(_model_weight_on_x(1.0), instances)
        assert top1 == 1.0
        assert mean_rr == 1.0

    def test_winner_always_second(self):
        instances = [
            _instance("a", [0.9, 0.5, 0.1], 1),
            _instance("b", [0.9, 0.5, 0.1], 1),
        ]
        top1, mean_rr = evaluate_cluster(_model_weight_on_x(1.0), instances)
        assert top1 == 0.0
        assert mean_rr == 0.5

    def test_constant_scores_fall_back_to_id_order(self):
        # Ten members, identical scores: rank of the winner is its position
        # in cascade_id order, computed exactly.
        instances = [_instance("a", [0.5] * 10, 3)]
        top1, mean_rr = evaluate_cluster(_model_weight_on_x(0.0), instances)
        assert top1 == 0.0
        assert mean_rr == pytest.approx(1 / 4)  # ids a_m0..a_m9: winner m3 is 4th

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            evaluate_cluster(_model_weight_on_x(1.0), [])


def _model(weights, means=None, stds=None, bias=0.0):
    names = tuple(weights)
    return Model(
        feature_names=names,
        weights=dict(weights),
        bias=bias,
        means=means or dict.fromkeys(names, 0.0),
        stds=stds or dict.fromkeys(names, 1.0),
        dropped=(),
        lam=0.01,
        seed=0,
        iterations=1,
        final_loss=0.0,
        converged=True,
    )


def _scores(model, row):
    return learner._score_rows(model, row, model.feature_names, 1, lambda i: f"row {i}")


class TestScoreRows:
    def test_infinite_margin_saturates(self):
        model = _model({"a": 1.0, "b": 1.0})
        assert _scores(model, [1e308, 1e308]) == [1.0]  # fsum overflows
        assert _scores(model, [-1e308, -1e308]) == [0.0]
        assert _scores(_model({"a": 1.0}, stds={"a": 5e-324}), [1.0]) == [1.0]

    def test_margin_is_the_exact_sum_of_its_terms(self):
        # Partial sums overflow, the exact sum is 0.5, in any order.
        model = _model(dict.fromkeys("abcde", 1.0))
        for row in ([1e308, 1e308, -1e308, -1e308, 0.5],
                    [0.5, -1e308, 1e308, -1e308, 1e308]):
            assert _scores(model, row) == [1.0 / (1.0 + math.exp(-0.5))]

    @pytest.mark.parametrize("model, row", [
        (_model({"a": 0.0}, stds={"a": 5e-324}), [1.0]),  # inf * 0
        (_model({"a": 1.0, "b": 1.0}), [np.inf, -np.inf]),  # inf - inf
        (_model(dict.fromkeys("abcd", 1.0)), [np.inf, 1e308, 1e308, -np.inf]),
    ])
    def test_nan_margin_is_an_error_naming_its_row(self, model, row):
        with pytest.raises(NonFiniteInputError, match=r"^the model scores row 0 as NaN"):
            _scores(model, row)

    def test_model_without_features_scores_every_row_by_its_bias(self):
        model = _model({}, bias=2.0)
        assert learner._score_rows(model, [], [], 3, str) == [1.0 / (1.0 + math.exp(-2.0))] * 3


@st.composite
def scoring_problems(draw):
    """A model over some of a matrix's columns, in any order, and the
    matrix; terms stay within 100 in magnitude, so summation order moves a
    margin by far less than 1e-12."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 8))
    values = st.floats(-10.0, 10.0)
    X = np.array(draw(st.lists(st.lists(values, min_size=d, max_size=d),
                               min_size=n, max_size=n)))
    columns = [f"c{j}" for j in range(d)]
    names = draw(st.permutations(columns))[: draw(st.integers(0, d))]
    model = _model(
        {name: draw(st.floats(-2.5, 2.5)) for name in names},
        means={name: draw(values) for name in names},
        stds={name: draw(st.floats(0.5, 10.0)) for name in names},
        bias=draw(st.floats(-5.0, 5.0)),
    )
    return model, X, columns


@given(problem=scoring_problems())
def test_score_rows_agrees_with_the_matrix_form(problem):
    model, X, columns = problem
    names = model.feature_names
    cols = [columns.index(name) for name in names]
    mu = np.array([model.means[name] for name in names])
    sd = np.array([model.stds[name] for name in names])
    w = np.array([model.weights[name] for name in names])
    expected = _sigmoid(((X[:, cols] - mu) / sd) @ w + model.bias)
    scores = learner._score_rows(model, array("d", X.ravel()), columns, len(X), str)
    assert len(scores) == len(X)
    for got, want in zip(scores, expected):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    for i in range(len(X)):
        for j in range(len(X)):
            if abs(expected[i] - expected[j]) > 1e-9:
                assert (scores[i] > scores[j]) == (expected[i] > expected[j])


# The masked and ``np.mean`` forms the fit loop used before it was written
# without boolean-mask gathers; the new forms must agree bit for bit.
def _sigmoid_masked(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _data_loss_mean(z, y):
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def _gradient_mean(X, z, y, w, lam):
    residual = _sigmoid_masked(z) - y
    return X.T @ residual / X.shape[0] + lam * w, float(np.mean(residual))


EDGE_MARGINS = [0.0, -0.0, 709.0, -709.0, 745.0, -745.0, 1e308, -1e308]
MARGINS = st.sampled_from(EDGE_MARGINS) | st.floats(-800, 800) | st.floats(
    allow_nan=False, allow_infinity=False
)


def _bits(x):
    return np.asarray(x).tobytes()


@given(
    z=st.lists(MARGINS, min_size=1, max_size=40),
    data=st.data(),
)
def test_fit_loop_forms_equal_masked_forms_bit_for_bit(z, data):
    z = np.array(z)
    n = z.size
    y = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    d = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    lam = data.draw(st.sampled_from([0.0, 0.01, 1.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bits(_sigmoid(z)) == _bits(_sigmoid_masked(z))
        assert _bits(_data_loss(z, y)) == _bits(_data_loss_mean(z, y))
        (gw, gb), (rw, rb) = _gradient(X, z, y, w, lam), _gradient_mean(X, z, y, w, lam)
    assert _bits(gw) == _bits(rw)
    assert _bits(gb) == _bits(rb)


def test_fit_loop_forms_on_random_arrays(rng):
    """Lengths past numpy's 128-element pairwise-sum blocks and SIMD widths."""
    for n in (1, 7, 64, 1000, 4097):
        z = rng.normal(scale=30.0, size=n)
        z[: len(EDGE_MARGINS)] = EDGE_MARGINS[:n]
        y = (rng.random(n) < 0.5).astype(float)
        X = rng.normal(size=(n, 5))
        w = rng.normal(size=5)
        with np.errstate(over="ignore", invalid="ignore"):
            assert _bits(_sigmoid(z)) == _bits(_sigmoid_masked(z))
            assert _bits(_data_loss(z, y)) == _bits(_data_loss_mean(z, y))
            gw, gb = _gradient(X, z, y, w, 0.01)
            rw, rb = _gradient_mean(X, z, y, w, 0.01)
        assert _bits(gw) == _bits(rw) and _bits(gb) == _bits(rb)


# sha256 of write_model(train(...)) on golden_matrix(), recorded before the
# fit loop dropped its masked gathers: the fit path must stay byte-identical.
GOLDEN_MODEL_DIGESTS = {
    0.01: (22, "9c922e30c65a86b2d9ddfa4c4b43fddb17c8214251b87afa9640cec39fb29f01"),
    0.001: (126, "eeecc1fd8f39b758dabeb0ed3d52e27a16f6fa5f7c8920c27d05e8fd4476dd20"),
}


def golden_matrix():
    """400 rows with a constant, a heavy-tailed and a near-duplicate column."""
    rng = np.random.default_rng(2014)
    X = rng.normal(size=(400, 10))
    X[:, 3] = 1.0
    X[:, 7] = rng.pareto(1.2, size=400)
    X[:, 8] = X[:, 0] + 0.01 * X[:, 8]
    y = (3 * X[:, 0] - 2 * X[:, 1] + 0.3 * rng.logistic(size=400) > 0).astype(float)
    return X, y


@pytest.mark.parametrize("lam", sorted(GOLDEN_MODEL_DIGESTS))
def test_train_golden_model_digest(tmp_path, lam):
    X, y = golden_matrix()
    model = train(X, y, lam=lam)
    io.write_model(tmp_path / "model.txt", model)
    digest = hashlib.sha256((tmp_path / "model.txt").read_bytes()).hexdigest()
    assert (model.iterations, digest) == GOLDEN_MODEL_DIGESTS[lam]


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(st.sampled_from([0.0, 1.0]), min_size=4, max_size=40),
    folds=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_folds_are_stratified_and_disjoint(labels, folds, seed):
    """Every row is in exactly one fold, each class is dealt evenly across the
    folds, and each fit of cross_validate sees exactly the rows outside its
    fold."""
    y = np.array(labels)
    assume(len(y) >= folds and min(np.count_nonzero(y == 0), np.count_nonzero(y)) >= 2)
    n = len(y)
    assignment = stratified_folds(y, folds, seed)
    members = [np.flatnonzero(assignment == f) for f in range(folds)]
    assert np.array_equal(np.sort(np.concatenate(members)), np.arange(n))
    for cls in (0.0, 1.0):
        counts = np.bincount(assignment[y == cls], minlength=folds)
        assert counts.size == folds and counts.max() - counts.min() <= 1

    # Column 0 names each row, so a fit's rows can be read off its matrix.
    X = np.column_stack([np.arange(n, dtype=float),
                         np.random.default_rng(seed).normal(size=n)])
    fits = []

    def recording_train(X_fit, y_fit, **kwargs):
        fits.append((X_fit[:, 0].astype(int), y_fit))
        return train(X_fit, y_fit, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(learner, "train", recording_train)
        metrics = cross_validate(X, y, folds=folds, seed=seed)
    held_out = [rows for rows in members if rows.size]
    assert len(fits) == len(held_out) == len(metrics.fold_sizes)
    for (rows, y_fit), test_rows, size in zip(fits, held_out, metrics.fold_sizes):
        assert np.array_equal(rows, np.setdiff1d(np.arange(n), test_rows))
        assert np.array_equal(y_fit, y[rows])
        assert size == test_rows.size
