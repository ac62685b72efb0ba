"""Regularized logistic regression, written out, plus evaluation metrics.

Training standardizes features internally, drops zero-variance columns, and
minimizes mean logistic loss + (lambda/2)||w||^2 by deterministic full-batch
gradient descent with Armijo backtracking. The seed never touches the
optimizer; it only drives cross-validation fold assignment, so fits are
reproducible by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BadArgumentError,
    EmptyInputError,
    MissingFeatureError,
    NonFiniteInputError,
    SingleClassError,
    TooFewExamplesError,
)

DEFAULT_LAMBDA = 0.01
GRAD_TOL = 1e-6
MAX_ITER = 10_000


@dataclass
class Model:
    """A fitted classifier: weights over named, standardized features."""

    feature_names: tuple[str, ...]
    weights: dict[str, float]
    bias: float
    means: dict[str, float]
    stds: dict[str, float]
    dropped: tuple[str, ...]
    lam: float
    seed: int
    iterations: int
    final_loss: float
    converged: bool


@dataclass
class Metrics:
    """Cross-validated accuracy, F1 and AUC with per-fold detail."""

    accuracy: float
    f1: float
    auc: float
    accuracy_sd: float
    f1_sd: float
    auc_sd: float
    fold_accuracy: tuple[float, ...]
    fold_f1: tuple[float, ...]
    fold_auc: tuple[float, ...]
    fold_sizes: tuple[int, ...]
    positive_fraction: float

    @property
    def majority_baseline(self) -> float:
        """Accuracy of always predicting the larger class."""
        return max(self.positive_fraction, 1.0 - self.positive_fraction)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) elsewhere, so neither
    # branch overflows and no boolean-mask gather is needed.
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _mean(v: np.ndarray) -> float:
    """``np.mean`` of a 1-d array (the same pairwise sum and division)
    without its Python wrapper, which the fit loop calls thousands of times."""
    return float(np.add.reduce(v)) / v.shape[0]


def _data_loss(z: np.ndarray, y: np.ndarray) -> float:
    return _mean(np.logaddexp(0.0, z) - y * z)


def _gradient(
    X: np.ndarray, z: np.ndarray, y: np.ndarray, w: np.ndarray, lam: float
) -> tuple[np.ndarray, float]:
    """Gradient in (w, b) of the regularized loss at margins ``z = X @ w + b``."""
    residual = _sigmoid(z) - y
    return X.T @ residual / X.shape[0] + lam * w, _mean(residual)


def loss_and_gradient(
    w: np.ndarray,
    b: float,
    X: np.ndarray,
    y: np.ndarray,
    lam: float,
) -> tuple[float, np.ndarray, float]:
    """Mean logistic loss + (lam/2)||w||^2 and its gradient in (w, b)."""
    z = X @ w + b
    loss = _data_loss(z, y) + 0.5 * lam * float(w @ w)
    grad_w, grad_b = _gradient(X, z, y, w, lam)
    return loss, grad_w, grad_b


def _problem(
    X: np.ndarray, y: np.ndarray, feature_names: Sequence[str] | None
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """X as a 2-d float matrix, y as the float vector of its rows' labels, and
    the names of X's columns (``f0``, ``f1``, ... when none are given)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    y = np.asarray(y, dtype=np.float64).ravel()
    if X.shape[0] != y.shape[0]:
        raise BadArgumentError(f"X has {X.shape[0]} rows but y has {y.shape[0]}")
    d = X.shape[1]
    if feature_names is None:
        return X, y, tuple(f"f{i}" for i in range(d))
    names = tuple(feature_names)
    if len(names) != d:
        raise BadArgumentError(f"{len(names)} names for {d} columns")
    return X, y, names


def train(
    X: np.ndarray,
    y: np.ndarray,
    lam: float = DEFAULT_LAMBDA,
    seed: int = 0,
    feature_names: Sequence[str] | None = None,
) -> Model:
    """Fit the classifier; deterministic for fixed inputs regardless of seed.

    Stops when the gradient max-norm falls below ``GRAD_TOL`` or after
    ``MAX_ITER`` iterations, whichever comes first; both the iteration count
    and convergence flag are recorded on the model.
    """
    if not lam >= 0:
        raise BadArgumentError(f"lambda must be >= 0, got {lam}")
    X, y, names = _problem(X, y, feature_names)
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise NonFiniteInputError("X or y contains non-finite values")
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClassError(f"labels contain a single class: {classes.tolist()}")
    if not set(classes.tolist()) <= {0.0, 1.0}:
        raise BadArgumentError(f"labels must be binary 0/1, got {classes.tolist()}")

    means = X.mean(axis=0)
    stds = X.std(axis=0)
    keep = stds > 0.0
    kept_names = tuple(n for n, flag in zip(names, keep) if flag)
    dropped = tuple(n for n, flag in zip(names, keep) if not flag)
    Xs = (X[:, keep] - means[keep]) / stds[keep]
    Xs = np.ascontiguousarray(Xs)

    w = np.zeros(Xs.shape[1])
    b = 0.0
    z = np.zeros(Xs.shape[0])
    lam = float(lam)
    loss = _data_loss(z, y)  # w = 0, so no penalty term yet
    step = 1.0
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITER + 1):
        grad_w, grad_b = _gradient(Xs, z, y, w, lam)
        grad_inf = max(
            float(np.abs(grad_w).max()) if grad_w.size else 0.0, abs(grad_b)
        )
        if grad_inf < GRAD_TOL:
            converged = True
            iterations -= 1
            break

        # One matvec per iteration: trial points along -grad reuse z and u.
        u = Xs @ grad_w + grad_b
        g_sq = float(grad_w @ grad_w)
        grad_sq = g_sq + grad_b**2
        w_dot_g = float(w @ grad_w)
        w_sq = float(w @ w)
        t = min(step * 2.0, 1e6)
        accepted = False
        for _ in range(60):
            z_t = z - t * u
            pen = 0.5 * lam * (w_sq - 2.0 * t * w_dot_g + t * t * g_sq)
            loss_t = _data_loss(z_t, y) + pen
            if loss_t <= loss - 1e-4 * t * grad_sq:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        w = w - t * grad_w
        b -= t * grad_b
        z = z_t
        loss = loss_t
        step = t

    weights = {n: float(v) for n, v in zip(kept_names, w)}
    return Model(
        feature_names=kept_names,
        weights=weights,
        bias=float(b),
        means={n: float(m) for n, m in zip(kept_names, means[keep])},
        stds={n: float(s) for n, s in zip(kept_names, stds[keep])},
        dropped=dropped,
        lam=lam,
        seed=int(seed),
        iterations=iterations,
        final_loss=float(loss),
        converged=converged,
    )


def _scores_from_matrix(
    model: Model, X: np.ndarray, feature_names: Sequence[str]
) -> np.ndarray:
    index = {n: i for i, n in enumerate(feature_names)}
    for n in model.feature_names:
        if n not in index:
            raise MissingFeatureError(f"matrix lacks feature {n!r}")
    cols = [index[n] for n in model.feature_names]
    mu = np.array([model.means[n] for n in model.feature_names])
    sd = np.array([model.stds[n] for n in model.feature_names])
    w = np.array([model.weights[n] for n in model.feature_names])
    Xs = (np.asarray(X, dtype=np.float64)[:, cols] - mu) / sd
    return _sigmoid(Xs @ w + model.bias)


def predict_proba(model: Model, x) -> float:
    """Probability of the positive class for one example.

    Accepts a name->value mapping or a dense row aligned to
    ``model.feature_names``.
    """
    if isinstance(x, Mapping):
        for name in model.feature_names:
            if name not in x:
                raise MissingFeatureError(f"input lacks feature {name!r}")
        row = [x[name] for name in model.feature_names]
    else:
        row = np.asarray(x, dtype=np.float64).ravel()
        if row.shape[0] != len(model.feature_names):
            raise MissingFeatureError(
                f"expected {len(model.feature_names)} values, got {row.shape[0]}"
            )
    X = np.asarray(row, dtype=np.float64).reshape(1, -1)
    return float(_scores_from_matrix(model, X, model.feature_names)[0])


def stratified_folds(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Fold index per example: each class shuffled then dealt round-robin."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    assignment = np.empty(y.shape[0], dtype=np.int64)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.size)]
        assignment[idx] = np.arange(idx.size) % folds
    return assignment


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    folds: int = 10,
    lam: float = DEFAULT_LAMBDA,
    seed: int = 0,
    feature_names: Sequence[str] | None = None,
) -> Metrics:
    """Stratified k-fold cross-validation of the classifier.

    Standardization is fitted inside each training split (train() does it),
    so no information leaks from held-out folds.
    """
    X, y, names = _problem(X, y, feature_names)
    if folds < 2:
        raise BadArgumentError(f"folds must be >= 2, got {folds}")
    if X.shape[0] < folds:
        raise TooFewExamplesError(f"{X.shape[0]} examples for {folds} folds")
    if np.unique(y).size < 2:
        raise SingleClassError("cross_validate needs both classes")

    assignment = stratified_folds(y, folds, seed)
    accs: list[float] = []
    f1s: list[float] = []
    aucs: list[float] = []
    sizes: list[int] = []
    for fold in range(folds):
        test = assignment == fold
        train_mask = ~test
        if test.sum() == 0:
            continue
        model = train(X[train_mask], y[train_mask], lam=lam, seed=seed, feature_names=names)
        scores = _scores_from_matrix(model, X[test], names)
        y_test = y[test]
        predictions = (scores >= 0.5).astype(np.float64)
        accs.append(float(np.mean(predictions == y_test)))
        f1s.append(f1(predictions, y_test))
        if np.unique(y_test).size == 2:
            aucs.append(auc(scores, y_test))
        else:
            aucs.append(float("nan"))
        sizes.append(int(test.sum()))

    acc_arr = np.array(accs)
    f1_arr = np.array(f1s)
    auc_arr = np.array(aucs)
    return Metrics(
        accuracy=float(acc_arr.mean()),
        f1=float(f1_arr.mean()),
        auc=float(np.nanmean(auc_arr)),
        accuracy_sd=float(acc_arr.std()),
        f1_sd=float(f1_arr.std()),
        auc_sd=float(np.nanstd(auc_arr)),
        fold_accuracy=tuple(accs),
        fold_f1=tuple(f1s),
        fold_auc=tuple(aucs),
        fold_sizes=tuple(sizes),
        positive_fraction=float(np.mean(y)),
    )


def auc(scores: Sequence[float], labels: Sequence[float]) -> float:
    """Area under the ROC curve via the rank-sum formula; ties count 1/2."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError("auc needs both classes")
    # A run of tied scores ending at 1-based sorted position e with c members
    # takes the mean of positions e-c+1 .. e, which is e - (c-1)/2.
    _, tie, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[tie]
    rank_sum = float(np.sum(ranks[y == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def f1(predictions: Sequence[float], labels: Sequence[float]) -> float:
    """F1 over the positive class; 0 when precision + recall is 0."""
    p = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.size == 0:
        raise EmptyInputError("f1 of empty sequence")
    tp = float(np.sum((p == 1) & (y == 1)))
    fp = float(np.sum((p == 1) & (y == 0)))
    fn = float(np.sum((p == 0) & (y == 1)))
    if tp == 0.0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def mrr(ranks_of_truth: Sequence[int]) -> float:
    """Mean reciprocal rank; ranks are 1-based."""
    if len(ranks_of_truth) == 0:
        raise EmptyInputError("mrr of empty sequence")
    for r in ranks_of_truth:
        if r < 1:
            raise BadArgumentError(f"ranks must be >= 1, got {r}")
    return math.fsum(1.0 / r for r in ranks_of_truth) / len(ranks_of_truth)


def evaluate_cluster(model: Model, instances: Sequence) -> tuple[float, float]:
    """Score same-content ranking instances: (top-1 accuracy, MRR).

    Each instance is a ``tasks.ClusterInstance``: member cascade ids, their
    feature matrix ``X`` with its ``columns``, and ``winner_index``. Members
    are ranked by predicted probability descending, ties broken by
    cascade_id ascending; the rank of the true winner feeds both metrics.
    """
    if len(instances) == 0:
        raise EmptyInputError("no cluster instances")
    hits = 0
    ranks: list[int] = []
    for inst in instances:
        scores = _scores_from_matrix(model, inst.X, inst.columns)
        scored = [
            (-float(score), cascade_id, idx)
            for idx, (score, cascade_id) in enumerate(zip(scores, inst.members))
        ]
        scored.sort()
        rank = next(
            pos + 1 for pos, (_, _, idx) in enumerate(scored) if idx == inst.winner_index
        )
        ranks.append(rank)
        if rank == 1:
            hits += 1
    return hits / len(instances), mrr(ranks)
