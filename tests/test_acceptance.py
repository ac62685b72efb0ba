"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. The heavy end-to-end checks share session-scoped synthetic
datasets; everything is seeded, so results are reproducible bit for bit.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from cascadekit.cascade import build_cascade
from cascadekit.errors import DegenerateCorrelationError
from cascadekit.learner import (
    Model,
    auc,
    cross_validate,
    evaluate_cluster,
    f1,
    loss_and_gradient,
    mrr,
    predict_proba,
    train,
)
from cascadekit.stats import (
    PowerLawSpec,
    fisher_z_compare,
    fit_powerlaw_alpha,
    gini,
    pearson,
    powerlaw_median,
)
from cascadekit.synth import (
    SynthParams,
    generate_social_graph,
    sample_powerlaw_sizes,
    simulate_cascades,
)
from cascadekit.tasks import (
    CascadeRecord,
    ClusterInstance,
    build_cluster_task,
    label_growth,
)
from cascadekit.virality import wiener_index_bruteforce, wiener_index_exact

from conftest import path_tree, random_tree, star_tree


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _build_run(params: SynthParams, k: int = 5):
    """generate -> build -> label -> cross-validate, with wall time."""
    start = time.perf_counter()
    graph = generate_social_graph(params, params.seed)
    cascades, contents = simulate_cascades(graph, params, params.seed)
    records = [
        CascadeRecord(tree=build_cascade(ev), content=contents[ev[0].cascade_id])
        for ev in cascades
    ]
    dataset = label_growth(records, k, graph=graph)
    X, y, columns = dataset.X, dataset.y, dataset.columns
    metrics = cross_validate(X, y, folds=10, lam=0.01, seed=1, feature_names=columns)
    elapsed = time.perf_counter() - start
    return {
        "params": params,
        "graph": graph,
        "records": records,
        "dataset": dataset,
        "metrics": metrics,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="session")
def boosted_run():
    return _build_run(
        SynthParams(n_nodes=20_000, n_cascades=10_000, x_min=5.0,
                    rate_boost=3.0, seed=11)
    )


@pytest.fixture(scope="session")
def null_run():
    return _build_run(
        SynthParams(n_nodes=20_000, n_cascades=10_000, x_min=5.0,
                    rate_boost=1.0, seed=11)
    )


def test_criterion_01_wiener_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 201))
        tree = random_tree(rng, n)
        gap = abs(wiener_index_exact(tree) - wiener_index_bruteforce(tree))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    report(
        "criterion-1 wiener-oracle-equivalence",
        worst < 1e-9 and elapsed < 10.0,
        f"500 trees n in [2,200], max |exact-brute| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_closed_forms():
    worst = 0.0
    for n in range(2, 51):
        star = wiener_index_exact(star_tree(n - 1))
        star_expected = ((n - 1) + 2 * math.comb(n - 1, 2)) / (n * (n - 1) / 2)
        path = wiener_index_exact(path_tree(n - 1))
        worst = max(worst, abs(star - star_expected), abs(path - (n + 1) / 3))
    report(
        "criterion-2 closed-forms",
        worst < 1e-12,
        f"star and path formulas match for n=2..50, max gap {worst:.2e}",
    )


def test_criterion_03_median_doubling():
    start = time.perf_counter()
    draws = sample_powerlaw_sizes(2.0, 1.0, 1_000_000, seed=103)
    medians = {}
    ok = True
    for k in (5, 10, 25, 50):
        med = float(np.median(draws[draws >= k]))
        medians[k] = round(med, 3)
        ok = ok and 1.9 * k <= med <= 2.1 * k
    elapsed = time.perf_counter() - start
    report(
        "criterion-3 median-doubling",
        ok and elapsed < 30.0,
        f"1e6 draws, tail medians {medians} vs 2k, {elapsed:.1f}s",
    )


def test_criterion_04_alpha_recovery():
    draws = sample_powerlaw_sizes(2.0, 1.0, 100_000, seed=104)
    alpha_hat = fit_powerlaw_alpha(draws.tolist(), 1.0)
    worked = fit_powerlaw_alpha([2, 4, 8], 2)
    report(
        "criterion-4 alpha-recovery",
        abs(alpha_hat - 2.0) <= 0.05 and abs(worked - 2.442695) <= 1e-6,
        f"hill(1e5 draws) = {alpha_hat:.4f}, three-point example = {worked:.6f}",
    )


def test_criterion_05_planted_signal_end_to_end(boosted_run, null_run):
    boosted = boosted_run["metrics"]
    null = null_run["metrics"]
    elapsed = boosted_run["elapsed"] + null_run["elapsed"]
    ok = (
        boosted.accuracy >= 0.65
        and boosted.auc >= 0.70
        and null.accuracy <= 0.55
        and elapsed < 120.0
    )
    report(
        "criterion-5 planted-signal",
        ok,
        f"boosted acc {boosted.accuracy:.3f} auc {boosted.auc:.3f} "
        f"(baseline {boosted.majority_baseline:.3f}); "
        f"null acc {null.accuracy:.3f}; both pipelines {elapsed:.0f}s",
    )


def test_criterion_06_observation_window_trend():
    run = _build_run(
        SynthParams(n_nodes=20_000, n_cascades=4_000, x_min=25.0,
                    rate_boost=3.0, seed=17),
        k=5,
    )
    acc_k5 = run["metrics"].accuracy
    dataset = label_growth(run["records"], 25, graph=run["graph"])
    X, y, columns = dataset.X, dataset.y, dataset.columns
    acc_k25 = cross_validate(
        X, y, folds=10, lam=0.01, seed=1, feature_names=columns
    ).accuracy
    report(
        "criterion-6 observation-window-trend",
        acc_k25 >= acc_k5 - 0.02,
        f"accuracy k=25 {acc_k25:.3f} vs k=5 {acc_k5:.3f} (non-inferiority -0.02)",
    )


def test_criterion_07_label_balance():
    rng = np.random.default_rng(107)
    ok = True
    details = []
    for n in (11, 101, 400):
        sizes = rng.choice(np.arange(5, 5000), size=n, replace=False)
        records = [
            CascadeRecord(tree=star_tree(int(s), cascade_id=f"c{i:05d}"))
            for i, s in enumerate(sizes)
        ]
        positive = np.mean(label_growth(records, 5).y)
        ok = ok and 0.5 <= positive <= 0.5 + 1.0 / n
        details.append(f"n={n}: {positive:.4f}")
        quartile = label_growth(records, 5, quartiles=True).y
        q_positive = np.mean(quartile)
        ok = ok and q_positive == 0.5 and len(quartile) == 2 * (n // 4)
    report(
        "criterion-7 label-balance",
        ok,
        "positive fraction in [0.5, 0.5+1/n] (" + ", ".join(details)
        + "); quartile variant exactly balanced",
    )


def test_criterion_08_metric_identities():
    checks = []

    def close(actual, expected, tol=1e-9):
        checks.append(abs(actual - expected) <= tol)

    # stats examples
    close(powerlaw_median(PowerLawSpec(2, 5)), 10.0)
    close(powerlaw_median(PowerLawSpec(2, 1)), 2.0)
    close(powerlaw_median(PowerLawSpec(3, 4)), 4 * math.sqrt(2), 1e-6)
    close(fit_powerlaw_alpha([2, 4, 8], 2), 2.442695, 1e-6)
    close(gini([1, 1, 1, 1]), 0.0)
    close(gini([0, 0, 0, 10]), 0.75)
    close(gini([10]), 0.0)
    close(pearson([1, 2, 3], [2, 4, 6]), 1.0)
    close(pearson([1, 2, 3], [6, 4, 2]), -1.0)
    close(pearson([1, 2, 3], [1, 2, 4]), 3 / math.sqrt(2 * 14 / 3))
    close(fisher_z_compare(0.3, 40, 0.3, 400), 1.0)
    close(fisher_z_compare(0.5, 103, 0.0, 103), 1.03e-4, 2e-5)
    try:
        fisher_z_compare(1.0, 50, 0.0, 50)
        checks.append(False)
    except DegenerateCorrelationError:
        checks.append(True)

    # learner metric examples
    close(auc([0.9, 0.8, 0.1], [1, 1, 0]), 1.0)
    close(auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]), 0.5)
    close(auc([0.8, 0.6, 0.4], [1, 0, 1]), 0.5)
    close(f1([1, 0, 1], [1, 0, 1]), 1.0)
    close(f1([1, 1, 0], [1, 0, 1]), 0.5)
    close(f1([0, 0, 0], [1, 0, 1]), 0.0)
    close(mrr([1, 1, 1]), 1.0)
    close(mrr([2, 2]), 0.5)
    close(mrr([1, 2, 4]), 7 / 12, 1e-6)

    # learner behavior examples
    rng = np.random.default_rng(108)
    X = np.concatenate([rng.normal(-3, 0.5, 100), rng.normal(3, 0.5, 100)])
    y = np.array([0.0] * 100 + [1.0] * 100)
    model = train(X.reshape(-1, 1), y, lam=0.01)
    scores = np.array([predict_proba(model, [v]) for v in X])
    checks.append(float(np.mean((scores >= 0.5) == y)) == 1.0)
    checks.append(model.converged or model.iterations == 10_000)

    zero = Model(("a",), {"a": 0.0}, 0.0, {"a": 0.0}, {"a": 1.0}, (),
                 0.01, 0, 0, 0.0, True)
    checks.append(predict_proba(zero, {"a": 123.0}) == 0.5)
    biased = Model((), {}, 40.0, {}, {}, (), 0.01, 0, 0, 0.0, True)
    checks.append(predict_proba(biased, {}) > 0.999)

    Xr = rng.normal(size=(10_000, 3))
    yr = (rng.random(10_000) < 0.5).astype(float)
    null_metrics = cross_validate(Xr, yr, folds=10, lam=0.01, seed=0)
    checks.append(0.47 <= null_metrics.accuracy <= 0.53)
    checks.append(0.47 <= null_metrics.auc <= 0.53)
    sep = cross_validate(X.reshape(-1, 1), y, folds=10, lam=0.01, seed=0)
    checks.append(sep.accuracy == 1.0 and sep.auc == 1.0)
    checks.append(cross_validate(Xr[:500], yr[:500], folds=10, seed=5)
                  == cross_validate(Xr[:500], yr[:500], folds=10, seed=5))

    # evaluate_cluster examples
    def instance(values, winner):
        members = tuple(f"m{i}" for i in range(len(values)))
        X = np.array([[v, 0.0] for v in values])
        return ClusterInstance("c", members, (5,) * len(values), X,
                               ["x", "x_missing"], winner)

    picker = Model(("x",), {"x": 1.0}, 0.0, {"x": 0.0}, {"x": 1.0},
                   ("x_missing",), 0.01, 0, 1, 0.0, True)
    top1, rr = evaluate_cluster(picker, [instance([0.1, 0.9, 0.2], 1)])
    checks.append(top1 == 1.0 and rr == 1.0)
    top1, rr = evaluate_cluster(picker, [instance([0.9, 0.5], 1)] * 2)
    checks.append(top1 == 0.0 and rr == 0.5)
    flat = Model(("x",), {"x": 0.0}, 0.0, {"x": 0.0}, {"x": 1.0},
                 ("x_missing",), 0.01, 0, 1, 0.0, True)
    top1, rr = evaluate_cluster(flat, [instance([0.5] * 10, 3)])
    checks.append(top1 == 0.0 and abs(rr - 0.25) < 1e-12)

    report(
        "criterion-8 metric-identities",
        all(checks),
        f"{sum(checks)}/{len(checks)} worked examples reproduced",
    )


def test_criterion_09_gradient_check():
    rng = np.random.default_rng(109)
    worst = 0.0
    instances = 0
    while instances < 20:
        n = int(rng.integers(5, 51))
        d = int(rng.integers(1, 11))
        X = rng.normal(size=(n, d))
        y = (rng.random(n) < 0.5).astype(float)
        if np.unique(y).size < 2:
            continue
        instances += 1
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
            worst = max(worst, abs(numeric - grad_w[j]) / max(abs(grad_w[j]), 1e-8))
        numeric_b = (
            loss_and_gradient(w, b + eps, X, y, lam)[0]
            - loss_and_gradient(w, b - eps, X, y, lam)[0]
        ) / (2 * eps)
        worst = max(worst, abs(numeric_b - grad_b) / max(abs(grad_b), 1e-8))
    report(
        "criterion-9 gradient-check",
        worst < 1e-5,
        f"20 random instances, worst relative error {worst:.2e}",
    )


def test_criterion_10_cluster_task(boosted_run):
    records = boosted_run["records"]
    graph = boosted_run["graph"]
    train_records = records[:6000]
    eval_records = records[6000:]

    dataset = label_growth(train_records, 5, graph=graph)
    X, y, columns = dataset.X, dataset.y, dataset.columns
    model = train(X, y, lam=0.01, feature_names=columns)

    # Clusters of one boosted (>= 2 * x_min, hence rate-boosted) cascade and
    # nine below the boost threshold; the winner is the boosted one.
    bigs = [r for r in eval_records if r.final_size >= 10]
    smalls = [r for r in eval_records if 5 <= r.final_size < 10]
    n_clusters = min(len(bigs), len(smalls) // 9, 100)
    clustered = []
    small_iter = iter(smalls)
    for i in range(n_clusters):
        cid = f"g{i:03d}"
        for r in [bigs[i]] + [next(small_iter) for _ in range(9)]:
            clustered.append(
                CascadeRecord(
                    tree=r.tree,
                    content=dataclasses.replace(r.content, cluster_id=cid),
                )
            )
    instances = build_cluster_task(clustered, 5, m=10, seed=2, graph=graph)
    top1, mean_rr = evaluate_cluster(model, instances)
    report(
        "criterion-10 cluster-task",
        top1 >= 0.30 and mean_rr >= 0.45,
        f"{len(instances)} clusters of 10: top-1 {top1:.3f} (baseline 0.1), "
        f"mrr {mean_rr:.3f}",
    )


def test_criterion_11_pipeline_determinism(tmp_path):
    from cascadekit.cli import main

    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(
        "n_nodes = 2000\nattachment_m = 2\npage_fraction = 0.05\n"
        "page_degree_boost = 3.0\nreshare_prob = 0.5\nrate_boost = 3.0\n"
        "target_alpha = 2.0\nx_min = 5.0\nn_cascades = 300\nseed = 7\n"
        "k = 5\ntask = growth\nlambda = 0.01\nfolds = 10\n"
    )
    outputs = {}
    for name, threads in (("a", 1), ("b", 1), ("c", 8)):
        out = tmp_path / name
        assert main(["pipeline", "--config", str(cfg), "--out-dir", str(out),
                     "--threads", str(threads)]) == 0
        outputs[name] = {
            p.name: p.read_bytes() for p in sorted(out.iterdir())
        }
    identical_rerun = outputs["a"] == outputs["b"]
    identical_threads = outputs["a"] == outputs["c"]
    report(
        "criterion-11 determinism",
        identical_rerun and identical_threads,
        f"{len(outputs['a'])} output files byte-identical across a rerun "
        f"and across --threads 1 vs 8",
    )
