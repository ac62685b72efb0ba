import argparse
import ast
import errno
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import FrozenInstanceError, replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import cascadekit
from cascadekit import cli, io
from cascadekit.cascade import (
    CONTENT_FIELDS, CONTENT_SCORE_NAMES, EVENT_FIELDS, NODE_TYPES, ReshareEvent,
    SocialGraph, build_cascade, layout_columns,
)
from cascadekit.cli import build_parser, main
from cascadekit.errors import ConfigInvalidError
from cascadekit.features import ContentRecord
from cascadekit.learner import DEFAULT_LAMBDA, MAX_ITER, Model, predict_proba, train
from cascadekit.synth import SynthParams, generate_social_graph, simulate_cascades
from cascadekit.tasks import (
    CascadeRecord,
    ClusterInstance,
    TaskDataset,
    build_cluster_task,
    label_growth,
)

from conftest import event, path_tree, star_tree, typed_fields
from test_cascade import event_logs
from test_features import hub_graph_cascades


PIPELINE_CFG = """\
n_nodes = 1500
attachment_m = 2
page_fraction = 0.05
page_degree_boost = 3.0
reshare_prob = 0.5
rate_boost = 3.0
target_alpha = 2.0
x_min = 5.0
n_cascades = 200
seed = 7
k = 5
task = growth
lambda = 0.01
folds = 5
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset on disk, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "pipe.cfg"
    cfg.write_text(PIPELINE_CFG)
    out = root / "base"
    assert main(["pipeline", "--config", str(cfg), "--out-dir", str(out)]) == 0
    return root, cfg, out


def test_help_for_every_subcommand(capsys):
    parser = build_parser()
    for cmd in (
        "generate", "featurize", "label", "train", "evaluate",
        "rank-features", "wiener", "stats", "report", "pipeline",
        "stats fit-alpha", "stats gini",
    ):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*cmd.split(), "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--help" in out
        for flag in ("--seed", "--threads", "--out-dir"):
            assert flag in out, (cmd, flag)


def test_wiener_two_node_cascade(tmp_path, capsys):
    path = tmp_path / "two.jsonl"
    io.write_events_jsonl(
        path, [[event("c1", "r", 0), event("c1", "a", 5, "r")]]
    )
    assert main(["wiener", str(path)]) == 0
    assert capsys.readouterr().out == "c1\t1.0\n"


def test_wiener_root_only_cascade_is_nan(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    io.write_events_jsonl(
        path, [[event("c0", "r", 0)], [event("c1", "r", 0), event("c1", "a", 5, "r")]]
    )
    assert main(["wiener", str(path)]) == 0
    assert capsys.readouterr().out == "c0\tnan\nc1\t1.0\n"


def test_trees_release_each_raw_list_as_its_tree_is_built(tmp_path):
    """``cli._trees`` takes each cascade's events out of the grouped dict as
    it builds the tree, so no raw list outlives its tree."""
    path = tmp_path / "events.jsonl"
    io.write_events_jsonl(path, [
        [event(cid, "r", 0), event(cid, "a", 5, "r")] for cid in ("c", "a", "b")
    ])
    grouped = io.read_events(path)
    left = [(cid, sorted(grouped)) for cid, _ in cli._trees(str(path), grouped)]
    assert left == [("a", ["b", "c"]), ("b", ["c"]), ("c", [])]


def test_load_records_peak_stays_near_the_records_it_returns(tmp_path):
    """While ``cli._load_records`` runs, tracemalloc's peak stays below 1.2x
    the bytes of the records it returns: each raw list is freed as its tree
    is built. Building from ``grouped[cid]`` and dropping the lists only at
    the end reads about 1.6x."""
    params = SynthParams(n_nodes=2000, n_cascades=300, x_min=5.0, seed=3)
    cascades, _ = simulate_cascades(generate_social_graph(params, 3), params, 3)
    path = tmp_path / "events.jsonl"
    io.write_events_jsonl(path, cascades)
    del cascades
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = cli._load_records(str(path), None)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 300
    assert peak - before < 1.2 * (held - before), (peak - before) / (held - before)


def test_missing_input_names_path(capsys):
    code = main(["wiener", "/nowhere/missing.jsonl"])
    assert code == 2
    assert "/nowhere/missing.jsonl" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [
    "events", "content", "graph", "params", "config", "labeled", "model",
    "cluster", "numbers",
])
def test_every_missing_input_is_one_error(tmp_path, capsys, flag):
    missing = str(tmp_path / "missing.txt")
    events = tmp_path / "events.jsonl"
    events.write_text(ROOT_EVENT)
    clusters = tmp_path / "clusters.csv"
    clusters.write_text(CLUSTER_HEADER + "g0,a,5,1,1.0,0\n")
    model = tmp_path / "model.txt"
    io.write_model(model, Model(("x",), {"x": 1.0}, 0.0, {"x": 0.0}, {"x": 1.0},
                                ("x_missing",), 0.01, 0, 1, 0.0, True))
    argv = {
        "events": ["wiener", missing],
        "content": ["featurize", "--k", "1", "--in", str(events), "--content",
                    missing, "--out", "features.csv"],
        "graph": ["featurize", "--k", "1", "--in", str(events), "--graph", missing,
                  "--out", "features.csv"],
        "params": ["generate", "--params", missing],
        "config": ["pipeline", "--config", missing],
        "labeled": ["train", "--in", missing, "--model-out", "model.txt"],
        "model": ["evaluate", "--cluster", str(clusters), "--model", missing],
        "cluster": ["evaluate", "--cluster", missing, "--model", str(model)],
        "numbers": ["stats", "gini", missing],
    }[flag]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: missing input file: {missing}"
    ]


def test_pipeline_outputs_exist_with_manifest(workspace):
    _, _, out = workspace
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        path = out / name
        assert path.exists()
        assert io.sha256_file(path) == digest
    meta = json.loads((out / "task_meta.json").read_text())
    assert meta["task"] == "growth"
    assert meta["k"] == 5


def test_pipeline_byte_identical_across_threads(workspace):
    root, cfg, out = workspace
    rerun = root / "rerun"
    assert main(["pipeline", "--config", str(cfg), "--out-dir", str(rerun),
                 "--threads", "8"]) == 0
    for name in sorted(p.name for p in out.iterdir()):
        assert (rerun / name).read_bytes() == (out / name).read_bytes(), name


def test_pipeline_outputs_do_not_depend_on_string_hashing(tmp_path):
    """Interpreters with different string hash seeds print the same lines
    and write the same outputs and manifest."""
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(PIPELINE_CFG)
    runs = []
    for seed in ("0", "1"):
        cwd = tmp_path / f"hashseed{seed}"
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "cascadekit.cli", "pipeline", "--config", str(cfg),
             "--out-dir", "out"],
            capture_output=True, text=True, cwd=cwd, timeout=300,
            env={**os.environ, "PYTHONPATH": str(Path(cascadekit.__file__).parents[1]),
                 "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        runs.append((proc.stdout, {p.name: p.read_bytes() for p in (cwd / "out").iterdir()}))
    assert "manifest.json" in runs[0][1]
    assert runs[0] == runs[1]


def test_failed_pipeline_rerun_leaves_no_manifest(workspace, tmp_path, capsys):
    """A rerun into a finished run's directory that fails after its first
    write leaves no manifest beside the files it replaced."""
    _, _, out = workspace
    rerun = tmp_path / "rerun"
    shutil.copytree(out, rerun)
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(PIPELINE_CFG.replace("k = 5", "k = 100000").replace("seed = 7", "seed = 8"))
    assert main(["pipeline", "--config", str(cfg), "--out-dir", str(rerun)]) == 2
    assert capsys.readouterr().err == "error: no cascades with >= 100000 reshares\n"
    assert (rerun / "events.jsonl").read_bytes() != (out / "events.jsonl").read_bytes()
    assert not (rerun / "manifest.json").exists()


def test_featurize_and_label_and_train(workspace, tmp_path, capsys):
    _, _, out = workspace
    feat = tmp_path / "features.csv"
    assert main([
        "featurize", "--k", "5", "--in", str(out / "events.jsonl"),
        "--content", str(out / "content.jsonl"),
        "--graph", str(out / "graph.edges"), "--out", str(feat),
    ]) == 0
    header = feat.read_text().splitlines()[0].split(",")
    assert header[0] == "cascade_id"
    assert "gap_avg_second_half" in header
    assert "gap_avg_second_half_missing" in header

    labeled = tmp_path / "labeled.csv"
    meta_path = tmp_path / "meta.json"
    assert main([
        "label", "growth", "--k", "5", "--in", str(out / "events.jsonl"),
        "--content", str(out / "content.jsonl"), "--out", str(labeled),
        "--meta-out", str(meta_path), "--seed", "3",
    ]) == 0
    meta = json.loads(meta_path.read_text())
    assert meta["seed"] == 3
    assert meta["f_k"] >= 5

    model_path = tmp_path / "model.txt"
    assert main([
        "train", "--in", str(labeled), "--model-out", str(model_path),
        "--folds", "0",
    ]) == 0
    model = io.read_model(model_path)
    assert model.lam == 0.01
    capsys.readouterr()


def test_label_structure_and_quartiles(workspace, tmp_path):
    _, _, out = workspace
    for extra, name in ((["--quartiles"], "q.csv"), ([], "s.csv")):
        task = "growth" if extra else "structure"
        assert main([
            "label", task, "--k", "5", "--in", str(out / "events.jsonl"),
            "--out", str(tmp_path / name), *extra,
        ]) == 0
        X, y, sizes, ids, cols = io.read_labeled_csv(tmp_path / name)
        assert X.shape[0] == y.shape[0] == len(ids)
        if extra:
            assert float(np.mean(y)) == 0.5


def test_evaluate_prints_baseline(workspace, capsys):
    _, _, out = workspace
    assert main(["evaluate", "--in", str(out / "labeled.csv"), "--folds", "5"]) == 0
    printed = capsys.readouterr().out
    assert "accuracy" in printed and "baseline" in printed



@pytest.mark.parametrize("iterations, status", [
    (37, "line search failed at iteration 37"),
    (MAX_ITER, "hit iteration cap"),
])
def test_train_names_why_a_fit_stopped(workspace, tmp_path, capsys, monkeypatch,
                                       iterations, status):
    """An unconverged fit that stopped before the iteration cap stopped
    because its line search found no step."""
    def unconverged(X, y, *, lam, seed, feature_names):
        return Model(("x",), {"x": 1.0}, 0.0, {"x": 0.0}, {"x": 1.0}, (), lam, seed,
                     iterations, 0.5, False)

    monkeypatch.setattr(cli, "train", unconverged)
    _, _, out = workspace
    assert main([
        "train", "--in", str(out / "labeled.csv"), "--model-out",
        str(tmp_path / "model.txt"), "--folds", "0",
    ]) == 0
    printed = capsys.readouterr().out
    assert f"{iterations} iterations ({status}), loss 0.500000" in printed

@pytest.fixture(scope="module")
def clustered(tmp_path_factory):
    """Events and clustered content on disk, and a model trained at k=5."""
    tmp_path = tmp_path_factory.mktemp("clustered")
    params = SynthParams(
        n_nodes=2500, attachment_m=2, n_cascades=400, x_min=5.0,
        rate_boost=3.0, seed=31,
    )
    graph = generate_social_graph(params, params.seed)
    cascades, contents = simulate_cascades(graph, params, params.seed)
    trees = [build_cascade(c) for c in cascades]
    # Assign every cascade to one of 20 clusters, round-robin by size rank
    # so each cluster mixes small and large members.
    order = sorted(trees, key=lambda t: (t.size, t.cascade_id))
    with_clusters = {}
    for i, tree in enumerate(order):
        base = contents[tree.cascade_id]
        with_clusters[tree.cascade_id] = ContentRecord(
            **{**{f: getattr(base, f) for f in CONTENT_FIELDS if f != "cluster_id"},
               "cluster_id": f"cl{i % 20:02d}"},
        )
    events_path = tmp_path / "events.jsonl"
    content_path = tmp_path / "content.jsonl"
    io.write_events_jsonl(events_path, cascades)
    io.write_content_jsonl(content_path, with_clusters)
    labeled = tmp_path / "labeled.csv"
    assert main([
        "label", "growth", "--k", "5", "--in", str(events_path),
        "--content", str(content_path), "--out", str(labeled),
    ]) == 0
    model_path = tmp_path / "model.txt"
    assert main([
        "train", "--in", str(labeled), "--model-out", str(model_path),
        "--folds", "0",
    ]) == 0
    return events_path, content_path, model_path


def _label_clusters(clustered, k, out):
    events_path, content_path, _ = clustered
    assert main([
        "label", "cluster", "--k", str(k), "--m", "10", "--seed", "5",
        "--in", str(events_path), "--content", str(content_path), "--out", str(out),
    ]) == 0


def test_cluster_label_and_evaluate(clustered, tmp_path, capsys):
    model_path = clustered[2]
    cluster_csv = tmp_path / "clusters.csv"
    _label_clusters(clustered, 5, cluster_csv)
    capsys.readouterr()
    assert main([
        "evaluate", "--cluster", str(cluster_csv), "--model", str(model_path),
    ]) == 0
    printed = capsys.readouterr().out
    top1 = float(printed.split("top1_accuracy")[1].split()[0])
    mean_rr = float(printed.split("mrr")[1].split()[0])
    assert 0.0 <= top1 <= 1.0
    assert 0.0 < mean_rr <= 1.0


def test_cluster_csv_at_another_k_than_the_model(clustered, tmp_path, capsys):
    cluster_csv = tmp_path / "clusters_k2.csv"
    _label_clusters(clustered, 2, cluster_csv)
    capsys.readouterr()
    assert main([
        "evaluate", "--cluster", str(cluster_csv), "--model", str(clustered[2]),
    ]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(
        f"error: {cluster_csv}:1: feature columns do not match the model's "
    )


def test_report_accuracy_vs_k(workspace, tmp_path, capsys):
    _, _, out = workspace
    report_csv = tmp_path / "acc.csv"
    assert main([
        "report", "accuracy-vs-k", "--in", str(out / "events.jsonl"),
        "--content", str(out / "content.jsonl"), "--ks", "5,10",
        "--folds", "5", "--out", str(report_csv),
    ]) == 0
    rows = report_csv.read_text().splitlines()
    assert rows[0].startswith("k,n,threshold")
    assert len(rows) == 3
    capsys.readouterr()


def test_report_rank_features(workspace, tmp_path, capsys):
    _, _, out = workspace
    ranked = tmp_path / "ranked.csv"
    assert main([
        "report", "rank-features", "--in", str(out / "events.jsonl"),
        "--content", str(out / "content.jsonl"), "--k", "5",
        "--folds", "3", "--out", str(ranked),
    ]) == 0
    assert ranked.read_text().splitlines()[0] == "feature,accuracy,pearson_log_size"
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["rank-features", "accuracy-vs-k"])
def test_report_seed_and_threads_default_to_0_and_1(workspace, capsys, kind):
    _, _, out = workspace
    argv = ["report", kind, "--in", str(out / "events.jsonl"), "--folds", "2"]
    printed = []
    for extra in ([], ["--seed", "0", "--threads", "1"]):
        assert main([*argv, *extra]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


def test_evaluate_requires_an_input(capsys):
    assert main(["evaluate"]) == 2
    assert "evaluate needs" in capsys.readouterr().err


def test_report_groups(workspace, tmp_path, capsys):
    _, _, out = workspace
    assert main([
        "report", "groups", "--in", str(out / "events.jsonl"),
        "--content", str(out / "content.jsonl"), "--group-by", "category",
    ]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("group\tcount")


def test_stats_subcommands(tmp_path, capsys):
    nums = tmp_path / "n.txt"
    nums.write_text("".join(f"{v}\n" for v in [2, 4, 8]))
    assert main(["stats", "fit-alpha", "--xmin", "2", str(nums)]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(2.442695, abs=1e-6)
    gini_file = tmp_path / "g.txt"
    gini_file.write_text("0\n0\n0\n10\n")
    assert main(["stats", "gini", str(gini_file)]) == 0
    assert float(capsys.readouterr().out) == 0.75


def test_stats_past_the_float_range(tmp_path, capsys):
    """Valid numbers whose sums or ratios overflow print the true value."""
    nums = tmp_path / "n.txt"
    nums.write_text("1e308\n1e308\n")
    assert main(["stats", "gini", str(nums)]) == 0
    assert capsys.readouterr().out == "0.0\n"
    nums.write_text("1\n1e300\n2\n")
    assert main(["stats", "fit-alpha", "--xmin", "1e-10", str(nums)]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(1.0039445334, abs=1e-10)


def test_rank_features_cli(workspace, tmp_path, capsys):
    _, _, out = workspace
    ranked = tmp_path / "ranked.csv"
    assert main([
        "rank-features", "--in", str(out / "labeled.csv"), "--folds", "3",
        "--top", "3", "--out", str(ranked),
    ]) == 0
    lines = ranked.read_text().splitlines()
    assert lines[0] == "feature,accuracy,pearson_log_size"
    accuracies = [float(l.split(",")[1]) for l in lines[1:]]
    assert accuracies == sorted(accuracies, reverse=True)
    capsys.readouterr()


CLUSTER_HEADER = "cluster_id,cascade_id,final_size,is_winner,x,x_missing\n"
LABELED_HEADER = "x,x_missing,label,final_size,cascade_id\n"
EVENTS_CSV_HEADER = "cascade_id,node_id,timestamp,parent_id,node_type\n"
ROOT_EVENT = '{"cascade_id": "c", "node_id": "r", "timestamp": 0.0}\n'
RESHARE = (
    '{"cascade_id": "c", "node_id": "a", "parent_id": "r", "timestamp": 1.0, '
    '"node_type": "user"}\n'
)
# Every one-value line of a model file, as write_model writes them.
MODEL_SCALARS = (
    "lambda 0.01\nseed 0\nbias 0.0\niterations 1\nfinal_loss 0.5\nconverged 1\n"
)
CYCLE = (
    '{"cascade_id": "c", "node_id": "a", "parent_id": "b", "timestamp": 1.0}\n'
    '{"cascade_id": "c", "node_id": "b", "parent_id": "a", "timestamp": 2.0}\n'
)


@pytest.mark.parametrize(
    "kind, text, where",
    [
        ("labeled", "", 1),
        ("cluster", "", 1),
        ("cluster", CLUSTER_HEADER + "g0,a,5,0,1.0,0\ng0,b,6,0,2.0,0\n", 2),
        ("cluster", CLUSTER_HEADER + "g0,a,5,1,1.0,0\ng0,b,6,1,2.0,0\n", 2),
        ("labeled", LABELED_HEADER + "1.0,0,1,5,a\nnan,0,0,6,b\n", 3),
        ("cluster", CLUSTER_HEADER + "g0,a,5,1,inf,0\n", 2),
        ("model", "lambda 0.01\ndropped\n", 2),
        ("model", "lambda\n", 1),
        ("labeled", LABELED_HEADER + "1.0,0,1,5\n", 2),
        ("cluster", "cluster_id,cascade_id,final_size,is_winner,x\n", 1),
        ("events", ROOT_EVENT + '{"cascade_id": "c", "node_id": "a", "ti\n', 2),
        ("events", ROOT_EVENT + RESHARE.replace('"user"', '"bot"'), 2),
        ("events", ROOT_EVENT + RESHARE.replace("1.0", "NaN"), 2),
        ("events", ROOT_EVENT + RESHARE.replace('"cascade_id": "c", ', ""), 2),
        ("events", "\n" + ROOT_EVENT + "[1, 2]\n", 3),
        ("events.csv", EVENTS_CSV_HEADER + "c,r,0.0,,user\n,a,1.0,r,user\n", 3),
        ("events.csv", EVENTS_CSV_HEADER + "c,r,0.0,,user\nc,a,1.0,r,bot\n", 3),
        ("events.csv", EVENTS_CSV_HEADER + "c,r,0.0,,user\nc,a,soon,r,user\n", 3),
        ("content", '{"cascade_id": "c", "score_food": 0.5\n', 1),
        ("content", '{"cascade_id": "c"}\n{"score_food": 0.5}\n', 2),
        ("content", '{"cascade_id": "c", "score_food": 7}\n', 1),
        ("params", "n_nodes = 2000\nn_cascades = ten\n", 2),
        ("params", "n_cascade = 10\n", 1),
        ("config", "k = 5\nn_cascade = 10\n", 2),
        ("config", "folds = many\n", 1),
        ("params", "n_nodes = 2000\nx_min = inf\n", 2),
        ("config", "lambda = nan\n", 1),
        ("config", "task = foo\n", 1),
        ("config", "k = 5\nuse_graph = yes\n", 2),
        ("config", "quartiles = 1\n", 1),
        ("config", "centered_slopes = on\n", 1),
        ("events", ROOT_EVENT + RESHARE.replace('"r"', '"zz"'), 2),
        ("events", ROOT_EVENT + RESHARE + RESHARE, 3),
        ("events", ROOT_EVENT + RESHARE.replace("1.0", "-1.0"), 2),
        ("events", ROOT_EVENT + CYCLE, 2),
        ("events", ROOT_EVENT.replace('"c"', '"d"') + RESHARE, 2),
        ("events", ROOT_EVENT + ROOT_EVENT.replace('"r"', '"s"'), 2),
        ("events", ROOT_EVENT + ROOT_EVENT.replace('"c"', '"d"')
         + RESHARE.replace('"r"', '"zz"'), 3),
        ("events", ROOT_EVENT.replace("0.0}", '0.0, "outdeg": Infinity}'), 1),
        ("events.csv", EVENTS_CSV_HEADER + "c,r,0.0,,user\nc,a,1.0,zz,user\n", 3),
        ("events", ROOT_EVENT.replace("0.0", "-1e308")
         + RESHARE.replace("1.0", "1e308"), 2),
        ("gini", "1\n\n2\nmany\n", 4),
        ("fit-alpha", "3\n2.5e\n", 2),
        ("params", "n_nodes = 2000\nreshare_prob = 2\n", 2),
        ("params", "attachment_m = 0\nn_nodes = 2000\n", 1),
        ("params", "n_nodes = 2\n# attachment_m defaults to 2\n", 1),
        ("config", "k = 5\nreshare_prob = 2\n", 2),
        ("config", "k = 0\n", 1),
        ("config", "k = 5\nfolds = 1\n", 2),
        ("cluster", CLUSTER_HEADER.replace(",x", ",y") + "g0,a,5,1,1.0,0\n", 1),
        ("cluster", CLUSTER_HEADER, 1),
        ("labeled", LABELED_HEADER, 1),
        ("gini", "1\nnan\n3\n", 2),
        ("fit-alpha", "3\n\ninf\n", 3),
        ("graph", "1 2\n# comment\n\n2 3 4\n", 4),
        ("labeled", LABELED_HEADER + "1.0,0,1,5,a\n2.0,0,2,6,b\n", 3),
        ("labeled", LABELED_HEADER + "1.0,0,1,-1,a\n", 2),
        ("config", "k = 5\nlambda = -1\n", 2),
        ("model", "lambda 0.01\nfoo 1\n", 2),
        ("model", LABELED_HEADER + "1.0,0,1,5,a\n", 1),
        ("model", "lambda 0.01\nseed abc\n", 2),
        ("model", "lambda 0.01\nseed 0\nbias 0.0\niterations 1.5\n", 4),
        ("model", "lambda 0.01\nseed 0\nbias nan\n", 3),
        ("model", "lambda 0.01\nconverged 7\n", 2),
        ("model", "feature x 1.0 0.0 0.0\n", 1),
        ("model", "lambda 0.01\nfeature x 1.0 0.0 -1.0\n", 2),
        ("model", "feature x 1.0 0.0 1.0\nfeature x 1.0 0.0 1.0\n", 2),
        ("labeled", "x,x,label,final_size,cascade_id\n1.0,0,1,5,a\n", 1),
        ("model", "lambda 0.01\nbias 0.0\nbias 5.0\n", 3),
        ("model", MODEL_SCALARS + "feature x 1.0 0.0 1.0\ndropped x_missing\n"
         "dropped x_missing\n", 9),
        ("model", MODEL_SCALARS + "feature x 1.0 0.0 1.0\ndropped x\n", 8),
        ("model", MODEL_SCALARS + "dropped x\nfeature x 1.0 0.0 1.0\n", 7),
        ("content", '{"cascade_id": "c"}\n{"cascade_id": "d"}\n{"cascade_id": "c"}\n', 3),
        ("labeled", LABELED_HEADER + "1.0,0,1,5,a\n2.0,0,0,6,b\n3.0,0,1,7,a\n", 4),
        ("config", "task = structure\nn_nodes = 300\nquartiles = TRUE\n", 3),
        ("labeled", "a b,a b_missing,label,final_size,cascade_id\n1.0,0,1,5,a\n", 1),
        ("cluster", CLUSTER_HEADER.replace("x", "x\ty") + "g0,a,5,1,1.0,0\n", 1),
        ("cluster", CLUSTER_HEADER + "g0,a,3.7,1,1.0,0\ng0,b,5,0,2.0,0\n", 2),
        ("cluster", CLUSTER_HEADER + "g0,a,3,1,1.0,0\ng0,b,-5,0,2.0,0\n", 3),
        ("cluster", CLUSTER_HEADER + "g0,a,3,1,1.0,0\ng0,b,5,2,2.0,0\n", 3),
        ("labeled", LABELED_HEADER + "1.0,0,1,3.5,a\n", 2),
        ("cluster", CLUSTER_HEADER + "g0,a,5,1,1.0,0\ng0,a,6,0,2.0,0\ng0,b,6,0,3.0,0\n", 3),
    ],
    ids=[
        "empty-labeled", "empty-cluster", "no-winner", "two-winners",
        "nonfinite-labeled", "nonfinite-cluster", "one-token-dropped",
        "one-token-scalar", "short-row", "cluster-header-without-indicator",
        "truncated-event-line", "bot-node-type", "nan-timestamp",
        "missing-cascade-id", "event-line-not-an-object", "csv-missing-cascade-id",
        "csv-bot-node-type", "csv-non-numeric-timestamp", "truncated-content-line",
        "content-missing-cascade-id", "content-score-out-of-range",
        "non-integer-param", "misspelled-param", "misspelled-pipeline-key",
        "non-integer-pipeline-key", "non-finite-param", "non-finite-pipeline-key",
        "unknown-task", "non-boolean-use-graph", "non-boolean-quartiles",
        "non-boolean-centered-slopes", "dangling-parent", "duplicate-node-id",
        "reshare-before-root", "parent-cycle", "no-root", "two-roots",
        "tree-error-after-other-cascade", "infinite-count", "csv-dangling-parent",
        "rebased-timestamp-overflows",
        "non-numeric-gini-value", "non-numeric-alpha-value",
        "reshare-prob-out-of-range", "attachment-m-out-of-range",
        "n-nodes-below-default-attachment-m", "pipeline-reshare-prob-out-of-range", "pipeline-k-below-1",
        "pipeline-folds-below-2",
        "cluster-columns-not-the-models", "header-only-cluster",
        "header-only-labeled", "nan-gini-value", "inf-alpha-value",
        "three-token-edge-line", "non-binary-label", "negative-final-size",
        "negative-pipeline-lambda", "unknown-model-key", "labeled-csv-for-model",
        "non-integer-model-seed", "non-integer-model-iterations", "nan-model-bias",
        "non-bit-model-converged", "zero-model-std", "negative-model-std",
        "repeated-model-feature", "repeated-labeled-column",
        "repeated-model-scalar", "repeated-model-dropped", "dropped-model-feature",
        "model-feature-after-dropped", "repeated-content-cascade-id",
        "repeated-labeled-cascade-id", "pipeline-quartiles-for-structure",
        "labeled-column-whitespace", "cluster-column-whitespace",
        "fractional-cluster-final-size", "negative-cluster-final-size",
        "non-bit-is-winner", "fractional-final-size", "repeated-cluster-member",
    ],
)
def test_malformed_input_is_one_error_line(tmp_path, capsys, kind, text, where):
    model = tmp_path / "model.txt"
    io.write_model(model, Model(("x",), {"x": 1.0}, 0.0, {"x": 0.0}, {"x": 1.0},
                                ("x_missing",), 0.01, 0, 1, 0.0, True))
    clusters = tmp_path / "clusters.csv"
    clusters.write_text(CLUSTER_HEADER + "g0,a,5,1,1.0,0\n")
    events = tmp_path / "good.jsonl"
    events.write_text(ROOT_EVENT)
    bad = tmp_path / (kind if kind.endswith(".csv") else f"{kind}.txt")
    bad.write_text(text)
    argv = {
        "labeled": ["train", "--in", str(bad), "--model-out", str(model)],
        "cluster": ["evaluate", "--cluster", str(bad), "--model", str(model)],
        "model": ["evaluate", "--cluster", str(clusters), "--model", str(bad)],
        "events": ["wiener", str(bad)],
        "events.csv": ["wiener", str(bad)],
        "content": ["featurize", "--k", "1", "--in", str(events), "--content",
                    str(bad), "--out", str(tmp_path / "features.csv")],
        "graph": ["featurize", "--k", "1", "--in", str(events), "--graph",
                  str(bad), "--out", str(tmp_path / "features.csv")],
        "params": ["generate", "--params", str(bad), "--out-dir", str(tmp_path)],
        "config": ["pipeline", "--config", str(bad), "--out-dir", str(tmp_path)],
        "gini": ["stats", "gini", str(bad)],
        "fit-alpha": ["stats", "fit-alpha", "--xmin", "1", str(bad)],
    }[kind]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {bad}:{where}: ")


@pytest.mark.parametrize("kind, text, reason", [
    ("events", RESHARE.replace('"user"', '"user", "outdeg": 2.7'),
     "ValueError: outdeg must be an integer, got 2.7"),
    ("events", RESHARE.replace('"user"', '"user", "friend_count": 3.9'),
     "ValueError: friend_count must be an integer, got 3.9"),
    ("events", RESHARE.replace("1.0", "true"),
     "ValueError: timestamp must be a number, got true"),
    ("events", RESHARE.replace('"user"', '"user", "outdeg": true'),
     "ValueError: outdeg must be an integer, got true"),
    ("content", '{"cascade_id": "c", "is_en": "false"}\n',
     'ValueError: is_en must be true, false, 0 or 1, got "false"'),
    ("content", '{"cascade_id": "c", "has_caption": 2}\n',
     "ValueError: has_caption must be true, false, 0 or 1, got 2"),
    ("content", '{"cascade_id": "c", "score_food": true}\n',
     "ValueError: score_food must be a number, got true"),
    ("content", '{"cascade_id": null, "score_food": 0.5}\n',
     "TypeError: missing required field 'cascade_id'"),
    ("content", '{"cascade_id": "", "score_food": 0.5}\n',
     "TypeError: missing required field 'cascade_id'"),
    ("events", RESHARE.replace('"user"', '"user", "gender": [1, 2]'),
     "ValueError: gender must be a string or a number, got [1, 2]"),
    ("events", RESHARE.replace('"a"', "true"),
     "ValueError: node_id must be a string or a number, got true"),
    ("events", RESHARE.replace('"r"', '{"id": "r"}'),
     'ValueError: parent_id must be a string or a number, got {"id": "r"}'),
    ("content", '{"cascade_id": "c", "category": false}\n',
     "ValueError: category must be a string or a number, got false"),
    ("content", '{"cascade_id": ["c"]}\n',
     'ValueError: cascade_id must be a string or a number, got ["c"]'),
], ids=["fraction-for-int", "fraction-for-count", "bool-for-timestamp", "bool-for-int",
        "string-for-flag", "two-for-flag", "bool-for-score", "null-cascade-id",
        "empty-cascade-id", "array-for-str", "bool-for-id", "object-for-parent",
        "bool-for-label", "array-for-cascade-id"])
def test_lossy_json_value_is_one_error_line(tmp_path, capsys, kind, text, reason):
    """A JSON value that converting to its field's type would lose (a bool
    for a number, a fraction for an int, anything but a boolean, 0 or 1 for a
    flag) or a content line without a cascade_id is refused, naming its line."""
    events = tmp_path / "events.jsonl"
    events.write_text(ROOT_EVENT + (text if kind == "events" else ""))
    content = tmp_path / "content.jsonl"
    content.write_text(text)
    argv = {
        "events": ["wiener", str(events)],
        "content": ["featurize", "--k", "1", "--in", str(events), "--content",
                    str(content), "--out", str(tmp_path / "features.csv")],
    }[kind]
    bad, line = (events, 2) if kind == "events" else (content, 1)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}:{line}: {reason}\n"


NONFINITE_FEATURE_EVENTS = {
    "nan-age": (RESHARE.replace('"user"', '"user", "age_years": NaN'),
                "feature 'ages_avg' is not finite: nan"),
    "infinite-age": (RESHARE.replace('"user"', '"user", "age_years": Infinity'),
                     "feature 'ages_avg' is not finite: inf"),
    "csv-nan-age": ("c,a,1.0,r,user,nan\n", "feature 'ages_avg' is not finite: nan"),
    "huge-views": (RESHARE.replace('"user"', '"user", "views_orig_cum": ' + "9" * 400),
                   "feature 'root_views' does not convert to a float: "
                   "int too large to convert to float"),
    "huge-views-at-zero": (RESHARE.replace("1.0", "0.0").replace(
        '"user"', '"user", "views_orig_cum": ' + "9" * 400),
        "feature 'root_views' does not convert to a float: "
        "int too large to convert to float"),
    "huge-reshare-views": (RESHARE.replace(
        '"user"', '"user", "views_reshares_cum": ' + "9" * 400),
        "feature 'reshare_views' does not convert to a float: "
        "int too large to convert to float"),
    "huge-outdeg": (RESHARE.replace('"user"', '"user", "outdeg": ' + "9" * 400),
                    "feature 'node_outdeg_1' does not convert to a float: "
                    "int too large to convert to float"),
    "views-rate-overflows": (RESHARE.replace("1.0", "5e-324").replace(
        '"user"', '"user", "views_orig_cum": 10'),
        "feature 'root_views_rate' is not finite: inf"),
}


@pytest.mark.parametrize("argv", [
    ["featurize", "--k", "1", "--out", "features.csv"],
    ["label", "growth", "--k", "1", "--out", "labeled.csv"],
    ["report", "rank-features", "--k", "1"],
    ["report", "accuracy-vs-k", "--ks", "1"],
], ids=["featurize", "label", "rank-features", "accuracy-vs-k"])
@pytest.mark.parametrize("case", list(NONFINITE_FEATURE_EVENTS))
def test_non_finite_feature_is_one_error_line(tmp_path, capsys, argv, case):
    """Events that make a feature not finite, or too large for a float, end
    each featurizing command as one line naming the events file and cascade."""
    line, reason = NONFINITE_FEATURE_EVENTS[case]
    if case.startswith("csv"):
        events = tmp_path / "events.csv"
        events.write_text(EVENTS_CSV_HEADER.replace("\n", ",age_years\n")
                          + "c,r,0.0,,user,\n" + line)
    else:
        events = tmp_path / "events.jsonl"
        events.write_text(ROOT_EVENT + line)
    assert main([*argv, "--in", str(events), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {events}: cascade 'c': {reason}\n"


@pytest.mark.parametrize("field, value, node_type, feature", [
    ("friend_count", "1" + "0" * 308, "user", "friends_avg"),
    ("fan_count", "1" + "0" * 308, "page", "fans_avg"),
    ("subscriber_count", "1" + "0" * 308, "user", "subscribers_avg"),
    ("fb_age_days", "1e308", "user", "fb_ages_avg"),
    ("activity_days", "1e308", "user", "activities_avg"),
    ("age_years", "1e308", "user", "ages_avg"),
], ids=["friends", "fans", "subscribers", "fb-ages", "activities", "ages"])
def test_mean_that_overflows_names_its_feature(tmp_path, capsys, field, value,
                                                node_type, feature):
    """Two finite values whose sum is too large for a float end featurize as
    one line naming the mean's feature."""
    events = tmp_path / "events.jsonl"
    reshare = RESHARE.replace('"user"', f'"{node_type}", "{field}": {value}')
    events.write_text(ROOT_EVENT + reshare + reshare.replace('"a"', '"b"'))
    assert main(["featurize", "--k", "2", "--in", str(events), "--out",
                 str(tmp_path / "features.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: {events}: cascade 'c': feature '{feature}' is not finite: "
        "intermediate overflow in fsum\n"
    )


@pytest.mark.parametrize("line", [
    RESHARE.rstrip("\n") + " x",
    RESHARE.rstrip("\n") * 2,
    "\ufeff" + RESHARE.rstrip("\n"),
    RESHARE.replace("1.0", "NaN").rstrip("\n"),
], ids=["trailing-garbage", "two-objects", "bom", "nan-timestamp"])
def test_malformed_jsonl_line_keeps_its_error_text(tmp_path, capsys, line):
    """An event line that is not exactly one JSON object reports json.loads's
    own error; one that is reports the event's."""
    bad = tmp_path / "events.jsonl"
    bad.write_text(ROOT_EVENT + line + "\n", encoding="utf-8")
    try:
        ReshareEvent(**json.loads(line))
    except ValueError as exc:
        reason = f"{type(exc).__name__}: {exc}"
    assert main(["wiener", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}:2: {reason}\n"


@pytest.mark.parametrize("left_out, error", [
    (("lambda", "bias"), "missing model key 'bias'"),
    (("final_loss", "seed", "lambda"), "missing model key 'lambda'"),
    (("final_loss", "iterations", "converged"), "missing model key 'iterations'"),
    (("converged",), None),
])
def test_model_without_a_scalar(tmp_path, left_out, error):
    """Of several missing one-value keys, the first in ``Model``'s field
    order is named; a model without ``converged`` is unconverged."""
    path = tmp_path / "model.txt"
    path.write_text("".join(
        line + "\n" for line in MODEL_SCALARS.splitlines()
        if line.split()[0] not in left_out
    ) + "feature x 1.0 0.0 1.0\n")
    if error is None:
        assert io.read_model(path).converged is False
    else:
        with pytest.raises(ConfigInvalidError) as excinfo:
            io.read_model(path)
        assert str(excinfo.value) == f"{path}: {error}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weight, ok", [("0.0", False), ("1.0", True)])
def test_cluster_scores_never_rank_by_nan(tmp_path, capsys, weight, ok):
    """A std so small that standardizing overflows: an infinite margin still
    ranks, a NaN one is one error line; numpy warns of neither."""
    model = tmp_path / "model.txt"
    model.write_text(MODEL_SCALARS + f"feature x {weight} 0.0 5e-324\n")
    clusters = tmp_path / "clusters.csv"
    clusters.write_text(CLUSTER_HEADER + "g0,a,5,1,1.0,0\ng0,b,6,0,2.0,0\n")
    code = main(["evaluate", "--cluster", str(clusters), "--model", str(model)])
    err = capsys.readouterr().err
    if ok:
        assert (code, err) == (0, "")
    else:
        assert code == 2
        assert err == (f"error: {model}: the model scores cascade 'a' of cluster "
                       "'g0' as NaN: its margin overflows\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", [["evaluate", "--folds", "2"],
                                     ["train", "--folds", "2", "--model-out", "m.txt"]])
def test_cross_validation_never_scores_by_nan(tmp_path, capsys, command):
    """A held-out row whose margin is inf - inf is one error line naming its
    cascade; no warning precedes it."""
    labeled = tmp_path / "labeled.csv"
    labeled.write_text("a,b,label,final_size,cascade_id\n" + "".join(
        f"{a},{b},{label},5,c{i}\n" for i, (a, b, label) in enumerate([
            (0.0, 0.0, 0), (0.1, 0.2, 0), (0.2, 0.1, 0), (0.3, 0.3, 0),
            (1.0, 1.1, 1), (1.1, 1.0, 1), (1.2, 1.2, 1), (1e308, -1e308, 1),
        ])
    ))
    assert main([*command, "--in", str(labeled), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {labeled}: the model scores held-out cascade 'c7' as NaN: "
        "its margin overflows\n"
    )


BALANCED_LABELED = LABELED_HEADER + "".join(
    f"{x}.0,0,{x % 2},{5 + x},c{x}\n" for x in range(8)
)


@pytest.mark.parametrize("argv, labeled, message", [
    (["featurize", "--k", "0", "--out", "f.csv", "--in", "{events}"], None,
     "k must be >= 1, got 0"),
    (["label", "growth", "--k", "0", "--out", "l.csv", "--in", "{events}"], None,
     "k must be >= 1, got 0"),
    (["report", "accuracy-vs-k", "--ks", "0,5", "--in", "{events}"], None,
     "k must be >= 1, got 0"),
    (["report", "accuracy-vs-k", "--ks", "5,x", "--in", "{events}"], None,
     "--ks: invalid literal for int() with base 10: 'x'"),
    (["train", "--folds", "1", "--model-out", "m.txt", "--in", "{labeled}"],
     BALANCED_LABELED, "folds must be >= 2, got 1"),
    (["evaluate", "--folds", "1", "--in", "{labeled}"], BALANCED_LABELED,
     "folds must be >= 2, got 1"),
    (["rank-features", "--folds", "1", "--in", "{labeled}"], BALANCED_LABELED,
     "folds must be >= 2, got 1"),
    (["train", "--lambda", "-1", "--model-out", "m.txt", "--in", "{labeled}"],
     BALANCED_LABELED, "lambda must be >= 0, got -1.0"),
    (["train", "--lambda", "nan", "--model-out", "m.txt", "--in", "{labeled}"],
     BALANCED_LABELED, "lambda must be >= 0, got nan"),
    (["train", "--lambda", "inf", "--model-out", "m.txt", "--in", "{labeled}"],
     BALANCED_LABELED, "lambda must be finite, got inf"),
    (["rank-features", "--top", "-3", "--in", "{labeled}"], BALANCED_LABELED,
     "--top must be >= 0, got -3"),
    (["label", "structure", "--k", "1", "--quartiles", "--out", "l.csv", "--in",
      "{events}"], None, "--quartiles does not apply to label structure"),
    (["label", "structure", "--k", "1", "--R", "50", "--out", "l.csv", "--in",
      "{events}"], None, "--R does not apply to label structure"),
    (["label", "growth", "--k", "1", "--R", "10", "--quartiles", "--out", "l.csv",
      "--in", "{events}"], None, "quartiles does not apply to fixed-R growth labels"),
    (["label", "cluster", "--k", "1", "--R", "10", "--out", "c.csv", "--in",
      "{events}"], None, "--R does not apply to label cluster"),
    (["label", "cluster", "--k", "1", "--quartiles", "--out", "c.csv", "--in",
      "{events}"], None, "--quartiles does not apply to label cluster"),
    (["rank-features", "--folds", "2", "--in", "{labeled}"],
     BALANCED_LABELED.replace(",5,c0", ",0,c0"),
     "final sizes must be >= 1, got 0.0"),
    (["stats", "fit-alpha", "--xmin", "0", "{numbers}"], None,
     "x_min must be > 0, got 0.0"),
    (["stats", "gini", "{numbers}"], None, "gini requires nonnegative values"),
    (["label", "cluster", "--k", "1", "--m", "0", "--out", "c.csv", "--in", "{events}"],
     None, "m must be >= 1, got 0"),
    (["wiener", "--threads", "0", "{events}"], None, "--threads must be >= 1, got 0"),
    (["label", "growth", "--k", "1", "--threads", "-1", "--out", "l.csv", "--in",
      "{events}"], None, "--threads must be >= 1, got -1"),
    (["label", "growth", "--k", "1", "--m", "3", "--out", "l.csv", "--in", "{events}"],
     None, "--m does not apply to label growth"),
    (["label", "structure", "--k", "1", "--m", "3", "--out", "l.csv", "--in",
      "{events}"], None, "--m does not apply to label structure"),
    (["report", "groups", "--k", "3", "--in", "{events}"], None,
     "--k does not apply to report groups"),
    (["report", "groups", "--R", "10", "--in", "{events}"], None,
     "--R does not apply to report groups"),
    (["report", "groups", "--ks", "5", "--in", "{events}"], None,
     "--ks does not apply to report groups"),
    (["report", "groups", "--lambda", "0.1", "--in", "{events}"], None,
     "--lambda does not apply to report groups"),
    (["report", "groups", "--folds", "4", "--in", "{events}"], None,
     "--folds does not apply to report groups"),
    (["report", "rank-features", "--R", "10", "--in", "{events}"], None,
     "--R does not apply to report rank-features"),
    (["report", "rank-features", "--ks", "5", "--in", "{events}"], None,
     "--ks does not apply to report rank-features"),
    (["report", "accuracy-vs-k", "--k", "3", "--in", "{events}"], None,
     "--k does not apply to report accuracy-vs-k"),
    (["report", "groups", "--seed", "5", "--in", "{events}"], None,
     "--seed does not apply to report groups"),
    (["report", "groups", "--threads", "2", "--in", "{events}"], None,
     "--threads does not apply to report groups"),
    (["report", "rank-features", "--threads", "0", "--in", "{events}"], None,
     "--threads must be >= 1, got 0"),
    (["generate", "--seed", "5", "--params", "{params}"], None,
     "--seed does not apply to generate; set seed in the params file"),
    (["generate", "--threads", "4", "--params", "{params}"], None,
     "--threads does not apply to generate"),
    (["generate", "--threads", "0", "--params", "{params}"], None,
     "--threads must be >= 1, got 0"),
    (["featurize", "--k", "1", "--seed", "5", "--out", "f.csv", "--in", "{events}"],
     None, "--seed does not apply to featurize"),
    (["train", "--threads", "2", "--model-out", "m.txt", "--in", "{labeled}"],
     BALANCED_LABELED, "--threads does not apply to train"),
    (["evaluate", "--threads", "2", "--in", "{labeled}"], BALANCED_LABELED,
     "--threads does not apply to evaluate"),
    (["rank-features", "--threads", "2", "--in", "{labeled}"], BALANCED_LABELED,
     "--threads does not apply to rank-features"),
    (["wiener", "--seed", "9", "{events}"], None, "--seed does not apply to wiener"),
    (["wiener", "--threads", "2", "{events}"], None,
     "--threads does not apply to wiener"),
    (["stats", "--seed", "5", "gini", "{numbers}"], None,
     "--seed does not apply to stats"),
    (["stats", "fit-alpha", "--xmin", "1", "--threads", "2", "{numbers}"], None,
     "--threads does not apply to stats"),
    (["stats", "--threads", "0", "gini", "{numbers}"], None,
     "--threads must be >= 1, got 0"),
    (["pipeline", "--seed", "5", "--config", "{params}"], None,
     "--seed does not apply to pipeline"),
    (["evaluate", "--cluster", "{labeled}", "--model", "m.txt", "--seed", "4"], None,
     "--seed does not apply to evaluate --cluster"),
    (["evaluate", "--cluster", "{labeled}", "--model", "m.txt", "--in", "{labeled}"],
     None, "--in does not apply to evaluate --cluster"),
    (["evaluate", "--cluster", "{labeled}", "--model", "m.txt", "--metrics-out", "x.csv"],
     None, "--metrics-out does not apply to evaluate --cluster"),
    (["evaluate", "--cluster", "{labeled}", "--model", "m.txt", "--per-fold-out",
      "y.csv"], None, "--per-fold-out does not apply to evaluate --cluster"),
    (["evaluate", "--model", "m.txt", "--in", "{labeled}"], BALANCED_LABELED,
     "--model does not apply to evaluate"),
    (["report", "accuracy-vs-k", "--ks", "3,5,3", "--in", "{events}"], None,
     "--ks: k 3 is given twice"),
    (["rank-features", "--top", "0", "--in", "{labeled}"], BALANCED_LABELED,
     "--top 0 prints no row; give --out or --top >= 1"),
    (["evaluate", "--cluster", "{labeled}", "--model", "m.txt", "--folds", "3"], None,
     "--folds does not apply to evaluate --cluster"),
    (["evaluate", "--cluster", "{labeled}", "--model", "m.txt", "--lambda", "5"], None,
     "--lambda does not apply to evaluate --cluster"),
    (["report", "accuracy-vs-k", "--ks", "0,5", "--in", "{numbers}"], None,
     "k must be >= 1, got 0"),
    (["report", "accuracy-vs-k", "--ks", "5,0", "--in", "nowhere/missing.jsonl"], None,
     "k must be >= 1, got 0"),
    (["featurize", "--k", "0", "--out", "f.csv", "--in", "nowhere/missing.jsonl"], None,
     "k must be >= 1, got 0"),
    (["report", "rank-features", "--k", "0", "--in", "nowhere/missing.jsonl"], None,
     "k must be >= 1, got 0"),
    (["label", "cluster", "--k", "1", "--m", "0", "--out", "c.csv", "--in",
      "nowhere/missing.jsonl"], None, "m must be >= 1, got 0"),
    (["train", "--folds", "1", "--model-out", "m.txt", "--in", "nowhere/missing.csv"],
     None, "folds must be >= 2, got 1"),
    (["train", "--folds", "-1", "--model-out", "m.txt", "--in", "nowhere/missing.csv"],
     None, "folds must be >= 2, got -1"),
], ids=[
    "featurize-k-0", "label-k-0", "report-ks-0", "report-ks-not-int",
    "train-folds-1", "evaluate-folds-1", "rank-features-folds-1",
    "negative-lambda", "nan-lambda", "inf-lambda", "rank-features-top-negative",
    "structure-quartiles", "structure-R", "fixed-R-quartiles", "cluster-R",
    "cluster-quartiles", "rank-features-final-size-0",
    "fit-alpha-xmin-0", "gini-negative-value", "cluster-m-0",
    "threads-0", "threads-negative", "growth-m", "structure-m",
    "groups-k", "groups-R", "groups-ks", "groups-lambda", "groups-folds",
    "rank-features-R", "rank-features-ks", "accuracy-vs-k-k",
    "groups-seed", "groups-threads", "report-threads-0",
    "generate-seed", "generate-threads", "generate-threads-0",
    "featurize-seed", "train-threads", "evaluate-threads", "rank-features-threads",
    "wiener-seed", "wiener-threads", "stats-seed", "stats-threads", "stats-threads-0",
    "pipeline-seed", "cluster-eval-seed", "cluster-eval-in", "cluster-eval-metrics-out",
    "cluster-eval-per-fold-out", "evaluate-model", "report-ks-repeated",
    "rank-features-top-0", "cluster-eval-folds", "cluster-eval-lambda",
    "report-ks-0-before-a-non-object-input", "report-ks-0-before-a-missing-input",
    "featurize-k-0-before-a-missing-input", "rank-features-k-0-before-a-missing-input",
    "cluster-m-0-before-a-missing-input", "train-folds-1-before-a-missing-input",
    "train-folds-negative-before-a-missing-input",
])
def test_out_of_range_argument_is_one_error(tmp_path, capsys, argv, labeled, message):
    paths = {"events": tmp_path / "events.jsonl", "labeled": tmp_path / "labeled.csv",
             "numbers": tmp_path / "numbers.txt", "params": tmp_path / "params.cfg"}
    paths["events"].write_text(ROOT_EVENT + RESHARE)
    paths["params"].write_text("n_nodes = 300\nn_cascades = 5\n")
    paths["labeled"].write_text(labeled or "")
    paths["numbers"].write_text("3\n-1\n2\n")
    argv = [arg.format(**paths) for arg in argv]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("value, kind", [
    ("3", "number"), ("[1, 2]", "array"), ('"x"', "string"), ("null", "null"),
])
@pytest.mark.parametrize("reader", ["events", "content"])
def test_non_object_json_line_is_one_error(tmp_path, capsys, reader, value, kind):
    """A JSONL line that holds valid JSON other than an object names its line
    and the value's JSON type, in both JSONL readers."""
    events, bad = tmp_path / "events.jsonl", tmp_path / "bad.jsonl"
    events.write_text(ROOT_EVENT + RESHARE)
    if reader == "events":
        bad.write_text(ROOT_EVENT + value + "\n")
        argv = ["wiener", str(bad)]
    else:
        bad.write_text('{"cascade_id": "c"}\n' + value + "\n")
        argv = ["featurize", "--k", "1", "--in", str(events), "--content", str(bad),
                "--out", str(tmp_path / "features.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}:2: expected a JSON object, got {kind}"
    ]


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def _command_forms():
    """(command key, words, parser) of every form of a command that main
    tells apart (each ``label <task>``, each ``report <kind>``, ``evaluate``
    with and without ``--cluster``), and each subcommand of ``stats`` under
    its command's key. The words hold every positional argument; every value
    is ``3``, which names no file."""
    for name, parser in _subparsers(build_parser()).items():
        nested = _subparsers(parser)
        for sub, p in nested.items() or [(None, parser)]:
            words = [name] if sub is None else [name, sub]
            positionals = [a for a in p._actions if not a.option_strings
                           and not isinstance(a, argparse._SubParsersAction)]
            choices = [a.choices or ["3"] for a in positionals]
            for values in itertools.product(*choices):
                key = f"{name} {values[0]}" if name in ("label", "report") else name
                yield key, [*words, *values], p
                if name == "evaluate":
                    yield "evaluate --cluster", [*words, "--cluster", "3"], p


def test_every_option_is_refused_exactly_where_it_is_not_read(tmp_path, capsys,
                                                                monkeypatch):
    """For each command form and each option of ``cli._OPTIONS`` it declares,
    main refuses the option exactly when the form is not one of its readers."""
    monkeypatch.chdir(tmp_path)
    by_flag = {flag: readers for flag, _, readers in cli._OPTIONS.values()}
    keys, wrong = set(), []
    for key, words, parser in _command_forms():
        keys.add(key)
        options = [a for a in parser._actions if a.option_strings]
        for action in options:
            flag = action.option_strings[0]
            if flag not in by_flag:
                continue
            required = [[a.option_strings[0], "3"] for a in options
                        if a.required and a is not action]
            value = [] if action.nargs == 0 else ["3"]
            main([*words, *itertools.chain(*required), flag, *value])
            err = capsys.readouterr().err
            refused = err.startswith(f"error: {flag} does not apply to {key}")
            if refused == (key in by_flag[flag]):
                wrong.append((key, flag, err))
    assert wrong == []
    assert {reader for readers in by_flag.values() for reader in readers} <= keys


def _readme_option_table() -> list[tuple[str, str, tuple[str, ...]]]:
    """(option, default, readers) of each row of the README's option table."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    start = lines.index("| option | default | read by |") + 2
    rows = []
    for line in itertools.takewhile(lambda s: s.startswith("|"), lines[start:]):
        option, default, readers = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((option.strip("`"), default.strip("`"),
                     tuple(r.strip().strip("`") for r in readers.split(","))))
    return rows


def test_readme_option_table_is_the_code_table():
    """The README's option table lists cli._OPTIONS row for row: a default of
    None reads ``none`` and False ``off``."""
    def shown(default) -> str:
        return "none" if default is None else "off" if default is False else str(default)

    assert _readme_option_table() == [
        (flag, shown(default), readers) for flag, default, readers in cli._OPTIONS.values()
    ]


def test_rank_features_top_0_writes_only_its_csv(tmp_path, capsys):
    labeled, ranked = tmp_path / "labeled.csv", tmp_path / "ranked.csv"
    labeled.write_text(BALANCED_LABELED)
    assert main(["rank-features", "--top", "0", "--folds", "2", "--in", str(labeled),
                 "--out", str(ranked)]) == 0
    assert capsys.readouterr().out == ""
    assert ranked.read_text().splitlines()[0] == "feature,accuracy,pearson_log_size"


@pytest.mark.parametrize("command", [
    ["evaluate", "--folds", "{folds}", "--in"],
    ["train", "--folds", "{folds}", "--model-out", "model.txt", "--in"],
    ["rank-features", "--folds", "{folds}", "--in"],
])
@pytest.mark.parametrize("folds", [2, 10])
def test_class_of_one_example_names_its_file(tmp_path, capsys, command, folds):
    """Cross-validation refuses a class of one example before it fits, and
    train before it writes its model."""
    labeled = tmp_path / "labeled.csv"
    labeled.write_text(LABELED_HEADER + "".join(
        f"{x}.0,0,{int(x == 3)},{5 + x},c{x}\n" for x in range(12)
    ))
    argv = [arg.format(folds=folds) for arg in command]
    assert main([*argv, str(labeled), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {labeled}: class 1 has 1 example; cross-validation needs >= 2 "
        "of each class"
    ]
    assert not (tmp_path / "model.txt").exists()


def test_train_names_its_file_for_a_single_class(tmp_path, capsys):
    labeled = tmp_path / "labeled.csv"
    labeled.write_text(LABELED_HEADER + "".join(
        f"{x}.0,0,0,{5 + x},c{x}\n" for x in range(3)
    ))
    assert main(["train", "--folds", "0", "--model-out", "model.txt", "--in",
                 str(labeled), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {labeled}: labels contain a single class: [0.0]"
    ]
    assert not (tmp_path / "model.txt").exists()


@pytest.mark.filterwarnings("error")
def test_column_too_large_to_correlate_names_its_feature(tmp_path, capsys):
    """A column whose squares overflow is dropped from each fit and ends
    rank-features as one line naming it, with no traceback or warning."""
    labeled = tmp_path / "labeled.csv"
    labeled.write_text(LABELED_HEADER + "".join(
        f"{1e300 if x < 2 else x},0,{x % 2},{5 + x},c{x}\n" for x in range(8)
    ))
    assert main(["rank-features", "--folds", "2", "--in", str(labeled)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {labeled}: feature 'x' is too large to correlate with log final size"
    ]


def _equal_cascades(path: Path) -> Path:
    """12 cascades of three reshares each, so every growth label is 1."""
    path.write_text("".join(
        ROOT_EVENT.replace('"c"', f'"c{i}"') + "".join(
            RESHARE.replace('"c"', f'"c{i}"').replace('"a"', f'"a{j}"')
            .replace("1.0", f"{j + 1}.0")
            for j in range(3)
        )
        for i in range(12)
    ))
    return path


DEGENERATE = "label_growth: all labels identical (1); dataset is degenerate"


def test_warning_is_one_line_naming_its_input(tmp_path, capsys):
    """A library warning prints as one line after the --in path, and the
    command still writes its dataset."""
    events = _equal_cascades(tmp_path / "events.jsonl")
    assert main(["label", "growth", "--k", "2", "--in", str(events), "--out",
                 "labeled.csv", "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err.splitlines() == [f"warning: {events}: {DEGENERATE}"]
    assert (tmp_path / "labeled.csv").exists()


@pytest.mark.parametrize("kind", [
    ["accuracy-vs-k", "--ks", "2"], ["rank-features", "--k", "2"],
])
def test_single_class_report_names_its_events_file(tmp_path, capsys, kind):
    events = _equal_cascades(tmp_path / "events.jsonl")
    assert main(["report", *kind, "--folds", "2", "--in", str(events)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {events}: {DEGENERATE}",
        f"error: {events}: cross_validate needs both classes",
    ]


@pytest.mark.parametrize("command", [
    ["wiener"],
    ["stats", "gini"],
    ["train", "--model-out", "model.txt", "--in"],
    ["featurize", "--k", "1", "--out", "features.csv", "--in"],
])
def test_non_utf8_input_names_its_line(tmp_path, capsys, command):
    bad = tmp_path / ("data.csv" if "train" in command else "data.txt")
    lines = (LABELED_HEADER + "1.0,0,1,5,a\n" if "train" in command
             else "1\n2\n" if "stats" in command else ROOT_EVENT + RESHARE)
    bad.write_bytes(lines.encode() + b"\xff\xfe 3\n")
    assert main([*command, str(bad), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}:3: not UTF-8 text"]


@pytest.mark.parametrize("command", [
    ["wiener", "{dir}"],
    ["train", "--model-out", "model.txt", "--in", "{dir}"],
    ["label", "growth", "--k", "1", "--in", "{events}", "--out", "{dir}"],
])
def test_directory_for_a_file_is_one_error(tmp_path, capsys, command):
    events = tmp_path / "events.jsonl"
    other = RESHARE.replace('"c"', '"d"')
    events.write_text(ROOT_EVENT + RESHARE + ROOT_EVENT.replace('"c"', '"d"') + other
                      + other.replace('"a"', '"b"'))
    argv = [arg.format(dir=tmp_path, events=events) for arg in command]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: Is a directory: {tmp_path}"
    ]


def test_unknown_model_key_names_at_most_40_chars(tmp_path, capsys):
    clusters = tmp_path / "clusters.csv"
    clusters.write_text(CLUSTER_HEADER + "g0,a,5,1,1.0,0\n")
    header = ",".join(f"column_{i}" for i in range(100))
    bad = tmp_path / "labeled.csv"
    bad.write_text(header + "\n")
    assert main(["evaluate", "--cluster", str(clusters), "--model", str(bad)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}:1: unknown model key {header[:40]!r}"
    ]


@pytest.mark.parametrize("argv", [
    ["label", "growth", "--k", "5", "--in", "{out}/events.jsonl", "--out", "{x}"],
    ["label", "growth", "--k", "5", "--in", "{out}/events.jsonl", "--out",
     "{tmp}/l.csv", "--meta-out", "{x}"],
    ["featurize", "--k", "5", "--in", "{out}/events.jsonl", "--out", "{x}"],
    ["train", "--folds", "0", "--in", "{out}/labeled.csv", "--model-out", "{x}"],
    ["evaluate", "--folds", "2", "--in", "{out}/labeled.csv", "--metrics-out", "{x}"],
    ["generate", "--params", "{tmp}/params.cfg", "--out-events", "{x}"],
    ["rank-features", "--folds", "2", "--in", "{out}/labeled.csv", "--out", "{x}"],
    ["report", "accuracy-vs-k", "--ks", "5", "--folds", "2", "--in",
     "{out}/events.jsonl", "--out", "{x}"],
], ids=["label-out", "label-meta-out", "featurize-out", "train-model-out",
        "evaluate-metrics-out", "generate-out-events", "rank-features-out",
        "report-out"])
def test_output_in_missing_directory_is_one_error(workspace, tmp_path, capsys, argv):
    _, _, out = workspace
    (tmp_path / "params.cfg").write_text("n_nodes = 300\nn_cascades = 10\n")
    x = tmp_path / "nodir" / "x.csv"
    argv = [arg.format(out=out, tmp=tmp_path, x=x) for arg in argv]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: no such output directory: {x}"
    ]


def test_generate_creates_its_out_dir(tmp_path, capsys):
    (tmp_path / "params.cfg").write_text("n_nodes = 300\nn_cascades = 10\n")
    out = tmp_path / "nodir" / "a"
    argv = ["generate", "--params", str(tmp_path / "params.cfg"), "--out-dir", str(out)]
    assert main(argv) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "content.jsonl", "events.jsonl", "graph.edges"
    ]


def test_write_error_without_a_path_has_no_path(tmp_path, capsys, monkeypatch):
    class FullStream:
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

        def flush(self):
            pass

    events = tmp_path / "events.jsonl"
    events.write_text(ROOT_EVENT + RESHARE)
    monkeypatch.setattr(sys, "stdout", FullStream())
    assert main(["wiener", str(events)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: No space left on device"]


def test_label_and_pipeline_without_graph_write_the_same_task_meta(tmp_path, capsys):
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text("n_nodes = 600\nn_cascades = 80\nx_min = 5.0\nseed = 5\n"
                   "folds = 3\nuse_graph = false\n")
    out = tmp_path / "run"
    assert main(["pipeline", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert main([
        "label", "growth", "--k", "5", "--in", str(out / "events.jsonl"),
        "--content", str(out / "content.jsonl"), "--seed", "5",
        "--out", str(tmp_path / "labeled.csv"), "--meta-out", str(tmp_path / "meta.json"),
    ]) == 0
    capsys.readouterr()
    labeled_meta = json.loads((tmp_path / "meta.json").read_text())
    assert labeled_meta["did_leave_approximate"] is True
    assert json.loads((out / "task_meta.json").read_text()) == labeled_meta
    assert (tmp_path / "labeled.csv").read_bytes() == (out / "labeled.csv").read_bytes()


@pytest.mark.parametrize("command", [
    ["wiener"],
    ["featurize", "--k", "1", "--out", "features.csv", "--in"],
    ["label", "growth", "--k", "1", "--out", "labeled.csv", "--in"],
    ["report", "groups", "--out", "groups.csv", "--in"],
])
def test_tree_error_names_its_line_in_every_command(tmp_path, capsys, command):
    bad = tmp_path / "events.jsonl"
    bad.write_text(
        ROOT_EVENT + ROOT_EVENT.replace('"c"', '"d"') + RESHARE.replace('"r"', '"zz"')
    )
    assert main([*command, str(bad), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}:3: cascade 'c': event 'a' references missing parent 'zz'"
    ]


IDS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1)
FLOATS = st.floats(allow_nan=False)
COUNTS = st.integers(min_value=0, max_value=2**64)
EVENTS = st.builds(
    ReshareEvent,
    cascade_id=st.sampled_from(["c0", "c1", "c 2"]) | IDS,
    node_id=IDS,
    timestamp=st.floats(allow_nan=False, allow_infinity=False),
    parent_id=st.none() | IDS,
    node_type=st.sampled_from(NODE_TYPES),
    outdeg=COUNTS,
    friend_count=st.none() | COUNTS,
    fan_count=st.none() | COUNTS,
    subscriber_count=st.none() | COUNTS,
    age_years=st.none() | FLOATS,
    fb_age_days=st.none() | FLOATS,
    activity_days=st.none() | FLOATS,
    gender=st.none() | IDS,
    views_orig_cum=st.none() | COUNTS,
    views_reshares_cum=st.none() | COUNTS,
)


@given(events=st.lists(EVENTS, max_size=8))
def test_events_jsonl_csv_roundtrip(tmp_path_factory, events):
    expected: dict[str, list[ReshareEvent]] = {}
    for e in events:
        expected.setdefault(e.cascade_id, []).append(e)
    root = tmp_path_factory.mktemp("events")
    io.write_events_jsonl(root / "events.jsonl", [events])
    io.write_events_csv(root / "events.csv", [events])
    for name in ("events.jsonl", "events.csv"):
        assert io.read_events(root / name) == expected
        # A leading byte-order mark, as spreadsheets save, is skipped; the
        # writers write none.
        text = (root / name).read_bytes()
        assert not text.startswith(b"\xef\xbb\xbf")
        (root / f"marked-{name}").write_bytes(b"\xef\xbb\xbf" + text)
        assert io.read_events(root / f"marked-{name}") == expected


# Text with what json escapes: quotes, backslashes, control characters,
# non-ASCII and lone surrogates.
JSON_TEXT = st.text(
    st.characters() | st.characters(categories=["Cs"]) | st.sampled_from('"\\\x00\n\x7f')
)
# Any float, often one json writes in its own way (-0.0, subnormals, the
# largest magnitudes, NaN and the infinities), and a float subclass.
JSON_FLOATS = (
    st.floats() | st.floats().map(np.float64)
    | st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e308, math.nan, math.inf, -math.inf])
)
# Counts up to 2**200, negative ones, and True in an int field.
JSON_INTS = st.integers(min_value=-2**200, max_value=2**200) | st.just(True)
JSON_EVENTS = st.builds(
    ReshareEvent,
    cascade_id=JSON_TEXT,
    node_id=JSON_TEXT,
    timestamp=st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0),
    parent_id=st.none() | JSON_TEXT,
    node_type=st.sampled_from(NODE_TYPES),
    outdeg=st.integers(min_value=0, max_value=2**200) | st.just(True),
    friend_count=st.none() | JSON_INTS,
    fan_count=st.none() | JSON_INTS,
    subscriber_count=st.none() | JSON_INTS,
    age_years=st.none() | JSON_FLOATS,
    fb_age_days=st.none() | JSON_FLOATS,
    activity_days=st.none() | JSON_FLOATS,
    gender=st.none() | JSON_TEXT,
    views_orig_cum=st.none() | JSON_INTS,
    views_reshares_cum=st.none() | JSON_INTS,
)


@given(events=st.lists(JSON_EVENTS, max_size=8))
def test_events_jsonl_is_what_json_dumps_writes(tmp_path_factory, events):
    path = tmp_path_factory.mktemp("events") / "events.jsonl"
    io.write_events_jsonl(path, [events[:2], events[2:]])
    expected = "".join(
        json.dumps(io.event_to_dict(e), sort_keys=True) + "\n" for e in events
    )
    assert path.read_bytes() == expected.encode()


def test_generated_events_take_the_line_formatter():
    """Every event the generator makes is formatted without the encoder."""
    params = SynthParams(n_nodes=600, n_cascades=80, x_min=5.0, seed=5)
    cascades, _ = simulate_cascades(generate_social_graph(params, params.seed),
                                    params, params.seed)
    assert [e for events in cascades for e in events if io._event_line(e) is None] == []


# How the readers convert each event field, as ReshareEvent(**kw) takes it.
CONVERT = {
    "cascade_id": str, "node_id": str, "timestamp": float, "parent_id": str,
    "node_type": str, "outdeg": int, "friend_count": int, "fan_count": int,
    "subscriber_count": int, "age_years": float, "fb_age_days": float,
    "activity_days": float, "gender": str, "views_orig_cum": int,
    "views_reshares_cum": int,
}
TEXT = st.text(alphabet='ab1 ,"', min_size=1, max_size=4)
RAW = {
    str: TEXT | st.integers(-5, 5) | st.booleans(),
    int: st.integers(-3, 2**70) | st.integers(-3, 99).map(str)
    | st.floats(-1e3, 1e3) | st.booleans(),
    float: st.floats() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False).map(repr) | st.booleans(),
}
REQUIRED = ("cascade_id", "node_id", "timestamp")
RAW_ROWS = st.fixed_dictionaries(
    {"extra": st.integers(), **{name: RAW[CONVERT[name]] for name in REQUIRED}},
    optional={
        **{name: st.none() | st.just("") | RAW[kind] for name, kind in CONVERT.items()
           if name not in REQUIRED},
        "node_type": st.sampled_from(["user", "page", "bot", ""]),
    },
)


def _lossless(name, v):
    """``CONVERT[name](v)``; a bool, or a finite float with a fraction for
    an int, is refused, since the conversion would lose it."""
    kind = CONVERT[name]
    if type(v) is bool or (
        kind is int and type(v) is float and math.isfinite(v) and not v.is_integer()
    ):
        raise ValueError(f"{name}: {v!r} does not convert to {kind.__name__}")
    return kind(v)


@given(row=RAW_ROWS)
def test_read_events_matches_constructor(tmp_path_factory, row):
    """Each reader's event equals ``ReshareEvent(**kw)`` over the row's
    losslessly converted non-empty fields, field for field and type for
    type; a row whose conversion would lose a value, or that the constructor
    rejects, fails with a ValueError or the constructor's own error; events
    are frozen."""
    root = tmp_path_factory.mktemp("rows")
    jsonl, csv_file = root / "events.jsonl", root / "events.csv"
    jsonl.write_text(json.dumps(row) + "\n")
    cells = {k: "" if v is None else repr(v) if type(v) is float else str(v)
             for k, v in row.items()}
    io.write_csv(csv_file, list(cells), [list(cells.values())])
    for path, source in ((jsonl, row), (csv_file, cells)):
        try:
            kw = {
                name: _lossless(name, v)
                for name, v in source.items()
                if name in CONVERT and v is not None and v != ""
            }
        except ValueError:
            with pytest.raises(ConfigInvalidError, match=": ValueError: "):
                io.read_events(path)
            continue
        try:
            expected = ReshareEvent(**kw)
        except (ValueError, TypeError) as exc:
            with pytest.raises(ConfigInvalidError) as info:
                io.read_events(path)
            message = str(info.value)
            assert message.startswith(f"{path}:")
            assert f": {type(exc).__name__}: " in message
            if type(exc) is ValueError:
                assert message.endswith(f": ValueError: {exc}")
            continue
        (events,) = io.read_events(path).values()
        assert typed_fields(events[0]) == typed_fields(expected)
        with pytest.raises(FrozenInstanceError):
            events[0].node_id = "x"


SHORT_IDS = st.text(alphabet="ab1", min_size=1, max_size=2)


@st.composite
def shared_rows(draw):
    """Valid event rows whose ids, types and genders repeat: a parent_id
    names a node_id drawn for an earlier row, a later row or no row."""
    node_ids = draw(st.lists(SHORT_IDS | st.integers(0, 3), min_size=1, max_size=12))
    rows = []
    for nid in node_ids:
        row = {
            "cascade_id": draw(st.sampled_from(["c0", "c1", 7])),
            "node_id": nid,
            "timestamp": draw(st.floats(0, 100)),
            "parent_id": draw(st.none() | st.sampled_from(node_ids) | SHORT_IDS),
        }
        for name, values in (("node_type", ["user", "page", "", None]),
                             ("gender", ["female", "male", "", None])):
            value = draw(st.sampled_from(values))
            if value is not None:
                row[name] = value
        rows.append(row)
    return rows


STR_FIELDS = [name for name, kind in CONVERT.items() if kind is str]


@given(rows=shared_rows(),
       edges=st.lists(st.tuples(SHORT_IDS, SHORT_IDS), max_size=20),
       directed=st.booleans())
def test_readers_hold_each_string_once(tmp_path_factory, rows, edges, directed):
    """In one read, each distinct string of the event fields is one object,
    so a reshare's parent_id is its parent's node_id object; each event
    still equals ``ReshareEvent(**kw)`` type for type. The edge list's
    adjacency keys and members hold one object per id too."""
    root = tmp_path_factory.mktemp("shared")
    jsonl, csv_file = root / "events.jsonl", root / "events.csv"
    jsonl.write_text("".join(json.dumps(row) + "\n" for row in rows))
    header = ["cascade_id", "node_id", "timestamp", "parent_id", "node_type", "gender"]
    io.write_csv(csv_file, header, [
        ["" if row.get(name) is None else str(row[name]) for name in header]
        for row in rows
    ])
    expected: dict[str, list[ReshareEvent]] = {}
    for row in rows:
        kw = {name: CONVERT[name](v) for name, v in row.items()
              if v is not None and v != ""}
        expected.setdefault(kw["cascade_id"], []).append(ReshareEvent(**kw))
    for path in (jsonl, csv_file):
        grouped = io.read_events(path)
        assert list(grouped) == list(expected)
        for events, want in zip(grouped.values(), expected.values()):
            assert [typed_fields(e) for e in events] == [typed_fields(e) for e in want]
        events = [e for es in grouped.values() for e in es]
        held: dict[str, str] = {}
        for value in (getattr(e, name) for e in events for name in STR_FIELDS):
            if value is not None:
                assert held.setdefault(value, value) is value
        node = {e.node_id: e.node_id for e in events}
        for e in events:
            if e.parent_id in node:
                assert e.parent_id is node[e.parent_id]

    edge_file = root / "graph.edges"
    edge_file.write_text("".join(f"{u} {v}\n" for u, v in edges))
    graph = io.read_edge_list(edge_file, directed=directed)
    plain = SocialGraph(directed=directed)
    for u, v in edges:
        plain.add_edge(u, v)
    assert graph.adjacency == plain.adjacency
    held = {}
    for u, members in graph.adjacency.items():
        for value in (u, *members):
            assert held.setdefault(value, value) is value


INT_FIELDS = [name for name, kind in CONVERT.items() if kind is int]
FLOAT_FIELDS = [name for name, kind in CONVERT.items() if kind is float]
# Each kind of single fault in an event row: the fields it may hit and the
# bad values it puts there (None removes a required field).
EVENT_FAULTS = [
    (st.sampled_from(REQUIRED), st.none()),
    (st.sampled_from(INT_FIELDS), st.sampled_from(["many", "2.5", "1e3", "0x1"])),
    (st.sampled_from(FLOAT_FIELDS), st.sampled_from(["soon", "1,5", "e"])),
    (st.sampled_from(INT_FIELDS), st.sampled_from([math.inf, -math.inf])),
    (st.just("node_type"), st.sampled_from(["bot", "USER", " user"])),
    (st.just("timestamp"), st.sampled_from([math.nan, math.inf, -math.inf])),
    (st.just("outdeg"), st.integers(-(10**6), -1)),
]
VALID_FIELDS = {
    int: st.integers(0, 10**6), float: st.floats(-1e6, 1e6),
    str: st.sampled_from(["f", "m", "x y"]),
}


@st.composite
def one_fault_rows(draw):
    """A reshare of cascade ``c`` under its root ``r`` whose fields are all
    valid but one."""
    row = {"cascade_id": "c", "node_id": "a", "parent_id": "r",
           "timestamp": draw(VALID_FIELDS[float])}
    row.update(draw(st.fixed_dictionaries({}, optional={
        name: VALID_FIELDS[kind] for name, kind in CONVERT.items()
        if name not in row and name != "node_type"
    })))
    row["node_type"] = draw(st.sampled_from(NODE_TYPES))
    fields, values = draw(st.sampled_from(EVENT_FAULTS))
    name, value = draw(fields), draw(values)
    if value is None:
        del row[name]
    else:
        row[name] = value
    return row


def _one_fault_reason(source):
    """``<Type>: <message>`` of the one fault in an event row, built from
    int, float and ReshareEvent(**kw) as the readers must report it."""
    missing = [name for name in REQUIRED if source.get(name) in (None, "")]
    if missing:
        return f"TypeError: missing required field {missing[0]!r}"
    try:
        ReshareEvent(**{name: CONVERT[name](v) for name, v in source.items()
                        if v is not None and v != ""})
    except (ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"
    raise AssertionError(f"row has no fault: {source}")


@given(row=one_fault_rows())
def test_event_row_with_one_fault_reports_its_error(tmp_path_factory, row):
    """An event row with exactly one faulty field ends ``wiener`` as one
    line naming the row's line and that field's own error, in JSONL and CSV."""
    root = tmp_path_factory.mktemp("fault")
    jsonl, csv_file = root / "events.jsonl", root / "events.csv"
    jsonl.write_text(ROOT_EVENT + json.dumps(row) + "\n")
    cells = {name: "" if (v := row.get(name)) is None else repr(v) if type(v) is float
             else str(v) for name in CONVERT}
    root_cells = ["c", "r", "0.0"] + [""] * (len(CONVERT) - 3)
    io.write_csv(csv_file, list(CONVERT), [root_cells, list(cells.values())])
    for path, source, line in ((jsonl, row, 2), (csv_file, cells, 3)):
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            assert main(["wiener", str(path)]) == 2
        assert err.getvalue() == f"error: {path}:{line}: {_one_fault_reason(source)}\n"


SIZES = st.integers(min_value=0, max_value=2**53)
# Cluster-CSV sizes are read exactly, past float64's integers too; a
# labeled CSV's sizes are float64 by contract.
CLUSTER_SIZES = SIZES | st.sampled_from([2**53 + 1, 10**300])
CSV_IDS = IDS | st.sampled_from(["c,1", 'c"2"', "c03\r", "\rc", "c\r\n4"])
# Matrix values at a float's extremes: both zeros, the smallest subnormal, the
# smallest normal and the largest finite magnitudes, besides any finite float.
EXTREME_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
    1.7976931348623157e308, -1.7976931348623157e308,
]) | st.floats(allow_nan=False, allow_infinity=False)
# Feature names that a header may carry: one token without whitespace.
FEATURE_NAMES = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Z")), min_size=1, max_size=4
)


@st.composite
def layouts(draw, keys):
    """Up to three features' columns in the layout (each value column, then
    its missing indicator), none of them one of ``keys``."""
    columns = layout_columns(draw(st.lists(FEATURE_NAMES, max_size=3, unique=True)))
    assume(len(set(columns)) == len(columns) and not set(columns) & set(keys))
    return columns


@st.composite
def layout_rows(draw, n, width):
    """``n`` flat rows of ``width`` layout columns: a missing value is 0.0
    with its flag 1.0, and any other value may be extreme."""
    rows = array("d")
    for _ in range(n * width // 2):
        missing = draw(st.booleans())
        rows.extend([0.0 if missing else draw(EXTREME_FLOATS), float(missing)])
    return rows


@st.composite
def datasets(draw):
    columns = draw(layouts(("label", "final_size", "cascade_id")))
    n = draw(st.integers(min_value=1, max_value=6))
    return TaskDataset(
        examples=tuple(draw(st.lists(CSV_IDS, min_size=n, max_size=n, unique=True))),
        final_sizes=tuple(draw(st.lists(SIZES, min_size=n, max_size=n))),
        rows=draw(layout_rows(n, len(columns))),
        labels=tuple(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n))),
        columns=columns,
        k=1,
        threshold=0.5,
    )


@st.composite
def cluster_instances(draw):
    columns = draw(layouts(io._CLUSTER_KEYS))
    cluster_ids = draw(st.lists(CSV_IDS, min_size=1, max_size=3, unique=True))
    instances = []
    for cluster_id in cluster_ids:
        m = draw(st.integers(min_value=1, max_value=4))
        instances.append(ClusterInstance(
            cluster_id,
            members=tuple(draw(st.lists(CSV_IDS, min_size=m, max_size=m, unique=True))),
            final_sizes=tuple(draw(st.lists(CLUSTER_SIZES, min_size=m, max_size=m))),
            rows=draw(layout_rows(m, len(columns))),
            columns=columns,
            winner_index=draw(st.integers(min_value=0, max_value=m - 1)),
        ))
    return instances


@given(ds=datasets())
def test_labeled_csv_roundtrip_property(tmp_path_factory, ds):
    """Every float reads back bit for bit, -0.0 and the extremes included;
    labels, sizes, ids and columns read back equal."""
    path = tmp_path_factory.mktemp("labeled") / "labeled.csv"
    io.write_labeled_csv(path, ds)
    X, y, sizes, ids, columns = io.read_labeled_csv(path)
    assert ids == list(ds.examples)
    assert sizes.tolist() == list(ds.final_sizes)
    assert y.tolist() == list(ds.labels)
    assert columns == ds.columns
    assert X.shape == (len(ds.examples), len(ds.columns))
    assert X.tobytes() == ds.rows.tobytes()
    assert X.dtype == np.float64 and X.flags.c_contiguous and X.flags.writeable


@given(instances=cluster_instances())
def test_cluster_csv_roundtrip_property(tmp_path_factory, instances):
    """Every float reads back bit for bit, -0.0 and the extremes included;
    ids, sizes, winners and columns read back equal."""
    path = tmp_path_factory.mktemp("clusters") / "clusters.csv"
    io.write_cluster_csv(path, instances)
    back = io.read_cluster_csv(path)
    assert [
        (b.cluster_id, b.members, b.final_sizes, b.winner_index, b.columns,
         b.rows.tobytes())
        for b in back
    ] == [
        (i.cluster_id, i.members, i.final_sizes, i.winner_index, i.columns,
         i.rows.tobytes())
        for i in instances
    ]


@pytest.mark.parametrize("cell, size", [
    ("3.0", 3), ("1e3", 1000), ("-0.0", 0), ("1" + "0" * 300 + ".0", 10**300),
    ("1e-400", None),
])
def test_cluster_final_size_is_read_exactly(tmp_path, cell, size):
    """A count cell in another form than the writer's digits is read
    exactly too, and refused unless it is a whole number."""
    path = tmp_path / "clusters.csv"
    path.write_text(CLUSTER_HEADER + f"g0,a,{cell},1,1.0,0\n")
    if size is None:
        with pytest.raises(ConfigInvalidError, match=(
            f"^{re.escape(str(path))}:2: final_size must be a whole number >= 0 "
            f"and is_winner 0 or 1, got {re.escape(cell)} and 1$"
        )):
            io.read_cluster_csv(path)
    else:
        assert io.read_cluster_csv(path)[0].final_sizes == (size,)


# How the content reader converts each field, as ContentRecord(**kw) takes it.
CONTENT_CONVERT = {
    **dict.fromkeys(CONTENT_SCORE_NAMES + ("liwc_pos", "liwc_neg", "liwc_soc"), float),
    "is_en": bool, "has_caption": bool, "category": str, "cluster_id": str,
}
CONTENT_RAW = {
    float: st.floats(0.0, 1.0) | st.integers(0, 1),
    bool: st.booleans() | st.integers(0, 1),
    str: TEXT | st.integers(-5, 5) | st.booleans(),
}
CONTENT_ROWS = st.fixed_dictionaries({}, optional={
    name: st.none() | CONTENT_RAW[kind] for name, kind in CONTENT_CONVERT.items()
})


@given(rows=st.dictionaries(IDS, CONTENT_ROWS, max_size=4))
def test_content_jsonl_roundtrip_property(tmp_path_factory, rows):
    """Each content line reads as ``ContentRecord(**kw)`` over its converted
    non-null fields, type for type, and one with a boolean for a label is
    refused; what the writer writes reads back the same."""
    root = tmp_path_factory.mktemp("content")
    raw, written = root / "raw.jsonl", root / "written.jsonl"
    raw.write_text("".join(
        json.dumps({"cascade_id": cid, **row}) + "\n" for cid, row in rows.items()
    ))
    if any(CONTENT_CONVERT[name] is str and type(v) is bool
           for row in rows.values() for name, v in row.items()):
        with pytest.raises(ConfigInvalidError, match=": ValueError: .* must be a string"):
            io.read_content_jsonl(raw)
        return
    expected = {
        cid: ContentRecord(**{
            name: CONTENT_CONVERT[name](v) for name, v in row.items() if v is not None
        })
        for cid, row in rows.items()
    }
    back = io.read_content_jsonl(raw)
    io.write_content_jsonl(written, back)
    again = io.read_content_jsonl(written)
    for records in (back, again):
        assert sorted(records) == sorted(expected)
        assert all(
            typed_fields(records[cid]) == typed_fields(expected[cid]) for cid in expected
        )


# Feature names are single tokens: no whitespace, no line breaks.
NAMES = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), min_size=1
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def models(draw):
    names = draw(st.lists(NAMES, unique=True, max_size=4))

    def per_feature(values=FINITE):
        return {name: draw(values) for name in names}

    return Model(
        feature_names=tuple(names),
        weights=per_feature(),
        bias=draw(FINITE),
        means=per_feature(),
        stds=per_feature(POSITIVE),
        dropped=tuple(draw(st.lists(
            NAMES.filter(lambda name: name not in names), unique=True, max_size=3
        ))),
        lam=draw(FINITE),
        seed=draw(st.integers(-(2**70), 2**70)),
        iterations=draw(st.integers(0, 10**6)),
        final_loss=draw(FINITE),
        converged=draw(st.booleans()),
    )


@given(model=models())
def test_model_roundtrip_property(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("model") / "model.txt"
    io.write_model(path, model)
    # repr tells 1 from 1.0 and -0.0 from 0.0, and shows dict order.
    assert repr(io.read_model(path)) == repr(model)


@st.composite
def training_sets(draw):
    """(X, y, names, lambda): a few examples of both classes over 1-3
    single-token features, some of them constant."""
    n, d = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    columns = [
        [draw(st.floats(-1e3, 1e3))] * n if draw(st.booleans())
        else draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
        for _ in range(d)
    ]
    y = [0.0, 1.0] + draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n - 2,
                                   max_size=n - 2))
    names = draw(st.lists(NAMES, min_size=d, max_size=d, unique=True))
    lam = draw(st.sampled_from([0.0, DEFAULT_LAMBDA]) | st.floats(1e-3, 1e3))
    return np.array(columns).T, np.array(y), names, lam


@settings(max_examples=30, deadline=None)
@given(case=training_sets(), seed=st.integers(-(2**40), 2**40))
def test_trained_model_roundtrip_property(tmp_path_factory, case, seed):
    """Every model train returns is one write_model writes and read_model
    reads back equal."""
    X, y, names, lam = case
    model = train(X, y, lam=lam, seed=seed, feature_names=names)
    path = tmp_path_factory.mktemp("trained") / "model.txt"
    io.write_model(path, model)
    assert repr(io.read_model(path)) == repr(model)


# Model-file values within a range whose scores cannot overflow, and values
# read_model must refuse in any scalar line or as a feature's std.
MAGNITUDES = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3) | st.just(0.0)
MODEL_VALUES = {
    "lambda": MAGNITUDES.map(io.fmt), "seed": st.integers(-(2**70), 2**70).map(str),
    "bias": MAGNITUDES.map(io.fmt), "iterations": st.integers(0, 10**6).map(str),
    "final_loss": MAGNITUDES.map(io.fmt), "converged": st.sampled_from(["0", "1"]),
}
BAD_SCALARS = st.sampled_from(["nan", "inf", "-inf", "abc", "0x1", "2.5e"])
BAD_STDS = st.sampled_from(["0.0", "-0.0", "-2.5", "nan", "inf"])


@st.composite
def model_files(draw):
    """The text of a model file and whether read_model must refuse it: at
    most one scalar, std or feature name is faulty."""
    fault = draw(st.sampled_from([None, "std", "repeat", *MODEL_VALUES]))
    lines = [
        f"{key} {draw(BAD_SCALARS if key == fault else values)}"
        for key, values in MODEL_VALUES.items()
    ]
    least = 1 if fault in ("std", "repeat") else 0
    names = draw(st.lists(st.sampled_from("abcd"), unique=True, min_size=least, max_size=4))
    if fault == "repeat":
        names.append(draw(st.sampled_from(names)))
    stds = [io.fmt(draw(st.floats(1e-3, 1e3))) for _ in names]
    if fault == "std":
        stds[draw(st.integers(0, len(names) - 1))] = draw(BAD_STDS)
    lines += [
        f"feature {name} {io.fmt(draw(MAGNITUDES))} {io.fmt(draw(MAGNITUDES))} {std}"
        for name, std in zip(names, stds)
    ]
    return "".join(f"{line}\n" for line in lines), fault is not None


@given(case=model_files(), data=st.data())
def test_accepted_models_score_finite_rows_to_finite_probabilities(
    tmp_path_factory, case, data
):
    text, faulty = case
    path = tmp_path_factory.mktemp("model") / "model.txt"
    path.write_text(text)
    try:
        model = io.read_model(path)
    except ConfigInvalidError:
        assert faulty
        return
    assert not faulty
    d = len(model.feature_names)
    row = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d))
    assert 0.0 <= predict_proba(model, row) <= 1.0



@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    """An 80-cascade corpus with content in 8 clusters and a graph, its
    labeled CSV, a model trained on it and its cluster CSV."""
    root = tmp_path_factory.mktemp("fuzz")
    params = SynthParams(n_nodes=800, attachment_m=2, n_cascades=80, x_min=5.0,
                         rate_boost=3.0, seed=11)
    graph = generate_social_graph(params, params.seed)
    cascades, contents = simulate_cascades(graph, params, params.seed)
    io.write_events_jsonl(root / "events.jsonl", cascades)
    io.write_edge_list(root / "graph.edges", graph)
    io.write_content_jsonl(root / "content.jsonl", {
        cid: replace(content, cluster_id=f"g{i % 8}")
        for i, (cid, content) in enumerate(sorted(contents.items()))
    })
    common = ["--k", "3", "--in", str(root / "events.jsonl"),
              "--content", str(root / "content.jsonl")]
    assert main(["label", "growth", *common, "--out", str(root / "labeled.csv")]) == 0
    assert main(["label", "cluster", *common, "--m", "5",
                 "--out", str(root / "clusters.csv")]) == 0
    assert main(["train", "--in", str(root / "labeled.csv"),
                 "--model-out", str(root / "model.txt"), "--folds", "0"]) == 0
    return root


# Each fuzzed file and the command that reads it; {bad} is the edited copy,
# {dir} the corpus and {tmp} a directory for outputs.
FUZZ_TARGETS = {
    "events.jsonl": ["wiener", "{bad}"],
    "labeled.csv": ["train", "--in", "{bad}", "--model-out", "{tmp}/model.txt",
                    "--folds", "0"],
    "model.txt": ["evaluate", "--cluster", "{dir}/clusters.csv", "--model", "{bad}"],
    "clusters.csv": ["evaluate", "--cluster", "{bad}", "--model", "{dir}/model.txt"],
    "content.jsonl": ["featurize", "--k", "3", "--in", "{dir}/events.jsonl",
                      "--content", "{bad}", "--out", "{tmp}/features.csv"],
    "graph.edges": ["featurize", "--k", "3", "--in", "{dir}/events.jsonl",
                    "--graph", "{bad}", "--out", "{tmp}/features.csv"],
}
FUZZ_TOKENS = ["", "x", "0", "-1", "2.5", "1e309", "nan", "-inf", "null", "true",
               '"', ",", "{", "}", ":", " ", "\u00e9", "g0", "c0000"]
# (operation, line, position in the line, replacement token); low line
# numbers are drawn often, so headers and first records get edited.
LINE_EDITS = st.tuples(
    st.sampled_from(["replace", "duplicate", "delete", "truncate"]),
    st.integers(0, 3) | st.integers(0, 2**16),
    st.integers(0, 2**16),
    st.sampled_from(FUZZ_TOKENS),
)


def _edit_lines(lines, edits):
    for op, at, pos, token in edits:
        if not lines:
            break
        i = at % len(lines)
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "truncate":
            lines[i] = lines[i][:pos % (len(lines[i]) + 1)]
        else:
            # Tokens sit at the even places between separator runs.
            parts = re.split(r'([\s,:{}"]+)', lines[i])
            parts[2 * (pos % ((len(parts) + 1) // 2))] = token
            lines[i] = "".join(parts)
    return lines


@settings(max_examples=60, deadline=None)
@given(target=st.sampled_from(sorted(FUZZ_TARGETS)),
       edits=st.lists(LINE_EDITS, min_size=1, max_size=3))
def test_edited_inputs_end_in_one_error_line_at_most(
    fuzz_corpus, tmp_path_factory, target, edits
):
    """Random line edits to any input file end in exit 0, or in exit 2 with
    one error line; never in a traceback, a warning or another exit code."""
    tmp = tmp_path_factory.mktemp("edited")
    bad = tmp / target
    lines = (fuzz_corpus / target).read_text(encoding="utf-8").splitlines()
    bad.write_text("".join(f"{line}\n" for line in _edit_lines(lines, edits)),
                   encoding="utf-8")
    argv = [a.format(bad=bad, dir=fuzz_corpus, tmp=tmp) for a in FUZZ_TARGETS[target]]
    err = StringIO()
    # Warnings are errors inside the command only, so that a failure's report
    # (which hypothesis builds outside it) prints the falsifying example.
    with redirect_stdout(StringIO()), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert (code, len(lines)) in ((0, 0), (2, 1)), (code, lines)


# What one mutated field holds, as JSON text: a value that is not finite,
# one at a float's extremes or beyond them, or one of no field's type.
MUTANTS = ["NaN", "Infinity", "-Infinity", "1e308", "-1e308", "5e-324", "1" + "0" * 400,
           '""', "[]", "{}", "true", "null"]
# Two cascades beside the drawn one, with sizes and Wiener indices that no
# cascade of its size can equal, so every median split has both labels.
COMPANIONS = (star_tree(30, cascade_id="a"), path_tree(40, cascade_id="b"))


@st.composite
def mutated_corpora(draw):
    """(events JSONL, content JSONL, edge list or None, k): a cascade drawn
    by ``event_logs()`` or ``hub_graph_cascades()`` (with its graph) beside
    ``COMPANIONS``, one content line per cascade, and one field of one of
    the drawn cascade's lines replaced by one of ``MUTANTS``."""
    if draw(st.booleans()):
        events, graph = draw(event_logs()), None
    else:
        tree, _, graph = draw(hub_graph_cascades())
        events = list(tree.events)
    rows = [io.event_to_dict(e) for e in events]
    contents = [{"cascade_id": cid, "category": cid, "score_food": 0.5}
                for cid in ("a", "b", events[0].cascade_id)]
    if draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.sampled_from(EVENT_FIELDS))] = "\0"
    else:
        row = contents[-1]
        row[draw(st.sampled_from(["cascade_id", *CONTENT_FIELDS]))] = "\0"
    mutant = draw(st.sampled_from(MUTANTS))

    def jsonl(rows):
        return "".join(
            json.dumps(row, sort_keys=True).replace('"\\u0000"', mutant) + "\n"
            for row in rows
        )

    companions = [io.event_to_dict(e) for tree in COMPANIONS for e in tree.events]
    edges = graph and "".join(f"{u} {v}\n" for u, v in graph.edges())
    return jsonl(companions + rows), jsonl(contents), edges, draw(st.integers(1, 12))


@settings(max_examples=100, deadline=None)
@given(corpus=mutated_corpora())
def test_mutated_field_ends_in_one_error_line_at_most(tmp_path_factory, corpus):
    """A non-finite, extreme or mistyped value in one field of an event or
    content line ends every command that reads it in exit 0, or in exit 2
    with one ``error: `` line; never in a traceback, a warning or another
    exit code."""
    events_text, content_text, edges, k = corpus
    tmp = tmp_path_factory.mktemp("mutated")
    events, content, graph = tmp / "events.jsonl", tmp / "content.jsonl", tmp / "graph.edges"
    events.write_text(events_text, encoding="utf-8")
    content.write_text(content_text, encoding="utf-8")
    window = ["--k", str(k), "--in", str(events), "--content", str(content)]
    if edges:
        graph.write_text(edges, encoding="utf-8")
        window += ["--graph", str(graph)]
    for argv in (
        ["featurize", *window, "--out", str(tmp / "features.csv")],
        ["label", "growth", *window, "--out", str(tmp / "growth.csv")],
        ["label", "structure", *window, "--out", str(tmp / "structure.csv")],
        ["wiener", str(events)],
        ["report", "groups", "--in", str(events), "--content", str(content)],
    ):
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert (code, len(lines)) in ((0, 0), (2, 1)), (argv[:2], code, lines)
        assert code == 0 or lines[0].startswith("error: "), (argv[:2], lines)


def test_version_is_declared_once():
    """pyproject.toml takes the version from ``cascadekit.__version__``."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "cascadekit.__version__"
    }


def test_only_io_opens_files():
    """Every file the package reads or writes goes through io."""
    openers = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
    calls = []
    for source in sorted(Path(cascadekit.__file__).parent.glob("*.py")):
        if source.name == "io.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in openers:
                    calls.append(f"{source.name}:{node.lineno}: {name}")
    assert calls == []


class TestIoRoundTrips:
    def test_labeled_csv_roundtrip(self, tmp_path):
        records = [
            CascadeRecord(
                star_tree(5 + 3 * i, cascade_id=f"c{i:02d}"),
                ContentRecord(score_food=i / 20) if i % 2 else None,
            )
            for i in range(20)
        ]
        ds = label_growth(records, 5)
        path = tmp_path / "labeled.csv"
        io.write_labeled_csv(path, ds)
        X, y, sizes, ids, columns = io.read_labeled_csv(path)
        assert columns == ds.columns
        assert set(X[:, columns.index("score_food_missing")]) == {0.0, 1.0}
        assert np.array_equal(X, ds.X)
        assert np.array_equal(y, ds.y)
        assert sizes.tolist() == list(ds.final_sizes)
        assert ids == list(ds.examples)

    def test_cluster_csv_roundtrip(self, tmp_path):
        records = [
            CascadeRecord(
                star_tree(5 + i, cascade_id=f"c{i:02d}"),
                ContentRecord(score_food=i / 20 if i % 3 else None,
                              cluster_id=f"g{i % 2}"),
            )
            for i in range(12)
        ]
        instances = build_cluster_task(records, 5, m=4, seed=1)
        path = tmp_path / "clusters.csv"
        io.write_cluster_csv(path, instances)

        def summary(insts):
            return [
                (inst.cluster_id, inst.winner_index, inst.members,
                 inst.final_sizes, inst.columns, inst.rows.tolist())
                for inst in insts
            ]

        assert summary(io.read_cluster_csv(path)) == summary(instances)

    def test_events_jsonl_roundtrip(self, tmp_path):
        events = [
            event("c", "r", 0, node_type="page", outdeg=5, fan_count=5),
            event("c", "a", 3.5, "r", outdeg=2, friend_count=2,
                  age_years=30.0, gender="female", views_orig_cum=11),
        ]
        path = tmp_path / "e.jsonl"
        io.write_events_jsonl(path, [events])
        back = io.read_events(path)
        assert back == {"c": events}

    def test_events_csv_roundtrip(self, tmp_path):
        events = [
            event("c", "r", 0, outdeg=1),
            event("c", "a", 2.25, "r", outdeg=3, subscriber_count=4),
        ]
        path = tmp_path / "e.csv"
        io.write_events_csv(path, [events])
        assert io.read_events(path) == {"c": events}

    def test_edge_list_roundtrip(self, tmp_path):
        g = SocialGraph()
        g.add_edge("1", "2")
        g.add_edge("2", "3")
        path = tmp_path / "g.edges"
        io.write_edge_list(path, g)
        back = io.read_edge_list(path)
        assert back.edges() == g.edges()

    def test_content_roundtrip(self, tmp_path):
        contents = {
            "c1": ContentRecord(score_food=0.5, is_en=True, category="news"),
            "c2": ContentRecord(cluster_id="k9"),
        }
        path = tmp_path / "c.jsonl"
        io.write_content_jsonl(path, contents)
        assert io.read_content_jsonl(path) == contents

    def test_model_roundtrip(self, tmp_path, rng):
        X = rng.normal(size=(80, 3))
        y = (X[:, 0] > 0).astype(float)
        model = train(X, y, lam=0.05, seed=4, feature_names=["a", "b", "c"])
        path = tmp_path / "m.txt"
        io.write_model(path, model)
        back = io.read_model(path)
        assert back == model

    def test_config_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("this is not a config\n")
        from cascadekit.errors import ConfigInvalidError

        with pytest.raises(ConfigInvalidError):
            io.read_config(bad)
