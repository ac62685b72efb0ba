"""The benchmark tracer rebinds functions by module attribute and counts
attributes of their results; every one of its sites must still resolve and
every counter must still find its attribute, or traced benchmark runs break."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from cascadekit import io

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

TINY_CONFIG = """\
n_nodes = 600
n_cascades = 80
x_min = 5.0
seed = 5
"""

# Span name -> the keys its counter records.
COUNTED = {
    "synth.simulate": {"events"},
    "features.batch": {"threads"},
    "tasks.label": {"examples"},
    "learner.train": {"iterations", "converged"},
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sites_resolve(tracer):
    unbound = []
    for module_name, attr, _, _ in tracer.SITES:
        module = importlib.import_module(f"cascadekit.{module_name}")
        if not callable(getattr(module, attr, None)):
            unbound.append(f"cascadekit.{module_name}.{attr}")
    assert unbound == []
    features = importlib.import_module("cascadekit.features")
    assert callable(getattr(features, "ThreadPoolExecutor", None))


def test_traced_commands_record_their_counts(tracer, tmp_path):
    (tmp_path / "synth.cfg").write_text(TINY_CONFIG)
    labeled, model = tmp_path / "labeled.csv", tmp_path / "model.txt"
    clustered, clusters = tmp_path / "clustered.jsonl", tmp_path / "clusters.csv"

    def traced(name, *args):
        spans_path = tmp_path / f"{name}.spans.json"
        assert tracer.run_traced(str(spans_path), list(args)) == 0
        return json.loads(spans_path.read_text())

    spans = traced("generate", "generate", "--params", str(tmp_path / "synth.cfg"),
                   "--out-dir", str(tmp_path))
    events, content = str(tmp_path / "events.jsonl"), tmp_path / "content.jsonl"
    rows = [json.loads(line) for line in content.read_text().splitlines()]
    clustered.write_text("".join(
        json.dumps({**row, "cluster_id": f"g{i // 10}"}) + "\n"
        for i, row in enumerate(rows)
    ))
    spans += traced("label", "label", "growth", "--k", "5", "--in", events,
                    "--content", str(content), "--graph", str(tmp_path / "graph.edges"),
                    "--threads", "2", "--out", str(labeled))
    spans += traced("train", "train", "--in", str(labeled), "--folds", "3",
                    "--model-out", str(model))
    spans += traced("cluster", "label", "cluster", "--k", "5", "--m", "5",
                    "--in", events, "--content", str(clustered), "--out", str(clusters))
    spans += traced("evaluate", "evaluate", "--cluster", str(clusters),
                    "--model", str(model))

    seen = {}
    for _, _, name, _, _, counts in spans:
        if name in COUNTED or name.startswith("io."):
            expected = COUNTED.get(name, {"bytes"})
            assert counts is not None and set(counts) == expected, (name, counts)
            seen.setdefault(name, []).append(counts)
    for name in COUNTED:
        assert name in seen, name
    for name in ("io.read_labeled", "io.read_cluster", "io.write_labeled"):
        assert name in seen, name
    assert 2 in {c["threads"] for c in seen["features.batch"]}
    X, _, _, _, _ = io.read_labeled_csv(labeled)
    assert [c["examples"] for c in seen["tasks.label"]] == [X.shape[0]]
