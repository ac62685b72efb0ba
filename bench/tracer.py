"""Span recorder for traced benchmark runs, kept outside the program.

Run as ``python3 bench/tracer.py SPANS_OUT CLI_ARGS...``. It rebinds
cascadekit's public functions at the names through which their callers look
them up (``cli.build_cascade``, ``learner.train`` for ``cross_validate``,
``features.extract_features`` for the batch pool, ``io.read_events`` for the
CLI, ...), runs ``cascadekit.cli.main`` under a root span, restores the
original bindings and writes every span as JSON. No file of the program
changes; only this process's module attributes are rebound.

A span is ``[id, parent_id, name, start_s, end_s, counts]``, where
``counts`` is a dict of numbers taken at the call boundary, or null.
``layer_metrics`` turns the spans of one workload repetition into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "synth.graph_s": "s",
    "synth.simulate_s": "s",
    "synth.events": "count",
    "io.write_events_s": "s",
    "io.write_graph_s": "s",
    "io.write_content_s": "s",
    "io.write_labeled_s": "s",
    "io.bytes_written": "bytes",
    "io.read_events_s": "s",
    "io.read_content_s": "s",
    "io.read_graph_s": "s",
    "io.read_labeled_s": "s",
    "io.read_cluster_s": "s",
    "io.bytes_read": "bytes",
    "cascade.build_s": "s",
    "cascade.build_calls": "count",
    "cascade.build_us.p50": "us",
    "cascade.build_us.p99": "us",
    "virality.wiener_s": "s",
    "virality.wiener_calls": "count",
    "features.batch_s": "s",
    "features.extract_s": "s",
    "features.vectors": "count",
    "features.extract_us.p50": "us",
    "features.extract_us.p99": "us",
    "features.pool_efficiency": "ratio",
    "tasks.label_self_s": "s",
    "tasks.examples": "count",
    "learner.train_s": "s",
    "learner.train_calls": "count",
    "learner.iterations": "count",
    "learner.converged_ratio": "ratio",
    "learner.cv_self_s": "s",
    "learner.evaluate_cluster_s": "s",
    "learner.predict_calls": "count",
    "cli.self_s": "s",
}


class Recorder:
    """Collects spans in memory; safe to call from the feature pool's threads."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "span", default=None
        )

    def wrap(self, fn, name: str, count=None):
        """``fn`` recording one span per call; ``count(args, kwargs, result)``
        returns the counts dict stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._current.get()
            with self._lock:
                sid = next(self._ids)
            token = self._current.set(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._add([sid, parent, name, start, time.perf_counter(), None])
                raise
            finally:
                self._current.reset(token)
            end = time.perf_counter()
            counts = count(args, kwargs, result) if count else None
            self._add([sid, parent, name, start, end, counts])
            return result

        return traced

    def _add(self, span: list) -> None:
        with self._lock:
            self.spans.append(span)

    def dump(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


class _ContextPool(ThreadPoolExecutor):
    """Thread pool that runs each task in a copy of the submitter's context,
    so spans opened in a worker get the submitting span as parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _size_of_first_arg(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _events_drawn(args, kwargs, result):
    cascades, _ = result
    return {"events": sum(len(c) for c in cascades)}


def _model_counts(args, kwargs, result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _batch_threads(args, kwargs, result):
    return {"threads": kwargs.get("threads", 1)}


def _examples(args, kwargs, result):
    return {"examples": len(result.examples)}


# (module name, attribute, span name, counter) for every call the workloads'
# commands make into a layer. Each entry is a place where a caller looks the
# function up by name, so rebinding it there traces the call. I/O that no
# metric names is traced too, so that ``cli.self_s`` is CLI code alone.
_IO_SITES = [
    ("read_events", "io.read_events", _size_of_first_arg),
    ("read_content_jsonl", "io.read_content", _size_of_first_arg),
    ("read_edge_list", "io.read_graph", _size_of_first_arg),
    ("read_labeled_csv", "io.read_labeled", _size_of_first_arg),
    ("read_cluster_csv", "io.read_cluster", _size_of_first_arg),
    ("read_model", "io.read_model", _size_of_first_arg),
    ("read_config", "io.read_config", _size_of_first_arg),
    ("write_events_jsonl", "io.write_events", _size_of_first_arg),
    ("write_edge_list", "io.write_graph", _size_of_first_arg),
    ("write_content_jsonl", "io.write_content", _size_of_first_arg),
    ("write_labeled_csv", "io.write_labeled", _size_of_first_arg),
    ("write_model", "io.write_model", _size_of_first_arg),
    ("write_manifest", "io.write_manifest", _size_of_first_arg),
]
SITES = [("io", attr, name, count) for attr, name, count in _IO_SITES] + [
    ("cli", "generate_social_graph", "synth.graph", None),
    ("cli", "simulate_cascades", "synth.simulate", _events_drawn),
    ("cli", "build_cascade", "cascade.build", None),
    ("cli", "wiener_index_exact", "virality.wiener", None),
    ("cli", "extract_features_batch", "features.batch", _batch_threads),
    ("cli", "label_growth", "tasks.label", _examples),
    ("cli", "train", "learner.train", _model_counts),
    ("cli", "cross_validate", "learner.cv", None),
    ("cli", "evaluate_cluster", "learner.evaluate_cluster", None),
    ("tasks", "extract_features_batch", "features.batch", _batch_threads),
    ("tasks", "cross_validate", "learner.cv", None),
    ("features", "extract_features", "features.extract", None),
    ("learner", "train", "learner.train", _model_counts),
    ("learner", "predict_proba", "learner.predict", None),
]


def install(recorder: Recorder):
    """Rebind every site in ``SITES``; returns a function that restores them."""
    saved = []
    for module_name, attr, name, count in SITES:
        module = importlib.import_module(f"cascadekit.{module_name}")
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, recorder.wrap(original, name, count))
    features = importlib.import_module("cascadekit.features")
    saved.append((features, "ThreadPoolExecutor", features.ThreadPoolExecutor))
    features.ThreadPoolExecutor = _ContextPool

    def restore() -> None:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


def run_traced(spans_out: str, cli_args: list[str]) -> int:
    from cascadekit import cli

    recorder = Recorder()
    restore = install(recorder)
    try:
        return recorder.wrap(cli.main, "cli")(cli_args)
    finally:
        restore()
        recorder.dump(spans_out)


# --- analysis -------------------------------------------------------------------


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that child spans cover.

    Children that overlap (pool workers) are merged first, so a self time is
    never negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end, _ in spans:
        covered = 0.0
        lo = hi = None
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, start), min(c1, end)
            if hi is None or c0 > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c0, c1
            else:
                hi = max(hi, c1)
        if hi is not None:
            covered += hi - lo
        out[sid] = max(0.0, (end - start) - covered)
    return out


def _percentile_us(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6


def layer_metrics(commands: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one repetition from the spans of its commands.

    A layer the workload bypasses reads 0, and so does a ratio whose base
    is 0 (its base count is reported beside it).
    """
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, float] = defaultdict(float)
    pool_capacity = 0.0
    for spans in commands:
        selfs = self_times(spans)
        for sid, _, name, start, end, extra in spans:
            total[name] += end - start
            own[name] += selfs[sid]
            calls[name] += 1
            if name in ("cascade.build", "features.extract"):
                durations[name].append(end - start)
            for key, value in (extra or {}).items():
                counts[f"{name}.{key}"] += value
            if name == "features.batch" and extra:
                pool_capacity += (end - start) * extra["threads"]

    bytes_read = sum(v for k, v in counts.items() if k.startswith("io.read_"))
    bytes_written = sum(v for k, v in counts.items() if k.startswith("io.write_"))
    train_calls = calls["learner.train"]
    out = {
        "synth.graph_s": total["synth.graph"],
        "synth.simulate_s": total["synth.simulate"],
        "synth.events": counts["synth.simulate.events"],
        "io.write_events_s": total["io.write_events"],
        "io.write_graph_s": total["io.write_graph"],
        "io.write_content_s": total["io.write_content"],
        "io.write_labeled_s": total["io.write_labeled"],
        "io.bytes_written": bytes_written,
        "io.read_events_s": total["io.read_events"],
        "io.read_content_s": total["io.read_content"],
        "io.read_graph_s": total["io.read_graph"],
        "io.read_labeled_s": total["io.read_labeled"],
        "io.read_cluster_s": total["io.read_cluster"],
        "io.bytes_read": bytes_read,
        "cascade.build_s": total["cascade.build"],
        "cascade.build_calls": calls["cascade.build"],
        "cascade.build_us.p50": _percentile_us(durations["cascade.build"], 50),
        "cascade.build_us.p99": _percentile_us(durations["cascade.build"], 99),
        "virality.wiener_s": total["virality.wiener"],
        "virality.wiener_calls": calls["virality.wiener"],
        "features.batch_s": total["features.batch"],
        "features.extract_s": total["features.extract"],
        "features.vectors": calls["features.extract"],
        "features.extract_us.p50": _percentile_us(durations["features.extract"], 50),
        "features.extract_us.p99": _percentile_us(durations["features.extract"], 99),
        "features.pool_efficiency": (
            total["features.extract"] / pool_capacity if pool_capacity else 0.0
        ),
        "tasks.label_self_s": own["tasks.label"],
        "tasks.examples": counts["tasks.label.examples"],
        "learner.train_s": total["learner.train"],
        "learner.train_calls": train_calls,
        "learner.iterations": counts["learner.train.iterations"],
        "learner.converged_ratio": (
            counts["learner.train.converged"] / train_calls if train_calls else 0.0
        ),
        "learner.cv_self_s": own["learner.cv"],
        "learner.evaluate_cluster_s": total["learner.evaluate_cluster"],
        "learner.predict_calls": calls["learner.predict"],
        "cli.self_s": own["cli"],
    }
    assert list(out) == list(LAYER_METRICS)
    return out


if __name__ == "__main__":
    sys.exit(run_traced(sys.argv[1], sys.argv[2:]))
