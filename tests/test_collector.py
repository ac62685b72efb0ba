"""Commands run with the cyclic garbage collector paused, and ``cli.main``
alone pauses it: each call leaves the collector as it found it, however it
ends, and a command leaves the collector no more cyclic garbage on a larger
input than on a smaller one."""

import gc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from io import StringIO

import pytest
from hypothesis import given, strategies as st

from cascadekit import cli, io
from cascadekit.cascade import build_cascade
from cascadekit.cli import main
from cascadekit.errors import InvalidCascadeError
from cascadekit.synth import SynthParams, generate_social_graph, simulate_cascades

from conftest import event
from test_cascade import event_logs


@st.composite
def faulty_logs(draw):
    """An ``event_logs()`` log, left valid or given one fault that
    ``build_cascade`` rejects."""
    log = draw(event_logs())
    fault = draw(st.sampled_from(
        ["none", "no root", "duplicate", "dangling", "mixed", "two roots", "early"]
    ))
    i = draw(st.integers(0, len(log) - 1))
    root = log[0]
    if fault == "no root":
        return log[1:]
    if fault == "duplicate":
        return log + [log[i]]
    if fault == "dangling":
        return log + [replace(log[i], node_id="zz", parent_id="yy")]
    if fault == "mixed":
        return log + [replace(log[i], node_id="zz", cascade_id="d")]
    if fault == "two roots":
        return log + [replace(root, node_id="zz")]
    if fault == "early":
        return log + [replace(root, node_id="zz", parent_id=root.node_id,
                              timestamp=root.timestamp - 1)]
    return log


@given(log=faulty_logs(), cut=st.none() | st.integers(0, 2**16), start_on=st.booleans())
def test_each_call_leaves_the_collector_as_it_found_it(
    tmp_path_factory, log, cut, start_on
):
    """``read_events``, ``build_cascade`` and ``main`` leave the collector
    on or off as it was before the call, whether the call returns or raises
    (a log ``build_cascade`` rejects, or an event file cut inside a line)."""
    path = tmp_path_factory.mktemp("events") / "events.jsonl"
    io.write_events_jsonl(path, [log])
    if cut is not None:
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: cut % (len(text) + 1)], encoding="utf-8")
    was_on = gc.isenabled()
    (gc.enable if start_on else gc.disable)()
    try:
        try:
            io.read_events(path)
        except Exception:
            pass
        assert gc.isenabled() == start_on
        try:
            build_cascade(log)
        except InvalidCascadeError:
            pass
        assert gc.isenabled() == start_on
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            assert main(["wiener", str(path)]) in (0, 2)
        assert gc.isenabled() == start_on
    finally:
        (gc.enable if was_on else gc.disable)()


@pytest.mark.parametrize("start_on", [True, False])
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_a_command_that_raises_leaves_the_collector_as_it_found_it(
    monkeypatch, start_on, error
):
    """An exception that leaves ``main`` as a traceback, not as an
    ``error:`` line, ends the pause too, even when the command paused the
    collector again itself."""

    def failing(args):
        gc.disable()
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_stats", failing)
    was_on = gc.isenabled()
    (gc.enable if start_on else gc.disable)()
    try:
        with pytest.raises(error, match="boom"):
            main(["stats", "gini", "numbers.txt"])
        assert gc.isenabled() == start_on
    finally:
        (gc.enable if was_on else gc.disable)()


def test_main_alone_pauses_the_collector(tmp_path, monkeypatch, capsys):
    """The reader and the tree builder leave the collector alone; ``main``
    switches it off once for a command."""
    calls = []
    disable = gc.disable

    def counting():
        calls.append(None)
        disable()

    monkeypatch.setattr(gc, "disable", counting)
    path = tmp_path / "events.jsonl"
    io.write_events_jsonl(path, [[event("c", "r", 0.0), event("c", "a", 1.0, "r")]])
    (log,) = io.read_events(path).values()
    build_cascade(log)
    assert calls == []
    assert main(["wiener", str(path)]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == "c\t1.0\n"


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Each input at two sizes, the second twice the first: event files (the
    second holds each cascade again under another id), labeled and cluster
    CSVs made from them, a model, and generator configs."""
    root = tmp_path_factory.mktemp("corpora")
    params = SynthParams(n_nodes=300, attachment_m=2, n_cascades=30, x_min=5.0,
                         rate_boost=3.0, seed=3)
    graph = generate_social_graph(params, params.seed)
    cascades, contents = simulate_cascades(graph, params, params.seed)
    again = [[replace(e, cascade_id=e.cascade_id + "x") for e in c] for c in cascades]
    io.write_events_jsonl(root / "events1.jsonl", cascades)
    io.write_events_jsonl(root / "events2.jsonl", cascades + again)
    io.write_content_jsonl(root / "content.jsonl", {
        cid: replace(content, cluster_id=f"g{i % 3}")
        for i, (cid, content) in enumerate(sorted(contents.items()))
    })
    window = ["--k", "2", "--in", str(root / "events1.jsonl")]
    for argv in (
        ["label", "growth", *window, "--out", str(root / "labeled1.csv")],
        ["label", "growth", *window[:-1], str(root / "events2.jsonl"),
         "--out", str(root / "labeled2.csv")],
        ["label", "cluster", *window, "--m", "3", "--content", str(root / "content.jsonl"),
         "--out", str(root / "clusters1.csv")],
        ["train", "--in", str(root / "labeled1.csv"), "--model-out", str(root / "model.txt"),
         "--folds", "0"],
    ):
        with redirect_stdout(StringIO()):
            assert main(argv) == 0, argv
    header, *rows = (root / "clusters1.csv").read_text(encoding="utf-8").splitlines(True)
    (root / "clusters2.csv").write_text(
        header + "".join(rows) + "".join(f"x{row}" for row in rows), encoding="utf-8"
    )
    for size, n in ((1, 10), (2, 20)):
        (root / f"synth{size}.cfg").write_text(
            f"n_nodes = 200\nn_cascades = {n}\nx_min = 5.0\nseed = 5\n"
        )
    return root


# Each command, by its name, at input size 1 or 2; {root} holds the inputs
# and {size} picks one, and outputs go to files named after the size.
SIZED_COMMANDS = {
    "label growth": ["label", "growth", "--k", "2", "--in", "{root}/events{size}.jsonl",
                     "--out", "{root}/out{size}.csv"],
    "train": ["train", "--in", "{root}/labeled{size}.csv",
              "--model-out", "{root}/model{size}.txt", "--folds", "2"],
    "wiener": ["wiener", "{root}/events{size}.jsonl"],
    "evaluate --cluster": ["evaluate", "--cluster", "{root}/clusters{size}.csv",
                           "--model", "{root}/model.txt"],
    "generate": ["generate", "--params", "{root}/synth{size}.cfg",
                 "--out-dir", "{root}/generated{size}"],
    "pipeline": ["pipeline", "--config", "{root}/synth{size}.cfg",
                 "--out-dir", "{root}/pipeline{size}"],
}


def _cyclic_garbage(argv) -> int:
    """The objects that one run of ``main(argv)`` with the collector off
    leaves for the collector to free. Every object the run makes is young,
    so collecting the youngest generation alone finds them, without walking
    the rest of the test session's heap."""
    was_on = gc.isenabled()
    gc.collect(0)
    gc.disable()
    try:
        with redirect_stdout(StringIO()):
            assert main(argv) == 0, argv
    finally:
        garbage = gc.collect(0)
        if was_on:
            gc.enable()
    return garbage


@pytest.mark.parametrize("command", sorted(SIZED_COMMANDS))
def test_cyclic_garbage_does_not_grow_with_the_input(corpora, command):
    """With the collector paused for a whole command, what it leaves for
    the collector is a fixed count (the parser's objects, for one), not one
    cycle per event, row or cascade: the count is the same on an input twice
    the size. The first run, which imports modules, is not counted."""
    def argv(size):
        return [a.format(root=corpora, size=size) for a in SIZED_COMMANDS[command]]

    _cyclic_garbage(argv(1))
    assert _cyclic_garbage(argv(1)) == _cyclic_garbage(argv(2))
