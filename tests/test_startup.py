"""numpy and the package's own modules are bound on first use: a command
loads only the modules it runs, and first touches from several threads
import a module once."""

import ast
import importlib
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import cascadekit
from cascadekit import cli, tasks
from cascadekit._lazy import deferred, deferred_function
from cascadekit.cli import main

SRC = Path(cascadekit.__file__).parent

# Prints, as one line, which of the deferred modules each step left loaded.
PROBE = """\
import sys
from cascadekit.cli import build_parser, main
build_parser()
loaded = []
for argv in {argvs!r}:
    assert main(argv) == 0, argv
    loaded.append(sorted(m for m in ("numpy", "hashlib") if m in sys.modules))
print(loaded)
"""


# Prints, as one line, the package modules (and concurrent.futures) that
# importing, building the parser or one command left loaded.
MODULES_PROBE = """\
import sys
{step}
print(sorted(m for m in sys.modules
             if m.startswith("cascadekit.") or m == "concurrent.futures"))
"""


def _probe(tmp_path, script):
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def _loaded_after(tmp_path, *argvs):
    return _probe(tmp_path, PROBE.format(argvs=list(argvs)))


@pytest.fixture
def inputs(tmp_path):
    """The path of a tiny file of each kind the commands read, by the stem
    of its name."""
    files = {
        "events.jsonl":
            '{"cascade_id": "c", "node_id": "r", "timestamp": 0.0}\n'
            '{"cascade_id": "c", "node_id": "a", "parent_id": "r", "timestamp": 1.0}\n',
        "content.jsonl": '{"cascade_id": "c", "cluster_id": "g"}\n',
        "numbers.txt": "1\n2\n5\n9\n",
        "model.txt": "lambda 0.01\nseed 0\nbias 0.5\niterations 1\n"
                     "final_loss 0.5\nconverged 1\nfeature x 2.0 1.0 0.5\n",
        "clusters.csv": "cluster_id,cascade_id,final_size,is_winner,x,x_missing\n"
                        "g,a,3,0,1.0,0\ng,b,9,1,2.0,0\n",
        "labeled.csv": "x,x_missing,label,final_size,cascade_id\n"
                       "1.0,0,0,3,a\n2.0,0,1,9,b\n1.5,0,0,4,c\n3.0,0,1,12,d\n",
        "synth.cfg": "n_nodes = 200\nn_cascades = 10\nx_min = 5.0\nseed = 5\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return {Path(name).stem: str(tmp_path / name) for name in files}


def test_wiener_and_stats_never_load_numpy(tmp_path, inputs):
    """``build_parser()``, ``wiener``, ``stats``, ``featurize``, the growth
    and structure labels and ``evaluate --cluster`` leave numpy and hashlib
    unloaded; cluster labels load numpy, to sample members, and hashlib with
    ``numpy.random``."""
    events, content, numbers = inputs["events"], inputs["content"], inputs["numbers"]
    model, clusters = inputs["model"], inputs["clusters"]
    window = ["--k", "1", "--in", events]
    loaded = _loaded_after(
        tmp_path,
        ["wiener", events],
        ["stats", "gini", numbers],
        ["stats", "fit-alpha", "--xmin", "1", numbers],
        ["featurize", *window, "--out", "f.csv"],
        ["label", "growth", *window, "--out", "l.csv"],
        ["label", "structure", *window, "--out", "s.csv"],
        ["evaluate", "--cluster", clusters, "--model", model],
        ["label", "cluster", *window, "--m", "1", "--content", content,
         "--out", "c.csv"],
    )
    assert loaded == [[], [], [], [], [], [], [], ["hashlib", "numpy"]]


# Each step, and the modules it must not load: those whose code it does not
# run. ``{stem}`` is the path of that input file.
UNLOADED = {
    "import cascadekit": (
        "import cascadekit",
        {p.stem for p in SRC.glob("*.py")} - {"__init__"},
    ),
    "build_parser()": (
        "from cascadekit.cli import build_parser\nbuild_parser()",
        {"features", "tasks", "synth", "stats", "virality", "concurrent.futures"},
    ),
    "wiener": (["wiener", "{events}"], {"features", "tasks", "synth", "stats"}),
    "evaluate --cluster": (
        ["evaluate", "--cluster", "{clusters}", "--model", "{model}"],
        {"features", "tasks", "synth", "stats", "virality", "concurrent.futures"},
    ),
    "featurize": (
        ["featurize", "--k", "1", "--in", "{events}", "--out", "f.csv"],
        {"tasks", "synth", "stats", "virality", "concurrent.futures"},
    ),
    "label growth --threads 2": (
        ["label", "growth", "--k", "1", "--threads", "2", "--in", "{events}",
         "--out", "l.csv"],
        {"synth", "concurrent.futures"},
    ),
    "train": (
        ["train", "--in", "{labeled}", "--model-out", "m.txt", "--folds", "2"],
        {"features", "tasks", "synth", "stats", "virality"},
    ),
    "report groups": (
        ["report", "groups", "--in", "{events}", "--content", "{content}",
         "--group-by", "cluster_id"],
        {"features", "synth", "concurrent.futures"},
    ),
    "generate": (
        ["generate", "--params", "{synth}", "--out-dir", "out"],
        {"features", "tasks", "stats", "virality", "concurrent.futures"},
    ),
}


@pytest.mark.parametrize("step", sorted(UNLOADED))
def test_each_command_loads_only_the_modules_it_runs(tmp_path, inputs, step):
    """Importing the package loads no submodule; importing the CLI and
    building its parser loads none that only some commands run; and each
    command loads none whose code it does not run."""
    code, unloaded = UNLOADED[step]
    if isinstance(code, list):
        argv = [arg.format_map(inputs) for arg in code]
        code = f"from cascadekit.cli import main\nassert main({argv!r}) == 0"
    loaded = _probe(tmp_path, MODULES_PROBE.format(step=code))
    names = {m.removeprefix("cascadekit.") for m in loaded}
    assert names & unloaded == set(), loaded


def test_package_exports_are_read_from_their_modules():
    """Each name of ``__all__`` is the object its submodule defines, read on
    first use; ``dir`` and ``import *`` see every name, and an unknown name
    is an AttributeError."""
    assert cascadekit.__all__ == sorted(cascadekit._EXPORTS)
    for name in cascadekit.__all__:
        module = importlib.import_module(f"cascadekit.{cascadekit._EXPORTS[name]}")
        value = getattr(cascadekit, name)
        assert value is getattr(module, name), name
        assert value.__module__ == module.__name__, name
    assert set(cascadekit.__all__) <= set(dir(cascadekit))
    namespace = {}
    exec("from cascadekit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cascadekit.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        cascadekit.no_such_name


def test_deferred_function_binds_the_function_on_first_call(tmp_path, monkeypatch):
    """The stand-in imports its module on the first call, not before, and
    rebinds the importer's name to the function; a stand-in kept elsewhere
    still forwards."""
    name = "cascadekit_deferred_function_probe"
    (tmp_path / f"{name}.py").write_text("def double(x):\n    return 2 * x\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, name, raising=False)
    namespace = {}
    namespace["double"] = stand_in = deferred_function(name, "double", namespace)
    assert name not in sys.modules
    assert callable(stand_in) and stand_in.__name__ == "double"
    assert stand_in(3) == 6
    assert namespace["double"] is sys.modules[name].double
    assert stand_in(4) == 8


# (module, name of a deferred function in it, the module that defines it, a
# command, how many calls one run of it makes).
REBOUND = [
    (cli, "wiener_index_exact", ".virality", ["wiener", "{events}"], 2),
    (tasks, "extract_features_batch", ".features",
     ["label", "growth", "--k", "1", "--in", "{events}", "--out", "{out}"], 1),
]


@pytest.mark.parametrize("module, name, source, argv, calls", REBOUND,
                         ids=[f"{m.__name__}.{n}" for m, n, *_ in REBOUND])
def test_a_wrapper_over_a_deferred_function_sees_every_call(
    tmp_path, monkeypatch, capsys, module, name, source, argv, calls
):
    """A counting wrapper bound over a fresh stand-in, as the benchmark's
    tracer binds its spans, sees every call: on the command's first call,
    when the stand-in imports its module, and afterwards. The stand-in never
    replaces the wrapper."""
    events = tmp_path / "events.jsonl"
    events.write_text(
        '{"cascade_id": "a", "node_id": "r", "timestamp": 0.0}\n'
        '{"cascade_id": "a", "node_id": "x", "parent_id": "r", "timestamp": 1.0}\n'
        '{"cascade_id": "b", "node_id": "r", "timestamp": 0.0}\n'
        '{"cascade_id": "b", "node_id": "x", "parent_id": "r", "timestamp": 1.0}\n'
        '{"cascade_id": "b", "node_id": "y", "parent_id": "x", "timestamp": 2.0}\n'
        '{"cascade_id": "c", "node_id": "r", "timestamp": 0.0}\n'
    )
    argv = [arg.format(events=events, out=tmp_path / "out.csv") for arg in argv]
    monkeypatch.setattr(module, name, deferred_function(source, name, vars(module)))
    stand_in, seen = getattr(module, name), []

    def counting(*args, **kwargs):
        seen.append(name)
        return stand_in(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    assert main(argv) == 0
    assert len(seen) == calls
    assert main(argv) == 0
    assert len(seen) == 2 * calls
    assert getattr(module, name) is counting


def test_first_touches_from_threads_import_once(tmp_path, monkeypatch):
    """8 threads read an attribute of a deferred module at once: its body
    runs once, every thread sees the same module object, and the importer's
    name is rebound to it."""
    name = "cascadekit_deferred_probe"
    runs = tmp_path / "runs.txt"
    (tmp_path / f"{name}.py").write_text(
        "import time\n"
        f"with open({str(runs)!r}, 'a') as fh:\n"
        "    fh.write('run\\n')\n"
        "time.sleep(0.2)\n"
        "VALUE = 42\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, name, raising=False)
    namespace = {}
    namespace["mod"] = proxy = deferred(name, namespace, "mod")
    barrier = threading.Barrier(8)
    seen = []

    def touch():
        barrier.wait(timeout=10)
        seen.append((proxy.VALUE, sys.modules[name]))

    threads = [threading.Thread(target=touch) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    module = sys.modules[name]
    assert runs.read_text() == "run\n"
    assert seen == [(42, module)] * 8
    assert namespace["mod"] is module


def _outside_functions(node):
    """The nodes of ``node`` that run when its module is imported."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _outside_functions(child)


def test_numpy_is_bound_only_through_the_deferral():
    """No module in the package imports numpy when it is itself imported;
    each binds it with ``deferred``, so importing the CLI never loads it."""
    eager = []
    for source in sorted(SRC.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for node in _outside_functions(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(n == "numpy" or n.startswith("numpy.") for n in names):
                eager.append(f"{source.name}:{node.lineno}")
    assert eager == []
