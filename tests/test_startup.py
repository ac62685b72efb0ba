"""numpy is bound on first use: commands that never compute with it never
load it, and first touches from several threads import it once."""

import ast
import os
import subprocess
import sys
import threading
from pathlib import Path

import cascadekit
from cascadekit._lazy import deferred

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


def _loaded_after(tmp_path, *argvs):
    src = str(SRC.parent)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(argvs=list(argvs))],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_wiener_and_stats_never_load_numpy(tmp_path):
    """``build_parser()``, ``wiener``, ``stats``, ``featurize``, the growth
    and structure labels and ``evaluate --cluster`` leave numpy and hashlib
    unloaded; cluster labels load numpy, to sample members, and hashlib with
    ``numpy.random``."""
    events = tmp_path / "events.jsonl"
    events.write_text(
        '{"cascade_id": "c", "node_id": "r", "timestamp": 0.0}\n'
        '{"cascade_id": "c", "node_id": "a", "parent_id": "r", "timestamp": 1.0}\n'
    )
    content = tmp_path / "content.jsonl"
    content.write_text('{"cascade_id": "c", "cluster_id": "g"}\n')
    numbers = tmp_path / "numbers.txt"
    numbers.write_text("1\n2\n5\n9\n")
    model = tmp_path / "model.txt"
    model.write_text("lambda 0.01\nseed 0\nbias 0.5\niterations 1\n"
                     "final_loss 0.5\nconverged 1\nfeature x 2.0 1.0 0.5\n")
    clusters = tmp_path / "clusters.csv"
    clusters.write_text("cluster_id,cascade_id,final_size,is_winner,x,x_missing\n"
                        "g,a,3,0,1.0,0\ng,b,9,1,2.0,0\n")
    window = ["--k", "1", "--in", str(events)]
    loaded = _loaded_after(
        tmp_path,
        ["wiener", str(events)],
        ["stats", "gini", str(numbers)],
        ["stats", "fit-alpha", "--xmin", "1", str(numbers)],
        ["featurize", *window, "--out", "f.csv"],
        ["label", "growth", *window, "--out", "l.csv"],
        ["label", "structure", *window, "--out", "s.csv"],
        ["evaluate", "--cluster", str(clusters), "--model", str(model)],
        ["label", "cluster", *window, "--m", "1", "--content", str(content),
         "--out", "c.csv"],
    )
    assert loaded == [[], [], [], [], [], [], [], ["hashlib", "numpy"]]


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
