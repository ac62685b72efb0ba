"""Smoke test of the benchmark on a tiny corpus (300 cascades, 2k nodes).

    python3 bench/smoke.py

For every workload, untraced and traced, it checks that the run is correct
and that every metric named in BENCHMARK.json is reported with its unit, in
the JSON result and in the printed table. On traced commands run directly,
it checks that self times are non-negative and that they add up to the root
span: exactly for single-threaded commands, and to between 1 and `threads`
times the root when the feature pool runs. Exits non-zero on the first
failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run
import tracer

TINY = run.Spec(n_nodes=2000, n_cascades=300, events=10_500, tolerance=0.05, corpora=1)
SEED = 1


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL {message}")


def check_reported_metrics(spec: dict) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in run.WORKLOADS:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                result = run.run_workload(workload, SEED, 0, trace, spec=TINY)
            label = f"{workload} trace={int(trace)}"
            check(result["correct"] and result["failed"] == 0, f"{label}: {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected, f"{label}: metrics {sorted(got)} != {sorted(expected)}")
            table = {}
            for line in printed.getvalue().splitlines():
                parts = line.split()
                if len(parts) >= 3 and not line.startswith("#"):
                    table[parts[0]] = parts[2]
            # A traced run prints the end-to-end metrics of its untraced
            # repetitions as well.
            shown = {**end_to_end, **per_layer} if trace else end_to_end
            for name, unit in shown.items():
                check(table.get(name) == unit, f"{label}: table lacks {name} [{unit}]")
            print(f"smoke: ok {label}")


def check_self_times() -> None:
    with tempfile.TemporaryDirectory(dir=run.CACHE) as tmp:
        work = Path(tmp)
        for workload in run.WORKLOADS:
            inp = run.choose_inputs(SEED, TINY, work)[0]
            run.build_fixtures(workload, inp)
            out = work / "out"
            out.mkdir(exist_ok=True)
            for name, args, stdout_name in run.COMMANDS[workload](inp, out):
                spans_path = work / f"{workload}-{name}.json"
                code, _, _ = run.run_command(run.cli_argv(args, spans_path),
                                             out / stdout_name, work / f"{name}.err")
                check(code == 0, f"traced {workload} {name} exited {code}")
                spans = json.loads(spans_path.read_text(encoding="utf-8"))
                selfs = tracer.self_times(spans)
                check(min(selfs.values()) >= 0.0, f"{workload} {name}: negative self time")
                roots = [s for s in spans if s[1] is None]
                check(len(roots) == 1 and roots[0][2] == "cli",
                      f"{workload} {name}: expected one root span")
                root = roots[0][4] - roots[0][3]
                threads = max([s[5]["threads"] for s in spans
                               if s[2] == "features.batch" and s[5]] or [1])
                total = sum(selfs.values())
                if threads == 1:
                    check(abs(total - root) <= 1e-9 * (len(spans) + root),
                          f"{workload} {name}: self times sum {total} != root {root}")
                else:
                    check(root * (1 - 1e-9) <= total <= threads * root,
                          f"{workload} {name}: self times sum {total} vs root {root}")
                print(f"smoke: ok self times {workload} {name} ({len(spans)} spans)")


def main() -> int:
    if not (run.SRC / "cascadekit" / "cli.py").is_file():
        print(f"smoke: no cascadekit sources at {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    run.CACHE.mkdir(exist_ok=True)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_reported_metrics(spec)
    check_self_times()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
