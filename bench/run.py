"""cascadekit benchmark: the generate, analyze and report workloads.

    python3 bench/run.py --workload {generate,analyze,report,all} \
        --seed N --seconds S --trace {0,1}

Load model: a closed loop with one client. This process runs a workload's
cascadekit CLI commands one after another, each in a fresh interpreter
(``python -m cascadekit.cli`` over ``src/``), and repeats the sequence until
``--seconds`` have passed. End-to-end metrics come from untraced
repetitions. With ``--trace 1`` every untraced repetition is followed by a
traced one (see ``tracer.py``), whose spans give the per-layer metrics; the
wall-time ratio of the two is the tracing overhead.

Inputs are made from ``--seed`` alone. Every corpus uses the README
generator config (20k nodes, target_alpha 2, x_min 5, rate_boost 3) with
``SPEC.n_cascades`` cascades. With a tail exponent of 2 the event total of
a fixed number of cascades swings by a factor of two between generator
seeds, so a corpus's generator seed is one of ``1000 * seed + j`` whose
drawn sizes total within ``SPEC.tolerance`` of ``SPEC.events``; the tail
stays inside every corpus. The cost per event still differs between
corpora, so each seed gets ``SPEC.corpora`` of them and the repetitions
cycle through them.

Every output file of every repetition is hashed; the digests must agree
between repetitions over the same corpus (traced ones included), and each
workload checks its outputs. Each failed command or check counts in
``failed``. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402

ALPHA = 2.0
X_MIN = 5.0
SYNTH_CONFIG = {
    "attachment_m": 2,
    "page_fraction": 0.05,
    "page_degree_boost": 3.0,
    "reshare_prob": 0.5,
    "rate_boost": 3.0,
    "target_alpha": ALPHA,
    "x_min": X_MIN,
}
K = 5
FOLDS = 10
CLUSTER_M = 10
LABEL_THREADS = 2
# A Hill estimate over ~1000 floored sizes has a standard error near 0.03
# plus a small upward bias from flooring; 0.25 leaves room for both.
ALPHA_TOLERANCE = 0.25
SETUP_RUNS = 9
# Scaled times are seconds at the machine speed where calibration_loop()
# takes this long (about its time on the reference box).
CALIBRATION_S = 0.05
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import cascadekit.cli as cli; "
    "cli.build_parser(); print(repr(time.perf_counter() - t))"
)

END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
WORKLOADS = ("generate", "analyze", "report")


@dataclass(frozen=True)
class Spec:
    n_nodes: int = 20_000
    n_cascades: int = 1000
    events: int = 42_000  # target event total of a corpus, roots included
    tolerance: float = 0.02
    corpora: int = 3


SPEC = Spec()


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, broken fixture)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One BLAS thread: with the feature pool's two workers the run stays
    # within the two cores of the reference box.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_command(argv: list[str], stdout_path: Path, stderr_path: Path):
    """Run one command to completion: (exit code, wall seconds, peak RSS MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def calibration_loop() -> float:
    """Seconds this process takes for a fixed pure-Python job (dicts, string
    formatting, JSON), like the interpreter work cascadekit does."""
    start = time.perf_counter()
    table = {}
    for i in range(10_000):
        key = f"c{i:05d}"
        table[key] = {"id": key, "t": i * 0.5, "n": i % 7}
    back = json.loads(json.dumps(table, sort_keys=True))
    sum(row["n"] for row in back.values())
    return time.perf_counter() - start


def machine_speed() -> float:
    """Median of five calibration loops: how slow the shared machine runs now."""
    return statistics.median(calibration_loop() for _ in range(5))


def scaled(seconds: float, speed_before: float, speed_after: float) -> float:
    """``seconds`` measured between two machine_speed() samples, scaled to the
    reference speed. The reference box drifts by about 20% over minutes."""
    return seconds * 2 * CALIBRATION_S / (speed_before + speed_after)


def cli_argv(args: list[str], spans_out: Path | None = None) -> list[str]:
    if spans_out is None:
        return [sys.executable, "-m", "cascadekit.cli", *args]
    return [sys.executable, str(HERE / "tracer.py"), str(spans_out), *args]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cascadekit").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


# --- inputs -----------------------------------------------------------------


def drawn_sizes(gen_seed: int, spec: Spec) -> list[int]:
    """Reshare count of each cascade the generator makes for ``gen_seed``.

    ``simulate_cascades`` gives cascade ``idx`` its own generator seeded
    ``[seed, 2, idx]`` and draws the size from its first uniform; the realised
    size is capped by the nodes outside the root.
    """
    import numpy as np
    from cascadekit.synth import powerlaw_inverse_cdf

    sizes = []
    for idx in range(spec.n_cascades):
        u = np.random.default_rng([gen_seed, 2, idx]).random()
        drawn = powerlaw_inverse_cdf(1.0 - u, ALPHA, X_MIN)
        sizes.append(min(max(1, int(drawn)), spec.n_nodes - 1))
    return sizes


@dataclass
class Input:
    """One corpus: its generator config and, once built, its cached files."""

    gen_seed: int
    cascades: int
    events: int
    largest: int
    config: Path
    corpus: Path | None = None  # events.jsonl, graph.edges, content.jsonl
    report: Path | None = None  # labeled.csv, model.txt, clusters.csv
    build_s: float = 0.0
    built_now: bool = False


def choose_inputs(seed: int, spec: Spec, work: Path) -> list[Input]:
    inputs = []
    for j in range(1000):
        gen_seed = 1000 * seed + j
        sizes = drawn_sizes(gen_seed, spec)
        events = sum(sizes) + len(sizes)
        if abs(events - spec.events) > spec.tolerance * spec.events:
            continue
        config = work / f"synth-{gen_seed}.cfg"
        write_config(config, gen_seed, spec)
        inputs.append(Input(gen_seed, len(sizes), events, max(sizes), config))
        if len(inputs) == spec.corpora:
            return inputs
    raise BenchError(f"too few generator seeds for --seed {seed} meet the event target")


def write_config(path: Path, gen_seed: int, spec: Spec) -> None:
    cfg = dict(SYNTH_CONFIG, n_nodes=spec.n_nodes, n_cascades=spec.n_cascades, seed=gen_seed)
    path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()), encoding="utf-8")


def assign_clusters(src: Path, dst: Path) -> None:
    """The generator emits no cluster_id: give one in cascade-id order
    (content.jsonl is sorted by id), ``CLUSTER_M`` cascades per cluster."""
    with open(src, encoding="utf-8") as fin, open(dst, "w", encoding="utf-8") as fout:
        for i, line in enumerate(fin):
            row = json.loads(line)
            row["cluster_id"] = f"g{i // CLUSTER_M:05d}"
            fout.write(json.dumps(row, sort_keys=True) + "\n")


def _fixture_command(args: list[str], workdir: Path, name: str) -> None:
    code, _, _ = run_command(cli_argv(args), workdir / f"{name}.out", workdir / f"{name}.err")
    if code != 0:
        err = (workdir / f"{name}.err").read_text(errors="replace")
        raise BenchError(f"fixture step {name} exited {code}: {err.strip()[-500:]}")


def _cached(key: str, build) -> tuple[Path, float, bool]:
    """Directory ``key`` under the cache, made by ``build(dir)`` unless present:
    (dir, build seconds, built now)."""
    final = CACHE / key
    marker = final / "built.json"
    if marker.is_file():
        return final, json.loads(marker.read_text(encoding="utf-8"))["build_s"], False
    tmp = Path(tempfile.mkdtemp(prefix=f"{key}.tmp-", dir=CACHE))
    try:
        start = time.perf_counter()
        build(tmp)
        build_s = time.perf_counter() - start
        (tmp / "built.json").write_text(json.dumps({"build_s": build_s}), encoding="utf-8")
        tmp.rename(final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return final, build_s, True


def build_fixtures(workload: str, inp: Input) -> None:
    """Cache what ``analyze`` and ``report`` read, per corpus.

    ``generate`` reads only its config. ``analyze`` reads a generated corpus.
    ``report`` also reads a labeled CSV, a model trained on it and a cluster
    CSV over the same corpus. Keys include digests of the program's sources
    and of the generator config.
    """
    if workload == "generate":
        return
    key = f"{source_digest()}-g{inp.gen_seed}-{sha256(inp.config)[:12]}"

    def corpus(d: Path) -> None:
        _fixture_command(["generate", "--params", str(inp.config), "--out-dir", str(d)],
                         d, "generate")

    inp.corpus, build_s, built_now = _cached(f"{key}-corpus", corpus)
    inp.build_s += build_s
    inp.built_now |= built_now
    if workload != "report":
        return

    def report(d: Path) -> None:
        args = ["--k", str(K), "--in", str(inp.corpus / "events.jsonl"),
                "--graph", str(inp.corpus / "graph.edges"), "--seed", str(inp.gen_seed)]
        _fixture_command(["label", "growth", *args, "--content",
                          str(inp.corpus / "content.jsonl"), "--out", str(d / "labeled.csv")],
                         d, "label")
        _fixture_command(["train", "--in", str(d / "labeled.csv"), "--folds", "0",
                          "--seed", str(inp.gen_seed), "--model-out", str(d / "model.txt")],
                         d, "train")
        assign_clusters(inp.corpus / "content.jsonl", d / "content_clustered.jsonl")
        _fixture_command(["label", "cluster", *args, "--m", str(CLUSTER_M), "--content",
                          str(d / "content_clustered.jsonl"), "--out", str(d / "clusters.csv")],
                         d, "cluster")

    inp.report, build_s, built_now = _cached(f"{key}-report", report)
    inp.build_s += build_s
    inp.built_now |= built_now


# --- workloads --------------------------------------------------------------
# Each returns the commands of one repetition as (name, CLI args, stdout file
# kept as an output) and checks one repetition's outputs.


def generate_commands(inp: Input, out: Path):
    return [("generate", ["generate", "--params", str(inp.config), "--out-dir", str(out)],
             "generate.txt")]


def analyze_commands(inp: Input, out: Path):
    return [
        ("label", ["label", "growth", "--k", str(K), "--in", str(inp.corpus / "events.jsonl"),
                   "--content", str(inp.corpus / "content.jsonl"),
                   "--graph", str(inp.corpus / "graph.edges"), "--threads", str(LABEL_THREADS),
                   "--seed", str(inp.gen_seed), "--out", str(out / "labeled.csv"),
                   "--meta-out", str(out / "task_meta.json")], "label.txt"),
        ("train", ["train", "--in", str(out / "labeled.csv"), "--folds", str(FOLDS),
                   "--seed", str(inp.gen_seed), "--model-out", str(out / "model.txt")],
         "train.txt"),
    ]


def report_commands(inp: Input, out: Path):
    return [
        ("evaluate", ["evaluate", "--cluster", str(inp.report / "clusters.csv"),
                      "--model", str(inp.report / "model.txt")], "cluster_eval.txt"),
        ("wiener", ["wiener", str(inp.corpus / "events.jsonl")], "wiener.tsv"),
    ]


def _table(path: Path) -> dict[str, list[str]]:
    """First column -> remaining columns of a whitespace table on stdout."""
    rows = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        parts = line.split()
        if parts:
            rows[parts[0]] = parts[1:]
    return rows


def generate_checks(inp: Input, out: Path):
    from cascadekit.stats import fit_powerlaw_alpha

    per_cascade: dict[str, int] = {}
    with open(out / "events.jsonl", encoding="utf-8") as fh:
        for line in fh:
            cid = json.loads(line)["cascade_id"]
            per_cascade[cid] = per_cascade.get(cid, 0) + 1
    written = sum(per_cascade.values())
    reported = int((out / "generate.txt").read_text(encoding="utf-8").split()[3])
    alpha = fit_powerlaw_alpha([n - 1 for n in per_cascade.values()], X_MIN)
    checks = [
        ("events written == events drawn", written == reported == inp.events,
         f"written {written}, reported {reported}, drawn {inp.events}"),
        (f"|alpha - {ALPHA}| <= {ALPHA_TOLERANCE}", abs(alpha - ALPHA) <= ALPHA_TOLERANCE,
         f"Hill alpha {alpha:.4f}"),
    ]
    return checks, {"fitted_alpha": (alpha, "1")}


def analyze_checks(inp: Input, out: Path):
    table = _table(out / "train.txt")
    accuracy, auc, baseline = (float(table[k][0]) for k in ("accuracy", "auc", "baseline"))
    checks = [("cv accuracy > majority baseline", accuracy > baseline,
               f"accuracy {accuracy}, baseline {baseline}")]
    return checks, {"cv_accuracy": (accuracy, "ratio"), "cv_auc": (auc, "ratio")}


def report_checks(inp: Input, out: Path):
    table = _table(out / "cluster_eval.txt")
    top1, mrr, clusters = (float(table[k][0]) for k in ("top1_accuracy", "mrr", "clusters"))
    wiener_rows = len((out / "wiener.tsv").read_text(encoding="utf-8").splitlines())
    checks = [
        (f"cluster top1 > 1/{CLUSTER_M}", top1 > 1 / CLUSTER_M, f"top1 {top1}"),
        ("one cluster instance per group", clusters == inp.cascades // CLUSTER_M,
         f"{clusters:g} instances"),
        ("one wiener row per cascade", wiener_rows == inp.cascades, f"{wiener_rows} rows"),
    ]
    return checks, {"cluster_top1": (top1, "ratio"), "cluster_mrr": (mrr, "ratio")}


COMMANDS = {"generate": generate_commands, "analyze": analyze_commands,
            "report": report_commands}
CHECKS = {"generate": generate_checks, "analyze": analyze_checks, "report": report_checks}


# --- measurement ------------------------------------------------------------


@dataclass
class Rep:
    input: Input
    traced: bool
    commands: int
    wall: float  # as measured
    scaled: float  # sum of the commands' scaled times
    peak_rss_mb: float
    digests: dict[str, str]
    failed_commands: list[str]
    checks: list[tuple[str, bool, str]]
    quality: dict[str, tuple[float, str]]
    layers: dict[str, float] | None


def run_rep(workload: str, inp: Input, work: Path, index: int, traced: bool) -> Rep:
    # Every repetition writes to the same path, which some commands print.
    out = work / "out"
    logs = work / f"rep{index}"
    out.mkdir()
    logs.mkdir()
    commands = COMMANDS[workload](inp, out)
    results = []
    speeds = [machine_speed()]
    for name, args, stdout_name in commands:
        spans = logs / f"{name}.spans.json" if traced else None
        results.append(run_command(cli_argv(args, spans), out / stdout_name,
                                   logs / f"{name}.err"))
        speeds.append(machine_speed())
    wall = sum(r[1] for r in results)
    scaled_wall = sum(scaled(r[1], speeds[i], speeds[i + 1]) for i, r in enumerate(results))

    failed = [name for (name, _, _), (code, _, _) in zip(commands, results) if code != 0]
    for name in failed:
        err = (logs / f"{name}.err").read_text(errors="replace").strip()
        print(f"! {name} failed: {err[-500:]}", file=sys.stderr)
    checks, quality, layers = [], {}, None
    if not failed:
        try:
            checks, quality = CHECKS[workload](inp, out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            checks = [("outputs readable", False, repr(exc))]
        if traced:
            layers = tracer.layer_metrics([
                json.loads((logs / f"{name}.spans.json").read_text(encoding="utf-8"))
                for name, _, _ in commands
            ])
    digests = {p.name: sha256(p) for p in sorted(out.iterdir())}
    shutil.rmtree(out)
    return Rep(inp, traced, len(commands), wall, scaled_wall, max(r[2] for r in results),
               digests, failed, checks, quality, layers)


def measure_setup() -> tuple[list[float], list[float]]:
    """Fresh-interpreter ``import cascadekit.cli`` + ``build_parser()`` times,
    as measured and scaled.

    One untimed probe first, so byte-code caches are written before timing.
    """
    times, scaled_times = [], []
    speed = machine_speed()
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        speed_before, speed = speed, machine_speed()
        if i:
            times.append(float(proc.stdout))
            scaled_times.append(scaled(times[-1], speed_before, speed))
    return times, scaled_times


def measure(workload: str, inputs: list[Input], work: Path, seconds: float,
            trace: bool) -> list[Rep]:
    """Repeat the workload until ``seconds`` have passed, at least once.

    Round ``r`` runs on ``inputs[r % len(inputs)]``: untraced, then traced
    if ``trace``.
    """
    reps: list[Rep] = []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        for traced in ((False, True) if trace else (False,)):
            reps.append(run_rep(workload, inputs[r % len(inputs)], work, len(reps), traced))
        r += 1
    return reps


def digest_mismatches(reps: list[Rep]) -> tuple[int, list[str]]:
    """Repetitions whose outputs differ from the first over the same corpus,
    and the names of the differing files."""
    first: dict[int, dict[str, str]] = {}
    count, names = 0, set()
    for rep in reps:
        reference = first.setdefault(rep.input.gen_seed, rep.digests)
        if rep.digests != reference:
            count += 1
            names |= {n for n in reference.keys() | rep.digests.keys()
                      if reference.get(n) != rep.digests.get(n)}
    return count, sorted(names)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: Spec = SPEC) -> dict:
    """Measure one workload, print its report, and return the JSON result."""
    CACHE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"run-{workload}-", dir=CACHE))
    try:
        inputs = choose_inputs(seed, spec, work)
        for inp in inputs:
            build_fixtures(workload, inp)
        setup, setup_scaled = measure_setup()
        reps = measure(workload, inputs, work, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in reps if not r.traced]
    traced = [r for r in reps if r.traced]
    mismatched_reps, mismatched_files = digest_mismatches(reps)
    compared = len(reps) - len({r.input.gen_seed for r in reps})
    attempted = compared + sum(r.commands + len(r.checks) for r in reps)
    failed = mismatched_reps + sum(
        len(r.failed_commands) + sum(not ok for _, ok, _ in r.checks) for r in reps)

    wall = statistics.median(r.scaled for r in plain)
    end_to_end = {
        "wall_s": wall,
        "events_per_s": statistics.median(r.input.events / r.scaled for r in plain),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
    }
    layers = {}
    if trace and all(r.layers is not None for r in traced):
        layers = {name: statistics.median(r.layers[name] for r in traced)
                  for name in tracer.LAYER_METRICS}
        layers["trace.overhead_ratio"] = statistics.median(r.scaled for r in traced) / wall - 1.0

    import numpy

    print(f"# cascadekit benchmark  workload={workload}  seed={seed}  trace={int(trace)}")
    print(f"# python {platform.python_version()}  numpy {numpy.__version__}  "
          f"nproc {os.cpu_count()}  sources {source_digest()}")
    for inp in inputs:
        fixture = (f"; fixtures {inp.build_s:.3f} s, {'built now' if inp.built_now else 'cached'}"
                   if inp.corpus else "")
        print(f"# corpus g{inp.gen_seed}: {inp.cascades} cascades, {inp.events} events, "
              f"largest cascade {inp.largest} reshares{fixture}")
    print("# repetition wall_s as measured (t: traced): " + " ".join(
        f"{r.wall:.3f}{'t' if r.traced else ''}" for r in reps))
    print(f"# medians as measured: wall_s {statistics.median(r.wall for r in plain):.4f}, "
          f"setup_s {statistics.median(setup):.4f}; below, scaled to the reference speed")
    seen = set()
    for rep in reps:
        if rep.input.gen_seed not in seen:
            seen.add(rep.input.gen_seed)
            for name, digest in rep.digests.items():
                print(f"# sha256 g{rep.input.gen_seed} {digest}  {name}")
            for name, ok, detail in rep.checks:
                print(f"# check g{rep.input.gen_seed} {'ok' if ok else 'FAIL'}: "
                      f"{name} ({detail})")
    if mismatched_files:
        print(f"# check FAIL: outputs differ between repetitions: {', '.join(mismatched_files)}")

    samples = {"setup_s": f"median of {len(setup)}"}
    rows = [(name, value, END_TO_END[name], samples.get(name, f"median of {len(plain)} reps"))
            for name, value in end_to_end.items()]
    rows.append(("failed_ratio", failed / attempted, "ratio", f"{failed} of {attempted}"))
    for name in reps[0].quality:
        values = [r.quality[name][0] for r in plain if name in r.quality]
        if values:
            rows.append((name, statistics.median(values), reps[0].quality[name][1],
                         f"median of {len(values)} reps"))
    units = {**END_TO_END, **tracer.LAYER_METRICS, "trace.overhead_ratio": "ratio"}
    rows += [(name, value, units[name], f"median of {len(traced)} traced reps")
             for name, value in layers.items()]
    for name, value, unit, note in rows:
        print(f"{name:28s} {value:18.6f} {unit:6s} {note}")

    metrics = layers if trace else end_to_end
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "cascadekit" / "cli.py").is_file():
        print(f"bench: no cascadekit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Turn SIGTERM into SystemExit, so the running command is killed and
    # waited for, and the scratch directory removed, on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
