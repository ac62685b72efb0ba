"""Command-line entry point.

Subcommands cover the full workflow: generate synthetic data, featurize and
label cascades, train and evaluate the classifier, rank single features,
and compute standalone statistics. ``pipeline`` chains the core steps from
one config file and writes a manifest with digests of every output, so a
run can be reproduced and verified byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping

from . import __version__, io
from .cascade import CascadeTree, ReshareEvent, SocialGraph, build_cascade
from .errors import (
    BadArgumentError, BadParamsError, CascadeKitError, ConfigInvalidError,
    InvalidCascadeError, MissingFeatureError, NonFiniteInputError, SingleClassError,
)
from .features import extract_features_batch
from .learner import (
    DEFAULT_LAMBDA, MAX_ITER, Metrics, check_folds, cross_validate, evaluate_cluster,
    train,
)
from .stats import fit_powerlaw_alpha, gini
from .synth import PARAM_TYPES, SynthParams, generate_social_graph, simulate_cascades
from .tasks import (
    CLUSTER_M, CascadeRecord, FeatureRanking, TaskDataset, build_cluster_task,
    group_summaries, label_growth, label_growth_fixed_R, label_structure,
    rank_single_feature_predictors,
)
from .virality import wiener_index_exact


def _resolve(out_dir: str, path: str | None) -> Path | None:
    """Where an output named ``path`` goes: a relative path lies in
    ``out_dir``, which is created (with its parents) for it."""
    if path is None:
        return None
    p = Path(path)
    if p.is_absolute():
        return p
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return Path(out_dir) / p


def _trees(
    path: str, grouped: Mapping[str, list[ReshareEvent]]
) -> Iterator[tuple[str, CascadeTree]]:
    """(cascade_id, tree) for each cascade read_events read from ``path``, in
    cascade_id order; a rejected cascade names the line of its faulty event."""
    for cid in sorted(grouped):
        try:
            tree = build_cascade(grouped[cid])
        except InvalidCascadeError as exc:
            line = io.event_line(path, cid, exc.index)
            raise ConfigInvalidError(f"{path}:{line}: {exc}") from None
        yield cid, tree


def _load_records(events_path: str, content_path: str | None) -> list[CascadeRecord]:
    grouped = io.read_events(events_path)
    contents = io.read_content_jsonl(content_path) if content_path else {}
    return [
        CascadeRecord(tree=tree, content=contents.get(cid))
        for cid, tree in _trees(events_path, grouped)
    ]


def _synth_params(path: str, cfg: Mapping[str, str]) -> SynthParams:
    """The generator parameters of a config read from ``path``; a value out
    of range names its line."""
    try:
        return SynthParams.from_config(cfg)
    except BadParamsError as exc:
        line = io.config_line(path, exc.fields)
        raise ConfigInvalidError(f"{path}:{line}: {exc}") from None


def _load_graph(args):
    if args.graph is None:
        return None
    return io.read_edge_list(args.graph, directed=args.directed)


def _metric_rows(metrics: Metrics) -> list[tuple[str, float, float | None]]:
    """(name, mean, sd) of each row of the metrics table; the baseline has no sd."""
    return [
        ("accuracy", metrics.accuracy, metrics.accuracy_sd),
        ("f1", metrics.f1, metrics.f1_sd),
        ("auc", metrics.auc, metrics.auc_sd),
        ("baseline", metrics.majority_baseline, None),
    ]


def _print_metrics(metrics: Metrics) -> None:
    print("metric    mean      sd")
    for name, mean, sd in _metric_rows(metrics):
        print(f"{name:<10}{mean:.6f}  {'-' if sd is None else f'{sd:.6f}'}")


def _ranking_table(rankings: list[FeatureRanking]) -> list[tuple[str, ...]]:
    return [("feature", "accuracy", "pearson_log_size")] + [
        (row.feature, io.fmt(row.accuracy), io.fmt(row.pearson_with_log_size))
        for row in rankings
    ]


# --- steps -------------------------------------------------------------------

def _generate(
    params: SynthParams, events: Path, graph: Path, content: Path | None
) -> str:
    """Write a synthetic graph and its cascades (and their content records,
    unless ``content`` is None); returns the one-line summary. The graph is
    written before the cascades are simulated, so its sorted edge list is
    gone before the events exist."""
    social = generate_social_graph(params, params.seed)
    io.write_edge_list(graph, social)
    cascades, contents = simulate_cascades(social, params, params.seed)
    io.write_events_jsonl(events, cascades)
    if content:
        io.write_content_jsonl(content, contents)
    n_events = sum(len(c) for c in cascades)
    return (f"generated {len(cascades)} cascades, {n_events} events, "
            f"{social.edge_count()} graph edges")


def _task_options(
    task: str, R: int | None, quartiles: bool, m: int | None = None
) -> None:
    """Refuse an option the task would ignore: ``R`` and ``quartiles`` shape
    growth labels only, ``m`` cluster instances only, and fixed-R growth
    labels have no quartiles."""
    if task != "growth" and (R is not None or quartiles):
        name = "R" if R is not None else "quartiles"
        raise BadArgumentError(f"{name} applies to growth labels only, not {task}")
    if task != "cluster" and m is not None:
        raise BadArgumentError(f"m applies to cluster labels only, not {task}")
    if R is not None and quartiles:
        raise BadArgumentError("quartiles does not apply to fixed-R growth labels")


def _label(
    records: list[CascadeRecord],
    task: str,
    k: int,
    *,
    R: int | None = None,
    quartiles: bool = False,
    seed: int = 0,
    graph: SocialGraph | None = None,
    centered_slopes: bool = False,
    threads: int = 1,
) -> tuple[TaskDataset, dict]:
    """The growth (with ``R``, fixed-R growth) or structure dataset and its
    task metadata: the dataset's, the seed, and whether ``did_leave`` was
    approximated for want of a graph."""
    common = dict(graph=graph, centered_slopes=centered_slopes, threads=threads)
    if task == "structure":
        dataset = label_structure(records, k, **common)
    elif R is not None:
        dataset = label_growth_fixed_R(records, k, R, **common)
    else:
        dataset = label_growth(records, k, quartiles=quartiles, **common)
    meta = {**dataset.metadata, "seed": seed}
    if graph is None:
        meta["did_leave_approximate"] = True
    return dataset, meta


@contextmanager
def _labels_of(path: str) -> Iterator[None]:
    """Blame the labeled CSV at ``path`` for a class with too few examples to
    fit or to cross-validate, as the body finds it."""
    try:
        yield
    except SingleClassError as exc:
        raise ConfigInvalidError(f"{path}: {exc}") from None


def _cross_validate(
    args, X, y, columns, metrics_out: Path | None = None, per_fold_out: Path | None = None
) -> Metrics:
    """Cross-validate at the folds, lambda and seed of ``args``; write the
    metrics table and the per-fold table where a path is given."""
    metrics = cross_validate(
        X, y, folds=args.folds, lam=args.lam, seed=args.seed, feature_names=columns
    )
    if metrics_out:
        io.write_csv(metrics_out, ["metric", "mean", "sd"], [
            [name, io.fmt(mean), "" if sd is None else io.fmt(sd)]
            for name, mean, sd in _metric_rows(metrics)
        ])
    if per_fold_out:
        folds = zip(
            metrics.fold_sizes, metrics.fold_accuracy, metrics.fold_f1, metrics.fold_auc
        )
        io.write_csv(per_fold_out, ["fold", "size", "accuracy", "f1", "auc"], [
            [str(i), str(size), io.fmt(acc), io.fmt(f1v), io.fmt(aucv)]
            for i, (size, acc, f1v, aucv) in enumerate(folds)
        ])
    return metrics


# --- subcommands ------------------------------------------------------------

def cmd_generate(args) -> int:
    # The params file's seed key seeds the generator, and it runs on one thread.
    if args.seed is not None:
        raise BadArgumentError(
            "--seed does not apply to generate; set seed in the params file"
        )
    if args.threads is not None:
        raise BadArgumentError("--threads does not apply to generate")
    params = _synth_params(args.params, io.read_config(args.params, PARAM_TYPES))
    print(_generate(
        params,
        _resolve(args.out_dir, args.out_events),
        _resolve(args.out_dir, args.out_graph),
        args.out_content and _resolve(args.out_dir, args.out_content),
    ))
    return 0


def cmd_featurize(args) -> int:
    records = _load_records(args.input, args.content)
    graph = _load_graph(args)
    usable = [(r.tree, r.content) for r in records if r.tree.size >= args.k]
    if not usable:
        raise ConfigInvalidError(f"no cascades with >= {args.k} reshares")
    ids, X, columns = extract_features_batch(
        usable, args.k, graph=graph,
        centered_slopes=args.centered_slopes, threads=args.threads,
    )
    io.write_features_csv(_resolve(args.out_dir, args.out), ids, X, columns)
    print(f"featurized {len(ids)} cascades at k={args.k}")
    return 0


def cmd_label(args) -> int:
    _task_options(args.task, args.R, args.quartiles, args.m)
    records = _load_records(args.input, args.content)
    graph = _load_graph(args)
    out_path = _resolve(args.out_dir, args.out)
    common = dict(
        graph=graph, centered_slopes=args.centered_slopes, threads=args.threads
    )
    if args.task == "cluster":
        m = CLUSTER_M if args.m is None else args.m
        instances = build_cluster_task(records, args.k, m=m, seed=args.seed, **common)
        io.write_cluster_csv(out_path, instances)
        meta = {"task": "cluster", "k": args.k, "m": m, "seed": args.seed,
                "n_instances": len(instances)}
        print(f"wrote {len(instances)} cluster instances to {out_path}")
    else:
        dataset, meta = _label(
            records, args.task, args.k, R=args.R, quartiles=args.quartiles,
            seed=args.seed, **common,
        )
        io.write_labeled_csv(out_path, dataset)
        print(f"wrote {len(dataset.examples)} examples to {out_path} "
              f"(threshold {dataset.threshold})")
    if args.meta_out:
        io.write_manifest(_resolve(args.out_dir, args.meta_out), meta)
    return 0


def cmd_train(args) -> int:
    X, y, _, _, columns = io.read_labeled_csv(args.input)
    with _labels_of(args.input):
        model = train(X, y, lam=args.lam, seed=args.seed, feature_names=columns)
        if args.folds > 0:
            check_folds(y, args.folds)
    io.write_model(_resolve(args.out_dir, args.model_out), model)
    if model.converged:
        status = "converged"
    elif model.iterations < MAX_ITER:
        status = f"line search failed at iteration {model.iterations}"
    else:
        status = "hit iteration cap"
    print(
        f"trained on {X.shape[0]} examples, {len(model.feature_names)} features "
        f"({len(model.dropped)} constant dropped), {model.iterations} iterations "
        f"({status}), loss {model.final_loss:.6f}"
    )
    if args.folds > 0:
        _print_metrics(_cross_validate(args, X, y, columns))
    return 0


def cmd_evaluate(args) -> int:
    if args.cluster:
        if not args.model:
            raise ConfigInvalidError("--cluster evaluation requires --model")
        model = io.read_model(args.model)
        instances = io.read_cluster_csv(args.cluster)
        try:
            top1, mean_rr = evaluate_cluster(model, instances)
        except MissingFeatureError as exc:
            raise ConfigInvalidError(
                f"{args.cluster}:1: feature columns do not match the model's ({exc}); "
                "label the clusters at the model's k and feature options"
            ) from None
        except NonFiniteInputError as exc:
            raise ConfigInvalidError(f"{args.model}: {exc}") from None
        print(f"clusters   {len(instances)}")
        print(f"top1_accuracy {top1:.6f}")
        print(f"mrr           {mean_rr:.6f}")
        return 0
    if not args.input:
        raise ConfigInvalidError("evaluate needs --in (labeled CSV) or --cluster")
    X, y, _, _, columns = io.read_labeled_csv(args.input)
    with _labels_of(args.input):
        check_folds(y, args.folds)
    _print_metrics(_cross_validate(
        args, X, y, columns,
        args.metrics_out and _resolve(args.out_dir, args.metrics_out),
        args.per_fold_out and _resolve(args.out_dir, args.per_fold_out),
    ))
    return 0


def cmd_rank_features(args) -> int:
    if args.top < 0:
        raise BadArgumentError(f"--top must be >= 0, got {args.top}")
    X, y, sizes, _, columns = io.read_labeled_csv(args.input)
    with _labels_of(args.input):
        check_folds(y, args.folds)
    lines = _ranking_table(rank_single_feature_predictors(
        X, y, sizes, columns, folds=args.folds, seed=args.seed, lam=args.lam
    ))
    if args.out:
        io.write_csv(_resolve(args.out_dir, args.out), lines[0], lines[1:])
    for feature, acc, r in lines[1 : args.top + 1]:
        print(f"{feature}\t{acc}\t{r}")
    return 0


def cmd_wiener(args) -> int:
    for cid, tree in _trees(args.file, io.read_events(args.file)):
        # A root-only cascade has no pair of nodes to measure.
        w = wiener_index_exact(tree) if tree.n_nodes >= 2 else float("nan")
        print(f"{cid}\t{io.fmt(w)}")
    return 0


def cmd_stats(args) -> int:
    values = io.read_numbers(args.file)
    if args.stat == "fit-alpha":
        print(io.fmt(fit_powerlaw_alpha(values, args.xmin)))
    else:
        print(io.fmt(gini(values)))
    return 0


# Each report option: its flag, its value when not given, and the tables that
# read it. Given to any other table, it is refused.
_REPORT_OPTIONS = {
    "graph": ("--graph", None, ("rank-features", "accuracy-vs-k")),
    "directed": ("--directed", False, ("rank-features", "accuracy-vs-k")),
    "k": ("--k", 5, ("rank-features",)),
    "ks": ("--ks", "5,10,25", ("accuracy-vs-k",)),
    "R": ("--R", None, ("accuracy-vs-k",)),
    "lam": ("--lambda", DEFAULT_LAMBDA, ("rank-features", "accuracy-vs-k")),
    "folds": ("--folds", 10, ("rank-features", "accuracy-vs-k")),
    "group_by": ("--group-by", "category", ("groups",)),
    "seed": ("--seed", 0, ("rank-features", "accuracy-vs-k")),
    "threads": ("--threads", 1, ("rank-features", "accuracy-vs-k")),
}


def _report_options(args) -> None:
    """Refuse an option the report table would ignore, then set each option
    not given to its default."""
    for dest, (flag, default, tables) in _REPORT_OPTIONS.items():
        value = getattr(args, dest)
        if value is None or value is False:
            setattr(args, dest, default)
        elif args.kind not in tables:
            raise BadArgumentError(f"{flag} does not apply to report {args.kind}")


def cmd_report(args) -> int:
    _report_options(args)
    records = _load_records(args.input, args.content)
    graph = _load_graph(args)
    if args.kind == "groups":
        rows = group_summaries(records, args.group_by)
        lines = [("group", "count", "mean_final_size", "mean_wiener")]
        lines += [
            (r.group, str(r.count), io.fmt(r.mean_final_size), io.fmt(r.mean_wiener))
            for r in rows
        ]
    elif args.kind == "rank-features":
        dataset, _ = _label(records, "growth", args.k, graph=graph, threads=args.threads)
        lines = _ranking_table(rank_single_feature_predictors(
            dataset.X, dataset.y, dataset.final_sizes, dataset.columns,
            folds=args.folds, seed=args.seed, lam=args.lam,
        ))
    else:
        try:
            ks = [int(s) for s in args.ks.split(",")]
        except ValueError as exc:
            raise BadArgumentError(f"--ks: {exc}") from None
        lines = [(
            "k", "n", "threshold", "positive_fraction", "baseline",
            "accuracy", "accuracy_sd", "f1", "f1_sd", "auc", "auc_sd",
        )]
        for k in ks:
            dataset, _ = _label(
                records, "growth", k, R=args.R, graph=graph, threads=args.threads
            )
            metrics = _cross_validate(args, dataset.X, dataset.y, dataset.columns)
            lines.append((str(k), str(len(dataset.examples)), *map(io.fmt, (
                dataset.threshold, metrics.positive_fraction, metrics.majority_baseline,
                metrics.accuracy, metrics.accuracy_sd, metrics.f1, metrics.f1_sd,
                metrics.auc, metrics.auc_sd,
            ))))
    if args.out:
        io.write_csv(_resolve(args.out_dir, args.out), lines[0], lines[1:])
    for line in lines:
        print("\t".join(line))
    return 0


def _task(value: str) -> str:
    if value not in ("growth", "structure"):
        raise ValueError(f"expected growth or structure, got {value!r}")
    return value


def _flag(value: str) -> bool:
    """``true`` or ``false``, in any case."""
    if value.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {value!r}")
    return value.lower() == "true"


def _at_least(low: int, parse=int, kind: str = "an integer"):
    """Parser of ``kind`` of number, read by ``parse``, that must be >= ``low``."""

    def parse_at_least(value: str):
        number = parse(value)
        if number < low:
            raise ValueError(f"expected {kind} >= {low}, got {number}")
        return number

    return parse_at_least


# The pipeline's own config keys, next to the SynthParams fields: each one's
# parser, and its value when the config does not set it.
PIPELINE_KEYS = {
    "k": (_at_least(1), 5),
    "task": (_task, "growth"),
    "quartiles": (_flag, False),
    "lambda": (_at_least(0, io.finite_float, "a finite number"), DEFAULT_LAMBDA),
    "folds": (_at_least(2), 10),
    "use_graph": (_flag, True),
    "centered_slopes": (_flag, False),
}

PIPELINE_OUTPUTS = (
    "events.jsonl", "graph.edges", "content.jsonl", "labeled.csv", "task_meta.json",
    "model.txt", "metrics.csv", "per_fold.csv",
)


def cmd_pipeline(args) -> int:
    """generate -> label (featurize inside) -> train -> evaluate -> manifest."""
    parsers = {key: parse for key, (parse, _) in PIPELINE_KEYS.items()}
    cfg = io.read_config(args.config, {**PARAM_TYPES, **parsers})
    params = _synth_params(args.config, cfg)
    opts = {
        key: parse(cfg[key]) if key in cfg else default
        for key, (parse, default) in PIPELINE_KEYS.items()
    }
    try:
        _task_options(opts["task"], None, opts["quartiles"])
    except BadArgumentError as exc:
        line = io.config_line(args.config, ["quartiles"])
        raise ConfigInvalidError(f"{args.config}:{line}: {exc}") from None
    paths = {name: _resolve(args.out_dir, name) for name in PIPELINE_OUTPUTS}

    _generate(params, paths["events.jsonl"], paths["graph.edges"], paths["content.jsonl"])
    # Re-read what was written so the pipeline exercises the same file
    # surfaces external callers use.
    records = _load_records(str(paths["events.jsonl"]), str(paths["content.jsonl"]))
    graph = io.read_edge_list(paths["graph.edges"]) if opts["use_graph"] else None
    dataset, meta = _label(
        records, opts["task"], opts["k"], quartiles=opts["quartiles"], seed=params.seed,
        graph=graph, centered_slopes=opts["centered_slopes"], threads=args.threads,
    )
    io.write_labeled_csv(paths["labeled.csv"], dataset)
    io.write_manifest(paths["task_meta.json"], meta)

    X, y, _, _, columns = io.read_labeled_csv(paths["labeled.csv"])
    model = train(X, y, lam=opts["lambda"], seed=params.seed, feature_names=columns)
    io.write_model(paths["model.txt"], model)
    fit = argparse.Namespace(folds=opts["folds"], lam=opts["lambda"], seed=params.seed)
    metrics = _cross_validate(
        fit, X, y, columns, paths["metrics.csv"], paths["per_fold.csv"]
    )

    manifest = {
        "version": __version__,
        "config": dict(cfg),
        "seed": params.seed,
        "outputs": {name: io.sha256_file(path) for name, path in sorted(paths.items())},
    }
    io.write_manifest(_resolve(args.out_dir, "manifest.json"), manifest)
    _print_metrics(metrics)
    print(f"pipeline outputs in {Path(args.out_dir)}")
    return 0


# --- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadekit",
        description="Cascade growth analytics: trees, virality, features, prediction",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several subcommands, each declared once. ``generate``
    # and ``report`` take --seed and --threads without defaults, to tell a
    # flag given from one left out and refuse one they would ignore.
    def shared(seed: int | None, threads: int | None) -> argparse.ArgumentParser:
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument("--seed", type=int, default=seed, help="random seed")
        p.add_argument("--threads", type=int, default=threads, help="worker threads")
        p.add_argument("--out-dir", default=".", help="directory for output files")
        return p

    common, no_defaults = shared(0, 1), shared(None, None)
    events = argparse.ArgumentParser(add_help=False)
    events.add_argument("--in", dest="input", required=True, help="events JSONL/CSV")
    events.add_argument("--content", help="content records JSONL")
    events.add_argument("--graph", help="social graph edge list")
    events.add_argument("--directed", action="store_true")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--k", type=int, required=True, help="reshares observed")
    window.add_argument("--centered-slopes", action="store_true")
    fit = argparse.ArgumentParser(add_help=False)
    fit.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    fit.add_argument("--folds", type=int, default=10,
                     help="cross-validation folds (train: 0 to skip)")

    def command(
        parent, name: str, func, help: str, *parents, flags=common
    ) -> argparse.ArgumentParser:
        p = parent.add_parser(name, parents=[flags, *parents], help=help)
        p.set_defaults(func=func)
        return p

    p = command(sub, "generate", cmd_generate, "generate a synthetic graph and cascades",
                flags=no_defaults)
    p.add_argument("--params", required=True, help="key=value config file")
    p.add_argument("--out-events", default="events.jsonl")
    p.add_argument("--out-graph", default="graph.edges")
    p.add_argument("--out-content", default="content.jsonl")

    p = command(sub, "featurize", cmd_featurize,
                "extract feature vectors at a window k", window, events)
    p.add_argument("--out", required=True, help="output feature CSV")

    p = command(sub, "label", cmd_label, "build a labeled task dataset", window, events)
    p.add_argument("task", choices=["growth", "structure", "cluster"])
    p.add_argument("--R", type=int, help="growth: fixed minimum final size")
    p.add_argument("--m", type=int,
                   help=f"cluster: members per instance (default {CLUSTER_M})")
    p.add_argument("--quartiles", action="store_true",
                   help="growth: top vs bottom quartile only")
    p.add_argument("--out", required=True)
    p.add_argument("--meta-out", help="JSON sidecar with threshold/counts/seed")

    p = command(sub, "train", cmd_train, "fit the classifier and save a model file", fit)
    p.add_argument("--in", dest="input", required=True, help="labeled CSV")
    p.add_argument("--model-out", required=True)

    p = command(sub, "evaluate", cmd_evaluate,
                "cross-validate, or score cluster instances", fit)
    p.add_argument("--in", dest="input", help="labeled CSV")
    p.add_argument("--metrics-out", help="write the metrics table as CSV")
    p.add_argument("--per-fold-out", help="write per-fold metrics as CSV")
    p.add_argument("--cluster", help="cluster instance CSV (ranking evaluation)")
    p.add_argument("--model", help="model file for --cluster")

    p = command(sub, "rank-features", cmd_rank_features,
                "accuracy of each feature used alone", fit)
    p.add_argument("--in", dest="input", required=True, help="labeled CSV")
    p.add_argument("--top", type=int, default=20, help="rows to print")
    p.add_argument("--out", help="output CSV")

    p = command(sub, "wiener", cmd_wiener, "Wiener index per cascade")
    p.add_argument("file", help="events JSONL/CSV")

    p = command(sub, "stats", cmd_stats, "heavy-tail statistics over a number file")
    stats_sub = p.add_subparsers(dest="stat", required=True)
    p = command(stats_sub, "fit-alpha", cmd_stats, "Hill tail-exponent estimate")
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("file")
    p = command(stats_sub, "gini", cmd_stats, "Gini coefficient")
    p.add_argument("file")

    # No defaults here: _report_options tells a given option from one left out.
    p = command(sub, "report", cmd_report, "figure-style tables as CSV", events,
                flags=no_defaults)
    p.add_argument("kind", choices=["accuracy-vs-k", "rank-features", "groups"])
    p.add_argument("--lambda", dest="lam", type=float,
                   help=f"L2 penalty of the fits (default {DEFAULT_LAMBDA})")
    p.add_argument("--folds", type=int, help="cross-validation folds (default 10)")
    p.add_argument("--ks", help="accuracy-vs-k: comma-separated k values (default 5,10,25)")
    p.add_argument("--k", type=int, help="rank-features: window (default 5)")
    p.add_argument("--R", type=int, help="accuracy-vs-k: fixed minimum final size variant")
    p.add_argument("--group-by", help="groups: content field to group by (default category)")
    p.add_argument("--out", help="output CSV")

    p = command(sub, "pipeline", cmd_pipeline,
                "generate, label, train, evaluate, manifest")
    p.add_argument("--config", required=True, help="key=value pipeline config")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None and args.threads < 1:
            raise BadArgumentError(f"--threads must be >= 1, got {args.threads}")
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc.filename}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed the pipe; not an error.
        sys.stderr.close()
        return 0
    except OSError as exc:
        # A directory, or a path that cannot be opened, given for a file; or
        # a failed write to a stream that has no path (a full disk on stdout).
        where = "" if exc.filename is None else f": {exc.filename}"
        print(f"error: {exc.strerror}{where}", file=sys.stderr)
        return 2
    except CascadeKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
