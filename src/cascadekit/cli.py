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
from pathlib import Path
from typing import Iterator, Mapping

from . import __version__, io
from .cascade import CascadeTree, ReshareEvent, build_cascade
from .errors import (
    BadParamsError,
    CascadeKitError,
    ConfigInvalidError,
    InvalidCascadeError,
    MissingFeatureError,
)
from .features import extract_features_batch
from .learner import (
    DEFAULT_LAMBDA,
    Metrics,
    cross_validate,
    evaluate_cluster,
    train,
)
from .stats import fit_powerlaw_alpha, gini
from .synth import PARAM_TYPES, SynthParams, generate_social_graph, simulate_cascades
from .tasks import (
    CascadeRecord,
    FeatureRanking,
    build_cluster_task,
    group_summaries,
    label_growth,
    label_growth_fixed_R,
    label_structure,
    rank_single_feature_predictors,
)
from .virality import wiener_index_exact


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--threads", type=int, default=1, help="worker threads")
    parser.add_argument("--out-dir", default=".", help="directory for output files")


def _resolve(out_dir: str, path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    return p if p.is_absolute() else Path(out_dir) / p


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


def _load_records(
    events_path: str, content_path: str | None
) -> list[CascadeRecord]:
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
    if getattr(args, "graph", None) is None:
        return None
    return io.read_edge_list(args.graph, directed=args.directed)


def _print_metrics(metrics: Metrics, stream=None) -> None:
    stream = stream or sys.stdout
    print("metric    mean      sd", file=stream)
    print(f"accuracy  {metrics.accuracy:.6f}  {metrics.accuracy_sd:.6f}", file=stream)
    print(f"f1        {metrics.f1:.6f}  {metrics.f1_sd:.6f}", file=stream)
    print(f"auc       {metrics.auc:.6f}  {metrics.auc_sd:.6f}", file=stream)
    print(f"baseline  {metrics.majority_baseline:.6f}  -", file=stream)


def _write_metrics_csv(path: Path, metrics: Metrics) -> None:
    io.write_csv(path, ["metric", "mean", "sd"], [
        ["accuracy", io.fmt(metrics.accuracy), io.fmt(metrics.accuracy_sd)],
        ["f1", io.fmt(metrics.f1), io.fmt(metrics.f1_sd)],
        ["auc", io.fmt(metrics.auc), io.fmt(metrics.auc_sd)],
        ["baseline", io.fmt(metrics.majority_baseline), ""],
    ])


def _write_per_fold_csv(path: Path, metrics: Metrics) -> None:
    folds = zip(
        metrics.fold_sizes, metrics.fold_accuracy, metrics.fold_f1, metrics.fold_auc
    )
    io.write_csv(path, ["fold", "size", "accuracy", "f1", "auc"], [
        [str(i), str(size), io.fmt(acc), io.fmt(f1v), io.fmt(aucv)]
        for i, (size, acc, f1v, aucv) in enumerate(folds)
    ])


def _ranking_table(rankings: list[FeatureRanking]) -> list[tuple[str, ...]]:
    return [("feature", "accuracy", "pearson_log_size")] + [
        (row.feature, io.fmt(row.accuracy), io.fmt(row.pearson_with_log_size))
        for row in rankings
    ]


# --- subcommands ------------------------------------------------------------

def cmd_generate(args) -> int:
    params = _synth_params(args.params, io.read_config(args.params, PARAM_TYPES))
    seed = params.seed
    graph = generate_social_graph(params, seed)
    cascades, contents = simulate_cascades(graph, params, seed)
    io.write_events_jsonl(_resolve(args.out_dir, args.out_events), cascades)
    io.write_edge_list(_resolve(args.out_dir, args.out_graph), graph)
    if args.out_content:
        io.write_content_jsonl(_resolve(args.out_dir, args.out_content), contents)
    n_events = sum(len(c) for c in cascades)
    print(f"generated {len(cascades)} cascades, {n_events} events, "
          f"{graph.edge_count()} graph edges")
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
    records = _load_records(args.input, args.content)
    graph = _load_graph(args)
    out_path = _resolve(args.out_dir, args.out)
    common = dict(
        graph=graph, centered_slopes=args.centered_slopes, threads=args.threads
    )
    if args.task == "cluster":
        instances = build_cluster_task(
            records, args.k, m=args.m, seed=args.seed, **common
        )
        io.write_cluster_csv(out_path, instances)
        meta = {
            "task": "cluster",
            "k": args.k,
            "m": args.m,
            "seed": args.seed,
            "n_instances": len(instances),
        }
        print(f"wrote {len(instances)} cluster instances to {out_path}")
    else:
        if args.task == "growth" and args.R is not None:
            dataset = label_growth_fixed_R(records, args.k, args.R, **common)
        elif args.task == "growth":
            dataset = label_growth(records, args.k, quartiles=args.quartiles, **common)
        else:
            dataset = label_structure(records, args.k, **common)
        io.write_labeled_csv(out_path, dataset)
        meta = dict(dataset.metadata)
        meta["seed"] = args.seed
        if graph is None:
            meta["did_leave_approximate"] = True
        print(
            f"wrote {len(dataset.examples)} examples to {out_path} "
            f"(threshold {dataset.threshold})"
        )
    if args.meta_out:
        io.write_manifest(_resolve(args.out_dir, args.meta_out), meta)
    return 0


def cmd_train(args) -> int:
    X, y, _, _, columns = io.read_labeled_csv(args.input)
    model = train(X, y, lam=args.lam, seed=args.seed, feature_names=columns)
    io.write_model(_resolve(args.out_dir, args.model_out), model)
    status = "converged" if model.converged else "hit iteration cap"
    print(
        f"trained on {X.shape[0]} examples, {len(model.feature_names)} features "
        f"({len(model.dropped)} constant dropped), {model.iterations} iterations "
        f"({status}), loss {model.final_loss:.6f}"
    )
    if args.folds > 0:
        metrics = cross_validate(
            X, y, folds=args.folds, lam=args.lam, seed=args.seed, feature_names=columns
        )
        _print_metrics(metrics)
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
        print(f"clusters   {len(instances)}")
        print(f"top1_accuracy {top1:.6f}")
        print(f"mrr           {mean_rr:.6f}")
        return 0
    if not args.input:
        raise ConfigInvalidError("evaluate needs --in (labeled CSV) or --cluster")
    X, y, _, _, columns = io.read_labeled_csv(args.input)
    metrics = cross_validate(
        X, y, folds=args.folds, lam=args.lam, seed=args.seed, feature_names=columns
    )
    _print_metrics(metrics)
    if args.metrics_out:
        _write_metrics_csv(_resolve(args.out_dir, args.metrics_out), metrics)
    if args.per_fold_out:
        _write_per_fold_csv(_resolve(args.out_dir, args.per_fold_out), metrics)
    return 0


def cmd_rank_features(args) -> int:
    X, y, sizes, _, columns = io.read_labeled_csv(args.input)
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


def cmd_report(args) -> int:
    records = _load_records(args.input, args.content)
    graph = _load_graph(args)
    out_path = _resolve(args.out_dir, args.out) if args.out else None
    if args.kind == "groups":
        rows = group_summaries(records, args.group_by)
        lines = [("group", "count", "mean_final_size", "mean_wiener")]
        lines += [
            (r.group, str(r.count), io.fmt(r.mean_final_size), io.fmt(r.mean_wiener))
            for r in rows
        ]
    elif args.kind == "rank-features":
        dataset = label_growth(records, args.k, graph=graph, threads=args.threads)
        lines = _ranking_table(rank_single_feature_predictors(
            dataset.X, dataset.y, dataset.final_sizes, dataset.columns,
            folds=args.folds, seed=args.seed, lam=args.lam,
        ))
    else:
        ks = [int(s) for s in args.ks.split(",")]
        lines = [
            (
                "k",
                "n",
                "threshold",
                "positive_fraction",
                "baseline",
                "accuracy",
                "accuracy_sd",
                "f1",
                "f1_sd",
                "auc",
                "auc_sd",
            )
        ]
        for k in ks:
            if args.R is not None:
                dataset = label_growth_fixed_R(
                    records, k, args.R, graph=graph, threads=args.threads
                )
            else:
                dataset = label_growth(records, k, graph=graph, threads=args.threads)
            metrics = cross_validate(
                dataset.X, dataset.y, folds=args.folds, lam=args.lam, seed=args.seed,
                feature_names=dataset.columns,
            )
            lines.append(
                (
                    str(k),
                    str(len(dataset.examples)),
                    io.fmt(dataset.threshold),
                    io.fmt(metrics.positive_fraction),
                    io.fmt(metrics.majority_baseline),
                    io.fmt(metrics.accuracy),
                    io.fmt(metrics.accuracy_sd),
                    io.fmt(metrics.f1),
                    io.fmt(metrics.f1_sd),
                    io.fmt(metrics.auc),
                    io.fmt(metrics.auc_sd),
                )
            )
    if out_path:
        io.write_csv(out_path, lines[0], lines[1:])
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


def _at_least(low: int):
    """Parser of an integer that must be >= ``low``."""

    def parse(value: str) -> int:
        number = int(value)
        if number < low:
            raise ValueError(f"expected an integer >= {low}, got {number}")
        return number

    return parse


# The pipeline's own config keys, next to the SynthParams fields.
PIPELINE_KEYS = {
    "k": _at_least(1),
    "task": _task,
    "quartiles": _flag,
    "lambda": io.finite_float,
    "folds": _at_least(2),
    "use_graph": _flag,
    "centered_slopes": _flag,
}

PIPELINE_OUTPUTS = (
    "events.jsonl",
    "graph.edges",
    "content.jsonl",
    "labeled.csv",
    "task_meta.json",
    "model.txt",
    "metrics.csv",
    "per_fold.csv",
)


def cmd_pipeline(args) -> int:
    """generate -> label (featurize inside) -> train -> evaluate -> manifest."""
    cfg = io.read_config(args.config, {**PARAM_TYPES, **PIPELINE_KEYS})
    params = _synth_params(args.config, cfg)
    k = int(cfg.get("k", "5"))
    task = cfg.get("task", "growth")
    quartiles = _flag(cfg.get("quartiles", "false"))
    lam = float(cfg.get("lambda", str(DEFAULT_LAMBDA)))
    folds = int(cfg.get("folds", "10"))
    use_graph = _flag(cfg.get("use_graph", "true"))
    centered = _flag(cfg.get("centered_slopes", "false"))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / name for name in PIPELINE_OUTPUTS}

    graph = generate_social_graph(params, params.seed)
    cascades, contents = simulate_cascades(graph, params, params.seed)
    io.write_events_jsonl(paths["events.jsonl"], cascades)
    io.write_edge_list(paths["graph.edges"], graph)
    io.write_content_jsonl(paths["content.jsonl"], contents)

    # Re-read what was written so the pipeline exercises the same file
    # surfaces external callers use.
    records = _load_records(str(paths["events.jsonl"]), str(paths["content.jsonl"]))
    feature_graph = (
        io.read_edge_list(paths["graph.edges"], directed=False) if use_graph else None
    )
    common = dict(graph=feature_graph, centered_slopes=centered, threads=args.threads)
    if task == "growth":
        dataset = label_growth(records, k, quartiles=quartiles, **common)
    else:
        dataset = label_structure(records, k, **common)
    io.write_labeled_csv(paths["labeled.csv"], dataset)
    meta = dict(dataset.metadata)
    meta["seed"] = params.seed
    io.write_manifest(paths["task_meta.json"], meta)

    X, y, _, _, columns = io.read_labeled_csv(paths["labeled.csv"])
    model = train(X, y, lam=lam, seed=params.seed, feature_names=columns)
    io.write_model(paths["model.txt"], model)
    metrics = cross_validate(
        X, y, folds=folds, lam=lam, seed=params.seed, feature_names=columns
    )
    _write_metrics_csv(paths["metrics.csv"], metrics)
    _write_per_fold_csv(paths["per_fold.csv"], metrics)

    manifest = {
        "version": __version__,
        "config": dict(cfg),
        "seed": params.seed,
        "outputs": {
            name: io.sha256_file(path) for name, path in sorted(paths.items())
        },
    }
    io.write_manifest(out_dir / "manifest.json", manifest)
    _print_metrics(metrics)
    print(f"pipeline outputs in {out_dir}")
    return 0


# --- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadekit",
        description="Cascade growth analytics: trees, virality, features, prediction",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic graph and cascades")
    _common_flags(p)
    p.add_argument("--params", required=True, help="key=value config file")
    p.add_argument("--out-events", default="events.jsonl")
    p.add_argument("--out-graph", default="graph.edges")
    p.add_argument("--out-content", default="content.jsonl")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("featurize", help="extract feature vectors at a window k")
    _common_flags(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--in", dest="input", required=True, help="events JSONL/CSV")
    p.add_argument("--content", help="content records JSONL")
    p.add_argument("--graph", help="social graph edge list")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--centered-slopes", action="store_true")
    p.add_argument("--out", required=True, help="output feature CSV")
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("label", help="build a labeled task dataset")
    _common_flags(p)
    p.add_argument("task", choices=["growth", "structure", "cluster"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--R", type=int, help="growth: fixed minimum final size")
    p.add_argument("--m", type=int, default=10, help="cluster: members per instance")
    p.add_argument("--quartiles", action="store_true",
                   help="growth: top vs bottom quartile only")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--content")
    p.add_argument("--graph")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--centered-slopes", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--meta-out", help="JSON sidecar with threshold/counts/seed")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="fit the classifier and save a model file")
    _common_flags(p)
    p.add_argument("--in", dest="input", required=True, help="labeled CSV")
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p.add_argument("--folds", type=int, default=10,
                   help="also cross-validate (0 to skip)")
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="cross-validate, or score cluster instances")
    _common_flags(p)
    p.add_argument("--in", dest="input", help="labeled CSV")
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--metrics-out", help="write the metrics table as CSV")
    p.add_argument("--per-fold-out", help="write per-fold metrics as CSV")
    p.add_argument("--cluster", help="cluster instance CSV (ranking evaluation)")
    p.add_argument("--model", help="model file for --cluster")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("rank-features", help="accuracy of each feature used alone")
    _common_flags(p)
    p.add_argument("--in", dest="input", required=True, help="labeled CSV")
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--top", type=int, default=20, help="rows to print")
    p.add_argument("--out", help="output CSV")
    p.set_defaults(func=cmd_rank_features)

    p = sub.add_parser("wiener", help="Wiener index per cascade")
    _common_flags(p)
    p.add_argument("file", help="events JSONL/CSV")
    p.set_defaults(func=cmd_wiener)

    p = sub.add_parser("stats", help="heavy-tail statistics over a number file")
    _common_flags(p)
    stats_sub = p.add_subparsers(dest="stat", required=True)
    pa = stats_sub.add_parser("fit-alpha", help="Hill tail-exponent estimate")
    _common_flags(pa)
    pa.add_argument("--xmin", type=float, required=True)
    pa.add_argument("file")
    pa.set_defaults(func=cmd_stats)
    pg = stats_sub.add_parser("gini", help="Gini coefficient")
    _common_flags(pg)
    pg.add_argument("file")
    pg.set_defaults(func=cmd_stats)

    p = sub.add_parser("report", help="figure-style tables as CSV")
    _common_flags(p)
    p.add_argument("kind", choices=["accuracy-vs-k", "rank-features", "groups"])
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--content")
    p.add_argument("--graph")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--ks", default="5,10,25", help="comma-separated k values")
    p.add_argument("--k", type=int, default=5, help="window for rank-features")
    p.add_argument("--R", type=int, help="fixed minimum final size variant")
    p.add_argument("--group-by", default="category")
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAMBDA)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--out", help="output CSV")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="generate, label, train, evaluate, manifest")
    _common_flags(p)
    p.add_argument("--config", required=True, help="key=value pipeline config")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc.filename}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed the pipe; not an error.
        sys.stderr.close()
        return 0
    except CascadeKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
