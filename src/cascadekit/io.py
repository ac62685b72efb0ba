"""File formats: event logs, edge lists, content records, feature CSVs,
model files, and flat key=value configs.

Everything is plain text (JSONL, CSV, whitespace edge lists) with floats
written via repr, so outputs are diffable and byte-stable across runs.
Feature, labeled and cluster CSVs hold design-matrix rows in the
``features.layout_columns`` layout: value cells via ``fmt``, indicator cells
as ``1``/``0``. A malformed input file raises ``ConfigInvalidError`` naming
``path:line``; a missing one raises ``FileNotFoundError``, and an output
path in a directory that does not exist raises ``BadArgumentError``.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path
from typing import (
    Callable, Iterable, Iterator, Mapping, Sequence, TextIO, get_args, get_type_hints
)

import numpy as np

from .cascade import EVENT_FIELDS, ReshareEvent, SocialGraph, _event
from .errors import BadArgumentError, ConfigInvalidError
from .features import ContentRecord, layout_columns
from .learner import Model
from .tasks import ClusterInstance, TaskDataset

CONTENT_FIELDS = tuple(f.name for f in fields(ContentRecord))


def _field_types(cls: type) -> dict[str, type]:
    """Field name -> the type a dataclass declares for it (``T | None`` is T)."""
    return {
        name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
        for name, hint in get_type_hints(cls).items()
    }


_EVENT_TYPES = _field_types(ReshareEvent)
_CONTENT_TYPES = _field_types(ContentRecord)
# Event field name -> (position in EVENT_FIELDS, type its values parse to).
_EVENT_SLOTS = {name: (i, _EVENT_TYPES[name]) for i, name in enumerate(EVENT_FIELDS)}
# The field values of a row that sets no field; MISSING marks a required one.
_EVENT_DEFAULTS = [f.default for f in fields(ReshareEvent)]
_EVENT_REQUIRED = [i for i, default in enumerate(_EVENT_DEFAULTS) if default is MISSING]
_CLUSTER_KEYS = ("cluster_id", "cascade_id", "final_size", "is_winner")
# The encoder json.dumps(obj, sort_keys=True) would build on every call.
_encode_sorted = json.JSONEncoder(sort_keys=True).encode
# What turning one malformed JSONL line or CSV row into a record raises: bad
# JSON or a bad value (ValueError), an infinite count (OverflowError), a
# missing required field (TypeError, KeyError), or a line that is not a JSON
# object (AttributeError).
_RECORD_ERRORS = (ValueError, OverflowError, TypeError, KeyError, AttributeError)


def _bad_record(path: str | Path, lineno: int, exc: Exception) -> ConfigInvalidError:
    return ConfigInvalidError(f"{path}:{lineno}: {type(exc).__name__}: {exc}")


@contextmanager
def _text(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """``path`` open for reading as UTF-8; reading a byte that is not UTF-8
    ends as an error naming the line that holds it."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
            # surrogateescape decodes each bad byte to one of these code points.
            lineno = next((n for n, line in enumerate(fh, start=1)
                           if any("\udc80" <= c <= "\udcff" for c in line)), None)
        raise ConfigInvalidError(f"{path}:{lineno}: not UTF-8 text") from None


def _create(path: str | Path, newline: str = "\n") -> TextIO:
    """``path`` open for writing as UTF-8; a directory on the path that does
    not exist ends as an error naming the output."""
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except FileNotFoundError:
        raise BadArgumentError(f"no such output directory: {path}") from None


def _lines(path: str | Path, comments: bool = False) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of every non-blank line of a text file;
    with ``comments``, lines starting with ``#`` are skipped too."""
    with _text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line and not (comments and line.startswith("#")):
                yield lineno, line


def finite_float(text: str) -> float:
    """A float parsed from text; nan and inf are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"could not convert string to a finite float: {text!r}")
    return value


def fmt(value: float) -> str:
    """Shortest round-trip decimal form of a float."""
    return repr(float(value))


def write_csv(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence[str]]
) -> None:
    """A header and rows of string cells as CSV with ``\n`` line ends.

    csv.writer quotes only the characters of its line terminator, but csv
    readers end a record at a bare ``\r`` too: a row holding one is quoted
    whole.
    """
    with _create(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in itertools.chain([header], rows):
            (quoted if "\r" in "".join(row) else writer).writerow(row)


# --- events -----------------------------------------------------------------

def event_to_dict(event: ReshareEvent) -> dict:
    """The event's fields that are not None; every field is a scalar."""
    return {k: v for k in EVENT_FIELDS if (v := getattr(event, k)) is not None}


def _event_from_dict(row: Mapping) -> ReshareEvent:
    """The event one JSONL object or CSV row describes.

    Unknown keys are ignored and ``None`` or ``""`` means absent. A value
    whose type is not its field's is converted with ``int``, ``float`` or
    ``str``; one that already has it is taken as is.
    """
    values = _EVENT_DEFAULTS.copy()
    for name, v in row.items():
        slot = _EVENT_SLOTS.get(name)
        if slot is None or v is None or v == "":
            continue
        i, kind = slot
        values[i] = v if type(v) is kind else kind(v)
    for i in _EVENT_REQUIRED:
        if values[i] is MISSING:
            raise TypeError(f"missing required field {EVENT_FIELDS[i]!r}")
    return _event(values)


def write_events_jsonl(path: str | Path, cascades: Iterable[Sequence[ReshareEvent]]) -> None:
    with _create(path) as fh:
        for events in cascades:
            fh.writelines(f"{_encode_sorted(event_to_dict(e))}\n" for e in events)


def _numbered_events(path: str | Path) -> Iterator[tuple[int, ReshareEvent]]:
    """(line number, event) for every event of an event file, in file order;
    the format is read_events'."""
    if Path(path).suffix.lower() == ".csv":
        with _text(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                try:
                    e = _event_from_dict(row)
                except _RECORD_ERRORS as exc:
                    raise _bad_record(path, reader.line_num, exc) from None
                yield reader.line_num, e
        return
    for lineno, line in _lines(path):
        try:
            e = _event_from_dict(json.loads(line))
        except _RECORD_ERRORS as exc:
            raise _bad_record(path, lineno, exc) from None
        yield lineno, e


def read_events(path: str | Path) -> dict[str, list[ReshareEvent]]:
    """Events grouped by cascade_id, input order preserved within a cascade.

    JSONL by default; a ``.csv`` suffix switches to CSV with the documented
    header (the ReshareEvent field names; empty cells mean absent).
    """
    grouped: dict[str, list[ReshareEvent]] = {}
    for _, e in _numbered_events(path):
        grouped.setdefault(e.cascade_id, []).append(e)
    return grouped


def event_line(path: str | Path, cascade_id: str, index: int) -> int:
    """Line number of event ``index`` of ``grouped[cascade_id]``, where
    ``grouped`` is what read_events returns for this file.

    It reads the file again, so callers look lines up on error paths only.
    """
    lines = (n for n, e in _numbered_events(path) if e.cascade_id == cascade_id)
    return next(itertools.islice(lines, index, None))


def write_events_csv(path: str | Path, cascades: Iterable[Sequence[ReshareEvent]]) -> None:
    def cell(e: ReshareEvent, name: str) -> str:
        v = getattr(e, name)
        if v is None:
            return ""
        return fmt(v) if _EVENT_TYPES[name] is float else str(v)

    rows = (
        [cell(e, name) for name in EVENT_FIELDS] for events in cascades for e in events
    )
    write_csv(path, EVENT_FIELDS, rows)


# --- social graph ----------------------------------------------------------

def read_edge_list(path: str | Path, directed: bool = False) -> SocialGraph:
    graph = SocialGraph(directed=directed)
    for lineno, line in _lines(path, comments=True):
        parts = line.split()
        if len(parts) != 2:
            raise ConfigInvalidError(f"{path}:{lineno}: expected two ids, got {line!r}")
        graph.add_edge(parts[0], parts[1])
    return graph


def write_edge_list(path: str | Path, graph: SocialGraph) -> None:
    with _create(path) as fh:
        fh.writelines(f"{u} {v}\n" for u, v in graph.edges())


# --- content records ---------------------------------------------------------

def write_content_jsonl(path: str | Path, contents: Mapping[str, ContentRecord]) -> None:
    with _create(path) as fh:
        for cid in sorted(contents):
            record = contents[cid]
            row = {"cascade_id": cid}
            row.update(
                {k: v for k in CONTENT_FIELDS if (v := getattr(record, k)) is not None}
            )
            fh.write(f"{_encode_sorted(row)}\n")


def read_content_jsonl(path: str | Path) -> dict[str, ContentRecord]:
    out: dict[str, ContentRecord] = {}
    for lineno, line in _lines(path):
        try:
            row = json.loads(line)
            cid = str(row.pop("cascade_id"))
            out[cid] = ContentRecord(**{
                name: kind(v)
                for name, kind in _CONTENT_TYPES.items()
                if (v := row.get(name)) is not None
            })
        except _RECORD_ERRORS as exc:
            raise _bad_record(path, lineno, exc) from None
    return out


# --- feature / labeled CSVs ---------------------------------------------------

def _layout_cells(X: np.ndarray) -> Iterator[list[str]]:
    """The rows of a ``layout_columns`` matrix as CSV cells."""
    for row in X.tolist():
        cells = row[:]
        cells[0::2] = map(fmt, row[0::2])
        cells[1::2] = ["1" if flag else "0" for flag in row[1::2]]
        yield cells


def _read_rows(path: str | Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header and (line number, cells) of every data row of a CSV file."""
    with _text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigInvalidError(f"{path}:1: empty file, expected a header row")
        if len(set(header)) < len(header):
            twice = next(name for i, name in enumerate(header) if name in header[:i])
            raise ConfigInvalidError(f"{path}:1: column {twice!r} appears twice")
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ConfigInvalidError(
                    f"{path}:{reader.line_num}: {len(row)} cells, "
                    f"header has {len(header)}"
                )
            rows.append((reader.line_num, row))
    if not rows:
        raise ConfigInvalidError(f"{path}:1: header row without data rows")
    return header, rows


def _numbers(path: str | Path, lineno: int, cells: Sequence[str]) -> list[float]:
    """Cells parsed as finite floats."""
    try:
        return [finite_float(c) for c in cells]
    except ValueError as exc:
        raise ConfigInvalidError(f"{path}:{lineno}: {exc}") from None


def read_numbers(path: str | Path) -> list[float]:
    """The finite float on each non-blank line of a text file."""
    return [
        value
        for lineno, line in _lines(path)
        for value in _numbers(path, lineno, [line])
    ]


def write_features_csv(
    path: str | Path, ids: Sequence[str], X: np.ndarray, columns: Sequence[str]
) -> None:
    """Feature rows keyed by cascade_id, in the given (cascade_id) order."""
    if not ids:
        raise ConfigInvalidError("no feature rows to write")
    rows = ([cid] + cells for cid, cells in zip(ids, _layout_cells(X)))
    write_csv(path, ["cascade_id", *columns], rows)


def write_labeled_csv(path: str | Path, dataset: TaskDataset) -> None:
    """Task dataset rows: features..., label, final_size, cascade_id."""
    if not dataset.examples:
        raise ConfigInvalidError("no labeled examples to write")
    rows = (
        cells + [str(int(label)), str(size), cid]
        for cells, label, size, cid in zip(
            _layout_cells(dataset.X), dataset.y, dataset.final_sizes, dataset.examples
        )
    )
    write_csv(path, [*dataset.columns, "label", "final_size", "cascade_id"], rows)


def read_labeled_csv(
    path: str | Path,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str], list[str]]:
    """Returns (X, y, final_sizes, cascade_ids, feature_columns); each label
    is 0 or 1 and each final size a count >= 0."""
    header, rows = _read_rows(path)
    if header[-3:] != ["label", "final_size", "cascade_id"]:
        raise ConfigInvalidError(
            f"{path}:1: expected trailing label,final_size,cascade_id columns"
        )
    table = np.array(
        [_numbers(path, lineno, row[:-1]) for lineno, row in rows], dtype=np.float64
    ).reshape(len(rows), len(header) - 1)
    bad = np.flatnonzero(~np.isin(table[:, -2], (0.0, 1.0)) | (table[:, -1] < 0))
    if bad.size:
        lineno, row = rows[bad[0]]
        raise ConfigInvalidError(
            f"{path}:{lineno}: label must be 0 or 1 and final_size >= 0, "
            f"got {row[-3]} and {row[-2]}"
        )
    ids = [row[-1] for _, row in rows]
    X = np.ascontiguousarray(table[:, :-2])
    return X, table[:, -2].copy(), table[:, -1].copy(), ids, header[:-3]


def write_cluster_csv(path: str | Path, instances: Sequence[ClusterInstance]) -> None:
    """One row per sampled cluster member, winner flagged."""
    if not instances:
        raise ConfigInvalidError("no cluster instances to write")
    rows = (
        [inst.cluster_id, cid, str(size), "1" if idx == inst.winner_index else "0"]
        + cells
        for inst in instances
        for idx, (cid, size, cells) in enumerate(
            zip(inst.members, inst.final_sizes, _layout_cells(inst.X))
        )
    )
    write_csv(path, [*_CLUSTER_KEYS, *instances[0].columns], rows)


def read_cluster_csv(path: str | Path) -> list[ClusterInstance]:
    """The instances ``write_cluster_csv`` wrote, in file order."""
    header, rows = _read_rows(path)
    columns = header[4:]
    if tuple(header[:4]) != _CLUSTER_KEYS or layout_columns(columns[0::2]) != columns:
        raise ConfigInvalidError(
            f"{path}:1: expected {','.join(_CLUSTER_KEYS)} then each feature "
            "column followed by its missing indicator"
        )
    groups: dict[str, list[tuple[int, list[str]]]] = {}
    for lineno, row in rows:
        groups.setdefault(row[0], []).append((lineno, row))
    instances = []
    for cluster_id, group in groups.items():
        table = np.array(
            [_numbers(path, lineno, row[2:]) for lineno, row in group], dtype=np.float64
        )
        winners = np.flatnonzero(table[:, 1] == 1.0)
        if len(winners) != 1:
            raise ConfigInvalidError(
                f"{path}:{group[0][0]}: cluster {cluster_id!r} has "
                f"{len(winners)} winner rows, expected 1"
            )
        instances.append(
            ClusterInstance(
                cluster_id,
                members=tuple(row[1] for _, row in group),
                final_sizes=tuple(int(size) for size in table[:, 0]),
                X=np.ascontiguousarray(table[:, 2:]),
                columns=columns,
                winner_index=int(winners[0]),
            )
        )
    return instances


# --- model files ----------------------------------------------------------------

def write_model(path: str | Path, model: Model) -> None:
    """Human-diffable key-value model document."""
    with _create(path) as fh:
        fh.write(f"lambda {fmt(model.lam)}\n")
        fh.write(f"seed {model.seed}\n")
        fh.write(f"bias {fmt(model.bias)}\n")
        fh.write(f"iterations {model.iterations}\n")
        fh.write(f"final_loss {fmt(model.final_loss)}\n")
        fh.write(f"converged {int(model.converged)}\n")
        for name in model.feature_names:
            fh.write(
                f"feature {name} {fmt(model.weights[name])} "
                f"{fmt(model.means[name])} {fmt(model.stds[name])}\n"
            )
        for name in model.dropped:
            fh.write(f"dropped {name}\n")


def _bit(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {text!r}")
    return text == "1"


# Each one-value line write_model writes: its key and how its value parses.
_MODEL_SCALARS = {
    "lambda": finite_float, "seed": int, "bias": finite_float,
    "iterations": int, "final_loss": finite_float, "converged": _bit,
}
# The first word of each line write_model writes.
_MODEL_KEYS = frozenset(_MODEL_SCALARS) | {"feature", "dropped"}


def read_model(path: str | Path) -> Model:
    """The model write_model wrote; each value must parse as its key's type,
    each feature be named once and have a std > 0."""
    scalars: dict[str, object] = {}
    names: list[str] = []
    weights: dict[str, float] = {}
    means: dict[str, float] = {}
    stds: dict[str, float] = {}
    dropped: list[str] = []
    for lineno, line in _lines(path):
        parts = line.split()
        key = parts[0]
        if key not in _MODEL_KEYS:
            raise ConfigInvalidError(
                f"{path}:{lineno}: unknown model key {key[:40]!r}"
            )
        width = 5 if key == "feature" else 2
        if len(parts) != width:
            raise ConfigInvalidError(
                f"{path}:{lineno}: expected {width} fields in a {key!r} line, "
                f"got {len(parts)}"
            )
        if key == "feature":
            name = parts[1]
            if name in weights:
                raise ConfigInvalidError(f"{path}:{lineno}: feature {name!r} appears twice")
            weight, mean, std = _numbers(path, lineno, parts[2:])
            if not std > 0:
                raise ConfigInvalidError(
                    f"{path}:{lineno}: feature {name!r} has std {parts[4]}, expected > 0"
                )
            names.append(name)
            weights[name], means[name], stds[name] = weight, mean, std
        elif key == "dropped":
            dropped.append(parts[1])
        else:
            try:
                scalars[key] = _MODEL_SCALARS[key](parts[1])
            except ValueError as exc:
                raise ConfigInvalidError(f"{path}:{lineno}: {key}: {exc}") from None
    try:
        return Model(
            feature_names=tuple(names),
            weights=weights,
            bias=scalars["bias"],
            means=means,
            stds=stds,
            dropped=tuple(dropped),
            lam=scalars["lambda"],
            seed=scalars["seed"],
            iterations=scalars["iterations"],
            final_loss=scalars["final_loss"],
            converged=scalars.get("converged", False),
        )
    except KeyError as exc:
        raise ConfigInvalidError(f"{path}: missing model key {exc}") from exc


# --- configs & manifests -----------------------------------------------------------

def _config_entries(path: str | Path) -> Iterator[tuple[int, str, str]]:
    """(line number, key, value) of every line of a key=value file; blank
    lines and # comments skipped."""
    for lineno, line in _lines(path, comments=True):
        if "=" not in line:
            raise ConfigInvalidError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def read_config(
    path: str | Path, types: Mapping[str, Callable[[str], object]] | None = None
) -> dict[str, str]:
    """Flat key=value file; blank lines and # comments ignored.

    With ``types``, each key must be one of its keys and each value must
    parse with that key's type; the values are returned unparsed.
    """
    out: dict[str, str] = {}
    for lineno, key, value in _config_entries(path):
        if types is not None:
            if key not in types:
                raise ConfigInvalidError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                types[key](value)
            except ValueError as exc:
                raise ConfigInvalidError(f"{path}:{lineno}: {key}: {exc}") from None
        out[key] = value
    return out


def config_line(path: str | Path, keys: Sequence[str]) -> int | None:
    """Line of the value read_config keeps for the first of ``keys`` the
    file sets, or None if it sets none of them."""
    lines = {key: lineno for lineno, key, _ in _config_entries(path)}
    return next((lines[key] for key in keys if key in lines), None)


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path: str | Path, manifest: Mapping) -> None:
    with _create(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
