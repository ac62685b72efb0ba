"""File formats: event logs, edge lists, content records, feature CSVs,
model files, and flat key=value configs.

Everything is plain text (JSONL, CSV, whitespace edge lists) with floats
written via repr, so outputs are diffable and byte-stable across runs.
Feature, labeled and cluster CSVs hold design-matrix rows in the
``cascade.layout_columns`` layout: value cells via ``fmt``, indicator cells
as ``1``/``0``. A malformed input file raises ``ConfigInvalidError`` naming
``path:line``; a missing one raises ``FileNotFoundError``, and an output
path in a directory that does not exist raises ``BadArgumentError``.
Each format's reader owns all of its format's checks and names a fault's
line from the lines it has read. A line's own faults are checked as the
line is read, so the error names the first faulty line: the CSV readers
check the header, then each row as ``csv`` yields it, and hold no row's
cells past its parse; only the cluster reader's one winner per cluster is
checked after the last row. Event and content lines share one field
converter, and their readers and the edge-list reader hold equal strings
once per file: one dict, kept for that read only, hands out the first
string equal to each id, so repeated ids cost one object. Event lines
are written by code generated from the ``ReshareEvent`` fields, byte for
byte what ``json.dumps(..., sort_keys=True)`` writes; a value that is not an
exact str, int or finite float takes the json encoder. Only ``decimal``,
``hashlib`` and numpy are imported on first use, by the readers and writers
that use them, so that a command loads only what it runs.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from array import array
from contextlib import closing, contextmanager
from dataclasses import MISSING, fields
from functools import cache
from pathlib import Path
from typing import (
    TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence, TextIO, get_args,
    get_type_hints,
)

from ._lazy import deferred
from .cascade import (
    CONTENT_FIELDS, EVENT_FIELDS, ContentRecord, ReshareEvent, SocialGraph,
    layout_columns,
)
from .errors import BadArgumentError, ConfigInvalidError
from .learner import ClusterInstance, Model

if TYPE_CHECKING:
    from .tasks import TaskDataset

decimal = deferred("decimal", globals(), "decimal")
hashlib = deferred("hashlib", globals(), "hashlib")
np = deferred("numpy", globals(), "np")


def _field_types(cls: type) -> dict[str, type]:
    """Field name -> the type a dataclass declares for it (``T | None`` is T)."""
    return {
        name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
        for name, hint in get_type_hints(cls).items()
    }


_EVENT_TYPES = _field_types(ReshareEvent)
_CLUSTER_KEYS = ("cluster_id", "cascade_id", "final_size", "is_winner")
_LABELED_KEYS = ("label", "final_size", "cascade_id")  # after the feature columns
# The encoder json.dumps(obj, sort_keys=True) would build on every call.
_encode_sorted = json.JSONEncoder(sort_keys=True).encode
# json.loads's scanner: (value, end index) of the JSON value at an index.
_scan_json = json.JSONDecoder().scan_once
# What turning one malformed JSONL line or CSV row into a record raises: a bad
# value (ValueError), an infinite count (OverflowError), or a missing required
# field (TypeError).
_RECORD_ERRORS = (ValueError, OverflowError, TypeError)
# The JSON name of each type of value json.loads returns but an object.
_JSON_TYPES = {list: "array", str: "string", int: "number", float: "number",
               bool: "boolean", type(None): "null"}


def _json_object(path: str | Path, lineno: int, line: str) -> dict:
    """The JSON object that line ``lineno`` of ``path`` holds, by one scan of a
    line that holds exactly one JSON value; any other line goes to json.loads,
    for its value or its error. Bad JSON, or a value that is not an object,
    ends as an error naming the line."""
    try:
        value, end = _scan_json(line, 0)
    except (StopIteration, ValueError):
        end = None
    if end != len(line):
        try:
            value = json.loads(line)
        except ValueError as exc:
            raise _bad_record(path, lineno, exc) from None
    if type(value) is not dict:
        raise ConfigInvalidError(
            f"{path}:{lineno}: expected a JSON object, got {_JSON_TYPES[type(value)]}"
        )
    return value


def _bad_record(path: str | Path, lineno: int, exc: Exception) -> ConfigInvalidError:
    return ConfigInvalidError(f"{path}:{lineno}: {type(exc).__name__}: {exc}")


@contextmanager
def _text(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """``path`` open for reading as UTF-8, a leading byte-order mark skipped;
    reading a byte that is not UTF-8 ends as an error naming the line that
    holds it."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, encoding="utf-8-sig", errors="surrogateescape", newline=newline) as fh:
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


def _to_str(v, name: str) -> str:
    """``str(v)`` of a JSON number, so an id written as ``17`` reads as
    ``"17"``; a boolean, an array or an object is refused."""
    if type(v) is not int and type(v) is not float:
        raise ValueError(f"{name} must be a string or a number, got {json.dumps(v)}")
    return str(v)


def _to_int(v, name: str) -> int:
    """``int(v)`` of a value that is not an int; a bool, or a finite float
    with a fraction, is refused rather than rounded."""
    if type(v) is bool or type(v) is float and math.isfinite(v) and not v.is_integer():
        raise ValueError(f"{name} must be an integer, got {json.dumps(v)}")
    return int(v)


def _to_float(v, name: str) -> float:
    """``float(v)`` of a value that is not a float; a bool is refused."""
    if type(v) is bool:
        raise ValueError(f"{name} must be a number, got {json.dumps(v)}")
    return float(v)


def _to_bool(v, name: str) -> bool:
    """The bool the int 0 or 1 stands for; any other value is refused."""
    if type(v) is int and 0 <= v <= 1:
        return v == 1
    raise ValueError(f"{name} must be true, false, 0 or 1, got {json.dumps(v)}")


def _compile_row_values(cls: type, key: str | None = None):
    """``row_values(row, share)``: the field values (in ``fields(cls)``
    order, after the value of ``key`` if one is given, a required str) of
    the record one JSONL object or CSV row describes, compiled with one
    expression per field. Unknown keys are ignored and ``None`` or ``""``
    means absent; a value of its field's type is taken as is, any other is
    converted by ``_to_str``, ``_to_int``, ``_to_float`` or ``_to_bool``
    (a str field takes a number as its text, nothing else). Each
    str value ``s``, a default included, becomes ``share(s, s)``: a reader
    passes the ``setdefault`` of one dict per file, so equal strings of one
    file are one object. A row with several faults raises the error of its
    first faulty field."""

    def absent(name: str):
        raise TypeError(f"missing required field {name!r}")

    types = _field_types(cls)
    specs = [(key, "str", MISSING)] if key else []
    specs += [(f.name, types[f.name].__name__, f.default) for f in fields(cls)]
    lines = ["def row_values(row, share):", "    get = row.get"]
    for i, (name, kind, default) in enumerate(specs):
        # Only a value of the field's type is taken as is, and of those only
        # a str can be "".
        taken = f"type(v := get({name!r})) is {kind}" + (" and v" if kind == "str" else "")
        fill = f"_absent({name!r})" if default is MISSING else repr(default)
        value, convert = "v", f"_to_{kind}(v, {name!r})"
        if kind == "str":
            value, convert = "share(v, v)", f"share(s := {convert}, s)"
            if isinstance(default, str):
                fill = f"share({fill}, {fill})"
        lines.append(f'    v{i} = {value} if {taken} else {fill} if v is None or v == "" else {convert}')
    lines.append(f"    return [{', '.join(f'v{i}' for i in range(len(specs)))}]")
    namespace = {"_absent": absent, "_to_str": _to_str, "_to_int": _to_int,
                 "_to_float": _to_float, "_to_bool": _to_bool}
    exec(compile("\n".join(lines), f"<{__name__}.{cls.__name__}_row_values>", "exec"), namespace)
    return namespace["row_values"]


_event_row_values = _compile_row_values(ReshareEvent)


@cache
def _content_row_values():
    """The ``row_values`` of content lines, compiled on first use: most
    commands read no content file, and compiling it at import would add
    about 0.8 ms to the start-up of each."""
    return _compile_row_values(ContentRecord, key="cascade_id")


def _compile_event_line():
    """``_event_line(event)``: ``json.dumps(event_to_dict(event),
    sort_keys=True) + "\\n"``, compiled with one statement per field in sorted
    key order. A None field is skipped; an exact str takes json's own string
    encoder, an exact int or finite float its type's ``__repr__`` (what ``!r``
    calls for them). Any other value (a bool, a subclass, NaN or an infinity)
    makes it return None, for the encoder to write or refuse."""
    lines = ["def _event_line(e):", "    s = ''"]
    for name in sorted(EVENT_FIELDS):
        kind = _EVENT_TYPES[name].__name__
        # v - v is 0.0 for a finite float and nan for nan or an infinity.
        bad = f"type(v) is not {kind}" + (" or v - v != 0.0" if kind == "float" else "")
        value = "_encode_str(v)" if kind == "str" else "v!r"
        lines += [f"    if (v := e.{name}) is not None:",
                  f"        if {bad}:",
                  "            return None",
                  f"        s = f'{{s}}, \"{name}\": {{{value}}}'"]
    lines.append("    return f'{{{s[2:]}}}\\n'")
    namespace = {"_encode_str": json.encoder.encode_basestring_ascii}
    exec(compile("\n".join(lines), f"<{__name__}._event_line>", "exec"), namespace)
    return namespace["_event_line"]


_event_line = _compile_event_line()


def write_events_jsonl(path: str | Path, cascades: Iterable[Sequence[ReshareEvent]]) -> None:
    """One ``json.dumps(event_to_dict(e), sort_keys=True)`` line per event."""
    with _create(path) as fh:
        for events in cascades:
            fh.writelines(
                _event_line(e) or f"{_encode_sorted(event_to_dict(e))}\n" for e in events
            )


def _numbered_events(path: str | Path) -> Iterator[tuple[int, ReshareEvent]]:
    """(line number, event) for every event of an event file, in file order;
    the format is read_events'."""
    share = {}.setdefault
    if Path(path).suffix.lower() == ".csv":
        with _text(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                try:
                    e = ReshareEvent(*_event_row_values(row, share))
                except _RECORD_ERRORS as exc:
                    raise _bad_record(path, reader.line_num, exc) from None
                yield reader.line_num, e
        return
    for lineno, line in _lines(path):
        row = _json_object(path, lineno, line)
        try:
            e = ReshareEvent(*_event_row_values(row, share))
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
    """The graph an edge list describes: two whitespace-separated ids per
    line, ``#`` comments and blank lines skipped."""
    graph = SocialGraph(directed=directed)
    share = {}.setdefault
    for lineno, line in _lines(path, comments=True):
        parts = line.split()
        if len(parts) != 2:
            raise ConfigInvalidError(f"{path}:{lineno}: expected two ids, got {line!r}")
        u, v = parts
        graph.add_edge(share(u, u), share(v, v))
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
                {k: v for k in CONTENT_FIELDS
                 if (v := getattr(record, k)) is not None}
            )
            fh.write(f"{_encode_sorted(row)}\n")


def read_content_jsonl(path: str | Path) -> dict[str, ContentRecord]:
    out: dict[str, ContentRecord] = {}
    share = {}.setdefault
    row_values = _content_row_values()
    for lineno, line in _lines(path):
        row = _json_object(path, lineno, line)
        try:
            cid, *values = row_values(row, share)
            record = ContentRecord(*values)
        except _RECORD_ERRORS as exc:
            raise _bad_record(path, lineno, exc) from None
        if cid in out:
            raise ConfigInvalidError(f"{path}:{lineno}: cascade_id {cid!r} appears twice")
        out[cid] = record
    return out


# --- feature / labeled CSVs ---------------------------------------------------

def _layout_cells(flat: Sequence[float], n: int) -> Iterator[list[str]]:
    """The ``n`` rows of a flat ``layout_columns`` matrix (an ``array("d")``
    or a raveled ndarray, row after row) as CSV cells, converted one row at
    a time. The row count, not the width, is given, so rows of no columns
    are still rows."""
    width = len(flat) // n if n else 0
    for i in range(n):
        row = flat[i * width : (i + 1) * width].tolist()
        cells = row[:]
        cells[0::2] = map(fmt, row[0::2])
        cells[1::2] = ["1" if flag else "0" for flag in row[1::2]]
        yield cells


def _read_rows(path: str | Path) -> Iterator:
    """The checked header of a CSV file, then (line number, cells) of each
    data row as ``csv`` reads it; no list of rows is kept. A caller closes
    it, so that a fault it raises leaves no file open."""
    with _text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigInvalidError(f"{path}:1: empty file, expected a header row")
        # read_model splits its lines on whitespace, so a column name that a
        # model may carry is one whitespace-free token.
        bad = next((name for name in header if name.split() != [name]), None)
        if bad is not None:
            raise ConfigInvalidError(
                f"{path}:1: column name {bad!r} is empty or holds whitespace"
            )
        if len(set(header)) < len(header):
            twice = next(name for i, name in enumerate(header) if name in header[:i])
            raise ConfigInvalidError(f"{path}:1: column {twice!r} appears twice")
        yield header
        for row in reader:
            if len(row) != len(header):
                raise ConfigInvalidError(
                    f"{path}:{reader.line_num}: {len(row)} cells, "
                    f"header has {len(header)}"
                )
            yield reader.line_num, row
        # The header is one line: no column name holds a line end.
        if reader.line_num == 1:
            raise ConfigInvalidError(f"{path}:1: header row without data rows")


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
    path: str | Path, ids: Sequence[str], rows: Sequence[float], columns: Sequence[str]
) -> None:
    """Feature rows keyed by cascade_id, in the given (cascade_id) order;
    ``rows`` is flat, as ``extract_features_batch`` returns it."""
    if not ids:
        raise ConfigInvalidError("no feature rows to write")
    lines = ([cid] + cells for cid, cells in zip(ids, _layout_cells(rows, len(ids))))
    write_csv(path, ["cascade_id", *columns], lines)


def write_labeled_csv(path: str | Path, dataset: TaskDataset) -> None:
    """Task dataset rows: features..., label, final_size, cascade_id."""
    if not dataset.examples:
        raise ConfigInvalidError("no labeled examples to write")
    rows = (
        cells + [str(int(label)), str(size), cid]
        for cells, label, size, cid in zip(
            _layout_cells(dataset.rows, len(dataset.examples)),
            dataset.labels, dataset.final_sizes, dataset.examples,
        )
    )
    write_csv(path, [*dataset.columns, *_LABELED_KEYS], rows)


def _count(flag: float, text: str) -> int | None:
    """The exact whole number >= 0 that a row's count cell ``text`` holds
    (``3`` and ``3.0`` hold 3), when the row's flag is 0 or 1 too; None for
    any other row (``3.7``, ``-5``). ``text`` already reads as a finite
    float."""
    if flag != 0.0 and flag != 1.0:
        return None
    try:
        count = int(text)
    except ValueError:
        exact = decimal.Decimal(text)
        count = int(exact)
        if count != exact:
            return None
    return count if count >= 0 else None


def read_labeled_csv(
    path: str | Path,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str], list[str]]:
    """Returns (X, y, final_sizes, cascade_ids, feature_columns); each label
    is 0 or 1, each final size a whole number >= 0, and each cascade_id on
    one row. ``X`` views the one ``array("d")`` its rows are read into."""
    with closing(_read_rows(path)) as rows:
        header = next(rows)
        if tuple(header[-3:]) != _LABELED_KEYS:
            raise ConfigInvalidError(
                f"{path}:1: expected trailing {','.join(_LABELED_KEYS)} columns"
            )
        width = len(header) - 3
        flat = array("d")
        labels: list[float] = []
        sizes: list[float] = []
        ids: dict[str, None] = {}
        for lineno, row in rows:
            flat.extend(_numbers(path, lineno, row[:width]))
            label, size = _numbers(path, lineno, row[width:-1])
            if _count(label, row[-2]) is None:
                raise ConfigInvalidError(
                    f"{path}:{lineno}: label must be 0 or 1 and final_size a whole "
                    f"number >= 0, got {row[-3]} and {row[-2]}"
                )
            if row[-1] in ids:
                raise ConfigInvalidError(f"{path}:{lineno}: cascade_id {row[-1]!r} appears twice")
            ids[row[-1]] = None
            labels.append(label)
            sizes.append(size)
    X = np.frombuffer(flat, dtype=np.float64).reshape(len(ids), width)
    return X, np.array(labels), np.array(sizes), list(ids), header[:-3]


def write_cluster_csv(path: str | Path, instances: Sequence[ClusterInstance]) -> None:
    """One row per sampled cluster member, winner flagged."""
    if not instances:
        raise ConfigInvalidError("no cluster instances to write")
    rows = (
        [inst.cluster_id, cid, str(size), "1" if idx == inst.winner_index else "0"]
        + cells
        for inst in instances
        for idx, (cid, size, cells) in enumerate(
            zip(inst.members, inst.final_sizes,
                _layout_cells(inst.rows, len(inst.members)))
        )
    )
    write_csv(path, [*_CLUSTER_KEYS, *instances[0].columns], rows)


def read_cluster_csv(path: str | Path) -> list[ClusterInstance]:
    """The instances ``write_cluster_csv`` wrote, in file order; each
    final size is a whole number >= 0, read exactly, each is_winner 0 or 1,
    and each cascade_id on one row of its cluster. Each instance's rows are
    read into one ``array("d")``."""
    with closing(_read_rows(path)) as rows:
        header = next(rows)
        columns = header[4:]
        if tuple(header[:4]) != _CLUSTER_KEYS or layout_columns(columns[0::2]) != columns:
            raise ConfigInvalidError(
                f"{path}:1: expected {','.join(_CLUSTER_KEYS)} then each feature "
                "column followed by its missing indicator"
            )
        # Per cluster, in the order of first rows: (first line, members as
        # the keys of a dict, final sizes, rows, winner indices).
        clusters: dict[str, tuple[int, dict[str, None], list[int], array, list[int]]] = {}
        for lineno, row in rows:
            if row[0] not in clusters:
                clusters[row[0]] = (lineno, {}, [], array("d"), [])
            _, members, sizes, flat, winners = clusters[row[0]]
            flag = _numbers(path, lineno, row[2:4])[1]
            flat.extend(_numbers(path, lineno, row[4:]))
            size = _count(flag, row[2])
            if size is None:
                raise ConfigInvalidError(
                    f"{path}:{lineno}: final_size must be a whole number >= 0 and "
                    f"is_winner 0 or 1, got {row[2]} and {row[3]}"
                )
            if row[1] in members:
                raise ConfigInvalidError(
                    f"{path}:{lineno}: cascade_id {row[1]!r} appears twice "
                    f"in cluster {row[0]!r}"
                )
            if flag == 1.0:
                winners.append(len(members))
            members[row[1]] = None
            sizes.append(size)
    instances = []
    for cluster_id, (first, members, sizes, flat, winners) in clusters.items():
        if len(winners) != 1:
            raise ConfigInvalidError(
                f"{path}:{first}: cluster {cluster_id!r} has "
                f"{len(winners)} winner rows, expected 1"
            )
        instances.append(ClusterInstance(
            cluster_id, tuple(members), tuple(sizes), flat, columns, winners[0]
        ))
    return instances


# --- model files ----------------------------------------------------------------

def write_model(path: str | Path, model: Model) -> None:
    """Human-diffable key-value model document."""
    with _create(path) as fh:
        for key, name, _, write in _MODEL_LINES:
            fh.write(f"{key} {write(getattr(model, name))}\n")
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


def _whole(value: int) -> str:
    return str(int(value))


# Each one-value line of a model file, in the order write_model writes them:
# its key, the Model field it holds, how its value parses and how it is written.
_MODEL_LINES = (
    ("lambda", "lam", finite_float, fmt),
    ("seed", "seed", int, _whole),
    ("bias", "bias", finite_float, fmt),
    ("iterations", "iterations", int, _whole),
    ("final_loss", "final_loss", finite_float, fmt),
    ("converged", "converged", _bit, _whole),
)
_MODEL_PARSERS = {key: parse for key, _, parse, _ in _MODEL_LINES}
_MODEL_FIELD_KEYS = {name: key for key, name, _, _ in _MODEL_LINES}


def read_model(path: str | Path) -> Model:
    """The model write_model wrote; each value must parse as its key's type,
    each one-value key and each feature appear once, each std be > 0, and
    each ``dropped`` name be neither a feature nor dropped twice."""
    scalars: dict[str, object] = {}
    names: list[str] = []
    weights: dict[str, float] = {}
    means: dict[str, float] = {}
    stds: dict[str, float] = {}
    dropped: list[tuple[int, str]] = []
    for lineno, line in _lines(path):
        parts = line.split()
        key = parts[0]
        if key not in _MODEL_PARSERS and key not in ("feature", "dropped"):
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
            dropped.append((lineno, parts[1]))
        else:
            if key in scalars:
                raise ConfigInvalidError(f"{path}:{lineno}: {key!r} appears twice")
            try:
                scalars[key] = _MODEL_PARSERS[key](parts[1])
            except ValueError as exc:
                raise ConfigInvalidError(f"{path}:{lineno}: {key}: {exc}") from None
    # A missing key is named in Model's field order; one whose field has a
    # default (converged: a file without it is unconverged) may be left out.
    values = {}
    for f in fields(Model):
        key = _MODEL_FIELD_KEYS.get(f.name)
        if key in scalars:
            values[f.name] = scalars[key]
        elif key is not None and f.default is MISSING:
            raise ConfigInvalidError(f"{path}: missing model key {key!r}")
    model = Model(
        feature_names=tuple(names), weights=weights, means=means, stds=stds,
        dropped=tuple(name for _, name in dropped), **values,
    )
    seen = set(weights)
    for lineno, name in dropped:
        if name in seen:
            what = "is also a feature" if name in weights else "appears twice"
            raise ConfigInvalidError(f"{path}:{lineno}: dropped {name!r} {what}")
        seen.add(name)
    return model


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
