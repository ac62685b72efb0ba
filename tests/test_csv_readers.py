"""The labeled and cluster CSV readers: one pass over the rows, the first
faulty line named, and no row's cells held past its parse."""

import csv
import gc
import random
import tracemalloc
from array import array
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from cascadekit import io
from cascadekit.cascade import layout_columns
from cascadekit.cli import main
from cascadekit.errors import ConfigInvalidError
from cascadekit.learner import Model
from cascadekit.tasks import ClusterInstance, TaskDataset

from test_cli import CLUSTER_HEADER, LABELED_HEADER, cluster_instances, datasets


def _records(path):
    """(line number, cells) of each record of a CSV file, the header's too."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        return [(reader.line_num, row) for row in reader]


def _error(argv):
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        assert main(argv) == 2
    return err.getvalue()


# A faulty cell of each kind, by where it sits in a row: a cell that is not
# a finite number, and a count or flag that is a number but not a count or
# a flag.
NOT_NUMBERS = st.sampled_from(["x", "", "nan", "-inf", "1e400"])
BAD_COUNTS = st.sampled_from(["-1", "3.5", "1e-400"])
BAD_FLAGS = st.sampled_from(["2", "-1", "0.5"])


@given(ds=datasets().filter(lambda ds: len(ds.examples) >= 2), data=st.data())
def test_labeled_csv_error_names_the_first_faulty_row(tmp_path_factory, ds, data):
    """Two rows faulted in different ways (a bad cell, a bad label or
    final_size, a repeated cascade_id) end as one error line that names
    the earlier row."""
    root = tmp_path_factory.mktemp("labeled")
    path = root / "labeled.csv"
    io.write_labeled_csv(path, ds)
    (_, header), *records = _records(path)
    rows = [row for _, row in records]
    at = sorted(data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2,
                                   max_size=2, unique=True)))
    kinds = data.draw(st.permutations(["cell", "count", "id"]))[:2]
    # A cascade_id repeats only after its first row.
    assume(not (at[0] == 0 and kinds[0] == "id"))
    for i, kind in zip(at, kinds):
        row = rows[i]
        if kind == "cell":
            row[data.draw(st.integers(0, len(row) - 2))] = data.draw(NOT_NUMBERS)
        elif kind == "count":
            if data.draw(st.booleans()):
                row[-3] = data.draw(BAD_FLAGS)
            else:
                row[-2] = data.draw(BAD_COUNTS)
        else:
            row[-1] = rows[0][-1]
    io.write_csv(path, header, rows)
    line = _records(path)[1 + at[0]][0]
    out = _error(["train", "--in", str(path), "--model-out", str(root / "m.txt"),
                  "--folds", "0"])
    assert out.startswith(f"error: {path}:{line}: ") and out.count("\n") == 1, out


@given(instances=cluster_instances().filter(lambda x: sum(len(i.members) for i in x) >= 2),
       data=st.data())
def test_cluster_csv_error_names_the_first_faulty_row(tmp_path_factory, instances, data):
    """Two rows faulted in different ways (a bad cell, a bad final_size or
    is_winner, a cascade_id an earlier row of its cluster holds), in any
    clusters, end as one error line that names the earlier row."""
    root = tmp_path_factory.mktemp("clusters")
    path, model = root / "clusters.csv", root / "model.txt"
    io.write_cluster_csv(path, instances)
    io.write_model(model, Model(("x",), {"x": 1.0}, 0.0, {"x": 0.0}, {"x": 1.0},
                                (), 0.01, 0, 1, 0.0, True))
    (_, header), *records = _records(path)
    rows = [row for _, row in records]
    at = sorted(data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2,
                                   max_size=2, unique=True)))
    kinds = data.draw(st.permutations(["cell", "count", "member"]))[:2]
    for i, kind in zip(at, kinds):
        row = rows[i]
        if kind == "cell":
            row[data.draw(st.integers(2, len(row) - 1))] = data.draw(NOT_NUMBERS)
        elif kind == "member":
            # A member repeats only after its cluster's first row.
            first = next(j for j, other in enumerate(rows) if other[0] == row[0])
            assume(first < i)
            row[1] = rows[first][1]
        elif data.draw(st.booleans()):
            row[3] = data.draw(BAD_FLAGS)
        else:
            row[2] = data.draw(BAD_COUNTS)
    io.write_csv(path, header, rows)
    line = _records(path)[1 + at[0]][0]
    out = _error(["evaluate", "--cluster", str(path), "--model", str(model)])
    assert out.startswith(f"error: {path}:{line}: ") and out.count("\n") == 1, out


def _peak(read, path):
    """Bytes at tracemalloc's peak while ``read(path)`` runs."""
    tracemalloc.start()
    try:
        read(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


N_ROWS, N_FEATURES = 1000, 50  # 1000 rows of 100 columns


def _matrix(seed):
    draw = random.Random(seed)
    rows = array("d")
    for _ in range(N_ROWS * N_FEATURES):
        missing = draw.random() < 0.1
        rows.extend([0.0 if missing else draw.uniform(-1e3, 1e3), float(missing)])
    return rows


def test_labeled_csv_read_peaks_near_the_matrix(tmp_path):
    """Reading a 1000 x 100 labeled CSV holds little besides its matrix:
    no row's cells outlive the row's parse."""
    rows = _matrix(0)
    path = tmp_path / "labeled.csv"
    io.write_labeled_csv(path, TaskDataset(
        examples=tuple(f"c{i:04d}" for i in range(N_ROWS)),
        final_sizes=tuple(range(N_ROWS)),
        rows=rows,
        labels=tuple(i % 2 for i in range(N_ROWS)),
        columns=layout_columns([f"f{j}" for j in range(N_FEATURES)]),
        k=1,
        threshold=0.5,
    ))
    assert _peak(io.read_labeled_csv, path) < 2 * rows.itemsize * len(rows)


def test_cluster_csv_read_peaks_near_the_matrix(tmp_path):
    """Reading a 1000 x 100 cluster CSV (100 clusters of 10 members) holds
    little besides its rows."""
    rows = _matrix(1)
    width, m = 2 * N_FEATURES, 10
    columns = layout_columns([f"f{j}" for j in range(N_FEATURES)])
    path = tmp_path / "clusters.csv"
    io.write_cluster_csv(path, [
        ClusterInstance(
            f"g{g:03d}",
            members=tuple(f"c{g:03d}{i}" for i in range(m)),
            final_sizes=tuple(range(m)),
            rows=rows[g * m * width:(g + 1) * m * width],
            columns=columns,
            winner_index=g % m,
        )
        for g in range(N_ROWS // m)
    ])
    assert _peak(io.read_cluster_csv, path) < 2 * rows.itemsize * len(rows)


@pytest.mark.parametrize("read, text", [
    (io.read_labeled_csv, LABELED_HEADER + "nan,0,1,5,a\n2.0,0,0,6,b\n"),
    (io.read_labeled_csv, LABELED_HEADER + "1.0,0,2,5,a\n2.0,0,0,6,b\n"),
    (io.read_labeled_csv, LABELED_HEADER + "1.0,0,1\n2.0,0,0,6,b\n"),
    (io.read_cluster_csv, CLUSTER_HEADER + "g0,a,5,1,nan,0\ng0,b,6,0,2.0,0\n"),
    (io.read_cluster_csv, CLUSTER_HEADER + "g0,a,-5,1,1.0,0\ng0,b,6,0,2.0,0\n"),
], ids=["labeled-cell", "labeled-label", "labeled-short-row", "cluster-cell",
        "cluster-final-size"])
def test_reader_stopped_by_its_first_row_leaves_no_file_open(
    tmp_path, monkeypatch, read, text
):
    """The file is closed when the error leaves the reader, not when the
    error's traceback is freed: the collector may be paused then, and the
    traceback still holds the reader's frame."""
    opened = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(io, "open", recording_open, raising=False)
    path = tmp_path / "bad.csv"
    path.write_text(text)
    was_on = gc.isenabled()
    gc.disable()
    try:
        with pytest.raises(ConfigInvalidError, match=":2: ") as excinfo:
            read(path)
        assert len(opened) == 1 and opened[0].closed, excinfo.traceback
    finally:
        if was_on:
            gc.enable()


def test_labeled_csv_with_a_byte_order_mark_reads_as_without(tmp_path):
    """A leading byte-order mark is not part of the first column's name."""
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("x,x_missing,label,final_size,cascade_id\n1.5,0,1,5,a\n0,1,0,2,b\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    X, y, sizes, ids, columns = io.read_labeled_csv(marked)
    assert columns == ["x", "x_missing"]
    for got, want in zip((X, y, sizes, ids, columns), io.read_labeled_csv(plain)):
        assert np.array_equal(got, want)
