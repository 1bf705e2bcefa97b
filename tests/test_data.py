import csv
import functools
import math
import random
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsnorm import data
from tsnorm.data import (CsvFormatError, LabeledDataset, RngState, TimeSeriesBatch,
                         load_csv, minibatch_indices, save_csv)


def make_dataset(n=4, d=2, t=3, seed=0, classes=2):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, d, t))
    labels = rng.integers(0, classes, size=n)
    return LabeledDataset(TimeSeriesBatch(values), labels)


def test_batch_shape_and_accessors():
    b = TimeSeriesBatch(np.arange(24, dtype=float).reshape(2, 3, 4))
    assert (b.n, b.d, b.t) == (2, 3, 4)
    assert b.values[1].shape == (3, 4)
    assert b.values[:, 2, :].shape == (2, 4)
    assert b.pooled(0).shape == (8,)


def test_batch_rejects_nonfinite():
    bad = np.ones((1, 1, 2))
    bad[0, 0, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        TimeSeriesBatch(bad)


def test_batch_is_frozen_and_does_not_freeze_caller():
    src = np.ones((1, 2, 2))
    b = TimeSeriesBatch(src)
    src[0, 0, 0] = 5.0  # caller array stays writable
    assert b.values[0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        b.values[0, 0, 0] = 2.0


def test_batch_copies_a_transposed_input_once():
    view = np.random.default_rng(0).normal(size=(10, 3, 5000)).transpose(2, 1, 0)
    assert view.flags.writeable and not view.flags.c_contiguous
    tracemalloc.start()
    try:
        batch = TimeSeriesBatch(view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert batch.values.flags.c_contiguous and np.array_equal(batch.values, view)
    assert peak <= 1.1 * view.nbytes, (peak, view.nbytes)


def test_labels_validated():
    batch = TimeSeriesBatch(np.zeros((2, 1, 1)))
    with pytest.raises(ValueError):
        LabeledDataset(batch, [0, 3])
    with pytest.raises(ValueError):
        LabeledDataset(batch, [0])


def test_classes_follow_the_labels():
    def dataset(labels):
        return LabeledDataset(TimeSeriesBatch(np.zeros((len(labels), 1, 2))), labels)

    assert dataset([0, 1, 1]).classes == 2
    assert dataset([1, 1]).classes == 2
    assert dataset([]).classes == 2
    assert dataset([0, 2, 1]).classes == 3
    assert dataset([2]).classes == 3
    assert dataset([0, 2, 1]).subset(np.array([0, 2])).classes == 2


@pytest.mark.parametrize("labels, message", [
    ([0, 1, 3], "series 2: label 3; labels must be in {0,1} or {0,1,2}"),
    ([-1, 1, 0], "series 0: label -1; labels must be in {0,1} or {0,1,2}"),
])
def test_a_label_outside_the_three_classes_is_refused_by_series(labels, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LabeledDataset(TimeSeriesBatch(np.zeros((3, 1, 2))), labels)


def test_minimal_csv_roundtrip(tmp_path):
    path = tmp_path / "mini.csv"
    path.write_text(
        "series_id,timestep,f1,label\n"
        "0,0,1.5,0\n0,1,2.5,0\n"
        "1,0,-1.0,1\n1,1,0.25,1\n"
    )
    ds = load_csv(path)
    assert (ds.batch.n, ds.batch.d, ds.batch.t) == (2, 1, 2)
    assert ds.labels.tolist() == [0, 1]
    assert ds.classes == 2


def test_ragged_series_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text(
        "series_id,timestep,f1,label\n"
        "0,0,1.0,0\n0,1,2.0,0\n"
        "1,0,3.0,1\n1,1,4.0,1\n1,2,5.0,1\n"
    )
    with pytest.raises(CsvFormatError, match="ragged"):
        load_csv(path)


def test_duplicate_pair_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("series_id,timestep,f1,label\n0,0,1.0,0\n0,0,2.0,0\n")
    with pytest.raises(CsvFormatError, match="duplicate"):
        load_csv(path)


def test_non_numeric_feature_reports_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("series_id,timestep,f1,label\n0,0,1.0,0\n0,1,oops,0\n")
    with pytest.raises(CsvFormatError, match="row 3"):
        load_csv(path)


def test_missing_cell_rejected(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("series_id,timestep,f1,label\n0,0,1.0\n")
    with pytest.raises(CsvFormatError, match="row 2"):
        load_csv(path)


def test_inconsistent_label_rejected(tmp_path):
    path = tmp_path / "lbl.csv"
    path.write_text("series_id,timestep,f1,label\n0,0,1.0,0\n0,1,1.0,1\n")
    with pytest.raises(CsvFormatError, match="label"):
        load_csv(path)


def test_save_rejects_zero_features(tmp_path):
    ds = LabeledDataset(TimeSeriesBatch(np.zeros((2, 0, 3))), [0, 1])
    with pytest.raises(ValueError, match="zero feature"):
        save_csv(ds, tmp_path / "x.csv")


def test_roundtrip_bit_exact(tmp_path):
    # random doubles, including awkward magnitudes, must survive text IO exactly
    rng = np.random.default_rng(42)
    values = rng.normal(size=(5, 3, 4)) * 10.0 ** rng.integers(-8, 8, size=(5, 3, 4))
    ds = LabeledDataset(TimeSeriesBatch(values), rng.integers(0, 2, 5))
    path = tmp_path / "rt.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.batch.values, ds.batch.values)
    assert np.array_equal(back.labels, ds.labels)


def test_ternary_labels_roundtrip(tmp_path):
    ds = make_dataset(n=6, classes=3, seed=3)
    path = tmp_path / "t.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert back.classes == 3
    assert set(np.unique(back.labels)) <= {0, 1, 2}


def reference_save_csv(dataset, path):
    """The row-at-a-time csv.writer form of the file format."""
    d, t = dataset.batch.d, dataset.batch.t
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["series_id", "timestep"] + [f"f{k + 1}" for k in range(d)] + ["label"])
        for i in range(dataset.batch.n):
            for step in range(t):
                cells = [repr(float(v)) for v in dataset.batch.values[i, :, step]]
                writer.writerow([i, step] + cells + [int(dataset.labels[i])])


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e300, -1e300,
           1.7976931348623157e308, 0.1, -1.5]

finite = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=False, allow_infinity=False, width=64))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, 5)),
       ternary=st.booleans(), data_=st.data())
def test_roundtrip_bit_exact_property(tmp_path_factory, shape, ternary, data_):
    n, d, t = shape
    cells = data_.draw(st.lists(finite, min_size=n * d * t, max_size=n * d * t))
    labels = data_.draw(st.lists(st.integers(0, 2 if ternary else 1), min_size=n, max_size=n))
    classes = 3 if max(labels) == 2 else 2
    ds = LabeledDataset(TimeSeriesBatch(np.array(cells).reshape(n, d, t)), labels)
    path = tmp_path_factory.mktemp("rt") / "p.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert same_bits(back.batch.values, ds.batch.values)
    assert np.array_equal(back.labels, ds.labels) and back.classes == classes


def test_save_bytes_equal_csv_writer(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.normal(size=(9, 3, 4)) * 10.0 ** rng.integers(-300, 300, size=(9, 3, 4))
    values[0, 0, :] = [0.0, -0.0, 5e-324, -1e300]
    ds = LabeledDataset(TimeSeriesBatch(values), rng.integers(0, 3, 9))
    save_csv(ds, tmp_path / "new.csv")
    reference_save_csv(ds, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def big_csv_lines(tmp_path, n=500, t=10):
    """Lines (header first, no terminators) of a file longer than one loader chunk."""
    assert n * t > data.LOAD_CHUNK + 100
    ds = make_dataset(n=n, d=2, t=t, seed=6)
    save_csv(ds, tmp_path / "big.csv")
    return ds, (tmp_path / "big.csv").read_text().splitlines()


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def test_shuffled_rows_load_like_sorted(tmp_path):
    ds, lines = big_csv_lines(tmp_path)
    body = lines[1:]
    random.Random(0).shuffle(body)
    back = load_csv(write_lines(tmp_path / "shuffled.csv", [lines[0]] + body))
    assert same_bits(back.batch.values, ds.batch.values)
    assert np.array_equal(back.labels, ds.labels)


# file row numbers: the header is row 1, so data line i (0-based) is row i + 2
LATE = data.LOAD_CHUNK + 250


@pytest.mark.parametrize("fault, message", [
    (lambda cells: cells[:2] + ["oops"] + cells[3:], "non-numeric feature value"),
    (lambda cells: cells[:3] + ["nan"] + cells[4:], "non-finite feature value"),
    (lambda cells: cells[:-1], "expected 5 cells, got 4"),
    (lambda cells: ["x1"] + cells[1:], "invalid literal for int"),
])
def test_fault_after_first_chunk_names_its_row(tmp_path, fault, message):
    _, lines = big_csv_lines(tmp_path)
    lines[LATE - 1] = ",".join(fault(lines[LATE - 1].split(",")))
    with pytest.raises(CsvFormatError, match=f"^row {LATE}: {message}"):
        load_csv(write_lines(tmp_path / "bad.csv", lines))


def test_duplicate_in_later_chunk_names_second_copy(tmp_path):
    _, lines = big_csv_lines(tmp_path)
    first = lines[10].split(",")  # series 0, timestep 9
    lines[LATE - 1] = ",".join(first[:2] + lines[LATE - 1].split(",")[2:-1] + first[-1:])
    with pytest.raises(CsvFormatError, match=rf"^row {LATE}: duplicate .* pair \(0, 9\)"):
        load_csv(write_lines(tmp_path / "dup.csv", lines))


def test_blank_lines_keep_row_numbers(tmp_path):
    _, lines = big_csv_lines(tmp_path)
    cells = lines[LATE - 1].split(",")
    lines[LATE - 1] = ",".join(cells[:2] + ["oops"] + cells[3:])
    # blank lines are skipped but counted, in the first chunk and in the faulty one
    lines[LATE - 20:LATE - 20] = ["", ""]
    lines[5:5] = ["", ""]
    with pytest.raises(CsvFormatError, match=f"^row {LATE + 4}: non-numeric"):
        load_csv(write_lines(tmp_path / "blank.csv", lines))


def test_blank_lines_keep_row_numbers_of_a_duplicate(tmp_path):
    _, lines = big_csv_lines(tmp_path)
    first = lines[10].split(",")  # series 0, timestep 9
    lines[LATE - 1] = ",".join(first[:2] + lines[LATE - 1].split(",")[2:-1] + first[-1:])
    lines[LATE - 20:LATE - 20] = ["", ""]
    lines[5:5] = [""]
    with pytest.raises(CsvFormatError, match=rf"^row {LATE + 3}: duplicate .* pair \(0, 9\)"):
        load_csv(write_lines(tmp_path / "dup.csv", lines))


def test_two_duplicate_pairs_report_the_earliest_repeat(tmp_path):
    path = tmp_path / "dups.csv"
    path.write_text("series_id,timestep,f1,label\n"
                    "5,0,1.0,0\n5,0,2.0,0\n7,0,1.0,1\n0,0,1.0,0\n0,0,3.0,0\n7,0,4.0,1\n")
    with pytest.raises(CsvFormatError, match=r"^row 3: duplicate .* pair \(5, 0\)"):
        load_csv(path)


def test_integer_cell_beyond_int64_names_its_row(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("series_id,timestep,f1,label\n0,0,1.0,0\n99999999999999999999,0,1.0,0\n")
    with pytest.raises(CsvFormatError, match="^row 3: integer cell outside the 64-bit range"):
        load_csv(path)


def test_label_out_of_range_names_the_first_series(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("series_id,timestep,f1,label\n7,0,1.0,3\n2,0,1.0,0\n5,0,1.0,-1\n")
    with pytest.raises(CsvFormatError, match=r"^series 5: label -1; labels must be in "
                                             r"\{0,1\} or \{0,1,2\}$"):
        load_csv(path)


def test_saved_csv_is_parsed_without_the_csv_module(tmp_path, monkeypatch):
    ds, lines = big_csv_lines(tmp_path)
    lines[20:20] = [""]  # a blank line does not send its chunk to the csv module

    def refuse(*args):
        raise AssertionError("a chunk went to the csv module")

    monkeypatch.setattr(data, "_parse_chunk", refuse)
    back = load_csv(write_lines(tmp_path / "plain.csv", lines))
    assert same_bits(back.batch.values, ds.batch.values)


# a valid cell over two lines leaves the record number of a later fault as it is
@pytest.mark.parametrize("cell, cell_row, fault_row", [
    ('"1.\n5"', LATE, LATE),  # the quoted cell is itself the fault
    ('"1.5\n"', LATE, LATE + 10),
    ('"1.5\n"', 100, LATE),
])
def test_quoted_line_break_keeps_record_numbers(tmp_path, cell, cell_row, fault_row):
    _, lines = big_csv_lines(tmp_path)
    for row, text in ((fault_row, "oops"), (cell_row, cell)):
        cells = lines[row - 1].split(",")
        lines[row - 1] = ",".join(cells[:2] + [text] + cells[3:])
    with pytest.raises(CsvFormatError, match=f"^row {fault_row}: non-numeric feature value"):
        load_csv(write_lines(tmp_path / "quoted.csv", lines))


# The differential property: load_csv against its csv-module path forced for
# the whole file (numpy's parser refuses every chunk), on a valid 150-row file
# read in 32-line chunks with one cell or line mutated.
SMALL_CHUNK = 32


def _underscored(cell):
    """A spelling int() and float() accept and numpy refuses, where there is one."""
    spots = [i for i in range(1, len(cell)) if cell[i - 1].isdigit() and cell[i].isdigit()]
    return cell[:spots[0]] + "_" + cell[spots[0]:] if spots else cell + "_"


CELL_EDITS = {
    "quoted": lambda c: f'"{c}"',
    "underscore": _underscored,
    "padded": lambda c: f" {c} ",
    "tab padded": lambda c: f"\t{c}\x0b",
    "plus": lambda c: "+" + c,
    "point zero": lambda c: c + ".0",
    "exponent": lambda c: c + "e0",
    "nan": lambda c: "nan",
    "overflow to inf": lambda c: "1e400",
    "-inf": lambda c: "-Infinity",
    "int64 max + 1": lambda c: "9223372036854775808",
    "int64 min": lambda c: "-9223372036854775808",
    "int64 min - 1": lambda c: "-9223372036854775809",
    "long mantissa": lambda c: "0.1000000000000000055511151231257827021181583404541015625",
    "long digits": lambda c: "-3.14159265358979323846264338327950288419716939937510582097494459",
    "subnormal": lambda c: "4.9406564584124654e-324",
    "half the least subnormal": lambda c: "2.4703282292062328e-324",
    "below normal": lambda c: "2.2250738585072011e-308",
    "underflow": lambda c: "1e-400",
    "empty": lambda c: "",
    "zero": lambda c: "0",
    "two": lambda c: "2",
    "minus one": lambda c: "-1",
    "hex": lambda c: "0x10",
    "NUL": lambda c: c + "\0",
    "file separator": lambda c: "\x1c" + c,
    "no-break space": lambda c: "\xa0" + c,
    "arabic-indic digit": lambda c: "٣",
    "quoted line break": lambda c: f'"{c}\n"',
    "quoted line break inside": lambda c: '"1.\n5"',
    "text after a closing quote": lambda c: f'"{c}"0',
    "unclosed quote": lambda c: '"' + c,
    "non-ASCII letter": lambda c: c + "\u01fe",
}
LINE_EDITS = {
    "whitespace-only line": lambda line: [" "],
    "trailing comma": lambda line: [line + ","],
    "missing cell": lambda line: [line.rsplit(",", 1)[0]],
    "blank line": lambda line: ["", line],
    "two blank lines": lambda line: [line, "", ""],
    "blank line and a repeat": lambda line: ["", line, line],
    "line removed": lambda line: [],
}


@functools.lru_cache(maxsize=1)
def small_csv_lines():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "small.csv"
        save_csv(make_dataset(n=15, d=2, t=10, seed=8, classes=3), path)
        return path.read_bytes().decode().split("\r\n")[:-1]


def load_outcome(path, forced):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "LOAD_CHUNK", SMALL_CHUNK)
        if forced:
            mp.setattr(data, "_loadtxt_chunk", lambda *args: None)
        try:
            # every record with its row number, then the dataset
            records = [a.tobytes() for a in data._read_rows(path)[1:]]
            ds = load_csv(path)
        except Exception as exc:  # the reference may raise anything; both must agree
            return type(exc).__name__, str(exc)
    return records, ds.batch.values.shape, ds.batch.values.tobytes(), ds.labels.tolist(), \
        ds.classes


@settings(max_examples=400, deadline=None, derandomize=True)
@given(line_no=st.integers(1, 150), column=st.integers(0, 4),
       edit=st.sampled_from(sorted(CELL_EDITS) + sorted(LINE_EDITS)),
       ending=st.sampled_from(["\n", "\r\n", "\r"]))
def test_loader_agrees_with_its_csv_module_path(tmp_path_factory, line_no, column, edit,
                                               ending):
    lines = list(small_csv_lines())
    assert len(lines) == 151 and len(lines) > 4 * SMALL_CHUNK
    if edit in CELL_EDITS:
        cells = lines[line_no].split(",")
        cells[column] = CELL_EDITS[edit](cells[column])
        lines[line_no:line_no + 1] = [",".join(cells)]
    else:
        lines[line_no:line_no + 1] = LINE_EDITS[edit](lines[line_no])
    path = tmp_path_factory.mktemp("mutated") / "m.csv"
    with open(path, "w", newline="") as fh:
        fh.write(ending.join(lines) + ending)
    assert load_outcome(path, forced=False) == load_outcome(path, forced=True)

# The one-cell property: a cell of a small saved file replaced by a value from
# a grammar of spellings; the load gives what Python's int()/float() read from
# the cell, or a CsvFormatError that names a row or a series.  With
# LOAD_CHUNK = 2 the row falls in a chunk of numpy's parser unless the cell
# sends it on; with LOAD_CHUNK = 1 and a quote in data row 1, in a chunk of
# the csv module.
INT_COLUMNS = (0, 1, 4)  # series_id, timestep, label; f1 and f2 are columns 2 and 3
LISTED_SPELLINGS = [
    "", " ", "  ", "nan", "NaN", "-nan", "inf", "-inf", "+Infinity", "1e400", "-1e400", "1e-400",
    "1_000", "1__0", "_1", '"2.5"', '"1"', '" 0 "', '""', "\u0663", "\uff11", "\xa01", "\x1c1",
    "1\x1f", "\x0b1", str(2 ** 63), str(2 ** 63 - 1), str(-2 ** 63), str(-2 ** 63 - 1),
    str(2 ** 64), "2.5", "1.0", "1e0", "-0.0", "-0", "+1", " 1 ", "\t2", "0x10", "0b1", "1e", ".",
    "-", "abc", "1 2", "5e-324", "1.7976931348623157e308", "1.8e308",
]
GENERATED_SPELLINGS = st.one_of(
    st.integers(-2 ** 64, 2 ** 64).map(str),
    st.floats(width=64).map(repr),
    st.text("0123456789+-.e_ ", max_size=6),
)


@functools.lru_cache(maxsize=1)
def small_file():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "small.csv"
        save_csv(make_dataset(n=4, d=2, t=3, seed=9), path)
        return path.read_text().splitlines(), load_csv(path)


def check_one_cell(path, row, column, spelling, via_csv_module):
    lines, original = small_file()
    lines = list(lines)
    cells = lines[row].split(",")
    sid, step = int(cells[0]), int(cells[1])
    before, cells[column] = cells[column], spelling
    lines[row] = ",".join(cells)
    if via_csv_module:  # a quote in data row 1 sends it and every later row to the csv module
        first = lines[1].split(",")
        quoted = 1 if column == 0 else 0
        first[quoted] = f'"{first[quoted]}"'
        lines[1] = ",".join(first)
    write_lines(path, lines)
    text = (next(csv.reader([spelling])) or [""])[0]  # the cell as the csv module decodes it
    try:
        value = int(text) if column in INT_COLUMNS else float(text)
        readable = (-2 ** 63 <= value < 2 ** 63 if column in INT_COLUMNS
                    else math.isfinite(value))
    except ValueError:
        readable = False
    case = (row, column, spelling, via_csv_module)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "LOAD_CHUNK", 1 if via_csv_module else 2)
        try:
            got = load_csv(path)
        except CsvFormatError as exc:
            if not readable:  # a cell int() or float() refuses is named by its row
                assert str(exc).startswith(f"row {row + 1}: "), (case, exc)
            else:  # a readable cell that breaks the layout is named by a row or a series
                assert re.match(r"(row \d+|series -?\d+|ragged series: series -?\d+)[: ]",
                                str(exc)), (case, exc)
                assert column in INT_COLUMNS and value != int(before), (case, exc)
            return
    assert readable, case
    want = original.batch.values.copy()
    if column in INT_COLUMNS:
        assert value == int(before), case
    else:
        want[sid, column - 2, step] = value
    assert same_bits(got.batch.values, want), case
    assert np.array_equal(got.labels, original.labels), case


@pytest.mark.parametrize("spelling", LISTED_SPELLINGS)
def test_one_listed_cell_loads_as_python_reads_it_or_names_a_row(tmp_path, spelling):
    for row in (1, 3, 12):
        for column in range(5):
            for via_csv_module in (False, True):
                check_one_cell(tmp_path / "m.csv", row, column, spelling, via_csv_module)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(row=st.integers(1, 12), column=st.integers(0, 4), spelling=GENERATED_SPELLINGS,
       via_csv_module=st.booleans())
def test_one_generated_cell_loads_as_python_reads_it_or_names_a_row(tmp_path_factory, row,
                                                                    column, spelling,
                                                                    via_csv_module):
    check_one_cell(tmp_path_factory.mktemp("cell") / "m.csv", row, column, spelling,
                   via_csv_module)


def test_minibatch_sizes_and_partition():
    ds = make_dataset(n=5)
    batches = list(minibatch_indices(ds.n, 2, RngState(0).generator()))
    assert [len(b) for b in batches] == [2, 2, 1]
    joined = np.sort(np.concatenate(batches))
    assert joined.tolist() == [0, 1, 2, 3, 4]


def test_minibatch_deterministic():
    ds = make_dataset(n=50)
    a = list(minibatch_indices(ds.n, 7, RngState(123).generator()))
    b = list(minibatch_indices(ds.n, 7, RngState(123).generator()))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_minibatch_rejects_zero_batch():
    ds = make_dataset()
    with pytest.raises(ValueError):
        next(minibatch_indices(ds.n, 0, RngState(0).generator()))


def test_rng_state_children_differ():
    root = RngState(7)
    streams = {root.child(i).generator().integers(0, 1 << 62) for i in range(20)}
    assert len(streams) == 20
