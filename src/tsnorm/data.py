"""Containers and IO for labeled multivariate time series.

The data model is deliberately small: a dense ``(N, d, T)`` float64 array of
N series with d features observed at T timesteps and a label per series: 0 or
1, or 0, 1 or 2 for a 3-class task.  Everything downstream (normalization
layers, training, the synthetic generator) passes these batches around.
Building a :class:`TimeSeriesBatch` scans its values for NaN/Inf and freezes
a private copy unless it is handed an array that is already read-only and
C-contiguous.  Callers that build a fresh array for a batch (a minibatch, a
row subset, EDAIN's output) freeze it themselves, so such a batch costs the
scan but no second copy.

The CSV codec works ``LOAD_CHUNK`` rows at a time, so its temporaries stay
small: :func:`load_csv` parses plain chunks with numpy's C text parser and
hands the rest of a file to the ``csv`` module, and :func:`save_csv`
formats a column at a time.

The JSON documents the program reads (checkpoints, experiment configs and
pdf configs) are loaded field by field through one checker,
:func:`load_fields`: each field is typed by an annotation, and arrays go
through :func:`load_array`.  Every refusal names its field in one form:
"<document> <field>" at the top of a document and "<document>
<section>.<field>" inside one, as in "config train.max_epochs must be int,
got '3'".
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from dataclasses import dataclass, fields, is_dataclass
from itertools import chain, islice
from pathlib import Path
from types import MappingProxyType
from typing import Any, Iterator, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

LOAD_CHUNK = 4096  # data rows the CSV codec parses or formats at a time
_INT64 = np.iinfo(np.int64)


class CsvFormatError(ValueError):
    """A dataset file violates the expected CSV layout."""


class NonFiniteBatchError(ValueError):
    """A time series batch would hold NaN or Inf values."""


@dataclass(frozen=True)
class RngState:
    """Deterministic random-stream handle.

    Streams come from numpy's PCG64 bit generator, which produces the same
    sequence for the same seed on every platform.  Parallel or per-fold work
    derives independent child states with :meth:`child`; a stream is never
    shared between owners.
    """

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & 0xFFFFFFFFFFFFFFFF)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self.seed))

    def child(self, index: int) -> "RngState":
        # Golden-ratio multiply spreads small indices over 64 bits before the
        # XOR fold so sibling streams stay decorrelated.
        mixed = ((index + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        return RngState(self.seed ^ mixed)


@dataclass(frozen=True, eq=False)
class TimeSeriesBatch:
    """Dense batch of ``n`` series x ``d`` features x ``t`` timesteps.

    Values are validated to be finite float64 and are frozen after
    construction, so a batch can be shared across threads read-only.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 3:
            raise ValueError(
                f"expected a (series, feature, timestep) array, got shape {v.shape}"
            )
        if v.size and not np.all(np.isfinite(v)):
            raise NonFiniteBatchError("time series batch contains NaN or Inf entries")
        # freeze a private copy; never flips the writeable flag on caller-owned storage
        if v.flags.writeable or not v.flags.c_contiguous:
            v = np.array(v, order="C")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def t(self) -> int:
        return self.values.shape[2]

    def pooled(self, k: int) -> np.ndarray:
        """Feature ``k`` pooled over series and timesteps (length N*T)."""
        return self.values[:, k, :].reshape(-1)


@dataclass(eq=False)
class LabeledDataset:
    """A batch plus one integer label per series, each 0, 1 or 2.  The task's
    :attr:`classes` is worked out from the labels, never stored."""

    batch: TimeSeriesBatch
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape != (self.batch.n,):
            raise ValueError(
                f"labels shape {labels.shape} does not match batch of {self.batch.n} series"
            )
        if np.any(bad := (labels < 0) | (labels > 2)):
            raise ValueError(f"series {np.argmax(bad)}: label {labels[bad][0]}; "
                             "labels must be in {0,1} or {0,1,2}")
        self.labels = labels

    @property
    def n(self) -> int:
        return self.batch.n

    @property
    def classes(self) -> int:
        """3 when any label is 2, else 2 (also for no rows)."""
        return 3 if (self.labels == 2).any() else 2

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        indices = np.asarray(indices, dtype=np.int64)
        values = self.batch.values[indices]  # a fresh array: frozen, not copied again
        values.flags.writeable = False
        return LabeledDataset(TimeSeriesBatch(values), self.labels[indices])


def _parse_header(header: list[str]) -> int:
    if len(header) < 3 or header[0] != "series_id" or header[1] != "timestep" or header[-1] != "label":
        raise CsvFormatError(
            "header must be series_id,timestep,f1..fd,label; got " + ",".join(header)
        )
    feats = header[2:-1]
    for k, name in enumerate(feats):
        if name != f"f{k + 1}":
            raise CsvFormatError(f"feature columns must be named f1..fd in order; got {name!r}")
    if not feats:
        raise CsvFormatError("dataset must declare at least one feature column")
    return len(feats)


def _chunk_fault(rows: list[list[str]], row_nos: np.ndarray, d: int) -> None:
    """Raise the CsvFormatError of the first malformed row of a chunk."""
    for row_no, row in zip(row_nos.tolist(), rows):
        if len(row) != d + 3:
            raise CsvFormatError(f"row {row_no}: expected {d + 3} cells, got {len(row)}")
        try:
            ints = (int(row[0]), int(row[1]), int(row[-1]))
        except ValueError as exc:
            raise CsvFormatError(f"row {row_no}: {exc}") from None
        try:
            feats = [float(c) for c in row[2:-1]]
        except ValueError:
            raise CsvFormatError(f"row {row_no}: non-numeric feature value") from None
        if not all(map(math.isfinite, feats)):
            raise CsvFormatError(f"row {row_no}: non-finite feature value")
        if not all(_INT64.min <= v <= _INT64.max for v in ints):
            raise CsvFormatError(f"row {row_no}: integer cell outside the 64-bit range")


def _parse_chunk(rows: list[list[str]], row_nos: np.ndarray, d: int):
    """One chunk of data rows as an int64 (3, m) array of (series_id,
    timestep, label) and a float64 (d, m) feature array, parsed column by
    column with Python ``int`` and ``float``."""
    m = len(rows)
    if set(map(len, rows)) != {d + 3}:
        _chunk_fault(rows, row_nos, d)
    try:
        cols = list(zip(*rows))
        ints = np.stack([np.fromiter(map(int, cols[j]), np.int64, m) for j in (0, 1, -1)])
        feats = np.stack([np.fromiter(map(float, c), np.float64, m) for c in cols[2:-1]])
    except (ValueError, OverflowError):
        _chunk_fault(rows, row_nos, d)
        raise
    if not np.isfinite(feats).all():
        _chunk_fault(rows, row_nos, d)
    return ints, feats


# A chunk holding any of these goes to the csv module: a quote (a quoted cell
# may span lines) and \x1c-\x1f, which numpy strips as whitespace but int()
# and float() refuse.  So does non-ASCII text: numpy's integer parser reads
# some non-ASCII letters as digits.
_CSV_ONLY = '"\x1c\x1d\x1e\x1f'
_BLANK = frozenset({"\n", "\r\n", "\r"})  # the lines csv.reader reads as empty rows


def _loadtxt_chunk(lines: list[str], first: int, dtype: np.dtype):
    """Parse one chunk of physical lines, the first of them file row
    ``first``, with numpy's C parser.

    Returns what :func:`_parse_chunk` would give, plus the rows' numbers, or
    None when the csv module has to read the chunk: a character of
    ``_CSV_ONLY`` or a non-ASCII one, a cell numpy refuses (``1_000``, a
    missing or extra cell, an integer past 64 bits), a line numpy skips, or
    a non-finite feature.  An accepted chunk holds the values ``int()`` and
    ``float()`` give.
    """
    text = "".join(lines)
    if not text.isascii() or any(c in text for c in _CSV_ONLY):
        return None
    nos = np.arange(first, first + len(lines))
    if not _BLANK.isdisjoint(lines):  # blank lines are skipped but keep their row numbers
        keep = [i for i, line in enumerate(lines) if line not in _BLANK]
        lines, nos = [lines[i] for i in keep], nos[keep]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # some numpy versions only warn on 5.0 as an int
            rec = np.loadtxt(lines, dtype, delimiter=",", comments=None, quotechar='"',
                             ndmin=1)
    except (ValueError, Warning):
        return None
    if rec.shape != (len(lines),):
        return None
    names = dtype.names
    feats = np.stack([rec[name] for name in names[2:-1]])
    if not np.isfinite(feats).all():
        return None
    return np.stack([rec[name] for name in (names[0], names[1], names[-1])]), feats, nos


def _read_rows(path: Path):
    """Parse the file in chunks; returns d and the concatenated (3, N)
    integer cells, (d, N) features and (N,) row numbers in file order.

    Chunks of ``LOAD_CHUNK`` physical lines go through numpy's parser.  From
    the first chunk it refuses on, ``csv.reader`` reads the records and
    :func:`_parse_chunk` parses them, in chunks of as many records.  Up to
    there no line holds a quote, so each line is one record and both paths
    number rows alike.  Text that is not UTF-8 is refused naming the first
    row that holds it.
    """
    try:
        return _read_utf8_rows(path)
    except UnicodeDecodeError:
        # undecodable bytes read back as lone surrogates, which no UTF-8 text holds
        with path.open(newline="", encoding="utf-8", errors="surrogateescape") as fh:
            for row_no, row in enumerate(csv.reader(fh), start=1):
                try:
                    "".join(row).encode("utf-8")
                except UnicodeEncodeError:
                    raise CsvFormatError(f"row {row_no}: text is not UTF-8") from None
        raise


def _read_utf8_rows(path: Path):
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("empty file") from None
        d = _parse_header([h.strip() for h in header])
        dtype = np.dtype([("series_id", np.int64), ("timestep", np.int64)]
                         + [(f"f{k + 1}", np.float64) for k in range(d)] + [("label", np.int64)])
        chunks = []
        first = 2
        while lines := list(islice(fh, LOAD_CHUNK)):
            chunk = _loadtxt_chunk(lines, first, dtype)
            if chunk is None:
                reader = csv.reader(chain(lines, fh))
                break
            chunks.append(chunk)
            first += len(lines)
        while rows := list(islice(reader, LOAD_CHUNK)):
            nos = np.arange(first, first + len(rows))
            first += len(rows)
            if not all(rows):  # blank lines are skipped but keep their row numbers
                keep = [i for i, row in enumerate(rows) if row]
                rows, nos = [rows[i] for i in keep], nos[keep]
                if not rows:
                    continue
            chunks.append((*_parse_chunk(rows, nos, d), nos))
    if not chunks:
        raise CsvFormatError("file contains a header but no data rows")
    ints, feats, row_nos = zip(*chunks)
    return d, np.concatenate(ints, axis=1), np.concatenate(feats, axis=1), np.concatenate(row_nos)


def _ragged_fault(sids: np.ndarray, steps: np.ndarray, starts: np.ndarray) -> None:
    """Raise the ragged-series error naming the first series (by id) whose
    timestep set differs from the first series'."""
    step_sets = [tuple(g.tolist()) for g in np.split(steps, starts[1:])]
    ids = sids[starts].tolist()
    for sid, step_set in zip(ids, step_sets):
        if step_set != step_sets[0]:
            raise CsvFormatError(f"ragged series: series {sid} has timesteps {step_set}, "
                                 f"series {ids[0]} has {step_sets[0]}")


def load_csv(path: str | Path) -> LabeledDataset:
    """Read a dataset from the delimited format written by :func:`save_csv`.

    One row per (series, timestep) pair, in any order; series are sorted by
    id and timesteps ascending in the returned batch.  Malformed input
    (missing cells, non-numeric or non-finite features, ragged series,
    duplicate pairs, inconsistent or out-of-range labels) raises
    :class:`CsvFormatError` naming an offending row or series.  Rows are
    parsed in chunks of ``LOAD_CHUNK``, so a file with several faults reports
    one of them (a malformed cell before a duplicate pair, for instance); a
    file with one fault reports its kind and row.

    Chunks of plain ASCII numbers go through ``np.loadtxt``; from the first
    chunk it refuses on (quotes, spellings such as ``1_000``, a fault), the
    rest goes through ``csv.reader`` with Python ``int`` and ``float``.  Both
    give the same values, errors and row numbers.
    """
    d, ints, feats, row_nos = _read_rows(Path(path))
    sids, steps, labels = ints
    order = np.lexsort((steps, sids))
    sids, steps, labels = sids[order], steps[order], labels[order]
    same = (sids[1:] == sids[:-1]) & (steps[1:] == steps[:-1])
    if same.any():
        # the earliest row that repeats a pair seen before it
        later = 1 + np.flatnonzero(same)
        later_rows = row_nos[order][later]
        i = later[np.argmin(later_rows)]
        raise CsvFormatError(f"row {later_rows.min()}: duplicate (series, timestep) pair "
                             f"({sids[i]}, {steps[i]})")
    starts = np.flatnonzero(np.r_[True, sids[1:] != sids[:-1]])
    n, t = starts.size, sids.size // starts.size
    if sids.size != n * t or not (steps.reshape(n, t) == steps[:t]).all():
        _ragged_fault(sids, steps, starts)
    labels = labels.reshape(n, t)
    mixed = (labels != labels[:, :1]).any(axis=1)
    if mixed.any():
        raise CsvFormatError(f"series {sids[starts[np.argmax(mixed)]]}: label differs between rows")
    labels = labels[:, 0]
    outside = (labels < 0) | (labels > 2)
    if outside.any():
        i = np.argmax(outside)
        raise CsvFormatError(f"series {sids[starts[i]]}: label {labels[i]}; "
                             "labels must be in {0,1} or {0,1,2}")
    values = np.take(feats, order, axis=1).reshape(d, n, t).transpose(1, 0, 2)
    return LabeledDataset(TimeSeriesBatch(values), labels)


def save_csv(dataset: LabeledDataset, path: str | Path) -> None:
    """Write a dataset in the exact format :func:`load_csv` accepts.

    Feature values use shortest round-trip decimal text (``repr``), so saving
    and reloading reproduces the 64-bit values bit for bit.  The bytes are
    those of ``csv.writer`` with its default dialect (no cell needs quoting,
    rows end in CRLF).  Cells are formatted a column at a time over blocks
    of whole series, about ``LOAD_CHUNK`` rows each.
    """
    if dataset.batch.d == 0:
        raise ValueError("refusing to write a dataset with zero feature columns")
    path = Path(path)
    n, d, t = dataset.batch.values.shape
    header = ["series_id", "timestep"] + [f"f{k + 1}" for k in range(d)] + ["label"]
    steps = list(map(str, range(t)))
    per_block = max(1, LOAD_CHUNK // max(t, 1))
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n, per_block):
            block = dataset.batch.values[start:start + per_block]
            ids = [s for s in map(str, range(start, start + len(block))) for _ in steps]
            labels = dataset.labels[start:start + len(block)].tolist()
            # each row's last cell carries its line end
            ends = [s for s in map("{}\r\n".format, labels) for _ in steps]
            feats = [map(repr, col) for col in block.transpose(1, 0, 2).reshape(d, -1).tolist()]
            fh.write("".join(map(",".join, zip(ids, steps * len(block), *feats, ends))))


def minibatch_indices(n: int, batch_size: int,
                      generator: np.random.Generator) -> Iterator[np.ndarray]:
    """Yield shuffled index arrays covering 0..n-1 exactly once; last batch may be short."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = generator.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


# ---------------------------------------------------------------------------
# JSON documents

BoolArray = np.ndarray[Any, np.dtype[np.bool_]]  # annotates an array of JSON booleans
_TYPE_OF = np.frompyfunc(type, 1, 1)


def check_keys(doc, section: str, names) -> dict:
    """``doc`` itself, once it is a JSON object whose keys are all in ``names``;
    anything else is a ValueError that names ``section`` and the key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{section} must be a JSON object, not {type(doc).__name__}")
    for key in doc:
        if key not in names:
            raise ValueError(f"{section} has unknown field {key!r}")
    return doc


def load_fields(doc, hints: dict, what: str, part: Optional[str] = None,
                required=(), extra=()) -> dict:
    """The fields of the JSON object ``doc`` that ``hints`` types, each through
    :func:`_check_value`.  ``what`` names the document and ``part`` the section
    of it that ``doc`` is.  A key outside ``hints`` and ``extra`` (which the
    caller reads), or a missing or null ``required`` field, is refused."""
    section = what if part is None else f"{what} {part}"
    check_keys(doc, section, {*hints, *extra})
    for key in required:
        if key not in doc:
            raise ValueError(f"{section} is missing field {key!r}")
    return {key: _check_value(value, _present(hints[key]) if key in required else hints[key],
                              what, key if part is None else f"{part}.{key}")
            for key, value in doc.items() if key in hints}


@functools.cache
def type_hints(owner) -> MappingProxyType:
    """``typing.get_type_hints(owner)``, resolved once per class or function."""
    return MappingProxyType(get_type_hints(owner))


def from_fields(cls, doc, what: str, part: Optional[str] = None):
    return cls(**load_fields(doc, type_hints(cls), what, part))


def check_fields(obj, what: str) -> None:
    """Refuse a field of the dataclass ``obj`` that does not fit its annotation."""
    hints = type_hints(type(obj))
    for f in fields(obj):
        if not _fits(value := getattr(obj, f.name), hints[f.name]):
            raise ValueError(f"{what} {f.name} must be {_kind(hints[f.name])}, got {value!r}")


def _check_value(value, hint, what: str, path: str):
    """A loaded JSON value once it fits the annotation ``hint``, else a
    ValueError naming the field at ``path`` of document ``what``.  A list
    becomes a tuple, but stays a list for a list annotation and becomes a
    :func:`load_array` for an ndarray one (``np.ndarray`` holds finite
    numbers, ``BoolArray`` booleans); an object becomes the dataclass its
    annotation names."""
    name, inner = f"{what} {path}", _present(hint) if value is not None else hint
    if is_dataclass(inner) and not isinstance(value, inner):
        return from_fields(inner, value, what, path)
    if (get_origin(inner) or inner) is np.ndarray:
        dtype = get_args(get_args(inner)[1])[0] if get_origin(inner) else np.float64
        return load_array(value, name, (None,), dtype)
    if (get_origin(inner) or inner) is list:
        if not isinstance(value, list):
            raise ValueError(f"{name} must be {_kind(hint)}, got {value!r}")
        args = get_args(inner)
        return [_check_value(v, args[0], what, f"{path}[{k}]") for k, v in enumerate(value)] \
            if args else value
    value = tuple(value) if isinstance(value, list) else value
    if not _fits(value, hint):
        raise ValueError(f"{name} must be {_kind(hint)}, got {value!r}")
    return value


def _present(hint):
    """``X`` for ``Optional[X]``; any other annotation as it is."""
    options = [a for a in get_args(hint) if a is not type(None)]
    return options[0] if get_origin(hint) is Union and len(options) == 1 else hint


def _kind(hint) -> str:
    return hint.__name__ if isinstance(hint, type) else str(hint).replace("typing.", "")


def _fits(value, hint) -> bool:
    """Whether a value fits a field annotation: an int is not a bool, a float
    may be an int, and a tuple annotation wants a tuple."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[...]
        return any(_fits(value, option) for option in args)
    if origin is tuple:
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:
            return all(_fits(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_fits, value, args))
    if origin is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(_fits(k, args[0]) and _fits(v, args[1])
                                               for k, v in value.items())
    if hint is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, hint)


def load_array(value, name: str, shape: tuple, dtype=np.float64, basis: str = "") -> np.ndarray:
    """Nested JSON lists as a new array of ``shape`` (None: any length) and
    ``dtype``, float64 from finite numbers or bool from booleans; otherwise a
    ValueError naming ``name`` and the first bad entry.  ``basis`` says where
    ``shape`` comes from.  Entry types are compared in one vectorised pass."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, got {value!r}")
    entries = np.array(value, dtype=object)
    if entries.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, entries.shape)):
        expected = str(tuple("n" if n is None else n for n in shape)).replace("'", "")
        raise ValueError(f"{name} has shape {entries.shape}, expected {expected}{basis}")
    kinds = _TYPE_OF(entries)
    bad = kinds != bool if dtype is np.bool_ else (kinds != float) & (kinds != int)
    if not bad.any():
        try:
            out = entries.astype(dtype)
        except OverflowError:  # an integer past the float64 range
            out = np.full(entries.shape, np.inf)
        bad = bad if dtype is np.bool_ else ~np.isfinite(out)
        if not bad.any():
            return out
    at = tuple(np.argwhere(bad)[0].tolist())
    kind = "boolean" if dtype is np.bool_ else "finite" if _fits(entries[at], float) else "numeric"
    raise ValueError(f"{name} is not {kind}: entry {list(at)} is {entries[at]!r}")


def load_arrays(arrays: dict[str, np.ndarray], doc: dict, what: str, basis: str = "") -> None:
    """Write ``doc[name]`` into each of ``arrays`` in place (:func:`load_array`);
    ``what`` names the checkpoint."""
    for name in arrays:
        if name not in doc:
            raise ValueError(f"{what} is missing parameter {name!r}")
    for name, arr in arrays.items():
        arr[...] = load_array(doc[name], f"{what} parameter {name!r}", arr.shape, basis=basis)
