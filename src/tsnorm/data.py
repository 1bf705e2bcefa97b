"""Containers and IO for labeled multivariate time series.

The data model is deliberately small: a dense ``(N, d, T)`` float64 array of
N series with d features observed at T timesteps, an integer label per
series, and an optional per-series weight vector.  Everything downstream
(normalization layers, the training stack, the synthetic generator) passes
these batches around.  Building a :class:`TimeSeriesBatch` scans its values
for NaN/Inf and freezes a private copy unless it is handed an array that is
already read-only and C-contiguous.  Callers that build a fresh array for a
batch (a minibatch, a row subset, EDAIN's output) freeze it themselves, so
such a batch costs the scan but no second copy.

The CSV codec works ``LOAD_CHUNK`` rows at a time, so its temporaries stay
small: :func:`load_csv` parses plain chunks with numpy's C text parser and
hands the rest of a file to the ``csv`` module, and :func:`save_csv`
formats a column at a time.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

BINARY = "binary"
TERNARY = "ternary"

_CLASS_COUNT = {BINARY: 2, TERNARY: 3}

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

    def series(self, i: int) -> np.ndarray:
        """The (d, T) matrix of series ``i``."""
        return self.values[i]

    def feature(self, k: int) -> np.ndarray:
        """All observations of feature ``k`` as an (N, T) matrix."""
        return self.values[:, k, :]

    def pooled(self, k: int) -> np.ndarray:
        """Feature ``k`` pooled over series and timesteps (length N*T)."""
        return self.values[:, k, :].reshape(-1)


@dataclass(eq=False)
class LabeledDataset:
    """A batch plus one integer label per series and optional weights."""

    batch: TimeSeriesBatch
    labels: np.ndarray
    label_kind: str = BINARY
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape != (self.batch.n,):
            raise ValueError(
                f"labels shape {labels.shape} does not match batch of {self.batch.n} series"
            )
        if self.label_kind not in _CLASS_COUNT:
            raise ValueError(f"unknown label kind {self.label_kind!r}")
        n_classes = _CLASS_COUNT[self.label_kind]
        if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
            raise ValueError(f"labels out of range for {self.label_kind} task")
        self.labels = labels
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (self.batch.n,):
                raise ValueError("weights length does not match series count")
            if np.any(w < 0):
                raise ValueError("weights must be nonnegative")
            if abs(w.sum() - 1.0) > 1e-9:
                raise ValueError("weights must sum to 1")
            self.weights = w

    @property
    def n(self) -> int:
        return self.batch.n

    @property
    def n_classes(self) -> int:
        return _CLASS_COUNT[self.label_kind]

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        """Row subset; weights are renormalized to keep the sum-to-one invariant."""
        indices = np.asarray(indices, dtype=np.int64)
        w = None
        if self.weights is not None:
            w = self.weights[indices]
            total = w.sum()
            w = w / total if total > 0 else np.full(len(indices), 1.0 / max(len(indices), 1))
        values = self.batch.values[indices]  # a fresh array: frozen, not copied again
        values.flags.writeable = False
        return LabeledDataset(
            TimeSeriesBatch(values),
            self.labels[indices],
            self.label_kind,
            w,
        )


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
    kind = TERNARY if labels.max() > 1 else BINARY
    values = np.take(feats, order, axis=1).reshape(d, n, t).transpose(1, 0, 2)
    return LabeledDataset(TimeSeriesBatch(values), labels, kind)


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


def minibatch_indices(
    n: int, batch_size: int, generator: np.random.Generator, shuffle: bool = True
) -> Iterator[np.ndarray]:
    """Yield index arrays covering 0..n-1 exactly once; last batch may be short."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = generator.permutation(n) if shuffle else np.arange(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]
