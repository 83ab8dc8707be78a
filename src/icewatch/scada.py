"""SCADA data model, CSV ingestion, and label-window application.

A raw SCADA export is a CSV with a header of exactly 28 columns: a
timestamp, 26 continuous sensor channels, and an integer `group` id.
Channel values are desensitized by the data provider (an undisclosed
per-channel affine map), so magnitudes and even signs carry no physical
units. Timestamps are either ISO-8601 strings or integer epoch seconds;
the format is auto-detected from the first data row and normalized to
integer epoch seconds internally.

Class labels come from a separate window file (columns start,end,class
with class in {icing, normal}). Window membership is half-open
[start, end): a record at exactly `end` is outside. Records covered by
no window are labeled invalid and retained at this layer; dropping them
is the preprocessing stage's job. In memory a set of windows is one
structured array of WINDOW_DTYPE: per window its `start` and `end` in
epoch seconds and, as `kind`, the label code it gives its records
(abnormal for icing, normal for normal).

A raw stream is a `Frame`: one array per column, built once by the CSV
reader or the synthetic generator and written by the CSV writer. A
labeled dataset (`LabeledDataset`) is a Frame plus a turbine id and a
label column, built by `apply_label_windows` or `read_labeled_csv`.
`Frame.columns` names each column, so the feature formulas read a frame
the way they would read one record: `columns.wind_speed` is a column.

This module owns the file format. Every reader and writer takes a path.
A raw or labeled file is read by one reader, `_read`, which also enforces
the format's file-level rules: at least one data row, and record times
that never decrease. Every CSV the package writes, here and in
`features`, is formatted by one writer, `write_csv_rows`.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from enum import Enum
from itertools import chain
from operator import itemgetter
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError

# The 26 continuous channels, in canonical export order.
CHANNELS = (
    "wind_speed",
    "generator_speed",
    "power",
    "wind_direction",
    "wind_direction_mean",
    "yaw_position",
    "yaw_speed",
    "pitch1_angle",
    "pitch2_angle",
    "pitch3_angle",
    "pitch1_speed",
    "pitch2_speed",
    "pitch3_speed",
    "pitch1_moto_tmp",
    "pitch2_moto_tmp",
    "pitch3_moto_tmp",
    "acc_x",
    "acc_y",
    "environment_tmp",
    "int_tmp",
    "pitch1_ng5_tmp",
    "pitch2_ng5_tmp",
    "pitch3_ng5_tmp",
    "pitch1_ng5_DC",
    "pitch2_ng5_DC",
    "pitch3_ng5_DC",
)

COLUMNS = ("time",) + CHANNELS + ("group",)


class Label(Enum):
    NORMAL = "normal"
    ABNORMAL = "abnormal"
    INVALID = "invalid"


# LabeledDataset.label holds code i for LABELS[i]; 0 and 1 are also the
# normal/abnormal class codes of the feature matrices and the learners
LABELS = (Label.NORMAL, Label.ABNORMAL, Label.INVALID)
INVALID_CODE = LABELS.index(Label.INVALID)
_LABEL_NAMES = np.array([label.value for label in LABELS])


# label windows: [start, end) in epoch seconds and the label code of the
# records inside; a window file's class names, indexed by that code
WINDOW_DTYPE = np.dtype([("start", np.int64), ("end", np.int64), ("kind", np.int8)])
_CLASS_NAMES = ("normal", "icing")


@dataclass(frozen=True, eq=False)
class Frame:
    """A raw SCADA stream, one array per column: `time` int64[n] (epoch
    seconds), `channels` float64[n, 26] in CHANNELS order and C order, and
    `group` int64[n]. Frames read from a file are in file order."""

    time: np.ndarray
    channels: np.ndarray
    group: np.ndarray

    def __len__(self) -> int:
        return self.time.shape[0]

    def columns(self) -> SimpleNamespace:
        """One attribute per name in COLUMNS: `time`, a view of each
        channel's column, and `group`."""
        return SimpleNamespace(time=self.time, **dict(zip(CHANNELS, self.channels.T)), group=self.group)

    def take(self, rows):
        """The same frame restricted to `rows` (a boolean mask, an index
        array or a slice) in every array column, in that order."""
        columns = {f.name: getattr(self, f.name) for f in fields(self)}
        return replace(self, **{name: v[rows] for name, v in columns.items() if isinstance(v, np.ndarray)})


@dataclass(frozen=True, eq=False)
class LabeledDataset(Frame):
    """The labeled records of one turbine: a frame plus `label` int8[n],
    holding codes into LABELS."""

    turbine_id: str
    label: np.ndarray

    def label_counts(self) -> dict[Label, int]:
        counts = np.bincount(self.label, minlength=len(LABELS))
        return {label: int(counts[code]) for code, label in enumerate(LABELS)}


# the messages that several readers raise, each built here once


def _bad_timestamp(row: int, cell: str) -> DataError:
    return DataError(f"row {row}: cannot parse timestamp {cell!r}")


def _not_a_number(row: int, column: str, cell: str) -> DataError:
    return DataError(f"row {row}, column {column!r}: not a finite number: {cell!r}")


def _not_one_of(row: int, column: str, cell: str, names: Iterable[str]) -> DataError:
    allowed = ", ".join(map(repr, names))
    return DataError(f"row {row}, column {column!r}: expected one of {allowed}, got {cell!r}")


def _no_rows(what: str) -> DataError:
    return DataError(f"{what} contains no data rows")


def _parse_iso_timestamp(cell: str, row: int) -> int:
    try:
        dt = datetime.fromisoformat(cell.strip())
    except ValueError:
        raise _bad_timestamp(row, cell) from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


_INT64 = range(-(2**63), 2**63)


def _parse_epoch_timestamp(cell: str, row: int) -> int:
    try:
        value = int(cell.strip())
    except ValueError:
        raise _bad_timestamp(row, cell) from None
    if value not in _INT64:
        raise _bad_timestamp(row, cell)
    return value


def _detect_time_parser(first_cell: str):
    try:
        int(first_cell.strip())
        return _parse_epoch_timestamp
    except ValueError:
        return _parse_iso_timestamp


def _parse_float(cell: str, row: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise _not_a_number(row, column, cell)
    return value


def _parse_group(cell: str, row: int) -> int:
    try:
        value = int(cell)
    except ValueError:
        number = _parse_float(cell, row, "group")
        if number != int(number):
            raise _not_a_number(row, "group", cell) from None
        value = int(number)
    if value not in _INT64:
        raise _not_a_number(row, "group", cell)
    return value


def _check_header(header: Sequence[str], expected: Sequence[str]) -> dict[str, int]:
    names = [h.strip() for h in header]
    positions: dict[str, int] = {}
    for i, name in enumerate(names):
        if name in positions:
            name += " (duplicated)"  # never an expected name, so it raises below
        if name not in expected:
            raise DataError(f"unexpected column in header: {name!r}")
        positions[name] = i
    for name in expected:
        if name not in positions:
            raise DataError(f"missing required column: {name!r}")
    return positions


def _csv_rows(path, expected: tuple[str, ...], what: str) -> Iterator[tuple[int, tuple[str, ...], Callable]]:
    """The row loop of every CSV reader: check the header against
    `expected`, skip blank rows and reject a row of more or fewer cells
    than the header. Yield the row number, the cells in `expected` order,
    and the time parser detected from the first data row's first expected
    column. A byte that is not UTF-8 raises a DataError naming the path."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as stream:
            reader = csv.reader(stream)
            header = next(reader, None)
            if header is None:
                raise _no_rows(what)
            positions = _check_header(header, expected)
            ordered = itemgetter(*(positions[name] for name in expected))
            time_parser = None
            for row_no, row in enumerate(reader, start=1):
                if not row:
                    continue
                if len(row) != len(header):
                    raise DataError(f"row {row_no}: {len(row)} cells, header has {len(header)}")
                cells = ordered(row)
                if time_parser is None:
                    time_parser = _detect_time_parser(cells[0])
                yield row_no, cells, time_parser
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None


def _parse_label(cell: str, row: int) -> int:
    try:
        return LABELS.index(Label(cell.strip()))
    except ValueError:
        raise _not_one_of(row, "label", cell, _LABEL_NAMES.tolist()) from None


def _read_frame(path, what: str, labeled: bool) -> tuple[Frame, np.ndarray]:
    """The row reader of raw and labeled CSVs: the frame and, for a labeled
    file, its int8 label codes (empty for a raw one). It checks each cell,
    names the row and column of the first bad one, and is the reference
    that the np.loadtxt pass must match."""
    group_at = 1 + len(CHANNELS)
    times: list[int] = []
    rows: list[list[float]] = []
    groups: list[int] = []
    codes: list[int] = []
    for row_no, cells, parse_time in _csv_rows(path, COLUMNS + (("label",) if labeled else ()), what):
        times.append(parse_time(cells[0], row_no))
        rows.append([_parse_float(cell, row_no, name) for name, cell in zip(CHANNELS, cells[1:group_at])])
        groups.append(_parse_group(cells[group_at], row_no))
        if labeled:
            codes.append(_parse_label(cells[group_at + 1], row_no))
    frame = Frame(
        np.array(times, dtype=np.int64),
        np.array(rows, dtype=float).reshape(len(rows), len(CHANNELS)),
        np.array(groups, dtype=np.int64),
    )
    return frame, np.array(codes, dtype=np.int8)


# np.loadtxt silently cuts a cell to its string field's width; one character
# wider than the longest label name, the field cuts no cell down to a name
_LABEL_FIELD = f"U{max(len(label.value) for label in LABELS) + 1}"


def _loadtxt_frame(path, labeled: bool) -> tuple[Frame, np.ndarray] | None:
    """What _read_frame returns for the CSV at `path`, from one np.loadtxt
    pass, or None if that pass fails or warns, a channel is not finite or
    a label cell is not exactly one of the LABELS names.

    The header must name the expected columns in any order; the rows must
    be plain integer epoch times and groups and plain float channels, with
    exactly one cell per column. np.loadtxt parses a float cell to the
    bits float() gives and accepts no cell that the row reader rejects, so
    a file it reads gives the row reader's frame and codes."""
    expected = COLUMNS + (("label",) if labeled else ())
    try:
        with open(path, encoding="utf-8") as stream, warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a file without data rows
            names = [name.strip() for name in stream.readline().split(",")]
            if sorted(names) != sorted(expected):
                return None
            types = {"time": np.int64, "group": np.int64, "label": _LABEL_FIELD}
            dtype = [(name, types.get(name, float)) for name in names]
            table = np.loadtxt(stream, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    channels = np.stack([table[name] for name in CHANNELS], axis=1)
    if not np.isfinite(channels).all():
        return None
    codes = np.empty(0, dtype=np.int8)
    if labeled:
        codes = np.full(len(table), -1, dtype=np.int8)
        for code, label in enumerate(LABELS):
            codes[table["label"] == label.value] = code
        if (codes < 0).any():
            return None
    return Frame(np.ascontiguousarray(table["time"]), channels, np.ascontiguousarray(table["group"])), codes


def _read(path, what: str, labeled: bool) -> tuple[Frame, np.ndarray]:
    """The reader of raw and labeled CSVs, with the frame and label codes
    of _read_frame. The np.loadtxt pass reads a plain file; any other file
    goes through the row reader. A file without data rows, or whose record
    times decrease, raises a DataError."""
    frame, codes = _loadtxt_frame(path, labeled) or _read_frame(path, what, labeled)
    if not len(frame):
        raise _no_rows(what)
    decreasing = np.flatnonzero(frame.time[1:] < frame.time[:-1])  # np.diff of int64 times can wrap
    if decreasing.size:
        raise DataError(f"record times decrease at index {int(decreasing[0]) + 1}")
    return frame, codes


def parse_scada_csv(path, turbine_id: str = "") -> Frame:
    """Parse the raw SCADA CSV at `path` into a frame, preserving file order.

    The header must contain exactly the 28 expected column names, in any
    order. Raises DataError for a missing, unexpected or repeated column, a
    row of more or fewer cells than the header, a cell that is not a finite
    number, an unparseable timestamp, a file without data rows, or record
    times that decrease.
    """
    frame, _ = _read(path, f"SCADA file for {turbine_id or 'turbine'}", labeled=False)
    return frame


# the rows write_csv_rows formats at once: on 2 vCPUs the write time of an
# 8,000-row raw file is flat from 256 to 4,096 rows, and the chunk's cells
# are the memory the writer holds beyond its arrays
_CHUNK_ROWS = 1024


def write_csv_rows(
    path, header: Sequence[str], columns: Sequence[np.ndarray], formats: Sequence[str], newline: str = "\r\n"
) -> None:
    """The writer of every CSV: the `header` line, then one row per index
    of the equal-length 1-D arrays `columns`, each cell formatted by its
    column's %-format ("%d", "%r" or "%s"), and each line ended by `newline`.

    Rows are formatted a chunk at a time from Python ints, floats and strs,
    so "%r" writes a float as float.__repr__, its shortest round-tripping
    form. Cells are never quoted: no header name or cell may hold a comma,
    a quote or a line break. Beyond the arrays themselves, the writer holds
    one chunk of cells."""
    row = ",".join(formats) + newline
    with open(path, "w", encoding="utf-8", newline="") as stream:
        stream.write(",".join(header) + newline)
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = [column[start : start + _CHUNK_ROWS].tolist() for column in columns]
            stream.write((row * len(chunk[0])) % tuple(chain.from_iterable(zip(*chunk))))


_FRAME_FORMATS = ("%d",) + ("%r",) * len(CHANNELS) + ("%d",)


def _frame_columns(frame: Frame) -> list[np.ndarray]:
    return [frame.time, *frame.channels.T, frame.group]


def write_scada_csv(frame: Frame, path) -> None:
    """Write a frame as a raw SCADA CSV in canonical column order: time as
    epoch seconds and channels as float reprs, so a write/parse round trip
    is bitwise exact."""
    write_csv_rows(path, COLUMNS, _frame_columns(frame), _FRAME_FORMATS)


def parse_label_windows_csv(path) -> np.ndarray:
    """The windows of the file at `path`, with columns start,end,class, as a
    WINDOW_DTYPE array in file order. A class other than icing or normal,
    or a start that is not before its end, raises at its row."""
    rows = []
    for row_no, (start, end, class_cell), parse_time in _csv_rows(path, ("start", "end", "class"), "window file"):
        try:
            code = _CLASS_NAMES.index(class_cell.strip())
        except ValueError:
            raise _not_one_of(row_no, "class", class_cell, sorted(_CLASS_NAMES)) from None
        start, end = parse_time(start, row_no), parse_time(end, row_no)
        if start >= end:
            raise DataError(f"window start {start} must precede end {end}")
        rows.append((start, end, code))
    return np.array(rows, dtype=WINDOW_DTYPE)


def write_label_windows_csv(windows: np.ndarray, path) -> None:
    columns = [windows["start"], windows["end"], np.array(_CLASS_NAMES)[windows["kind"]]]
    write_csv_rows(path, ("start", "end", "class"), columns, ("%d", "%d", "%s"))


def apply_label_windows(frame: Frame, windows: np.ndarray, turbine_id: str = "") -> LabeledDataset:
    """Label each record of `frame` by window membership (start <= t < end):
    a record inside a window takes the window's kind, and a record in no
    window is invalid. `windows` is a WINDOW_DTYPE array whose windows each
    start before they end and, in any order, pairwise do not overlap, so
    the result is independent of window order. The dataset shares the
    frame's arrays."""
    order = np.argsort(windows["start"], kind="stable")
    ordered = windows[order]
    # half-open intervals: touching windows do not overlap
    overlaps = np.flatnonzero(ordered["end"][:-1] > ordered["start"][1:])
    if overlaps.size:
        a, b = order[overlaps[0] : overlaps[0] + 2].tolist()
        raise DataError(f"label windows {a} and {b} overlap")
    label = np.full(len(frame), INVALID_CODE, dtype=np.int8)
    if len(ordered):
        i = np.searchsorted(ordered["start"], frame.time, side="right") - 1
        inside = (i >= 0) & (frame.time < ordered["end"][i])
        label[inside] = ordered["kind"][i[inside]]
    return LabeledDataset(frame.time, frame.channels, frame.group, turbine_id, label)


def write_labeled_csv(dataset: LabeledDataset, path) -> None:
    """Internal labeled-dataset file: the 28 SCADA columns plus `label`."""
    columns = _frame_columns(dataset) + [_LABEL_NAMES[dataset.label]]
    write_csv_rows(path, COLUMNS + ("label",), columns, _FRAME_FORMATS + ("%s",))


def write_predicted_labels_csv(time: np.ndarray, label: np.ndarray, flagged: np.ndarray, path) -> None:
    """The labels file of `predict`: per record its time, the name of its
    label code and its confidence flag as 0 or 1."""
    columns = [time, _LABEL_NAMES[label], flagged]
    write_csv_rows(path, ("time", "label", "confidence_flag"), columns, ("%d", "%s", "%d"))


def read_labeled_csv(path, turbine_id: str = "") -> LabeledDataset:
    """Read the labeled dataset file at `path`, as write_labeled_csv
    writes it; raises DataError as parse_scada_csv does, and for a label
    that is not one of the LABELS names."""
    frame, label = _read(path, "labeled dataset file", labeled=True)
    return LabeledDataset(frame.time, frame.channels, frame.group, turbine_id, label)
