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
is the preprocessing stage's job.

A raw stream is a `Frame`: one array per column, built once by the CSV
reader or the synthetic generator and written by the CSV writer. A
labeled dataset (`LabeledDataset`) is a Frame plus a turbine id and a
label column, built by `apply_label_windows` or `read_labeled_csv`.
`Frame.columns` names each column, so the feature formulas read a frame
the way they would read one record: `columns.wind_speed` is a column.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from enum import Enum
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DataError,
    EmptyFile,
    MissingColumn,
    NonNumericCell,
    OverlappingWindows,
    ShortRow,
    UnexpectedColumn,
    UnparseableTimestamp,
)

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


class WindowKind(Enum):
    ICING = "icing"
    NORMAL = "normal"


@dataclass(frozen=True, slots=True)
class LabelWindow:
    """Half-open time interval [start, end) carrying one class tag."""

    start: int
    end: int
    kind: WindowKind

    def __post_init__(self):
        if self.start >= self.end:
            raise DataError(f"window start {self.start} must precede end {self.end}")


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

    def require_time_order(self):
        """The frame itself, if its times never decrease (ingest requires it)."""
        decreasing = np.flatnonzero(np.diff(self.time) < 0)
        if decreasing.size:
            raise DataError(f"record times decrease at index {int(decreasing[0]) + 1}")
        return self


@dataclass(frozen=True, eq=False)
class LabeledDataset(Frame):
    """The labeled records of one turbine: a frame plus `label` int8[n],
    holding codes into LABELS."""

    turbine_id: str
    label: np.ndarray

    def label_counts(self) -> dict[Label, int]:
        counts = np.bincount(self.label, minlength=len(LABELS))
        return {label: int(counts[code]) for code, label in enumerate(LABELS)}


@dataclass(frozen=True)
class DatasetSummary:
    turbine_id: str
    n_normal: int
    n_abnormal: int
    n_invalid: int
    time_span: tuple[int, int] | None  # None for an empty dataset


@contextmanager
def _open_source(source) -> Iterator[IO[str]]:
    """A text stream over `source`; a path is opened here and closed on exit.
    A byte that is not UTF-8 raises a DataError naming the path."""
    try:
        if isinstance(source, (str, Path)):
            with open(source, "r", encoding="utf-8", newline="") as stream:
                yield stream
        elif isinstance(source, io.TextIOBase):
            yield source
        else:  # binary stream
            yield io.TextIOWrapper(source, encoding="utf-8", newline="")
    except UnicodeDecodeError as exc:
        name = source if isinstance(source, (str, Path)) else getattr(source, "name", "stream")
        raise DataError(f"{name}: {exc}") from None


@contextmanager
def open_sink(sink) -> Iterator[IO[str]]:
    """A text stream for writing to `sink`; a path is opened here and closed
    on exit, an open stream is used as is and left open."""
    if isinstance(sink, (str, Path)):
        with open(sink, "w", encoding="utf-8", newline="") as stream:
            yield stream
    else:
        yield sink


def _parse_iso_timestamp(cell: str, row: int) -> int:
    try:
        dt = datetime.fromisoformat(cell.strip())
    except ValueError:
        raise UnparseableTimestamp(row, cell) from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


_INT64 = range(-(2**63), 2**63)


def _parse_epoch_timestamp(cell: str, row: int) -> int:
    try:
        value = int(cell.strip())
    except ValueError:
        raise UnparseableTimestamp(row, cell) from None
    if value not in _INT64:
        raise UnparseableTimestamp(row, cell)
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
        raise NonNumericCell(row, column, cell) from None
    if not math.isfinite(value):
        raise NonNumericCell(row, column, cell)
    return value


def _parse_group(cell: str, row: int) -> int:
    try:
        value = int(cell)
    except ValueError:
        number = _parse_float(cell, row, "group")
        if number != int(number):
            raise NonNumericCell(row, "group", cell) from None
        value = int(number)
    if value not in _INT64:
        raise NonNumericCell(row, "group", cell)
    return value


def _check_header(header: Sequence[str], expected: Sequence[str]) -> dict[str, int]:
    names = [h.strip() for h in header]
    positions: dict[str, int] = {}
    for i, name in enumerate(names):
        if name not in expected:
            raise UnexpectedColumn(name)
        if name in positions:
            raise UnexpectedColumn(f"{name} (duplicated)")
        positions[name] = i
    for name in expected:
        if name not in positions:
            raise MissingColumn(name)
    return positions


def _csv_rows(source, expected: tuple[str, ...], what: str) -> Iterator[tuple[int, tuple[str, ...], Callable]]:
    """The row loop of every CSV reader: check the header against
    `expected`, skip blank rows and reject short ones. Yield the row number,
    the cells in `expected` order, and the time parser detected from the
    first data row's first expected column."""
    with _open_source(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            raise EmptyFile(what)
        positions = _check_header(header, expected)
        ordered = itemgetter(*(positions[name] for name in expected))
        time_parser = None
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) < len(header):
                raise ShortRow(row_no, len(row), len(header))
            cells = ordered(row)
            if time_parser is None:
                time_parser = _detect_time_parser(cells[0])
            yield row_no, cells, time_parser


def _parse_label(cell: str, row: int) -> int:
    try:
        return LABELS.index(Label(cell.strip()))
    except ValueError:
        raise NonNumericCell(row, "label", cell) from None


def _read_frame(source, what: str, labeled: bool) -> tuple[Frame, np.ndarray]:
    """The reader of raw and labeled CSVs: the frame and, for a labeled
    file, its int8 label codes (empty for a raw one)."""
    group_at = 1 + len(CHANNELS)
    times: list[int] = []
    rows: list[list[float]] = []
    groups: list[int] = []
    codes: list[int] = []
    for row_no, cells, parse_time in _csv_rows(source, COLUMNS + (("label",) if labeled else ()), what):
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


def parse_scada_csv(source, turbine_id: str = "") -> Frame:
    """Parse a raw SCADA CSV into a frame, preserving file order.

    `source` may be a path or an open text/binary stream. The header must
    contain exactly the 28 expected column names, in any order. Raises
    MissingColumn, UnexpectedColumn, ShortRow, NonNumericCell,
    UnparseableTimestamp, or EmptyFile.
    """
    what = f"SCADA file for {turbine_id or 'turbine'}"
    frame, _ = _read_frame(source, what, labeled=False)
    if not len(frame):
        raise EmptyFile(what)
    return frame


def _write_rows(sink, frame: Frame, extra: dict[str, list]) -> None:
    """The writer of raw and labeled CSVs: the frame's rows followed by the
    cells of the `extra` columns. Floats are written as the repr of Python
    floats, the shortest round-tripping form, so a write/parse round trip
    is bitwise exact; time is written as epoch seconds."""
    with open_sink(sink) as stream:
        writer = csv.writer(stream)
        writer.writerow(COLUMNS + tuple(extra))
        rows = zip(frame.time.tolist(), frame.channels.tolist(), frame.group.tolist(), *extra.values())
        for time, values, group, *cells in rows:
            writer.writerow([time, *map(repr, values), group, *cells])


def write_scada_csv(frame: Frame, sink) -> None:
    """Write a frame as a raw SCADA CSV in canonical column order."""
    _write_rows(sink, frame, {})


def parse_label_windows_csv(source) -> list[LabelWindow]:
    """Parse a window file with columns start,end,class."""
    windows: list[LabelWindow] = []
    for row_no, (start, end, kind_cell), parse_time in _csv_rows(source, ("start", "end", "class"), "window file"):
        try:
            kind = WindowKind(kind_cell.strip())
        except ValueError:
            raise NonNumericCell(row_no, "class", kind_cell.strip()) from None
        windows.append(LabelWindow(start=parse_time(start, row_no), end=parse_time(end, row_no), kind=kind))
    return windows


def write_label_windows_csv(windows: Iterable[LabelWindow], sink) -> None:
    with open_sink(sink) as stream:
        writer = csv.writer(stream)
        writer.writerow(("start", "end", "class"))
        for w in windows:
            writer.writerow((w.start, w.end, w.kind.value))


def _check_disjoint(windows: Sequence[LabelWindow]) -> None:
    order = sorted(range(len(windows)), key=lambda i: windows[i].start)
    for a, b in zip(order, order[1:]):
        # half-open intervals: touching windows do not overlap
        if windows[a].end > windows[b].start:
            raise OverlappingWindows(a, b)


def apply_label_windows(
    frame: Frame,
    windows: Sequence[LabelWindow],
    turbine_id: str = "",
) -> LabeledDataset:
    """Label each record of `frame` by window membership (start <= t < end).

    Records inside an icing window become abnormal, inside a normal window
    become normal, and anything uncovered is invalid. Windows must be
    pairwise non-overlapping across both classes; the result is therefore
    independent of window order. The dataset shares the frame's arrays.
    """
    _check_disjoint(windows)
    label = np.full(len(frame), INVALID_CODE, dtype=np.int8)
    if windows:
        ordered = sorted(windows, key=lambda w: w.start)
        starts = np.array([w.start for w in ordered], dtype=np.int64)
        ends = np.array([w.end for w in ordered], dtype=np.int64)
        kinds = [Label.ABNORMAL if w.kind is WindowKind.ICING else Label.NORMAL for w in ordered]
        codes = np.array([LABELS.index(kind) for kind in kinds], dtype=np.int8)
        i = np.searchsorted(starts, frame.time, side="right") - 1
        inside = (i >= 0) & (frame.time < ends[i])
        label[inside] = codes[i[inside]]
    return LabeledDataset(frame.time, frame.channels, frame.group, turbine_id, label)


def summarize(dataset: LabeledDataset) -> DatasetSummary:
    """Per-class counts and the covered time span."""
    counts = dataset.label_counts()
    span = None
    if len(dataset) > 0:
        span = (int(dataset.time[0]), int(dataset.time[-1]))
    return DatasetSummary(
        turbine_id=dataset.turbine_id,
        n_normal=counts[Label.NORMAL],
        n_abnormal=counts[Label.ABNORMAL],
        n_invalid=counts[Label.INVALID],
        time_span=span,
    )


def write_labeled_csv(dataset: LabeledDataset, sink) -> None:
    """Internal labeled-dataset file: the 28 SCADA columns plus `label`."""
    names = [label.value for label in LABELS]
    _write_rows(sink, dataset, {"label": [names[code] for code in dataset.label.tolist()]})


def read_labeled_csv(source, turbine_id: str = "") -> LabeledDataset:
    """Read a file written by write_labeled_csv."""
    frame, label = _read_frame(source, "labeled dataset file", labeled=True)
    return LabeledDataset(frame.time, frame.channels, frame.group, turbine_id, label)
