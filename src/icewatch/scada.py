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

`ScadaRecord` is the row type of raw streams: the CSV reader and writer,
the synthetic generator and deployment-time prediction. A labeled
dataset is columnar (`LabeledDataset`): one array per column, built once
by `apply_label_windows` or `read_labeled_csv`.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

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
class ScadaRecord:
    """One timestamped SCADA observation. `time` is epoch seconds."""

    time: int
    wind_speed: float
    generator_speed: float
    power: float
    wind_direction: float
    wind_direction_mean: float
    yaw_position: float
    yaw_speed: float
    pitch1_angle: float
    pitch2_angle: float
    pitch3_angle: float
    pitch1_speed: float
    pitch2_speed: float
    pitch3_speed: float
    pitch1_moto_tmp: float
    pitch2_moto_tmp: float
    pitch3_moto_tmp: float
    acc_x: float
    acc_y: float
    environment_tmp: float
    int_tmp: float
    pitch1_ng5_tmp: float
    pitch2_ng5_tmp: float
    pitch3_ng5_tmp: float
    pitch1_ng5_DC: float
    pitch2_ng5_DC: float
    pitch3_ng5_DC: float
    group: int


assert tuple(f.name for f in fields(ScadaRecord)) == COLUMNS


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
class LabeledDataset:
    """Labeled records of one turbine, one array per column: `time`
    int64[n] (epoch seconds), `channels` float64[n, 26] in CHANNELS order,
    `group` int64[n], and `label` int8[n] holding codes into LABELS.

    Datasets built from a raw stream (apply_label_windows, read_labeled_csv)
    are in file order; ingest requires it to be ascending in time.
    """

    turbine_id: str
    time: np.ndarray
    channels: np.ndarray
    group: np.ndarray
    label: np.ndarray

    def require_time_order(self) -> "LabeledDataset":
        decreasing = np.flatnonzero(np.diff(self.time) < 0)
        if decreasing.size:
            raise DataError(f"record times decrease at index {int(decreasing[0]) + 1}")
        return self

    def __len__(self) -> int:
        return self.label.shape[0]

    def take(self, rows) -> "LabeledDataset":
        """The dataset restricted to `rows` (a boolean mask, an index array
        or a slice), in that order."""
        return LabeledDataset(self.turbine_id, self.time[rows], self.channels[rows], self.group[rows], self.label[rows])

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
    """A text stream over `source`; a path is opened here and closed on exit."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as stream:
            yield stream
    elif isinstance(source, io.TextIOBase):
        yield source
    else:  # binary stream
        yield io.TextIOWrapper(source, encoding="utf-8", newline="")


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


def _scada_rows(source, extra: tuple[str, ...], what: str) -> Iterator[tuple[int, int, list[float], int, list[str]]]:
    """The row loop shared by the raw and labeled readers: yield the row
    number, the time, the 26 channel values, the group and the cells of
    the `extra` columns of every non-blank data row."""
    with _open_source(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            raise EmptyFile(what)
        positions = _check_header(header, COLUMNS + extra)
        time_i = positions["time"]
        group_i = positions["group"]
        channel_pos = [(name, positions[name]) for name in CHANNELS]
        extra_pos = [positions[name] for name in extra]
        time_parser = None
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) < len(header):
                raise ShortRow(row_no, len(row), len(header))
            if time_parser is None:
                time_parser = _detect_time_parser(row[time_i])
            time = time_parser(row[time_i], row_no)
            values = [_parse_float(row[i], row_no, name) for name, i in channel_pos]
            yield row_no, time, values, _parse_group(row[group_i], row_no), [row[i] for i in extra_pos]


def parse_scada_csv(source, turbine_id: str = "") -> list[ScadaRecord]:
    """Parse a raw SCADA CSV into records, preserving file order.

    `source` may be a path or an open text/binary stream. The header must
    contain exactly the 28 expected column names, in any order. Raises
    MissingColumn, UnexpectedColumn, ShortRow, NonNumericCell,
    UnparseableTimestamp, or EmptyFile.
    """
    what = f"SCADA file for {turbine_id or 'turbine'}"
    records = [ScadaRecord(time, *values, group) for _, time, values, group, _ in _scada_rows(source, (), what)]
    if not records:
        raise EmptyFile(what)
    return records


def _write_rows(sink, extra: tuple[str, ...], rows: Iterable[tuple]) -> None:
    """The row writer shared by the raw and labeled writers. Each row is
    (time, channel values, group, *extra cells); the values must be Python
    floats, whose repr is the shortest round-tripping form."""
    with open_sink(sink) as stream:
        writer = csv.writer(stream)
        writer.writerow(COLUMNS + extra)
        for time, values, group, *cells in rows:
            writer.writerow([time, *map(repr, values), group, *cells])


_channel_values = attrgetter(*CHANNELS)


def write_scada_csv(records: Iterable[ScadaRecord], sink) -> None:
    """Write records in canonical column order. Floats use repr, so a
    write/parse round trip is bitwise exact; time is written as epoch
    seconds."""
    _write_rows(sink, (), ((r.time, _channel_values(r), r.group) for r in records))


def parse_label_windows_csv(source) -> list[LabelWindow]:
    """Parse a window file with columns start,end,class."""
    with _open_source(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            raise EmptyFile("window file")
        positions = _check_header(header, ("start", "end", "class"))
        windows: list[LabelWindow] = []
        time_parser = None
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) < len(header):
                raise ShortRow(row_no, len(row), len(header))
            if time_parser is None:
                time_parser = _detect_time_parser(row[positions["start"]])
            kind_cell = row[positions["class"]].strip()
            try:
                kind = WindowKind(kind_cell)
            except ValueError:
                raise NonNumericCell(row_no, "class", kind_cell) from None
            windows.append(
                LabelWindow(
                    start=time_parser(row[positions["start"]], row_no),
                    end=time_parser(row[positions["end"]], row_no),
                    kind=kind,
                )
            )
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
    records: Sequence[ScadaRecord],
    windows: Sequence[LabelWindow],
    turbine_id: str = "",
) -> LabeledDataset:
    """Label each record by window membership (start <= t < end).

    Records inside an icing window become abnormal, inside a normal window
    become normal, and anything uncovered is invalid. Windows must be
    pairwise non-overlapping across both classes; the result is therefore
    independent of window order.
    """
    _check_disjoint(windows)
    time = np.fromiter((r.time for r in records), dtype=np.int64, count=len(records))
    label = np.full(time.shape[0], INVALID_CODE, dtype=np.int8)
    if windows:
        ordered = sorted(windows, key=lambda w: w.start)
        starts = np.array([w.start for w in ordered], dtype=np.int64)
        ends = np.array([w.end for w in ordered], dtype=np.int64)
        kinds = [Label.ABNORMAL if w.kind is WindowKind.ICING else Label.NORMAL for w in ordered]
        codes = np.array([LABELS.index(kind) for kind in kinds], dtype=np.int8)
        i = np.searchsorted(starts, time, side="right") - 1
        inside = (i >= 0) & (time < ends[i])
        label[inside] = codes[i[inside]]
    group = np.fromiter((r.group for r in records), dtype=np.int64, count=len(records))
    return LabeledDataset(turbine_id, time, channel_matrix(records), group, label)


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
    labels = (names[code] for code in dataset.label.tolist())
    rows = zip(dataset.time.tolist(), dataset.channels.tolist(), dataset.group.tolist(), labels)
    _write_rows(sink, ("label",), rows)


def read_labeled_csv(source, turbine_id: str = "") -> LabeledDataset:
    """Read a file written by write_labeled_csv."""
    times: list[int] = []
    rows: list[list[float]] = []
    groups: list[int] = []
    codes: list[int] = []
    for row_no, time, values, group, (label_cell,) in _scada_rows(source, ("label",), "labeled dataset file"):
        try:
            label = Label(label_cell.strip())
        except ValueError:
            raise NonNumericCell(row_no, "label", label_cell) from None
        times.append(time)
        rows.append(values)
        groups.append(group)
        codes.append(LABELS.index(label))
    return LabeledDataset(
        turbine_id,
        np.array(times, dtype=np.int64),
        np.array(rows, dtype=float).reshape(len(rows), len(CHANNELS)),
        np.array(groups, dtype=np.int64),
        np.array(codes, dtype=np.int8),
    )


def channel_matrix(records: Sequence[ScadaRecord], channels: Sequence[str] = CHANNELS) -> np.ndarray:
    """Extract the given channels as a float matrix of shape (n, len(channels))."""
    if not records:
        return np.empty((0, len(channels)))
    getter = attrgetter(*channels)
    if len(channels) == 1:
        return np.array([[getter(r)] for r in records], dtype=float)
    return np.array([getter(r) for r in records], dtype=float)
