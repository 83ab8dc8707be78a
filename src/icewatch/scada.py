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
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from enum import Enum
from operator import attrgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

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


@dataclass(frozen=True, slots=True)
class LabeledRecord:
    record: ScadaRecord
    label: Label


@dataclass(frozen=True)
class LabeledDataset:
    """Labeled records of one turbine.

    Datasets built from a raw stream (apply_label_windows, read_labeled_csv,
    the synthetic generator) are in ascending time order; class-balanced
    datasets are in seeded-random order, since balancing discards the stream
    structure anyway.
    """

    turbine_id: str
    records: tuple[LabeledRecord, ...]

    def require_time_order(self) -> "LabeledDataset":
        times = [lr.record.time for lr in self.records]
        for i in range(1, len(times)):
            if times[i] < times[i - 1]:
                raise DataError(f"record times decrease at index {i}")
        return self

    def __len__(self) -> int:
        return len(self.records)

    def label_counts(self) -> dict[Label, int]:
        counts = {label: 0 for label in Label}
        for lr in self.records:
            counts[lr.label] += 1
        return counts


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


def _parse_epoch_timestamp(cell: str, row: int) -> int:
    try:
        return int(cell.strip())
    except ValueError:
        raise UnparseableTimestamp(row, cell) from None


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
        return int(cell)
    except ValueError:
        pass
    value = _parse_float(cell, row, "group")
    if value != int(value):
        raise NonNumericCell(row, "group", cell)
    return int(value)


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


def _scada_rows(source, extra: tuple[str, ...], what: str) -> Iterator[tuple[int, ScadaRecord, list[str]]]:
    """The row loop shared by the raw and labeled readers: yield the row
    number, the record, and the cells of the `extra` columns of every
    non-blank data row."""
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
            values = [_parse_float(row[i], row_no, name) for name, i in channel_pos]
            record = ScadaRecord(time_parser(row[time_i], row_no), *values, _parse_group(row[group_i], row_no))
            yield row_no, record, [row[i] for i in extra_pos]


def parse_scada_csv(source, turbine_id: str = "") -> list[ScadaRecord]:
    """Parse a raw SCADA CSV into records, preserving file order.

    `source` may be a path or an open text/binary stream. The header must
    contain exactly the 28 expected column names, in any order. Raises
    MissingColumn, UnexpectedColumn, ShortRow, NonNumericCell,
    UnparseableTimestamp, or EmptyFile.
    """
    what = f"SCADA file for {turbine_id or 'turbine'}"
    records = [record for _, record, _ in _scada_rows(source, (), what)]
    if not records:
        raise EmptyFile(what)
    return records


def _write_rows(sink, extra: tuple[str, ...], rows: Iterable[tuple[ScadaRecord, list]]) -> None:
    """The row writer shared by the raw and labeled writers: each record's
    28 columns followed by the cells of the `extra` columns."""
    with open_sink(sink) as stream:
        writer = csv.writer(stream)
        writer.writerow(COLUMNS + extra)
        for r, cells in rows:
            writer.writerow([r.time] + [repr(getattr(r, c)) for c in CHANNELS] + [r.group] + cells)


def write_scada_csv(records: Iterable[ScadaRecord], sink) -> None:
    """Write records in canonical column order. Floats use repr, so a
    write/parse round trip is bitwise exact; time is written as epoch
    seconds."""
    _write_rows(sink, (), ((r, []) for r in records))


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
    ordered = sorted(windows, key=lambda w: w.start)
    starts = [w.start for w in ordered]

    def classify(t: int) -> Label:
        i = bisect_right(starts, t) - 1
        if i >= 0 and t < ordered[i].end:
            return Label.ABNORMAL if ordered[i].kind is WindowKind.ICING else Label.NORMAL
        return Label.INVALID

    labeled = tuple(LabeledRecord(r, classify(r.time)) for r in records)
    return LabeledDataset(turbine_id=turbine_id, records=labeled)


def summarize(dataset: LabeledDataset) -> DatasetSummary:
    """Per-class counts and the covered time span."""
    counts = dataset.label_counts()
    span = None
    if len(dataset) > 0:
        span = (dataset.records[0].record.time, dataset.records[-1].record.time)
    return DatasetSummary(
        turbine_id=dataset.turbine_id,
        n_normal=counts[Label.NORMAL],
        n_abnormal=counts[Label.ABNORMAL],
        n_invalid=counts[Label.INVALID],
        time_span=span,
    )


def write_labeled_csv(dataset: LabeledDataset, sink) -> None:
    """Internal labeled-dataset file: the 28 SCADA columns plus `label`."""
    _write_rows(sink, ("label",), ((lr.record, [lr.label.value]) for lr in dataset.records))


def read_labeled_csv(source, turbine_id: str = "") -> LabeledDataset:
    """Read a file written by write_labeled_csv."""
    labeled: list[LabeledRecord] = []
    for row_no, record, (label_cell,) in _scada_rows(source, ("label",), "labeled dataset file"):
        try:
            label = Label(label_cell.strip())
        except ValueError:
            raise NonNumericCell(row_no, "label", label_cell) from None
        labeled.append(LabeledRecord(record, label))
    return LabeledDataset(turbine_id=turbine_id, records=tuple(labeled))


def channel_matrix(records: Sequence[ScadaRecord], channels: Sequence[str] = CHANNELS):
    """Extract the given channels as a float matrix of shape (n, len(channels))."""
    import numpy as np

    if not records:
        return np.empty((0, len(channels)))
    getter = attrgetter(*channels)
    if len(channels) == 1:
        return np.array([[getter(r)] for r in records], dtype=float)
    return np.array([getter(r) for r in records], dtype=float)

