from __future__ import annotations

import csv
import importlib.util
import sys
from collections import namedtuple
from pathlib import Path

# First, so the tests run as the CLI does: importing icewatch.cli pins BLAS
# to one thread per process before numpy loads, and in-process experiments
# fork their seeded runs.
import icewatch.cli  # noqa: F401

import numpy as np
import pytest
from hypothesis import settings

from icewatch.errors import DataError
from icewatch.features import DENOMINATOR_MARGIN, FEATURE_FIELDS, FEATURE_IDS, OFFSET, physical_features, statistical_features
from icewatch.rules import AUTO_NORMAL, HIGH, LOW
from icewatch.scada import CHANNELS, COLUMNS, LABELS, WINDOW_DTYPE, Frame, Label, LabeledDataset

# A derandomized Hypothesis test draws some of its examples from the constants
# in the source of every local module loaded in the session
# (hypothesis.internal.constants_ast), so its file run alone may draw other
# examples than the full run. A failure prints its choices as an
# @reproduce_failure(...) line, which replays them from the test's own file.
settings.register_profile("icewatch", print_blob=True)
settings.load_profile("icewatch")

# One record of a frame, and one feature vector (x1..x10 by name, then its
# label): the per-record views the tests build and compare.
ScadaRecord = namedtuple("ScadaRecord", COLUMNS)
FeatureVector = namedtuple("FeatureVector", (*FEATURE_FIELDS.values(), "label"))


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name: str):
    """Import perfbench/<name>.py, which is a script directory, not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def make_record(time: int = 0, group: int = 1, **channels) -> ScadaRecord:
    values = {ch: 0.0 for ch in CHANNELS}
    values.update(channels)
    return ScadaRecord(time=time, group=group, **values)


def make_fv(label: Label = Label.NORMAL, **fields) -> FeatureVector:
    values = dict(
        pitch1_moto_tmp=0.0,
        pitch2_moto_tmp=0.0,
        pitch3_moto_tmp=0.0,
        wind_speed=0.0,
        environment_tmp=0.0,
        tmp_diff=0.0,
        power=0.0,
        tip_speed_ratio=1.0,
        torque=1.0,
        pitch_angle_avg=0.0,
    )
    values.update(fields)
    return FeatureVector(label=label, **values)


def channel_matrix(records) -> np.ndarray:
    """The channels of `records` as a float matrix of shape (n, 26): the
    per-record reference for frame columns."""
    rows = [[getattr(r, ch) for ch in CHANNELS] for r in records]
    return np.array(rows, dtype=float).reshape(len(records), len(CHANNELS))


def frame_of(records) -> Frame:
    """The frame holding `records`, in order."""
    return Frame(
        np.array([r.time for r in records], dtype=np.int64),
        channel_matrix(records),
        np.array([r.group for r in records], dtype=np.int64),
    )


def dataset_of(records, labels, turbine_id="T") -> LabeledDataset:
    """A labeled dataset holding `records` with the given Label per record."""
    frame = frame_of(records)
    codes = np.array([LABELS.index(label) for label in labels], dtype=np.int8)
    return LabeledDataset(frame.time, frame.channels, frame.group, turbine_id, codes)


def dataset_records(frame: Frame) -> list[ScadaRecord]:
    """The rows of a frame or labeled dataset as records."""
    rows = zip(frame.time.tolist(), frame.channels.tolist(), frame.group.tolist())
    return [ScadaRecord(time, *values, group) for time, values, group in rows]


def dataset_labels(dataset: LabeledDataset) -> list[Label]:
    return [LABELS[code] for code in dataset.label.tolist()]


# the kind of an icing and of a normal label window: its records' label code
ICING, NORMAL = LABELS.index(Label.ABNORMAL), LABELS.index(Label.NORMAL)


def windows_of(*windows) -> np.ndarray:
    """The label windows (start, end, kind), in order, as one array."""
    return np.array(list(windows), dtype=WINDOW_DTYPE)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays hold the same dtype, shape and bytes: the equality
    of arrays, which == compares element-wise."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def make_dataset(labels, turbine_id="T", start_time=0, dt=7) -> LabeledDataset:
    records = [make_record(time=start_time + i * dt) for i in range(len(labels))]
    return dataset_of(records, labels, turbine_id)


def random_record(rng: np.random.Generator, time: int = 0) -> ScadaRecord:
    channels = {ch: float(rng.uniform(-4.0, 10.0)) for ch in CHANNELS}
    return make_record(time=time, group=int(rng.integers(1, 5)), **channels)


def fv_matrix(vectors) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) of feature vectors: X float64[n, 10] in FEATURE_IDS order and
    y the label codes, 0=normal, 1=abnormal."""
    X = np.array([fv[: len(FEATURE_FIELDS)] for fv in vectors], dtype=float).reshape(len(vectors), len(FEATURE_FIELDS))
    y = np.array([LABELS.index(fv.label) for fv in vectors], dtype=np.int8)
    return X, y


# --- the per-record reference path ---------------------------------------------
# The feature and routing code as it ran one record at a time, before it
# moved to matrices; the parity tests compare the array path with it.


def engineer_per_record(record) -> dict:
    """Every derived feature of one record; a DataError when wind_speed,
    then generator_speed, sits within the margin of -5."""
    for channel in ("wind_speed", "generator_speed"):
        value = getattr(record, channel)
        if value <= -OFFSET + DENOMINATOR_MARGIN:
            raise DataError(f"{channel}={value!r} too close to -5; offset denominator degenerate")
    return {**statistical_features(record), **physical_features(record)}


def assemble_per_record(record, engineered: dict, label: Label) -> FeatureVector:
    if label not in (Label.NORMAL, Label.ABNORMAL):
        raise DataError(f"label {label!r} not allowed here (expected normal or abnormal)")
    values = {**record._asdict(), **engineered}
    return FeatureVector(*(values[name] for name in FEATURE_FIELDS.values()), label)


def holds(c, value: float) -> bool:
    """IntervalConstraint's test of one value: it tests failure, so a NaN
    value passes."""
    if c.lower_inclusive:
        if value < c.lower:
            return False
    elif value <= c.lower:
        return False
    if c.upper_inclusive:
        if value > c.upper:
            return False
    elif value >= c.upper:
        return False
    return True


def rule_satisfied(rule, fv: FeatureVector) -> bool:
    return all(holds(c, getattr(fv, FEATURE_FIELDS[c.feature])) for c in rule.constraints)


def gate_per_record(fv: FeatureVector, rule, threshold: float) -> int:
    """The route code of one vector: outside the rule auto-normal, else low
    below the threshold and high at or above it (or at NaN)."""
    if not rule_satisfied(rule, fv):
        return AUTO_NORMAL
    return LOW if fv.wind_speed < threshold else HIGH


# --- the csv.writer reference of the CSV writers ------------------------------------
# Each file as csv.writer wrote it before the writers shared one chunked
# formatter: one writerow per record, floats as their repr.


def _csv_writer_file(path, header, rows, lineterminator="\r\n") -> None:
    with open(path, "w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(rows)


def reference_frame_csv(frame: Frame, path) -> None:
    """write_scada_csv's file, or for a LabeledDataset write_labeled_csv's."""
    rows = zip(frame.time.tolist(), frame.channels.tolist(), frame.group.tolist())
    rows = [[time, *map(repr, values), group] for time, values, group in rows]
    header = COLUMNS
    if isinstance(frame, LabeledDataset):
        header += ("label",)
        for row, code in zip(rows, frame.label.tolist()):
            row.append(LABELS[code].value)
    _csv_writer_file(path, header, rows)


def reference_feature_csv(X: np.ndarray, y: np.ndarray, path) -> None:
    rows = ([*map(repr, row), code] for row, code in zip(X.tolist(), y.tolist()))
    _csv_writer_file(path, FEATURE_IDS + ("y",), rows, lineterminator="\n")


def reference_predicted_labels_csv(time: np.ndarray, label: np.ndarray, flagged: np.ndarray, path) -> None:
    names = [LABELS[code].value for code in label.tolist()]
    _csv_writer_file(path, ("time", "label", "confidence_flag"), zip(time.tolist(), names, flagged.astype(int).tolist()))


def reference_windows_csv(windows: np.ndarray, path) -> None:
    rows = ((start, end, "icing" if kind == ICING else "normal") for start, end, kind in windows.tolist())
    _csv_writer_file(path, ("start", "end", "class"), rows)


def forbid_exact_knn(monkeypatch) -> list[int]:
    """Make the exact KNN tier raise on any call that scores a row, and
    return the list of row counts it was called with.

    A seeded run in a forked child that raises ends the child without its
    results; the parent then computes that share itself and raises in
    turn, so a row scored anywhere fails the caller."""
    from icewatch import learners

    scored: list[int] = []
    exact = learners._knn_exact_votes

    def spy(Q, *args):
        scored.append(Q.shape[0])
        if Q.shape[0]:
            raise AssertionError(f"the exact KNN tier scored {Q.shape[0]} rows")
        return exact(Q, *args)

    monkeypatch.setattr(learners, "_knn_exact_votes", spy)
    return scored


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
