from __future__ import annotations

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

from icewatch.errors import DegenerateDenominator, InvalidLabel
from icewatch.features import DENOMINATOR_MARGIN, FEATURE_FIELDS, OFFSET, physical_features, statistical_features
from icewatch.rules import AUTO_NORMAL, HIGH, LOW
from icewatch.scada import CHANNELS, COLUMNS, LABELS, Frame, Label, LabeledDataset

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


def channel_matrix(records, channels=CHANNELS) -> np.ndarray:
    """The given channels of `records` as a float matrix of shape
    (n, len(channels)): the per-record reference for frame columns."""
    rows = [[getattr(r, ch) for ch in channels] for r in records]
    return np.array(rows, dtype=float).reshape(len(records), len(channels))


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
    """Every derived feature of one record; DegenerateDenominator when
    wind_speed, then generator_speed, sits within the margin of -5."""
    for channel in ("wind_speed", "generator_speed"):
        value = getattr(record, channel)
        if value <= -OFFSET + DENOMINATOR_MARGIN:
            raise DegenerateDenominator(channel, value)
    return {**statistical_features(record), **physical_features(record)}


def assemble_per_record(record, engineered: dict, label: Label) -> FeatureVector:
    if label not in (Label.NORMAL, Label.ABNORMAL):
        raise InvalidLabel(label)
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


def gate_per_record(fv: FeatureVector, rule, cfg) -> int:
    """The route code of one vector: outside the rule auto-normal, else low
    below the threshold and high at or above it (or at NaN)."""
    if not rule_satisfied(rule, fv):
        return AUTO_NORMAL
    return LOW if fv.wind_speed < cfg.threshold else HIGH


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
