from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

# First, so the tests run as the CLI does: importing icewatch.cli pins BLAS
# to one thread per process before numpy loads, and in-process experiments
# fork their seeded runs.
import icewatch.cli  # noqa: F401

import numpy as np
import pytest

from icewatch.features import FeatureVector
from icewatch.scada import CHANNELS, LABELS, Frame, Label, LabeledDataset, ScadaRecord


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
