from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from icewatch.features import FeatureVector
from icewatch.scada import CHANNELS, LABELS, Label, LabeledDataset, ScadaRecord, channel_matrix


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


def dataset_of(records, labels, turbine_id="T") -> LabeledDataset:
    """A columnar dataset holding `records` with the given Label per record."""
    return LabeledDataset(
        turbine_id,
        np.array([r.time for r in records], dtype=np.int64),
        channel_matrix(records),
        np.array([r.group for r in records], dtype=np.int64),
        np.array([LABELS.index(label) for label in labels], dtype=np.int8),
    )


def dataset_records(dataset: LabeledDataset) -> list[ScadaRecord]:
    """The dataset's rows as records."""
    rows = zip(dataset.time.tolist(), dataset.channels.tolist(), dataset.group.tolist())
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
