"""Feature engineering for icing prediction.

Two groups of derived quantities are computed per record:

* statistical / domain features: per-blade averages (pitch angle, pitch
  speed, pitch motor temperature, charger temperature, charger current)
  and the inside-outside temperature difference
  tmp_diff = int_tmp - environment_tmp.

* physics-derived features, on channels offset by +5 because the
  desensitized data can sit at or below zero:

      torque           = (power + 5) / (generator_speed + 5)
      power_coeff      = (power + 5) / (wind_speed + 5)^3
      thrust_coeff     = torque / (wind_speed + 5)^2
      tip_speed_ratio  = (generator_speed + 5) / (wind_speed + 5)

The prediction model uses a fixed ten-feature vector, addressed by the
ids x1..x10 (see FEATURE_IDS). power_coeff and thrust_coeff are computed
and exportable but are not part of that vector.

The formulas are written once, over a record's channel attributes.
engineer_record evaluates them on one ScadaRecord; dataset_features
evaluates the same expressions on whole channel columns of a
LabeledDataset, which gives bitwise the same values because every
operation is elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .errors import DegenerateDenominator, InvalidLabel, SingleClassDataset
from .scada import CHANNELS, INVALID_CODE, LABELS, Label, LabeledDataset, ScadaRecord, open_sink

# Inputs must exceed -5 by this margin for the offset denominators.
DENOMINATOR_MARGIN = 1e-6

OFFSET = 5.0

_DENOMINATOR_FLOOR = -OFFSET + DENOMINATOR_MARGIN


@dataclass(frozen=True, slots=True)
class EngineeredRecord:
    """A source record plus every derived feature."""

    source: ScadaRecord
    pitch_angle_avg: float
    pitch_speed_avg: float
    pitch_moto_tmp_avg: float
    pitch_ng5_tmp_avg: float
    pitch_ng5_dc_avg: float
    tmp_diff: float
    torque: float
    power_coeff: float
    thrust_coeff: float
    tip_speed_ratio: float


@dataclass(frozen=True, slots=True)
class FeatureVector:
    """The ten selected model inputs plus the class label.

    Field order matches the x1..x10 ids used by rules and CSV export.
    """

    pitch1_moto_tmp: float  # x1
    pitch2_moto_tmp: float  # x2
    pitch3_moto_tmp: float  # x3
    wind_speed: float  # x4
    environment_tmp: float  # x5
    tmp_diff: float  # x6
    power: float  # x7
    tip_speed_ratio: float  # x8
    torque: float  # x9
    pitch_angle_avg: float  # x10
    label: Label

    def as_array(self) -> np.ndarray:
        return np.array(_feature_values(self), dtype=float)


FEATURE_IDS = ("x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "x10")

FEATURE_FIELDS = {
    "x1": "pitch1_moto_tmp",
    "x2": "pitch2_moto_tmp",
    "x3": "pitch3_moto_tmp",
    "x4": "wind_speed",
    "x5": "environment_tmp",
    "x6": "tmp_diff",
    "x7": "power",
    "x8": "tip_speed_ratio",
    "x9": "torque",
    "x10": "pitch_angle_avg",
}

assert tuple(FEATURE_FIELDS.values()) == tuple(f.name for f in fields(FeatureVector))[: len(FEATURE_IDS)]

# the ten feature values of a FeatureVector, in FEATURE_IDS order
_feature_values = attrgetter(*FEATURE_FIELDS.values())

LABEL_CODES = {Label.NORMAL: 0, Label.ABNORMAL: 1}


def feature_value(fv: FeatureVector, feature_id: str) -> float:
    return getattr(fv, FEATURE_FIELDS[feature_id])


def statistical_features(record: ScadaRecord) -> dict[str, float]:
    """Per-blade averages and the inside-outside temperature difference.

    `record` may also carry one array per channel attribute; every value
    is then an array (see dataset_features)."""
    return {
        "pitch_angle_avg": (record.pitch1_angle + record.pitch2_angle + record.pitch3_angle) / 3.0,
        "pitch_speed_avg": (record.pitch1_speed + record.pitch2_speed + record.pitch3_speed) / 3.0,
        "pitch_moto_tmp_avg": (record.pitch1_moto_tmp + record.pitch2_moto_tmp + record.pitch3_moto_tmp) / 3.0,
        "pitch_ng5_tmp_avg": (record.pitch1_ng5_tmp + record.pitch2_ng5_tmp + record.pitch3_ng5_tmp) / 3.0,
        "pitch_ng5_dc_avg": (record.pitch1_ng5_DC + record.pitch2_ng5_DC + record.pitch3_ng5_DC) / 3.0,
        "tmp_diff": record.int_tmp - record.environment_tmp,
    }


def _check_denominators(wind_speed: float, generator_speed: float) -> None:
    if wind_speed <= _DENOMINATOR_FLOOR:
        raise DegenerateDenominator("wind_speed", wind_speed)
    if generator_speed <= _DENOMINATOR_FLOOR:
        raise DegenerateDenominator("generator_speed", generator_speed)


def physical_features(record: ScadaRecord) -> dict[str, float]:
    """Torque, power coefficient, thrust coefficient, and tip-speed ratio.

    Raises DegenerateDenominator when wind_speed or generator_speed sits
    within DENOMINATOR_MARGIN of -5.
    """
    _check_denominators(record.wind_speed, record.generator_speed)
    return _physics(record)


def _physics(record) -> dict[str, float]:
    """physical_features without the guard; like statistical_features it
    also evaluates channel columns."""
    wind = record.wind_speed + OFFSET
    gen = record.generator_speed + OFFSET
    power = record.power + OFFSET
    torque = power / gen
    return {
        "torque": torque,
        "power_coeff": power / wind**3,
        "thrust_coeff": torque / wind**2,
        "tip_speed_ratio": gen / wind,
    }


def engineer_record(record: ScadaRecord) -> EngineeredRecord:
    return EngineeredRecord(source=record, **statistical_features(record), **physical_features(record))


def assemble_feature_vector(engineered: EngineeredRecord, label: Label) -> FeatureVector:
    if label not in (Label.NORMAL, Label.ABNORMAL):
        raise InvalidLabel(label)
    src = engineered.source
    return FeatureVector(
        pitch1_moto_tmp=src.pitch1_moto_tmp,
        pitch2_moto_tmp=src.pitch2_moto_tmp,
        pitch3_moto_tmp=src.pitch3_moto_tmp,
        wind_speed=src.wind_speed,
        environment_tmp=src.environment_tmp,
        tmp_diff=engineered.tmp_diff,
        power=src.power,
        tip_speed_ratio=engineered.tip_speed_ratio,
        torque=engineered.torque,
        pitch_angle_avg=engineered.pitch_angle_avg,
        label=label,
    )


def dataset_features(dataset: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) of an invalid-free dataset: X is float64[n, 10] in FEATURE_IDS
    order, y the labels coded 0=normal, 1=abnormal.

    Row i is bitwise equal to assemble_feature_vector(engineer_record(r_i),
    label_i).as_array(), and a bad dataset raises what that per-record path
    raises first: DegenerateDenominator for a degenerate row (wind_speed
    checked before generator_speed) or InvalidLabel for an invalid one,
    whichever row comes first.
    """
    columns = SimpleNamespace(**dict(zip(CHANNELS, dataset.channels.T)))
    n = len(dataset)
    degenerate = np.flatnonzero(
        (columns.wind_speed <= _DENOMINATOR_FLOOR) | (columns.generator_speed <= _DENOMINATOR_FLOOR)
    )
    invalid = np.flatnonzero(dataset.label == INVALID_CODE)
    first_degenerate = int(degenerate[0]) if degenerate.size else n
    first_invalid = int(invalid[0]) if invalid.size else n
    if first_degenerate < n and first_degenerate <= first_invalid:
        i = first_degenerate
        _check_denominators(float(columns.wind_speed[i]), float(columns.generator_speed[i]))
    if first_invalid < n:
        raise InvalidLabel(Label.INVALID)
    values = {**vars(columns), **statistical_features(columns), **_physics(columns)}
    return np.column_stack([values[FEATURE_FIELDS[fid]] for fid in FEATURE_IDS]), dataset.label


def feature_vectors(dataset: LabeledDataset) -> list[FeatureVector]:
    """Engineer every record of an invalid-free dataset."""
    X, y = dataset_features(dataset)
    return [FeatureVector(*row, LABELS[code]) for row, code in zip(X.tolist(), y.tolist())]


def feature_matrix(vectors: Sequence[FeatureVector]) -> tuple[np.ndarray, np.ndarray]:
    """Stack vectors into (X, y) with y coded 0=normal, 1=abnormal."""
    if not vectors:
        return np.empty((0, len(FEATURE_IDS))), np.empty(0, dtype=np.int8)
    X = np.array([_feature_values(fv) for fv in vectors], dtype=float)
    y = np.array([LABEL_CODES[fv.label] for fv in vectors], dtype=np.int8)
    return X, y


def fisher_score(values: np.ndarray, is_abnormal: np.ndarray) -> float:
    """(mean difference)^2 over the summed per-class population variances;
    zero when both classes have zero variance."""
    normal = values[~is_abnormal]
    abnormal = values[is_abnormal]
    pooled = float(np.var(normal)) + float(np.var(abnormal))
    if pooled == 0.0:
        return 0.0
    diff = float(np.mean(normal)) - float(np.mean(abnormal))
    return diff * diff / pooled


def rank_features(X: np.ndarray, y: np.ndarray) -> list[tuple[str, float]]:
    """Rank the ten model features of a feature matrix (y coded 0/1) by
    Fisher score, descending; ties break by name."""
    if X.shape[0] == 0 or len(set(y.tolist())) < 2:
        raise SingleClassDataset()
    is_abnormal = y.astype(bool)

    scored: list[tuple[str, float]] = []
    for j, fid in enumerate(FEATURE_IDS):
        scored.append((fid, fisher_score(X[:, j], is_abnormal)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def write_feature_csv(X: np.ndarray, y: np.ndarray, sink) -> None:
    """Export a feature matrix as CSV with header x1..x10,y and y coded
    0=normal, 1=abnormal. Values are written as the repr of Python floats."""
    with open_sink(sink) as stream:
        stream.write(",".join(FEATURE_IDS + ("y",)) + "\n")
        for row, code in zip(X.tolist(), y.tolist()):
            stream.write(",".join([*map(repr, row), str(code)]) + "\n")
