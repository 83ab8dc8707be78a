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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateDenominator, InvalidLabel, SingleClassDataset
from .scada import Label, LabeledDataset, ScadaRecord, open_sink

# Inputs must exceed -5 by this margin for the offset denominators.
DENOMINATOR_MARGIN = 1e-6

OFFSET = 5.0


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
        return np.array(
            (
                self.pitch1_moto_tmp,
                self.pitch2_moto_tmp,
                self.pitch3_moto_tmp,
                self.wind_speed,
                self.environment_tmp,
                self.tmp_diff,
                self.power,
                self.tip_speed_ratio,
                self.torque,
                self.pitch_angle_avg,
            ),
            dtype=float,
        )


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

LABEL_CODES = {Label.NORMAL: 0, Label.ABNORMAL: 1}


def feature_value(fv: FeatureVector, feature_id: str) -> float:
    return getattr(fv, FEATURE_FIELDS[feature_id])


def statistical_features(record: ScadaRecord) -> dict[str, float]:
    """Per-blade averages and the inside-outside temperature difference."""
    return {
        "pitch_angle_avg": (record.pitch1_angle + record.pitch2_angle + record.pitch3_angle) / 3.0,
        "pitch_speed_avg": (record.pitch1_speed + record.pitch2_speed + record.pitch3_speed) / 3.0,
        "pitch_moto_tmp_avg": (record.pitch1_moto_tmp + record.pitch2_moto_tmp + record.pitch3_moto_tmp) / 3.0,
        "pitch_ng5_tmp_avg": (record.pitch1_ng5_tmp + record.pitch2_ng5_tmp + record.pitch3_ng5_tmp) / 3.0,
        "pitch_ng5_dc_avg": (record.pitch1_ng5_DC + record.pitch2_ng5_DC + record.pitch3_ng5_DC) / 3.0,
        "tmp_diff": record.int_tmp - record.environment_tmp,
    }


def physical_features(record: ScadaRecord) -> dict[str, float]:
    """Torque, power coefficient, thrust coefficient, and tip-speed ratio.

    Raises DegenerateDenominator when wind_speed or generator_speed sits
    within DENOMINATOR_MARGIN of -5.
    """
    if record.wind_speed <= -OFFSET + DENOMINATOR_MARGIN:
        raise DegenerateDenominator("wind_speed", record.wind_speed)
    if record.generator_speed <= -OFFSET + DENOMINATOR_MARGIN:
        raise DegenerateDenominator("generator_speed", record.generator_speed)
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


def feature_vectors(dataset: LabeledDataset) -> list[FeatureVector]:
    """Engineer every record of an invalid-free dataset."""
    return [
        assemble_feature_vector(engineer_record(lr.record), lr.label)
        for lr in dataset.records
    ]


def feature_matrix(vectors: Sequence[FeatureVector]) -> tuple[np.ndarray, np.ndarray]:
    """Stack vectors into (X, y) with y coded 0=normal, 1=abnormal."""
    if not vectors:
        return np.empty((0, len(FEATURE_IDS))), np.empty(0, dtype=np.int8)
    X = np.stack([fv.as_array() for fv in vectors])
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


def rank_features(vectors: Sequence[FeatureVector]) -> list[tuple[str, float]]:
    """Rank the ten model features by Fisher score, descending; ties break
    by name."""
    X, y = feature_matrix(vectors)
    if X.shape[0] == 0 or len(set(y.tolist())) < 2:
        raise SingleClassDataset()
    is_abnormal = y.astype(bool)

    scored: list[tuple[str, float]] = []
    for j, fid in enumerate(FEATURE_IDS):
        scored.append((fid, fisher_score(X[:, j], is_abnormal)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def write_feature_csv(vectors: Sequence[FeatureVector], sink) -> None:
    """Export as CSV with header x1..x10,y and y coded 0=normal, 1=abnormal."""
    with open_sink(sink) as stream:
        stream.write(",".join(FEATURE_IDS + ("y",)) + "\n")
        for fv in vectors:
            cells = [repr(float(feature_value(fv, fid))) for fid in FEATURE_IDS]
            cells.append(str(LABEL_CODES[fv.label]))
            stream.write(",".join(cells) + "\n")
