"""Feature engineering for icing prediction.

Two groups of derived quantities are computed per record:

* statistical / domain features: the mean pitch angle of the three blades
  and the inside-outside temperature difference
  tmp_diff = int_tmp - environment_tmp.

* physics-derived features, on channels offset by +5 because the
  desensitized data can sit at or below zero:

      torque           = (power + 5) / (generator_speed + 5)
      tip_speed_ratio  = (generator_speed + 5) / (wind_speed + 5)

The prediction model uses a fixed ten-feature vector, addressed by the
ids x1..x10 (see FEATURE_IDS): these four and six raw channels.

The formulas are written once, over a record's channel attributes. An
attribute may hold one value or a whole column (`Frame.columns`); every
operation is elementwise, so a row of the column result is bitwise the
value computed on that row alone. engineer_record evaluates every derived
feature, assemble_feature_vector stacks the x1..x10 columns, and
degenerate_mask is the one denominator guard. feature_vectors applies
them to a dataset, and training, test gating and prediction all compute
their features this way.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .scada import INVALID_CODE, Label, LabeledDataset, write_csv_rows

# Inputs must exceed -5 by this margin for the offset denominators.
DENOMINATOR_MARGIN = 1e-6

OFFSET = 5.0

_DENOMINATOR_FLOOR = -OFFSET + DENOMINATOR_MARGIN

FEATURE_IDS = ("x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "x10")

# feature id -> the channel or engineered feature it reads
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


def statistical_features(record) -> dict:
    """The mean pitch angle and the inside-outside temperature difference of
    `record`, which has one attribute per channel: a value or a column."""
    return {
        "pitch_angle_avg": (record.pitch1_angle + record.pitch2_angle + record.pitch3_angle) / 3.0,
        "tmp_diff": record.int_tmp - record.environment_tmp,
    }


def physical_features(record) -> dict:
    """Torque and tip-speed ratio.

    Unguarded: where degenerate_mask holds, a denominator is (nearly) zero.
    """
    gen = record.generator_speed + OFFSET
    return {
        "torque": (record.power + OFFSET) / gen,
        "tip_speed_ratio": gen / (record.wind_speed + OFFSET),
    }


def engineer_record(record) -> dict:
    """Every derived feature of `record` (see statistical_features), unguarded."""
    return {**statistical_features(record), **physical_features(record)}


def assemble_feature_vector(record, engineered: dict) -> np.ndarray:
    """The model inputs x1..x10 of `record` and its engineered features:
    float64[n, 10] for columns of n rows, float64[1, 10] for one record."""
    values = [engineered[name] if name in engineered else getattr(record, name) for name in FEATURE_FIELDS.values()]
    return np.column_stack(values)


def degenerate_mask(record):
    """Where wind_speed or generator_speed sits within DENOMINATOR_MARGIN
    of -5, which makes an offset denominator degenerate."""
    return (record.wind_speed <= _DENOMINATOR_FLOOR) | (record.generator_speed <= _DENOMINATOR_FLOOR)


def feature_vectors(dataset: LabeledDataset) -> np.ndarray:
    """X float64[n, 10] of an invalid-free dataset, in FEATURE_IDS order.

    A bad dataset raises a DataError for its first bad row: a degenerate
    denominator if that row is degenerate (naming wind_speed before
    generator_speed), an invalid label otherwise.
    """
    columns = dataset.columns()
    bad = degenerate_mask(columns) | (dataset.label == INVALID_CODE)
    if bad.any():
        i = int(np.argmax(bad))
        for channel in ("wind_speed", "generator_speed"):
            value = float(getattr(columns, channel)[i])
            if value <= _DENOMINATOR_FLOOR:
                raise DataError(f"{channel}={value!r} too close to -5; offset denominator degenerate")
        raise DataError(f"label {Label.INVALID!r} not allowed here (expected normal or abnormal)")
    return assemble_feature_vector(columns, engineer_record(columns))


def feature_matrix(dataset: LabeledDataset, raw_features: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) of an invalid-free dataset: X is feature_vectors(dataset), or
    the 26 raw channels with `raw_features`, and y the label codes
    0=normal, 1=abnormal."""
    return (dataset.channels if raw_features else feature_vectors(dataset)), dataset.label


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
        raise DataError("dataset contains only one class")
    is_abnormal = y.astype(bool)

    scored: list[tuple[str, float]] = []
    for j, fid in enumerate(FEATURE_IDS):
        scored.append((fid, fisher_score(X[:, j], is_abnormal)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def write_feature_csv(X: np.ndarray, y: np.ndarray, path) -> None:
    """Export a feature matrix as CSV with header x1..x10,y and y coded
    0=normal, 1=abnormal, lines ended by "\\n". Values are written as the
    repr of Python floats."""
    formats = ("%r",) * len(FEATURE_IDS) + ("%d",)
    write_csv_rows(path, FEATURE_IDS + ("y",), [*X.T, y], formats, newline="\n")
