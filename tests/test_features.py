import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    FeatureVector,
    assemble_per_record,
    dataset_labels,
    dataset_of,
    dataset_records,
    engineer_per_record,
    fv_matrix,
    make_fv,
    make_record,
    random_record,
)
from icewatch.cli import main
from icewatch.errors import DataError
from icewatch.features import (
    FEATURE_FIELDS,
    FEATURE_IDS,
    assemble_feature_vector,
    degenerate_mask,
    engineer_record,
    feature_matrix,
    feature_vectors,
    fisher_score,
    physical_features,
    rank_features,
    statistical_features,
    write_feature_csv,
)
from icewatch.preprocess import DenoiseConfig, denoise_dataset, drop_invalid
from icewatch.scada import LABELS, Label, apply_label_windows, write_labeled_csv
from icewatch.synthgen import config_from_dict, make_turbine_pair, profile_from_dict

SMOKE = Path(__file__).resolve().parent.parent / "configs" / "experiment_smoke.json"


class TestStatistical:
    def test_equal_pitch_angles(self):
        r = make_record(pitch1_angle=2, pitch2_angle=2, pitch3_angle=2)
        assert statistical_features(r)["pitch_angle_avg"] == 2.0

    def test_mean_of_distinct_angles(self):
        r = make_record(pitch1_angle=1, pitch2_angle=2, pitch3_angle=3)
        assert statistical_features(r)["pitch_angle_avg"] == 2.0

    def test_zero_tmp_diff(self):
        r = make_record(int_tmp=3.5, environment_tmp=3.5)
        assert statistical_features(r)["tmp_diff"] == 0.0


class TestPhysical:
    def test_symmetric_numerator_denominator(self):
        out = physical_features(make_record(power=0, generator_speed=0))
        assert out["torque"] == 1.0

    def test_torque_hand_value(self):
        out = physical_features(make_record(power=10, generator_speed=5))
        assert out["torque"] == 1.5  # (10+5)/(5+5)

    def test_lambda_symmetry(self):
        out = physical_features(make_record(generator_speed=2.5, wind_speed=2.5))
        assert out["tip_speed_ratio"] == 1.0

    def test_denominator_guards(self):
        assert degenerate_mask(make_record(wind_speed=-5.0))
        assert degenerate_mask(make_record(wind_speed=-5 + 1e-7))
        assert degenerate_mask(make_record(generator_speed=-5.0))
        assert not degenerate_mask(make_record(wind_speed=-5 + 2e-6, generator_speed=-5 + 2e-6))

    def test_identities_on_random_records(self, rng):
        for i in range(200):
            r = random_record(rng, time=i)
            out = physical_features(r)
            lam, torque = out["tip_speed_ratio"], out["torque"]
            assert lam * (r.wind_speed + 5) == pytest.approx(r.generator_speed + 5, rel=1e-9)
            assert torque * (r.generator_speed + 5) == pytest.approx(r.power + 5, rel=1e-9)


def test_features_of_a_huge_wind_speed_overflow_nothing(tmp_path, capsys):
    """A finite but huge wind speed leaves every engineered value finite:
    `features` exits 0 with no warning, and the tip-speed ratio of the
    smoothed 1e119 is tiny but positive."""
    records = [make_record(time=i * 7, wind_speed=1e120 if i == 11 else 0.0) for i in range(12)]
    write_labeled_csv(dataset_of(records, [Label.NORMAL] * 12), tmp_path / "d.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["features", "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "f.csv")]) == 0
    assert capsys.readouterr().err == ""
    lines = (tmp_path / "f.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4  # the header and the three rows a 10-record window leaves
    assert 0.0 < float(lines[-1].split(",")[FEATURE_IDS.index("x8")]) < 1e-118


def _x(X, feature_id):
    """The column of feature `feature_id` in X."""
    return X[:, FEATURE_IDS.index(feature_id)]


class TestAssemble:
    def test_projection(self):
        r = make_record(wind_speed=0.7, power=1.25, pitch1_moto_tmp=-0.3)
        X = assemble_feature_vector(r, engineer_record(r))
        assert X.shape == (1, len(FEATURE_IDS))
        assert _x(X, "x4") == 0.7
        assert _x(X, "x7") == 1.25
        assert _x(X, "x1") == -0.3
        _, y = feature_matrix(dataset_of([r], [Label.NORMAL]))
        assert LABELS[y[0]] is Label.NORMAL

    def test_torque_projected(self):
        r = make_record(power=10, generator_speed=5)
        er = engineer_record(r)
        X = assemble_feature_vector(r, er)
        assert er["torque"] == 1.5
        assert _x(X, "x9") == 1.5

    def test_invalid_label_rejected(self):
        message = "label <Label.INVALID: 'invalid'> not allowed here (expected normal or abnormal)"
        with pytest.raises(DataError, match=re.escape(message)):
            feature_vectors(dataset_of([make_record()], [Label.INVALID]))

    def test_recomputation_closure(self, rng):
        for i in range(100):
            r = random_record(rng, time=i)
            er = engineer_record(r)
            stats = statistical_features(r)
            phys = physical_features(r)
            for name, value in {**stats, **phys}.items():
                assert er[name] == value


def _per_record(records, labels):
    """The reference path: engineer and assemble one record at a time."""
    return [assemble_per_record(r, engineer_per_record(r), label) for r, label in zip(records, labels)]


class TestDatasetFeatures:
    def test_smoke_turbine_bitwise_equal_to_per_record_path(self):
        pair = json.loads(SMOKE.read_text())["data"]["pair"]
        turbine_a, _ = make_turbine_pair(config_from_dict(pair["base"]), profile_from_dict(pair["profile"]))
        dataset = apply_label_windows(turbine_a.records, turbine_a.truth_windows, "A")
        prep = denoise_dataset(drop_invalid(dataset), DenoiseConfig())
        expected = _per_record(dataset_records(prep), dataset_labels(prep))
        X_ref = np.array([[getattr(fv, FEATURE_FIELDS[fid]) for fid in FEATURE_IDS] for fv in expected])
        y_ref = np.array([int(fv.label is Label.ABNORMAL) for fv in expected], dtype=np.int8)

        X, y = feature_matrix(prep)
        assert X.shape == (len(prep), len(FEATURE_IDS))
        assert X.tobytes() == X_ref.tobytes()
        assert y.tobytes() == y_ref.tobytes()
        vectors = [FeatureVector(*row, LABELS[code]) for row, code in zip(X.tolist(), y.tolist())]
        assert vectors == expected
        assert feature_vectors(prep).tobytes() == X_ref.tobytes()

    @pytest.mark.parametrize(
        "bad_rows, channel, value",
        [
            # the first offending row decides, even if a later row fails on wind
            ({1: dict(generator_speed=-5.0), 2: dict(wind_speed=-5.0)}, "generator_speed", -5.0),
            # within one row wind speed is checked first
            ({2: dict(wind_speed=-5 + 1e-7, generator_speed=-6.0)}, "wind_speed", -5 + 1e-7),
        ],
    )
    def test_degenerate_row_raises_like_per_record_path(self, bad_rows, channel, value):
        records = [make_record(time=i, **bad_rows.get(i, {})) for i in range(4)]
        labels = [Label.NORMAL] * 4
        with pytest.raises(DataError, match="too close to -5") as per_record:
            _per_record(records, labels)
        with pytest.raises(DataError, match="too close to -5") as columnar:
            feature_vectors(dataset_of(records, labels))
        assert str(columnar.value).startswith(f"{channel}=") and str(per_record.value).startswith(f"{channel}=")
        assert str(columnar.value) == str(per_record.value)
        assert repr(value) in str(columnar.value)

    def test_first_failing_row_decides_between_degenerate_and_invalid(self):
        N, I = Label.NORMAL, Label.INVALID
        records = [make_record(time=i, wind_speed=-5.0 if i == 1 else 0.0) for i in range(3)]
        degenerate, invalid = "^wind_speed=-5.0 too close to -5", "^label <Label.INVALID: 'invalid'> not allowed here"
        cases = (([N, N, I], degenerate), ([N, I, N], degenerate), ([I, N, N], invalid))
        for labels, message in cases:
            with pytest.raises(DataError, match=message):
                _per_record(records, labels)
            with pytest.raises(DataError, match=message):
                feature_vectors(dataset_of(records, labels))

    def test_empty_dataset(self):
        X, y = feature_matrix(dataset_of([], []))
        assert X.shape == (0, len(FEATURE_IDS)) and y.shape == (0,)


class TestRankFeatures:
    def _vectors(self, rng, n=400, shift=10.0):
        vectors = []
        for i in range(n):
            label = Label.ABNORMAL if i % 2 else Label.NORMAL
            a = rng.normal(shift if label is Label.ABNORMAL else 0.0, 1.0)
            b = rng.normal(0.0, 1.0)
            vectors.append(make_fv(label=label, wind_speed=a, power=b))
        return vectors

    def test_separating_feature_ranks_first(self, rng):
        vectors = self._vectors(rng)
        ranking = rank_features(*fv_matrix(vectors))
        assert ranking[0][0] == "x4"
        # oracle: recompute the Fisher score directly
        X, y = fv_matrix(vectors)
        expected = fisher_score(X[:, 3], y.astype(bool))
        assert ranking[0][1] == pytest.approx(expected)
        assert expected > 10.0

    def test_identical_feature_scores_zero(self):
        vectors = [make_fv(label=Label.NORMAL), make_fv(label=Label.ABNORMAL)]
        scores = dict(rank_features(*fv_matrix(vectors)))
        assert scores["x7"] == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(DataError, match="^dataset contains only one class$"):
            rank_features(*fv_matrix([make_fv(), make_fv()]))

    def test_affine_rescale_keeps_order(self, rng):
        vectors = self._vectors(rng, shift=3.0)
        base_order = [name for name, _ in rank_features(*fv_matrix(vectors))]
        rescaled = [
            make_fv(label=fv.label, wind_speed=5.0 * fv.wind_speed - 7.0, power=fv.power * -0.5 + 1)
            for fv in vectors
        ]
        assert [name for name, _ in rank_features(*fv_matrix(rescaled))] == base_order


def test_feature_csv_export(rng, tmp_path):
    vectors = [
        make_fv(label=Label.NORMAL, wind_speed=0.5),
        make_fv(label=Label.ABNORMAL, wind_speed=-0.5),
    ]
    write_feature_csv(*fv_matrix(vectors), tmp_path / "f.csv")
    lines = (tmp_path / "f.csv").read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == ",".join(FEATURE_IDS + ("y",))
    assert lines[1].endswith(",0")
    assert lines[2].endswith(",1")
