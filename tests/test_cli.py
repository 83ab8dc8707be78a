import errno
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from conftest import frame_of, make_dataset, make_record
from knn_oracle import knn_oracle
from test_pipeline import _cart_chain
from icewatch import cli, learners
from icewatch.cli import _experiment_config, _json_text, _load_datasets, _pipeline_configs, main
from icewatch.errors import InvalidConfig
from icewatch.pipeline import bundle_from_dict, predict_stream, run_traditional
from icewatch.scada import (
    CHANNELS,
    COLUMNS,
    LABELS,
    Frame,
    Label,
    apply_label_windows,
    parse_scada_csv,
    write_labeled_csv,
    write_scada_csv,
)
from icewatch.schema import read_json
from icewatch.synthgen import SynthConfig, WindModel, default_offset_profile, generate_turbine

SRC = str(Path(__file__).resolve().parent.parent / "src")
SMOKE = Path(__file__).resolve().parent.parent / "configs" / "experiment_smoke.json"


@pytest.fixture(scope="module")
def turbine_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("turbines")
    cfg = out / "pair.json"
    cfg.write_text(
        json.dumps(
            {
                "base": asdict(SynthConfig(duration=6000, seed=1)),
                "profile": asdict(default_offset_profile()),
            }
        )
    )
    assert main(["synth", "--out", str(out), "--config", str(cfg), "--pair"]) == 0
    return out


@pytest.fixture(scope="module")
def labeled_csv(tmp_path_factory, turbine_dir):
    out = tmp_path_factory.mktemp("data") / "A.labeled.csv"
    code = main(
        [
            "ingest",
            "--scada", str(turbine_dir / "A" / "scada.csv"),
            "--windows", str(turbine_dir / "A" / "windows.csv"),
            "--turbine-id", "A",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def knn_bundles(tmp_path_factory):
    """The output directory of a one-run KNN experiment with --bundles."""
    tmp = tmp_path_factory.mktemp("knn")
    out_dir = tmp / "reports"
    assert main(["experiment", "--config", str(tiny_experiment_config(tmp)), "--out-dir", str(out_dir), "--bundles"]) == 0
    return out_dir


@pytest.fixture(scope="module")
def learner_bundles(tmp_path_factory, knn_bundles):
    """Per learner, the output directory of a one-run experiment with --bundles."""
    dirs = {"knn": knn_bundles}
    for algorithm, options in {"cart": {}, "mlp": {"mlp_epochs": 2}}.items():
        tmp = tmp_path_factory.mktemp(algorithm)
        cfg = tiny_experiment_config(tmp)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "learner": {"algorithm": algorithm, **options}}))
        dirs[algorithm] = tmp / "reports"
        assert main(["experiment", "--config", str(cfg), "--out-dir", str(dirs[algorithm]), "--bundles"]) == 0
    return dirs


def tiny_experiment_config(tmp_path, n_runs=1, duration=6000, seed=1):
    doc = {
        "data": {
            "pair": {
                "base": asdict(SynthConfig(duration=duration, seed=seed)),
                "profile": asdict(default_offset_profile()),
            }
        },
        "variants": ["traditional", "reengineered"],
        "learner": {"algorithm": "knn", "knn_k": 3},
        "balance": {"method": "under", "seed": seed},
        "n_runs": n_runs,
        "master_seed": seed,
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    return path


class TestSynth:
    def test_outputs_exist(self, turbine_dir):
        for t in ("A", "B"):
            for name in ("scada.csv", "windows.csv", "ledger.json"):
                assert (turbine_dir / t / name).exists()

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["synth", "--out", str(out1), "--seed", "7"]) == 0
        assert main(["synth", "--out", str(out2), "--seed", "7"]) == 0
        for name in ("scada.csv", "windows.csv", "ledger.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_ledger_counts_match_windows(self, turbine_dir):
        ledger = json.loads((turbine_dir / "A" / "ledger.json").read_text())
        assert set(ledger["counts"]) == {"normal", "abnormal", "invalid"}
        assert len(ledger["episodes"]) > 0


class TestIngestAndFeatures:
    def test_ingest_prints_the_label_counts(self, turbine_dir, tmp_path, capsys):
        out = tmp_path / "A.labeled.csv"
        argv = ["ingest", "--scada", str(turbine_dir / "A" / "scada.csv"), "--windows",
                str(turbine_dir / "A" / "windows.csv"), "--turbine-id", "A", "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 0
        counts = json.loads((turbine_dir / "A" / "ledger.json").read_text())["counts"]
        assert capsys.readouterr().out == (
            f"A: 6000 records ({counts['normal']} normal, {counts['abnormal']} abnormal, "
            f"{counts['invalid']} invalid) -> {out}\n"
        )

    def test_features_export(self, labeled_csv, tmp_path):
        out = tmp_path / "features.csv"
        assert main(["features", "--data", str(labeled_csv), "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "x1,x2,x3,x4,x5,x6,x7,x8,x9,x10,y"

    def test_features_rank(self, labeled_csv, tmp_path, capsys):
        out = tmp_path / "features.csv"
        assert main(["features", "--data", str(labeled_csv), "--rank", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("wrote ") and lines[0].endswith(f"feature rows -> {out}")
        assert len(lines) == 11 and all("fisher=" in line for line in lines[1:])
        assert out.exists()

    def test_features_rank_of_one_class_writes_nothing(self, tmp_path, capsys):
        write_labeled_csv(make_dataset([Label.NORMAL] * 12), tmp_path / "d.csv")
        out = tmp_path / "f.csv"
        assert main(["features", "--data", str(tmp_path / "d.csv"), "--rank", "--out", str(out)]) == 3
        assert not out.exists()
        assert "wrote" not in capsys.readouterr().out

    def test_inspect_rules(self, labeled_csv, capsys):
        assert main(["inspect-rules", "--data", str(labeled_csv)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("R1:")


class TestExperiment:
    def test_writes_reports_and_bundles(self, tmp_path):
        cfg = tiny_experiment_config(tmp_path)
        out_dir = tmp_path / "reports"
        code = main(["experiment", "--config", str(cfg), "--out-dir", str(out_dir), "--bundles"])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert {r["config"]["variant"] for r in report["reports"]} == {"traditional", "reengineered"}
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "traditional.bundle.json").exists()
        assert (out_dir / "reengineered.bundle.json").exists()
        segments = [c["segment"] for r in report["reports"] for c in r["results"]]
        assert segments == ["all", "low", "high", "pooled"]

    def test_predict_round_trip(self, tmp_path, turbine_dir, knn_bundles):
        labels_out = tmp_path / "labels.csv"
        code = main(
            [
                "predict",
                "--bundle", str(knn_bundles / "reengineered.bundle.json"),
                "--scada", str(turbine_dir / "B" / "scada.csv"),
                "--out", str(labels_out),
            ]
        )
        assert code == 0
        lines = labels_out.read_text().splitlines()
        assert lines[0] == "time,label,confidence_flag"
        assert len(lines) == 6001

    def test_predict_knn_on_huge_channel_values(self, tmp_path, turbine_dir, knn_bundles, monkeypatch):
        # power = 1e300 in three records: the squared norm of every query
        # smoothed over one of them overflows, and its distances are inf or NaN
        frame = parse_scada_csv(str(turbine_dir / "B" / "scada.csv"))
        channels = frame.channels.copy()
        channels[[1000, 2500, 4000], CHANNELS.index("power")] = 1e300
        scada, labels = tmp_path / "B.csv", tmp_path / "labels.csv"
        write_scada_csv(Frame(frame.time, channels, frame.group), scada)
        bundle = knn_bundles / "traditional.bundle.json"
        argv = ["predict", "--bundle", str(bundle), "--scada", str(scada), "--out", str(labels)]
        done = subprocess.run([sys.executable, "-m", "icewatch.cli", *argv], env=_environ(), capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")

        monkeypatch.setattr(learners, "predict", knn_oracle)
        want = predict_stream(bundle_from_dict(json.loads(bundle.read_text())), parse_scada_csv(str(scada)))
        got = [line.split(",")[1] for line in labels.read_text().splitlines()[1:]]
        assert got == [LABELS[code].value for code in want.label]


def test_direction_ba_trains_on_turbine_b():
    doc = json.loads(SMOKE.read_text())
    doc["data"]["direction"] = "BA"
    doc.update(variants=["traditional"], n_runs=1, learner={"algorithm": "cart"})
    exp = _experiment_config(doc)
    train, test = _load_datasets(exp.data)
    assert (train.turbine_id, test.turbine_id) == ("B", "A")
    report = run_traditional(train, test, _pipeline_configs(exp)["traditional"])
    assert (report["train_dataset"], report["test_dataset"]) == ("B", "A")


class TestExitCodes:
    def test_unknown_subcommand(self):
        assert main(["definitely-not-a-command"]) == 2

    def test_no_arguments(self):
        assert main([]) == 2

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(
            [
                "ingest",
                "--scada", str(tmp_path / "missing.csv"),
                "--windows", str(tmp_path / "missing2.csv"),
                "--out", str(tmp_path / "out.csv"),
            ]
        )
        assert code == 3

    def test_bad_config_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"data": {"pair": {}}, "learner": {"algorithm": "svm"}}))
        assert main(["experiment", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_malformed_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["experiment", "--config", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_data_error_from_bad_csv(self, tmp_path):
        scada = tmp_path / "scada.csv"
        scada.write_text("time,wind_speed\n1,2\n")
        windows = tmp_path / "windows.csv"
        windows.write_text("start,end,class\n0,10,icing\n")
        code = main(
            ["ingest", "--scada", str(scada), "--windows", str(windows), "--out", str(tmp_path / "o.csv")]
        )
        assert code == 3


def _experiment(tmp_path, extra_argv=(), **changes):
    doc = {"data": {"pair": {}}, "learner": {"algorithm": "knn"}, **changes}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    return ["experiment", "--config", str(path), "--out-dir", str(tmp_path / "out"), *extra_argv]


def _file(path, text):
    path.write_text(text)
    return str(path)


def _scada(path, times):
    write_scada_csv(frame_of([make_record(time=t) for t in times]), path)
    return str(path)


def _ingest(tmp_path, scada, windows):
    return ["ingest", "--scada", scada, "--windows", windows, "--out", str(tmp_path / "o.csv")]


def _predict(tmp_path, bundle):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps({"format": 1, "variant": "traditional", **bundle}))
    return ["predict", "--bundle", str(path), "--scada", str(tmp_path / "B.csv"), "--out", str(tmp_path / "l.csv")]


def _knn_model(X, mean):
    std = {"mean": mean, "std": [1.0] * len(mean)}
    return {"format": 1, "kind": "knn", "k": 1, "X": X, "y": [1] * len(X), "standardization": std}


def _cart_model(**root):
    leaf = {"n": 5, "impurity": 0.0, "class": 0, "proportions": [1.0, 0.0]}
    node = {"n": 10, "impurity": 0.5, "class": 1, "proportions": [0.5, 0.5], "feature": 1, "threshold": 0.0}
    return {"format": 1, "kind": "cart", "max_depth": 12, "min_leaf": 5,
            "root": {**node, "left": leaf, "right": leaf, **root}}


def _deep_cart_bundle(tmp_path, depth):
    """`predict` with a bundle whose CART tree descends `depth` levels to
    the left, written as text: json.dumps would recurse once per level."""
    leaf = json.dumps(_cart_model()["root"]["left"])
    node = json.dumps({**_cart_model()["root"], "right": "RIGHT", "left": "LEFT"})
    node = node.replace('"RIGHT"', leaf).split('"LEFT"')
    root = node[0] * depth + leaf + node[1] * depth
    argv = _predict(tmp_path, {"denoise": {"window": 10}, "model": {**_cart_model(), "root": "ROOT"}})
    path = Path(argv[2])
    path.write_text(path.read_text().replace('"ROOT"', root))
    return argv


def _features_ma0(tmp_path):
    write_labeled_csv(make_dataset([Label.NORMAL] * 12), tmp_path / "d.csv")
    return ["features", "--data", str(tmp_path / "d.csv"), "--ma-window", "0", "--out", str(tmp_path / "f.csv")]


def _features_under_sample(tmp_path):
    # after the 10-step denoise drops 9 rows: 15 abnormal, 7 normal
    write_labeled_csv(make_dataset([Label.ABNORMAL] * 24 + [Label.NORMAL] * 7), tmp_path / "d.csv")
    return ["features", "--data", str(tmp_path / "d.csv"), "--balance", "under", "--out", str(tmp_path / "f.csv")]


def _inspect_rules(tmp_path, rules_text):
    write_labeled_csv(make_dataset([Label.NORMAL] * 12), tmp_path / "d.csv")
    rules = _file(tmp_path / "r.json", rules_text)
    return ["inspect-rules", "--data", str(tmp_path / "d.csv"), "--rules", rules]


def _inspect_rules_directory(tmp_path):
    write_labeled_csv(make_dataset([Label.NORMAL] * 12), tmp_path / "d.csv")
    return ["inspect-rules", "--data", str(tmp_path / "d.csv"), "--rules", str(tmp_path)]


def _ingest_out_directory(tmp_path):
    argv = _ingest(tmp_path, _scada(tmp_path / "s.csv", [0, 7]), _file(tmp_path / "w.csv", "start,end,class\n0,100,normal\n"))
    return argv[:-1] + [str(tmp_path)]


def _bytes(path, data):
    path.write_bytes(data)
    return str(path)


def _unsorted_labeled(tmp_path):
    path = tmp_path / "d.csv"
    write_labeled_csv(make_dataset([Label.NORMAL] * 12, start_time=77, dt=-7), path)
    return str(path)


def _predict_unsorted(tmp_path):
    _scada(tmp_path / "B.csv", [70, 0, 35, 7, 14])
    return _predict(tmp_path, {"denoise": {"window": 2}, "model": _knn_model([[0.0] * 10], mean=[0.0] * 10)})


def _long_row(path, row):
    """The CSV at `path` with a cell appended to data row `row`."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    lines[row] += ",0"
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _predict_long_row(tmp_path):
    _long_row(_scada(tmp_path / "B.csv", [0, 7, 14]), 1)
    return _predict(tmp_path, {"denoise": {"window": 2}, "model": _knn_model([[0.0] * 10], mean=[0.0] * 10)})


def _predict_scada_not_utf8(tmp_path):
    _bytes(tmp_path / "B.csv", b"time,\xff\n")
    return _predict(tmp_path, {"denoise": {"window": 2}, "model": _knn_model([[0.0] * 10], mean=[0.0] * 10)})


def _labeled_turbine(path, **synth):
    out = generate_turbine(SynthConfig(duration=6000, **synth))
    write_labeled_csv(apply_label_windows(out.records, out.truth_windows, path.stem), path)
    return str(path)


def _calm_test_turbine(tmp_path, variants=("reengineered",), extra_argv=()):
    """A re-engineered experiment tested on a turbine whose wind never
    reaches the high segment."""
    train = _labeled_turbine(tmp_path / "A.csv", seed=1)
    test = _labeled_turbine(tmp_path / "B.csv", seed=2, wind=WindModel(mean=1.0, noise=0.05))
    return _experiment(tmp_path, extra_argv, data={"train": train, "test": test}, variants=list(variants), n_runs=1)


def _features_negative_seed(tmp_path):
    labels = [Label.NORMAL] * 20 + [Label.ABNORMAL] * 5 + [Label.NORMAL] * 10
    write_labeled_csv(make_dataset(labels), tmp_path / "d.csv")
    return ["features", "--data", str(tmp_path / "d.csv"), "--balance", "under", "--seed", "-1", "--out",
            str(tmp_path / "f.csv")]


def _predict_power_only_bundle(tmp_path):
    _scada(tmp_path / "B.csv", [0, 7, 14])
    model = _knn_model([[0.0] * 10], mean=[0.0] * 10)
    return _predict(tmp_path, {"denoise": {"window": 2, "channels": ["power"]}, "model": model})


NAN_BOUND = [{"feature": "x4", "upper": float("nan")}]
LABELED_HEADER = ",".join(COLUMNS + ("label",)) + "\n"
TEN_FEATURE_KNN = _knn_model([[0.0] * 10], mean=[0.0] * 10)


def _reengineered_bundle(**keys):
    rule = {"id": "R1", "constraints": [{"feature": "x4", "upper": 2.0}]}
    return {"variant": "reengineered", "denoise": {"window": 10}, "rule": rule, "segment_threshold": 0.0,
            "low_model": TEN_FEATURE_KNN, "high_model": TEN_FEATURE_KNN, **keys}


def _bundle_rule(constraints):
    return _reengineered_bundle(rule={"id": "R1", "constraints": constraints})


# (argv builder, exit code, expected part of the message)
MALFORMED = {
    "knn_k-string": (
        lambda t: _experiment(t, learner={"algorithm": "knn", "knn_k": "3"}), 2,
        "learner.knn_k: expected int, got '3'",
    ),
    "balance-smote": (lambda t: _experiment(t, balance={"method": "smote"}), 2, "balance: method must be one of"),
    "unknown-wind-key": (
        lambda t: _experiment(t, data={"pair": {"base": {"wind": {"gusts": 1.0}}}}), 2,
        "data.pair.base.wind.gusts: unknown key",
    ),
    "top-level-n_run": (lambda t: _experiment(t, n_run=2), 2, "n_run: unknown key"),
    "cv_k-string": (lambda t: _experiment(t, cv_k="5"), 2, "cv_k: expected int, got '5'"),
    "mlp-learning-rate-nan": (
        lambda t: _experiment(t, learner={"algorithm": "mlp", "mlp_learning_rate": math.nan}), 2,
        "learner: mlp_learning_rate must be a finite number, got nan",
    ),
    "mlp-init-scale-inf": (
        lambda t: _experiment(t, learner={"algorithm": "mlp", "mlp_init_scale": math.inf}), 2,
        "learner: mlp_init_scale must be a finite number, got inf",
    ),
    "rule-x99": (
        lambda t: _experiment(t, ["--rule", _file(t / "x99.json", '[{"feature": "x99", "upper": 1.0}]')]), 2,
        "unknown feature id 'x99'",
    ),
    "ma-window-0": (_features_ma0, 2, "window must be >= 1, got 0"),
    "window-start-after-end": (
        lambda t: _ingest(t, _scada(t / "s.csv", [0, 7]), _file(t / "w.csv", "start,end,class\n10,5,icing\n")), 3,
        "window start 10 must precede end 5",
    ),
    "unsorted-scada": (
        lambda t: _ingest(t, _scada(t / "s.csv", [7, 0]), _file(t / "w.csv", "start,end,class\n0,100,normal\n")), 3,
        "record times decrease at index 1",
    ),
    "unsorted-predict-stream": (_predict_unsorted, 3, "record times decrease at index 1"),
    "unsorted-features": (
        lambda t: ["features", "--data", _unsorted_labeled(t), "--out", str(t / "f.csv")], 3,
        "record times decrease at index 1",
    ),
    "unsorted-inspect-rules": (
        lambda t: ["inspect-rules", "--data", _unsorted_labeled(t)], 3, "record times decrease at index 1",
    ),
    "unsorted-experiment-files": (
        lambda t: _experiment(t, data={"train": _unsorted_labeled(t), "test": _unsorted_labeled(t)}), 3,
        "record times decrease at index 1",
    ),
    "short-scada-row": (
        lambda t: _ingest(t, _file(t / "s.csv", ",".join(COLUMNS) + "\n1,2\n"), str(t / "w.csv")), 3,
        "row 1: 2 cells, header has 28",
    ),
    "long-scada-row": (
        lambda t: _ingest(t, _long_row(_scada(t / "s.csv", [0, 7, 14]), 2), _file(t / "w.csv", "start,end,class\n0,100,normal\n")),
        3, "row 2: 29 cells, header has 28",
    ),
    "long-window-row": (
        lambda t: _ingest(t, _scada(t / "s.csv", [0, 7]), _file(t / "w.csv", "start,end,class\n0,10,normal\n10,20,icing,0\n")),
        3, "row 2: 4 cells, header has 3",
    ),
    "long-predict-row": (_predict_long_row, 3, "row 1: 29 cells, header has 28"),
    "bundle-without-denoise": (lambda t: _predict(t, {"model": {}}), 2, "denoise: missing"),
    "bundle-without-model": (lambda t: _predict(t, {"denoise": {"window": 10}}), 2, "model: missing"),
    "bundle-not-object": (
        lambda t: ["predict", "--bundle", _file(t / "b.json", "[1,2]"), "--scada", "B.csv", "--out", str(t / "l.csv")], 2,
        "top level: expected object, got [1, 2]",
    ),
    "bundle-rule-not-object": (
        lambda t: _predict(t, {"variant": "reengineered", "denoise": {"window": 10}, "rule": [1], "segment_threshold": 0}), 2,
        "rule: expected object, got [1]",
    ),
    "bundle-model-not-object": (
        lambda t: _predict(t, {"denoise": {"window": 10}, "model": [1]}), 2, "model: expected object, got [1]",
    ),
    "bundle-knn-width-mismatch": (
        lambda t: _predict(t, {"denoise": {"window": 10}, "model": _knn_model([[1, 2]], mean=[0])}), 2,
        "model: 2 columns but 1 standardized features",
    ),
    "bundle-cart-threshold-string": (
        lambda t: _predict(t, {"denoise": {"window": 10}, "model": _cart_model(threshold="nan")}), 2,
        "model.root.threshold: expected float, got 'nan'",
    ),
    "bundle-knn-not-ten-features": (
        lambda t: _predict(t, {"denoise": {"window": 10}, "model": _knn_model([[1, 2]], mean=[0, 0])}), 2,
        "model reads 2 features, but rows have 10",
    ),
    "experiment-not-object-with-rule": (
        lambda t: ["experiment", "--config", _file(t / "e.json", "[1,2]"), "--rule", "R5", "--out-dir", str(t / "o")], 2,
        "top level: expected object, got [1, 2]",
    ),
    "rules-not-objects": (
        lambda t: _inspect_rules(t, "[1,2]"), 2, "a rule must be a JSON array of constraint objects",
    ),
    "under-sample-too-few-normal": (_features_under_sample, 3, "cannot under-sample: 7 normal < 15 abnormal"),
    "synth-pair-config-not-object": (
        lambda t: ["synth", "--pair", "--config", _file(t / "f.json", "5"), "--out", str(t / "o")], 2,
        "top level: expected object, got 5",
    ),
    "experiment-config-directory": (
        lambda t: ["experiment", "--config", str(t), "--out-dir", str(t / "o")], 3, "Is a directory",
    ),
    "predict-bundle-directory": (
        lambda t: ["predict", "--bundle", str(t), "--scada", "B.csv", "--out", str(t / "l.csv")], 3, "Is a directory",
    ),
    "inspect-rules-rules-directory": (_inspect_rules_directory, 3, "Is a directory"),
    "ingest-out-directory": (_ingest_out_directory, 3, "Is a directory"),
    "experiment-config-not-utf8": (
        lambda t: ["experiment", "--config", _bytes(t / "e.json", b'{"n_runs": "\xff"}'), "--out-dir", str(t / "o")], 3,
        "e.json: 'utf-8' codec can't decode byte 0xff",
    ),
    "ingest-scada-not-utf8": (
        lambda t: _ingest(t, _bytes(t / "s.csv", b"time,\xff\n"), _file(t / "w.csv", "start,end,class\n")), 3,
        "s.csv: 'utf-8' codec can't decode byte 0xff",
    ),
    "predict-scada-not-utf8": (_predict_scada_not_utf8, 3, "B.csv: 'utf-8' codec can't decode byte 0xff"),
    "features-labeled-not-utf8": (
        lambda t: ["features", "--data", _bytes(t / "d.csv", LABELED_HEADER.encode() + b"7,\xff\n"), "--out",
                   str(t / "f.csv")], 3,
        "d.csv: 'utf-8' codec can't decode byte 0xff",
    ),
    "ingest-windows-not-utf8": (
        lambda t: _ingest(t, _scada(t / "s.csv", [0, 7]), _bytes(t / "w.csv", b"start,end,class\n0,\xff,normal\n")), 3,
        "w.csv: 'utf-8' codec can't decode byte 0xff",
    ),
    "features-header-only": (
        lambda t: ["features", "--data", _file(t / "d.csv", LABELED_HEADER), "--out", str(t / "f.csv")], 3,
        "labeled dataset file contains no data rows",
    ),
    "inspect-rules-header-only": (
        lambda t: ["inspect-rules", "--data", _file(t / "d.csv", LABELED_HEADER)], 3,
        "labeled dataset file contains no data rows",
    ),
    "ingest-window-class-unknown": (
        lambda t: _ingest(t, _scada(t / "s.csv", [0, 7]), _file(t / "w.csv", "start,end,class\n0,10,Icing\n")), 3,
        "row 1, column 'class': expected one of 'icing', 'normal', got 'Icing'",
    ),
    "features-label-unknown": (
        lambda t: ["features", "--data", _file(t / "d.csv", LABELED_HEADER + "0," + "1.0," * 26 + "1,Normal\n"),
                   "--out", str(t / "f.csv")], 3,
        "row 1, column 'label': expected one of 'normal', 'abnormal', 'invalid', got 'Normal'",
    ),
    "predict-bundle-not-utf8": (
        lambda t: ["predict", "--bundle", _bytes(t / "b.json", b'{"format": "\xff"}'), "--scada", "B.csv", "--out",
                   str(t / "l.csv")], 3,
        "b.json: 'utf-8' codec can't decode byte 0xff",
    ),
    "config-nested-too-deeply": (
        lambda t: ["experiment", "--config", _file(t / "e.json", "[" * 5000 + "]" * 5000), "--out-dir", str(t / "o")],
        2, "e.json: nested too deeply",
    ),
    "bundle-tree-nested-too-deeply": (lambda t: _deep_cart_bundle(t, 995), 2, "bundle.json: nested too deeply"),
    "rule-file-nan-bound": (lambda t: _inspect_rules(t, json.dumps(NAN_BOUND)), 2, "x4: a bound is NaN"),
    "bundle-rule-nan-bound": (
        lambda t: _predict(t, {"variant": "reengineered", "denoise": {"window": 10},
                               "rule": {"id": "nan", "constraints": NAN_BOUND}, "segment_threshold": 0}), 2,
        "x4: a bound is NaN",
    ),
    "synth-seed-negative": (
        lambda t: ["synth", "--out", str(t / "o"), "--seed", "-1"], 2, "seed must be >= 0, got -1",
    ),
    "synth-pair-seed-offset-negative": (
        lambda t: ["synth", "--pair", "--out", str(t / "o"), "--config",
                   _file(t / "p.json", '{"base": {"duration": 100}, "profile": {"seed_offset": -1}}')], 2,
        "seed must be >= 0, got -1",
    ),
    "master-seed-negative": (lambda t: _experiment(t, master_seed=-3), 2, "master_seed must be >= 0, got -3"),
    "balance-seed-negative": (
        lambda t: _experiment(t, balance={"seed": -1}), 2, "balance: seed must be >= 0, got -1",
    ),
    "pair-base-seed-negative": (
        lambda t: _experiment(t, data={"pair": {"base": {"seed": -5}}}), 2,
        "data.pair.base: seed must be >= 0, got -5",
    ),
    "features-seed-negative": (_features_negative_seed, 2, "--seed must be >= 0, got -1"),
    "test-turbine-without-high-rows": (_calm_test_turbine, 3, "high segment has no test rows"),
    # the traditional variant runs and trains its bundle before the failure
    "bundles-then-test-turbine-without-high-rows": (
        lambda t: _calm_test_turbine(t, ["traditional", "reengineered"], ["--bundles"]), 3,
        "high segment has no test rows",
    ),
    "bundle-denoise-power-only": (
        _predict_power_only_bundle, 2, "denoise.channels: a bundle smooths every channel, got ['power']",
    ),
    # bundle fields the document declares, each once loaded unchecked or misread
    "bundle-raw-features-string": (
        lambda t: _predict(t, {"denoise": {"window": 10}, "raw_features": "false", "model": TEN_FEATURE_KNN}), 2,
        "raw_features: expected bool, got 'false'",
    ),
    "bundle-reengineered-raw-features": (
        lambda t: _predict(t, _reengineered_bundle(raw_features=True)), 2,
        "raw-channel features apply to the traditional variant only",
    ),
    "bundle-unknown-key": (
        lambda t: _predict(t, {"denoise": {"window": 10}, "model": TEN_FEATURE_KNN, "notes": "x"}), 2,
        "notes: unknown key",
    ),
    "bundle-reengineered-stray-model": (
        lambda t: _predict(t, _reengineered_bundle(model=TEN_FEATURE_KNN)), 2,
        "model: not part of a reengineered bundle",
    ),
    "bundle-model-unknown-key": (
        lambda t: _predict(t, {"denoise": {"window": 10}, "model": {**TEN_FEATURE_KNN, "notes": "x"}}), 2,
        "model.notes: unknown key",
    ),
    "experiment-denoise-channels": (
        lambda t: _experiment(t, denoise={"channels": ["power"]}), 2, "denoise.channels: unknown key",
    ),
    "experiment-unknown-variant": (
        lambda t: _experiment(t, variants=["traditional", "hybrid"]), 2,
        "config error: variants[1] must be one of 'traditional', 'reengineered', got 'hybrid'",
    ),
    "experiment-no-variants": (
        lambda t: _experiment(t, variants=[]), 2,
        "config error: variants must be one or more distinct variants, got []",
    ),
    "experiment-repeated-variant": (
        lambda t: _experiment(t, variants=["traditional", "traditional"]), 2,
        "config error: variants must be one or more distinct variants, got ['traditional', 'traditional']",
    ),
    # checked though no variant segments the turbines
    "experiment-segment-threshold-nan": (
        lambda t: _experiment(t, variants=["traditional"], segment_threshold=math.nan), 2,
        "config error: segment_threshold must be a finite number, got nan",
    ),
    # a setting the variants share is checked as the experiment config is decoded
    "experiment-cv-k-below-2": (lambda t: _experiment(t, cv_k=1), 2, "config error: cv_k must be >= 2, got 1"),
    # a rule's constraint errors name the constraint, in a bundle and in a rule file
    "bundle-rule-upper-string": (
        lambda t: _predict(t, _bundle_rule([{"feature": "x4", "upper": "x"}])), 2,
        "config error: rule.constraints[0].upper: expected float, got 'x'",
    ),
    "bundle-rule-unknown-feature": (
        lambda t: _predict(t, _bundle_rule([{"feature": "x4"}, {"feature": "x99"}])), 2,
        "config error: rule.constraints[1]: unknown feature id 'x99'",
    ),
    "bundle-rule-constraint-not-object": (
        lambda t: _predict(t, _bundle_rule([{"feature": "x4"}, 1])), 2,
        "config error: rule.constraints[1]: a rule must be a JSON array of constraint objects, got 1",
    ),
    "bundle-rule-constraints-not-array": (
        lambda t: _predict(t, _bundle_rule(5)), 2, "config error: rule.constraints: expected array, got 5",
    ),
    "rule-file-upper-string": (
        lambda t: _inspect_rules(t, '[{"feature": "x4", "upper": "x"}]'), 2,
        "r.json[0].upper: expected float, got 'x'",
    ),
}


# a pair config's base and profile with one synthesis parameter out of range:
# a negative noise scale, or a NaN or infinity, which json reads and writes
BAD_SYNTH = {
    "wind-noise-negative": ({"wind": {"noise": -0.5}}, {}, "wind.noise must be >= 0, got -0.5"),
    "temperature-noise-negative": ({"temperature": {"noise": -1}}, {}, "temperature.noise must be >= 0, got -1.0"),
    "wind-mean-nan": ({"wind": {"mean": math.nan}}, {}, "wind.mean must be a finite number, got nan"),
    "wind-mean-inf": ({"wind": {"mean": math.inf}}, {}, "wind.mean must be a finite number, got inf"),
    "amplitude-inf": (
        {"temperature": {"diurnal_amplitude": -math.inf}}, {}, "temperature.diurnal_amplitude must be a finite number",
    ),
    "threshold-nan": ({"trigger": {"temp_threshold": math.nan}}, {}, "trigger.temp_threshold must be a finite number"),
    "hazard-nan": ({"trigger": {"hazard": math.nan}}, {}, "trigger.hazard must be a finite number"),
    "pitch-shift-inf": ({"effect": {"pitch_shift": math.inf}}, {}, "effect.pitch_shift must be a finite number"),
    "cut-in-nan": ({"cut_in": math.nan}, {}, "cut_in must be a finite number"),
    "rated-inf": ({"rated": math.inf}, {}, "rated must be a finite number"),
    "desensitize-scale-nan": ({"desensitize": {"power": [math.nan, 0.0]}}, {}, "desensitize.power[0] must be a finite"),
    "desensitize-offset-inf": ({"desensitize": {"power": [1.0, math.inf]}}, {}, "desensitize.power[1] must be a finite"),
    "profile-scale-nan": ({}, {"scale": {"power": math.nan}}, "scale.power must be a finite number, got nan"),
    "profile-offset-inf": ({}, {"offset": {"power": -math.inf}}, "offset.power must be a finite number, got -inf"),
    # integers that do not fit the field's machine type
    "wind-mean-beyond-double": ({"wind": {"mean": 10**400}}, {}, "wind.mean: integer beyond the double range"),
    "start-epoch-beyond-int64": ({"start_epoch": 2**70}, {}, f"start_epoch: integer outside int64, got {2**70}"),
    "timestamps-beyond-int64": (
        {"nominal_dt": 2**62}, {}, "start_epoch + duration * nominal_dt must fit in int64",
    ),
}


def _bad_synth(command, base, profile):
    pair = {"base": {"duration": 200, **base}, "profile": profile}
    if command == "experiment":
        return lambda t: _experiment(t, data={"pair": pair})
    return lambda t: ["synth", "--pair", "--config", _file(t / "p.json", json.dumps(pair)), "--out", str(t / "out")]


MALFORMED |= {
    f"{command}-{case}": (_bad_synth(command, base, profile), 2, message)
    for case, (base, profile, message) in BAD_SYNTH.items()
    for command in ("synth", "experiment")
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_with_one_line(case, tmp_path, capsys):
    build, expected_code, message = MALFORMED[case]
    argv = build(tmp_path)
    capsys.readouterr()
    assert main(argv) == expected_code
    assert not (tmp_path / "out").exists()  # a failed experiment writes nothing to its --out-dir
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("config error:" if expected_code == 2 else "data error:")
    assert message in line


def test_deep_tree_loads_or_exits_2_with_one_line(tmp_path, capsys):
    """A tree 980 levels deep loads, and predict stops at the missing
    stream, or is too deep for this stack and exits 2 as json's own limit
    does; never a RecursionError."""
    argv = _deep_cart_bundle(tmp_path, 980)
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err and "RecursionError" not in err
    (line,) = err.splitlines()
    assert (code, line) == (2, f"config error: {argv[2]}: nested too deeply") or (
        code == 3 and line.startswith("data error:") and "B.csv" in line
    )


def test_bundle_too_deep_to_write_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    """A trained tree too deep to write exits 2 as a file too deep to read
    does, and the experiment writes nothing."""
    monkeypatch.setattr(cli, "run_traditional", lambda train, test, cfg: {})
    monkeypatch.setattr(cli, "train_bundle", lambda train, cfg: _cart_chain(2000))
    argv = _experiment(tmp_path, ["--bundles"], variants=["traditional"], data={"pair": {"base": {"duration": 200}}})
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["config error: traditional.bundle.json: nested too deeply"]
    assert not (tmp_path / "out").exists()


def _with_frames_left(frames, fn):
    """fn() called with about `frames` frames left below the recursion limit."""
    frame, used = sys._getframe(), 0
    while frame is not None:
        frame, used = frame.f_back, used + 1

    def call(n):
        return fn() if n == 0 else call(n - 1)

    return call(sys.getrecursionlimit() - used - frames)


def test_tree_too_deep_to_decode_is_nested_too_deeply(tmp_path):
    """With a stack that json can parse a 100-level tree in but the decoder
    cannot decode it in, read_json raises the InvalidConfig of a file too
    deep to parse."""
    path = _deep_cart_bundle(tmp_path, 100)[2]
    parsed, decoded = set(), set()
    for frames in range(100, 135):
        for done, decode in ((parsed, lambda doc: doc), (decoded, bundle_from_dict)):
            try:
                _with_frames_left(frames, lambda: read_json(path, decode))
                done.add(frames)
            except InvalidConfig as exc:
                assert str(exc) == f"{path}: nested too deeply"
    assert decoded and parsed - decoded  # stacks where only the decoder ran out


# --- BLAS threads ---------------------------------------------------------------


def _environ(**env) -> dict:
    """The environment of a fresh interpreter that sees icewatch and no BLAS
    thread setting beyond `env`."""
    environ = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, environ.get("PYTHONPATH")) if p)
    environ.update(env)
    return environ


def _python(code: str, **env) -> str:
    """Run `code` in a fresh interpreter (see _environ); return its standard
    output, stripped."""
    done = subprocess.run([sys.executable, "-c", code], env=_environ(**env), capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_cli_import_pins_blas_to_one_thread():
    assert _python("import os, icewatch.cli; print(os.environ['OPENBLAS_NUM_THREADS'])") == "1"


def test_cli_import_keeps_an_explicit_blas_thread_count():
    code = "import os, icewatch.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(code, OPENBLAS_NUM_THREADS="2") == "2"


def test_cli_import_creates_18_dataclasses():
    """Creating a dataclass costs 0.4-0.9 ms at import, the largest share
    of the start-up time icewatch's own modules take (ROADMAP, Measured
    limits). A change that adds one updates this count and says why."""
    code = (
        "import dataclasses, sys, icewatch.cli\n"
        "print(*sorted(f'{name}.{v.__qualname__}' for name, module in list(sys.modules.items())"
        " if name.startswith('icewatch') for v in vars(module).values()"
        " if isinstance(v, type) and dataclasses.is_dataclass(v) and v.__module__ == name))"
    )
    names = _python(code).split()
    assert len(names) == 18, names


def test_package_import_loads_no_numpy_and_sets_nothing():
    code = "import os, sys, icewatch; print('numpy' in sys.modules, 'OPENBLAS_NUM_THREADS' in os.environ)"
    assert _python(code) == "False False"


def test_experiments_and_predict_never_import_numpy_ma(tmp_path, turbine_dir):
    # numpy.ma costs an experiment process about 13 ms to import; np.unique
    # loads it, so label checks count with comparisons and np.bincount
    learners = {"knn": {"knn_k": 3}, "cart": {}, "mlp": {"mlp_epochs": 2}}
    argv = []
    for algorithm, options in learners.items():
        run_dir = tmp_path / algorithm
        run_dir.mkdir()
        cfg = tiny_experiment_config(run_dir)
        doc = json.loads(cfg.read_text())
        doc["learner"] = {"algorithm": algorithm, **options}
        cfg.write_text(json.dumps(doc))
        out_dir = run_dir / "out"
        argv.append(["experiment", "--config", str(cfg), "--out-dir", str(out_dir), "--bundles"])
        for variant in ("traditional", "reengineered"):
            bundle, labels = out_dir / f"{variant}.bundle.json", out_dir / f"{variant}.labels.csv"
            scada = turbine_dir / "B" / "scada.csv"
            argv.append(["predict", "--bundle", str(bundle), "--scada", str(scada), "--out", str(labels)])
    code = f"import sys; from icewatch.cli import main; print([main(a) for a in {argv!r}], 'numpy.ma' in sys.modules)"
    assert _python(code).splitlines()[-1] == f"{[0] * len(argv)} False"


def test_predict_never_imports_synthgen_logging_or_hashlib(tmp_path, turbine_dir, learner_bundles):
    # synthgen, logging and hashlib cost a predict process about 25 ms to
    # import; only synth and experiment load the generator
    scada = turbine_dir / "B" / "scada.csv"
    argv = [
        ["predict", "--bundle", str(out_dir / f"{variant}.bundle.json"), "--scada", str(scada),
         "--out", str(tmp_path / f"{algorithm}.{variant}.csv")]
        for algorithm, out_dir in learner_bundles.items()
        for variant in ("traditional", "reengineered")
    ]
    unused = ("icewatch.synthgen", "logging", "hashlib")
    code = f"import sys; from icewatch.cli import main; print([main(a) for a in {argv!r}], [m for m in {unused!r} if m in sys.modules])"
    assert _python(code).splitlines()[-1] == f"{[0] * len(argv)} []"
    code = "import sys; from icewatch.cli import main; print(main(['--help']), 'icewatch.synthgen' in sys.modules)"
    assert _python(code).splitlines()[-1] == "0 False"


def test_experiment_never_imports_logging(tmp_path):
    # nothing in icewatch logs, and logging costs a process about 5 ms to import
    argv = ["experiment", "--config", str(SMOKE), "--out-dir", str(tmp_path / "out"), "--bundles"]
    code = f"import sys; from icewatch.cli import main; print(main({argv!r}), 'logging' in sys.modules)"
    assert _python(code).splitlines()[-1] == "0 False"


def _is_json_text(text: str, doc) -> bool:
    """Whether `text` is json.dumps(doc, sort_keys=True, indent=2) plus a
    newline. A bare bool: pytest would diff two texts of half a megabyte."""
    return text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _reversed_keys(value):
    """`value` with the keys of every object in reverse order, which
    json.dumps with sort_keys=True does not see."""
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in reversed(value)}
    if isinstance(value, list):
        return [_reversed_keys(v) for v in value]
    return value


def test_written_json_is_the_text_of_json_dumps(learner_bundles):
    for out_dir in learner_bundles.values():
        for name in ("report.json", "traditional.bundle.json", "reengineered.bundle.json"):
            text = (out_dir / name).read_text(encoding="utf-8")
            doc = json.loads(text)
            assert _is_json_text(text, doc), name
            assert _is_json_text(_json_text(_reversed_keys(doc)), doc), name


def test_json_text_renders_every_float_and_shape_as_json_does(knn_bundles):
    doc = json.loads((knn_bundles / "traditional.bundle.json").read_text(encoding="utf-8"))
    doc["model"]["X"][0][:7] = [0.0, -0.0, 5e-324, 1e300, -1e300, math.nan, math.inf]
    doc["model"]["X"][1][0] = -math.inf
    # empty lists, ints and bools in rows, nested blocks, and "\0" strings,
    # which stand for a block inside _json_text
    odd = [[], [[]], [[1.0, 2]], [[True]], [[[1.0]], [[2.0, -0.0]]], {"a": [[1.5]], "\0": [[1.0]]}, "\0", [[1.5]]]
    assert _is_json_text(_json_text(doc), doc)
    for value in odd:
        assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2) + "\n", value


def test_package_reexports_the_record_types():
    import icewatch
    from icewatch import scada

    for name in ("Frame", "Label", "LabeledDataset"):
        assert getattr(icewatch, name) is getattr(scada, name)


# --- the icewatch process -------------------------------------------------------


def _icewatch(argv, cwd=None, redirect="", unbuffered=False):
    """Run `python -m icewatch.cli *argv` to its exit, through sh with the
    stream redirection `redirect` and with buffered standard streams, or
    unbuffered ones; return the finished process, output as text."""
    env = _environ()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "icewatch.cli", *argv]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True)


def test_the_process_and_main_give_the_same_codes_output_and_files(tmp_path, turbine_dir, capsys, monkeypatch):
    """Each command gives the same exit code, stdout, stderr and output
    files run as a process, which ends in cli.entry, as called in-process.
    Paths are relative, so that both runs print the same text."""
    smoke = json.loads(SMOKE.read_text())
    inputs = {
        "pair.json": {"base": {"duration": 300, "seed": 2}},
        "cart.json": {**smoke, "learner": {"algorithm": "cart"}, "n_runs": 2},
    }
    scada_b = str(turbine_dir / "B" / "scada.csv")
    steps = [
        (["--help"], 0),
        (["definitely-not-a-command"], 2),
        (["ingest", "--scada", "missing.csv", "--windows", "missing.csv", "--out", "o.csv"], 3),
        (["synth", "--pair", "--config", "pair.json", "--out", "pair"], 0),
        (["ingest", "--scada", str(turbine_dir / "A" / "scada.csv"), "--windows",
          str(turbine_dir / "A" / "windows.csv"), "--turbine-id", "A", "--out", "A.csv"], 0),
        (["features", "--data", "A.csv", "--rank", "--out", "features.csv"], 0),
        (["inspect-rules", "--data", "A.csv"], 0),
        (["experiment", "--config", "cart.json", "--out-dir", "out", "--bundles"], 0),
        *(
            (["predict", "--bundle", f"out/{variant}.bundle.json", "--scada", scada_b, "--out", f"{variant}.csv"], 0)
            for variant in ("traditional", "reengineered")
        ),
    ]
    monkeypatch.setenv("COLUMNS", "80")  # argparse's help width, in both runs
    runs = {}
    for side in ("process", "main"):
        run_dir = tmp_path / side
        run_dir.mkdir()
        for name, doc in inputs.items():
            (run_dir / name).write_text(json.dumps(doc))
        runs[side] = []
        for argv, _ in steps:
            if side == "process":
                done = _icewatch(argv, cwd=run_dir)
                runs[side].append((done.returncode, done.stdout, done.stderr))
            else:
                monkeypatch.chdir(run_dir)
                capsys.readouterr()
                code = main(argv)
                runs[side].append((code, *capsys.readouterr()))
    assert [code for code, _, _ in runs["main"]] == [code for _, code in steps]
    for step, (argv, _) in enumerate(steps):
        assert runs["process"][step] == runs["main"][step], argv
    files = {side: sorted(p.relative_to(tmp_path / side) for p in (tmp_path / side).rglob("*")) for side in runs}
    assert files["process"] == files["main"]
    assert Path("out/reengineered.bundle.json") in files["main"] and Path("pair/B/scada.csv") in files["main"]
    for path in files["main"]:
        if (tmp_path / "main" / path).is_file():
            assert (tmp_path / "process" / path).read_bytes() == (tmp_path / "main" / path).read_bytes(), path


@pytest.mark.parametrize("command", ["--help", "inspect-rules"])
def test_a_closed_stdout_exits_0_without_a_traceback(command, labeled_csv):
    """With file descriptor 1 closed Python sets sys.stdout to None: print
    writes nothing, and argparse writes the help to stderr."""
    argv = ["--help"] if command == "--help" else ["inspect-rules", "--data", str(labeled_csv)]
    done = _icewatch(argv, redirect=">&-")
    assert done.returncode == 0 and "Traceback" not in done.stderr
    assert done.stderr.startswith("usage: icewatch") if command == "--help" else done.stderr == ""


@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
@pytest.mark.parametrize(
    "argv, code",
    [(["ingest", "--scada", "missing.csv", "--windows", "missing.csv", "--out", "o.csv"], 3), (["no-command"], 2)],
    ids=["data-error", "usage-error"],
)
def test_an_error_that_stderr_cannot_take_keeps_its_code(argv, code, redirect, tmp_path):
    """With file descriptor 2 closed (sys.stderr is None) or open for
    reading only (its writes fail), the error line, and a usage error's
    usage line, are lost, not written to stdout, and the exit code is the
    error's."""
    done = _icewatch(argv, cwd=tmp_path, redirect=redirect)
    assert (done.returncode, done.stdout, done.stderr) == (code, "", "")


def test_a_usage_error_writes_nothing_to_stdout(capsys, monkeypatch):
    """A usage error writes argparse's usage line, then its error line, to
    stderr, and both are lost once sys.stderr is None: argparse alone
    would write the usage line to stdout."""
    assert main(["no-command"]) == 2
    choices = "'ingest', 'synth', 'features', 'experiment', 'predict', 'inspect-rules'"
    error = f"icewatch: error: argument command: invalid choice: 'no-command' (choose from {choices})\n"
    assert capsys.readouterr() == ("", cli.build_parser().format_usage() + error)
    monkeypatch.setattr(sys, "stderr", None)
    assert main(["no-command"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_help_into_a_full_device_is_a_data_error(unbuffered):
    """argparse swallows the OSError of its help's write, which unbuffered
    streams raise at the write; either way the help is output that could
    not be written. A usage error still exits 2."""
    done = _icewatch(["--help"], redirect=">/dev/full", unbuffered=unbuffered)
    assert done.returncode == 3 and done.stderr == f"data error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    done = _icewatch(["no-command"], redirect=">/dev/full", unbuffered=unbuffered)
    assert done.returncode == 2 and "invalid choice: 'no-command'" in done.stderr


class _FullStream(io.StringIO):
    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_stdout_that_fails_to_flush_is_a_data_error(capsys, monkeypatch):
    exits = []
    monkeypatch.setattr(os, "_exit", exits.append)
    monkeypatch.setattr(sys, "argv", ["icewatch", "--help"])
    monkeypatch.setattr(sys, "stdout", _FullStream())
    cli.entry()
    assert exits == [3]
    assert capsys.readouterr().err == f"data error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("code", [0, 2, 3])
def test_entry_ends_the_process_with_mains_code(code, monkeypatch):
    exits = []
    monkeypatch.setattr(os, "_exit", exits.append)
    monkeypatch.setattr(cli, "main", lambda: code)
    cli.entry()
    assert exits == [code]


def test_an_exception_from_main_leaves_entry_by_the_usual_path(monkeypatch):
    exits = []

    def main():
        raise ZeroDivisionError

    monkeypatch.setattr(os, "_exit", exits.append)
    monkeypatch.setattr(cli, "main", main)
    with pytest.raises(ZeroDivisionError):
        cli.entry()
    assert exits == []
