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
from icewatch import learners
from icewatch.cli import main
from icewatch.pipeline import bundle_from_dict, predict_stream
from icewatch.scada import (
    CHANNELS,
    COLUMNS,
    LABELS,
    Frame,
    Label,
    parse_scada_csv,
    write_labeled_csv,
    write_scada_csv,
)
from icewatch.synthgen import SynthConfig, default_offset_profile

SRC = str(Path(__file__).resolve().parent.parent / "src")


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


def _predict_scada_not_utf8(tmp_path):
    _bytes(tmp_path / "B.csv", b"time,\xff\n")
    return _predict(tmp_path, {"denoise": {"window": 2}, "model": _knn_model([[0.0] * 10], mean=[0.0] * 10)})


NAN_BOUND = [{"feature": "x4", "upper": float("nan")}]


# (argv builder, exit code, expected part of the message)
MALFORMED = {
    "knn_k-string": (
        lambda t: _experiment(t, learner={"algorithm": "knn", "knn_k": "3"}), 2,
        "learner.knn_k: expected int, got '3'",
    ),
    "balance-smote": (lambda t: _experiment(t, balance={"method": "smote"}), 2, "balance: balance method"),
    "unknown-wind-key": (
        lambda t: _experiment(t, data={"pair": {"base": {"wind": {"gusts": 1.0}}}}), 2,
        "data.pair.base.wind.gusts: unknown key",
    ),
    "top-level-n_run": (lambda t: _experiment(t, n_run=2), 2, "n_run: unknown key"),
    "cv_k-string": (lambda t: _experiment(t, cv_k="5"), 2, "cv_k: expected int, got '5'"),
    "mlp-learning-rate-nan": (
        lambda t: _experiment(t, learner={"algorithm": "mlp", "mlp_learning_rate": math.nan}), 2,
        "learner: mlp_learning_rate must be finite and positive, got nan",
    ),
    "mlp-init-scale-inf": (
        lambda t: _experiment(t, learner={"algorithm": "mlp", "mlp_init_scale": math.inf}), 2,
        "learner: mlp_init_scale must be finite and positive, got inf",
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
    "bundle-without-denoise": (lambda t: _predict(t, {"model": {}}), 2, "bundle is missing key 'denoise'"),
    "bundle-without-model": (lambda t: _predict(t, {"denoise": {"window": 10}}), 2, "bundle is missing key 'model'"),
    "bundle-not-object": (
        lambda t: ["predict", "--bundle", _file(t / "b.json", "[1,2]"), "--scada", "B.csv", "--out", str(t / "l.csv")], 2,
        "a bundle must be a JSON object, got list",
    ),
    "bundle-rule-not-object": (
        lambda t: _predict(t, {"variant": "reengineered", "denoise": {"window": 10}, "rule": [1], "segment_threshold": 0}), 2,
        "bundle rule: expected an object, got [1]",
    ),
    "bundle-model-not-object": (
        lambda t: _predict(t, {"denoise": {"window": 10}, "model": [1]}), 2, "a model must be a JSON object, got list",
    ),
    "bundle-knn-width-mismatch": (
        lambda t: _predict(t, {"denoise": {"window": 10}, "model": _knn_model([[1, 2]], mean=[0])}), 2,
        "knn model: 2 columns but 1 standardized features",
    ),
    "bundle-cart-threshold-string": (
        lambda t: _predict(t, {"denoise": {"window": 10}, "model": _cart_model(threshold="nan")}), 2,
        "cart model: malformed tree node: threshold must be a finite number, got 'nan'",
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
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_with_one_line(case, tmp_path, capsys):
    build, expected_code, message = MALFORMED[case]
    argv = build(tmp_path)
    capsys.readouterr()
    assert main(argv) == expected_code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith("config error:" if expected_code == 2 else "data error:")
    assert message in line


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


def test_package_reexports_the_record_types():
    import icewatch
    from icewatch import scada

    for name in ("Frame", "Label", "LabeledDataset"):
        assert getattr(icewatch, name) is getattr(scada, name)
