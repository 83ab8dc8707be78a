"""Golden guard: the smoke experiment's report.json and bundles, the labels
its two bundles give turbine B's raw stream, the files `ingest` and
`features --balance under` write for turbine A, what `inspect-rules` prints
for turbine A, and the report.json and bundles of the benchmark's MLP and
CART experiments are pinned. A change that moves them
on purpose regenerates the golden file and the digests and says why."""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import load_perfbench
from icewatch.cli import main
from icewatch.scada import write_label_windows_csv, write_scada_csv
from icewatch.synthgen import config_from_dict, make_turbine_pair, profile_from_dict

ROOT = Path(__file__).resolve().parent.parent
SMOKE = ROOT / "configs" / "experiment_smoke.json"
GOLDEN_REPORT = Path(__file__).resolve().parent / "golden" / "experiment_smoke.report.json"

# sha256 of the labels CSV written by `predict` with each smoke bundle
LABELS_SHA256 = {
    "traditional": "4ddf46c69d65e1e0d07e5717d6f1c2b9db40cdfc2ef98e46a115f58e85c805ad",
    "reengineered": "f859da214f211dc43c01329bc13ff99b4f26d9336335da8db0733043bdbd336a",
}

# sha256 of each bundle the smoke experiment writes
BUNDLE_SHA256 = {
    "traditional": "ae7ff4fe199dc4fde733eb138fc03a570d0a546ef1b3ca5f465c452b667ab0a5",
    "reengineered": "4eeb39195242a7df86ae546d7f5535b86a4b2c8d4c4a6cae1bf2238b3fa64098",
}

# sha256 of turbine A's labeled CSV from `ingest` and of its feature CSV
# from `features --balance under`
INGEST_SHA256 = "9148ce36b3db0a3be96a7309a0066c65b6121c3dc20e6d887d0c61fc2921d5ef"
FEATURES_UNDER_SHA256 = "ca83a15f67c11105289b58dcbd3d406fd33bc9b3920b597366375181b0e49240"

# sha256 of report.json from two benchmark workload configs at seed 13,
# as in perfbench/reference.json; the MLP one catches drift in the bits of
# trained weights, which the smoke experiment (KNN) does not exercise
WORKLOAD_REPORT_SHA256 = {
    "experiment-mlp": "fee90479dd85381c4596f1df8c6ab41deae7e0fa7e69782102644f618302adf8",
    "experiment-cart": "5d36a94098f5e4ebd118938fce4027a536ed9eb93c15c2c72c93c438efcac734",
}

# sha256 of the traditional and re-engineered bundles of those workloads
WORKLOAD_BUNDLE_SHA256 = {
    "experiment-mlp": (
        "a58f6fa40eea3d684507a83d670bc6d515a0d782c09972336ed39fac8d1b6947",
        "fafffce1d0e1dc33b3c5d68577b419ba96ea43e04cb16cd5b9e212886ccdad62",
    ),
    "experiment-cart": (
        "d9f26dcfeb772464f3f86c825fe6aac4fcfaf682f5839638d46f20f9706ee412",
        "86987f5e3e0f072d82ff8b27077ee690709e83097dc76a8864bef64de85012ea",
    ),
}

# `inspect-rules` on turbine A's labeled CSV
INSPECT_RULES_STDOUT = """\
R1: 7911/7911 pass (100.0%), abnormal captured 795/795 (100.0%)
R2: 6644/7911 pass (84.0%), abnormal captured 711/795 (89.4%)
R3: 6644/7911 pass (84.0%), abnormal captured 711/795 (89.4%)
R4: 6520/7911 pass (82.4%), abnormal captured 787/795 (99.0%)
R5: 6345/7911 pass (80.2%), abnormal captured 787/795 (99.0%)
"""


def _smoke_pair():
    pair = json.loads(SMOKE.read_text())["data"]["pair"]
    return make_turbine_pair(config_from_dict(pair["base"]), profile_from_dict(pair["profile"]))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_smoke_report_and_predict_labels_unchanged(tmp_path):
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(SMOKE), "--out-dir", str(out), "--bundles"]) == 0
    assert (out / "report.json").read_bytes() == GOLDEN_REPORT.read_bytes()
    for variant, digest in BUNDLE_SHA256.items():
        assert _sha256(out / f"{variant}.bundle.json") == digest, variant

    _, turbine_b = _smoke_pair()
    scada = tmp_path / "B.csv"
    write_scada_csv(turbine_b.records, scada)
    for variant, digest in LABELS_SHA256.items():
        labels = tmp_path / f"{variant}.labels.csv"
        argv = ["predict", "--bundle", str(out / f"{variant}.bundle.json"), "--scada", str(scada), "--out", str(labels)]
        assert main(argv) == 0
        assert _sha256(labels) == digest, variant


def _ingest_turbine_a(tmp_path) -> Path:
    turbine_a, _ = _smoke_pair()
    scada, windows, labeled = tmp_path / "A.csv", tmp_path / "windows.csv", tmp_path / "A.labeled.csv"
    write_scada_csv(turbine_a.records, scada)
    write_label_windows_csv(turbine_a.truth_windows, windows)
    assert main(["ingest", "--scada", str(scada), "--windows", str(windows), "--turbine-id", "A", "--out", str(labeled)]) == 0
    return labeled


def test_smoke_ingest_and_features_unchanged(tmp_path):
    labeled = _ingest_turbine_a(tmp_path)
    assert _sha256(labeled) == INGEST_SHA256
    features = tmp_path / "features.csv"
    assert main(["features", "--data", str(labeled), "--balance", "under", "--out", str(features)]) == 0
    assert _sha256(features) == FEATURES_UNDER_SHA256


def test_smoke_inspect_rules_unchanged(tmp_path, capsys):
    labeled = _ingest_turbine_a(tmp_path)
    capsys.readouterr()
    assert main(["inspect-rules", "--data", str(labeled)]) == 0
    assert capsys.readouterr().out == INSPECT_RULES_STDOUT


@pytest.mark.parametrize("workload", sorted(WORKLOAD_REPORT_SHA256))
def test_benchmark_workload_report_unchanged(workload, tmp_path):
    doc, _ = load_perfbench("run").workload_config(workload, 13)
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(config), "--out-dir", str(out), "--bundles"]) == 0
    assert _sha256(out / "report.json") == WORKLOAD_REPORT_SHA256[workload]
    bundles = tuple(_sha256(out / f"{variant}.bundle.json") for variant in ("traditional", "reengineered"))
    assert bundles == WORKLOAD_BUNDLE_SHA256[workload]
