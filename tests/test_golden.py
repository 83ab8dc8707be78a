"""Golden guard: the smoke experiment's report.json and the labels its two
bundles give turbine B's raw stream are pinned. A change that moves them on
purpose regenerates the golden file and the digests and says why."""

import hashlib
import json
from pathlib import Path

from icewatch.cli import main
from icewatch.scada import write_scada_csv
from icewatch.synthgen import config_from_dict, make_turbine_pair, profile_from_dict

ROOT = Path(__file__).resolve().parent.parent
SMOKE = ROOT / "configs" / "experiment_smoke.json"
GOLDEN_REPORT = Path(__file__).resolve().parent / "golden" / "experiment_smoke.report.json"

# sha256 of the labels CSV written by `predict` with each smoke bundle
LABELS_SHA256 = {
    "traditional": "4ddf46c69d65e1e0d07e5717d6f1c2b9db40cdfc2ef98e46a115f58e85c805ad",
    "reengineered": "f859da214f211dc43c01329bc13ff99b4f26d9336335da8db0733043bdbd336a",
}


def test_smoke_report_and_predict_labels_unchanged(tmp_path):
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(SMOKE), "--out-dir", str(out), "--bundles"]) == 0
    assert (out / "report.json").read_bytes() == GOLDEN_REPORT.read_bytes()

    pair = json.loads(SMOKE.read_text())["data"]["pair"]
    _, turbine_b = make_turbine_pair(config_from_dict(pair["base"]), profile_from_dict(pair["profile"]))
    scada = tmp_path / "B.csv"
    write_scada_csv(turbine_b.records, scada)
    for variant, digest in LABELS_SHA256.items():
        labels = tmp_path / f"{variant}.labels.csv"
        argv = ["predict", "--bundle", str(out / f"{variant}.bundle.json"), "--scada", str(scada), "--out", str(labels)]
        assert main(argv) == 0
        assert hashlib.sha256(labels.read_bytes()).hexdigest() == digest, variant
