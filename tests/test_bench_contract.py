"""The benchmark under perfbench/ reaches into icewatch by attribute name:
the tracer wraps the bindings in ``BINDINGS`` and the set-up calls a few
helpers directly. A refactor that deletes or renames one of them fails
here instead of first inside a traced benchmark run."""

import importlib
import json
import os
from pathlib import Path

import pytest

from conftest import PERFBENCH, load_perfbench
from icewatch import cli, pipeline, scada, synthgen

SMOKE = PERFBENCH.parent / "configs" / "experiment_smoke.json"  # KNN, two runs


def test_traced_bindings_resolve():
    tracer = load_perfbench("tracer")
    spans = set()
    for module_name, attrs in tracer.BINDINGS.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr} is gone"
            spans.add(tracer.span_name(getattr(module, attr)))
    layers = json.loads((PERFBENCH / "layers.json").read_text())
    for workload, spec in layers.items():
        if isinstance(spec, dict):
            assert set(spec["expect_calls"]) <= spans, workload


def _assert_expected_layers_called(config: Path, workload: str, tmp_path, monkeypatch):
    """A traced two-run experiment of `config` records a span for every
    layer that layers.json expects of `workload`."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # two processes for the two runs
    tracer = load_perfbench("tracer").Tracer()
    tracer.install()
    try:
        code = cli.main(["experiment", "--config", str(config), "--out-dir", str(tmp_path / "out"), "--bundles"])
    finally:
        assert tracer.restore() == []
    assert code == 0
    expected = json.loads((PERFBENCH / "layers.json").read_text())[workload]["expect_calls"]
    called = {span.name for span in tracer.spans}
    assert [name for name in expected if name not in called] == []
    # the tracer's ROWS lambdas count rows where these layers return them
    rows = {name: [(s.rows_in, s.rows_out) for s in tracer.spans if s.name == name] for name in called}
    assert all(rows_out == rows_in > 2 for rows_in, rows_out in rows["features.feature_vectors"])
    for name in ("rules.strong_rule_filter", "rules.segment"):
        assert all(0 < rows_out <= rows_in for rows_in, rows_out in rows[name]), name


def test_expected_layers_are_called_with_runs_side_by_side(tmp_path, monkeypatch):
    """Seeded runs fork (pipeline._map_runs), and a child's spans stay in the
    child. The parent computes a share of the runs itself, so a traced run
    still records every layer experiment-knn expects; a pool whose parent
    only waits would fail here."""
    _assert_expected_layers_called(SMOKE, "experiment-knn", tmp_path, monkeypatch)


def test_expected_mlp_layers_are_called_with_runs_side_by_side(tmp_path, monkeypatch):
    """The same on the smoke config with a 2-epoch MLP, against
    experiment-mlp's expected layers: an MLP path that bypasses
    learners.train or crossval_fold_scores fails here."""
    doc = json.loads(SMOKE.read_text())
    doc["learner"].update(algorithm="mlp", mlp_epochs=2)
    config = tmp_path / "experiment_smoke_mlp.json"
    config.write_text(json.dumps(doc))
    _assert_expected_layers_called(config, "experiment-mlp", tmp_path, monkeypatch)


@pytest.mark.parametrize("seed", [13, 0])
def test_setup_helpers_accept_every_workload_config(seed):
    run = load_perfbench("run")
    for workload in run.WORKLOADS:
        doc, _ = run.workload_config(workload, seed)
        assert set(cli._pipeline_configs(doc)) == {"traditional", "reengineered"}
        pair = doc["data"]["pair"]
        synthgen.config_from_dict(pair["base"])
        synthgen.profile_from_dict(pair["profile"])


def test_setup_chain_on_a_short_pair(tmp_path):
    """The calls the predict-stream set-up makes, then one operation's parse
    and predict, on a short pair. Each result goes through the tracer's ROWS
    lambda for its span, which takes len() of the records it sees."""
    rows = load_perfbench("tracer").ROWS
    doc, _ = load_perfbench("run").workload_config("predict-stream", 13)
    pair = doc["data"]["pair"]
    pair["base"]["duration"] = n = 2000
    args = (synthgen.config_from_dict(pair["base"]), synthgen.profile_from_dict(pair["profile"]))
    turbine_a, turbine_b = pair_out = synthgen.make_turbine_pair(*args)
    assert rows["synthgen.make_turbine_pair"](args, pair_out) == (2 * n, 2 * n)

    path = tmp_path / "B.csv"
    scada.write_scada_csv(turbine_b.records, path)
    assert rows["scada.write_scada_csv"]((turbine_b.records, path), None) == (n, n)
    stream = scada.parse_scada_csv(path)
    assert rows["scada.parse_scada_csv"]((path,), stream) == (n, n)

    args = (turbine_a.records, turbine_a.truth_windows, "A")
    train = scada.apply_label_windows(*args)
    assert rows["scada.apply_label_windows"](args, train) == (n, n)
    for variant, cfg in cli._pipeline_configs(doc).items():
        bundle_doc = json.loads(json.dumps(pipeline.bundle_to_dict(pipeline.train_bundle(train, cfg))))
        bundle = pipeline.bundle_from_dict(bundle_doc)
        predictions = pipeline.predict_stream(bundle, stream)
        assert rows["pipeline.predict_stream"]((bundle, stream), predictions) == (n, n), variant


# the predict-stream layers that one operation calls itself; the rest of
# its expect_calls belong to the set-up
PREDICT_OPERATION_LAYERS = [
    "cli.main",
    "scada.parse_scada_csv",
    "pipeline.bundle_from_dict",
    "pipeline.predict_stream",
    "features.engineer_record",
    "features.assemble_feature_vector",
    "rules.gate",
    "learners.predict",
    "learners.predict_batch",
]


def test_predict_operation_calls_every_expected_layer(tmp_path):
    """A traced predict-stream operation, `icewatch predict` with each
    short-pair bundle, records a span for every layer of the operation
    that layers.json expects, and calls the learner once per route (one
    model, or the low and high models), not once per record."""
    tracer_module = load_perfbench("tracer")
    expected = json.loads((PERFBENCH / "layers.json").read_text())["predict-stream"]["expect_calls"]
    assert set(PREDICT_OPERATION_LAYERS) <= set(expected)
    doc, _ = load_perfbench("run").workload_config("predict-stream", 13)
    pair = doc["data"]["pair"]
    pair["base"]["duration"] = n = 2000
    turbine_a, turbine_b = synthgen.make_turbine_pair(
        synthgen.config_from_dict(pair["base"]), synthgen.profile_from_dict(pair["profile"])
    )
    scada.write_scada_csv(turbine_b.records, tmp_path / "B.csv")
    train = scada.apply_label_windows(turbine_a.records, turbine_a.truth_windows, "A")
    called = set()
    for variant, cfg in cli._pipeline_configs(doc).items():
        bundle_path = tmp_path / f"{variant}.bundle.json"
        bundle_path.write_text(json.dumps(pipeline.bundle_to_dict(pipeline.train_bundle(train, cfg))))
        argv = ["predict", "--bundle", str(bundle_path), "--scada", str(tmp_path / "B.csv"),
                "--out", str(tmp_path / f"{variant}.labels.csv")]
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            code = cli.main(argv)
        finally:
            assert tracer.restore() == []
        assert code == 0
        names = [span.name for span in tracer.spans]
        called.update(names)
        routes = 1 if variant == "traditional" else 2
        assert 1 <= names.count("learners.predict") == names.count("learners.predict_batch") <= routes, variant
        batches = [(s.rows_in, s.rows_out) for s in tracer.spans if s.name == "learners.predict_batch"]
        assert all(rows_in == rows_out > 0 for rows_in, rows_out in batches)
        assert sum(rows_in for rows_in, _ in batches) <= n
    assert [name for name in PREDICT_OPERATION_LAYERS if name not in called] == []
