"""The benchmark under perfbench/ reaches into icewatch by attribute name:
the tracer wraps the bindings in ``BINDINGS`` and the set-up calls a few
helpers directly. A refactor that deletes or renames one of them fails
here instead of first inside a traced benchmark run."""

import importlib
import json

import pytest

from conftest import PERFBENCH, load_perfbench
from icewatch import cli, synthgen


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


@pytest.mark.parametrize("seed", [13, 0])
def test_setup_helpers_accept_every_workload_config(seed):
    run = load_perfbench("run")
    for workload in run.WORKLOADS:
        doc, _ = run.workload_config(workload, seed)
        assert set(cli._pipeline_configs(doc)) == {"traditional", "reengineered"}
        pair = doc["data"]["pair"]
        synthgen.config_from_dict(pair["base"])
        synthgen.profile_from_dict(pair["profile"])
