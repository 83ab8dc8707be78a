import dataclasses
import json
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import channel_matrix, dataset_labels, dataset_records, frame_of, make_record
from icewatch.cli import main
from icewatch.errors import EmptyClass, InvalidConfig, SegmentTooSmall
from icewatch.evaluation import derive_seed
from icewatch import pipeline
from icewatch.features import engineer_record, feature_vectors
from icewatch import learners
from icewatch.learners import NORMAL, LearnerConfig
from icewatch.pipeline import (
    ModelBundle,
    PipelineConfig,
    _test_parts,
    bundle_from_dict,
    bundle_to_dict,
    predict_stream,
    prepare,
    render_report_text,
    report_to_dict,
    run_reengineered,
    run_traditional,
    train_bundle,
)
from icewatch.preprocess import BalanceConfig, DenoiseConfig, denoise_dataset, drop_invalid
from icewatch.rules import (
    AUTO_NORMAL,
    HIGH,
    LOW,
    IntervalConstraint,
    IntervalRule,
    SegmentationConfig,
    builtin_rule,
)
from icewatch.scada import CHANNELS, Label, apply_label_windows
from icewatch.synthgen import SynthConfig, default_offset_profile, make_turbine_pair

SMOKE = Path(__file__).resolve().parent.parent / "configs" / "experiment_smoke.json"


def small_pair(duration=6000, seed=1):
    base = SynthConfig(duration=duration, seed=seed)
    a, b = make_turbine_pair(base, default_offset_profile())
    ds_a = apply_label_windows(a.records, a.truth_windows, "A")
    ds_b = apply_label_windows(b.records, b.truth_windows, "B")
    return base, ds_a, ds_b


def knn_common(seed=13, n_runs=2):
    return dict(
        learner=LearnerConfig(algorithm="knn"),
        denoise=DenoiseConfig(),
        balance=BalanceConfig(method="under", seed=seed),
        cv_k=5,
        n_runs=n_runs,
        master_seed=seed,
    )


def reengineered_cfg(**kw):
    common = knn_common()
    common.update(kw)
    return PipelineConfig(
        variant="reengineered",
        rule=builtin_rule("R5"),
        segmentation=SegmentationConfig(),
        **common,
    )


class TestConfigValidation:
    def test_reengineered_requires_rule_and_segmentation(self):
        with pytest.raises(InvalidConfig):
            PipelineConfig(variant="reengineered", **knn_common())

    def test_traditional_forbids_rule(self):
        with pytest.raises(InvalidConfig):
            PipelineConfig(variant="traditional", rule=builtin_rule("R5"), **knn_common())
        with pytest.raises(InvalidConfig):
            PipelineConfig(
                variant="traditional", segmentation=SegmentationConfig(), **knn_common()
            )

    def test_variant_mismatch_rejected_at_run(self):
        _, ds_a, ds_b = small_pair(duration=2000)
        cfg = PipelineConfig(variant="traditional", **knn_common())
        with pytest.raises(InvalidConfig):
            run_reengineered(ds_a, ds_b, cfg)


class TestTraditional:
    def test_single_run_has_zero_stds(self):
        _, ds_a, ds_b = small_pair()
        cfg = PipelineConfig(variant="traditional", **knn_common(n_runs=1))
        report = run_traditional(ds_a, ds_b, cfg)
        (cell,) = report.cells
        assert cell.segment == "all"
        assert cell.cv.std == 0.0 and cell.test.std == 0.0
        assert cell.cv.runs == 1

    def test_same_dataset_test_close_to_cv(self):
        _, ds_a, _ = small_pair()
        cfg = PipelineConfig(variant="traditional", **knn_common(n_runs=2))
        report = run_traditional(ds_a, ds_a, cfg)
        (cell,) = report.cells
        assert cell.test.mean >= cell.cv.mean - 5.0

    def test_deterministic_reports(self):
        _, ds_a, ds_b = small_pair()
        cfg = PipelineConfig(variant="traditional", **knn_common())
        r1 = report_to_dict(run_traditional(ds_a, ds_b, cfg))
        r2 = report_to_dict(run_traditional(ds_a, ds_b, cfg))
        assert r1 == r2

    def test_provenance_block(self):
        _, ds_a, ds_b = small_pair()
        cfg = PipelineConfig(variant="traditional", **knn_common(n_runs=1))
        report = run_traditional(ds_a, ds_b, cfg)
        doc = report_to_dict(report)
        assert doc["train_dataset"] == "A" and doc["test_dataset"] == "B"
        assert len(doc["run_seeds"]) == 1
        assert doc["config_hash"]
        assert doc["config"]["variant"] == "traditional"


class TestReengineered:
    def test_cells_present(self):
        _, ds_a, ds_b = small_pair()
        report = run_reengineered(ds_a, ds_b, reengineered_cfg())
        segments = [c.segment for c in report.cells]
        assert segments == ["low", "high", "pooled"]
        assert all(c.pipeline == "reengineered" for c in report.cells)

    def test_impossible_rule_raises_segment_too_small(self):
        _, ds_a, ds_b = small_pair(duration=2000)
        impossible = IntervalRule(
            "never", (IntervalConstraint("x4", upper=-1e9, upper_inclusive=False),)
        )
        cfg = reengineered_cfg()
        cfg = PipelineConfig(
            variant="reengineered",
            rule=impossible,
            segmentation=SegmentationConfig(),
            **knn_common(),
        )
        with pytest.raises(SegmentTooSmall):
            run_reengineered(ds_a, ds_b, cfg)

    def test_gate_partition_conserves_flow(self):
        _, ds_a, _ = small_pair()
        vectors = feature_vectors(prepare(ds_a, DenoiseConfig()))
        auto_labels, parts = _test_parts(ds_a, reengineered_cfg())
        total = len(auto_labels) + sum(len(y) for _, y in parts.values())
        assert total == len(vectors)

    def test_deterministic(self):
        _, ds_a, ds_b = small_pair()
        r1 = report_to_dict(run_reengineered(ds_a, ds_b, reengineered_cfg()))
        r2 = report_to_dict(run_reengineered(ds_a, ds_b, reengineered_cfg()))
        assert r1 == r2


def same_predictions(a, b):
    """Bitwise-equal time, label and flag arrays."""
    return all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in ((a.time, b.time), (a.label, b.label), (a.flagged, b.flagged))
    )


class TestBundle:
    def test_round_trip(self):
        _, ds_a, _ = small_pair()
        bundle = train_bundle(ds_a, reengineered_cfg())
        back = bundle_from_dict(bundle_to_dict(bundle))
        stream = ds_a.take(slice(200))
        assert same_predictions(predict_stream(back, stream), predict_stream(bundle, stream))

    def test_bundle_json_serializable(self):
        _, ds_a, _ = small_pair()
        bundle = train_bundle(ds_a, PipelineConfig(variant="traditional", **knn_common()))
        json.dumps(bundle_to_dict(bundle))


class TestPredictStream:
    def test_rule_failure_predicts_normal(self):
        base, ds_a, _ = small_pair()
        bundle = train_bundle(ds_a, reengineered_cfg())
        # constant stream far outside R5 (wind speed 5 violates x4 < 2)
        stream = frame_of([make_record(time=i * 7, wind_speed=5.0) for i in range(30)])
        predictions = predict_stream(bundle, stream)
        assert len(predictions) == 30 and (predictions.label == NORMAL).all()

    def test_partial_window_records_flagged(self):
        _, ds_a, _ = small_pair()
        bundle = train_bundle(ds_a, reengineered_cfg())
        stream = ds_a.take(slice(25))
        predictions = predict_stream(bundle, stream)
        assert predictions.flagged[:9].all()
        assert not predictions.flagged[9:].any()
        assert predictions.time.tolist() == [r.time for r in dataset_records(stream)]

    def test_constant_benign_stream_is_all_normal(self):
        # a constant stream pinned at the median healthy operating point
        base, ds_a, _ = small_pair()
        bundle = train_bundle(ds_a, reengineered_cfg())
        healthy = [r for r, label in zip(dataset_records(ds_a), dataset_labels(ds_a)) if label is Label.NORMAL]
        medians = np.median(channel_matrix(healthy), axis=0)
        point = {ch: float(medians[i]) for i, ch in enumerate(CHANNELS)}
        stream = frame_of([make_record(time=i * 7, **point) for i in range(50)])
        predictions = predict_stream(bundle, stream)
        assert len(predictions) == 50 and (predictions.label == NORMAL).all()

    def test_degenerate_record_predicts_normal_flagged(self):
        _, ds_a, _ = small_pair()
        bundle = train_bundle(ds_a, PipelineConfig(variant="traditional", **knn_common()))
        stream = frame_of([make_record(time=0, wind_speed=-5.0)])
        p = predict_stream(bundle, stream)
        assert len(p) == 1 and p.label[0] == NORMAL and p.flagged[0]

    def test_traditional_bundle_ignores_rules(self):
        _, ds_a, ds_b = small_pair()
        bundle = train_bundle(ds_a, PipelineConfig(variant="traditional", **knn_common()))
        assert bundle.rule is None and bundle.segmentation is None
        stream = ds_b.take(slice(100))
        first = predict_stream(bundle, stream)
        second = predict_stream(bundle, stream)
        assert same_predictions(first, second)

    @pytest.mark.parametrize(
        "denoise", [DenoiseConfig(), DenoiseConfig(window=7, channels=("power", "wind_speed", "pitch2_angle"))]
    )
    def test_smoothing_matches_training_kernel(self, denoise, monkeypatch):
        # past warm-up, predict smooths an all-valid stream bitwise as
        # training's denoise_dataset does
        _, ds_a, ds_b = small_pair()
        bundle = train_bundle(ds_a, PipelineConfig(variant="traditional", **knn_common()))
        bundle = dataclasses.replace(bundle, denoise=denoise)
        stream = drop_invalid(ds_b)
        seen = []

        def spy(record):
            seen.append(record)
            return engineer_record(record)

        monkeypatch.setattr(pipeline, "engineer_record", spy)
        predict_stream(bundle, stream)
        expected = denoise_dataset(stream, denoise)
        (columns,) = seen  # the smoothed stream, one column per attribute
        smoothed = np.column_stack([getattr(columns, ch) for ch in CHANNELS])[denoise.window - 1 :]
        assert columns.time[denoise.window - 1 :].tolist() == expected.time.tolist()
        assert smoothed.tobytes() == expected.channels.tobytes()

    def test_empty_stream(self):
        _, ds_a, _ = small_pair()
        bundle = train_bundle(ds_a, PipelineConfig(variant="traditional", **knn_common()))
        predictions = predict_stream(bundle, frame_of([]))
        assert len(predictions) == 0 and predictions.label.size == predictions.flagged.size == 0

    @pytest.mark.parametrize("variant", ["traditional", "reengineered"])
    def test_label_arrays_from_one_call_per_route(self, variant, monkeypatch):
        _, ds_a, ds_b = small_pair()
        cfg = reengineered_cfg() if variant == "reengineered" else PipelineConfig(variant="traditional", **knn_common())
        bundle = train_bundle(ds_a, cfg)
        stream = drop_invalid(ds_b)  # no degenerate record
        n = len(stream)
        calls, seen = [], {}
        predict = learners.predict

        def spy(model, X):
            calls.append((model, X.copy()))
            return predict(model, X)

        def keep(name):  # record what pipeline.<name> returns
            fn = getattr(pipeline, name)

            def wrapper(*args):
                seen[name] = out = fn(*args)
                return out

            monkeypatch.setattr(pipeline, name, wrapper)

        unspied = predict_stream(bundle, stream)
        monkeypatch.setattr(learners, "predict", spy)
        keep("assemble_feature_vector")
        keep("gate")
        predictions = predict_stream(bundle, stream)
        assert same_predictions(predictions, unspied)
        assert len(predictions) == n
        assert (predictions.time.dtype, predictions.label.dtype, predictions.flagged.dtype) == (np.int64, np.int8, bool)
        assert set(predictions.label.tolist()) <= {0, 1}
        assert predictions.flagged.tolist() == [i < bundle.denoise.window - 1 for i in range(n)]
        # one call per non-empty route, on that route's rows in ascending
        # order; rows failing the rule are auto-normal and reach no model
        X = seen["assemble_feature_vector"]
        if variant == "traditional":
            assert "gate" not in seen
            routes = [(bundle.models["all"], np.arange(n))]
        else:
            route = seen["gate"]
            routes = [(bundle.models[part], np.flatnonzero(route == code)) for part, code in (("low", LOW), ("high", HIGH))]
            routes = [(model, rows) for model, rows in routes if rows.size]
            assert (predictions.label[route == AUTO_NORMAL] == NORMAL).all()
            assert 0 < sum(rows.size for _, rows in routes) < n
        assert len(calls) == len(routes)
        for (model, X_call), (want, rows) in zip(calls, routes):
            assert model is want
            assert X_call.shape == (rows.size, 10) and X_call.tobytes() == X[rows].tobytes()
            # each label is the one today's one-row call gives
            assert predictions.label[rows].tolist() == [int(learners.predict_batch(model, x)[0]) for x in X[rows]]

    def test_all_auto_normal_stream_makes_no_learner_call(self, monkeypatch):
        _, ds_a, _ = small_pair()
        bundle = train_bundle(ds_a, reengineered_cfg())
        calls = []
        monkeypatch.setattr(learners, "predict", lambda *args: calls.append(args))
        monkeypatch.setattr(learners, "predict_batch", lambda *args, **kwargs: calls.append(args))
        # constant stream far outside R5 (wind speed 5 violates x4 < 2)
        stream = frame_of([make_record(time=i * 7, wind_speed=5.0) for i in range(30)])
        predictions = predict_stream(bundle, stream)
        assert calls == []
        assert predictions.label.tolist() == [NORMAL] * 30


def test_traditional_raw_channel_baseline():
    _, ds_a, ds_b = small_pair()
    common = knn_common(n_runs=1)
    engineered = run_traditional(ds_a, ds_b, PipelineConfig(variant="traditional", **common))
    raw = run_traditional(
        ds_a, ds_b, PipelineConfig(variant="traditional", traditional_raw_features=True, **common)
    )
    assert raw.cells[0].test.runs == 1
    assert raw.config["traditional_raw_features"] is True
    assert raw.config_hash != engineered.config_hash


def test_render_report_text():
    _, ds_a, ds_b = small_pair()
    cfg = PipelineConfig(variant="traditional", **knn_common(n_runs=1))
    report = run_traditional(ds_a, ds_b, cfg)
    text = render_report_text([report])
    assert "Train: A  Test: B" in text
    assert "traditional" in text and "cv" in text and "test" in text


# --- seeded runs side by side -----------------------------------------------------


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPU count _map_runs sees, through the affinity mask it reads."""
    return lambda w: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(w)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_map_runs_equals_the_list_comprehension(cpus, n, w):
    cpus(w)

    def one_run(i):
        return i, i / 7, {Label.ABNORMAL: np.float64(i) ** 0.5}

    assert pipeline._map_runs(one_run, n) == [one_run(i) for i in range(n)]
    assert_no_child_left()


def test_map_runs_uses_one_process_per_cpu_up_to_n(cpus):
    cpus(3)
    pids = pipeline._map_runs(lambda i: os.getpid(), 5)
    # contiguous shares [0] [1 2] [3 4]; the parent computes the first
    assert pids[0] == os.getpid()
    assert pids[1] == pids[2] and pids[3] == pids[4] and len({pids[0], pids[1], pids[3]}) == 3
    cpus(8)
    assert len(set(pipeline._map_runs(lambda i: os.getpid(), 2))) == 2
    assert_no_child_left()


def test_map_runs_recomputes_the_share_of_a_killed_child(cpus):
    cpus(2)
    parent = os.getpid()

    def one_run(i):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return i * i

    assert pipeline._map_runs(one_run, 3) == [0, 1, 4]
    assert_no_child_left()


def test_map_runs_kills_and_reaps_children_when_the_parent_is_interrupted(cpus):
    cpus(2)
    parent = os.getpid()

    def one_run(i):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        pipeline._map_runs(one_run, 2)
    assert time.perf_counter() - started < 30
    assert_no_child_left()


def test_an_error_in_a_childs_share_exits_as_the_sequential_loop_does(cpus, monkeypatch, tmp_path, capsys):
    base = SynthConfig(duration=6000, seed=1)
    doc = {
        "data": {"pair": {"base": dataclasses.asdict(base), "profile": dataclasses.asdict(default_offset_profile())}},
        "variants": ["traditional"],
        "learner": {"algorithm": "cart"},
        "balance": {"method": "under", "seed": 1},
        "n_runs": 2,
    }
    config = tmp_path / "exp.json"
    config.write_text(json.dumps(doc))
    failing_seed = derive_seed(1, 1)  # the balance draw of run 1, the child's share
    calls = tmp_path / "calls"
    balance_order = pipeline._balance_order

    def failing_on_run_1(y, cfg, seed):
        if seed == failing_seed:
            with open(calls, "a") as f:
                f.write(f"{os.getpid()}\n")
            raise EmptyClass("abnormal")
        return balance_order(y, cfg, seed)

    monkeypatch.setattr(pipeline, "_balance_order", failing_on_run_1)
    outcomes = []
    for w in (1, 2):
        cpus(w)
        code = main(["experiment", "--config", str(config), "--out-dir", str(tmp_path / f"out{w}")])
        outcomes.append((code, capsys.readouterr().err))
    assert outcomes == [(3, "data error: dataset has no abnormal records\n")] * 2
    # sequentially the parent fails; side by side the child fails first, then
    # the parent again on recomputing the child's share
    first, child, again = calls.read_text().split()
    assert first == again == str(os.getpid()) != child
    assert_no_child_left()


def test_smoke_report_is_identical_for_any_worker_count(cpus, tmp_path):
    reports = []
    for w in (1, 2):
        cpus(w)
        out = tmp_path / f"out{w}"
        assert main(["experiment", "--config", str(SMOKE), "--out-dir", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
