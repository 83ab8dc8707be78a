import copy
import dataclasses
import json
import math
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from icewatch import learners, pipeline, synthgen
from icewatch.cli import ExperimentConfig, _experiment_config, _pipeline_configs, main
from icewatch.errors import InvalidConfig
from icewatch.learners import LearnerConfig
from icewatch.pipeline import PipelineConfig
from icewatch.preprocess import DenoiseConfig
from icewatch.rules import IntervalConstraint, IntervalRule, builtin_rule
from icewatch.schema import NOT_NEGATIVE, array, check, from_dict, read_json, to_dict
from icewatch.synthgen import IcingTrigger, OffsetProfile, PairConfig, SynthConfig, WindModel


def test_float_field_accepts_int():
    cfg = from_dict(LearnerConfig, {"algorithm": "mlp", "mlp_learning_rate": 1})
    assert cfg.mlp_learning_rate == 1.0 and type(cfg.mlp_learning_rate) is float


def test_nested_tuples_and_dicts():
    learner = from_dict(LearnerConfig, {"algorithm": "mlp", "mlp_hidden": [8, 4]})
    assert learner.mlp_hidden == (8, 4)
    synth = from_dict(SynthConfig, {"desensitize": {"power": [2, -0.5]}, "wind": {"mean": 6}})
    assert synth.desensitize == {"power": (2.0, -0.5)} and synth.wind.mean == 6.0


@pytest.mark.parametrize(
    "cls, doc, message",
    [
        (LearnerConfig, {}, "algorithm: missing"),
        (LearnerConfig, {"algorithm": "knn", "knn_k": True}, "knn_k: expected int, got True"),
        (LearnerConfig, {"algorithm": "mlp", "mlp_hidden": [8, "4"]}, "mlp_hidden[1]: expected int, got '4'"),
        (SynthConfig, {"desensitize": {"power": [1.0]}}, "desensitize.power: expected 2 items, got 1"),
        (SynthConfig, [], "top level: expected object, got []"),
        (PairConfig, {"base": {"wind": {"gusts": 1}}}, "base.wind.gusts: unknown key"),
        (PairConfig, {"base": {"duration": 0}}, "base: duration must be >= 1, got 0"),
    ],
)
def test_rejections_name_the_dotted_path(cls, doc, message):
    with pytest.raises(InvalidConfig) as info:
        from_dict(cls, doc)
    assert str(info.value) == message


# --- declared domains ------------------------------------------------------------


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SynthConfig(wind=WindModel(persistence=1.0)), "wind.persistence must be in [0, 1), got 1.0"),
        (lambda: SynthConfig(trigger=IcingTrigger(hazard=-0.5)), "trigger.hazard must be in [0, 1], got -0.5"),
        (lambda: LearnerConfig("svm"), "algorithm must be one of 'knn', 'cart', 'mlp', got 'svm'"),
        (lambda: LearnerConfig("mlp", mlp_hidden=(8, 0)), "mlp_hidden[1] must be >= 1, got 0"),
        (lambda: LearnerConfig("mlp", mlp_learning_rate=0.0), "mlp_learning_rate must be > 0, got 0.0"),
        (lambda: OffsetProfile(scale={"power": 0.0}), "scale.power must be nonzero, got 0.0"),
        (
            lambda: PipelineConfig(
                variant="reengineered", learner=LearnerConfig("knn"), rule=builtin_rule("R5"), segment_threshold=math.inf
            ),
            "segment_threshold must be a finite number, got inf",
        ),
        (
            lambda: PipelineConfig(variant="hybrid", learner=LearnerConfig("knn")),
            "variant must be one of 'traditional', 'reengineered', got 'hybrid'",
        ),
    ],
    ids=["range-half-open", "range-closed", "choice", "tuple-item", "positive", "dict-value", "finite", "variant"],
)
def test_configs_built_in_python_are_checked(build, message):
    with pytest.raises(InvalidConfig) as info:
        build()
    assert str(info.value) == message


def test_rule_bounds_may_be_infinite():
    constraint = IntervalConstraint("x4", lower=-math.inf, upper=math.inf)
    check(IntervalRule("R", (constraint,)))  # a check over an enclosing config takes the infinities too


def _types(hint):
    """`hint` and every type nested in it."""
    yield hint
    for arg in typing.get_args(hint):
        yield from _types(arg)


def _hints(cls) -> dict:
    return typing.get_type_hints(cls, localns={"synthgen": synthgen})  # DataConfig.pair names the module


def _config_classes(*roots) -> list:
    """Every dataclass reachable from `roots` through field annotations."""
    found, todo = [], list(roots)
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.append(cls)
            todo += [t for hint in _hints(cls).values() for t in _types(hint) if dataclasses.is_dataclass(t)]
    return found


CONFIG_CLASSES = _config_classes(
    ExperimentConfig, PairConfig, PipelineConfig, DenoiseConfig, IntervalConstraint,
    pipeline.ModelBundle, learners.CartModel, learners.MlpModel,  # the model and bundle documents
    learners._Node,  # a CART root, whose Annotated node table hides it
)


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_every_numeric_field_declares_its_domain(cls):
    """An int or float field, or a tuple or dict of them, declares its
    domain next to the field; an int with no bound declares ANY."""
    hints = _hints(cls)
    undeclared = [
        f.name for f in dataclasses.fields(cls) if {int, float} & set(_types(hints[f.name])) and "domain" not in f.metadata
    ]
    assert undeclared == []


def test_config_classes_are_found():
    names = {cls.__name__ for cls in CONFIG_CLASSES}
    assert {"DataConfig", "LearnerConfig", "BalanceConfig", "SynthConfig", "WindModel", "OffsetProfile"} <= names
    assert {"IntervalRule", "IntervalConstraint"} <= names
    assert {"KnnModel", "CartModel", "MlpModel", "StandardizationParams", "_Node", "_BundleDenoise"} <= names


# --- every numeric field at extreme values -----------------------------------------

GRID = (math.nan, math.inf, -math.inf, 10**400, -1, 0, 2**63)
SMOKE = json.loads((Path(__file__).resolve().parent.parent / "configs" / "experiment_smoke.json").read_text())


def _numeric_leaves(value, path=()):
    """The paths to the int and float values of a config, through its
    dataclass fields, tuple items and dict values."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _numeric_leaves(getattr(value, f.name), path + (f.name,))
    elif isinstance(value, (tuple, dict)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _numeric_leaves(item, path + (key,))
    elif type(value) in (int, float):
        yield path


def _with_leaf(doc, path, value):
    """A copy of the JSON document `doc` with the value at `path` replaced."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


PAIR_DOC = _with_leaf(SMOKE["data"]["pair"], ("base", "duration"), 100)
PAIR_LEAVES = list(_numeric_leaves(from_dict(PairConfig, PAIR_DOC)))


def test_the_pair_grid_covers_base_and_profile():
    assert {path[0] for path in PAIR_LEAVES} == {"base", "profile"}
    assert len(PAIR_LEAVES) >= 32 and ("profile", "scale", "power") in PAIR_LEAVES


@pytest.mark.parametrize("path", PAIR_LEAVES, ids=lambda path: ".".join(map(str, path)))
def test_synth_pair_field_at_extreme_values_exits_0_or_2_with_one_line(path, tmp_path, capsys):
    config = tmp_path / "pair.json"
    for i, value in enumerate(GRID):
        config.write_text(json.dumps(_with_leaf(PAIR_DOC, path, value)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["synth", "--pair", "--config", str(config), "--out", str(tmp_path / f"out{i}")])
        err = capsys.readouterr().err
        assert code in (0, 2) and len(err.splitlines()) <= 1 and "Traceback" not in err, (value, err)
        assert not caught, (value, [str(w.message) for w in caught])


EXPERIMENT = _experiment_config(SMOKE)
EXPERIMENT_DOC = json.loads(json.dumps(dataclasses.asdict(EXPERIMENT)))
del EXPERIMENT_DOC["learner"]["seed"]  # the experiment derives the learner seeds
EXPERIMENT_LEAVES = [path for path in _numeric_leaves(EXPERIMENT) if path[0] != "data"]


def test_experiment_and_learner_fields_decode_or_raise_invalid_config():
    assert {("cv_k",), ("segment_threshold",), ("learner", "mlp_hidden", 0), ("balance", "seed")} <= set(
        EXPERIMENT_LEAVES
    )
    for path in EXPERIMENT_LEAVES:
        for value in GRID:
            try:
                configs = _pipeline_configs(_experiment_config(_with_leaf(EXPERIMENT_DOC, path, value)))
            except InvalidConfig:
                continue
            assert set(configs) == set(EXPERIMENT.variants), (path, value)


# --- documents: arrays, keyword keys, fields with decoders of their own ------------


@dataclasses.dataclass(frozen=True)
class Rows:
    X: array(float, 2)
    y: array(np.int8, 1) = dataclasses.field(default=None, metadata=NOT_NEGATIVE)
    class_: int = 0
    total: typing.Annotated[int, lambda value, path: sum(value), lambda total: [total]] = 0
    pair: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        check(self)


def test_array_fields_decode_to_numpy_arrays():
    rows = from_dict(Rows, {"X": [[1, 2.5], [3, 4]], "y": [0, 1], "class": 1, "total": [2, 3]})
    assert rows.X.dtype == np.float64 and rows.X.tolist() == [[1.0, 2.5], [3.0, 4.0]]
    assert rows.y.dtype == np.int8 and rows.y.tolist() == [0, 1]
    assert rows.class_ == 1 and rows.total == 5
    assert from_dict(Rows, {"X": [[math.nan, -math.inf]]}).y is None  # an array may hold any double


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"X": [[1.0], [2.0, 3.0]]}, "X: expected a numeric array"),
        ({"X": [["1.0"]]}, "X: expected a numeric array"),
        ({"X": [[True]]}, "X: expected a numeric array"),
        ({"X": [[None]]}, "X: expected a numeric array"),
        ({"X": [[2**70]]}, "X: expected a numeric array"),
        ({"X": [1.0, 2.0]}, "X: expected 2 dimensions, got shape (2,)"),
        ({"X": [[1.0]], "y": [0.0]}, "y: expected a numeric array"),
        ({"X": [[1.0]], "y": [128]}, "y: integers outside int8"),
        ({"X": [[1.0]], "y": [[0]]}, "y: expected 1 dimensions, got shape (1, 1)"),
        ({"X": [[1.0]], "y": [1, -3]}, "y must be >= 0 or NaN, got -3"),
        ({"X": [[1.0]], "class_": 1}, "class_: unknown key"),
    ],
)
def test_array_and_keyword_fields_reject_with_their_path(doc, message):
    with pytest.raises(InvalidConfig) as info:
        from_dict(Rows, doc)
    assert str(info.value) == message


def test_to_dict_writes_the_object_from_dict_reads():
    doc = {"X": [[1.0, 2.5]], "class": 1, "total": [5], "pair": [0.5, -1.0]}
    rows = from_dict(Rows, doc)
    written = to_dict(rows)
    assert written == doc  # no "y": a None value is left out; "class", not "class_"; total by its encoder
    assert [type(written[key]) for key in ("X", "pair")] == [list, list] and type(written["X"][0][0]) is float
    y = to_dict(Rows(np.zeros((1, 1)), np.array([1, 0], dtype=np.int8)))["y"]
    assert y == [1, 0] and type(y[0]) is int


def test_to_dict_writes_nested_dataclasses_dicts_and_tuples_as_json():
    assert to_dict(from_dict(PairConfig, PAIR_DOC)) == PAIR_DOC


def test_annotations_are_resolved_once_per_class(monkeypatch):
    @dataclasses.dataclass(frozen=True)
    class Fresh:
        n: int = 0

    calls = []
    resolve = typing.get_type_hints
    monkeypatch.setattr(typing, "get_type_hints", lambda *a, **k: calls.append(a[0]) or resolve(*a, **k))
    for n in range(3):
        assert from_dict(Fresh, {"n": n}).n == n
    assert calls == [Fresh]


def test_read_json_reports_a_decoder_out_of_stack_as_nested_too_deeply(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("[1]")

    def endless(doc):
        return endless(doc)

    with pytest.raises(InvalidConfig) as info:
        read_json(path, endless)
    assert str(info.value) == f"{path}: nested too deeply"
    assert read_json(path, len) == 1
