import pytest

from icewatch.errors import InvalidConfig
from icewatch.learners import LearnerConfig
from icewatch.rules import SegmentationConfig
from icewatch.schema import from_dict
from icewatch.synthgen import PairConfig, SynthConfig


def test_float_field_accepts_int():
    cfg = from_dict(SegmentationConfig, {"threshold": 0})
    assert cfg.threshold == 0.0 and type(cfg.threshold) is float


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
        (PairConfig, {"base": {"duration": 0}}, "base: duration must be positive"),
    ],
)
def test_rejections_name_the_dotted_path(cls, doc, message):
    with pytest.raises(InvalidConfig) as info:
        from_dict(cls, doc)
    assert str(info.value) == message
