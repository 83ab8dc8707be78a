import json
import math

import numpy as np
import pytest

from conftest import make_fv
from icewatch.errors import InvalidConfig, UnknownRule
from icewatch.rules import (
    GateDecision,
    IntervalConstraint,
    IntervalRule,
    Segment,
    SegmentationConfig,
    builtin_rule,
    gate,
    load_rule,
    rule_from_json,
    rule_satisfied,
    rule_to_json,
    segment,
    strong_rule_filter,
    which_segment,
)

EPS = 1e-9


def random_fvs(rng, n):
    return [
        make_fv(
            wind_speed=rng.uniform(-3, 5),
            environment_tmp=rng.uniform(-3, 5),
            power=rng.uniform(-1, 4),
            pitch_angle_avg=rng.uniform(-0.2, 0.8),
        )
        for _ in range(n)
    ]


class TestBuiltins:
    def test_r1_single_constraint(self):
        rule = builtin_rule("R1")
        assert len(rule.constraints) == 1
        c = rule.constraints[0]
        assert c.feature == "x4" and c.upper == 2.0 and not c.upper_inclusive
        assert c.lower == -math.inf

    def test_r2_inclusive_band(self):
        (c,) = builtin_rule("R2").constraints
        assert c.feature == "x10"
        assert c.lower == 0.2 and c.lower_inclusive
        assert c.upper == 0.4 and c.upper_inclusive

    def test_r3_is_r1_and_r2(self):
        rule = builtin_rule("R3")
        assert {c.feature for c in rule.constraints} == {"x4", "x10"}

    def test_r4_strict_band(self):
        rule = builtin_rule("R4")
        by_feature = {c.feature: c for c in rule.constraints}
        assert set(by_feature) == {"x4", "x5", "x10"}
        band = by_feature["x10"]
        assert band.lower == 0.15 and not band.lower_inclusive
        assert band.upper == 0.36 and not band.upper_inclusive

    def test_r5_four_constraints(self):
        rule = builtin_rule("R5")
        assert {c.feature for c in rule.constraints} == {"x4", "x5", "x7", "x10"}

    def test_unknown_rule(self):
        with pytest.raises(UnknownRule):
            builtin_rule("R6")


class TestSatisfaction:
    def r5_fv(self, **kw):
        fields = dict(wind_speed=1.0, environment_tmp=0.0, pitch_angle_avg=0.20, power=1.0)
        fields.update(kw)
        return make_fv(**fields)

    def test_passing_vector(self):
        assert rule_satisfied(builtin_rule("R5"), self.r5_fv())

    def test_wind_bound_is_strict(self):
        assert not rule_satisfied(builtin_rule("R5"), self.r5_fv(wind_speed=2.0))
        assert rule_satisfied(builtin_rule("R5"), self.r5_fv(wind_speed=2.0 - EPS))

    def test_pitch_lower_bound_is_strict(self):
        assert not rule_satisfied(builtin_rule("R5"), self.r5_fv(pitch_angle_avg=0.15))
        assert rule_satisfied(builtin_rule("R5"), self.r5_fv(pitch_angle_avg=0.15 + EPS))

    def test_r2_bounds_are_inclusive(self):
        rule = builtin_rule("R2")
        assert rule_satisfied(rule, make_fv(pitch_angle_avg=0.2))
        assert rule_satisfied(rule, make_fv(pitch_angle_avg=0.4))
        assert not rule_satisfied(rule, make_fv(pitch_angle_avg=0.4 + EPS))
        assert not rule_satisfied(rule, make_fv(pitch_angle_avg=0.2 - EPS))

    def test_monotone_chain(self, rng):
        r1, r4, r5 = builtin_rule("R1"), builtin_rule("R4"), builtin_rule("R5")
        for fv in random_fvs(rng, 5000):
            if rule_satisfied(r5, fv):
                assert rule_satisfied(r4, fv)
            if rule_satisfied(r4, fv):
                assert rule_satisfied(r1, fv)


class TestFilterAndSegment:
    def test_empty_input(self):
        assert strong_rule_filter([], builtin_rule("R5")) == ([], [])
        assert segment([], SegmentationConfig()) == ([], [])

    def test_all_violating(self):
        vectors = [make_fv(wind_speed=3.0) for _ in range(4)]
        candidates, auto = strong_rule_filter(vectors, builtin_rule("R1"))
        assert candidates == [] and auto == vectors

    def test_hand_enumerated_partition(self):
        # four vectors satisfy R5, six violate exactly one constraint each
        passing = [
            make_fv(wind_speed=1.0, environment_tmp=0.0, pitch_angle_avg=0.2, power=1.0),
            make_fv(wind_speed=-1.0, environment_tmp=1.0, pitch_angle_avg=0.3, power=0.0),
            make_fv(wind_speed=0.0, environment_tmp=-2.0, pitch_angle_avg=0.16, power=1.9),
            make_fv(wind_speed=1.9, environment_tmp=1.4, pitch_angle_avg=0.35, power=-0.5),
        ]
        failing = [
            make_fv(wind_speed=2.5, environment_tmp=0.0, pitch_angle_avg=0.2, power=1.0),
            make_fv(wind_speed=1.0, environment_tmp=2.0, pitch_angle_avg=0.2, power=1.0),
            make_fv(wind_speed=1.0, environment_tmp=0.0, pitch_angle_avg=0.5, power=1.0),
            make_fv(wind_speed=1.0, environment_tmp=0.0, pitch_angle_avg=0.1, power=1.0),
            make_fv(wind_speed=1.0, environment_tmp=0.0, pitch_angle_avg=0.2, power=2.5),
            make_fv(wind_speed=1.0, environment_tmp=0.0, pitch_angle_avg=0.36, power=1.0),
        ]
        mixed = [failing[0], passing[0], failing[1], passing[1], failing[2],
                 passing[2], failing[3], passing[3], failing[4], failing[5]]
        candidates, auto = strong_rule_filter(mixed, builtin_rule("R5"))
        assert candidates == passing  # order preserved
        assert auto == failing
        assert len(candidates) == 4 and len(auto) == 6

    def test_segment_boundary_goes_high(self):
        cfg = SegmentationConfig(threshold=-0.25)
        assert which_segment(make_fv(wind_speed=-0.3), cfg) is Segment.LOW
        assert which_segment(make_fv(wind_speed=-0.25), cfg) is Segment.HIGH

    def test_segment_partition(self, rng):
        vectors = random_fvs(rng, 500)
        low, high = segment(vectors, SegmentationConfig(threshold=0.5))
        assert len(low) + len(high) == len(vectors)
        assert all(fv.wind_speed < 0.5 for fv in low)
        assert all(fv.wind_speed >= 0.5 for fv in high)
        position = {id(v): i for i, v in enumerate(vectors)}
        for part in (low, high):
            indices = [position[id(v)] for v in part]
            assert indices == sorted(indices)  # order preserved within the part
        assert set(position) == {id(v) for v in low} | {id(v) for v in high}

    def test_configurable_thresholds(self):
        for threshold in (0.0, -0.25, -0.5, -0.75, -1.0):
            cfg = SegmentationConfig(threshold=threshold)
            fv = make_fv(wind_speed=threshold - 0.01)
            assert which_segment(fv, cfg) is Segment.LOW


class TestGate:
    CFG = SegmentationConfig(threshold=-0.25)

    def test_rule_failure_is_auto_normal(self):
        fv = make_fv(wind_speed=5.0)
        assert gate(fv, builtin_rule("R5"), self.CFG) is GateDecision.AUTO_NORMAL

    def test_candidates_routed_by_wind(self):
        low = make_fv(wind_speed=-1.0, environment_tmp=0.0, pitch_angle_avg=0.2, power=1.0)
        high = make_fv(wind_speed=1.0, environment_tmp=0.0, pitch_angle_avg=0.2, power=1.0)
        assert gate(low, builtin_rule("R5"), self.CFG) is GateDecision.CANDIDATE_LOW
        assert gate(high, builtin_rule("R5"), self.CFG) is GateDecision.CANDIDATE_HIGH

    def test_idempotent(self):
        fv = make_fv(wind_speed=1.0, environment_tmp=0.0, pitch_angle_avg=0.2, power=1.0)
        first = gate(fv, builtin_rule("R5"), self.CFG)
        assert all(gate(fv, builtin_rule("R5"), self.CFG) is first for _ in range(3))


class TestSerialization:
    def test_round_trip(self):
        rule = builtin_rule("R5")
        back = rule_from_json(rule_to_json(rule), rule_id="R5")
        assert back == rule

    def test_infinite_bounds_become_null(self):
        doc = rule_to_json(builtin_rule("R1"))
        assert doc[0]["lower"] is None
        assert doc[0]["upper"] == 2.0

    def test_load_rule_builtin_and_path(self, tmp_path):
        assert load_rule("R3") == builtin_rule("R3")
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(rule_to_json(builtin_rule("R4"))))
        loaded = load_rule(str(path))
        assert loaded.constraints == builtin_rule("R4").constraints
        with pytest.raises(UnknownRule):
            load_rule("nonexistent.json")

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            IntervalConstraint("x4", lower=2.0, upper=1.0)
        with pytest.raises(InvalidConfig):
            IntervalConstraint("x11")
        with pytest.raises(InvalidConfig):
            IntervalRule("bad", ())
        with pytest.raises(InvalidConfig):
            IntervalRule(
                "dup",
                (IntervalConstraint("x4", upper=1.0), IntervalConstraint("x4", lower=0.0)),
            )
