import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import FeatureVector, fv_matrix, gate_per_record, make_fv
from icewatch.errors import InvalidConfig
from icewatch.features import FEATURE_IDS
from icewatch.rules import (
    AUTO_NORMAL,
    HIGH,
    LOW,
    IntervalConstraint,
    IntervalRule,
    builtin_rule,
    gate,
    load_rule,
    rule_mask,
    segment,
    strong_rule_filter,
)
from icewatch.scada import Label
from icewatch.schema import from_dict, to_dict

EPS = 1e-9
WIND = FEATURE_IDS.index("x4")


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


def matrix(*vectors):
    return fv_matrix(vectors)[0]


def satisfied(rule, fv) -> bool:
    """The rule on a 1-row matrix."""
    (passed,) = rule_mask(rule, matrix(fv))
    return bool(passed)


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
        with pytest.raises(InvalidConfig, match=re.escape("unknown builtin rule: 'R6' (expected R1..R5)")):
            builtin_rule("R6")


class TestSatisfaction:
    def r5_fv(self, **kw):
        fields = dict(wind_speed=1.0, environment_tmp=0.0, pitch_angle_avg=0.20, power=1.0)
        fields.update(kw)
        return make_fv(**fields)

    def test_passing_vector(self):
        assert satisfied(builtin_rule("R5"), self.r5_fv())

    def test_wind_bound_is_strict(self):
        assert not satisfied(builtin_rule("R5"), self.r5_fv(wind_speed=2.0))
        assert satisfied(builtin_rule("R5"), self.r5_fv(wind_speed=2.0 - EPS))

    def test_pitch_lower_bound_is_strict(self):
        assert not satisfied(builtin_rule("R5"), self.r5_fv(pitch_angle_avg=0.15))
        assert satisfied(builtin_rule("R5"), self.r5_fv(pitch_angle_avg=0.15 + EPS))

    def test_r2_bounds_are_inclusive(self):
        rule = builtin_rule("R2")
        assert satisfied(rule, make_fv(pitch_angle_avg=0.2))
        assert satisfied(rule, make_fv(pitch_angle_avg=0.4))
        assert not satisfied(rule, make_fv(pitch_angle_avg=0.4 + EPS))
        assert not satisfied(rule, make_fv(pitch_angle_avg=0.2 - EPS))

    def test_monotone_chain(self, rng):
        X = matrix(*random_fvs(rng, 5000))
        s1, s4, s5 = (rule_mask(builtin_rule(r), X) for r in ("R1", "R4", "R5"))
        assert not (s5 & ~s4).any()
        assert not (s4 & ~s1).any()


class TestFilterAndSegment:
    def test_empty_input(self):
        empty = np.empty((0, len(FEATURE_IDS)))
        assert [part.tolist() for part in strong_rule_filter(empty, builtin_rule("R5"))] == [[], []]
        assert [part.tolist() for part in segment(empty, -0.25)] == [[], []]

    def test_all_violating(self):
        X = matrix(*[make_fv(wind_speed=3.0) for _ in range(4)])
        candidates, auto = strong_rule_filter(X, builtin_rule("R1"))
        assert candidates.tolist() == [] and auto.tolist() == [0, 1, 2, 3]

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
        X = matrix(*mixed)
        candidates, auto = strong_rule_filter(X, builtin_rule("R5"))
        assert X[candidates].tobytes() == matrix(*passing).tobytes()  # order preserved
        assert X[auto].tobytes() == matrix(*failing).tobytes()
        assert len(candidates) == 4 and len(auto) == 6

    def test_segment_boundary_goes_high(self):
        assert segment(matrix(make_fv(wind_speed=-0.3)), -0.25)[0].tolist() == [0]
        assert segment(matrix(make_fv(wind_speed=-0.25)), -0.25)[1].tolist() == [0]

    def test_segment_partition(self, rng):
        X = matrix(*random_fvs(rng, 500))
        low, high = segment(X, 0.5)
        assert len(low) + len(high) == len(X)
        assert (X[low, WIND] < 0.5).all()
        assert (X[high, WIND] >= 0.5).all()
        for part in (low, high):
            assert part.tolist() == sorted(part.tolist())  # order preserved within the part
        assert set(low.tolist()) | set(high.tolist()) == set(range(len(X)))

    def test_configurable_thresholds(self):
        for threshold in (0.0, -0.25, -0.5, -0.75, -1.0):
            X = matrix(make_fv(wind_speed=threshold - 0.01))
            assert segment(X, threshold)[0].tolist() == [0]


class TestGate:
    THRESHOLD = -0.25

    def test_rule_failure_is_auto_normal(self):
        X = matrix(make_fv(wind_speed=5.0))
        assert gate(X, builtin_rule("R5"), self.THRESHOLD).tolist() == [AUTO_NORMAL]

    def test_candidates_routed_by_wind(self):
        low = make_fv(wind_speed=-1.0, environment_tmp=0.0, pitch_angle_avg=0.2, power=1.0)
        high = make_fv(wind_speed=1.0, environment_tmp=0.0, pitch_angle_avg=0.2, power=1.0)
        assert gate(matrix(low), builtin_rule("R5"), self.THRESHOLD).tolist() == [LOW]
        assert gate(matrix(high), builtin_rule("R5"), self.THRESHOLD).tolist() == [HIGH]

    def test_idempotent(self):
        X = matrix(make_fv(wind_speed=1.0, environment_tmp=0.0, pitch_angle_avg=0.2, power=1.0))
        first = gate(X, builtin_rule("R5"), self.THRESHOLD)
        assert all(gate(X, builtin_rule("R5"), self.THRESHOLD).tolist() == first.tolist() for _ in range(3))


# the values at which routing turns: every printed R1-R5 bound and the
# default wind-speed threshold, with NaN and both infinities
EDGES = [2.0, 1.5, 0.15, 0.36, 0.2, 0.4, -0.25, math.nan, math.inf, -math.inf]


def edge_matrix(rng, n):
    """n random feature rows, about a third of whose cells are an edge."""
    X = rng.uniform(-1.0, 3.0, size=(n, len(FEATURE_IDS)))
    at_edge = rng.uniform(size=X.shape) < 0.35
    X[at_edge] = rng.choice(EDGES, size=int(at_edge.sum()))
    return X


@pytest.mark.parametrize("rule_id", ["R1", "R2", "R3", "R4", "R5"])
def test_gate_matches_the_per_record_gate(rule_id):
    rule, threshold = builtin_rule(rule_id), -0.25
    X = edge_matrix(np.random.default_rng(17), 100_000)
    expected = [gate_per_record(FeatureVector(*row, Label.NORMAL), rule, threshold) for row in X.tolist()]
    assert gate(X, rule, threshold).tolist() == expected


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(0, 40), st.just(len(FEATURE_IDS))),
        elements=st.one_of(st.sampled_from(EDGES), st.floats(-3.0, 3.0)),
    ),
    st.sampled_from(["R1", "R2", "R3", "R4", "R5"]),
)
def test_routing_properties(X, rule_id):
    rule, threshold = builtin_rule(rule_id), -0.25
    route = gate(X, rule, threshold)
    # the three codes cover every row once
    parts = [np.flatnonzero(route == code) for code in (AUTO_NORMAL, LOW, HIGH)]
    assert sorted(np.concatenate(parts).tolist()) == list(range(len(X)))
    # the low rows, in row order, are segment's low part of the candidates
    candidates, auto = strong_rule_filter(X, rule)
    low, high = segment(X[candidates], threshold)
    assert np.flatnonzero(route == LOW).tolist() == candidates[low].tolist()
    assert np.flatnonzero(route == HIGH).tolist() == candidates[high].tolist()
    assert np.flatnonzero(route == AUTO_NORMAL).tolist() == auto.tolist()
    assert X[route == LOW].tobytes() == X[candidates][low].tobytes()
    # R5 within R4 within R1
    s1, s4, s5 = (rule_mask(builtin_rule(r), X) for r in ("R1", "R4", "R5"))
    assert not (s5 & ~s4).any() and not (s4 & ~s1).any()


class TestSerialization:
    def test_round_trip(self):
        rule = builtin_rule("R5")
        back = from_dict(IntervalRule, to_dict(rule))
        assert back == rule

    def test_infinite_bounds_become_null(self):
        doc = to_dict(builtin_rule("R1"))["constraints"]
        assert doc[0]["lower"] is None
        assert doc[0]["upper"] == 2.0

    def test_load_rule_builtin_and_path(self, tmp_path):
        assert load_rule("R3") == builtin_rule("R3")
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(to_dict(builtin_rule("R4"))["constraints"]))
        loaded = load_rule(str(path))
        assert loaded.constraints == builtin_rule("R4").constraints
        message = "unknown builtin rule: 'nonexistent.json' (expected R1..R5)"
        with pytest.raises(InvalidConfig, match=re.escape(message)):
            load_rule("nonexistent.json")

    def test_validation(self):
        with pytest.raises(InvalidConfig):
            IntervalConstraint("x4", lower=2.0, upper=1.0)
        with pytest.raises(InvalidConfig):
            IntervalConstraint("x11")
        for bounds in (dict(lower=math.nan), dict(upper=math.nan), dict(lower=math.nan, upper=math.nan)):
            with pytest.raises(InvalidConfig, match="NaN"):
                IntervalConstraint("x4", **bounds)
        with pytest.raises(InvalidConfig, match="NaN"):
            from_dict(IntervalRule, {"id": "nan", "constraints": json.loads('[{"feature": "x4", "upper": NaN}]')})
        assert IntervalConstraint("x4", lower=-math.inf, upper=math.inf).upper == math.inf
        with pytest.raises(InvalidConfig):
            IntervalRule("bad", ())
        with pytest.raises(InvalidConfig):
            IntervalRule(
                "dup",
                (IntervalConstraint("x4", upper=1.0), IntervalConstraint("x4", lower=0.0)),
            )
