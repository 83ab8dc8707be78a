"""Strong-rule filtering and wind-speed segmentation.

A strong rule is a conjunction of per-feature interval constraints that
marks records as icing candidates; everything outside the rule is
declared normal without consulting any learned model. Candidates are
further split into low and high wind-speed segments at a configurable
threshold (default -0.25 on the desensitized x4 scale), and each segment
gets its own model.

Five builtin rules are provided; R5 is the default filter:

    R1: x4 < 2
    R2: 0.2 <= x10 <= 0.4
    R3: x4 < 2 and 0.2 <= x10 <= 0.4
    R4: x4 < 2 and x5 < 1.5 and 0.15 < x10 < 0.36
    R5: x4 < 2 and x5 < 1.5 and 0.15 < x10 < 0.36 and x7 < 2

Bounds are strict or inclusive exactly as written above.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

from .errors import InvalidConfig, UnknownRule
from .features import FEATURE_IDS, FeatureVector, feature_value
from .schema import from_dict

INF = math.inf


@dataclass(frozen=True, slots=True)
class IntervalConstraint:
    feature: str
    lower: float = -INF
    upper: float = INF
    lower_inclusive: bool = False
    upper_inclusive: bool = False

    def __post_init__(self):
        if self.feature not in FEATURE_IDS:
            raise InvalidConfig(f"unknown feature id {self.feature!r}")
        if self.lower > self.upper:
            raise InvalidConfig(f"{self.feature}: lower {self.lower} exceeds upper {self.upper}")

    def holds(self, value: float) -> bool:
        if self.lower_inclusive:
            if value < self.lower:
                return False
        elif value <= self.lower:
            return False
        if self.upper_inclusive:
            if value > self.upper:
                return False
        elif value >= self.upper:
            return False
        return True


@dataclass(frozen=True)
class IntervalRule:
    """Conjunction of interval constraints, at most one per feature."""

    rule_id: str
    constraints: tuple[IntervalConstraint, ...]

    def __post_init__(self):
        if not self.constraints:
            raise InvalidConfig("a rule needs at least one constraint")
        seen = set()
        for c in self.constraints:
            if c.feature in seen:
                raise InvalidConfig(f"duplicate constraint on {c.feature}")
            seen.add(c.feature)


def _lt(feature: str, bound: float) -> IntervalConstraint:
    return IntervalConstraint(feature, upper=bound, upper_inclusive=False)


_R1 = (_lt("x4", 2.0),)
_R2 = (IntervalConstraint("x10", lower=0.2, upper=0.4, lower_inclusive=True, upper_inclusive=True),)
_R4_BAND = IntervalConstraint("x10", lower=0.15, upper=0.36, lower_inclusive=False, upper_inclusive=False)

_BUILTIN = {
    "R1": _R1,
    "R2": _R2,
    "R3": _R1 + _R2,
    "R4": (_lt("x4", 2.0), _lt("x5", 1.5), _R4_BAND),
    "R5": (_lt("x4", 2.0), _lt("x5", 1.5), _R4_BAND, _lt("x7", 2.0)),
}


def builtin_rule(rule_id: str) -> IntervalRule:
    try:
        constraints = _BUILTIN[rule_id]
    except KeyError:
        raise UnknownRule(rule_id) from None
    return IntervalRule(rule_id=rule_id, constraints=constraints)


def rule_satisfied(rule: IntervalRule, fv: FeatureVector) -> bool:
    return all(c.holds(feature_value(fv, c.feature)) for c in rule.constraints)


def strong_rule_filter(
    vectors: Sequence[FeatureVector], rule: IntervalRule
) -> tuple[list[FeatureVector], list[FeatureVector]]:
    """Partition into (candidates, auto_normal), order preserved in each part."""
    candidates: list[FeatureVector] = []
    auto_normal: list[FeatureVector] = []
    for fv in vectors:
        (candidates if rule_satisfied(rule, fv) else auto_normal).append(fv)
    return candidates, auto_normal


class Segment(Enum):
    LOW = "low"
    HIGH = "high"


@dataclass(frozen=True)
class SegmentationConfig:
    threshold: float = -0.25  # applied to x4

    def __post_init__(self):
        if not math.isfinite(self.threshold):
            raise InvalidConfig("segmentation threshold must be finite")


def which_segment(fv: FeatureVector, cfg: SegmentationConfig) -> Segment:
    # the boundary value goes to the high segment
    return Segment.LOW if fv.wind_speed < cfg.threshold else Segment.HIGH


def segment(
    vectors: Sequence[FeatureVector], cfg: SegmentationConfig
) -> tuple[list[FeatureVector], list[FeatureVector]]:
    """Partition into (low, high) by wind speed, order preserved."""
    low: list[FeatureVector] = []
    high: list[FeatureVector] = []
    for fv in vectors:
        (low if which_segment(fv, cfg) is Segment.LOW else high).append(fv)
    return low, high


class GateDecision(Enum):
    AUTO_NORMAL = "auto_normal"
    CANDIDATE_LOW = "candidate_low"
    CANDIDATE_HIGH = "candidate_high"

    @property
    def segment(self) -> Segment | None:
        if self is GateDecision.CANDIDATE_LOW:
            return Segment.LOW
        if self is GateDecision.CANDIDATE_HIGH:
            return Segment.HIGH
        return None


def gate(fv: FeatureVector, rule: IntervalRule, cfg: SegmentationConfig) -> GateDecision:
    """Route a record: outside the rule means auto-normal, otherwise a
    candidate for the low or high wind-speed model."""
    if not rule_satisfied(rule, fv):
        return GateDecision.AUTO_NORMAL
    if which_segment(fv, cfg) is Segment.LOW:
        return GateDecision.CANDIDATE_LOW
    return GateDecision.CANDIDATE_HIGH


def rule_to_json(rule: IntervalRule) -> list[dict]:
    """Serializable form; infinite bounds become null."""
    out = []
    for c in rule.constraints:
        out.append(
            {
                "feature": c.feature,
                "lower": None if c.lower == -INF else c.lower,
                "upper": None if c.upper == INF else c.upper,
                "lower_inclusive": c.lower_inclusive,
                "upper_inclusive": c.upper_inclusive,
            }
        )
    return out


def rule_from_json(doc: list[dict], rule_id: str = "custom") -> IntervalRule:
    """Inverse of rule_to_json; a null or absent bound is unbounded."""
    if not isinstance(doc, list) or not all(isinstance(item, dict) for item in doc):
        raise InvalidConfig("a rule must be a JSON array of constraint objects")
    items = [{key: value for key, value in item.items() if value is not None} for item in doc]
    return IntervalRule(rule_id=rule_id, constraints=tuple(from_dict(IntervalConstraint, item) for item in items))


def load_rule(spec: str) -> IntervalRule:
    """Resolve a CLI rule argument: a builtin id (R1..R5) or a JSON path."""
    if spec in _BUILTIN:
        return builtin_rule(spec)
    path = Path(spec)
    if not path.exists():
        raise UnknownRule(spec)
    with open(path, "r", encoding="utf-8") as f:
        return rule_from_json(json.load(f), rule_id=path.stem)
