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

Rules and the wind-speed split work on feature matrices (rows from
features.feature_vectors): rule_mask decides every row at once,
strong_rule_filter(X, rule) and segment(X, threshold) return the ascending
row indices of their two parts, and gate(X, rule, threshold) combines the
two into one routing code per row. The threshold is a plain float, the
segment_threshold of the pipeline config and of the bundle. Training, test
gating, inspect-rules and predict all route through them.

A rule is the document {id, constraints} that a bundle holds; a rule file
is the constraints array alone, and the rule takes its id from the file's
stem. Both read and write the constraints through one codec, in which an
infinite bound is null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated

import numpy as np

from .errors import InvalidConfig
from .features import FEATURE_IDS
from .schema import EXTENDED, from_dict, read_json, to_dict

INF = math.inf

# the routing codes of gate
AUTO_NORMAL, LOW, HIGH = 0, 1, 2

_WIND = FEATURE_IDS.index("x4")


@dataclass(frozen=True, slots=True)
class IntervalConstraint:
    feature: str
    lower: float = field(default=-INF, metadata=EXTENDED)
    upper: float = field(default=INF, metadata=EXTENDED)
    lower_inclusive: bool = False
    upper_inclusive: bool = False

    def __post_init__(self):
        if self.feature not in FEATURE_IDS:
            raise InvalidConfig(f"unknown feature id {self.feature!r}")
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise InvalidConfig(f"{self.feature}: a bound is NaN")
        if self.lower > self.upper:
            raise InvalidConfig(f"{self.feature}: lower {self.lower} exceeds upper {self.upper}")


def _constraints_from_json(doc, path: str) -> tuple[IntervalConstraint, ...]:
    """The constraints of a JSON array of constraint objects, in which a
    null or absent bound is unbounded; errors name the value's path from
    `path`."""
    if not isinstance(doc, list):
        raise InvalidConfig(f"{path}: expected array, got {doc!r}")
    constraints = []
    for i, item in enumerate(doc):
        if not isinstance(item, dict):
            raise InvalidConfig(f"{path}[{i}]: a rule must be a JSON array of constraint objects, got {item!r}")
        bounded = {key: value for key, value in item.items() if value is not None}
        constraints.append(from_dict(IntervalConstraint, bounded, f"{path}[{i}]"))
    return tuple(constraints)


def _constraints_to_json(constraints: tuple[IntervalConstraint, ...]) -> list[dict]:
    """Inverse of _constraints_from_json: every key, an infinite bound as
    null."""
    return [
        {**to_dict(c), "lower": None if c.lower == -INF else c.lower, "upper": None if c.upper == INF else c.upper}
        for c in constraints
    ]


@dataclass(frozen=True)
class IntervalRule:
    """Conjunction of interval constraints, at most one per feature; a
    bundle's {id, constraints} document."""

    id: str
    constraints: Annotated[tuple[IntervalConstraint, ...], _constraints_from_json, _constraints_to_json]

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
        raise InvalidConfig(f"unknown builtin rule: {rule_id!r} (expected R1..R5)") from None
    return IntervalRule(rule_id, constraints)


def rule_mask(rule: IntervalRule, X: np.ndarray) -> np.ndarray:
    """bool[n]: where the rows of X satisfy every constraint of `rule`.

    Each comparison negates a failure test (`v <= lower`, or `v < lower`
    for an inclusive bound), so a NaN value passes every constraint."""
    mask = np.ones(len(X), dtype=bool)
    for c in rule.constraints:
        v = X[:, FEATURE_IDS.index(c.feature)]
        mask &= ~(v < c.lower) if c.lower_inclusive else ~(v <= c.lower)
        mask &= ~(v > c.upper) if c.upper_inclusive else ~(v >= c.upper)
    return mask


def strong_rule_filter(X: np.ndarray, rule: IntervalRule) -> tuple[np.ndarray, np.ndarray]:
    """The ascending row indices (candidates, auto_normal) of the rows of X
    inside and outside the rule."""
    passed = rule_mask(rule, X)
    return np.flatnonzero(passed), np.flatnonzero(~passed)


def segment(X: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The ascending row indices (low, high) of the rows of X by wind speed
    (x4) against `threshold`; the boundary value and NaN go high."""
    low = X[:, _WIND] < threshold
    return np.flatnonzero(low), np.flatnonzero(~low)


def gate(X: np.ndarray, rule: IntervalRule, threshold: float) -> np.ndarray:
    """int8[n]: the route of each row of X. Outside the rule is AUTO_NORMAL;
    a candidate is LOW or HIGH as segment splits rows at `threshold`, so
    the boundary value and NaN go high."""
    route = np.where(X[:, _WIND] < threshold, LOW, HIGH).astype(np.int8)
    route[~rule_mask(rule, X)] = AUTO_NORMAL
    return route


def load_rule(spec: str) -> IntervalRule:
    """Resolve a CLI rule argument: a builtin id (R1..R5) or the path of a
    JSON array of constraint objects, the rule named by the file's stem."""
    path = Path(spec)
    if spec in _BUILTIN or not path.exists():
        return builtin_rule(spec)  # raises for an unknown id
    return IntervalRule(path.stem, _constraints_from_json(read_json(path), spec))
