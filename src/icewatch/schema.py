"""Strict decoding of parsed JSON into frozen config dataclasses, and the
one check of their values.

The field annotations are the schema: an unknown key, a missing required
key or a value of the wrong type raises InvalidConfig naming the dotted
path of the offending value, e.g. ``learner.knn_k: expected int, got '3'``.
A float field accepts a JSON integer within the double range and stores
it as a float; an int field takes an integer that fits in int64. Nested
dataclasses, ``X | None``, ``tuple[T, ...]``, fixed-length tuples and
``dict[str, T]`` are supported.

Each numeric or choice field declares its domain next to the field, as
``field(..., metadata=at_least(1))``; the declaration covers every item of
a tuple and every value of a dict. A config's ``__post_init__`` calls
``check(self)``, so configs built in Python are checked as decoded ones
are. Every float must be finite unless its field declares ``EXTENDED``.
A value outside its domain raises InvalidConfig as ``<name> must be
<domain>, got <value>``, e.g. ``wind.noise must be >= 0, got -0.5``, with
the dotted name of the value within the checked config.
"""

from __future__ import annotations

import json
import math
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

from .errors import DataError, InvalidConfig


def read_json(path):
    """The parsed JSON of the file at `path`; a byte that is not UTF-8
    raises a DataError naming the file, and nesting deeper than the
    decoder's recursion limit an InvalidConfig."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    try:
        return json.loads(text)
    except RecursionError:
        raise InvalidConfig(f"{path}: nested too deeply") from None


def from_dict(cls, doc):
    """Build the dataclass `cls` from a parsed JSON object."""
    return _decode(cls, doc, "")


def _fail(path: str, message: str) -> InvalidConfig:
    return InvalidConfig(f"{path or 'top level'}: {message}")


def _decode(tp, value, path: str):
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise _fail(path, f"expected object, got {value!r}")
        prefix = f"{path}." if path else ""
        known = {f.name: f for f in fields(tp)}
        for key in value:
            if key not in known:
                raise _fail(prefix + key, "unknown key")
        for f in known.values():
            if f.name not in value and f.default is MISSING and f.default_factory is MISSING:
                raise _fail(prefix + f.name, "missing")
        hints = typing.get_type_hints(tp)
        kwargs = {key: _decode(hints[key], v, prefix + key) for key, v in value.items()}
        try:
            return tp(**kwargs)
        except InvalidConfig as exc:
            if not path:
                raise
            raise _fail(path, str(exc)) from None
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _decode(inner, value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise _fail(path, f"expected array, got {value!r}")
        item_types = [args[0]] * len(value) if args[-1] is Ellipsis else args
        if len(item_types) != len(value):
            raise _fail(path, f"expected {len(item_types)} items, got {len(value)}")
        return tuple(_decode(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(item_types, value)))
    if origin is dict:
        if not isinstance(value, dict):
            raise _fail(path, f"expected object, got {value!r}")
        return {key: _decode(args[1], v, f"{path}.{key}") for key, v in value.items()}
    if tp is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise _fail(path, "integer beyond the double range") from None
    if type(value) is not tp:
        raise _fail(path, f"expected {tp.__name__}, got {value!r}")
    if tp is int and not -(2**63) <= value < 2**63:
        raise _fail(path, f"integer outside int64, got {value}")
    return value


def _domain(text: str, holds, finite: bool = True) -> dict:
    """The metadata that declares a field's values: those for which `holds`
    is true, worded as `text` in "must be <text>". A float must also be
    finite unless `finite` is false."""
    return {"domain": text, "holds": holds, "finite": finite}


def at_least(n) -> dict:
    return _domain(f">= {n}", lambda v: v >= n)


def within(interval: str) -> dict:
    """A range written with its open or closed ends, such as "[0, 1)"."""
    lo, hi = map(float, interval[1:-1].split(","))
    closed_lo, closed_hi = interval[0] == "[", interval[-1] == "]"
    return _domain(f"in {interval}", lambda v: (lo <= v if closed_lo else lo < v) and (v <= hi if closed_hi else v < hi))


def one_of(*choices: str) -> dict:
    return _domain("one of " + ", ".join(map(repr, choices)), lambda v: v in choices)


POSITIVE = _domain("> 0", lambda v: v > 0)
NONZERO = _domain("nonzero", lambda v: v != 0)
ANY = _domain("any value", lambda v: True)  # bounded by its type alone: int64, or a finite double
EXTENDED = _domain("a number", lambda v: v == v, finite=False)  # any double but NaN, infinities included


def check(config, prefix: str = "") -> None:
    """Raise InvalidConfig for the first value of the dataclass `config`,
    nested dataclasses included, outside its field's declared domain;
    `prefix` starts the value's dotted name."""
    for f in fields(config):
        _check_value(getattr(config, f.name), f.metadata, prefix + f.name)


def _check_value(value, metadata, name: str) -> None:
    """Check `value`, held by a field with `metadata`, or each value nested
    in it, under the dotted name `name`."""
    if is_dataclass(value):
        check(value, name + ".")
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            _check_value(item, metadata, f"{name}[{i}]")
    elif isinstance(value, dict):
        for key, item in value.items():
            _check_value(item, metadata, f"{name}.{key}")
    elif isinstance(value, float) and not math.isfinite(value) and metadata.get("finite", True):
        raise InvalidConfig(f"{name} must be a finite number, got {value}")
    elif "holds" in metadata and not metadata["holds"](value):
        raise InvalidConfig(f"{name} must be {metadata['domain']}, got {value!r}")
