"""Strict decoding of parsed JSON into frozen config dataclasses.

The field annotations are the schema: an unknown key, a missing required
key or a value of the wrong type raises InvalidConfig naming the dotted
path of the offending value, e.g. ``learner.knn_k: expected int, got '3'``.
A float field accepts a JSON integer and stores it as a float. Nested
dataclasses, ``X | None``, ``tuple[T, ...]``, fixed-length tuples and
``dict[str, T]`` are supported.
"""

from __future__ import annotations

import json
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
        return float(value)
    if type(value) is not tp:
        raise _fail(path, f"expected {tp.__name__}, got {value!r}")
    return value
