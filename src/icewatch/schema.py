"""Strict decoding of parsed JSON into frozen dataclasses, configs and
documents such as models and bundles, and the one check of their values.

The field annotations are the schema: an unknown key, a missing required
key or a value of the wrong type raises InvalidConfig naming the dotted
path of the offending value, e.g. ``learner.knn_k: expected int, got '3'``.
A float field accepts a JSON integer within the double range and stores
it as a float; an int field takes an integer that fits in int64. Nested
dataclasses, ``X | None``, ``tuple[T, ...]``, fixed-length tuples,
``dict[str, T]`` and numpy arrays (``array(dtype, ndim)``) are supported,
and ``Annotated[T, decode]`` is decoded by ``decode(value, path)``.
A field named after a Python keyword with a trailing underscore, such as
``class_``, reads and names the key without it.

``to_dict`` writes the JSON object that ``from_dict`` reads: each field
under its key, a None value left out, arrays and tuples as lists, nested
dataclasses as objects, and a field of ``Annotated[T, decode, encode]`` as
``encode(value)``.

Each numeric or choice field declares its domain next to the field, as
``field(..., metadata=at_least(1))``; the declaration covers every item of
a tuple, every value of a dict and every element of an array. A config's
``__post_init__`` calls ``check(self)``, so configs built in Python are
checked as decoded ones are. Every float must be finite unless its field
declares ``EXTENDED``; an array may hold any double. A value outside its
domain raises InvalidConfig as ``<name> must be <domain>, got <value>``,
e.g. ``wind.noise must be >= 0, got -0.5``, with the dotted name of the
value within the checked config.
"""

from __future__ import annotations

import functools
import json
import math
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, InvalidConfig


def read_json(path, decode=lambda doc: doc):
    """`decode` of the parsed JSON of the file at `path`; a byte that is not
    UTF-8 raises a DataError naming the file, and nesting deeper than the
    recursion limit of the parser or of `decode` an InvalidConfig."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    try:
        return decode(json.loads(text))
    except RecursionError:
        raise InvalidConfig(f"{path}: nested too deeply") from None


def to_dict(obj) -> dict:
    """The JSON object of the dataclass `obj`, which from_dict reads back."""
    doc = {}
    for key, (name, _, _, _, encode) in _declared(type(obj)).items():  # a loop: a level of a tree costs one frame
        value = getattr(obj, name)
        if value is not None:
            doc[key] = encode(value)
    return doc


def _encode(value):
    if is_dataclass(value):
        return to_dict(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {key: _encode(v) for key, v in value.items()}
    return value


def array(dtype, ndim: int):
    """The annotation of a field that holds an ndim-dimensional numpy array
    of dtype, decoded from nested JSON arrays by one np.array call: of
    numbers for a float dtype, of integers that fit it for an int dtype."""
    return typing.Annotated[np.ndarray, functools.partial(_decode_array, np.dtype(dtype), ndim)]


def _fail(path: str, message: str) -> InvalidConfig:
    return InvalidConfig(f"{path or 'top level'}: {message}")


@functools.cache
def _declared(cls) -> dict[str, tuple]:
    """key -> (field name, type, required, decode, encode) of each field of
    the dataclass cls, once per class: resolving the annotations costs far
    more than decoding a small object such as a tree node. decode and
    encode are those of ``Annotated[T, decode, encode]``, the same for
    ``T | None``; without them decode is None, and encode is to_dict for a
    dataclass, else _encode."""
    hints = typing.get_type_hints(cls, include_extras=True)
    declared = {}
    for f in fields(cls):
        tp = hints[f.name]
        if typing.get_origin(tp) in (typing.Union, types.UnionType):
            (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
        codec = tp.__metadata__ if typing.get_origin(tp) is typing.Annotated else (None,)
        encode = codec[1] if len(codec) > 1 else to_dict if is_dataclass(tp) else _encode
        required = f.default is MISSING and f.default_factory is MISSING
        declared[f.name.removesuffix("_")] = (f.name, hints[f.name], required, codec[0], encode)
    return declared


def from_dict(tp, value, path: str = ""):
    """The value of type `tp`, a dataclass for a whole document, built from
    parsed JSON; `path` names the value within an enclosing document."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # unwrapped here, so a nested level costs one frame
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        origin, args = typing.get_origin(tp), typing.get_args(tp)
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise _fail(path, f"expected object, got {value!r}")
        prefix = f"{path}." if path else ""
        declared = _declared(tp)
        for key in value:
            if key not in declared:
                raise _fail(prefix + key, "unknown key")
        for key, (_, _, required, _, _) in declared.items():
            if required and key not in value:
                raise _fail(prefix + key, "missing")
        kwargs = {}
        for key, v in value.items():  # a loop, not a comprehension, for the same reason
            name, field_type, _, decode, _ = declared[key]
            # a field's own decoder is called from here, so that it adds no frame
            kwargs[name] = from_dict(field_type, v, prefix + key) if decode is None or v is None else decode(v, prefix + key)
        try:
            return tp(**kwargs)
        except InvalidConfig as exc:
            if not path:
                raise
            raise _fail(path, str(exc)) from None
    if origin is typing.Annotated:  # a type with a decoder of its own
        return tp.__metadata__[0](value, path)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise _fail(path, f"expected array, got {value!r}")
        item_types = [args[0]] * len(value) if args[-1] is Ellipsis else args
        if len(item_types) != len(value):
            raise _fail(path, f"expected {len(item_types)} items, got {len(value)}")
        return tuple(from_dict(t, v, f"{path}[{i}]") for i, (t, v) in enumerate(zip(item_types, value)))
    if origin is dict:
        if not isinstance(value, dict):
            raise _fail(path, f"expected object, got {value!r}")
        return {key: from_dict(args[1], v, f"{path}.{key}") for key, v in value.items()}
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


def _decode_array(dtype: np.dtype, ndim: int, value, path: str) -> np.ndarray:
    try:
        out = np.array(value)
    except ValueError:  # ragged
        out = None
    if out is None or out.dtype.kind not in ("i" if dtype.kind == "i" else "if"):
        raise _fail(path, "expected a numeric array")
    if out.ndim != ndim:
        raise _fail(path, f"expected {ndim} dimensions, got shape {out.shape}")
    cast = out.astype(dtype, copy=False)
    if dtype.kind == "i" and not np.array_equal(cast, out):
        raise _fail(path, f"integers outside {dtype}")
    return cast


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


def one_of(*choices) -> dict:
    return _domain("one of " + ", ".join(map(repr, choices)), lambda v: v in choices)


POSITIVE = _domain("> 0", lambda v: v > 0)
NOT_NEGATIVE = _domain(">= 0 or NaN", lambda v: np.logical_not(v < 0))
NONZERO = _domain("nonzero", lambda v: v != 0)
ANY = _domain("any value", lambda v: True)  # bounded by its type alone: int64, or a finite double
EXTENDED = _domain("a finite number or an infinity", lambda v: v == v, finite=False)  # any double but NaN


def check(config, prefix: str = "") -> None:
    """Raise InvalidConfig for the first value of the dataclass `config`,
    nested dataclasses included, outside its field's declared domain;
    `prefix` starts the value's dotted name. A nested dataclass with a
    __post_init__ checked itself when it was built, and is not walked
    again, so checking each node of a tree as it is built stays linear."""
    for f in fields(config):
        _check_value(getattr(config, f.name), f.metadata, prefix + f.name.removesuffix("_"))


def _check_value(value, metadata, name: str) -> None:
    """Check `value`, held by a field with `metadata`, or each value nested
    in it, under the dotted name `name`."""
    if value is None:
        return
    if is_dataclass(value):
        if not hasattr(value, "__post_init__"):
            check(value, name + ".")
    elif isinstance(value, np.ndarray):
        bad = value[np.logical_not(metadata["holds"](value))] if "holds" in metadata else value[:0]
        if bad.size:
            raise InvalidConfig(f"{name} must be {metadata['domain']}, got {bad[0]}")
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
