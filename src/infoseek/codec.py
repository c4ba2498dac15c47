"""Typed JSON codec derived from dataclass annotations.

encode(obj) writes a dataclass as plain JSON values: node ids and
predicates as their canonical strings, enums by value, tuples as lists and
nested dataclasses as objects, through their own to_dict/from_dict when
they define one (so a class can keep an envelope such as a schema version).
decode(cls, data) checks JSON types instead of coercing: an int is accepted
for a float, a bool never for an int, and an unknown key or a missing
required one is an error. Each class's coder is built when first used.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import operator
import types
import typing
from typing import Any, Callable

from .questions import Predicate, PredicateError, parse_canonical
from .taxonomy import NodeId

Encode = Callable[[Any], Any] | None  # None: the value is already plain JSON
Decode = Callable[[Any], Any]


class CodecError(ValueError):
    """A JSON value does not fit the declared type of its field."""


def encode(obj: Any) -> dict[str, Any]:
    return _encoder(type(obj))(obj)


def decode(cls: type, data: Any) -> Any:
    return _decoder(cls)(data)


@functools.cache
def field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _checked(tp: type, convert: Callable[[Any], Any] | None = None) -> Decode:
    def check(value: Any) -> Any:
        if type(value) is not tp:
            raise CodecError(f"expected {tp.__name__}, got {value!r}")
        try:
            return value if convert is None else convert(value)
        except (ValueError, PredicateError) as exc:
            raise CodecError(str(exc)) from None

    return check


def _float(value: Any) -> float:
    if type(value) is float or (type(value) is int and abs(value) < 1e308):
        return float(value)
    raise CodecError(f"expected float, got {value!r}")


@functools.cache
def _coder(tp: Any) -> tuple[Encode, Decode]:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is NodeId:
        return str, _checked(str, NodeId.parse)
    if tp == Predicate:
        return operator.methodcaller("canonical"), _checked(str, parse_canonical)
    if origin in (types.UnionType, typing.Union) and type(None) in args:
        enc, dec = _coder(functools.reduce(operator.or_, [a for a in args if a is not type(None)]))
        return (
            enc and (lambda v: None if v is None else enc(v)),
            lambda v: None if v is None else dec(v),
        )
    if origin is tuple:  # tuple[X, ...]
        enc, dec = _coder(args[0])
        return (
            list if enc is None else lambda v: [enc(x) for x in v],
            _checked(list, lambda v: tuple([dec(x) for x in v])),
        )
    if origin is dict:  # dict[str, X]: JSON object keys are always strings
        enc, dec = _coder(args[1])
        return (
            dict if enc is None else lambda v: {k: enc(x) for k, x in v.items()},
            _checked(dict, lambda v: {k: dec(x) for k, x in v.items()}),
        )
    if tp in (int, str, bool):
        return None, _checked(tp)
    if tp is float:
        return None, _float
    if isinstance(tp, type) and issubclass(tp, enum.Enum):  # enums with str values
        return operator.attrgetter("value"), _checked(str, tp)
    if dataclasses.is_dataclass(tp):
        return (
            getattr(tp, "to_dict", None) or _encoder(tp),
            getattr(tp, "from_dict", None) or _decoder(tp),
        )
    raise TypeError(f"no codec for {tp!r}")


@functools.cache
def _encoder(cls: type) -> Callable[[Any], dict[str, Any]]:
    hints = typing.get_type_hints(cls)
    plan = [(name, _coder(hints[name])[0]) for name in field_names(cls)]

    def encode_fields(obj: Any) -> dict[str, Any]:
        out = {}
        for name, enc in plan:
            value = getattr(obj, name)
            out[name] = value if enc is None else enc(value)
        return out

    return encode_fields


@functools.cache
def _decoder(cls: type) -> Callable[[Any], Any]:
    hints = typing.get_type_hints(cls)
    # The third entry lets a value whose JSON type is exactly its field's skip the check.
    plan = [(name, _coder(hints[name])[1], hints[name]) for name in field_names(cls)]
    names = frozenset(field_names(cls))

    def decode_fields(data: Any) -> Any:
        if type(data) is not dict:
            raise CodecError(f"expected an object for {cls.__name__}, got {data!r}")
        if not names.issuperset(data):
            raise CodecError(f"unknown field {min(data.keys() - names)!r} for {cls.__name__}")
        kwargs: dict[str, Any] = {}
        try:
            for name, dec, exact in plan:
                if name in data:
                    value = data[name]
                    kwargs[name] = value if type(value) is exact else dec(value)
        except CodecError as exc:
            raise CodecError(f"{name}: {exc}") from None
        try:
            return cls(**kwargs)
        except TypeError as exc:  # every value is checked, so only a missing field is left
            raise CodecError(str(exc)) from None

    return decode_fields
