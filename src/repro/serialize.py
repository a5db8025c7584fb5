"""Structural, type-hint-driven JSON serialization.

The serialization core behind every spec and result in the repository:
:func:`encode` turns any dataclass into plain JSON-able data
structurally (dataclasses become dicts, tuples become lists,
:class:`~repro.units.Rate` becomes its bytes-per-second payload, a
:class:`~repro.analysis.trace.TraceRecorder` becomes its sample
arrays), and :func:`decode` rebuilds the typed object from the target
class's dataclass field annotations.  No per-class ``__serialize__``
boilerplate is needed.

This module is deliberately dependency-light (units and the trace
recorder only) so both the experiment layer
(:mod:`repro.experiments.api`, which re-exports the codec) and
the scenario layer (:mod:`repro.scenario`) can build on it without
import cycles.

Polymorphic families — the scenario *parts* — hook into :func:`decode`
by exposing a ``resolve_part_type(data) -> type`` classmethod on their
abstract base: a field annotated with the base class then decodes into
whichever registered subclass the payload's discriminator names.

Every JSON input file the package reads — a batch file, a scenario
spec — goes through :func:`read_json_file`.  A store's entries are read
by :func:`repro.storage.read_envelope`, which parses a header line and
a digest-checked payload.
"""

from __future__ import annotations

import collections.abc
import json
import typing
from dataclasses import MISSING, fields, is_dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List

from .analysis.trace import TraceRecorder
from .units import Rate

__all__ = [
    "Serializable",
    "SpecError",
    "decode",
    "encode",
    "read_json_file",
]


class SpecError(ValueError):
    """A spec could not be built from the given inputs (CLI or JSON)."""


def read_json_file(path: str, what: str) -> Any:
    """The JSON document in the file at *path*, a *what* ("batch file").

    A file that cannot be opened, is not UTF-8 JSON, or nests deeper
    than the parser recurses raises :class:`SpecError` with one line
    naming the file.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as error:
        message = "cannot read %s %s: %s" % (what, path, error.strerror or error)
    except RecursionError:
        message = "%s %s is nested too deeply to read" % (what, path)
    except ValueError as error:  # bad JSON or bad UTF-8
        message = "%s %s is not valid JSON: %s" % (what, path, error)
    raise SpecError(message)


# ----------------------------------------------------------------------
# Structural JSON encoding/decoding
# ----------------------------------------------------------------------


def encode(obj: Any) -> Any:
    """Convert *obj* into plain JSON-able data (dicts/lists/scalars).

    Handles dataclasses (recursively, by field), ``Rate`` (stored as
    bytes/second), ``TraceRecorder`` (stored as its sample arrays),
    tuples/lists, and string- or int-keyed dicts.
    """
    return _encoder(type(obj))(obj)


#: Exact types :func:`encode` returns as they are; the containers'
#: encoders test their items against it instead of calling ``encode``.
_PLAIN = frozenset((type(None), bool, int, float, str))


@lru_cache(maxsize=None)
def _encoder(cls: type) -> Callable[[Any], Any]:
    """The encoder of instances of *cls*, chosen once per class.

    The checks run in a fixed order — scalars (subclasses included),
    ``Rate``, ``TraceRecorder``, dataclasses, sequences, dicts — so a
    ``Rate`` (a dataclass) encodes as a rate and a ``str`` enum passes
    through as the string it is.  Sweeps encode thousands of specs,
    plans and results of a handful of classes: re-testing each value's
    kind and re-reading ``dataclasses.fields()`` per object made
    :func:`encode` three to four times slower.
    """
    if cls is type(None) or issubclass(cls, (bool, int, float, str)):
        return _encode_plain
    if issubclass(cls, Rate):
        return _encode_rate
    if issubclass(cls, TraceRecorder):
        return _encode_trace
    if is_dataclass(cls) and not issubclass(cls, type):
        names = tuple(f.name for f in fields(cls))

        def encode_dataclass(obj: Any) -> Dict[str, Any]:
            values = {}
            for name in names:
                value = getattr(obj, name)
                values[name] = value if type(value) in _PLAIN else encode(value)
            return values

        return encode_dataclass
    if issubclass(cls, (list, tuple)):
        return _encode_sequence
    if issubclass(cls, dict):
        return _encode_dict
    return _unencodable


def _encode_plain(obj: Any) -> Any:
    return obj


def _encode_rate(obj: Rate) -> Dict[str, Any]:
    return {"bytes_per_second": obj.bytes_per_second}


def _encode_trace(obj: TraceRecorder) -> Dict[str, Any]:
    return {"name": obj.name, "times": list(obj.times), "values": list(obj.values)}


def _encode_sequence(obj: Any) -> List[Any]:
    return [item if type(item) in _PLAIN else encode(item) for item in obj]


def _encode_dict(obj: Dict[Any, Any]) -> Dict[str, Any]:
    return {
        key if type(key) is str else _encode_key(key):
            value if type(value) in _PLAIN else encode(value)
        for key, value in obj.items()
    }


def _unencodable(obj: Any) -> Any:
    raise TypeError("cannot encode %r of type %s" % (obj, type(obj).__name__))


def _encode_key(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, int):
        return str(key)
    raise TypeError("unsupported dict key %r (want str or int)" % (key,))


def decode(target_type: Any, data: Any) -> Any:
    """Rebuild a value of *target_type* from :func:`encode` output.

    The inverse of :func:`encode`, driven by typing annotations: the
    declared dataclass field types say whether a JSON number is a plain
    float or a :class:`Rate`, whether a JSON list is a list or a tuple,
    and which dataclass a nested dict reconstructs.
    """
    if target_type is Any or target_type is None or target_type is type(None):
        return data
    origin = typing.get_origin(target_type)
    if origin is typing.Union:
        if data is None:
            return None
        args = [a for a in typing.get_args(target_type) if a is not type(None)]
        if len(args) != 1:
            raise TypeError("cannot decode ambiguous union %r" % (target_type,))
        return decode(args[0], data)
    if target_type is float:
        return float(data)
    if target_type in (int, str, bool):
        return data
    if target_type is Rate:
        return Rate(data["bytes_per_second"])
    if target_type is TraceRecorder:
        recorder = TraceRecorder(data["name"])
        recorder.times = [float(t) for t in data["times"]]
        recorder.values = [float(v) for v in data["values"]]
        return recorder
    if isinstance(target_type, type):
        # Polymorphic hook: a class family (e.g. scenario parts) may
        # expose ``resolve_part_type(data) -> concrete class`` so a
        # field annotated with the (possibly abstract, non-dataclass)
        # base decodes into whichever registered subclass the payload
        # names.
        resolver = getattr(target_type, "resolve_part_type", None)
        if resolver is not None and isinstance(data, dict):
            target_type = resolver(data)
    if isinstance(target_type, type) and is_dataclass(target_type):
        return _decode_dataclass(target_type, data)
    if origin is list or target_type is list:
        args = typing.get_args(target_type)
        element = args[0] if args else Any
        return [decode(element, item) for item in data]
    if origin is collections.abc.Sequence:
        # Abstract Sequence fields sit in frozen specs: rebuild as tuples.
        (element,) = typing.get_args(target_type) or (Any,)
        return tuple(decode(element, item) for item in data)
    if origin is tuple or target_type is tuple:
        args = typing.get_args(target_type)
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(decode(args[0], item) for item in data)
        if args:
            return tuple(decode(a, item) for a, item in zip(args, data))
        return tuple(data)
    if origin is dict or target_type is dict:
        args = typing.get_args(target_type)
        key_type, value_type = args if args else (Any, Any)
        return {
            _decode_key(key_type, key): decode(value_type, value)
            for key, value in data.items()
        }
    # Unparameterized / unknown annotation: pass the data through.
    return data


def _decode_key(key_type: Any, key: str) -> Any:
    return int(key) if key_type is int else key


@lru_cache(maxsize=None)
def _type_hints(cls: type) -> Dict[str, Any]:
    """Resolved field annotations of *cls*, computed once per class.

    ``typing.get_type_hints`` re-evaluates every string annotation on
    every call — measurable on the decode-heavy paths (the plan cache's
    disk tier decodes whole scenario plans).  Treat the cached dict as
    read-only.
    """
    return typing.get_type_hints(cls)


def _decode_dataclass(cls: type, data: Dict[str, Any]) -> Any:
    hints = _type_hints(cls)
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        # A typo'd field silently falling back to its default would
        # corrupt sweeps; reject instead.
        raise SpecError(
            "%s has no field(s) %s (known: %s)"
            % (cls.__name__, ", ".join(sorted(map(repr, unknown))),
               ", ".join(sorted(known)))
        )
    kwargs: Dict[str, Any] = {}
    for f in fields(cls):
        if not f.init:
            continue
        if f.name in data:
            kwargs[f.name] = decode(hints.get(f.name, Any), data[f.name])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise SpecError(
                "%s is missing required field %r" % (cls.__name__, f.name)
            )
    return cls(**kwargs)


# ----------------------------------------------------------------------
# Mixin
# ----------------------------------------------------------------------


class Serializable:
    """Mixin giving dataclasses a JSON dict round-trip."""

    def to_dict(self) -> Dict[str, Any]:
        """This object as plain JSON-able data."""
        return encode(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Serializable":
        """Rebuild an instance from :meth:`to_dict` output."""
        return decode(cls, data)

    def to_json(self, **dumps_kwargs: Any) -> str:
        """This object as a JSON string (``json.dumps`` kwargs pass through)."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "Serializable":
        """Rebuild an instance from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
