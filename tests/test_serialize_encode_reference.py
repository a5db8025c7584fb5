"""``serialize.encode`` against a frozen copy of its reflective original.

:func:`reference_encode` below is the structural encoder as it stood
before it dispatched on the object's type: every call re-tests the
value's kind in a fixed order and re-reads ``dataclasses.fields()``.
Whatever :func:`repro.serialize.encode` does to be faster, it must
return the same data — the same types, the same values, the same dict
key order, hence the same bytes under ``json.dumps`` — and raise the
same ``TypeError`` text, for every value either of them accepts.

The specs and results that really ship are pinned elsewhere (the
goldens and the per-verb ``--json`` digests); this file covers the
corners those never reach: subclasses of the scalar types, a
``str``-mixin ``Enum``, ``bool`` dict keys, frozen and defaulted
dataclasses nested in containers nested in dataclasses.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, ClassVar, Dict, List, Optional, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.trace import TraceRecorder
from repro.serialize import encode
from repro.units import Rate

# ----------------------------------------------------------------------
# The reference: the reflective encoder, frozen
# ----------------------------------------------------------------------


def reference_encode(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Rate):
        return {"bytes_per_second": obj.bytes_per_second}
    if isinstance(obj, TraceRecorder):
        return {
            "name": obj.name,
            "times": list(obj.times),
            "values": list(obj.values),
        }
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: reference_encode(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [reference_encode(item) for item in obj]
    if isinstance(obj, dict):
        return {_reference_key(key): reference_encode(value) for key, value in obj.items()}
    raise TypeError("cannot encode %r of type %s" % (obj, type(obj).__name__))


def _reference_key(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, int):
        return str(key)
    raise TypeError("unsupported dict key %r (want str or int)" % (key,))


def typed(data: Any) -> Any:
    """*data* with every node's exact type and every dict's key order
    made part of the value (``==`` alone says ``1 == 1.0 == True``)."""
    if type(data) is dict:
        return ("dict", tuple((typed(key), typed(value)) for key, value in data.items()))
    if type(data) is list:
        return ("list", tuple(typed(item) for item in data))
    return (type(data), repr(data))


def assert_same(value: Any) -> None:
    expected = reference_encode(value)
    got = encode(value)
    assert typed(got) == typed(expected)
    assert json.dumps(got) == json.dumps(expected)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


class Mood(str, enum.Enum):
    CALM = "calm"
    BUSY = "busy"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    """A plain ``str`` subclass."""


class Weight(float):
    """A plain ``float`` subclass."""


class Row(tuple):
    """A ``tuple`` subclass (encodes as a list, like any tuple)."""


class Table(dict):
    """A ``dict`` subclass."""


@dataclass(frozen=True)
class Leaf:
    name: str
    rate: Rate
    mood: Mood = Mood.CALM
    weight: float = 1.0


@dataclass(frozen=True)
class DerivedLeaf(Leaf):
    extra: Tuple[int, ...] = ()


@dataclass
class Branch:
    leaves: List[Leaf]
    meta: Dict[str, Any] = field(default_factory=dict)
    trace: Optional[TraceRecorder] = None
    hidden: int = field(default=7, init=False)
    scale: ClassVar[int] = 3  # a class variable, not a field


@dataclass
class Holder:
    value: Any = None
    tag: Level = Level.LOW


@dataclass(frozen=True)
class FastRate(Rate):
    """A ``Rate`` subclass (still a dataclass): it encodes as a ``Rate``."""

    label: str = "fast"


class LabelledTrace(TraceRecorder):
    """A ``TraceRecorder`` subclass with an extra attribute."""

    def __init__(self, name: str = "trace") -> None:
        super().__init__(name)
        self.unit = "cells"


FLOATS = st.floats(allow_nan=True, allow_infinity=True)
RATES = st.builds(Rate, st.floats(1e-3, 1e12)) | st.builds(
    FastRate, st.floats(1e-3, 1e12), st.text(max_size=3)
)


@st.composite
def traces(draw: Any) -> TraceRecorder:
    recorder = draw(st.sampled_from((TraceRecorder, LabelledTrace)))(
        draw(st.text(max_size=4))
    )
    samples = draw(st.lists(st.tuples(FLOATS, FLOATS), max_size=4))
    recorder.times = [t for t, __ in samples]
    recorder.values = [v for __, v in samples]
    return recorder


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    FLOATS,
    st.text(max_size=5),
    st.sampled_from(list(Mood) + list(Level)),
    st.builds(Label, st.text(max_size=3)),
    st.builds(Weight, FLOATS),
)
KEYS = st.one_of(
    st.text(max_size=4),
    st.integers(-5, 5),
    st.booleans(),
    st.sampled_from(list(Mood) + list(Level)),
)
LEAVES = st.builds(
    Leaf, st.text(max_size=4), RATES, st.sampled_from(list(Mood)), FLOATS
) | st.builds(
    DerivedLeaf, st.text(max_size=4), RATES,
    extra=st.lists(st.integers(), max_size=3).map(tuple),
)


def _containers(inner: Any) -> Any:
    return st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3).map(Row),
        st.dictionaries(KEYS, inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3).map(Table),
        st.builds(Holder, inner, st.sampled_from(list(Level))),
        st.builds(
            Branch,
            st.lists(LEAVES, max_size=2),
            st.dictionaries(st.text(max_size=3), inner, max_size=2),
            st.none() | traces(),
        ),
    )


VALUES = st.recursive(
    SCALARS | RATES | traces() | LEAVES, _containers, max_leaves=12
)


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@given(VALUES)
def test_encode_matches_the_reflective_reference(value):
    assert_same(value)


@given(st.lists(VALUES, min_size=2, max_size=4))
def test_encode_matches_the_reference_across_calls(values):
    """Whatever ``encode`` remembers per type, one call's types must not
    change what a later call returns."""
    for value in values:
        assert_same(value)
    assert_same(values)


def test_init_false_fields_and_subclass_fields_are_encoded():
    branch = Branch([DerivedLeaf("a", Rate(2.0), extra=(1, 2))])
    assert encode(branch) == {
        "leaves": [{
            "name": "a", "rate": {"bytes_per_second": 2.0},
            "mood": Mood.CALM, "weight": 1.0, "extra": [1, 2],
        }],
        "meta": {},
        "trace": None,
        "hidden": 7,
    }
    assert_same(branch)


def test_scalar_subclasses_pass_through_unchanged():
    for value in (True, Level.HIGH, Mood.BUSY, Label("x"), Weight(0.5)):
        assert encode(value) is value


def test_bool_and_enum_keys_spell_as_str_does():
    data = {True: 1, 0: 2, Level.HIGH: 3, Mood.CALM: 4}
    assert list(encode(data)) == [_reference_key(key) for key in data]
    assert list(encode(data))[0] == "True"
    assert_same(data)


@pytest.mark.parametrize(
    "value, message",
    [
        ({1, 2}, "cannot encode {1, 2} of type set"),
        (b"ab", "cannot encode b'ab' of type bytes"),
        (Leaf, "cannot encode %r of type type" % (Leaf,)),
        (Holder([frozenset()]), "cannot encode frozenset() of type frozenset"),
        ({1.5: 0}, "unsupported dict key 1.5 (want str or int)"),
        (Holder({"ok": {(1, 2): 0}}), "unsupported dict key (1, 2) (want str or int)"),
        ({None: 0}, "unsupported dict key None (want str or int)"),
    ],
)
def test_unencodable_values_and_keys_raise_the_same_text(value, message):
    with pytest.raises(TypeError) as reference:
        reference_encode(value)
    assert str(reference.value) == message
    with pytest.raises(TypeError) as raised:
        encode(value)
    assert str(raised.value) == message
