"""Unit and property tests for the directory and path selection."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.tor.directory import Directory, RelayDescriptor
from repro.tor.path_selection import PathSelector
from repro.units import mbit_per_second


def relay(name, mbit=10.0):
    return RelayDescriptor(name, mbit_per_second(mbit))


def make_directory(count=10, mbit=10.0):
    return Directory(relay("r%02d" % i, mbit) for i in range(count))


# ----------------------------------------------------------------------
# Directory
# ----------------------------------------------------------------------


def test_add_and_get():
    d = Directory()
    d.add(relay("a"))
    assert list(d._relays) == ["a"]
    assert d.weighted_sample(random.Random(1), 1) == [relay("a")]


def test_duplicate_relay_rejected():
    d = Directory([relay("a")])
    with pytest.raises(ValueError):
        d.add(relay("a"))


def test_weighted_sample_distinct():
    d = make_directory(10)
    rng = random.Random(1)
    sample = d.weighted_sample(rng, 5)
    names = [r.name for r in sample]
    assert len(set(names)) == 5


def test_weighted_sample_excludes():
    d = make_directory(5)
    rng = random.Random(1)
    sample = d.weighted_sample(rng, 3, exclude=["r00", "r01"])
    names = {r.name for r in sample}
    assert names == {"r02", "r03", "r04"}


def test_weighted_sample_pool_too_small():
    d = make_directory(3)
    with pytest.raises(ValueError):
        d.weighted_sample(random.Random(1), 4)


def test_weighted_sample_prefers_high_bandwidth():
    """A relay with 99% of the weight wins most first draws."""
    d = Directory([relay("big", 990.0), relay("small", 10.0)])
    rng = random.Random(7)
    wins = sum(
        1 for __ in range(200) if d.weighted_sample(rng, 1)[0].name == "big"
    )
    assert wins > 170


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**16))
def test_property_weighted_sample_size_and_uniqueness(k, seed):
    d = make_directory(12)
    sample = d.weighted_sample(random.Random(seed), k)
    assert len(sample) == k
    assert len({r.name for r in sample}) == k


# ----------------------------------------------------------------------
# Path selection
# ----------------------------------------------------------------------


def test_select_path_distinct_relays():
    selector = PathSelector(make_directory(10), random.Random(1))
    path = selector.select_path(3)
    assert len(path) == 3
    assert len({r.name for r in path}) == 3


def test_select_path_draws_exit_guard_then_middles():
    """Tor's draw order, one relay at a time without replacement; every
    plan's paths depend on it."""
    d = Directory(relay("r%02d" % i, 5.0 + i) for i in range(10))
    path = PathSelector(d, random.Random(9)).select_path(4)
    rng = random.Random(9)
    exit_relay = d.weighted_sample(rng, 1)[0]
    guard = d.weighted_sample(rng, 1, exclude=[exit_relay.name])[0]
    middles = d.weighted_sample(rng, 2, exclude=[exit_relay.name, guard.name])
    assert path == [guard, *middles, exit_relay]


def test_select_path_without_flags_uses_anyone():
    selector = PathSelector(make_directory(6), random.Random(3))
    path = selector.select_path(3)
    assert len(path) == 3


def test_select_path_too_few_relays():
    selector = PathSelector(make_directory(2), random.Random(1))
    with pytest.raises(ValueError):
        selector.select_path(3)


def test_select_path_hops_validation():
    selector = PathSelector(make_directory(5), random.Random(1))
    with pytest.raises(ValueError):
        selector.select_path(0)


def test_select_single_hop_path():
    selector = PathSelector(Directory([relay("only")]), random.Random(1))
    path = selector.select_path(1)
    assert [r.name for r in path] == ["only"]


def test_select_path_longer_circuits():
    selector = PathSelector(make_directory(8), random.Random(5))
    path = selector.select_path(5)
    assert len(path) == 5
    assert len({r.name for r in path}) == 5


def test_selection_deterministic_given_rng():
    d = make_directory(10)
    first = PathSelector(d, random.Random(42)).select_path(3)
    second = PathSelector(d, random.Random(42)).select_path(3)
    assert [r.name for r in first] == [r.name for r in second]
