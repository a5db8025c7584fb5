"""Unit tests for seeded random streams (repro.sim.rand)."""

from __future__ import annotations

from repro.sim.rand import RandomStreams, derive_seed


def test_derive_seed_is_deterministic():
    assert derive_seed(42, "topology") == derive_seed(42, "topology")


def test_derive_seed_depends_on_name():
    assert derive_seed(42, "topology") != derive_seed(42, "paths")


def test_derive_seed_depends_on_master():
    assert derive_seed(1, "x") != derive_seed(2, "x")


def test_streams_are_memoized():
    streams = RandomStreams(7)
    assert streams.stream("a") is streams.stream("a")


def test_streams_reproducible_across_instances():
    a = RandomStreams(7).stream("net")
    b = RandomStreams(7).stream("net")
    assert [a.random() for __ in range(10)] == [b.random() for __ in range(10)]


def test_streams_independent_of_each_other():
    """Draws on one stream never perturb another stream."""
    lonely = RandomStreams(7)
    shared = RandomStreams(7)
    __ = [shared.stream("noise").random() for __ in range(100)]
    expected = [lonely.stream("signal").random() for __ in range(5)]
    got = [shared.stream("signal").random() for __ in range(5)]
    assert got == expected
