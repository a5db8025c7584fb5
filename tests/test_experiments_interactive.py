"""Tests for the interactive-latency experiment."""

from __future__ import annotations

import pytest

from repro.experiments import get_experiment
from repro.experiments.interactive import InteractiveConfig
from repro.units import seconds


def rows_by_kind(config):
    return {row.kind: row for row in get_experiment("interactive").run(config).rows}


@pytest.fixture(scope="module")
def rows():
    return rows_by_kind(InteractiveConfig(duration=seconds(2.5)))


@pytest.fixture(scope="module")
def default_rows():
    """The run ``repro interactive`` prints."""
    return rows_by_kind(InteractiveConfig())


def test_all_kinds_ran(rows):
    assert set(rows) == {"circuitstart", "jumpstart", "fixed"}


def test_messages_delivered(rows):
    for row in rows.values():
        assert len(row.latencies) >= 10
        assert all(latency > 0 for latency in row.latencies)


def test_bulk_kept_flowing(rows):
    for row in rows.values():
        assert row.bulk_bytes_delivered > 1024 * 1024


def test_circuitstart_interactive_latency_is_lowest(rows, default_rows):
    """Converging onto the optimal window keeps the standing queue
    small, which interactive messages feel directly."""
    for run in (rows, default_rows):
        cs = run["circuitstart"].steady_mean
        assert cs < run["jumpstart"].steady_mean
        assert cs < run["fixed"].steady_mean


def test_fixed_window_pays_a_persistent_latency_tax(rows):
    """An oversized fixed window keeps a permanent standing queue."""
    assert rows["fixed"].steady_mean > rows["circuitstart"].steady_mean * 1.3


def test_latency_floor_is_propagation(rows):
    """No message can beat the propagation+serialization floor
    (4 links x 12 ms one-way, plus cell serialization)."""
    floor = 4 * 0.012
    for row in rows.values():
        assert min(row.latencies) > floor


def test_json_bytes_are_pinned():
    """A reduced ``repro interactive --json``, byte for byte (captured
    before the chain harnesses shared one builder)."""
    from helpers import json_digest, pins

    spec = InteractiveConfig(duration=1.2, settle_time=0.5)
    assert json_digest(get_experiment("interactive").run(spec)) == (
        pins("interactive-json")["reduced"]
    )


@pytest.mark.parametrize("distance", [-1, 4, 9])
def test_bottleneck_must_be_on_the_path(distance):
    """Three relays have links 0..3; a distance past them used to run
    with no slow link at all and report a plausible latency."""
    with pytest.raises(ValueError, match="out of range"):
        InteractiveConfig(bottleneck_distance=distance)


def test_rendered_text_is_pinned():
    """``repro interactive`` as printed for the reduced spec."""
    from helpers import pins, render_digest

    spec = InteractiveConfig(duration=1.2, settle_time=0.5)
    result = get_experiment("interactive").run(spec)
    assert render_digest("interactive", result) == pins("interactive")["reduced"]
