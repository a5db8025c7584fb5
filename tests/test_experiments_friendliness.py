"""Tests for the background-friendliness experiment."""

from __future__ import annotations

import pytest

from repro.experiments import get_experiment
from repro.experiments.friendliness import FriendlinessConfig
from repro.units import seconds


def rows_by_kind(config):
    return {row.kind: row for row in get_experiment("friendliness").run(config).rows}


@pytest.fixture(scope="module")
def rows():
    return rows_by_kind(FriendlinessConfig(duration=seconds(1.2)))


@pytest.fixture(scope="module")
def default_rows():
    """The run ``repro friendliness`` prints."""
    return rows_by_kind(FriendlinessConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        FriendlinessConfig(background_load=0.0)
    with pytest.raises(ValueError):
        FriendlinessConfig(background_load=1.5)
    with pytest.raises(ValueError):
        FriendlinessConfig(circuit_start=2.0, duration=1.0)


def test_all_kinds_ran(rows):
    assert set(rows) == {"circuitstart", "plain-slowstart", "jumpstart"}


def test_background_flow_measured(rows):
    for row in rows.values():
        assert row.baseline_p95 > 0
        assert row.loaded_p95 >= row.baseline_p95 - 1e-6


def test_circuits_moved_data(rows):
    for row in rows.values():
        assert row.circuit_bytes > 0


def test_circuitstart_is_friendlier_than_jumpstart(rows, default_rows):
    """The paper's design goal: non-aggressive traffic patterns.  The
    ramp + compensation must disturb the background flow far less than
    a JumpStart-style initial burst."""
    for run in (rows, default_rows):
        cs = run["circuitstart"]
        js = run["jumpstart"]
        assert cs.added_delay_p95 < js.added_delay_p95 / 2
        assert cs.peak_queue_packets < js.peak_queue_packets / 2


def test_circuitstart_added_delay_is_modest(rows):
    """CircuitStart's own impact stays within a couple of round trips."""
    cs = rows["circuitstart"]
    assert cs.added_delay_p95 < 0.05  # < 50 ms over a 16.7 ms baseline


def test_rendered_text_is_pinned():
    """``repro friendliness`` as printed for the module's 1.2 s spec."""
    from helpers import pins, render_digest

    spec = FriendlinessConfig(duration=seconds(1.2))
    result = get_experiment("friendliness").run(spec)
    assert render_digest("friendliness", result) == pins("friendliness")["1.2 s"]
