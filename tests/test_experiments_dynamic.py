"""Tests for the mid-flow rate-change experiment (repro.experiments.dynamic)."""

from __future__ import annotations

import pytest

from repro.experiments import get_experiment
from repro.experiments.dynamic import DynamicConfig, set_duplex_rate
from repro.net.topology import LinkSpec, build_chain
from repro.units import mbit_per_second, milliseconds, seconds


@pytest.fixture(scope="module")
def result():
    return get_experiment("dynamic").run(DynamicConfig(duration=seconds(2.5)))


@pytest.fixture(scope="module")
def default_result():
    """The run ``repro dynamic`` prints."""
    return get_experiment("dynamic").run(DynamicConfig())


def test_set_duplex_rate_changes_both_directions(sim):
    spec = LinkSpec(mbit_per_second(16), milliseconds(5))
    topo = build_chain(sim, ["a", "b"], [spec])
    set_duplex_rate(topo, "a", "b", mbit_per_second(2))
    for node_name, peer in (("a", "b"), ("b", "a")):
        iface = topo._interface_between(node_name, peer)
        assert iface.link.rate.mbit_per_second == pytest.approx(2.0)


def test_set_duplex_rate_unknown_link(sim):
    spec = LinkSpec(mbit_per_second(16), milliseconds(5))
    topo = build_chain(sim, ["a", "b", "c"], [spec, spec])
    with pytest.raises(KeyError):
        set_duplex_rate(topo, "a", "c", mbit_per_second(2))


def test_optimal_windows_reflect_change(result):
    assert result.optimal_after_cells > result.optimal_before_cells


def test_dynamic_adapts_faster(result, default_result):
    """The future-work controller re-ramps much faster than waiting for
    Vegas to crawl up one cell per round."""
    for run in (result, default_result):
        adapt_dynamic = run.time_to_adapt("dynamic")
        adapt_static = run.time_to_adapt("circuitstart")
        assert adapt_dynamic is not None
        assert adapt_static is not None
        assert adapt_dynamic < adapt_static / 2


def test_dynamic_reenters_startup(result, default_result):
    for run in (result, default_result):
        assert run.reentries["dynamic"] >= 1
        assert run.reentries["circuitstart"] == 0


def test_both_deliver_data_after_change(result):
    for kind in result.config.controller_kinds:
        assert result.bytes_after_change[kind] > 0


def test_traces_recorded_for_all_kinds(result):
    for kind in result.config.controller_kinds:
        assert len(result.traces[kind]) > 3


def test_json_bytes_are_pinned():
    """A reduced ``repro dynamic --json``, byte for byte (captured
    before the chain harnesses shared one builder)."""
    from helpers import json_digest, pins

    spec = DynamicConfig(change_time=0.6, duration=1.2)
    assert json_digest(get_experiment("dynamic").run(spec)) == (
        pins("dynamic-json")["reduced"]
    )


def test_bottleneck_must_be_on_the_path():
    """Was an IndexError out of the running experiment."""
    with pytest.raises(ValueError, match="out of range"):
        DynamicConfig(bottleneck_distance=9)
    with pytest.raises(ValueError, match="at least one relay"):
        DynamicConfig(relay_count=0, bottleneck_distance=0)


@pytest.mark.parametrize("change_time,duration", [
    (5.0, 0.3),   # never applied: the whole transfer counted as "after"
    (0.3, 0.3),
    (-0.1, 1.0),
])
def test_rate_change_must_fall_inside_the_run(change_time, duration):
    with pytest.raises(ValueError, match="inside the run"):
        DynamicConfig(change_time=change_time, duration=duration)


def test_rendered_text_is_pinned(result):
    """``repro dynamic`` as printed for the module's 2.5 s run."""
    from helpers import pins, render_digest

    assert render_digest("dynamic", result) == pins("dynamic")["module"]
