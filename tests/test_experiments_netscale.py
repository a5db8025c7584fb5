"""Tests for the network-scale experiment (repro.experiments.netscale)."""

from __future__ import annotations

import json

import pytest

from repro.experiments import get_experiment
from repro.experiments.netgen import (
    NetworkConfig,
    instantiate_network,
    plan_network,
)
from repro.experiments.netscale import (
    BULK,
    INTERACTIVE,
    CircuitSample,
    NetScaleConfig,
    NetScaleResult,
)
from repro.scenario import forced_bottleneck_paths
from repro.sim.rand import RandomStreams
from repro.sim.simulator import Simulator
from repro.units import kib


def small_config(circuits: int = 20) -> NetScaleConfig:
    """A fast-but-real scenario: many circuits, small payloads."""
    return NetScaleConfig(
        circuit_count=circuits,
        bulk_payload_bytes=kib(80),
        interactive_payload_bytes=kib(10),
        network=NetworkConfig(relay_count=10, client_count=10, server_count=10),
    )


run_netscale_experiment = get_experiment("netscale").run


@pytest.fixture(scope="module")
def result() -> NetScaleResult:
    return run_netscale_experiment(small_config())


def test_registered():
    experiment = get_experiment("netscale")
    assert experiment.spec_type is NetScaleConfig
    assert experiment.result_type is NetScaleResult


def test_twenty_circuit_run_completes(result):
    for kind in result.config.kinds:
        assert len(result.samples[kind]) == 20
        for sample in result.samples[kind]:
            assert sample.time_to_last_byte > 0
            assert sample.time_to_first_byte > 0
            assert sample.goodput_bytes_per_second > 0


def test_every_circuit_crosses_the_bottleneck(result):
    for kind in result.config.kinds:
        for sample in result.samples[kind]:
            assert sample.relays.count(result.bottleneck_relay) == 1


def test_workload_mix_present_and_identical_across_kinds(result):
    with_kind, without_kind = result.config.kinds
    workloads = [s.workload for s in result.samples[with_kind]]
    assert set(workloads) == {BULK, INTERACTIVE}
    assert workloads == [s.workload for s in result.samples[without_kind]]


def test_paths_and_starts_identical_across_kinds(result):
    with_kind, without_kind = result.config.kinds
    for a, b in zip(result.samples[with_kind], result.samples[without_kind]):
        assert a.relays == b.relays
        assert a.start_time == b.start_time
        assert a.payload_bytes == b.payload_bytes


def test_circuitstart_exits_startup(result):
    with_kind = result.config.kinds[0]
    exits = result.startup_durations(with_kind)
    assert exits, "no circuit ever left start-up"
    assert all(d >= 0 for d in exits)


def test_spec_json_round_trip():
    config = small_config()
    rebuilt = NetScaleConfig.from_json(config.to_json())
    assert rebuilt == config


def test_result_json_round_trip(result):
    data = json.loads(result.to_json())
    rebuilt = NetScaleResult.from_dict(data)
    assert rebuilt.to_dict() == result.to_dict()
    assert rebuilt.bottleneck_relay == result.bottleneck_relay
    assert isinstance(rebuilt.samples[result.config.kinds[0]][0], CircuitSample)


def test_result_analysis_helpers(result):
    with_kind = result.config.kinds[0]
    bulk = result.of_workload(with_kind, BULK)
    interactive = result.of_workload(with_kind, INTERACTIVE)
    assert len(bulk) + len(interactive) == 20
    assert result.ttlb_cdf(with_kind).median > 0
    # Improvement is a finite number either way the comparison lands.
    assert result.median_improvement(BULK) == result.median_improvement(BULK)


def test_events_executed_recorded(result):
    for kind in result.config.kinds:
        assert result.events_executed[kind] > 0


def test_determinism():
    config = small_config(circuits=6)
    a = run_netscale_experiment(config)
    b = run_netscale_experiment(config)
    assert a.to_dict() == b.to_dict()


def test_select_paths_forces_bottleneck_middle():
    config = small_config()
    streams = RandomStreams(config.seed)
    network = instantiate_network(plan_network(config.network, streams), Simulator())
    bottleneck = network.relay_names[0]
    paths = forced_bottleneck_paths(
        streams.stream("netscale.paths"), network.directory, bottleneck,
        config.hops, config.circuit_count,
    )
    assert len(paths) == config.circuit_count
    for path in paths:
        assert len(path) == config.hops
        assert path[config.hops // 2] == bottleneck
        assert len(set(path)) == len(path)


def test_config_validation():
    with pytest.raises(ValueError):
        NetScaleConfig(circuit_count=0)
    with pytest.raises(ValueError):
        NetScaleConfig(bulk_fraction=1.5)
    with pytest.raises(ValueError):
        NetScaleConfig(
            hops=4,
            network=NetworkConfig(relay_count=3, client_count=3, server_count=3),
        )


def test_render_mentions_bottleneck(result):
    text = get_experiment("netscale").render(result)
    assert result.bottleneck_relay in text
    assert "median TTLB improvement" in text


def test_interactive_is_stream_backed(result):
    """Interactive circuits carry per-message latencies (stream layer)."""
    for kind in result.config.kinds:
        for sample in result.of_workload(kind, INTERACTIVE):
            assert sample.message_latencies
            assert all(latency > 0 for latency in sample.message_latencies)
        for sample in result.of_workload(kind, BULK):
            assert sample.message_latencies == []


def churn_config(circuits: int = 12) -> NetScaleConfig:
    from repro.scenario import OpenLoopChurn, UtilizationProbe

    return NetScaleConfig(
        circuit_count=circuits,
        bulk_payload_bytes=kib(60),
        interactive_payload_bytes=kib(10),
        network=NetworkConfig(relay_count=10, client_count=10, server_count=10),
        churn=OpenLoopChurn(start_window=1.0, arrival_rate=3.0, horizon=3.0),
        probes=(UtilizationProbe(interval=0.25),),
    )


@pytest.fixture(scope="module")
def churned() -> NetScaleResult:
    return run_netscale_experiment(churn_config())


def test_churn_adds_rearrivals_and_departures(churned):
    for kind in churned.config.kinds:
        rows = churned.samples[kind]
        assert len(rows) > churned.config.circuit_count
        assert any(s.generation > 0 for s in rows)
        assert all(s.departed_at is not None for s in rows)
        assert all(s.departed_at >= s.start_time for s in rows)


def test_churn_reports_utilization_time_series(churned):
    for kind in churned.config.kinds:
        (series,) = churned.utilization_series(kind)
        assert series.target == churned.bottleneck_relay
        assert len(series.times) == len(series.values) >= 2
        assert series.peak > 0


def test_churn_steady_state_samples(churned):
    settle = churned.config.churn.settle_time()
    for kind in churned.config.kinds:
        steady = churned.steady_samples(kind)
        assert steady
        assert all(s.start_time >= settle for s in steady)
        assert all(s.time_to_last_byte > 0 for s in steady)


def test_churn_result_json_round_trip(churned):
    rebuilt = NetScaleResult.from_dict(json.loads(churned.to_json()))
    assert rebuilt.to_dict() == churned.to_dict()
    from repro.scenario import OpenLoopChurn

    assert isinstance(rebuilt.config.churn, OpenLoopChurn)
    kind = churned.config.kinds[0]
    assert rebuilt.utilization_series(kind)[0].values == \
        churned.utilization_series(kind)[0].values


def test_churn_render_mentions_steady_state_and_probe(churned):
    text = get_experiment("netscale").render(churned)
    assert "steady state" in text
    assert "probe utilization@" in text


def test_no_churn_steady_samples_returns_everything(result):
    kind = result.config.kinds[0]
    assert result.steady_samples(kind) == result.samples[kind]


def test_render_with_single_workload_class():
    """bulk_fraction=1.0 is a legal config; render must not crash on
    the empty interactive class."""
    config = NetScaleConfig(
        circuit_count=4,
        bulk_fraction=1.0,
        bulk_payload_bytes=kib(40),
        network=NetworkConfig(relay_count=8, client_count=4, server_count=4),
    )
    result = run_netscale_experiment(config)
    text = get_experiment("netscale").render(result)
    assert BULK in text
    assert "median TTLB improvement" in text


def test_rendered_text_is_pinned(result, churned):
    """``repro netscale`` as printed, plain and with ``--churn``: the
    table, the improvement / start-up / engine-events lines, and under
    churn the steady-state and probe lines."""
    from helpers import pins, render_digest

    pinned = pins("netscale")
    assert render_digest("netscale", result) == pinned["plain"]
    assert render_digest("netscale", churned) == pinned["churn"]


def test_rendered_text_pin_has_teeth(result, monkeypatch):
    """One header of one table spelled differently must move the digest
    (renderers fetch ``format_table`` from ``repro.report.tables`` per call)."""
    import repro.report.tables
    from helpers import render_digest

    honest = render_digest("netscale", result)
    real = repro.report.tables.format_table

    def respelled(headers, rows, **kwargs):
        headers = ["Controller" if h == "controller" else h for h in headers]
        return real(headers, rows, **kwargs)

    monkeypatch.setattr(repro.report.tables, "format_table", respelled)
    assert render_digest("netscale", result) != honest
    monkeypatch.undo()
    assert render_digest("netscale", result) == honest
