"""Tests for the fault plane: models, parts, planning, and the engine.

Layer by layer, mirroring the refactor: the runtime fault models
(:mod:`repro.net.faults`), the registered fault parts and their
planning half (:mod:`repro.scenario.faults`), the engine's failure
attribution, and the plan-cache replayability contract (a cached-plan
rerun of an adversity scenario is byte-identical to its cold-plan
run).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.net.faults import (
    BernoulliLossModel,
    BoundedReorderModel,
    CompositeFaultModel,
    FilteredFaultModel,
    GilbertElliottModel,
    ScriptedLossModel,
    install_fault_model,
)
from repro.scenario import (
    BulkWorkload,
    ClosedLoopChurn,
    FailureRateProbe,
    FaultEvent,
    FaultInjector,
    GeneratedTopology,
    InteractiveWorkload,
    LinkFaults,
    NetworkConfig,
    NoChurn,
    OpenLoopChurn,
    PlanCache,
    RelayChurnFaults,
    RelayFailure,
    RequestResponseWorkload,
    Scenario,
    UtilizationProbe,
    list_parts,
    plan_scenario,
    run_planned,
)
from repro.scenario.cache import DiskPlanCache
from repro.scenario.netgen import instantiate_network
from repro.serialize import decode, encode
from repro.sim.rand import RandomStreams
from repro.sim.simulator import Simulator
from repro.transport.config import TransportConfig, transport_profile_names
from repro.units import kib


def small_network(**overrides) -> NetworkConfig:
    defaults = dict(relay_count=10, client_count=8, server_count=8)
    defaults.update(overrides)
    return NetworkConfig(**defaults)


def faulted_scenario(**overrides) -> Scenario:
    """A small adversity scenario: loss + relay churn, reliable hops."""
    defaults = dict(
        topology=GeneratedTopology(network=small_network(),
                                   force_bottleneck=True),
        workloads=(BulkWorkload(weight=1.0, payload_bytes=kib(60)),),
        churn=OpenLoopChurn(start_window=1.0, arrival_rate=3.0, horizon=3.0),
        probes=(UtilizationProbe(interval=0.25),
                FailureRateProbe(interval=0.25)),
        faults=(LinkFaults(loss_rate=0.02),
                RelayChurnFaults(mttf=4.0, mttr=0.5, horizon=3.0)),
        circuit_count=8,
        transport=TransportConfig.profile("reliable"),
    )
    defaults.update(overrides)
    return Scenario(**defaults)


# ----------------------------------------------------------------------
# Runtime fault models (repro.net.faults)
# ----------------------------------------------------------------------


def test_bernoulli_loss_rate_and_counters():
    model = BernoulliLossModel(random.Random(7), 0.3)
    verdicts = [model.on_transmit(None) for __ in range(2000)]
    drops = sum(1 for v in verdicts if v < 0)
    assert model.packets_seen == 2000
    assert model.packets_dropped == drops
    assert 0.25 < drops / 2000 < 0.35
    assert all(v == 0.0 for v in verdicts if v >= 0)


def test_bernoulli_rejects_bad_rate():
    with pytest.raises(ValueError, match="loss_rate"):
        BernoulliLossModel(random.Random(0), 1.0)
    with pytest.raises(ValueError, match="loss_rate"):
        BernoulliLossModel(random.Random(0), -0.1)


def test_gilbert_elliott_is_bursty():
    # Force the chain into the bad state immediately and keep it there:
    # every packet after the first transition is lost.
    model = GilbertElliottModel(
        random.Random(3), p_good_to_bad=1.0, p_bad_to_good=0.0, bad_loss=1.0
    )
    verdicts = [model.on_transmit(None) for __ in range(50)]
    assert all(v < 0 for v in verdicts)
    assert model.packets_dropped == 50


def test_bounded_reorder_delays_within_bound():
    model = BoundedReorderModel(random.Random(11), 0.5, 0.01)
    verdicts = [model.on_transmit(None) for __ in range(500)]
    delayed = [v for v in verdicts if v > 0]
    assert delayed and model.packets_delayed == len(delayed)
    assert all(0 < v <= 0.01 for v in delayed)
    assert model.packets_dropped == 0


def test_scripted_loss_drops_exact_indices():
    model = ScriptedLossModel({1, 3})
    verdicts = [model.on_transmit(None) for __ in range(5)]
    assert [v < 0 for v in verdicts] == [False, True, False, True, False]


def test_composite_first_drop_wins_and_delays_add():
    composite = CompositeFaultModel(
        [ScriptedLossModel({0}), ScriptedLossModel(())]
    )
    assert composite.on_transmit(None) < 0  # first model drops
    assert composite.on_transmit(None) == 0.0

    class FixedDelay(BoundedReorderModel):
        def on_transmit(self, packet):
            return self._delay(0.002)

    delays = CompositeFaultModel(
        [FixedDelay(random.Random(0), 0.5, 0.01),
         FixedDelay(random.Random(0), 0.5, 0.01)]
    )
    assert delays.on_transmit(None) == pytest.approx(0.004)


def test_install_fault_model_composes():
    class FakeInterface:
        fault_model = None

    interface = FakeInterface()
    first = ScriptedLossModel(())
    second = ScriptedLossModel(())
    third = ScriptedLossModel(())
    install_fault_model(interface, first)
    assert interface.fault_model is first
    install_fault_model(interface, second)
    assert isinstance(interface.fault_model, CompositeFaultModel)
    assert interface.fault_model.models == [first, second]
    install_fault_model(interface, third)
    assert interface.fault_model.models == [first, second, third]


# ----------------------------------------------------------------------
# Transport profiles
# ----------------------------------------------------------------------


def test_transport_profiles():
    assert "reliable" in transport_profile_names()
    reliable = TransportConfig.profile("reliable")
    assert reliable.reliable
    assert not TransportConfig().reliable
    # with_profile keeps unrelated tunables the caller already set.
    tuned = TransportConfig(initial_cwnd_cells=7).with_profile("reliable")
    assert tuned.reliable and tuned.initial_cwnd_cells == 7
    with pytest.raises(ValueError, match="unknown transport profile"):
        TransportConfig.profile("teleport")


# ----------------------------------------------------------------------
# Fault parts: registration, validation, planning
# ----------------------------------------------------------------------


def test_fault_parts_registered():
    rows = {(kind, name) for kind, name, __ in list_parts()}
    assert ("fault", "link-faults") in rows
    assert ("fault", "relay-churn") in rows
    assert ("churn", "closed-loop") in rows
    assert ("workload", "request-response") in rows
    assert ("probe", "failure-rate") in rows


def test_fault_event_validation_and_round_trip():
    event = FaultEvent("relay03", 1.25, "kill")
    assert decode(FaultEvent, encode(event)) == event
    with pytest.raises(ValueError, match="action"):
        FaultEvent("relay03", 1.0, "reboot")
    with pytest.raises(ValueError, match="non-negative"):
        FaultEvent("relay03", -1.0, "kill")
    with pytest.raises(ValueError, match="relay name"):
        FaultEvent("", 1.0, "kill")


def test_link_faults_require_reliable_transport():
    with pytest.raises(ValueError, match="reliable"):
        faulted_scenario(transport=TransportConfig())
    # Loss-free link faults are fine on the stock transport.
    faulted_scenario(
        faults=(LinkFaults(loss_rate=0.0),), transport=TransportConfig()
    )


def test_link_faults_validation():
    with pytest.raises(ValueError, match="unknown loss model"):
        faulted_scenario(faults=(LinkFaults(loss_rate=0.01, model="fancy"),))
    with pytest.raises(ValueError, match="loss_rate"):
        faulted_scenario(faults=(LinkFaults(loss_rate=1.5),))
    with pytest.raises(ValueError, match="reorder_rate"):
        faulted_scenario(faults=(LinkFaults(reorder_rate=-0.1),))


def test_relay_churn_planning_is_deterministic():
    scenario = faulted_scenario()
    first = plan_scenario(scenario)
    second = plan_scenario(scenario)
    assert first.fault_events == second.fault_events
    assert first.fault_events, "expected planned kills at mttf=4"


def test_relay_churn_mttf_zero_plans_nothing():
    plan = plan_scenario(
        faulted_scenario(faults=(RelayChurnFaults(mttf=0.0),),
                         transport=TransportConfig())
    )
    assert plan.fault_events == []


def test_relay_churn_respects_bounds_and_spares_bottleneck():
    scenario = faulted_scenario(
        faults=(RelayChurnFaults(mttf=0.5, mttr=0.25, horizon=3.0,
                                 max_kills=3),),
        transport=TransportConfig(),
    )
    plan = plan_scenario(scenario)
    kills = [e for e in plan.fault_events if e.action == "kill"]
    restarts = [e for e in plan.fault_events if e.action == "restart"]
    assert 0 < len(kills) <= 3
    assert all(event.at < 3.0 for event in kills)
    assert all(event.relay != plan.bottleneck_relay
               for event in plan.fault_events)
    # Every restart follows a kill of the same relay.
    for restart in restarts:
        assert any(kill.relay == restart.relay and kill.at < restart.at
                   for kill in kills)
    # The schedule is time-ordered in the plan.
    times = [event.at for event in plan.fault_events]
    assert times == sorted(times)


def test_fault_events_survive_plan_serialization():
    plan = plan_scenario(faulted_scenario())
    decoded = decode(type(plan), encode(plan))
    assert decoded.fault_events == plan.fault_events


# ----------------------------------------------------------------------
# FaultInjector: kill cascades and restart rejoin
# ----------------------------------------------------------------------


def test_injector_kill_and_restart_drive_node_liveness():
    scenario = faulted_scenario()
    plan = plan_scenario(scenario)
    sim = Simulator()
    network = instantiate_network(plan.network, sim)
    injector = FaultInjector(sim, scenario, plan, network)
    victim = plan.fault_events[0].relay
    node = network.topology.node(victim)
    assert node.up
    injector.kill(victim)
    assert not node.up and victim in injector.down
    injector.kill(victim)  # idempotent
    assert injector.kills == 1
    injector.restart(victim)
    assert node.up and victim not in injector.down
    assert injector.restarts == 1


def test_down_node_black_holes_deliveries():
    sim = Simulator()
    plan = plan_scenario(faulted_scenario())
    network = instantiate_network(plan.network, sim)
    node = network.topology.node(network.relay_names[0])
    node.up = False

    class FakePacket:
        size = 512
        dst = node.name

    node.deliver(FakePacket(), None)
    assert node.packets_received == 0
    assert node.packets_dropped_down == 1


# ----------------------------------------------------------------------
# Engine integration: loss only (no failures), relay churn (failures)
# ----------------------------------------------------------------------


def loss_only_scenario(**overrides) -> Scenario:
    return faulted_scenario(faults=(LinkFaults(loss_rate=0.02),), **overrides)


def test_loss_only_run_recovers_every_circuit():
    result = run_planned(plan_scenario(loss_only_scenario()))
    for kind in result.scenario.kinds:
        assert result.failures[kind] == []
        assert result.failure_rate(kind) == 0.0
        assert all(s.completed for s in result.samples[kind])
        counters = result.transport_counters[kind]
        assert counters["retransmissions"] > 0
        assert counters["broken"] == 0


def test_relay_churn_run_attributes_failures():
    result = run_planned(plan_scenario(faulted_scenario()))
    kinds = result.scenario.kinds
    for kind in kinds:
        failures = result.failures[kind]
        assert failures, "expected relay kills to fail circuits"
        assert 0.0 < result.failure_rate(kind) <= 1.0
        by_index = {f.index: f for f in failures}
        for sample in result.samples[kind]:
            if sample.index in by_index:
                record = by_index[sample.index]
                assert not sample.completed
                assert sample.time_to_last_byte is None
                assert sample.goodput_bytes_per_second is None
                cause = record.cause
                assert (cause.startswith("relay-failure:")
                        or cause.startswith("relay-down:")
                        or cause in ("hop-broken", "timeout"))
            else:
                assert sample.completed
    # The fault schedule is kind-independent: both controllers face the
    # same adversity, so the failed circuits and causes line up.
    assert (
        [(f.index, f.cause) for f in result.failures[kinds[0]]]
        == [(f.index, f.cause) for f in result.failures[kinds[1]]]
    )


def test_failure_rate_probe_tracks_cumulative_failures():
    result = run_planned(plan_scenario(faulted_scenario()))
    for kind in result.scenario.kinds:
        series = result.probe_series(kind, "failure-rate")
        assert len(series) == 1
        values = series[0].values
        assert values == sorted(values), "failure fraction is cumulative"
        assert values[-1] == pytest.approx(result.failure_rate(kind))


def test_fault_free_result_keeps_pre_fault_shape():
    scenario = faulted_scenario(faults=(), transport=TransportConfig())
    result = run_planned(plan_scenario(scenario))
    assert result.failures == {}
    assert result.transport_counters == {}


def test_sharded_faulted_run_matches_classic_engine():
    from repro.scenario.sharded import run_sharded

    plan = plan_scenario(faulted_scenario())
    classic = json.dumps(run_planned(plan).to_dict(), sort_keys=True)
    sharded = json.dumps(run_sharded(plan, shards=4).to_dict(),
                         sort_keys=True)
    assert classic == sharded


# ----------------------------------------------------------------------
# Replayability: cached-plan reruns are byte-identical
# ----------------------------------------------------------------------


def test_cached_plan_rerun_is_byte_identical(tmp_path):
    scenario = faulted_scenario()
    cold_plan = plan_scenario(scenario)
    cold = json.dumps(run_planned(cold_plan).to_dict(), sort_keys=True)

    cache_dir = str(tmp_path / "plans")
    warm_writer = PlanCache()
    warm_writer.disk = DiskPlanCache(cache_dir)
    plan_scenario(scenario, cache=warm_writer)  # populate the disk tier

    warm_reader = PlanCache()
    warm_reader.disk = DiskPlanCache(cache_dir)
    cached_plan = plan_scenario(scenario, cache=warm_reader)
    assert warm_reader.stats()["disk_plan_hits"] >= 1
    assert cached_plan.fault_events == cold_plan.fault_events
    warm = json.dumps(run_planned(cached_plan).to_dict(), sort_keys=True)
    assert warm == cold


# ----------------------------------------------------------------------
# Closed-loop churn
# ----------------------------------------------------------------------


def test_closed_loop_churn_plan_shape():
    churn = ClosedLoopChurn(start_window=1.0, think_time=0.5,
                            service_estimate=0.5, horizon=4.0)
    scenario = faulted_scenario(churn=churn, faults=(),
                                transport=TransportConfig())
    arrivals = churn.plan_arrivals(scenario, RandomStreams(scenario.seed))
    wave = [at for gen, at in arrivals if gen == 0]
    rearrivals = [at for gen, at in arrivals if gen == 1]
    assert len(wave) == scenario.circuit_count
    assert all(0.0 <= at <= 1.0 for at in wave)
    assert rearrivals, "think-time users should come back before horizon"
    assert all(at < 4.0 for at in rearrivals)
    # A user's next arrival is at least one service estimate after the
    # wave start (service + think > service_estimate).
    assert min(rearrivals) >= min(wave) + 0.5
    # Deterministic: same seed, same schedule.
    again = churn.plan_arrivals(scenario, RandomStreams(scenario.seed))
    assert again == arrivals


def test_closed_loop_churn_validation():
    with pytest.raises(ValueError, match="think_time"):
        ClosedLoopChurn(think_time=0.0)
    with pytest.raises(ValueError, match="service_estimate"):
        ClosedLoopChurn(service_estimate=-1.0)
    with pytest.raises(ValueError, match="horizon"):
        ClosedLoopChurn(start_window=2.0, horizon=1.0)
    assert ClosedLoopChurn(settle=0.25).settle_time() == 0.25
    assert ClosedLoopChurn(start_window=1.5).settle_time() == 1.5


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("build", [
    lambda: NoChurn(start_window=NAN),
    lambda: NoChurn(start_window=INF),
    lambda: OpenLoopChurn(arrival_rate=NAN),
    lambda: OpenLoopChurn(arrival_rate=INF),
    lambda: OpenLoopChurn(horizon=NAN),
    lambda: OpenLoopChurn(horizon=INF),
    lambda: OpenLoopChurn(settle=NAN),
    lambda: ClosedLoopChurn(think_time=NAN),
    lambda: ClosedLoopChurn(service_estimate=INF),
    lambda: ClosedLoopChurn(horizon=INF),
    lambda: FaultEvent("relay1", NAN, "kill"),
    lambda: faulted_scenario(
        faults=(LinkFaults(reorder_rate=0.1, max_extra_delay=NAN),)),
    lambda: faulted_scenario(
        faults=(LinkFaults(reorder_rate=0.1, max_extra_delay=INF),)),
    lambda: faulted_scenario(faults=(RelayChurnFaults(mttf=NAN),)),
    lambda: faulted_scenario(faults=(RelayChurnFaults(mttf=INF),)),
    lambda: faulted_scenario(faults=(RelayChurnFaults(mttf=4.0, mttr=NAN),)),
    lambda: faulted_scenario(faults=(RelayChurnFaults(mttf=4.0, horizon=INF),)),
    lambda: faulted_scenario(faults=(RelayChurnFaults(start_after=NAN),)),
    lambda: faulted_scenario(max_sim_time=INF),
    lambda: BulkWorkload(weight=NAN),
    lambda: InteractiveWorkload(message_interval=NAN),
    lambda: RequestResponseWorkload(think_time=INF),
    lambda: UtilizationProbe(interval=INF),
    lambda: NetworkConfig(relay_delay_ms=(4.0, NAN)),
])
def test_nan_or_infinite_part_is_refused(build):
    """NaN compares false both ways, so a "< 0" check let it through, and
    a NaN or infinite rate or horizon never ended a planning loop.
    Construct only: nothing here plans or runs."""
    with pytest.raises(ValueError):
        build()


def test_closed_loop_churn_runs_end_to_end():
    scenario = faulted_scenario(
        churn=ClosedLoopChurn(start_window=1.0, think_time=0.5,
                              service_estimate=0.5, horizon=2.5),
        faults=(), transport=TransportConfig(), circuit_count=4,
    )
    result = run_planned(plan_scenario(scenario))
    for kind in scenario.kinds:
        generations = {s.generation for s in result.samples[kind]}
        assert 0 in generations and 1 in generations
        assert all(s.completed or s.departed_at is not None
                   for s in result.samples[kind])


# ----------------------------------------------------------------------
# Request/response workload
# ----------------------------------------------------------------------


def test_request_response_workload_runs_closed_loop():
    workload = RequestResponseWorkload(
        response_bytes=kib(8), request_count=3, think_time=0.05
    )
    scenario = faulted_scenario(
        workloads=(workload,), churn=NoChurn(start_window=0.5),
        probes=(), faults=(), transport=TransportConfig(), circuit_count=4,
    )
    result = run_planned(plan_scenario(scenario))
    for kind in scenario.kinds:
        for sample in result.samples[kind]:
            assert sample.completed
            assert sample.payload_bytes == workload.total_bytes()
            assert len(sample.message_latencies) == 3
            assert all(latency > 0 for latency in sample.message_latencies)
    # Think times come from a derived seed, not global state: rerunning
    # the plan reproduces the run byte for byte.
    again = run_planned(plan_scenario(scenario))
    assert (json.dumps(result.to_dict(), sort_keys=True)
            == json.dumps(again.to_dict(), sort_keys=True))


def test_request_response_validation():
    with pytest.raises(ValueError, match="positive response size"):
        RequestResponseWorkload(response_bytes=0)
    with pytest.raises(ValueError, match="think_time"):
        RequestResponseWorkload(think_time=0.0)
    workload = RequestResponseWorkload(response_bytes=kib(20),
                                       request_count=4)
    assert workload.total_bytes() == kib(80)
    assert workload.estimated_cells() > 0


# ----------------------------------------------------------------------
# Probe validation
# ----------------------------------------------------------------------


def test_failure_rate_probe_validation():
    with pytest.raises(ValueError, match="interval"):
        FailureRateProbe(interval=0.0)
    with pytest.raises(ValueError, match="only carries"):
        faulted_scenario(probes=(FailureRateProbe(workload="interactive"),))
    # Restricting to a workload the scenario carries is fine.
    faulted_scenario(probes=(FailureRateProbe(workload="bulk"),))


# ----------------------------------------------------------------------
# Trunk links (the LinkFaults.links selector)
# ----------------------------------------------------------------------


class _NamedPacket:
    def __init__(self, src, dst):
        self.src = src
        self.dst = dst


def test_filtered_model_gates_on_predicate():
    inner = ScriptedLossModel([0])
    model = FilteredFaultModel(lambda p: p.src == "a", inner)
    # Non-matching traffic passes and never advances the inner model.
    assert model.on_transmit(_NamedPacket("b", "a")) == 0.0
    assert inner.packets_seen == 0
    assert model.on_transmit(_NamedPacket("a", "b")) < 0
    assert inner.packets_dropped == 1
    assert model.packets_dropped == 1
    assert model.packets_seen == 2


def test_filtered_model_forwards_delay_verdicts():
    inner = BoundedReorderModel(random.Random(5), 0.999, 0.01)
    model = FilteredFaultModel(lambda p: True, inner)
    verdicts = [model.on_transmit(_NamedPacket("a", "b"))
                for __ in range(20)]
    assert any(v > 0 for v in verdicts)
    assert model.packets_delayed == inner.packets_delayed > 0


def test_link_faults_rejects_unknown_links_selector():
    with pytest.raises(ValueError, match="links"):
        LinkFaults(loss_rate=0.01, links="core").validate(faulted_scenario())


def _installed_network(part):
    """The network with *part* installed, and its interfaces' fault models."""
    scenario = faulted_scenario(faults=(part,))
    plan = plan_scenario(scenario)
    sim = Simulator()
    network = instantiate_network(plan.network, sim)
    FaultInjector(sim, scenario, plan, network).install_link_faults(part)
    models = [
        iface.fault_model
        for node in network.topology.nodes.values()
        for iface in node.interfaces
        if iface.fault_model is not None
    ]
    return network, models


def test_trunk_selector_installs_filtered_models_on_relay_links():
    part = LinkFaults(loss_rate=0.02, links="trunk")
    network, models = _installed_network(part)
    # One loss model per relay-link direction, counters on the inner.
    assert len(models) == 2 * len(network.relay_names)
    assert all(isinstance(m, FilteredFaultModel)
               and isinstance(m.inner, BernoulliLossModel) for m in models)
    iface = network.topology._interface_between(
        network.relay_names[0], network.hub_name
    )
    model = iface.fault_model
    assert isinstance(model, FilteredFaultModel)
    # Access traffic is invisible to the inner model; inter-relay
    # traffic reaches it.
    model.on_transmit(_NamedPacket("client00", network.relay_names[0]))
    assert model.inner.packets_seen == 0
    model.on_transmit(
        _NamedPacket(network.relay_names[0], network.relay_names[1])
    )
    assert model.inner.packets_seen == 1


def test_access_selector_keeps_historical_install_shape():
    part = LinkFaults(loss_rate=0.02)  # default links="access"
    network, models = _installed_network(part)
    assert len(models) == 2 * len(network.relay_names)
    iface = network.topology._interface_between(
        network.relay_names[0], network.hub_name
    )
    # Unfiltered: the historical behavior, so the per-interface RNG
    # substreams (and every draw) are what they always were.
    assert isinstance(iface.fault_model, BernoulliLossModel)


def test_all_selector_adds_endpoint_links():
    part = LinkFaults(loss_rate=0.02, links="all")
    network, models = _installed_network(part)
    expected = 2 * (len(network.relay_names) + len(network.client_names)
                    + len(network.server_names))
    assert len(models) == expected
    iface = network.topology._interface_between(
        network.client_names[0], network.hub_name
    )
    assert isinstance(iface.fault_model, BernoulliLossModel)


def test_trunk_loss_run_recovers_every_circuit():
    scenario = faulted_scenario(
        faults=(LinkFaults(loss_rate=0.05, links="trunk"),)
    )
    result = run_planned(plan_scenario(scenario))
    for kind in result.scenario.kinds:
        assert result.failures[kind] == []
        counters = result.transport_counters[kind]
        assert counters["retransmissions"] > 0
        assert counters["broken"] == 0
