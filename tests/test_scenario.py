"""Tests for the declarative scenario layer (repro.scenario)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import pytest

from repro.experiments import get_experiment
from repro.scenario import (
    BulkWorkload,
    ChurnProcess,
    GeneratedTopology,
    GoodputProbe,
    InteractiveWorkload,
    NetworkConfig,
    NoChurn,
    OpenLoopChurn,
    Probe,
    QueueDepthProbe,
    Scenario,
    ScenarioResult,
    UtilizationProbe,
    Workload,
    list_parts,
    plan_scenario,
    run_planned,
    run_scenario,
)
from repro.serialize import SpecError, decode
from repro.sim.rand import RandomStreams
from repro.units import kib


def small_network(**overrides) -> NetworkConfig:
    defaults = dict(relay_count=10, client_count=8, server_count=8)
    defaults.update(overrides)
    return NetworkConfig(**defaults)


def small_scenario(**overrides) -> Scenario:
    defaults = dict(
        topology=GeneratedTopology(network=small_network(), force_bottleneck=True),
        workloads=(
            BulkWorkload(weight=0.7, payload_bytes=kib(60)),
            InteractiveWorkload(weight=0.3, message_bytes=kib(5),
                                message_count=2),
        ),
        churn=NoChurn(start_window=0.5),
        circuit_count=8,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def churn_scenario(**overrides) -> Scenario:
    return small_scenario(
        churn=OpenLoopChurn(start_window=1.0, arrival_rate=3.0, horizon=3.0),
        probes=(UtilizationProbe(interval=0.25),
                QueueDepthProbe(interval=0.25)),
        **overrides,
    )


# ----------------------------------------------------------------------
# Parts registry
# ----------------------------------------------------------------------


def test_builtin_parts_registered():
    rows = {(kind, name) for kind, name, __ in list_parts()}
    assert ("topology", "generated") in rows
    assert ("workload", "bulk") in rows
    assert ("workload", "interactive") in rows
    assert ("churn", "none") in rows
    assert ("churn", "open-loop") in rows
    assert ("probe", "utilization") in rows
    assert ("probe", "queue-depth") in rows
    assert ("probe", "goodput") in rows


def test_part_name_property():
    assert BulkWorkload().part_name == "bulk"
    assert OpenLoopChurn().part_name == "open-loop"


def test_unknown_part_name_rejected_on_decode():
    with pytest.raises(SpecError, match="unknown churn part"):
        decode(ChurnProcess, {"part": "teleport"})


def test_payload_without_discriminator_needs_concrete_class():
    # Concrete target: fine (the class itself is unambiguous).
    workload = decode(BulkWorkload, {"payload_bytes": 1024})
    assert workload == BulkWorkload(payload_bytes=1024)
    # Abstract target without a 'part' key: rejected loudly.
    with pytest.raises(SpecError, match="names no 'part'"):
        decode(Workload, {"payload_bytes": 1024})


def test_wrong_kind_registry_rejected():
    with pytest.raises(SpecError, match="unknown probe part"):
        decode(Probe, {"part": "bulk"})


# ----------------------------------------------------------------------
# Spec serialization
# ----------------------------------------------------------------------


def test_scenario_round_trips_through_json():
    scenario = churn_scenario()
    rebuilt = Scenario.from_json(scenario.to_json())
    assert rebuilt == scenario
    assert isinstance(rebuilt.topology, GeneratedTopology)
    assert isinstance(rebuilt.workloads[1], InteractiveWorkload)
    assert isinstance(rebuilt.churn, OpenLoopChurn)
    assert isinstance(rebuilt.probes[0], UtilizationProbe)


def test_part_discriminator_serialized():
    data = churn_scenario().to_dict()
    assert data["topology"]["part"] == "generated"
    assert [w["part"] for w in data["workloads"]] == ["bulk", "interactive"]
    assert data["churn"]["part"] == "open-loop"
    assert [p["part"] for p in data["probes"]] == ["utilization", "queue-depth"]


def test_scenario_validation():
    with pytest.raises(ValueError):
        small_scenario(circuit_count=0)
    with pytest.raises(ValueError):
        small_scenario(workloads=())
    with pytest.raises(ValueError):
        small_scenario(workloads=(BulkWorkload(weight=0.0),))
    with pytest.raises(ValueError):
        small_scenario(kinds=("with", "with"))
    with pytest.raises(ValueError):
        small_scenario(hops=11)  # only 10 relays
    with pytest.raises(ValueError):
        OpenLoopChurn(arrival_rate=0.0)
    with pytest.raises(ValueError):
        OpenLoopChurn(start_window=2.0, horizon=1.0)
    with pytest.raises(ValueError):
        UtilizationProbe(scope="everything")
    with pytest.raises(ValueError):
        # A negative settle would silently count warm-up as steady state.
        OpenLoopChurn(settle=-1.0)
    with pytest.raises(ValueError):
        InteractiveWorkload(message_count=0)


def test_open_loop_churn_settle_values():
    # Explicit zero is a legal settle (count every sample as steady)...
    assert OpenLoopChurn(settle=0.0).settle_time() == 0.0
    # ...and None defaults to the start window.
    assert OpenLoopChurn(start_window=1.5).settle_time() == 1.5


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------


def test_plan_is_deterministic():
    a = plan_scenario(small_scenario())
    b = plan_scenario(small_scenario())
    assert a.spec_hash == b.spec_hash
    assert [c.to_dict() for c in a.circuits] == [c.to_dict() for c in b.circuits]
    assert a.bottleneck_relay == b.bottleneck_relay


def test_plan_forces_bottleneck_into_every_path():
    plan = plan_scenario(small_scenario())
    assert plan.bottleneck_relay is not None
    for circuit in plan.circuits:
        assert circuit.relays.count(plan.bottleneck_relay) == 1
        assert circuit.relays[len(circuit.relays) // 2] == plan.bottleneck_relay


def test_plan_without_forced_bottleneck():
    plan = plan_scenario(
        small_scenario(topology=GeneratedTopology(network=small_network()))
    )
    assert plan.bottleneck_relay is None
    for circuit in plan.circuits:
        assert len(circuit.relays) == 3
        assert len(set(circuit.relays)) == 3


def test_churn_plans_rearrivals_within_horizon():
    scenario = churn_scenario()
    plan = plan_scenario(scenario)
    initial = [c for c in plan.circuits if c.generation == 0]
    rearrivals = [c for c in plan.circuits if c.generation > 0]
    assert len(initial) == scenario.circuit_count
    assert rearrivals, "no re-arrival was planned"
    for circuit in rearrivals:
        assert scenario.churn.start_window <= circuit.start_time
        assert circuit.start_time < scenario.churn.horizon


def test_churn_does_not_perturb_initial_wave():
    plain = plan_scenario(small_scenario(churn=NoChurn(start_window=1.0)))
    churned = plan_scenario(
        small_scenario(
            churn=OpenLoopChurn(start_window=1.0, arrival_rate=3.0, horizon=3.0)
        )
    )
    count = plain.scenario.circuit_count
    for a, b in zip(plain.circuits[:count], churned.circuits[:count]):
        assert a.start_time == b.start_time
        assert a.relays == b.relays


# ----------------------------------------------------------------------
# OpenLoopChurn.plan_arrivals properties (hypothesis)
# ----------------------------------------------------------------------


from hypothesis import given, settings
from hypothesis import strategies as st

_churn_grids = dict(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    circuit_count=st.integers(min_value=1, max_value=30),
    start_window=st.floats(min_value=0.0, max_value=4.0,
                           allow_nan=False, allow_infinity=False),
    arrival_rate=st.floats(min_value=0.05, max_value=32.0,
                           allow_nan=False, allow_infinity=False),
    horizon_extra=st.floats(min_value=0.0, max_value=8.0,
                            allow_nan=False, allow_infinity=False),
)


def _churn_variants(churn, circuit_count, seed):
    """Scenarios that must all plan the identical arrival schedule."""
    return [
        small_scenario(churn=churn, circuit_count=circuit_count, seed=seed),
        small_scenario(
            churn=churn, circuit_count=circuit_count, seed=seed,
            workloads=(BulkWorkload(payload_bytes=kib(10)),),
        ),
        small_scenario(
            churn=churn, circuit_count=circuit_count, seed=seed,
            probes=(GoodputProbe(interval=0.5),),
        ),
        small_scenario(
            churn=churn, circuit_count=circuit_count, seed=seed,
            workloads=(
                BulkWorkload(weight=0.2, payload_bytes=kib(30)),
                InteractiveWorkload(weight=0.8),
            ),
            probes=(QueueDepthProbe(scope="relays"),
                    GoodputProbe(interval=0.1)),
        ),
    ]


@settings(deadline=None, max_examples=50)
@given(**_churn_grids)
def test_open_loop_arrivals_invariant_to_workloads_and_probes(
    seed, circuit_count, start_window, arrival_rate, horizon_extra
):
    """The arrival schedule is a pure function of churn spec and seed.

    Workload and probe configuration must not perturb it: start-time
    draws come from the ``starts`` substream and re-arrival draws from
    the separate ``churn`` substream, so nothing another part consumes
    can shift them.
    """
    churn = OpenLoopChurn(
        start_window=start_window,
        arrival_rate=arrival_rate,
        horizon=start_window + horizon_extra,
    )
    schedules = [
        churn.plan_arrivals(scenario, RandomStreams(seed))
        for scenario in _churn_variants(churn, circuit_count, seed)
    ]
    assert all(schedule == schedules[0] for schedule in schedules[1:])


@settings(deadline=None, max_examples=50)
@given(**_churn_grids)
def test_open_loop_arrivals_shape(
    seed, circuit_count, start_window, arrival_rate, horizon_extra
):
    """Generation 0 is exactly the initial wave; re-arrivals fill
    ``[start_window, horizon)`` in nondecreasing order."""
    horizon = start_window + horizon_extra
    churn = OpenLoopChurn(
        start_window=start_window, arrival_rate=arrival_rate, horizon=horizon
    )
    scenario = small_scenario(churn=churn, circuit_count=circuit_count,
                              seed=seed)
    arrivals = churn.plan_arrivals(scenario, RandomStreams(seed))

    wave = arrivals[:circuit_count]
    rearrivals = arrivals[circuit_count:]
    assert len(wave) == circuit_count
    assert all(generation == 0 for generation, __ in wave)
    assert all(0.0 <= at <= start_window for __, at in wave)
    assert all(generation == 1 for generation, __ in rearrivals)
    assert all(start_window <= at < horizon for __, at in rearrivals)
    times = [at for __, at in rearrivals]
    assert times == sorted(times)
    # The initial wave is draw-for-draw what NoChurn would have planned:
    # enabling churn never perturbs it (separate substreams).
    plain = NoChurn(start_window=start_window).plan_arrivals(
        scenario, RandomStreams(seed)
    )
    assert wave == plain
    # And the whole schedule is deterministic given the seed.
    again = churn.plan_arrivals(scenario, RandomStreams(seed))
    assert arrivals == again


def test_estimated_cost_counts_cells_and_hops():
    scenario = small_scenario(
        workloads=(BulkWorkload(payload_bytes=kib(60)),), circuit_count=4
    )
    cost = plan_scenario(scenario).estimated_cost()
    from repro.transport.config import CELL_PAYLOAD

    cells_per_circuit = -(-kib(60) // CELL_PAYLOAD)
    assert cost["circuits"] == 4
    assert cost["cells"] == 4 * cells_per_circuit
    assert cost["cell_hops"] == 4 * cells_per_circuit * 4  # 3 relays -> 4 hops
    assert cost["kinds"] == 2


def test_interactive_cost_models_per_message_framing():
    """Each message starts a fresh cell; the estimate must match."""
    from repro.transport.config import CELL_PAYLOAD

    workload = InteractiveWorkload(message_bytes=100, message_count=50)
    assert workload.estimated_cells() == 50  # not ceil(5000/CELL_PAYLOAD)
    workload = InteractiveWorkload(message_bytes=kib(5), message_count=5)
    assert workload.estimated_cells() == 5 * -(-kib(5) // CELL_PAYLOAD)
    # The remainder rides in the final message's cells.
    workload = InteractiveWorkload(message_bytes=400, message_count=2,
                                   remainder_bytes=200)
    assert workload.total_bytes() == 1000
    assert workload.estimated_cells() == 1 + -(-600 // CELL_PAYLOAD)


def test_interactive_remainder_is_delivered():
    """A non-divisible payload still transfers exactly, via the final
    message absorbing the remainder."""
    scenario = small_scenario(
        workloads=(InteractiveWorkload(message_bytes=kib(5), message_count=2,
                                       remainder_bytes=123),),
        circuit_count=2,
    )
    result = run_scenario(scenario, kinds=["with"])
    for sample in result.samples["with"]:
        assert sample.payload_bytes == 2 * kib(5) + 123
        assert len(sample.message_latencies) == 2


def test_steady_samples_with_no_churn_returns_everything():
    scenario = small_scenario(churn=NoChurn(start_window=0.5), circuit_count=3)
    result = run_scenario(scenario, kinds=["with"])
    # A one-shot wave has no warm-up: nothing is excluded.
    assert result.steady_samples("with") == result.samples["with"]


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def churn_result() -> ScenarioResult:
    return run_scenario(churn_scenario())


def test_run_scenario_shapes(churn_result):
    scenario = churn_result.scenario
    for kind in scenario.kinds:
        rows = churn_result.samples[kind]
        assert len(rows) >= scenario.circuit_count
        for sample in rows:
            assert sample.time_to_first_byte > 0
            assert sample.time_to_last_byte > 0
            assert sample.goodput_bytes_per_second > 0
        assert churn_result.events_executed[kind] > 0


def test_both_workload_classes_ran(churn_result):
    kind = churn_result.scenario.kinds[0]
    workloads = {s.workload for s in churn_result.samples[kind]}
    assert workloads == {"bulk", "interactive"}


def test_interactive_samples_carry_message_latencies(churn_result):
    kind = churn_result.scenario.kinds[0]
    for sample in churn_result.of_workload(kind, "interactive"):
        assert len(sample.message_latencies) == 2  # message_count
        assert all(latency > 0 for latency in sample.message_latencies)
    for sample in churn_result.of_workload(kind, "bulk"):
        assert sample.message_latencies == []


def test_departures_recorded_and_steady_state_nonempty(churn_result):
    kind = churn_result.scenario.kinds[0]
    rows = churn_result.samples[kind]
    assert all(s.departed_at is not None for s in rows)
    assert any(s.generation > 0 for s in rows)
    steady = churn_result.steady_samples(kind)
    assert steady
    settle = churn_result.scenario.churn.settle_time()
    assert all(s.start_time >= settle for s in steady)


def test_probe_series_present_for_both_kinds(churn_result):
    for kind in churn_result.scenario.kinds:
        utilization = churn_result.probe_series(kind, "utilization")
        queue_depth = churn_result.probe_series(kind, "queue-depth")
        assert len(utilization) == 1
        assert len(queue_depth) == 1
        series = utilization[0]
        assert series.target == churn_result.bottleneck_relay
        assert len(series.times) == len(series.values) >= 2
        assert series.times == sorted(series.times)
        assert 0.0 <= series.mean
        assert series.peak > 0.0


def test_result_round_trips_through_json(churn_result):
    rebuilt = ScenarioResult.from_dict(json.loads(churn_result.to_json()))
    assert rebuilt.to_dict() == churn_result.to_dict()
    assert rebuilt.scenario == churn_result.scenario
    kind = churn_result.scenario.kinds[0]
    assert rebuilt.probe_series(kind, "utilization")[0].values == \
        churn_result.probe_series(kind, "utilization")[0].values


def test_identical_plans_across_kinds(churn_result):
    with_kind, without_kind = churn_result.scenario.kinds
    for a, b in zip(churn_result.samples[with_kind],
                    churn_result.samples[without_kind]):
        assert a.relays == b.relays
        assert a.start_time == b.start_time
        assert a.workload == b.workload
        assert a.generation == b.generation


def test_run_planned_restricts_kinds():
    plan = plan_scenario(small_scenario(circuit_count=3))
    result = run_planned(plan, kinds=["with"])
    assert list(result.samples) == ["with"]
    assert list(result.events_executed) == ["with"]
    assert result.run_kinds == ["with"]
    # The kind-restricted result still renders (no KeyError on the
    # kinds that did not run)...
    text = get_experiment("scenario").render(result)
    assert "with" in text and "without" not in text
    # ...and cross-kind comparisons fail with a clear message.
    with pytest.raises(ValueError, match="did not run"):
        result.median_improvement()


def test_median_improvement_needs_two_kinds():
    result = run_scenario(small_scenario(circuit_count=2, kinds=("with",)))
    with pytest.raises(ValueError, match="two controller kinds"):
        result.median_improvement()


def test_network_config_rejects_zero_endpoints():
    with pytest.raises(ValueError, match="client"):
        NetworkConfig(relay_count=6, client_count=0, server_count=0)


def test_run_determinism():
    scenario = churn_scenario(circuit_count=4)
    a = run_scenario(scenario)
    b = run_scenario(scenario)
    assert a.to_dict() == b.to_dict()


def test_teardown_keeps_hosts_clean():
    """Departed circuits leave no per-circuit state on any host."""
    from repro.scenario.engine import _run_kind

    scenario = churn_scenario(circuit_count=3)
    plan = plan_scenario(scenario)
    samples, __, ___, ____, _____ = _run_kind(plan, "with")
    assert all(s.departed_at is not None for s in samples)


def test_bottleneck_probe_requires_bottleneck_at_spec_time():
    # The doomed pairing fails at construction (and hence in
    # `repro batch --plan`), not minutes into a run.
    with pytest.raises(ValueError, match="bottleneck"):
        small_scenario(
            topology=GeneratedTopology(network=small_network()),
            probes=(UtilizationProbe(),),
            circuit_count=2,
        )
    # scope='relays' needs no designated bottleneck.
    scenario = small_scenario(
        topology=GeneratedTopology(network=small_network()),
        probes=(UtilizationProbe(scope="relays"),),
        circuit_count=2,
    )
    assert scenario.probes[0].scope == "relays"


def test_relays_scope_probes_every_relay():
    scenario = small_scenario(
        probes=(QueueDepthProbe(interval=0.5, scope="relays"),),
        circuit_count=3,
    )
    result = run_scenario(scenario, kinds=["with"])
    series = result.probe_series("with", "queue-depth")
    assert len(series) == small_network().relay_count
    assert {s.target for s in series} == set(
        "relay%02d" % i for i in range(small_network().relay_count)
    )


# ----------------------------------------------------------------------
# GoodputProbe
# ----------------------------------------------------------------------


def test_goodput_probe_samples_each_circuit():
    scenario = small_scenario(probes=(GoodputProbe(interval=0.1),))
    result = run_scenario(scenario, kinds=["with"])
    series = result.probe_series("with", "goodput")
    samples = result.samples["with"]
    assert len(series) == len(samples)
    by_target = {s.target: s for s in series}
    for sample in samples:
        row = by_target["circuit-%d" % sample.circuit_id]
        assert row.values, "no goodput was sampled for the circuit"
        # Armed at the circuit's start, not at simulation start.
        assert row.times[0] == pytest.approx(sample.start_time)
        assert all(v >= 0 for v in row.values)
        # The deltas (completion flush included) integrate to exactly
        # the delivered payload.
        delivered = sum(v * 0.1 for v in row.values)
        assert delivered == pytest.approx(sample.payload_bytes)


def test_goodput_probe_workload_filter():
    scenario = small_scenario(probes=(GoodputProbe(workload="bulk"),))
    result = run_scenario(scenario, kinds=["with"])
    series = result.probe_series("with", "goodput")
    bulk = result.of_workload("with", "bulk")
    assert len(series) == len(bulk)
    assert {s.target for s in series} == {
        "circuit-%d" % sample.circuit_id for sample in bulk
    }


def test_goodput_probe_flushes_circuits_faster_than_one_interval():
    """A transfer shorter than the sampling interval is not lost.

    Without the completion flush, the only tick inside such a circuit's
    lifetime is the zero sample at its start — the whole transfer would
    read as zero goodput.
    """
    scenario = small_scenario(probes=(GoodputProbe(interval=60.0),))
    result = run_scenario(scenario, kinds=["with"])
    for sample in result.samples["with"]:
        (row,) = [
            s for s in result.probe_series("with", "goodput")
            if s.target == "circuit-%d" % sample.circuit_id
        ]
        delivered = sum(v * 60.0 for v in row.values)
        assert delivered == pytest.approx(sample.payload_bytes)


def test_goodput_probe_rejects_unknown_workload_at_spec_time():
    with pytest.raises(ValueError, match="teleport"):
        small_scenario(probes=(GoodputProbe(workload="teleport"),))


def test_goodput_probe_validates_interval():
    with pytest.raises(ValueError, match="interval"):
        GoodputProbe(interval=0.0)


def test_probe_series_window_helpers():
    from repro.scenario import ProbeSeries

    series = ProbeSeries(
        probe="utilization", target="relay00",
        times=[0.0, 1.0, 2.0, 3.0], values=[0.1, 0.2, 0.4, 0.8],
    )
    assert series.between(1.0, 3.0) == [(1.0, 0.2), (2.0, 0.4)]
    assert series.mean_between(1.0, 3.0) == pytest.approx(0.3)
    assert series.mean_between() == pytest.approx(series.mean)
    assert series.mean_between(10.0) == 0.0  # empty window


# ----------------------------------------------------------------------
# KindRun.active(): O(1) completion tracking
# ----------------------------------------------------------------------


def test_kindrun_active_tracks_completions_exactly():
    """The pending-set predicate must equal the brute-force rescan.

    Including the one-call_soon-beat window where ``done`` has flipped
    but the completion waiter's callback has not been delivered yet,
    and a run that fails without ever completing.
    """
    from repro.scenario.engine import KindRun
    from repro.sim.process import Waiter
    from repro.sim.simulator import Simulator

    sim = Simulator()

    class FakeRun:
        def __init__(self) -> None:
            self.completed = Waiter(sim)
            self.done = False
            self.failed = False

        def finish(self, at: float) -> None:
            self.done = True
            self.completed.trigger(at)

    runs = [FakeRun() for __ in range(4)]
    context = KindRun(sim, network=None, bottleneck_relay=None, runs=runs)

    def brute_force() -> bool:
        return any(not (run.done or run.failed) for run in runs)

    assert context.active() is brute_force() is True
    runs[0].finish(1.0)
    # Waiter callback not delivered yet: the lazy sweep must still agree.
    assert context.active() is brute_force() is True
    sim.run()  # deliver the call_soon subscription
    assert context.active() is brute_force() is True
    # A failed run never triggers its waiter; active() retires it itself.
    runs[1].failed = True
    assert context.active() is brute_force() is True
    runs[2].finish(2.0)
    runs[3].finish(2.0)
    # All finished, callbacks in flight: active() must already say so.
    assert context.active() is brute_force() is False
    sim.run()
    # The late-firing waiters find their runs already retired.
    assert context.active() is brute_force() is False


def test_active_predicate_byte_identical_to_rescan():
    """Probe output under the O(1) predicate pins to the full rescan."""
    from repro.experiments import encode
    from repro.scenario.engine import KindRun

    plan = plan_scenario(churn_scenario())
    fast = run_planned(plan, kinds=["with"])
    original = KindRun.active
    KindRun.active = lambda self: any(not run.done for run in self.runs)
    try:
        slow = run_planned(plan, kinds=["with"])
    finally:
        KindRun.active = original
    assert encode(fast) == encode(slow)


# ----------------------------------------------------------------------
# Custom parts
# ----------------------------------------------------------------------


def test_custom_part_registers_and_round_trips():
    from repro.scenario.parts import register_part

    @register_part
    @dataclass(frozen=True)
    class BurstChurn(ChurnProcess):
        burst_gap: float = 1.0
        part: str = field(default="test-burst", init=False)

        def plan_arrivals(self, scenario, streams):
            return [(0, 0.0) for __ in range(scenario.circuit_count)]

    try:
        rebuilt = decode(ChurnProcess, {"part": "test-burst", "burst_gap": 2.0})
        assert rebuilt == BurstChurn(burst_gap=2.0)
        # Duplicate registration is rejected.
        with pytest.raises(ValueError, match="already registered"):
            register_part(BurstChurn)
    finally:
        ChurnProcess._registry.pop("test-burst", None)


# ----------------------------------------------------------------------
# The registered "scenario" experiment
# ----------------------------------------------------------------------


def test_scenario_experiment_registered():
    experiment = get_experiment("scenario")
    assert experiment.spec_type is Scenario
    assert experiment.result_type is ScenarioResult


def test_scenario_experiment_runs_and_renders():
    experiment = get_experiment("scenario")
    result = experiment.run(small_scenario(circuit_count=3))
    text = experiment.render(result)
    assert "bulk" in text
    assert result.bottleneck_relay in text
    assert "engine events" in text


def test_scenario_experiment_estimates_cost():
    cost = get_experiment("scenario").estimate_cost(small_scenario())
    assert cost is not None and cost["cells"] > 0 and cost["cell_hops"] > 0


def test_netscale_adapter_matches_legacy_plan():
    """The netscale spec compiles into a scenario replaying its draws."""
    from repro.experiments.netscale import NetScaleConfig
    from repro.scenario import forced_bottleneck_paths
    from repro.scenario.netgen import plan_network

    config = NetScaleConfig(
        circuit_count=6,
        network=small_network(client_count=10, server_count=10),
    )
    plan = plan_scenario(config.to_scenario())

    streams = RandomStreams(config.seed)
    network = plan_network(config.network, streams)
    directory = network.build_directory()
    legacy_paths = forced_bottleneck_paths(
        streams.stream("netscale.paths"), directory, plan.bottleneck_relay,
        config.hops, config.circuit_count,
    )
    assert [c.relays for c in plan.circuits] == legacy_paths
