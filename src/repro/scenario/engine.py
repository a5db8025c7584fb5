"""The scenario engine: replay one plan per controller kind.

:func:`run_scenario` is the single entry point every scenario-backed
experiment goes through: plan (or fetch the cached plan), then replay
the identical circuit table once per controller kind on a fresh
simulator — network instantiation included, but *without* re-drawing
anything — and assemble a serializable :class:`ScenarioResult` with
per-circuit samples, probe time series and engine accounting.

The kinds share nothing, so :func:`run_planned` replays them side by
side, for a plan of ``_SIDE_BY_SIDE_FLOOR`` cell-hops per kind or more:
the first here, the others on a :class:`~repro.scenario.kindworker.Pool`
of its own, the pool a sweep runs on, with the same failure rule (a
lost kind replays here).  The result is byte for byte that of replaying
them one after the other.  A sweep does not come through here: its pool
replays each kind of a job with :func:`replay_kind` and assembles the
job's result with :func:`scenario_result`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..analysis.stats import EmpiricalCdf
from ..serialize import Serializable
from ..sim.simulator import Simulator
from ..tor.circuit import CircuitFlow, CircuitSpec
from ..tor.hosts import released
from .cache import PlanCache
from .faults import FaultInjector, RelayFailure
from .kindworker import replay_kinds
from .netgen import GeneratedNetwork, instantiate_network
from .probes import ProbeSeries
from .spec import PlannedCircuit, Scenario, ScenarioPlan, plan_scenario
from .workloads import WorkloadRun

__all__ = [
    "CircuitFailure",
    "KindRun",
    "SampleTable",
    "ScenarioCircuitSample",
    "ScenarioResult",
    "UnfinishedCircuitsError",
    "build_circuit_run",
    "replay_kind",
    "run_planned",
    "run_scenario",
    "scenario_result",
]


@dataclass
class ScenarioCircuitSample(Serializable):
    """One planned circuit's measurements under one controller kind."""

    index: int
    circuit_id: int
    #: 0 = initial arrival wave, >= 1 = churn re-arrival.
    generation: int
    #: The workload part's registry name ("bulk", "interactive", ...).
    workload: str
    source: str
    sink: str
    relays: List[str]
    payload_bytes: int
    start_time: float
    #: ``None`` on a failed circuit whose first byte never arrived
    #: (fault plane); the failure record lives in
    #: :attr:`ScenarioResult.failures`, keyed by the same index.
    time_to_first_byte: Optional[float]
    #: ``None`` on a failed circuit (the last byte never arrived).
    time_to_last_byte: Optional[float]
    goodput_bytes_per_second: Optional[float]
    #: Seconds the source controller spent in its start-up phase;
    #: ``None`` when the transfer completed without leaving start-up.
    startup_duration: Optional[float]
    #: When the circuit was torn down (departures enabled), else ``None``.
    departed_at: Optional[float] = None
    #: Per-message delivery latencies (interactive workloads).
    message_latencies: List[float] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        """Whether the transfer finished (failed circuits have no TTLB)."""
        return self.time_to_last_byte is not None


@dataclass
class CircuitFailure(Serializable):
    """One circuit's failure record under one controller kind.

    Kept beside the samples (not inside them) so fault-free results
    stay byte-identical to pre-fault-plane golden output; join on
    ``index``.
    """

    index: int
    circuit_id: int
    failed_at: float
    #: Machine-readable cause: ``relay-failure:<relay>`` (died while
    #: the transfer ran), ``relay-down:<relay>`` (relay already dead
    #: before the transfer started), ``hop-broken`` (retransmission
    #: budget exhausted), ``timeout`` (unfinished at max_sim_time).
    cause: str


def present(rows: Sequence[Any], attribute: str) -> List[Any]:
    """*attribute* of every row that has one (a failed circuit has no
    last byte, a short transfer no start-up exit)."""
    return [
        value for row in rows
        if (value := getattr(row, attribute)) is not None
    ]


class SampleTable:
    """How a result's per-kind tables are read and printed.

    The readers and the two text lines ``repro scenario`` and ``repro
    netscale`` share.  A subclass is a result dataclass whose
    ``samples``, ``probes`` and ``events_executed`` are keyed by
    controller kind; it states two facts about the spec it ran.
    """

    @property
    def compared_kinds(self) -> Sequence[str]:
        """The spec's controller kinds; the first two are compared."""
        raise NotImplementedError

    @property
    def settle_time(self) -> float:
        """When the warm-up wave ends (0.0: every circuit is steady)."""
        raise NotImplementedError

    def of_workload(self, kind: str, workload: Optional[str] = None) -> list:
        """Samples for *kind*, optionally restricted to one workload part."""
        rows = self.samples[kind]
        if workload is None:
            return list(rows)
        return [s for s in rows if s.workload == workload]

    def steady_samples(self, kind: str) -> list:
        """Samples from circuits that arrived at steady state.

        Circuits started before the churn process's settle time (the
        warm-up wave) are excluded; without churn every sample counts.
        """
        settle = self.settle_time
        return [s for s in self.samples[kind] if s.start_time >= settle]

    def ttlb_cdf(self, kind: str, workload: Optional[str] = None) -> EmpiricalCdf:
        return EmpiricalCdf(
            present(self.of_workload(kind, workload), "time_to_last_byte")
        )

    def ttfb_cdf(self, kind: str, workload: Optional[str] = None) -> EmpiricalCdf:
        return EmpiricalCdf(
            present(self.of_workload(kind, workload), "time_to_first_byte")
        )

    def median_improvement(self, workload: Optional[str] = None) -> float:
        """Median TTLB difference, second kind − first (positive = faster)."""
        kinds = self.compared_kinds
        if len(kinds) < 2:
            raise ValueError(
                "median_improvement needs two controller kinds, scenario "
                "has %r" % (kinds,)
            )
        with_kind, without_kind = kinds[:2]
        missing = [kind for kind in (with_kind, without_kind)
                   if kind not in self.samples]
        if missing:
            raise ValueError(
                "median_improvement needs kinds %r, but %r did not run "
                "(ran: %r)" % (list(kinds[:2]), missing, list(self.samples))
            )
        return (
            self.ttlb_cdf(without_kind, workload).median
            - self.ttlb_cdf(with_kind, workload).median
        )

    def startup_durations(self, kind: str) -> List[float]:
        """Start-up phase lengths of the circuits that did exit it."""
        return sorted(present(self.samples[kind], "startup_duration"))

    def probe_series(
        self, kind: str, probe: Optional[str] = None
    ) -> List[ProbeSeries]:
        """Probe series for *kind*, optionally restricted to one probe part."""
        rows = self.probes.get(kind, [])
        if probe is None:
            return list(rows)
        return [series for series in rows if series.probe == probe]

    def probe_lines(self, kinds: Sequence[str]) -> List[str]:
        """One text line per probe series, *kinds* in the given order."""
        return [
            "probe %s@%s (%s): mean %.3f peak %.3f over %d samples"
            % (series.probe, series.target, kind,
               series.mean, series.peak, len(series.values))
            for kind in kinds
            for series in self.probe_series(kind)
        ]

    def events_line(self, kinds: Sequence[str]) -> str:
        """The simulator events each of *kinds* executed, as one text line."""
        return "engine events: %s" % ", ".join(
            "%s=%d" % (kind, self.events_executed[kind]) for kind in kinds
        )


@dataclass
class ScenarioResult(SampleTable, Serializable):
    """Per-kind samples, probe series and engine accounting."""

    scenario: Scenario
    #: Content hash of the spec (the plan-cache key of this run).
    spec_hash: str
    #: The relay every circuit crosses, when the topology forces one.
    bottleneck_relay: Optional[str]
    #: controller kind -> one sample per planned circuit, plan order.
    samples: Dict[str, List[ScenarioCircuitSample]]
    #: controller kind -> probe series (one per probe × target).
    probes: Dict[str, List[ProbeSeries]]
    #: controller kind -> simulator events executed for the whole run.
    events_executed: Dict[str, int]
    #: controller kind -> failure records (fault plane; empty otherwise).
    failures: Dict[str, List[CircuitFailure]] = field(default_factory=dict)
    #: controller kind -> summed hop-sender transport counters
    #: (retransmissions, timeouts, ...); only populated when the
    #: scenario configures faults, so fault-free results keep their
    #: pre-fault-plane shape modulo empty defaults.
    transport_counters: Dict[str, Dict[str, int]] = field(default_factory=dict)

    @property
    def compared_kinds(self) -> Sequence[str]:
        return self.scenario.kinds

    @property
    def settle_time(self) -> float:
        return self.scenario.churn.settle_time()

    @property
    def run_kinds(self) -> List[str]:
        """The controller kinds that actually ran (run order).

        A subset of ``scenario.kinds`` when the run was restricted via
        ``run_planned(plan, kinds=...)``.
        """
        return list(self.samples)

    def failure_rate(self, kind: str, workload: Optional[str] = None) -> float:
        """Fraction of planned circuits that failed (0.0 fault-free)."""
        rows = self.of_workload(kind, workload)
        if not rows:
            return 0.0
        return sum(1 for s in rows if not s.completed) / len(rows)


class KindRun:
    """One kind's live run — the context handed to probe installs."""

    def __init__(
        self,
        sim: Simulator,
        network: GeneratedNetwork,
        bottleneck_relay: Optional[str],
        runs: Sequence[WorkloadRun],
    ) -> None:
        self.sim = sim
        self.network = network
        self.bottleneck_relay = bottleneck_relay
        self.runs = runs
        # Track the not-yet-finished runs, so active() is O(1) amortized
        # rather than a rescan of every planned circuit per probe tick.
        # A finished or failed run leaves the pending set at most once:
        # through its completion waiter, or in active() when it reaches
        # the run first (completion flips ``done`` synchronously, the
        # waiter delivers one call_soon beat later; a failed run never
        # completes).
        self._pending: Dict[int, WorkloadRun] = {
            index: run for index, run in enumerate(self.runs)
        }
        for index, run in self._pending.items():
            # Kept although active() would do without it: the call_soon
            # per circuit is counted in events_executed.
            run.completed.subscribe(
                lambda __value, index=index: self._pending.pop(index, None)
            )

    def active(self) -> bool:
        """Whether any planned circuit is still unfinished.

        Equivalent to ``any(not (run.done or run.failed) for run in
        self.runs)`` but O(1) amortized: finished runs leave the
        pending set exactly once, via their completion waiter or here.
        """
        pending = self._pending
        while pending:
            index, run = next(iter(pending.items()))
            if not (run.done or run.failed):
                return True
            # Finished or failed, not yet retired: retire it now.
            del pending[index]
        return False


def run_scenario(
    scenario: Scenario,
    kinds: Optional[Sequence[str]] = None,
    cache: Optional[PlanCache] = None,
) -> ScenarioResult:
    """Plan (or fetch the cached plan) and run *scenario*.

    *kinds* optionally restricts which controller kinds actually run;
    the default runs every kind of ``scenario.kinds``.
    """
    return run_planned(plan_scenario(scenario, cache=cache), kinds=kinds)


def run_planned(
    plan: ScenarioPlan, kinds: Optional[Sequence[str]] = None
) -> ScenarioResult:
    """Replay *plan* once per controller kind and assemble the result.

    Two or more kinds replay side by side, one in this process and the
    others in kind workers, when this process may fork and use two CPUs
    and the plan has ``_SIDE_BY_SIDE_FLOOR`` cell-hops per kind or more.
    Otherwise they replay serially, and a kind a worker lost replays
    here afterwards: an error is always the serial engine's own.
    """
    run_kinds = list(kinds) if kinds is not None else list(plan.scenario.kinds)
    return scenario_result(
        plan, run_kinds, replay_kinds(plan, run_kinds, _run_kind, _SIDE_BY_SIDE_FLOOR)
    )


def scenario_result(
    plan: ScenarioPlan, kinds: Sequence[str], outcomes: Sequence[Any]
) -> ScenarioResult:
    """The result of *plan* from one :func:`replay_kind` outcome per kind."""
    scenario = plan.scenario
    samples: Dict[str, List[ScenarioCircuitSample]] = {}
    probes: Dict[str, List[ProbeSeries]] = {}
    events: Dict[str, int] = {}
    failures: Dict[str, List[CircuitFailure]] = {}
    counters: Dict[str, Dict[str, int]] = {}
    faulted = bool(scenario.faults)
    for kind, outcome in zip(kinds, outcomes):
        samples[kind], probes[kind], events[kind] = outcome[:3]
        if faulted:
            failures[kind], counters[kind] = outcome[3:]
    return ScenarioResult(
        scenario=scenario,
        spec_hash=plan.spec_hash,
        bottleneck_relay=plan.bottleneck_relay,
        samples=samples,
        probes=probes,
        events_executed=events,
        failures=failures,
        transport_counters=counters,
    )


#: Planned cell-hops per kind under which a call replays its kinds
#: serially: forking a worker for one call costs more than a small plan
#: saves.  ``run_planned`` on 2-circuit ``netscale`` plans, ms, median
#: of 7, serial / fork per call / warm worker (BENCH_kindworker.json):
#: 72 cell-hops 1.96 / 3.79 / 1.32, 528: 10.3 / 8.7 / 5.7, 2 112: 41.3 /
#: 26.7 / 22.9, 8 424: 172 / 97 / 92.  A fork per call breaks even
#: between 72 and 528; the floor keeps a wide margin above that, because
#: the break-even moves from run to run.
_SIDE_BY_SIDE_FLOOR = 2000


def replay_kind(plan: ScenarioPlan, kind: str):
    """One controller kind's outcome of *plan*, for :func:`scenario_result`."""
    return _run_kind(plan, kind)


def build_circuit_run(
    scenario: Scenario,
    planned: PlannedCircuit,
    kind: str,
    sim: Simulator,
    network: GeneratedNetwork,
) -> WorkloadRun:
    """Instantiate one planned circuit and attach its workload: the one
    place a plan row becomes a live circuit."""
    workload = scenario.workloads[planned.workload]
    spec = CircuitSpec(
        circuit_id=planned.index + 1,
        source=planned.source,
        relays=list(planned.relays),
        sink=planned.sink,
    )
    flow = CircuitFlow(
        sim,
        network.topology,
        spec,
        scenario.transport,
        controller_kind=kind,
        payload_bytes=workload.total_bytes(),
        start_time=planned.start_time,
        workload=workload.flow_workload,
    )
    return workload.attach(sim, flow, planned)


def _run_kind(plan: ScenarioPlan, kind: str):
    """One controller kind's full run of *plan*.

    Returns ``(samples, series, events_executed, failures, counters)``,
    the probe series in probe order.

    The run's simulator, network, hosts and circuits reference each
    other.  Once the outcome exists (or the run raised), each layer
    drops its own back-references, so reference counting frees the
    whole run at once instead of leaving it to the cyclic collector.
    """
    sim = Simulator()
    network = instantiate_network(plan.network, sim)
    runs: List[WorkloadRun] = []
    with released(sim, network.topology):
        try:
            return _replay_kind(plan, kind, sim, network, runs)
        finally:
            for run in runs:
                run.release()


class UnfinishedCircuitsError(RuntimeError):
    """A fault-free run reached ``max_sim_time`` with circuits unfinished.

    Its message names the first unfinished circuit and how many of its
    bytes were delivered, which tells a slow run from a stuck one.
    """


def _replay_kind(
    plan: ScenarioPlan,
    kind: str,
    sim: Simulator,
    network: GeneratedNetwork,
    runs: List[WorkloadRun],
):
    """:func:`_run_kind` on a fresh *sim* and *network*; fills *runs*."""
    scenario = plan.scenario
    for planned in plan.circuits:
        runs.append(build_circuit_run(scenario, planned, kind, sim, network))

    # Departures: completed circuits leave — their state is removed
    # from every host along the path, so churn reaches a steady-state
    # mix instead of accumulating finished circuits forever.
    if scenario.churn.departures:
        for run in runs:
            run.enable_departure()

    context = KindRun(sim, network, plan.bottleneck_relay, runs)

    faulted = bool(scenario.faults)
    if faulted:
        _arm_fault_plane(sim, scenario, plan, network, runs)

    installed = [probe.install(sim, context) for probe in scenario.probes]

    sim.run_until(scenario.max_sim_time)

    unfinished = [
        (planned, run)
        for planned, run in zip(plan.circuits, runs)
        if not (run.done or run.failed)
    ]
    if unfinished:
        if not faulted:
            first, first_run = unfinished[0]
            workload = scenario.workloads[first.workload]
            raise UnfinishedCircuitsError(
                "%d/%d circuits did not finish within %gs (kind=%s); first: "
                "circuit %d (%s), %d of %d bytes delivered"
                % (
                    len(unfinished),
                    len(plan.circuits),
                    scenario.max_sim_time,
                    kind,
                    first.index + 1,
                    workload.part_name,
                    first_run.delivered_bytes,
                    workload.total_bytes(),
                )
            )
        # Under faults an unfinished circuit is an outcome, not a bug:
        # loss plus a finite horizon can legitimately starve a transfer.
        for planned, run in zip(plan.circuits, runs):
            if not (run.done or run.failed):
                run.fail(scenario.max_sim_time, "timeout")

    kind_samples = [
        _make_sample(scenario, planned, run)
        for planned, run in zip(plan.circuits, runs)
    ]
    kind_failures = [
        CircuitFailure(
            index=planned.index,
            circuit_id=planned.index + 1,
            failed_at=run.failed_at,
            cause=run.failure_cause or "unknown",
        )
        for planned, run in zip(plan.circuits, runs)
        if run.failed
    ]
    kind_counters: Dict[str, int] = {}
    if faulted:
        for run in runs:
            for sender in run.flow.hop_senders:
                for name, value in sender.counters().items():
                    kind_counters[name] = kind_counters.get(name, 0) + value
    return (
        kind_samples,
        [collector.series() for probe in installed for collector in probe],
        sim.events_executed,
        kind_failures,
        kind_counters,
    )


def _arm_fault_plane(
    sim: Simulator,
    scenario: Scenario,
    plan: ScenarioPlan,
    network: GeneratedNetwork,
    runs: Sequence[WorkloadRun],
) -> None:
    """Install the fault plane on a freshly built kind run.

    Wires failure attribution (broken hops and relay deaths become
    per-circuit :class:`CircuitFailure` records via ``run.fail``),
    then arms every fault part and the plan's kill/restart schedule.
    """
    runs_by_id = {run.flow.spec.circuit_id: run for run in runs}

    def on_circuit_broken(circuit_id: int, error: Exception) -> None:
        run = runs_by_id.get(circuit_id)
        if run is None:
            return
        now = sim.now
        if isinstance(error, RelayFailure):
            # A relay death fails even circuits that had not started
            # yet (their eagerly built state is gone); distinguish the
            # causes so the study can tell "died under me" from "was
            # already dead".
            if now >= run.flow.start_time:
                cause = "relay-failure:%s" % error.relay
            else:
                cause = "relay-down:%s" % error.relay
        else:
            cause = "hop-broken"
        run.fail(now, cause)

    seen = set()
    for run in runs:
        for host in run.flow.hosts:
            if id(host) not in seen:
                seen.add(id(host))
                host.on_circuit_broken = on_circuit_broken

    FaultInjector(sim, scenario, plan, network).arm()


def _make_sample(
    scenario: Scenario, planned: PlannedCircuit, run: WorkloadRun
) -> ScenarioCircuitSample:
    workload = scenario.workloads[planned.workload]
    exit_time = run.flow.source_controller.startup_exit_time
    total_bytes = workload.total_bytes()
    first_byte = run.first_byte_time
    # A failed circuit keeps whatever it measured before dying (TTFB if
    # the first byte made it) and None for the rest; the cause lives in
    # the result's failure records.
    assert run.failed or first_byte is not None
    ttlb = None if run.failed else run.last_byte_time - planned.start_time
    return ScenarioCircuitSample(
        index=planned.index,
        circuit_id=planned.index + 1,
        generation=planned.generation,
        workload=workload.part_name,
        source=planned.source,
        sink=planned.sink,
        relays=list(planned.relays),
        payload_bytes=total_bytes,
        start_time=planned.start_time,
        time_to_first_byte=(
            None if first_byte is None else first_byte - planned.start_time
        ),
        time_to_last_byte=ttlb,
        goodput_bytes_per_second=None if ttlb is None else total_bytes / ttlb,
        startup_duration=(
            None if exit_time is None else exit_time - planned.start_time
        ),
        departed_at=run.departed_at,
        message_latencies=list(run.message_latencies),
    )
