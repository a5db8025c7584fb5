"""Instrumentation probes: time series sampled while a scenario runs.

A probe is a scenario part that installs
:class:`~repro.sim.monitor.PeriodicSampler` instances on a kind run and
surfaces each sampled grid as a serializable :class:`ProbeSeries` row
in the scenario result, keyed by controller kind — so "what did the
bottleneck look like over time, with vs without CircuitStart" is a
field access, not a bespoke harness.  Every probe hands the engine one
:class:`_Collector` per target (a relay, a circuit, or the whole run).

* :class:`UtilizationProbe` — per-relay access-link utilization: the
  fraction of each sampling interval the relay's egress spent sending
  (bytes sent in the interval over interval × link rate).  A packet
  whose serialization starts at the very end of an interval counts
  wholly toward that interval, so a saturated link can read slightly
  above 1.0 on a single sample.
* :class:`QueueDepthProbe` — the relay egress queue depth in packets,
  the standing-queue signal CircuitStart's Vegas detector keys on.
* :class:`FailureRateProbe` — the fraction of the run's circuits that
  have failed so far (fault plane), one series per kind run.
* :class:`GoodputProbe` — *per-circuit* delivered-bytes rate: one
  sampler per planned circuit, armed at the circuit's start time and
  stopped at its completion, reporting bytes delivered to the sink per
  sampling interval (in bytes per second).

The relay probes accept ``scope="bottleneck"`` (the scenario's
designated bottleneck relay only) or ``scope="relays"`` (every relay);
the other two can be restricted to one workload class
(``workload="bulk"``).  Samplers stop once every planned circuit has
completed, so probes never keep an otherwise finished simulation
ticking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from ..serialize import Serializable
from ..sim.monitor import PeriodicSampler
from .parts import Probe, register_part

__all__ = [
    "FailureRateProbe",
    "GoodputProbe",
    "ProbeSeries",
    "QueueDepthProbe",
    "UtilizationProbe",
]

_SCOPES = ("bottleneck", "relays")


@dataclass
class ProbeSeries(Serializable):
    """One probe's sampled time series at one target relay."""

    probe: str
    target: str
    times: List[float]
    values: List[float]

    @property
    def mean(self) -> float:
        """Mean sampled value (0.0 when nothing was sampled)."""
        return sum(self.values) / len(self.values) if self.values else 0.0

    @property
    def peak(self) -> float:
        """Largest sampled value (0.0 when nothing was sampled)."""
        return max(self.values, default=0.0)

    # --- steady-state aggregation helpers -----------------------------

    def between(
        self, start: Optional[float] = None, stop: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """The ``(time, value)`` samples with ``start <= time < stop``.

        ``None`` leaves the corresponding side unbounded.  Churn
        studies use this to trim warm-up (everything before the churn
        process's settle time) and drain-out (everything at or past the
        arrival horizon) from a series before aggregating.
        """
        return [
            (t, v)
            for t, v in zip(self.times, self.values)
            if (start is None or t >= start) and (stop is None or t < stop)
        ]

    def mean_between(
        self, start: Optional[float] = None, stop: Optional[float] = None
    ) -> float:
        """Mean sampled value within ``[start, stop)`` (0.0 when empty)."""
        window = self.between(start, stop)
        if not window:
            return 0.0
        return sum(v for __, v in window) / len(window)


class _Collector:
    """Binds a sampler to its target for post-run series assembly.

    The sampler may arrive mid-run (the goodput probe arms one per
    circuit at the circuit's start time); a collector that never got
    one reports an empty series.
    """

    def __init__(
        self, probe_name: str, target: str, sampler: Optional[PeriodicSampler] = None
    ) -> None:
        self.probe_name = probe_name
        self.target = target
        self.sampler = sampler

    def series(self) -> ProbeSeries:
        sampler = self.sampler
        return ProbeSeries(
            probe=self.probe_name,
            target=self.target,
            times=list(sampler.times) if sampler is not None else [],
            values=list(sampler.values) if sampler is not None else [],
        )


def _check_interval(interval: float) -> None:
    if not 0 < interval < float("inf"):  # also NaN
        raise ValueError(
            "sampling interval must be positive and finite, got %r" % interval
        )


def _check_scope(scope: str) -> None:
    if scope not in _SCOPES:
        raise ValueError(
            "probe scope must be one of %s, got %r" % (_SCOPES, scope)
        )


def _check_workload(probe: Any, scenario: Any) -> None:
    """Spec-time check shared by the per-workload probes (Probe.validate)."""
    if probe.workload is None:
        return
    names = [w.part_name for w in scenario.workloads]
    if probe.workload not in names:
        raise ValueError(
            "%s probe restricted to workload %r, but the scenario only "
            "carries %s" % (probe.part_name, probe.workload, ", ".join(names))
        )


def _validate_against(probe: Any, scenario: Any) -> None:
    """Spec-time check shared by the relay probes (Probe.validate)."""
    if (
        probe.scope == "bottleneck"
        and not scenario.topology.designates_bottleneck()
    ):
        raise ValueError(
            "%s probe with scope='bottleneck' needs a topology source that "
            "designates a bottleneck relay (e.g. GeneratedTopology with "
            "force_bottleneck=True); use scope='relays' otherwise"
            % probe.part_name
        )


def _targets(scope: str, context: Any, probe_name: str) -> List[str]:
    if scope == "relays":
        return list(context.network.relay_names)
    if context.bottleneck_relay is None:
        # Normally unreachable: Probe.validate rejects this pairing at
        # spec construction.  Kept as a backstop for hand-built plans.
        raise RuntimeError(
            "%s probe with scope='bottleneck' needs a topology source that "
            "designates a bottleneck relay (e.g. GeneratedTopology with "
            "force_bottleneck=True); use scope='relays' otherwise" % probe_name
        )
    return [context.bottleneck_relay]


def _relay_interface(context: Any, relay: str) -> Any:
    # Star topology: a relay has exactly one interface — its access
    # link toward the hub, which carries everything it forwards.
    return context.network.topology.node(relay).interfaces[0]


@register_part
@dataclass(frozen=True)
class UtilizationProbe(Probe):
    """Samples per-relay access-link utilization on a fixed grid."""

    interval: float = 0.25
    scope: str = "bottleneck"
    part: str = field(default="utilization", init=False)

    def __post_init__(self) -> None:
        _check_interval(self.interval)
        _check_scope(self.scope)

    def validate(self, scenario: Any) -> None:
        _validate_against(self, scenario)

    def _make_probe(self, interface: Any, rate_bps: float) -> Callable[[], float]:
        capacity = rate_bps * self.interval  # bytes sendable per interval
        last = [interface.bytes_sent]

        def probe() -> float:
            sent = interface.bytes_sent
            delta = sent - last[0]
            last[0] = sent
            return delta / capacity

        return probe

    def install(self, sim: Any, context: Any) -> List[_Collector]:
        collectors = []
        for relay in _targets(self.scope, context, self.part):
            interface = _relay_interface(context, relay)
            rate = context.network.relay_rate(relay).bytes_per_second
            sampler = PeriodicSampler(
                sim,
                self._make_probe(interface, rate),
                self.interval,
                while_predicate=context.active,
            )
            collectors.append(_Collector(self.part, relay, sampler))
        return collectors


@register_part
@dataclass(frozen=True)
class QueueDepthProbe(Probe):
    """Samples per-relay egress queue depth (packets) on a fixed grid."""

    interval: float = 0.25
    scope: str = "bottleneck"
    part: str = field(default="queue-depth", init=False)

    def __post_init__(self) -> None:
        _check_interval(self.interval)
        _check_scope(self.scope)

    def validate(self, scenario: Any) -> None:
        _validate_against(self, scenario)

    def install(self, sim: Any, context: Any) -> List[_Collector]:
        collectors = []
        for relay in _targets(self.scope, context, self.part):
            interface = _relay_interface(context, relay)
            sampler = PeriodicSampler(
                sim,
                lambda interface=interface: float(interface.backlog_packets),
                self.interval,
                while_predicate=context.active,
            )
            collectors.append(_Collector(self.part, relay, sampler))
        return collectors


@register_part
@dataclass(frozen=True)
class FailureRateProbe(Probe):
    """Samples the cumulative circuit failure fraction on a fixed grid.

    One series per kind run (target ``"all"``, or the workload name
    when restricted): at each tick, the fraction of this kind's planned
    circuits that have failed so far — how adversity accumulates over
    the run, complementing the scalar failure rate the adversity study
    aggregates from the per-circuit samples.
    """

    interval: float = 0.25
    #: Restrict to one workload class (registry name); ``None`` counts
    #: every circuit.
    workload: Optional[str] = None
    part: str = field(default="failure-rate", init=False)

    def __post_init__(self) -> None:
        _check_interval(self.interval)

    def validate(self, scenario: Any) -> None:
        _check_workload(self, scenario)

    def install(self, sim: Any, context: Any) -> List[_Collector]:
        runs = [
            run
            for run in context.runs
            if self.workload is None or run.workload_name == self.workload
        ]
        total = len(runs)
        target = self.workload if self.workload is not None else "all"

        def probe() -> float:
            if not total:
                return 0.0
            return sum(1 for run in runs if run.failed) / total

        sampler = PeriodicSampler(
            sim,
            probe,
            self.interval,
            while_predicate=context.active,
        )
        return [_Collector(self.part, target, sampler)]


@register_part
@dataclass(frozen=True)
class GoodputProbe(Probe):
    """Samples each circuit's delivered-bytes rate on a fixed grid.

    One sampler per planned circuit: armed at the circuit's start time,
    stopped once the circuit's transfer completes, reporting the bytes
    delivered to the sink during each interval divided by the interval
    (bytes per second).  Completion appends one final flush sample for
    the partial tail interval (scaled by the full interval, so the
    series integrates to exactly the delivered payload — and a circuit
    faster than one interval still reports its transfer instead of an
    all-zero series).  Series are keyed ``circuit-<id>``, so "how did
    this circuit's share of the bottleneck evolve while others churned"
    is a field access on the result.
    """

    interval: float = 0.25
    #: Restrict to one workload class (registry name, e.g. ``"bulk"``);
    #: ``None`` probes every circuit.
    workload: Optional[str] = None
    part: str = field(default="goodput", init=False)

    def __post_init__(self) -> None:
        _check_interval(self.interval)

    def validate(self, scenario: Any) -> None:
        _check_workload(self, scenario)

    def _make_probe(self, run: Any) -> Callable[[], float]:
        last = [run.delivered_bytes]

        def probe() -> float:
            delivered = run.delivered_bytes
            delta = delivered - last[0]
            last[0] = delivered
            return delta / self.interval

        return probe

    def install(self, sim: Any, context: Any) -> List[_Collector]:
        collectors = []
        for run in context.runs:
            if self.workload is not None and run.workload_name != self.workload:
                continue
            collector = _Collector(
                self.part, "circuit-%d" % run.flow.spec.circuit_id
            )

            def arm(run: Any = run, collector: _Collector = collector) -> None:
                # Completed (or already failed) before its own start
                # tick: nothing to sample.
                if run.done or run.failed:
                    return
                probe = self._make_probe(run)
                sampler = PeriodicSampler(
                    sim,
                    probe,
                    self.interval,
                    while_predicate=lambda: not (run.done or run.failed),
                )
                collector.sampler = sampler

                def flush(__at: Any) -> None:
                    # The tail interval: bytes delivered since the last
                    # tick would otherwise be dropped (the predicate
                    # stops sampling the moment the run is done).
                    value = probe()
                    if value > 0:
                        sampler.times.append(sim.now)
                        sampler.values.append(value)
                    sampler.stop()

                run.completed.subscribe(flush)

            sim.schedule_at(max(run.flow.start_time, sim.now), arm)
            collectors.append(collector)
        return collectors
