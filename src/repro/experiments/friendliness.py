"""Friendliness toward background traffic.

The paper's introduction motivates a conservative start-up: "it is
desired that Tor traffic behave much like background traffic, i.e.,
avoiding aggressive traffic patterns."  This experiment quantifies
that property:

* a long-lived constant-rate background flow occupies half of a
  bottleneck link and reaches steady state;
* at a configured instant, a circuit using the start-up scheme under
  test begins a bulk transfer across the same link;
* we compare the background packets' one-way delays *before* and
  *during/after* the circuit's ramp-up, and the bottleneck queue's
  peak depth.

A friendly start-up adds little delay to the background flow; an
aggressive one (JumpStart's initial burst, an uncompensated overshoot)
parks a queue in front of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..net.topology import LinkSpec, Topology
from ..net.traffic import ConstantRateSender, LatencyTracker
from ..sim.monitor import PeriodicSampler
from ..sim.simulator import Simulator
from ..tor.circuit import CircuitFlow, CircuitSpec, allocate_circuit_id
from ..tor.hosts import released
from ..transport.config import TransportConfig
from ..units import Rate, mbit_per_second, mib, milliseconds, seconds
from .api import Experiment, ExperimentResult, ExperimentSpec, RunContext
from .registry import register_experiment

__all__ = [
    "FriendlinessConfig",
    "FriendlinessExperiment",
    "FriendlinessResult",
    "FriendlinessRow",
]


@dataclass(frozen=True)
class FriendlinessConfig(ExperimentSpec):
    """Parameters of the background-interference experiment."""

    fast_rate: Rate = mbit_per_second(50.0)
    bottleneck_rate: Rate = mbit_per_second(8.0)
    link_delay: float = milliseconds(12.0)
    #: Fraction of the bottleneck the background flow occupies.
    background_load: float = 0.5
    background_packet_size: int = 512
    #: When the circuit's transfer starts (background settles first).
    circuit_start: float = seconds(0.5)
    duration: float = seconds(1.5)
    payload_bytes: int = mib(4)
    controller_kinds: tuple = ("circuitstart", "plain-slowstart", "jumpstart")
    transport: TransportConfig = field(default_factory=TransportConfig)

    def __post_init__(self) -> None:
        if not 0.0 < self.background_load < 1.0:
            raise ValueError(
                "background load must be in (0, 1), got %r" % self.background_load
            )
        self.check_kinds_and_duration(self.controller_kinds, self.duration)
        if not self.circuit_start < self.duration:  # also NaN
            raise ValueError("circuit must start before the run ends")


@dataclass
class FriendlinessRow:
    """Impact of one start-up scheme on the background flow."""

    kind: str
    #: Background one-way delay p95 before the circuit starts (seconds).
    baseline_p95: float
    #: Background one-way delay p95 while the circuit runs (seconds).
    loaded_p95: float
    #: Peak bottleneck queue depth (packets) after the circuit starts.
    peak_queue_packets: int
    #: Whether the circuit moved data at all (sanity).
    circuit_bytes: int

    @property
    def added_delay_p95(self) -> float:
        """How much p95 delay the start-up added for background users."""
        return self.loaded_p95 - self.baseline_p95


@dataclass
class FriendlinessResult(ExperimentResult):
    """One row per start-up scheme under test."""

    config: FriendlinessConfig
    rows: List[FriendlinessRow]


@register_experiment
class FriendlinessExperiment(Experiment):
    """The background-interference study behind ``repro friendliness``."""

    name = "friendliness"
    help = "impact on background traffic"
    spec_type = FriendlinessConfig
    result_type = FriendlinessResult

    def run(
        self, spec: FriendlinessConfig, ctx: RunContext = RunContext()
    ) -> FriendlinessResult:
        return FriendlinessResult(
            config=spec,
            rows=[_run_one(spec, kind) for kind in spec.controller_kinds],
        )

    def render(self, result: FriendlinessResult) -> str:
        from ..report import format_table

        return format_table(
            ["controller", "baseline p95 [ms]", "loaded p95 [ms]",
             "added p95 [ms]", "peak queue [pkts]"],
            [[r.kind, r.baseline_p95 * 1e3, r.loaded_p95 * 1e3,
              r.added_delay_p95 * 1e3, r.peak_queue_packets]
             for r in result.rows],
            title="Background-traffic impact of start-up schemes",
        )


def _build_topology(sim: Simulator, config: FriendlinessConfig) -> Topology:
    """A chain with two extra hosts sharing the bottleneck link.

    ``source—R1—R2—R3—sink`` with the bottleneck on R1—R2; background
    traffic flows bg_src—R1—R2—bg_dst, so it crosses exactly the
    bottleneck.
    """
    topo = Topology(sim)
    fast = LinkSpec(config.fast_rate, config.link_delay)
    slow = LinkSpec(config.bottleneck_rate, config.link_delay)
    access = LinkSpec(config.fast_rate, milliseconds(2.0))
    for name in ("source", "R1", "R2", "R3", "sink", "bg_src", "bg_dst"):
        topo.add_node(name)
    topo.connect("source", "R1", fast)
    topo.connect("R1", "R2", slow)
    topo.connect("R2", "R3", fast)
    topo.connect("R3", "sink", fast)
    topo.connect("bg_src", "R1", access)
    topo.connect("R2", "bg_dst", access)
    topo.build_routes()
    return topo


def _run_one(config: FriendlinessConfig, kind: str) -> FriendlinessRow:
    sim = Simulator()
    topo = _build_topology(sim, config)

    # Transit nodes R1/R2 double as circuit relays; they get TorHosts via
    # the flow below.  bg_dst only collects latencies.
    tracker = LatencyTracker(sim)
    topo.node("bg_dst").set_handler(tracker)
    ConstantRateSender(
        sim,
        topo.node("bg_src"),
        "bg_dst",
        config.bottleneck_rate.scaled(config.background_load),
        packet_size=config.background_packet_size,
    )

    flow = CircuitFlow(
        sim,
        topo,
        CircuitSpec(allocate_circuit_id(), "source", ["R1", "R2", "R3"], "sink"),
        config.transport,
        controller_kind=kind,
        payload_bytes=config.payload_bytes,
        start_time=config.circuit_start,
    )

    bottleneck_iface = topo._interface_between("R1", "R2")
    probe = PeriodicSampler(
        sim, lambda: bottleneck_iface.backlog_packets, interval=milliseconds(1.0)
    )

    with released(sim, topo):
        sim.run_until(config.duration)
        circuit_bytes = flow.sink.received_bytes

    settle_margin = seconds(0.1)
    baseline = tracker.delays_between(settle_margin, config.circuit_start)
    loaded = tracker.delays_between(config.circuit_start, config.duration)
    peak_queue = max(
        (v for t, v in probe.samples if t >= config.circuit_start), default=0.0
    )
    return FriendlinessRow(
        kind=kind,
        baseline_p95=_p95(baseline),
        loaded_p95=_p95(loaded),
        peak_queue_packets=int(peak_queue),
        circuit_bytes=circuit_bytes,
    )


def _p95(delays: List[float]) -> float:
    if not delays:
        return 0.0
    cdf = sorted(delays)
    index = max(0, int(round(0.95 * len(cdf))) - 1)
    return cdf[index]
