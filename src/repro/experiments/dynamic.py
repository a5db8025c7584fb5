"""Future-work experiment: responding to mid-flow condition changes.

The paper's conclusion promises to extend CircuitStart "to quickly
respond to changing network conditions during the congestion avoidance
phase".  This experiment exercises the
:class:`~repro.core.dynamic.DynamicCircuitStartController` against the
published (startup-only) controller:

* a chain circuit ramps up and settles against a bottleneck link;
* at a configured instant the bottleneck's rate changes (a capacity
  *increase* models a competing circuit finishing; a *decrease* models
  new cross-traffic);
* we measure each controller's window trace and the bytes delivered
  after the change — the dynamic controller should re-ramp quickly on
  an increase and cut back fast on a decrease.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..analysis.optimal_window import HopLink, source_optimal_window
from ..analysis.trace import TraceRecorder
from ..net.topology import Topology
from ..sim.simulator import Simulator
from ..tor.hosts import released
from ..transport.config import TransportConfig
from ..units import Rate, mbit_per_second, mib, milliseconds, seconds
from .api import Experiment, ExperimentResult, ExperimentSpec, RunContext
from .fig1_traces import chain_flow, slow_link_specs
from .registry import register_experiment

__all__ = [
    "DynamicConfig",
    "DynamicExperiment",
    "DynamicResult",
    "set_duplex_rate",
]


def set_duplex_rate(topology: Topology, a_name: str, b_name: str, rate: Rate) -> None:
    """Change both directions of the a—b link to *rate*, mid-simulation.

    Cells already being serialized finish at the old rate (their events
    are scheduled); everything transmitted afterwards uses the new one,
    which matches how a rate change behaves on real hardware.
    """
    changed = 0
    for src, dst in ((a_name, b_name), (b_name, a_name)):
        for iface in topology.node(src).interfaces:
            if iface.peer is not None and iface.peer.name == dst:
                iface.link.rate = rate
                changed += 1
    if changed != 2:
        raise KeyError("no duplex link between %s and %s" % (a_name, b_name))


@dataclass(frozen=True)
class DynamicConfig(ExperimentSpec):
    """Parameters of the mid-flow change experiment."""

    relay_count: int = 3
    bottleneck_distance: int = 2
    fast_rate: Rate = mbit_per_second(16.0)
    bottleneck_rate_before: Rate = mbit_per_second(2.0)
    bottleneck_rate_after: Rate = mbit_per_second(10.0)
    link_delay: float = milliseconds(8.0)
    change_time: float = seconds(1.0)
    duration: float = seconds(3.0)
    payload_bytes: int = mib(16)
    controller_kinds: tuple = ("dynamic", "circuitstart")
    transport: TransportConfig = field(default_factory=TransportConfig)

    def __post_init__(self) -> None:
        slow_link_specs(self, self.bottleneck_rate_before)  # its range checks
        self.check_kinds_and_duration(self.controller_kinds, self.duration)
        if not 0 <= self.change_time < self.duration:
            raise ValueError(
                "the rate change must fall inside the run: change_time %r, "
                "duration %r" % (self.change_time, self.duration)
            )


@dataclass
class DynamicResult(ExperimentResult):
    """Per-controller traces and post-change delivery."""

    config: DynamicConfig
    traces: Dict[str, TraceRecorder]
    #: Bytes delivered to the sink *after* the rate change, per kind.
    bytes_after_change: Dict[str, int]
    #: Optimal source window before/after the change, in cells.
    optimal_before_cells: int
    optimal_after_cells: int
    #: Start-up re-entries observed (only for the dynamic controller).
    reentries: Dict[str, int]

    def time_to_adapt(self, kind: str, fraction: float = 0.9) -> Optional[float]:
        """Seconds after the change until the window first reaches
        *fraction* of the new optimum (``None`` if it never does)."""
        target = fraction * self.optimal_after_cells
        change = self.config.change_time
        for t, v in zip(self.traces[kind].times, self.traces[kind].values):
            if t >= change and v >= target:
                return t - change
        return None


@register_experiment
class DynamicExperiment(Experiment):
    """The mid-flow rate-change study behind ``repro dynamic``."""

    name = "dynamic"
    help = "future-work: mid-flow rate change"
    spec_type = DynamicConfig
    result_type = DynamicResult

    def run(
        self, spec: DynamicConfig, ctx: RunContext = RunContext()
    ) -> DynamicResult:
        traces: Dict[str, TraceRecorder] = {}
        bytes_after: Dict[str, int] = {}
        reentries: Dict[str, int] = {}

        for kind in spec.controller_kinds:
            trace, delivered_after, reentry_count = _run_one(spec, kind)
            traces[kind] = trace
            bytes_after[kind] = delivered_after
            reentries[kind] = reentry_count

        before, after = _optimal_windows(spec)
        return DynamicResult(
            config=spec,
            traces=traces,
            bytes_after_change=bytes_after,
            optimal_before_cells=before,
            optimal_after_cells=after,
            reentries=reentries,
        )

    def render(self, result: DynamicResult) -> str:
        from ..report.tables import format_table

        rows = []
        for kind in result.config.controller_kinds:
            adapt = result.time_to_adapt(kind)
            rows.append([kind, adapt * 1e3 if adapt is not None else None,
                         result.bytes_after_change[kind] // 1024,
                         result.reentries[kind]])
        return format_table(
            ["controller", "adapt [ms]", "bytes after [KiB]", "re-entries"],
            rows,
            title="Mid-flow rate change (optimal %d -> %d cells)"
            % (result.optimal_before_cells, result.optimal_after_cells),
        )


def _run_one(config: DynamicConfig, kind: str):
    sim = Simulator()
    flow = chain_flow(
        sim,
        slow_link_specs(config, config.bottleneck_rate_before),
        config.transport,
        controller_kind=kind,
        payload_bytes=config.payload_bytes,
    )
    recorder = TraceRecorder("cwnd:%s" % kind)
    flow.trace_cwnd(recorder)

    names = flow.spec.node_path
    bottleneck_a = names[config.bottleneck_distance]
    bottleneck_b = names[config.bottleneck_distance + 1]
    received_at_change: Dict[str, int] = {}

    def apply_change() -> None:
        set_duplex_rate(
            flow.topology, bottleneck_a, bottleneck_b, config.bottleneck_rate_after
        )
        received_at_change["bytes"] = flow.sink.received_bytes

    with released(sim, flow.topology):
        sim.schedule_at(config.change_time, apply_change)
        sim.run_until(config.duration)

        delivered_after = flow.sink.received_bytes - received_at_change.get("bytes", 0)
        reentry_count = getattr(flow.source_controller, "reentries", 0)
    return recorder, delivered_after, reentry_count


def _optimal_windows(config: DynamicConfig):
    def windows(bottleneck: Rate) -> int:
        links = [HopLink(s.rate, s.delay) for s in slow_link_specs(config, bottleneck)]
        return source_optimal_window(links, config.transport).window_cells

    return (
        windows(config.bottleneck_rate_before),
        windows(config.bottleneck_rate_after),
    )
