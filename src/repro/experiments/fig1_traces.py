"""Figure 1 (upper panels): source cwnd traces vs bottleneck distance.

The paper plots the source's congestion window over the first ~300 ms
of a circuit whose bottleneck sits at different distances:

* "distance to bottleneck: 1 hop" — the slow link is the first relay's
  egress (one hop away from the source);
* "distance to bottleneck: 3 hops" — the slow link is the last relay's
  egress, directly in front of the destination.

Representative behaviour (the claims the tests assert):

* the window doubles per round up to a temporary overshoot;
* CircuitStart's compensation then drops it close to the *optimal*
  window (dashed line; computed by
  :mod:`repro.analysis.optimal_window`), regardless of where the
  bottleneck is;
* the adjustment happens quickly (well within the plotted 300 ms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..analysis.optimal_window import (
    HopLink,
    OptimalWindow,
    source_optimal_window,
)
from ..analysis.trace import TraceRecorder
from ..net.topology import LinkSpec, build_chain
from ..sim.simulator import Simulator
from ..tor.circuit import CircuitFlow, CircuitSpec, allocate_circuit_id
from ..tor.hosts import released
from ..transport.config import TransportConfig
from ..units import Rate, mbit_per_second, mib, milliseconds
from .api import Experiment, ExperimentResult, ExperimentSpec, RunContext
from .registry import register_experiment

__all__ = [
    "TraceConfig",
    "TraceExperiment",
    "TraceResult",
    "chain_flow",
    "slow_link_specs",
]


def slow_link_specs(chain: Any, slow_rate: Rate) -> List[LinkSpec]:
    """Link specs of a chain: fast everywhere, slow at one distance.

    *chain* is a spec with the four fields every chain harness shares:
    ``relay_count`` (so ``relay_count + 1`` links: the source's egress,
    then one per relay), ``bottleneck_distance`` (where the slow link
    sits, in hops from the source as the paper counts), ``fast_rate``
    and ``link_delay``.  A distance that names no link is an error,
    not a chain without a bottleneck.
    """
    if chain.relay_count < 1:
        raise ValueError("need at least one relay")
    if not 0 <= chain.bottleneck_distance <= chain.relay_count:
        raise ValueError(
            "bottleneck distance %d out of range [0, %d]"
            % (chain.bottleneck_distance, chain.relay_count)
        )
    return [
        LinkSpec(
            slow_rate if index == chain.bottleneck_distance else chain.fast_rate,
            chain.link_delay,
        )
        for index in range(chain.relay_count + 1)
    ]


def chain_flow(
    sim: Simulator,
    link_specs: List[LinkSpec],
    transport: TransportConfig,
    **flow_options: Any,
) -> CircuitFlow:
    """One circuit over a fresh chain ``source, relay1..relayN, sink``.

    One node per link end; *flow_options* go to :class:`CircuitFlow`.
    The topology and the node names are ``flow.topology`` and
    ``flow.spec.node_path``.
    """
    relay_names = ["relay%d" % (i + 1) for i in range(len(link_specs) - 1)]
    topology = build_chain(sim, ["source", *relay_names, "sink"], link_specs)
    spec = CircuitSpec(allocate_circuit_id(), "source", relay_names, "sink")
    return CircuitFlow(sim, topology, spec, transport, **flow_options)


@dataclass(frozen=True)
class TraceConfig(ExperimentSpec):
    """Parameters of one cwnd-trace run."""

    #: Number of relays in the circuit (Tor's default: 3).
    relay_count: int = 3
    #: Which link is the bottleneck, as the paper counts: its distance
    #: in hops from the source.  1 = first relay's egress; with three
    #: relays, 3 = last relay's egress.  0 means the source's own link.
    bottleneck_distance: int = 1
    fast_rate: Rate = mbit_per_second(50.0)
    bottleneck_rate: Rate = mbit_per_second(8.0)
    link_delay: float = milliseconds(12.0)
    controller_kind: str = "circuitstart"
    payload_bytes: int = mib(4)  # long enough to outlast the window
    duration: float = milliseconds(400.0)
    transport: TransportConfig = field(default_factory=TransportConfig)

    def __post_init__(self) -> None:
        self.link_specs()  # the layout's range checks
        self.check_kinds_and_duration((self.controller_kind,), self.duration)

    def link_specs(self) -> List[LinkSpec]:
        """The chain's link specs, slow link at the configured position."""
        return slow_link_specs(self, self.bottleneck_rate)


@dataclass
class TraceResult(ExperimentResult):
    """Everything the Figure-1a/b panel needs."""

    config: TraceConfig
    #: Source cwnd over time, in (seconds, cells).
    trace: TraceRecorder
    #: The model's optimal source window (the dashed line).
    optimal: OptimalWindow
    #: When the source controller left its start-up phase (seconds),
    #: ``None`` if it never did within the run.
    startup_exit_time: Optional[float]
    #: Peak window reached during the run, in cells.
    peak_cwnd_cells: int
    #: Window at the end of the run, in cells.
    final_cwnd_cells: int

    def trace_kb_ms(self) -> TraceRecorder:
        """The trace on the paper's axes: KB over milliseconds."""
        cell_kb = self.config.transport.cell_size / 1000.0
        return self.trace.scaled(time_factor=1e3, value_factor=cell_kb)

    @property
    def optimal_cwnd_cells(self) -> int:
        return self.optimal.window_cells

    @property
    def final_error_cells(self) -> int:
        """Signed distance of the final window from the model optimum."""
        return self.final_cwnd_cells - self.optimal.window_cells


@register_experiment
class TraceExperiment(Experiment):
    """The Figure-1a/b harness behind ``repro trace``."""

    name = "trace"
    help = "Figure 1 upper: cwnd trace"
    spec_type = TraceConfig
    result_type = TraceResult

    def run(
        self, spec: TraceConfig, ctx: RunContext = RunContext()
    ) -> TraceResult:
        """Run one chain-topology transfer and trace the source's window."""
        sim = Simulator()
        link_specs = spec.link_specs()
        flow = chain_flow(
            sim,
            link_specs,
            spec.transport,
            controller_kind=spec.controller_kind,
            payload_bytes=spec.payload_bytes,
        )
        recorder = TraceRecorder("source-cwnd:%s" % spec.controller_kind)
        flow.trace_cwnd(recorder)

        with released(sim, flow.topology):
            sim.run_until(spec.duration)
            startup_exit_time = flow.source_controller.startup_exit_time
            final_cwnd_cells = flow.source_controller.cwnd_cells

        links = [HopLink(s.rate, s.delay) for s in link_specs]
        optimal = source_optimal_window(links, spec.transport)
        return TraceResult(
            config=spec,
            trace=recorder,
            optimal=optimal,
            startup_exit_time=startup_exit_time,
            peak_cwnd_cells=int(recorder.max_value),
            final_cwnd_cells=final_cwnd_cells,
        )

    def add_cli_arguments(self, parser) -> None:
        parser.add_argument("--distance", type=int, default=1,
                            help="bottleneck distance in hops (default 1)")
        parser.add_argument("--controller", default="circuitstart",
                            help="controller kind (default circuitstart)")
        parser.add_argument("--gamma", type=float, default=4.0,
                            help="Vegas exit threshold (default 4)")
        parser.add_argument("--duration-ms", type=float, default=400.0,
                            help="simulated duration (default 400 ms)")

    def spec_from_cli(self, args) -> TraceConfig:
        return TraceConfig(
            bottleneck_distance=args.distance,
            controller_kind=args.controller,
            duration=args.duration_ms / 1e3,
            transport=TransportConfig(gamma=args.gamma),
        )

    def render(self, result: TraceResult) -> str:
        from ..report import render_trace

        cell_kb = result.config.transport.cell_size / 1000.0
        figure = render_trace(
            result.trace_kb_ms(),
            x_label="time [ms]",
            y_label="source cwnd [KB]",
            hline=result.optimal_cwnd_cells * cell_kb,
            hline_label="optimal",
        )
        exit_ms = (
            "%.1f" % (result.startup_exit_time * 1e3)
            if result.startup_exit_time is not None
            else "-"
        )
        return figure + (
            "\n\nexit=%s ms  peak=%d cells  final=%d cells  optimal=%d cells"
            % (exit_ms, result.peak_cwnd_cells, result.final_cwnd_cells,
               result.optimal_cwnd_cells)
        )
