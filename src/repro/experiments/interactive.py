"""Interactive latency under a competing bulk stream.

"As Tor is designed for interactive use, this is of special
importance."  This experiment measures what a correctly sized window
buys interactive traffic: a circuit carries

* one **bulk** stream (an effectively endless download), and
* one **interactive** stream sending a small message periodically,

multiplexed cell-by-cell (round-robin) at the source.  The per-message
latency of the interactive stream then directly exposes the standing
queue along the circuit: latency ≈ base delay + (cwnd − BDP) · service
time.  A start-up scheme that converges onto the optimal window
(CircuitStart) keeps interactive latency near the propagation floor; a
scheme that parks an oversized window (JumpStart, a large fixed window)
taxes every interactive message for the whole connection lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List

from ..sim.simulator import Simulator
from ..tor.hosts import released
from ..tor.streams import MultiStreamSink, StreamScheduler
from ..transport.config import TransportConfig
from ..units import Rate, kib, mbit_per_second, mib, milliseconds, seconds
from .api import Experiment, ExperimentResult, ExperimentSpec, RunContext
from .fig1_traces import chain_flow, slow_link_specs
from .registry import register_experiment

__all__ = [
    "InteractiveConfig",
    "InteractiveExperiment",
    "InteractiveResult",
    "InteractiveRow",
]

BULK_STREAM = 1
INTERACTIVE_STREAM = 2


@dataclass(frozen=True)
class InteractiveConfig(ExperimentSpec):
    """Parameters of the mixed bulk/interactive workload."""

    relay_count: int = 3
    bottleneck_distance: int = 1
    fast_rate: Rate = mbit_per_second(50.0)
    bottleneck_rate: Rate = mbit_per_second(8.0)
    link_delay: float = milliseconds(12.0)
    bulk_bytes: int = mib(64)  # effectively endless for the run
    message_bytes: int = kib(4)
    message_interval: float = milliseconds(150.0)
    duration: float = seconds(3.0)
    #: Skip messages queued before the ramp settles when aggregating
    #: steady-state latency.
    settle_time: float = seconds(1.0)
    controller_kinds: tuple = ("circuitstart", "jumpstart", "fixed")
    controller_kwargs: Dict[str, dict] = field(
        default_factory=lambda: {
            "jumpstart": {"initial_cells": 128},
            "fixed": {"window_cells": 128},
        }
    )
    transport: TransportConfig = field(default_factory=TransportConfig)

    def __post_init__(self) -> None:
        slow_link_specs(self, self.bottleneck_rate)  # its range checks
        self.check_kinds_and_duration(self.controller_kinds, self.duration)


@dataclass
class InteractiveRow:
    """One controller kind's interactive-latency outcome."""

    kind: str
    #: All interactive message latencies, in queue order (seconds).
    latencies: List[float]
    #: Mean latency of messages queued after settle_time.
    steady_mean: float
    #: Worst latency of messages queued after settle_time.
    steady_max: float
    #: Bulk bytes delivered over the run (throughput sanity).
    bulk_bytes_delivered: int


@dataclass
class InteractiveResult(ExperimentResult):
    """One row per controller kind of the mixed workload."""

    config: InteractiveConfig
    rows: List[InteractiveRow]


@register_experiment
class InteractiveExperiment(Experiment):
    """The bulk-vs-interactive study behind ``repro interactive``."""

    name = "interactive"
    help = "interactive latency under bulk"
    spec_type = InteractiveConfig
    result_type = InteractiveResult

    def run(
        self, spec: InteractiveConfig, ctx: RunContext = RunContext()
    ) -> InteractiveResult:
        return InteractiveResult(
            config=spec,
            rows=[_run_one(spec, kind) for kind in spec.controller_kinds],
        )

    def render(self, result: InteractiveResult) -> str:
        from ..report import format_table

        return format_table(
            ["controller", "steady mean [ms]", "steady max [ms]",
             "bulk delivered [MiB]"],
            [[r.kind, r.steady_mean * 1e3, r.steady_max * 1e3,
              r.bulk_bytes_delivered / 2**20] for r in result.rows],
            title="Interactive latency under a competing bulk stream",
        )


def _run_one(config: InteractiveConfig, kind: str) -> InteractiveRow:
    sim = Simulator()
    flow = chain_flow(
        sim,
        slow_link_specs(config, config.bottleneck_rate),
        config.transport,
        controller_kind=kind,
        controller_kwargs=config.controller_kwargs.get(kind),
        workload="none",
    )
    spec = flow.spec

    scheduler = StreamScheduler(flow.hop_senders[0], spec.circuit_id)
    scheduler.open_stream(BULK_STREAM)
    scheduler.open_stream(INTERACTIVE_STREAM)
    sink = MultiStreamSink(sim, spec.circuit_id)
    flow.hosts[-1].attach_sink_app(spec.circuit_id, sink)

    records = []
    completion: Dict[int, float] = {}

    def on_message(stream_id: int, message_id: int, at: float) -> None:
        if stream_id == INTERACTIVE_STREAM:
            completion[message_id] = at

    sink.on_message = on_message

    def queue_interactive(again: Callable[[Any], None]) -> None:
        if sim.now >= config.duration:
            return
        records.append(
            scheduler.send_message(
                INTERACTIVE_STREAM, config.message_bytes, sim.now
            )
        )
        # Handed itself, not closed over: a function in its own closure
        # is a reference cycle that would keep the whole circuit alive.
        sim.schedule(config.message_interval, again, again)

    with released(sim, flow.topology):
        sim.call_soon(
            lambda: scheduler.send_message(BULK_STREAM, config.bulk_bytes, 0.0)
        )
        sim.call_soon(queue_interactive, queue_interactive)
        sim.run_until(config.duration)

    latencies = [
        completion[r.message_id] - r.queued_at
        for r in records
        if r.message_id in completion
    ]
    steady = [
        completion[r.message_id] - r.queued_at
        for r in records
        if r.message_id in completion and r.queued_at >= config.settle_time
    ]
    if not steady:
        raise RuntimeError(
            "no interactive messages completed after settle time (kind=%s)" % kind
        )
    return InteractiveRow(
        kind=kind,
        latencies=latencies,
        steady_mean=sum(steady) / len(steady),
        steady_max=max(steady),
        bulk_bytes_delivered=sink.per_stream_bytes.get(BULK_STREAM, 0),
    )
