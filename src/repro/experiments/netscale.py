"""Network-scale concurrent-circuit study (``repro netscale``).

The Figure-1c experiment runs 50 circuits that interact only through
the generated star network's access links.  This experiment is the
first genuinely *network-scale* scenario: many circuits — a mix of bulk
downloads and interactive fetches — share relays (endpoints are reused
round-robin, relay paths overlap) and additionally all cross one
designated **common bottleneck relay**, the slowest relay of the
generated consensus, forced into the middle position of every path.
Contention at that relay is therefore systemic, not incidental, which
is exactly the regime CircuitStart's start-up targets: a new circuit
must find its fair share of an already-loaded relay without first
flooding it.

Since the scenario API landed, this module is a thin adapter: a
:class:`NetScaleConfig` compiles (via :meth:`NetScaleConfig.to_scenario`)
into a declarative :class:`~repro.scenario.Scenario` — topology source
with a forced bottleneck, a bulk/interactive workload mix (the
interactive class is backed by the stream scheduler, so per-message
latencies come out of the run), an optional churn process with
departures and re-arrivals, and utilization/queue probes — and the
scenario engine does the rest.  Plans are cached by spec hash
(:data:`repro.scenario.DEFAULT_CACHE`), so batch sweeps over the same
network never repeat ``plan_network`` or path selection.

Measured per circuit and per controller kind (``with``/``without``
CircuitStart, as in the paper's legend):

* time to first byte — what interactive use feels;
* time to last byte and goodput — the bulk metric;
* start-up duration — how long the source controller stayed in its
  start-up phase (``None`` if the transfer ended inside it);
* per-message latencies for interactive circuits;
* with churn enabled: per-relay utilization/queue time series and the
  steady-state sample subset (:meth:`NetScaleResult.steady_samples`).

The RNG namespace is pinned to ``"netscale"`` so the scenario plan is
draw-for-draw identical to the pre-scenario harness: same network,
same paths, same workload mix, same start times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.stats import EmpiricalCdf
from ..scenario import (
    BulkWorkload,
    ChurnProcess,
    GeneratedTopology,
    InteractiveWorkload,
    NoChurn,
    OpenLoopChurn,
    Probe,
    ProbeSeries,
    SampleTable,
    Scenario,
    ScenarioResult,
    UtilizationProbe,
    plan_scenario,
    run_scenario,
)
from ..scenario.cache import DEFAULT_CACHE
from ..transport.config import TransportConfig
from ..units import kib, seconds
from .api import Experiment, ExperimentResult, ExperimentSpec, RunContext
from .netgen import NetworkConfig
from .registry import register_experiment

__all__ = [
    "NetScaleConfig",
    "NetScaleExperiment",
    "NetScaleResult",
    "CircuitSample",
]

BULK = "bulk"
INTERACTIVE = "interactive"

#: Interactive fetches are split into messages of roughly this size.
_INTERACTIVE_MESSAGE_BYTES = kib(5)


def _default_network() -> NetworkConfig:
    # Fewer endpoints than circuits is intentional: endpoint reuse is
    # part of the "shared" in network-scale (clients run several
    # circuits, like a Tor client does).
    return NetworkConfig(relay_count=30, client_count=30, server_count=30)


@dataclass(frozen=True)
class NetScaleConfig(ExperimentSpec):
    """Parameters of the network-scale concurrent-circuit scenario."""

    circuit_count: int = 60
    hops: int = 3
    #: Fraction of circuits carrying a bulk download; the rest are
    #: interactive fetches (a web page, not a file).
    bulk_fraction: float = 0.7
    bulk_payload_bytes: int = kib(300)
    interactive_payload_bytes: int = kib(25)
    seed: int = 2018
    #: Circuits start uniformly within this window, so the bottleneck
    #: relay sees a steady arrival of *new* circuits joining existing
    #: load — the start-up scheme's operating regime.
    start_window: float = seconds(2.0)
    #: Hard cap on simulated time; not finishing by then is an error.
    max_sim_time: float = seconds(120.0)
    #: The paper's legend: with CircuitStart vs. BackTap's native start.
    kinds: Tuple[str, str] = ("with", "without")
    network: NetworkConfig = field(default_factory=_default_network)
    transport: TransportConfig = field(default_factory=TransportConfig)
    #: Optional arrival/churn process (departures + re-arrivals).
    #: ``None`` runs the classic one-shot wave over ``start_window``.
    churn: Optional[ChurnProcess] = None
    #: Instrumentation sampled while the scenario runs.
    probes: Tuple[Probe, ...] = ()
    #: Partition relays/endpoints into disjoint clusters (circuit *i*
    #: draws from cluster ``i % clusters``).  With the forced bottleneck
    #: the clusters still meet at it.  A spec field: it changes the
    #: planned paths and therefore the result.
    clusters: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.bulk_fraction <= 1.0:
            raise ValueError(
                "bulk_fraction must be within [0, 1], got %r" % self.bulk_fraction
            )
        if self.bulk_payload_bytes <= 0 or self.interactive_payload_bytes <= 0:
            raise ValueError("payload sizes must be positive")
        if not 0 <= self.start_window < float("inf"):  # also NaN
            raise ValueError(
                "start_window must be non-negative and finite, got %r"
                % self.start_window
            )
        if self.network.relay_count < self.hops:
            raise ValueError(
                "%d relays cannot form %d-hop paths"
                % (self.network.relay_count, self.hops)
            )
        # Everything else (counts, clusters, kinds, churn, probes) is the
        # scenario's and its parts' to judge: compile once here, so a
        # config that builds is a config that plans.
        self.to_scenario()

    def interactive_workload(self) -> InteractiveWorkload:
        """The stream-backed interactive class for this config.

        ``interactive_payload_bytes`` is split into equal messages of
        roughly 5 KiB sent on a 100 ms open-loop timer (a page pulling
        its resources); the final message absorbs any division
        remainder, so the circuit transfers exactly the declared
        payload.
        """
        payload = self.interactive_payload_bytes
        count = max(1, round(payload / _INTERACTIVE_MESSAGE_BYTES))
        message_bytes = payload // count
        return InteractiveWorkload(
            weight=1.0 - self.bulk_fraction,
            message_bytes=message_bytes,
            message_count=count,
            message_interval=0.1,
            remainder_bytes=payload - message_bytes * count,
        )

    def to_scenario(self) -> Scenario:
        """Compile this legacy spec into a declarative scenario."""
        return Scenario(
            topology=GeneratedTopology(
                network=self.network,
                force_bottleneck=True,
                clusters=self.clusters,
            ),
            workloads=(
                BulkWorkload(
                    weight=self.bulk_fraction,
                    payload_bytes=self.bulk_payload_bytes,
                ),
                self.interactive_workload(),
            ),
            churn=self.churn
            if self.churn is not None
            else NoChurn(start_window=self.start_window),
            probes=self.probes,
            circuit_count=self.circuit_count,
            hops=self.hops,
            kinds=self.kinds,
            seed=self.seed,
            max_sim_time=self.max_sim_time,
            transport=self.transport,
            rng_namespace="netscale",
        )


@dataclass
class CircuitSample(ExperimentResult):
    """One circuit's measurements under one controller kind."""

    circuit_id: int
    workload: str  # "bulk" | "interactive"
    relays: List[str]
    payload_bytes: int
    start_time: float
    time_to_first_byte: float
    time_to_last_byte: float
    goodput_bytes_per_second: float
    #: Seconds the source controller spent in its start-up phase;
    #: ``None`` when the transfer completed without leaving start-up.
    startup_duration: Optional[float]
    #: 0 = initial arrival wave, >= 1 = churn re-arrival.
    generation: int = 0
    #: When the circuit was torn down (churn departures), else ``None``.
    departed_at: Optional[float] = None
    #: Per-message delivery latencies (interactive circuits only).
    message_latencies: List[float] = field(default_factory=list)


@dataclass
class NetScaleResult(SampleTable, ExperimentResult):
    """Per-kind circuit samples plus engine-level accounting."""

    config: NetScaleConfig
    #: The relay every circuit crosses (the slowest generated relay).
    bottleneck_relay: str
    #: controller kind -> one sample per circuit, circuit order.
    samples: Dict[str, List[CircuitSample]]
    #: controller kind -> simulator events executed for the whole run
    #: (the engine cost of the scenario; tracks the fast-path benefit).
    events_executed: Dict[str, int]
    #: controller kind -> probe time series (utilization, queue depth).
    probes: Dict[str, List[ProbeSeries]] = field(default_factory=dict)

    @property
    def compared_kinds(self) -> Tuple[str, str]:
        return self.config.kinds

    @property
    def settle_time(self) -> float:
        # Without churn there is no warm-up wave: every sample counts.
        churn = self.config.churn
        return 0.0 if churn is None else churn.settle_time()

    def utilization_series(self, kind: str) -> List[ProbeSeries]:
        """Per-relay utilization-over-time rows for *kind*."""
        return self.probe_series(kind, "utilization")


def _to_netscale_result(
    config: NetScaleConfig, result: ScenarioResult
) -> NetScaleResult:
    """Adapt the scenario engine's result to the legacy shape."""
    samples: Dict[str, List[CircuitSample]] = {}
    for kind, rows in result.samples.items():
        samples[kind] = [
            CircuitSample(
                circuit_id=row.circuit_id,
                workload=row.workload,
                relays=list(row.relays),
                payload_bytes=row.payload_bytes,
                start_time=row.start_time,
                time_to_first_byte=row.time_to_first_byte,
                time_to_last_byte=row.time_to_last_byte,
                goodput_bytes_per_second=row.goodput_bytes_per_second,
                startup_duration=row.startup_duration,
                generation=row.generation,
                departed_at=row.departed_at,
                message_latencies=list(row.message_latencies),
            )
            for row in rows
        ]
    assert result.bottleneck_relay is not None
    return NetScaleResult(
        config=config,
        bottleneck_relay=result.bottleneck_relay,
        samples=samples,
        events_executed=dict(result.events_executed),
        probes={kind: list(rows) for kind, rows in result.probes.items()},
    )


@register_experiment
class NetScaleExperiment(Experiment):
    """The network-scale harness behind ``repro netscale``."""

    name = "netscale"
    help = "network-scale circuit mix over a shared bottleneck"
    spec_type = NetScaleConfig
    result_type = NetScaleResult

    def run(
        self, spec: NetScaleConfig, ctx: RunContext = RunContext()
    ) -> NetScaleResult:
        return _to_netscale_result(
            spec, run_scenario(spec.to_scenario(), cache=DEFAULT_CACHE)
        )

    def estimate_cost(self, spec: NetScaleConfig) -> Dict[str, int]:
        return plan_scenario(
            spec.to_scenario(), cache=DEFAULT_CACHE
        ).estimated_cost()

    def add_cli_arguments(self, parser) -> None:
        parser.add_argument("--circuits", type=int, default=60)
        parser.add_argument("--relays", type=int, default=30)
        parser.add_argument("--bulk-fraction", type=float, default=0.7)
        parser.add_argument("--bulk-payload-kib", type=int, default=300)
        parser.add_argument("--seed", type=int, default=2018)
        parser.add_argument(
            "--churn", type=float, default=None, metavar="RATE",
            help="enable open-loop churn: re-arrivals per second after "
                 "the initial wave; completed circuits depart",
        )
        parser.add_argument(
            "--churn-horizon", type=float, default=8.0, metavar="SECONDS",
            help="simulated time after which no re-arrival is planned "
                 "(with --churn; default 8.0)",
        )
        parser.add_argument(
            "--probe-interval", type=float, default=0.25, metavar="SECONDS",
            help="bottleneck utilization/queue sampling grid "
                 "(with --churn; default 0.25)",
        )
        parser.add_argument(
            "--clusters", type=int, default=1, metavar="K",
            help="partition relays/endpoints into K disjoint clusters "
                 "(changes path planning and the result)",
        )

    def spec_from_cli(self, args) -> NetScaleConfig:
        churn: Optional[ChurnProcess] = None
        probes: Tuple[Probe, ...] = ()
        if args.churn is not None:
            churn = OpenLoopChurn(
                start_window=seconds(2.0),
                arrival_rate=args.churn,
                horizon=args.churn_horizon,
            )
            probes = (UtilizationProbe(interval=args.probe_interval),)
        return NetScaleConfig(
            circuit_count=args.circuits,
            bulk_fraction=args.bulk_fraction,
            bulk_payload_bytes=kib(args.bulk_payload_kib),
            seed=args.seed,
            network=NetworkConfig(
                relay_count=args.relays,
                client_count=max(args.relays, 1),
                server_count=max(args.relays, 1),
            ),
            churn=churn,
            probes=probes,
            clusters=args.clusters,
        )

    def render(self, result: NetScaleResult) -> str:
        from ..report import format_table

        config = result.config
        rows = []
        for workload in (BULK, INTERACTIVE):
            for kind in config.kinds:
                samples = result.of_workload(kind, workload)
                if not samples:
                    continue
                ttlb = result.ttlb_cdf(kind, workload)
                rows.append([
                    workload, kind, len(samples),
                    result.ttfb_cdf(kind, workload).median,
                    ttlb.median, ttlb.quantile(0.90),
                ])
        table = format_table(
            ["workload", "controller", "circuits",
             "median TTFB [s]", "median TTLB [s]", "p90 TTLB [s]"],
            rows,
            title="Network scale: %d circuits through bottleneck %s"
            % (len(result.samples[config.kinds[0]]), result.bottleneck_relay),
        )
        with_kind, without_kind = config.kinds
        startup = result.startup_durations(with_kind)
        # A workload class can be empty (bulk_fraction 0 or 1, or a
        # small seeded mix landing all on one side); only summarize the
        # classes that have circuits.
        improvements = ", ".join(
            "%s %.3f s" % (workload, result.median_improvement(workload))
            for workload in (BULK, INTERACTIVE)
            if result.of_workload(with_kind, workload)
        )
        circuit_total = len(result.samples[with_kind])
        lines = [
            table,
            "",
            "median TTLB improvement: %s" % (improvements or "n/a"),
            "startup exits (%s): %d/%d circuits, median %.3f s"
            % (with_kind, len(startup), circuit_total,
               EmpiricalCdf(startup).median if startup else float("nan")),
            result.events_line(config.kinds),
        ]
        if config.churn is not None:
            for kind in config.kinds:
                steady = result.steady_samples(kind)
                if steady:
                    ttlb = EmpiricalCdf([s.time_to_last_byte for s in steady])
                    lines.append(
                        "steady state (%s): %d circuits, median TTLB %.3f s"
                        % (kind, len(steady), ttlb.median)
                    )
        return "\n".join(lines + result.probe_lines(config.kinds))
