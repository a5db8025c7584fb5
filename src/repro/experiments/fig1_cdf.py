"""Figure 1 (lower panel): download-time CDF, with vs without CircuitStart.

The paper: "we measured the overall download times when transferring a
fixed amount of data over a randomly generated network of Tor relays,
connected in a star topology.  We simulated 50 concurrent circuits."
The CDF of time-to-last-byte with CircuitStart sits left of the one
without, with improvements up to ~0.5 s.

The harness reproduces the setup end to end, as a declarative scenario
(:meth:`CdfConfig.to_scenario`):

1. generate the seeded star network and consensus directory (the
   :class:`~repro.scenario.GeneratedTopology` source);
2. select 50 bandwidth-weighted 3-relay paths (Tor-style, via
   :class:`~repro.tor.PathSelector`) — the *same* paths for both modes;
3. run all 50 downloads concurrently, once per controller kind, on a
   fresh simulator each (the scenario engine; planning and runs share
   one plan object, cached by spec hash);
4. return per-mode time-to-last-byte samples plus the comparison
   statistics (median gap, max horizontal CDF gap, dominance fraction).

The RNG namespace is pinned to ``""`` so the scenario plan is
draw-for-draw identical to the pre-scenario harness (substreams
``paths`` and ``starts``): results are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..analysis.stats import (
    EmpiricalCdf,
    cdf_horizontal_gap,
    jain_fairness_index,
    stochastic_dominance_fraction,
    summarize,
)
from ..scenario import (
    BulkWorkload,
    GeneratedTopology,
    NoChurn,
    Scenario,
    ScenarioResult,
    plan_scenario,
    run_planned,
)
from ..scenario.cache import DEFAULT_CACHE
from ..transport.config import TransportConfig
from ..units import kib, milliseconds, seconds
from .api import Experiment, ExperimentResult, ExperimentSpec, RunContext
from .netgen import NetworkConfig
from .registry import register_experiment

__all__ = [
    "CdfConfig",
    "CdfExperiment",
    "CdfResult",
    "FlowSample",
]


@dataclass(frozen=True)
class CdfConfig(ExperimentSpec):
    """Parameters of the concurrent-download experiment."""

    circuit_count: int = 50
    hops: int = 3
    payload_bytes: int = kib(400)
    seed: int = 1802
    #: Start jitter: circuits begin uniformly within this window, so
    #: "concurrent" does not mean "pathologically synchronized".
    start_jitter: float = milliseconds(100.0)
    #: Hard cap on simulated time; not finishing by then is an error.
    max_sim_time: float = seconds(60.0)
    #: The two legend entries of the paper's plot.
    kinds: Tuple[str, str] = ("with", "without")
    network: NetworkConfig = field(default_factory=NetworkConfig)
    transport: TransportConfig = field(default_factory=TransportConfig)

    def __post_init__(self) -> None:
        if self.circuit_count > min(
            self.network.client_count, self.network.server_count
        ):
            raise ValueError("not enough client/server hosts for the circuits")
        # The rest (counts, payload, kinds, path lengths) is the
        # scenario's and its parts' to judge: compile once here, so a
        # config that builds is a config that plans.
        self.to_scenario()

    def to_scenario(self) -> Scenario:
        """Compile this legacy spec into a declarative scenario."""
        return Scenario(
            topology=GeneratedTopology(network=self.network),
            workloads=(BulkWorkload(payload_bytes=self.payload_bytes),),
            churn=NoChurn(start_window=self.start_jitter),
            circuit_count=self.circuit_count,
            hops=self.hops,
            kinds=self.kinds,
            seed=self.seed,
            max_sim_time=self.max_sim_time,
            transport=self.transport,
            rng_namespace="",
        )


@dataclass
class FlowSample(ExperimentResult):
    """Per-circuit measurements from one mode's run."""

    circuit_id: int
    time_to_last_byte: float
    time_to_first_byte: float
    goodput_bytes_per_second: float


@dataclass
class CdfResult(ExperimentResult):
    """Per-mode samples and cross-mode comparison statistics."""

    config: CdfConfig
    #: controller kind -> sorted time-to-last-byte samples (seconds).
    ttlb: Dict[str, List[float]]
    #: controller kind -> per-circuit samples (TTFB, goodput, ...).
    flows: Dict[str, List["FlowSample"]] = field(default_factory=dict)

    def cdf(self, kind: str) -> EmpiricalCdf:
        return EmpiricalCdf(self.ttlb[kind])

    def fairness(self, kind: str) -> float:
        """Jain's fairness index over per-circuit goodputs."""
        return jain_fairness_index(
            [s.goodput_bytes_per_second for s in self.flows[kind]]
        )

    @property
    def median_improvement(self) -> float:
        """Median TTLB difference, without − with (positive = faster)."""
        with_kind, without_kind = self.config.kinds
        return self.cdf(without_kind).median - self.cdf(with_kind).median

    @property
    def max_improvement(self) -> float:
        """Largest horizontal CDF gap (the paper's "up to 0.5 s")."""
        with_kind, without_kind = self.config.kinds
        return cdf_horizontal_gap(self.cdf(with_kind), self.cdf(without_kind))

    @property
    def dominance(self) -> float:
        """Fraction of quantiles where "with" is at least as fast."""
        with_kind, without_kind = self.config.kinds
        return stochastic_dominance_fraction(
            self.cdf(with_kind), self.cdf(without_kind)
        )


@register_experiment
class CdfExperiment(Experiment):
    """The Figure-1c harness behind ``repro cdf``."""

    name = "cdf"
    help = "Figure 1 lower: download-time CDF"
    spec_type = CdfConfig
    result_type = CdfResult

    def run(self, spec: CdfConfig, ctx: RunContext = RunContext()) -> CdfResult:
        """Run the concurrent downloads once per controller kind.

        Both modes see identical networks, relay paths and start times
        (one shared scenario plan, cached by spec hash); the only
        difference is the start-up controller at every hop.
        """
        plan = plan_scenario(spec.to_scenario(), cache=DEFAULT_CACHE)
        return _to_cdf_result(spec, run_planned(plan, kinds=list(spec.kinds)))

    def estimate_cost(self, spec: CdfConfig) -> Dict[str, int]:
        return plan_scenario(
            spec.to_scenario(), cache=DEFAULT_CACHE
        ).estimated_cost()

    def add_cli_arguments(self, parser) -> None:
        parser.add_argument("--circuits", type=int, default=50)
        parser.add_argument("--payload-kib", type=int, default=400)
        parser.add_argument("--relays", type=int, default=60)
        parser.add_argument("--seed", type=int, default=1802)

    def spec_from_cli(self, args) -> CdfConfig:
        return CdfConfig(
            circuit_count=args.circuits,
            payload_bytes=kib(args.payload_kib),
            seed=args.seed,
            network=NetworkConfig(
                relay_count=args.relays,
                client_count=max(args.circuits, 1),
                server_count=max(args.circuits, 1),
            ),
        )

    def render(self, result: CdfResult) -> str:
        from ..report import format_table, render_cdf_pair

        config = result.config
        with_kind, without_kind = config.kinds
        figure = render_cdf_pair(
            "with CircuitStart", result.cdf(with_kind),
            "without CircuitStart", result.cdf(without_kind),
        )
        rows = []
        for kind in config.kinds:
            s = summarize(result.ttlb[kind])
            rows.append([kind, s.median, s.p10, s.p90, s.maximum,
                         result.fairness(kind)])
        table = format_table(
            ["controller", "median [s]", "p10", "p90", "max", "fairness"],
            rows,
            title="Time to last byte (%d circuits)" % config.circuit_count,
        )
        stats = (
            "median improvement %.3f s; max CDF gap %.3f s; dominance %.2f"
            % (result.median_improvement, result.max_improvement,
               result.dominance)
        )
        return figure + "\n\n" + table + "\n\n" + stats


def _to_cdf_result(config: CdfConfig, result: ScenarioResult) -> CdfResult:
    """Adapt the scenario engine's result to the legacy shape."""
    ttlb: Dict[str, List[float]] = {}
    flows: Dict[str, List[FlowSample]] = {}
    for kind, rows in result.samples.items():
        flows[kind] = [
            FlowSample(
                circuit_id=row.circuit_id,
                time_to_last_byte=row.time_to_last_byte,
                time_to_first_byte=row.time_to_first_byte,
                goodput_bytes_per_second=row.goodput_bytes_per_second,
            )
            for row in rows
        ]
        ttlb[kind] = sorted(s.time_to_last_byte for s in flows[kind])
    return CdfResult(config=config, ttlb=ttlb, flows=flows)
