"""Churn at paper scale: the steady-state study (``repro churn-study``).

The paper's central steady-state claim (Figure 1c) is that the
start-up scheme's benefit grows with bottleneck utilization under
continuous circuit churn.  ``repro netscale --churn`` runs *one*
operating point of that curve; this experiment makes the whole curve a
reproducible artifact: it sweeps :class:`~repro.scenario.OpenLoopChurn`
``arrival_rate`` across a configurable grid (default 1..16 circuits per
second), runs every operating point through the scenario engine with a
:class:`~repro.scenario.UtilizationProbe` and the per-circuit
:class:`~repro.scenario.GoodputProbe`, trims warm-up via the churn
process's ``settle_time()``, and aggregates steady-state bottleneck
utilization against the start-up scheme's improvement (TTFB / TTLB /
start-up-duration deltas per controller kind).

Each operating point is one :class:`~.netscale.NetScaleConfig` job;
the sweep itself — jobs, batch, aggregation, tables, execution knobs —
is the shared :class:`~.study.GridStudy` skeleton, and this module
only declares what is specific to the churn-rate grid.

The text rendering includes a Figure-1c-style ASCII panel
(:func:`repro.report.render_improvement_vs_utilization`): improvement
on the y axis, steady-state bottleneck utilization on the x axis, one
point per swept arrival rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..scenario import GoodputProbe, OpenLoopChurn, UtilizationProbe
from ..scenario.netgen import NetworkConfig
from ..transport.config import TransportConfig
from ..units import kib, seconds
from .api import ExperimentResult, ExperimentSpec
from .netscale import NetScaleConfig, NetScaleResult
from .registry import register_experiment
from .study import IMPROVEMENT_METRICS, GridStudy, StudyResult, star_network

__all__ = [
    "ChurnStudyConfig",
    "ChurnStudyExperiment",
    "ChurnStudyImprovement",
    "ChurnStudyPoint",
    "ChurnStudyResult",
]

#: The default sweep grid: 1..16 circuits/s, doubling (Figure 1c's span).
DEFAULT_RATES: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True)
class ChurnStudyConfig(ExperimentSpec):
    """Parameters of the churn-rate sweep: model parameters only.

    How the sweep executes (worker processes) is the
    :class:`~repro.experiments.api.RunContext` passed beside this spec
    to ``run``, so the config inside a result is the same bytes however
    the sweep was run.
    """

    #: Arrival rates swept (circuits per second of open-loop churn).
    rates: Tuple[float, ...] = DEFAULT_RATES
    #: Initial-wave size at every operating point.
    circuit_count: int = 40
    hops: int = 3
    bulk_fraction: float = 0.7
    bulk_payload_bytes: int = kib(300)
    interactive_payload_bytes: int = kib(25)
    seed: int = 2018
    #: The initial wave arrives within this window; it is also the
    #: churn settle time — samples before it are warm-up, not steady
    #: state.
    start_window: float = seconds(2.0)
    #: No re-arrival is planned at or after this simulated time; it is
    #: also the steady-state window's upper edge (the system drains
    #: afterwards).
    horizon: float = seconds(8.0)
    #: Utilization/goodput sampling grid.
    probe_interval: float = 0.25
    max_sim_time: float = seconds(120.0)
    kinds: Tuple[str, str] = ("with", "without")
    network: NetworkConfig = field(default_factory=star_network)
    transport: TransportConfig = field(default_factory=TransportConfig)

    def __post_init__(self) -> None:
        if not self.rates:
            raise ValueError("a churn study needs at least one arrival rate")
        if not all(0 < rate < float("inf") for rate in self.rates):
            raise ValueError(
                "arrival rates must be positive and finite, got %r"
                % (self.rates,)
            )
        if len(set(self.rates)) != len(self.rates):
            raise ValueError(
                "arrival rates must be distinct, got %r" % (self.rates,)
            )
        if not 0 < self.probe_interval < float("inf"):  # also NaN
            raise ValueError(
                "probe_interval must be positive and finite, got %r"
                % self.probe_interval
            )
        if len(self.kinds) != 2 or len(set(self.kinds)) != 2:
            # The improvement rows are with-vs-without deltas; fail at
            # construction, not after the whole sweep has run.
            raise ValueError(
                "a churn study compares exactly two distinct controller "
                "kinds, got %r" % (self.kinds,)
            )
        # Everything else (counts, fractions, payloads, start window and
        # horizon) is the point configs' to judge: build each one here,
        # so a spec that builds is a spec whose every point plans.
        for rate in self.rates:
            self.point_config(rate)

    def point_config(self, rate: float) -> NetScaleConfig:
        """The network-scale config of one operating point.

        Every point shares the topology source and seed, so the whole
        sweep shares one generated network (planned at most once per
        process, cached by fingerprint); only the churn process's
        arrival rate varies.
        """
        return NetScaleConfig(
            circuit_count=self.circuit_count,
            hops=self.hops,
            bulk_fraction=self.bulk_fraction,
            bulk_payload_bytes=self.bulk_payload_bytes,
            interactive_payload_bytes=self.interactive_payload_bytes,
            seed=self.seed,
            start_window=self.start_window,
            max_sim_time=self.max_sim_time,
            kinds=self.kinds,
            network=self.network,
            transport=self.transport,
            churn=OpenLoopChurn(
                start_window=self.start_window,
                arrival_rate=rate,
                horizon=self.horizon,
            ),
            probes=(
                UtilizationProbe(interval=self.probe_interval),
                GoodputProbe(interval=self.probe_interval),
            ),
        )


@dataclass
class ChurnStudyPoint(ExperimentResult):
    """One (arrival rate, controller kind) row of the study.

    Medians are over the *steady-state* circuits (those that arrived at
    or after the churn settle time); ``None`` when no circuit reached
    steady state at that rate.  Utilization and goodput are means over
    the steady window ``[settle, horizon)`` of the probe grids.
    """

    arrival_rate: float
    kind: str
    #: All circuits of the run (initial wave + re-arrivals).
    circuits: int
    #: Circuits that arrived at steady state (the rows medians cover).
    steady_circuits: int
    #: Steady-window mean of the bottleneck relay's link utilization.
    bottleneck_utilization: float
    #: Steady-window mean per-circuit delivered rate (bytes/second).
    steady_goodput: float
    median_ttfb: Optional[float]
    median_ttlb: Optional[float]
    #: Steady circuits whose source controller exited start-up.
    startup_exits: int
    median_startup: Optional[float]


@dataclass
class ChurnStudyImprovement(ExperimentResult):
    """One arrival rate's with-vs-without deltas (positive = faster).

    ``bottleneck_utilization`` is the *baseline* (second kind) figure —
    the x axis of the Figure-1c panel: how loaded the relay is without
    the start-up scheme.
    """

    arrival_rate: float
    bottleneck_utilization: float
    ttfb_improvement: Optional[float]
    ttlb_improvement: Optional[float]
    startup_improvement: Optional[float]


@dataclass
class ChurnStudyResult(StudyResult):
    """The study: per-(rate, kind) rows plus per-rate improvements."""

    config: ChurnStudyConfig
    #: The relay every circuit crosses — identical at every operating
    #: point, because the whole sweep shares one generated network.
    bottleneck_relay: str
    #: One row per (arrival rate, controller kind), rate-major order.
    points: List[ChurnStudyPoint]
    #: One row per arrival rate: the with-vs-without deltas.
    improvements: List[ChurnStudyImprovement]

    # --- analysis helpers -------------------------------------------------

    def point(self, rate: float, kind: str) -> ChurnStudyPoint:
        """The row for (*rate*, *kind*); raises ``KeyError`` if absent."""
        for row in self.points:
            if row.arrival_rate == rate and row.kind == kind:
                return row
        raise KeyError("no study point for rate=%r kind=%r" % (rate, kind))

    def improvement_points(
        self, metric: str = "ttfb"
    ) -> List[Tuple[float, float]]:
        """(utilization, improvement) pairs for the Figure-1c panel.

        *metric* is ``"ttfb"``, ``"ttlb"`` or ``"startup"``; rates where
        either kind lacks steady-state data are skipped.
        """
        attribute = IMPROVEMENT_METRICS[metric]
        return [
            (row.bottleneck_utilization, value)
            for row in self.improvements
            if (value := getattr(row, attribute)) is not None
        ]

    def figure(self, width: int = 72, height: int = 18) -> str:
        """The Figure-1c-style ASCII panel of this study."""
        from ..report import render_improvement_vs_utilization

        return render_improvement_vs_utilization(
            [
                ("TTFB", self.improvement_points("ttfb")),
                ("TTLB", self.improvement_points("ttlb")),
                ("startup", self.improvement_points("startup")),
            ],
            width=width,
            height=height,
        )


@register_experiment
class ChurnStudyExperiment(GridStudy):
    """The steady-state churn sweep behind ``repro churn-study``."""

    name = "churn-study"
    help = "steady-state churn sweep: improvement vs bottleneck utilization"
    spec_type = ChurnStudyConfig
    result_type = ChurnStudyResult
    knobs = ("workers",)

    point_experiment = "netscale"
    grid_keys = ("arrival_rate",)
    point_type = ChurnStudyPoint
    improvement_type = ChurnStudyImprovement
    point_columns = (
        ("rate [1/s]", "arrival_rate"),
        ("controller", "kind"),
        ("circuits", "circuits"),
        ("steady", "steady_circuits"),
        ("utilization", "bottleneck_utilization"),
        ("goodput [B/s]", "steady_goodput"),
        ("med TTFB [s]", "median_ttfb"),
        ("med TTLB [s]", "median_ttlb"),
        ("med startup [s]", "median_startup"),
    )
    improvement_columns = (
        ("rate [1/s]", "arrival_rate"),
        ("utilization", "bottleneck_utilization"),
        ("TTFB gain [s]", "ttfb_improvement"),
        ("TTLB gain [s]", "ttlb_improvement"),
        ("startup gain [s]", "startup_improvement"),
    )
    improvement_title = "Steady-state improvement (%s vs %s, positive = faster)"

    def grid(self, spec: ChurnStudyConfig) -> List[Tuple[float]]:
        return [(rate,) for rate in spec.rates]

    def point_spec(self, spec: ChurnStudyConfig, rate: float) -> NetScaleConfig:
        return spec.point_config(rate)

    def point_fields(
        self, spec: ChurnStudyConfig, result: NetScaleResult, kind: str
    ) -> Dict[str, Any]:
        goodput_window = [
            value
            for series in result.probes.get(kind, [])
            if series.probe == "goodput"
            for __, value in series.between(spec.start_window, spec.horizon)
        ]
        return dict(
            steady_goodput=(
                sum(goodput_window) / len(goodput_window)
                if goodput_window else 0.0
            ),
            startup_exits=sum(
                1 for sample in result.steady_samples(kind)
                if sample.startup_duration is not None
            ),
        )

    def title(self, result: ChurnStudyResult) -> str:
        return "Churn study: %d operating points through bottleneck %s" % (
            len(result.config.rates), result.bottleneck_relay
        )

    def add_cli_arguments(self, parser) -> None:
        parser.add_argument(
            "--rates", default="1,2,4,8,16", metavar="R1,R2,...",
            help="comma-separated churn arrival rates to sweep "
                 "(circuits/second; default 1,2,4,8,16)",
        )
        super().add_cli_arguments(parser)

    def cli_fields(self, args) -> Dict[str, Any]:
        return {"rates": self.parse_grid(args.rates, "--rates")}
