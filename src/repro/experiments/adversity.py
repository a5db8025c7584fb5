"""Churn under adversity: the fault-plane study (``repro adversity-study``).

The churn study (:mod:`~.churn_study`) answers "how much does the
start-up scheme buy under steady circuit churn?" on a *perfect*
network: lossless links, immortal relays.  This experiment asks the
follow-up question the fault plane exists for: **does the benefit
survive adversity?**  It sweeps a (link loss rate × relay MTTF) grid —
every point the same steady-churn operating regime as the churn study —
and reports, per grid point and controller kind:

* the steady-state start-up improvement (the churn study's y axis),
* the circuit failure rate (fraction of planned circuits torn down by
  a relay failure, hop exhaustion, or timeout),
* tail time-to-first-byte (p95/p99) over the steady circuits, and
* the per-hop transport's retransmission/timeout counters.

The adversity-free corner (``loss 0``, ``MTTF ∞``) runs the *exact*
scenario a same-seed churn study runs at the same arrival rate — no
fault parts, the stock transport — so its improvement figures match
the churn study to the last bit; every other point layers
:class:`~repro.scenario.LinkFaults` and
:class:`~repro.scenario.RelayChurnFaults` on top and promotes the
transport to the ``reliable`` profile (loss without retransmission
would starve, not degrade).  MTTF is encoded as seconds-between-kills
with ``0.0`` meaning *disabled* (infinite MTTF): JSON has no
``Infinity``, and the fault plane treats a zero rate as "never".

Each grid point is one declarative :class:`~repro.scenario.Scenario`
job; the sweep itself — jobs, batch, aggregation, tables, execution
knobs (``--workers``, ``--checkpoint``) — is the shared
:class:`~.study.GridStudy` skeleton, and this module only declares
what is specific to the (loss × MTTF) grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.stats import quantile
from ..scenario import (
    FailureRateProbe,
    LinkFaults,
    RelayChurnFaults,
    Scenario,
    ScenarioResult,
    plan_scenario,
)
from ..scenario.cache import DEFAULT_CACHE
from ..scenario.engine import present
from ..scenario.netgen import NetworkConfig
from ..transport.config import TransportConfig, transport_profile_names
from ..units import kib, seconds
from .api import ExperimentResult, ExperimentSpec
from .churn_study import ChurnStudyConfig
from .registry import register_experiment
from .study import IMPROVEMENT_METRICS, GridStudy, StudyResult, star_network

__all__ = [
    "AdversityImprovement",
    "AdversityPoint",
    "AdversityStudyConfig",
    "AdversityStudyExperiment",
    "AdversityStudyResult",
]

#: Default loss grid: the clean corner plus light and noticeable loss.
DEFAULT_LOSS_RATES: Tuple[float, ...] = (0.0, 0.005, 0.02)

#: Default MTTF grid: immortal relays plus one kill regime (seconds
#: between kills aggregated over all relays; 0.0 disables).
DEFAULT_RELAY_MTTFS: Tuple[float, ...] = (0.0, 4.0)


@dataclass(frozen=True)
class AdversityStudyConfig(ExperimentSpec):
    """Parameters of the (loss rate × relay MTTF) adversity sweep.

    The churn-regime fields (circuit count, payload mix, seed, windows)
    deliberately mirror :class:`~.churn_study.ChurnStudyConfig`: the
    point builder routes through it, so a same-seed churn study at
    ``arrival_rate`` and this study's adversity-free corner are the
    same scenario, draw for draw.

    Model parameters only: worker processes and checkpointing are the
    :class:`~repro.experiments.api.RunContext` passed beside this spec
    to ``run``.
    """

    #: Per-link Bernoulli loss probabilities swept (0.0 = lossless).
    loss_rates: Tuple[float, ...] = DEFAULT_LOSS_RATES
    #: Mean time to failure across all relays (seconds); 0.0 disables
    #: relay churn at that point (the JSON-safe spelling of ∞).
    relay_mttfs: Tuple[float, ...] = DEFAULT_RELAY_MTTFS
    #: The one churn operating point every grid cell shares.
    arrival_rate: float = 4.0
    circuit_count: int = 40
    hops: int = 3
    bulk_fraction: float = 0.7
    bulk_payload_bytes: int = kib(300)
    interactive_payload_bytes: int = kib(25)
    seed: int = 2018
    start_window: float = seconds(2.0)
    horizon: float = seconds(8.0)
    probe_interval: float = 0.25
    max_sim_time: float = seconds(120.0)
    kinds: Tuple[str, str] = ("with", "without")
    network: NetworkConfig = field(default_factory=star_network)
    transport: TransportConfig = field(default_factory=TransportConfig)
    #: Mean time to restart a killed relay (0.0 = killed for good).
    relay_mttr: float = 0.5
    #: Upper bound on kills per run (keeps small grids comparable).
    max_relay_kills: int = 4
    #: Transport profile applied at every *faulted* point; the
    #: adversity-free corner keeps ``transport`` untouched.
    transport_profile: str = "reliable"

    def __post_init__(self) -> None:
        if not self.loss_rates or not self.relay_mttfs:
            raise ValueError(
                "the adversity grid needs at least one loss rate and "
                "one relay MTTF"
            )
        if not all(0 <= rate < 1 for rate in self.loss_rates):  # also NaN
            raise ValueError(
                "loss rates must be within [0, 1), got %r" % (self.loss_rates,)
            )
        if not all(0 <= mttf < float("inf") for mttf in self.relay_mttfs):
            raise ValueError(
                "relay MTTFs must be non-negative and finite (0 disables), "
                "got %r" % (self.relay_mttfs,)
            )
        if len(set(self.loss_rates)) != len(self.loss_rates):
            raise ValueError(
                "loss rates must be distinct, got %r" % (self.loss_rates,)
            )
        if len(set(self.relay_mttfs)) != len(self.relay_mttfs):
            raise ValueError(
                "relay MTTFs must be distinct, got %r" % (self.relay_mttfs,)
            )
        if not 0 < self.arrival_rate < float("inf"):  # also NaN
            raise ValueError(
                "arrival_rate must be positive and finite, got %r"
                % self.arrival_rate
            )
        if not 0 <= self.relay_mttr < float("inf"):  # also NaN
            raise ValueError(
                "relay_mttr must be non-negative and finite, got %r"
                % self.relay_mttr
            )
        if self.transport_profile not in transport_profile_names():
            raise ValueError(
                "unknown transport profile %r (known: %s)"
                % (self.transport_profile,
                   ", ".join(transport_profile_names()))
            )
        # Build every grid point: the churn study config the points
        # route through judges the shared churn regime (windows, kinds,
        # probe grid, counts, payloads), the compiled scenario the fault
        # parts and transport profile.  A bad combination fails here,
        # not mid-sweep.
        for loss_rate, relay_mttf in self.grid():
            self.point_scenario(loss_rate, relay_mttf)

    # --- the grid ---------------------------------------------------------

    def grid(self) -> List[Tuple[float, float]]:
        """The swept (loss rate, relay MTTF) points, loss-major order."""
        return [
            (loss, mttf)
            for loss in self.loss_rates
            for mttf in self.relay_mttfs
        ]

    def _churn_config(self) -> ChurnStudyConfig:
        """The same-seed churn study this sweep's clean corner matches."""
        mirrored = {
            f.name: getattr(self, f.name)
            for f in fields(ChurnStudyConfig) if f.name != "rates"
        }
        return ChurnStudyConfig(rates=(self.arrival_rate,), **mirrored)

    def point_scenario(self, loss_rate: float, relay_mttf: float) -> Scenario:
        """The declarative scenario of one grid point.

        Routed through the churn study's point builder so the
        adversity-free corner is *exactly* the scenario a same-seed
        churn study runs — same plan hash, same draws, same samples.
        Faulted points extend it: fault parts, a failure-rate probe,
        and the reliable transport profile.  The fault events are drawn
        from a dedicated plan substream *after* every network/workload
        draw, so arming the fault plane never perturbs the schedule the
        clean corner pinned.
        """
        scenario = self._churn_config().point_config(self.arrival_rate
                                                     ).to_scenario()
        if loss_rate == 0.0 and relay_mttf == 0.0:
            return scenario
        faults = []
        if loss_rate > 0.0:
            faults.append(LinkFaults(loss_rate=loss_rate))
        if relay_mttf > 0.0:
            faults.append(RelayChurnFaults(
                mttf=relay_mttf,
                mttr=self.relay_mttr,
                max_kills=self.max_relay_kills,
                horizon=self.horizon,
            ))
        return replace(
            scenario,
            faults=tuple(faults),
            probes=scenario.probes
            + (FailureRateProbe(interval=self.probe_interval),),
            transport=scenario.transport.with_profile(self.transport_profile),
        )


@dataclass
class AdversityPoint(ExperimentResult):
    """One (loss rate, relay MTTF, controller kind) row of the study.

    Medians and tails are over the *steady-state* circuits (those that
    arrived at or after the churn settle time); ``None`` when no steady
    circuit produced the metric.  ``failure_rate`` covers every planned
    circuit of the run — a warm-up circuit killed by a dying relay is
    just as failed as a steady one.
    """

    loss_rate: float
    relay_mttf: float
    kind: str
    circuits: int
    steady_circuits: int
    #: Fraction of planned circuits that never delivered their payload.
    failure_rate: float
    #: Steady-window mean of the bottleneck relay's link utilization.
    bottleneck_utilization: float
    median_ttfb: Optional[float]
    p95_ttfb: Optional[float]
    p99_ttfb: Optional[float]
    median_ttlb: Optional[float]
    median_startup: Optional[float]
    #: Per-hop go-back-N activity summed over the run's senders
    #: (zero at the adversity-free corner: the machinery is gated off).
    retransmissions: int
    timeouts: int


@dataclass
class AdversityImprovement(ExperimentResult):
    """One grid point's with-vs-without deltas (positive = faster).

    The improvement math mirrors the churn study row for row, so the
    adversity-free corner's figures equal a same-seed churn study's at
    the same arrival rate, exactly.
    """

    loss_rate: float
    relay_mttf: float
    #: The baseline (second kind) steady utilization, as in the churn
    #: study's Figure-1c x axis.
    bottleneck_utilization: float
    ttfb_improvement: Optional[float]
    ttlb_improvement: Optional[float]
    startup_improvement: Optional[float]
    #: The larger of the two kinds' failure rates at this point.
    failure_rate: float
    #: Relay kill events planned at this point (same for both kinds).
    relay_kills: int


@dataclass
class AdversityStudyResult(StudyResult):
    """The study: per-(loss, MTTF, kind) rows plus per-point deltas."""

    config: AdversityStudyConfig
    bottleneck_relay: str
    #: One row per (loss rate, relay MTTF, kind), grid-major order.
    points: List[AdversityPoint]
    #: One row per grid point: the with-vs-without deltas.
    improvements: List[AdversityImprovement]

    # --- analysis helpers -------------------------------------------------

    def point(
        self, loss_rate: float, relay_mttf: float, kind: str
    ) -> AdversityPoint:
        """The row for the grid cell; raises ``KeyError`` if absent."""
        for row in self.points:
            if (row.loss_rate == loss_rate and row.relay_mttf == relay_mttf
                    and row.kind == kind):
                return row
        raise KeyError(
            "no study point for loss=%r mttf=%r kind=%r"
            % (loss_rate, relay_mttf, kind)
        )

    def improvement(
        self, loss_rate: float, relay_mttf: float
    ) -> AdversityImprovement:
        """The delta row for the grid cell; ``KeyError`` if absent."""
        for row in self.improvements:
            if row.loss_rate == loss_rate and row.relay_mttf == relay_mttf:
                return row
        raise KeyError(
            "no improvement row for loss=%r mttf=%r"
            % (loss_rate, relay_mttf)
        )

    def improvement_series(
        self, metric: str = "startup"
    ) -> List[Tuple[str, List[Tuple[float, float]]]]:
        """(loss rate → improvement) series, one per swept MTTF.

        *metric* is ``"ttfb"``, ``"ttlb"`` or ``"startup"``; grid
        points where either kind lacks the metric are skipped.
        """
        return self._series_per_mttf(self.improvements, IMPROVEMENT_METRICS[metric])

    def failure_series(self, kind: str) -> List[Tuple[str, List[Tuple[float, float]]]]:
        """(loss rate → failure rate) series for *kind*, one per MTTF."""
        return self._series_per_mttf(
            [row for row in self.points if row.kind == kind], "failure_rate"
        )

    def _series_per_mttf(
        self, rows: List[Any], attribute: str
    ) -> List[Tuple[str, List[Tuple[float, float]]]]:
        return [
            (
                "MTTF ∞" if mttf == 0.0 else "MTTF %g s" % mttf,
                [
                    (row.loss_rate, value)
                    for row in rows
                    if row.relay_mttf == mttf
                    and (value := getattr(row, attribute)) is not None
                ],
            )
            for mttf in self.config.relay_mttfs
        ]

    def figure(self, width: int = 72, height: int = 14) -> str:
        """Two ASCII panels: improvement and failure rate vs loss rate."""
        from ..report.ascii import render_series

        improvement_panel = render_series(
            self.improvement_series("startup"),
            width=width,
            height=height,
            x_label="link loss rate",
            y_label="steady start-up improvement [s]",
            hline=0.0,
            hline_label="no improvement",
        )
        failure_panel = render_series(
            self.failure_series(self.config.kinds[0]),
            width=width,
            height=height,
            x_label="link loss rate",
            y_label="circuit failure rate (%s)" % self.config.kinds[0],
        )
        return "\n\n".join([improvement_panel, failure_panel])


def _mttf_label(row: Any) -> str:
    return "inf" if row.relay_mttf == 0.0 else "%g" % row.relay_mttf


@register_experiment
class AdversityStudyExperiment(GridStudy):
    """The fault-plane sweep behind ``repro adversity-study``."""

    name = "adversity-study"
    help = "churn under adversity: (loss rate x relay MTTF) fault sweep"
    spec_type = AdversityStudyConfig
    result_type = AdversityStudyResult
    knobs = ("workers", "checkpoint_dir")

    point_experiment = "scenario"
    grid_keys = ("loss_rate", "relay_mttf")
    point_type = AdversityPoint
    improvement_type = AdversityImprovement
    point_columns = (
        ("loss", "loss_rate"),
        ("MTTF [s]", _mttf_label),
        ("controller", "kind"),
        ("circuits", "circuits"),
        ("fail rate", "failure_rate"),
        ("utilization", "bottleneck_utilization"),
        ("med TTFB [s]", "median_ttfb"),
        ("p95 TTFB [s]", "p95_ttfb"),
        ("p99 TTFB [s]", "p99_ttfb"),
        ("med startup [s]", "median_startup"),
        ("retx", "retransmissions"),
    )
    improvement_columns = (
        ("loss", "loss_rate"),
        ("MTTF [s]", _mttf_label),
        ("utilization", "bottleneck_utilization"),
        ("fail rate", "failure_rate"),
        ("kills", "relay_kills"),
        ("TTFB gain [s]", "ttfb_improvement"),
        ("TTLB gain [s]", "ttlb_improvement"),
        ("startup gain [s]", "startup_improvement"),
    )
    improvement_title = (
        "Improvement under adversity (%s vs %s, positive = faster)"
    )

    def grid(self, spec: AdversityStudyConfig) -> List[Tuple[float, float]]:
        return spec.grid()

    def point_spec(
        self, spec: AdversityStudyConfig, loss_rate: float, relay_mttf: float
    ) -> Scenario:
        return spec.point_scenario(loss_rate, relay_mttf)

    def point_fields(
        self, spec: AdversityStudyConfig, result: ScenarioResult, kind: str
    ) -> Dict[str, Any]:
        steady_ttfb = present(
            result.steady_samples(kind), "time_to_first_byte"
        )
        counters = result.transport_counters.get(kind, {})
        return dict(
            # Covers every planned circuit of the run, not only the
            # steady ones: a warm-up circuit killed by a dying relay is
            # just as failed.
            failure_rate=result.failure_rate(kind),
            p95_ttfb=quantile(steady_ttfb, 0.95),
            p99_ttfb=quantile(steady_ttfb, 0.99),
            retransmissions=int(counters.get("retransmissions", 0)),
            timeouts=int(counters.get("timeouts", 0)),
        )

    def improvement_fields(
        self,
        spec: AdversityStudyConfig,
        result: ScenarioResult,
        with_row: AdversityPoint,
        without_row: AdversityPoint,
    ) -> Dict[str, Any]:
        # Kill events are a plan property, identical across kinds:
        # count them from the point's (cached) plan, not from the
        # failure records — a kill that happened to fail no circuit
        # still counts as adversity.
        plan = plan_scenario(result.scenario, cache=DEFAULT_CACHE)
        return dict(
            failure_rate=max(with_row.failure_rate, without_row.failure_rate),
            relay_kills=sum(
                1 for event in plan.fault_events if event.action == "kill"
            ),
        )

    def title(self, result: AdversityStudyResult) -> str:
        config = result.config
        return (
            "Adversity study: %d grid points at %g circuits/s through "
            "bottleneck %s"
            % (len(config.grid()), config.arrival_rate,
               result.bottleneck_relay)
        )

    def add_cli_arguments(self, parser) -> None:
        parser.add_argument(
            "--loss-rates", default="0,0.005,0.02", metavar="L1,L2,...",
            help="comma-separated per-link loss probabilities to sweep "
                 "(default 0,0.005,0.02)",
        )
        parser.add_argument(
            "--mttfs", default="0,4", metavar="M1,M2,...",
            help="comma-separated relay mean-times-to-failure in seconds "
                 "(0 disables relay churn at that point; default 0,4)",
        )
        parser.add_argument(
            "--rate", type=float, default=4.0, metavar="R",
            help="churn arrival rate shared by every grid point "
                 "(circuits/second, default 4)",
        )
        super().add_cli_arguments(parser)
        parser.add_argument(
            "--mttr", type=float, default=0.5, metavar="SECONDS",
            help="mean time to restart a killed relay (0 = killed for "
                 "good; default 0.5)",
        )
        parser.add_argument(
            "--max-kills", type=int, default=4, metavar="N",
            help="cap on relay kills per run (default 4)",
        )

    def cli_fields(self, args) -> Dict[str, Any]:
        return dict(
            loss_rates=self.parse_grid(args.loss_rates, "--loss-rates"),
            relay_mttfs=self.parse_grid(args.mttfs, "--mttfs"),
            arrival_rate=args.rate,
            relay_mttr=args.mttr,
            max_relay_kills=args.max_kills,
        )
