"""One skeleton for the grid studies (``churn-study``, ``adversity-study``).

Both studies reproduce the paper's steady-state claim (Figure 1c) the
same way: sweep a grid of operating points of one steady-churn regime,
run every point as one :func:`~repro.experiments.runner.run_batch` job,
reduce each point's steady-state circuits to one row per controller
kind, and report the with-vs-without deltas per point.
:class:`GridStudy` owns that pipeline once — grid → jobs → batch →
rows → improvements → tables and panel → CLI flags — and a study
shrinks to declarations: its grid keys, its point spec, the row fields
only it computes, its table columns.

Execution comes from the :class:`~repro.experiments.api.RunContext`:
``workers`` sizes the sweep's pool of forked workers, which replay the
points' controller kinds as separate units (inside a worker, a study
itself a job of ``repro batch --workers N``, nothing forks and the
sweep runs there); ``checkpoint_dir``
makes the sweep crash-resumable: a re-run reuses every checkpointed
point, and ``repro report DIR`` renders the partial state while it
runs.  All points share one topology source and seed, so with a disk
plan cache attached the generated network is planned at most once per
worker.  The structured output is byte-identical under every
context; plan-cache and checkpoint counters ride along as run metadata
only.
"""

from __future__ import annotations

from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple, Union

from ..analysis.stats import quantile
from ..scenario.cache import DEFAULT_CACHE
from ..scenario.engine import present
from ..scenario.netgen import NetworkConfig
from ..units import kib
from .api import Experiment, ExperimentResult, RunContext, SpecError
from .registry import get_experiment
from .runner import BatchJob, run_batch

__all__ = [
    "GridStudy",
    "IMPROVEMENT_METRICS",
    "StudyResult",
    "delta",
    "star_network",
]

#: Improvement-row attribute behind each panel metric name.
IMPROVEMENT_METRICS = {
    "ttfb": "ttfb_improvement",
    "ttlb": "ttlb_improvement",
    "startup": "startup_improvement",
}

#: ``(header, row attribute name | row -> cell)`` per table column.
Columns = Tuple[Tuple[str, Union[str, Callable[[Any], Any]]], ...]


def star_network(relays: int = 30) -> NetworkConfig:
    """The studies' network: as many clients and servers as relays."""
    ends = max(relays, 1)
    return NetworkConfig(
        relay_count=relays, client_count=ends, server_count=ends
    )


def delta(
    without_value: Optional[float], with_value: Optional[float]
) -> Optional[float]:
    """without − with (positive = faster); ``None`` if either is missing."""
    if without_value is None or with_value is None:
        return None
    return without_value - with_value


class StudyResult(ExperimentResult):
    """Run metadata every grid-study result carries.

    Set per instance and never serialized (like
    :class:`~repro.experiments.runner.BatchResult`'s), so cached,
    checkpointed and parallel sweeps stay byte-identical on disk.
    """

    def __post_init__(self) -> None:
        #: Aggregated plan-cache counters of the sweep.
        self.plan_cache: Optional[Dict[str, int]] = None
        #: Checkpoint counters, when the sweep ran with a checkpoint dir.
        self.checkpoint: Optional[Dict[str, Any]] = None


def _table(columns: Columns, rows: List[Any], title: str) -> str:
    from ..report.tables import format_table

    return format_table(
        [header for header, __ in columns],
        [
            [cell(row) if callable(cell) else getattr(row, cell)
             for __, cell in columns]
            for row in rows
        ],
        title=title,
    )


class GridStudy(Experiment):
    """A sweep of one steady-churn regime over a grid of operating points.

    Subclasses declare the class attributes below and implement
    :meth:`grid`, :meth:`point_spec`, :meth:`point_fields` and
    :meth:`title` (plus :meth:`improvement_fields` / :meth:`cli_fields`
    when they have any).  The spec must carry the shared regime fields
    (``start_window``, ``horizon``, ``kinds``, ...) and the result type
    the four fields ``config`` / ``bottleneck_relay`` / ``points`` /
    ``improvements``.
    """

    #: Registered experiment every grid point runs as.
    point_experiment: ClassVar[str] = ""
    #: Row field names a grid point's coordinates are stored under.
    grid_keys: ClassVar[Tuple[str, ...]] = ()
    #: Row dataclasses: one per (point, kind), one per point.
    point_type: ClassVar[Optional[type]] = None
    improvement_type: ClassVar[Optional[type]] = None
    point_columns: ClassVar[Columns] = ()
    improvement_columns: ClassVar[Columns] = ()
    #: ``%``-formatted with the two controller kinds.
    improvement_title: ClassVar[str] = ""

    # --- what a study declares -------------------------------------------

    def grid(self, spec: Any) -> List[Tuple[float, ...]]:
        """The swept points, one coordinate per :attr:`grid_keys` entry."""
        raise NotImplementedError

    def point_spec(self, spec: Any, *point: float) -> Any:
        """The :attr:`point_experiment` spec of one grid point."""
        raise NotImplementedError

    def point_fields(self, spec: Any, result: Any, kind: str) -> Dict[str, Any]:
        """The (point, kind) row fields only this study computes."""
        raise NotImplementedError

    def improvement_fields(
        self, spec: Any, result: Any, with_row: Any, without_row: Any
    ) -> Dict[str, Any]:
        """The per-point row fields beyond the three shared deltas."""
        return {}

    def title(self, result: Any) -> str:
        """Title of the rendered per-(point, kind) table."""
        raise NotImplementedError

    def cli_fields(self, args: Any) -> Dict[str, Any]:
        """Spec fields built from this study's own CLI flags."""
        return {}

    # --- the shared pipeline ---------------------------------------------

    def run(self, spec: Any, ctx: RunContext = RunContext()) -> Any:
        self.check_knobs(ctx)
        jobs = [
            BatchJob(self.point_experiment, self.point_spec(spec, *point))
            for point in self.grid(spec)
        ]
        on_item = None
        if ctx.checkpoint_dir is not None:
            # Stream the partial state as points finish, so `repro
            # report <checkpoint-dir>` can watch the sweep in flight.
            from ..report.partial import partial_writer

            on_item = partial_writer(ctx.checkpoint_dir, [])

        disk = DEFAULT_CACHE.disk
        batch = run_batch(
            jobs,
            workers=ctx.workers,
            plan_cache_dir=disk.directory if disk is not None else None,
            checkpoint_dir=ctx.checkpoint_dir,
            on_item=on_item,
        )
        study = self._aggregate(
            spec, [item.result_object() for item in batch.items]
        )
        study.plan_cache = batch.plan_cache
        study.checkpoint = batch.checkpoint
        return study

    def _aggregate(self, spec: Any, results: List[Any]) -> Any:
        """Assemble the study from one point result per grid point."""
        bottlenecks = {result.bottleneck_relay for result in results}
        if len(bottlenecks) != 1:
            raise RuntimeError(
                "grid points disagree on the bottleneck relay (%r): the "
                "operating points no longer share one generated network"
                % sorted(bottlenecks)
            )
        with_kind, without_kind = spec.kinds
        points: List[Any] = []
        improvements: List[Any] = []
        for point, result in zip(self.grid(spec), results):
            keys = dict(zip(self.grid_keys, point))
            rows = {
                kind: self.point_type(
                    **keys,
                    **self._steady_fields(spec, result, kind),
                    **self.point_fields(spec, result, kind),
                )
                for kind in spec.kinds
            }
            points.extend(rows.values())
            with_row, without_row = rows[with_kind], rows[without_kind]
            improvements.append(self.improvement_type(
                **keys,
                # The x axis of the Figure-1c panel: how loaded the
                # relay is *without* the start-up scheme.
                bottleneck_utilization=without_row.bottleneck_utilization,
                ttfb_improvement=delta(
                    without_row.median_ttfb, with_row.median_ttfb
                ),
                ttlb_improvement=delta(
                    without_row.median_ttlb, with_row.median_ttlb
                ),
                startup_improvement=delta(
                    without_row.median_startup, with_row.median_startup
                ),
                **self.improvement_fields(spec, result, with_row, without_row),
            ))
        return self.result_type(
            config=spec,
            bottleneck_relay=bottlenecks.pop(),
            points=points,
            improvements=improvements,
        )

    def _steady_fields(self, spec: Any, result: Any, kind: str) -> Dict[str, Any]:
        """The row fields every study shares, over the steady circuits.

        Steady circuits are those that arrived at or after the churn
        settle time; utilization is the mean over ``[settle, horizon)``.
        The ``None`` filters are vacuous on a fault-free run (every
        circuit completes), which is what keeps the adversity study's
        clean corner equal to the churn study bit for bit.
        """
        steady = result.steady_samples(kind)
        utilization = [
            series for series in result.probes.get(kind, [])
            if series.probe == "utilization"
        ]
        if len(utilization) != 1:
            # The point spec builds exactly one bottleneck-scoped
            # probe; averaging (or last-wins over) several relays would
            # silently corrupt the study's x axis.
            raise RuntimeError(
                "%s expects exactly one bottleneck utilization series "
                "per kind, got %d" % (self.name, len(utilization))
            )

        def steady_median(attribute: str) -> Optional[float]:
            return quantile(present(steady, attribute))

        return dict(
            kind=kind,
            circuits=len(result.samples[kind]),
            steady_circuits=len(steady),
            bottleneck_utilization=utilization[0].mean_between(
                spec.start_window, spec.horizon
            ),
            median_ttfb=steady_median("time_to_first_byte"),
            median_ttlb=steady_median("time_to_last_byte"),
            median_startup=steady_median("startup_duration"),
        )

    def estimate_cost(self, spec: Any) -> Dict[str, int]:
        point_experiment = get_experiment(self.point_experiment)
        totals = {"circuits": 0, "cells": 0, "cell_hops": 0}
        for point in self.grid(spec):
            cost = point_experiment.estimate_cost(self.point_spec(spec, *point))
            for key in totals:
                totals[key] += cost[key]
        totals["kinds"] = len(spec.kinds)
        return totals

    # --- CLI ---------------------------------------------------------------

    def add_cli_arguments(self, parser: Any) -> None:
        """The churn-regime flags every study shares."""
        parser.add_argument("--circuits", type=int, default=40)
        parser.add_argument("--relays", type=int, default=30)
        parser.add_argument("--bulk-fraction", type=float, default=0.7)
        parser.add_argument("--bulk-payload-kib", type=int, default=300)
        parser.add_argument("--seed", type=int, default=2018)
        parser.add_argument(
            "--horizon", type=float, default=8.0, metavar="SECONDS",
            help="simulated time after which no re-arrival (or relay "
                 "kill) is planned (default 8.0)",
        )
        parser.add_argument(
            "--probe-interval", type=float, default=0.25, metavar="SECONDS",
            help="probe sampling grid (default 0.25)",
        )

    @staticmethod
    def parse_grid(text: str, flag: str) -> Tuple[float, ...]:
        try:
            return tuple(
                float(token) for token in text.split(",") if token.strip()
            )
        except ValueError:
            raise SpecError(
                "%s expects comma-separated numbers, got %r" % (flag, text)
            ) from None

    def spec_from_cli(self, args: Any) -> Any:
        try:
            return self.spec_type(
                circuit_count=args.circuits,
                bulk_fraction=args.bulk_fraction,
                bulk_payload_bytes=kib(args.bulk_payload_kib),
                seed=args.seed,
                horizon=args.horizon,
                probe_interval=args.probe_interval,
                network=star_network(args.relays),
                **self.cli_fields(args),
            )
        except ValueError as error:
            # Config validation (bad grid, bad horizon, ...) becomes a
            # clean exit-2 message, not a traceback.
            raise SpecError(str(error)) from error

    def render(self, result: Any) -> str:
        lines = [
            _table(self.point_columns, result.points, self.title(result)),
            "",
            _table(
                self.improvement_columns,
                result.improvements,
                self.improvement_title % tuple(result.config.kinds),
            ),
            "",
            result.figure(),
        ]
        stats = result.plan_cache
        if stats and sum(stats.values()):
            lines.append("")
            lines.append(
                "plan cache: %d plan hit(s) / %d miss(es), %d network "
                "hit(s) / %d miss(es)"
                % (stats.get("plan_hits", 0), stats.get("plan_misses", 0),
                   stats.get("network_hits", 0),
                   stats.get("network_misses", 0))
            )
        checkpoint = result.checkpoint
        if checkpoint:
            lines.append(
                "checkpoint: %s (%d computed / %d reused)"
                % (checkpoint.get("directory", "?"),
                   checkpoint.get("computed", 0),
                   checkpoint.get("reused", 0))
            )
        return "\n".join(lines)
