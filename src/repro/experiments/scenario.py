"""The generic ``scenario`` experiment: run any declarative Scenario.

Registering the scenario engine as an experiment gives every scenario —
not just the migrated legacy harnesses — the full experiment surface
for free: a ``repro scenario`` CLI subcommand, ``repro batch`` sweeps
over scenario spec files, JSON output and cost estimation via
``repro batch --plan``.

The subcommand doubles as the parts browser::

    repro scenario list          # registered parts, by kind
    repro scenario run --spec scenario.json
    repro scenario run           # the default demo scenario
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..analysis.stats import quantile
from ..scenario.cache import DEFAULT_CACHE
from ..scenario.engine import ScenarioResult, present, run_scenario
from ..scenario.spec import Scenario, plan_scenario
from ..serialize import read_json_file
from .api import Experiment, RunContext
from .registry import register_experiment

__all__ = ["ScenarioExperiment"]


@register_experiment
class ScenarioExperiment(Experiment):
    """The declarative-scenario harness behind ``repro scenario``."""

    name = "scenario"
    help = "declarative scenario: topology + workloads + churn + probes"
    spec_type = Scenario
    result_type = ScenarioResult

    def run(
        self, spec: Scenario, ctx: RunContext = RunContext()
    ) -> ScenarioResult:
        return run_scenario(spec, cache=DEFAULT_CACHE)

    def estimate_cost(self, spec: Scenario) -> Optional[Dict[str, int]]:
        return plan_scenario(spec, cache=DEFAULT_CACHE).estimated_cost()

    # --- CLI ------------------------------------------------------------

    def add_cli_arguments(self, parser: Any) -> None:
        parser.add_argument(
            "action", nargs="?", choices=("run", "list"), default="run",
            help="'run' a scenario (default) or 'list' the registered parts",
        )
        parser.add_argument(
            "--spec", default=None, metavar="FILE",
            help="scenario spec JSON file (default: the built-in demo)",
        )

    def spec_from_cli(self, args: Any) -> Scenario:
        if args.spec is None:
            return self.default_spec()
        return Scenario.from_dict(read_json_file(args.spec, "scenario spec"))

    def render(self, result: ScenarioResult) -> str:
        from ..report import format_table

        scenario = result.scenario
        # Iterate the kinds that actually ran, not scenario.kinds: a
        # result from run_planned(plan, kinds=[...]) holds a subset.
        run_kinds = result.run_kinds
        workload_names = [w.part_name for w in scenario.workloads]
        rows = []
        for workload in workload_names:
            for kind in run_kinds:
                samples = result.of_workload(kind, workload)
                if not samples:
                    continue
                # A class with no completed circuit (fault plane) has
                # no median: the cell prints as "-".
                rows.append([
                    workload, kind, len(samples),
                    quantile(present(samples, "time_to_first_byte")),
                    quantile(present(samples, "time_to_last_byte")),
                ])
        title = "Scenario: %d circuits (%s)" % (
            len(result.samples[run_kinds[0]]) if run_kinds else 0,
            ", ".join(workload_names),
        )
        if result.bottleneck_relay:
            title += " through bottleneck %s" % result.bottleneck_relay
        table = format_table(
            ["workload", "controller", "circuits",
             "median TTFB [s]", "median TTLB [s]"],
            rows,
            title=title,
        )
        return "\n".join(
            [table, *result.probe_lines(run_kinds), result.events_line(run_kinds)]
        )
