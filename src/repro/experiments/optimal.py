"""The optimal-window model as a registered experiment.

``repro optimal --link 50:12 --link 8:12 ...`` evaluates the paper's
baseline model (:mod:`repro.analysis.optimal_window`) for an arbitrary
path: every hop's loop delay and optimal window, plus the window the
backpropagation mechanism would converge to at the source.  Unlike the
simulation experiments this one is purely analytical, which makes it
the cheapest member of the registry — handy for sweeping path shapes
in a ``repro batch`` file before committing to full simulations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from ..analysis.optimal_window import (
    HopLink,
    OptimalWindow,
    backpropagated_window,
    bottleneck_rate,
    optimal_windows,
)
from ..transport.config import TransportConfig
from ..units import mbit_per_second, milliseconds
from .api import Experiment, ExperimentResult, ExperimentSpec, RunContext, SpecError
from .registry import register_experiment

__all__ = [
    "OptimalConfig",
    "OptimalExperiment",
    "OptimalResult",
]


def _default_links() -> Tuple[HopLink, ...]:
    """The Figure-1a path: 8 Mbit/s bottleneck one hop from the source."""
    fast = HopLink(mbit_per_second(50.0), milliseconds(12.0))
    slow = HopLink(mbit_per_second(8.0), milliseconds(12.0))
    return (fast, slow, fast, fast)


@dataclass(frozen=True)
class OptimalConfig(ExperimentSpec):
    """A path (one :class:`HopLink` per hop) plus the transport tunables."""

    links: Tuple[HopLink, ...] = field(default_factory=_default_links)
    transport: TransportConfig = field(default_factory=TransportConfig)

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError("a path needs at least one link")


@dataclass
class OptimalResult(ExperimentResult):
    """The model's output for every hop of the configured path."""

    config: OptimalConfig
    windows: List[OptimalWindow]
    #: The source window backpropagation converges to, in cells.
    backpropagated_cells: int
    #: The path's sustainable rate, in Mbit/s.
    bottleneck_mbit_per_second: float


@register_experiment
class OptimalExperiment(Experiment):
    """The analytical model behind ``repro optimal``."""

    name = "optimal"
    help = "optimal-window model"
    spec_type = OptimalConfig
    result_type = OptimalResult

    def run(
        self, spec: OptimalConfig, ctx: RunContext = RunContext()
    ) -> OptimalResult:
        links = list(spec.links)
        return OptimalResult(
            config=spec,
            windows=optimal_windows(links, spec.transport),
            backpropagated_cells=backpropagated_window(links, spec.transport),
            bottleneck_mbit_per_second=bottleneck_rate(links).mbit_per_second,
        )

    def add_cli_arguments(self, parser) -> None:
        parser.add_argument(
            "--link", action="append", required=True, metavar="MBIT:DELAY_MS",
            help="one per hop, e.g. --link 50:12 --link 8:12 (repeatable)",
        )

    def spec_from_cli(self, args) -> OptimalConfig:
        links = []
        for text in args.link:
            try:
                mbit_text, delay_text = text.split(":", 1)
                links.append(
                    HopLink(mbit_per_second(float(mbit_text)),
                            milliseconds(float(delay_text)))
                )
            except (ValueError, TypeError):
                raise SpecError(
                    "bad --link %r (want MBIT:DELAY_MS, e.g. 8:12)" % text
                ) from None
        return OptimalConfig(links=tuple(links))

    def render(self, result: OptimalResult) -> str:
        from ..report import format_table

        links = result.config.links
        return format_table(
            ["hop", "rate [Mbit/s]", "loop delay [ms]", "optimal [cells]",
             "optimal [KB]"],
            [[w.hop_index, links[w.hop_index].rate.mbit_per_second,
              w.loop_delay * 1e3, w.window_cells, w.window_bytes / 1000]
             for w in result.windows],
            title="Optimal windows (bottleneck %.3g Mbit/s)"
            % result.bottleneck_mbit_per_second,
        )
