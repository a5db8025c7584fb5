"""Ablation studies over CircuitStart's design choices.

* **A1 — γ sweep** (:func:`gamma_sweep`): the Vegas exit threshold
  trades ramp-up time against overshoot; the paper fixes γ = 4.
* **A2 — compensation mode** (:func:`compensation_modes`): the paper's
  "set cwnd to the data acknowledged this round" vs the traditional
  halving vs no correction at all.
* **A3 — initial window** (:func:`initial_window_sweep`): the paper
  starts at 2 cells; compare against 1, 4 and TCP's IW10 spirit.
* **A4 — backpropagation** (:func:`backpropagation_study`): with the
  bottleneck at the far end of the circuit, every upstream hop's
  window should converge near the bottleneck's, demonstrating the
  "implicitly propagates the minimum cwnd back to the source" claim.

Each study returns plain result rows (lists of dataclasses) so
``repro ablations`` can print paper-style tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from ..analysis.optimal_window import (
    HopLink,
    backpropagated_window,
    optimal_windows,
)
from ..sim.simulator import Simulator
from ..tor.hosts import released
from .api import Experiment, ExperimentResult, ExperimentSpec, RunContext
from .fig1_traces import TraceConfig, TraceResult, chain_flow
from .registry import get_experiment, register_experiment

__all__ = [
    "AblationsConfig",
    "AblationsExperiment",
    "AblationsResult",
    "GammaRow",
    "CompensationRow",
    "InitialWindowRow",
    "BackpropagationRow",
    "gamma_sweep",
    "compensation_modes",
    "initial_window_sweep",
    "backpropagation_study",
]


# ----------------------------------------------------------------------
# A1 — gamma sweep
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GammaRow:
    gamma: float
    exit_time_ms: Optional[float]
    peak_cwnd_cells: int
    final_cwnd_cells: int
    optimal_cwnd_cells: int

    @property
    def final_error_cells(self) -> int:
        return self.final_cwnd_cells - self.optimal_cwnd_cells


def gamma_sweep(
    gammas: Sequence[float] = (1.0, 2.0, 4.0, 8.0, 16.0),
    base: Optional[TraceConfig] = None,
) -> List[GammaRow]:
    """Run the Fig-1a scenario across exit thresholds."""
    base = base or TraceConfig()
    rows: List[GammaRow] = []
    for gamma in gammas:
        config = replace(base, transport=base.transport.with_(gamma=gamma))
        result = get_experiment("trace").run(config)
        rows.append(
            GammaRow(
                gamma=gamma,
                exit_time_ms=(
                    result.startup_exit_time * 1e3
                    if result.startup_exit_time is not None
                    else None
                ),
                peak_cwnd_cells=result.peak_cwnd_cells,
                final_cwnd_cells=result.final_cwnd_cells,
                optimal_cwnd_cells=result.optimal_cwnd_cells,
            )
        )
    return rows


# ----------------------------------------------------------------------
# A2 — overshoot compensation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CompensationRow:
    mode: str
    peak_cwnd_cells: int
    cwnd_after_exit_cells: Optional[int]
    final_cwnd_cells: int
    optimal_cwnd_cells: int

    @property
    def final_error_cells(self) -> int:
        return self.final_cwnd_cells - self.optimal_cwnd_cells


def compensation_modes(
    modes: Sequence[str] = ("acked", "halve", "none"),
    base: Optional[TraceConfig] = None,
) -> List[CompensationRow]:
    """Run the Fig-1b (distant bottleneck) scenario per exit policy.

    The distant bottleneck is where compensation matters most: by the
    time the γ signal reaches the source, the window has overshot
    massively, and "halve" or "none" leave a large standing queue.
    """
    base = base or TraceConfig(bottleneck_distance=3)
    rows: List[CompensationRow] = []
    for mode in modes:
        config = replace(base, transport=base.transport.with_(compensation=mode))
        result = get_experiment("trace").run(config)
        after_exit = _cwnd_after_exit(result)
        rows.append(
            CompensationRow(
                mode=mode,
                peak_cwnd_cells=result.peak_cwnd_cells,
                cwnd_after_exit_cells=after_exit,
                final_cwnd_cells=result.final_cwnd_cells,
                optimal_cwnd_cells=result.optimal_cwnd_cells,
            )
        )
    return rows


def _cwnd_after_exit(result: TraceResult) -> Optional[int]:
    if result.startup_exit_time is None:
        return None
    return int(result.trace.value_at(result.startup_exit_time))


# ----------------------------------------------------------------------
# A3 — initial window
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InitialWindowRow:
    initial_cwnd_cells: int
    exit_time_ms: Optional[float]
    final_cwnd_cells: int
    optimal_cwnd_cells: int


def initial_window_sweep(
    initial_windows: Sequence[int] = (1, 2, 4, 10),
    base: Optional[TraceConfig] = None,
) -> List[InitialWindowRow]:
    """Run the Fig-1a scenario across initial window sizes."""
    base = base or TraceConfig()
    rows: List[InitialWindowRow] = []
    for iw in initial_windows:
        transport = base.transport.with_(
            initial_cwnd_cells=iw, min_cwnd_cells=min(iw, base.transport.min_cwnd_cells)
        )
        result = get_experiment("trace").run(replace(base, transport=transport))
        rows.append(
            InitialWindowRow(
                initial_cwnd_cells=iw,
                exit_time_ms=(
                    result.startup_exit_time * 1e3
                    if result.startup_exit_time is not None
                    else None
                ),
                final_cwnd_cells=result.final_cwnd_cells,
                optimal_cwnd_cells=result.optimal_cwnd_cells,
            )
        )
    return rows


# ----------------------------------------------------------------------
# A4 — backpropagation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BackpropagationRow:
    hop_index: int
    hop_label: str
    final_cwnd_cells: int
    optimal_cwnd_cells: int
    backprop_prediction_cells: int


def backpropagation_study(
    base: Optional[TraceConfig] = None,
    settle_time: float = 1.0,
) -> List[BackpropagationRow]:
    """Measure every hop's converged window with a far bottleneck.

    Returns one row per hop sender (source first).  The paper's claim:
    the minimum window propagates back, so upstream hops settle near
    the backpropagation prediction ``min_i W_i*``.
    """
    base = base or TraceConfig(bottleneck_distance=3)
    sim = Simulator()
    specs = base.link_specs()
    flow = chain_flow(
        sim,
        specs,
        base.transport,
        controller_kind=base.controller_kind,
        payload_bytes=base.payload_bytes,
    )
    with released(sim, flow.topology):
        sim.run_until(settle_time)
        final_cwnds = [controller.cwnd_cells for controller in flow.controllers]

    links = [HopLink(s.rate, s.delay) for s in specs]
    per_hop_optimal = optimal_windows(links, base.transport)
    prediction = backpropagated_window(links, base.transport)
    names = flow.spec.node_path
    labels = ["%s->%s" % (a, b) for a, b in zip(names, names[1:])]
    return [
        BackpropagationRow(
            hop_index=i,
            hop_label=labels[i],
            final_cwnd_cells=final_cwnd,
            optimal_cwnd_cells=per_hop_optimal[i].window_cells,
            backprop_prediction_cells=prediction,
        )
        for i, final_cwnd in enumerate(final_cwnds)
    ]


# ----------------------------------------------------------------------
# The unified A1-A4 experiment
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AblationsConfig(ExperimentSpec):
    """Parameters of the combined A1-A4 ablation run."""

    #: A1: exit thresholds to sweep.
    gammas: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0, 16.0)
    #: A2: overshoot-compensation modes to compare.
    compensations: Tuple[str, ...] = ("acked", "halve", "none")
    #: A3: initial windows to sweep.
    initial_windows: Tuple[int, ...] = (1, 2, 4, 10)
    #: Base scenario for A1/A3 (near bottleneck).
    near: TraceConfig = field(default_factory=TraceConfig)
    #: Base scenario for A2/A4 (distant bottleneck).
    far: TraceConfig = field(
        default_factory=lambda: TraceConfig(bottleneck_distance=3)
    )
    #: A4: how long the circuit settles before windows are read.
    settle_time: float = 1.0


@dataclass
class AblationsResult(ExperimentResult):
    """All four ablation tables from one run."""

    config: AblationsConfig
    gamma_rows: List[GammaRow]
    compensation_rows: List[CompensationRow]
    initial_window_rows: List[InitialWindowRow]
    backpropagation_rows: List[BackpropagationRow]


@register_experiment
class AblationsExperiment(Experiment):
    """The A1-A4 design-choice studies behind ``repro ablations``."""

    name = "ablations"
    help = "design-choice tables A1-A4"
    spec_type = AblationsConfig
    result_type = AblationsResult

    def run(
        self, spec: AblationsConfig, ctx: RunContext = RunContext()
    ) -> AblationsResult:
        return AblationsResult(
            config=spec,
            gamma_rows=gamma_sweep(spec.gammas, base=spec.near),
            compensation_rows=compensation_modes(
                spec.compensations, base=spec.far
            ),
            initial_window_rows=initial_window_sweep(
                spec.initial_windows, base=spec.near
            ),
            backpropagation_rows=backpropagation_study(
                base=spec.far, settle_time=spec.settle_time
            ),
        )

    def render(self, result: AblationsResult) -> str:
        from ..report import format_table

        sections = [
            format_table(
                ["gamma", "exit [ms]", "peak", "final", "optimal"],
                [[r.gamma, r.exit_time_ms, r.peak_cwnd_cells,
                  r.final_cwnd_cells, r.optimal_cwnd_cells]
                 for r in result.gamma_rows],
                title="A1 - gamma sweep",
            ),
            format_table(
                ["mode", "peak", "after exit", "final", "optimal"],
                [[r.mode, r.peak_cwnd_cells, r.cwnd_after_exit_cells,
                  r.final_cwnd_cells, r.optimal_cwnd_cells]
                 for r in result.compensation_rows],
                title="A2 - compensation",
            ),
            format_table(
                ["initial cwnd", "exit [ms]", "final", "optimal"],
                [[r.initial_cwnd_cells, r.exit_time_ms, r.final_cwnd_cells,
                  r.optimal_cwnd_cells]
                 for r in result.initial_window_rows],
                title="A3 - initial window",
            ),
            format_table(
                ["hop", "final", "optimal", "prediction"],
                [[r.hop_label, r.final_cwnd_cells, r.optimal_cwnd_cells,
                  r.backprop_prediction_cells]
                 for r in result.backpropagation_rows],
                title="A4 - backpropagation",
            ),
        ]
        return "\n\n".join(sections)
