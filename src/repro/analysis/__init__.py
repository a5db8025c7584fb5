"""Measurement and modelling: traces, CDFs, the optimal-window baseline."""

from .convergence import convergence_time, settled_error, time_in_band
from .optimal_window import (
    HopLink,
    OptimalWindow,
    backpropagated_window,
    bottleneck_rate,
    hop_loop_delay,
    optimal_windows,
    source_optimal_window,
)
from .stats import (
    EmpiricalCdf,
    jain_fairness_index,
    Summary,
    cdf_horizontal_gap,
    stochastic_dominance_fraction,
    summarize,
)
from .trace import TraceRecorder, step_value_at

__all__ = [
    "EmpiricalCdf",
    "HopLink",
    "OptimalWindow",
    "Summary",
    "TraceRecorder",
    "backpropagated_window",
    "bottleneck_rate",
    "cdf_horizontal_gap",
    "convergence_time",
    "hop_loop_delay",
    "jain_fairness_index",
    "optimal_windows",
    "settled_error",
    "source_optimal_window",
    "stochastic_dominance_fraction",
    "step_value_at",
    "summarize",
    "time_in_band",
]
