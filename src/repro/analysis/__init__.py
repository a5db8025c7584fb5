"""Measurement and modelling: traces, CDFs, the optimal-window baseline.

The names below resolve on first use: code that needs one module (the
serializer imports :mod:`~repro.analysis.trace`) loads that one alone.
"""

from typing import Any

from .._lazy import bind_all

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


def __getattr__(name: str) -> Any:
    """Load the four modules and bind ``__all__`` on first use (PEP 562)."""
    return bind_all(globals(), ("convergence", "optimal_window", "stats", "trace"), name)
