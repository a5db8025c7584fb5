"""Reporting: ASCII figures, aligned tables, partial sweeps."""

from typing import Any

from .._lazy import bind_all

__all__ = [
    "format_table",
    "generate_report",
    "partial_payload",
    "partial_writer",
    "render_cdf_pair",
    "render_improvement_vs_utilization",
    "render_partial_table",
    "render_series",
    "render_trace",
]


def __getattr__(name: str) -> Any:
    """Load the submodules and bind ``__all__`` on first use (PEP 562)."""
    return bind_all(globals(), ("ascii", "partial", "summary", "tables"), name)
